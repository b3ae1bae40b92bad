"""Ellipticity certification: symbolic powers, numeric minima, weight plans."""

import numpy as np
import pytest

from cxkit import blockops, ellipticity, symbols
from cxkit.complexes import (
    MuSet,
    de_rham_complex,
    generalized_laplacian,
    laplacian,
)
from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.ellipticity import (
    DEFAULT_SEED,
    WeightPlan,
    dn_check,
    dn_symbol,
    dn_weights_maxwell,
    dn_weights_stokes,
    injectivity_check,
    petrovskii_check,
    strong_ellipticity_check,
)
from cxkit.fixtures import symmetric_gradient_complex
from cxkit.poly import Poly


# ---------------------------------------------------------------------------
# Symbolic certification


def test_laplacian_certified_symbolically():
    for q in range(4):
        cplx = de_rham_complex(3)
        rep = petrovskii_check(laplacian(cplx, q))
        assert rep.verdict == "certified-symbolic"
        assert "|zeta|^2" in (rep.certified_form or "")


def test_gradient_injectivity_certified():
    cplx = de_rham_complex(3)
    rep = injectivity_check(cplx.op(0))
    assert rep.verdict == "certified-symbolic"


def test_strong_ellipticity_sign():
    cplx = de_rham_complex(3)
    lap = laplacian(cplx, 0)
    assert strong_ellipticity_check(lap).ok          # -Delta is positive
    assert not strong_ellipticity_check(-lap).ok     # +Delta is not


def test_rank_deficient_fails_with_witness():
    sig = spatial_signature(2)
    d1 = Poly.variable(sig.vars, "d1")
    # det of [[d1, 0], [0, 0]] vanishes identically
    op = OperatorMatrix.from_entries(
        sig, [[d1, Poly.zero(sig.vars)], [Poly.zero(sig.vars),
                                          Poly.zero(sig.vars)]])
    rep = petrovskii_check(op)
    assert rep.verdict == "fail"
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# Numeric minima with independent oracles


def test_symmetric_gradient_minimum_against_grid_oracle():
    sg = symmetric_gradient_complex()
    rep = injectivity_check(sg.op(0))
    assert rep.verdict == "numeric-pass"
    # oracle: det sigma^H sigma = |zeta|^4 - zeta1^2 zeta2^2 on the unit
    # circle equals 1 - (cos t sin t)^2; dense grid of 10^6 points
    t = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    grid_min = float(np.min(1.0 - (np.cos(t) * np.sin(t)) ** 2))
    assert abs(grid_min - 0.75) < 1e-9
    assert abs(rep.minimum - grid_min) < 1e-6


def test_symmetric_gradient_strong_minimum_exact_eigen_oracle():
    # the weighted degree-1 Laplacian of the symmetric-gradient complex:
    # its symmetrized symbol attains eigenvalue 1/2 at zeta = (1,1)/sqrt(2),
    # where the matrix is (1/4) [[3,1,1],[1,5,1],[1,1,3]] with eigenvector
    # (1, 0, -1).  The determinant bound 3/4 is *not* the eigen minimum.
    sg = symmetric_gradient_complex()
    lap = generalized_laplacian(sg, 1, MuSet.laplace_powers(
        sg, mtilde={0: 1}, mhat={1: 1}))
    rep = strong_ellipticity_check(lap)
    assert rep.verdict == "numeric-pass"
    m = 0.25 * np.array([[3, 1, 1], [1, 5, 1], [1, 1, 3]], dtype=float)
    eig_min = float(np.linalg.eigvalsh(m)[0])
    assert abs(eig_min - 0.5) < 1e-12
    assert abs(rep.minimum - 0.5) < 1e-6


def test_numeric_reports_are_deterministic():
    sg = symmetric_gradient_complex()
    r1 = injectivity_check(sg.op(0), seed=DEFAULT_SEED)
    r2 = injectivity_check(sg.op(0), seed=DEFAULT_SEED)
    assert r1.to_json() == r2.to_json()


# ---------------------------------------------------------------------------
# Weight plans


def test_maxwell_weights_de_rham():
    cplx = de_rham_complex(3)
    p0, p1 = dn_weights_maxwell(cplx)
    assert p0.s == (1, 1, 1, 1) and p0.t == (0, 0, 0, 0)
    assert p1.s == (1, 1, 1, 1) and p1.t == (0, 0, 0, 0)


def test_maxwell_weights_satisfy_defining_relations():
    # back-substitute the defining relations for both variants: each nonzero
    # coupling block of the Maxwell operator must be exactly homogeneous of
    # weight-degree s_p - t_r
    cplx = de_rham_complex(4)
    mu = MuSet.laplace_powers(cplx, {1: 1}, {2: 1})
    p0, p1 = dn_weights_maxwell(cplx, mu)
    n = cplx.length
    m = [cplx.op(j).order() for j in range(n)]
    mt = [max(mu.mu0(j).order(), 0) for j in range(n + 1)]   # order 2*mtilde
    mh = [max(mu.mu1(j).order(), 0) for j in range(n + 1)]
    for plan, variant in ((p0, 0), (p1, 1)):
        s, t = plan.s, plan.t
        for j in range(1, n + 1):
            deg = n - j
            down = m[deg] + (mt[deg] // 2 if variant == 0 else 0)
            up = m[deg] + (0 if variant == 0 else mh[deg] // 2)
            if variant == 0:
                assert s[j - 1] - t[j] == down
                assert s[j] - t[j - 1] == m[deg]
            else:
                assert s[j - 1] - t[j] == m[deg]
                assert s[j] - t[j - 1] == up


def test_maxwell_weights_cover_all_blocks():
    # with the computed plan, the weighted DN symbol keeps every entry of the
    # spatial principal symbol: no coupling is truncated away
    from cxkit.diffop import SPATIAL

    cplx = de_rham_complex(3)
    p0, _ = dn_weights_maxwell(cplx)
    op = blockops.maxwell(cplx, 3)
    part = blockops.BlockPartition.for_degree(cplx, 3)
    sym = dn_symbol(op, part, p0)
    assert sym == op.principal_symbol(SPATIAL)


def test_stokes_weights_classical():
    cplx = de_rham_complex(3)
    plan = dn_weights_stokes(cplx, 1)
    assert plan.s == (2, 1) and plan.t == (0, 1)


def test_stokes_weights_q2():
    cplx = de_rham_complex(3)
    plan = dn_weights_stokes(cplx, 2)
    assert plan.s == (2, 1, 2) and plan.t == (0, 1, 0)


def test_weight_plan_validation():
    with pytest.raises(ValueError):
        WeightPlan((1, 2), (0,), 0, "maxwell")
    with pytest.raises(ValueError):
        WeightPlan((1, -1), (0, 0), 0, "maxwell")


# ---------------------------------------------------------------------------
# DN symbols


def _classical_stokes():
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"),
                      degrees=[1])
    op = blockops.stokes(cplx, 1, mu)
    part = blockops.BlockPartition.for_degree(cplx, 1)
    plan = dn_weights_stokes(cplx, 1, mu)
    return op, part, plan


def test_dn_symbol_classical_stokes_shape():
    op, part, plan = _classical_stokes()
    sym = dn_symbol(op, part, plan)
    vars = sym.signature.vars
    mu = Poly.variable(vars, "mu")
    n2 = sum((Poly.variable(vars, f"z{k}") ** 2 for k in (1, 2, 3)),
             Poly.zero(vars))
    # top-left block is mu |zeta|^2 I_3, bottom-right is zero
    for k in range(3):
        assert sym[k, k] == mu * n2
    assert sym[3, 3].is_zero


def test_dn_check_classical_stokes():
    op, part, plan = _classical_stokes()
    rep = dn_check(op, part, plan)
    assert rep.verdict == "numeric-pass"
    assert abs(rep.minimum - 1.0) < 1e-6


def test_dn_determinant_cofactor_oracle():
    # the determinant of the DN symbol agrees with a naive cofactor
    # expansion (independent algorithm)
    from test_poly import _cofactor_det

    op, part, plan = _classical_stokes()
    sym = dn_symbol(op, part, plan)
    assert sym.body.determinant() == _cofactor_det(sym.body)
