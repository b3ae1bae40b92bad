"""Acceptance gate: the nine headline guarantees, one pass/fail line each.

Each criterion prints a single ``[criterion N] PASS`` line on the real stdout
(bypassing capture) once its assertions hold; a failed criterion shows up as a
normal pytest failure instead.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cxkit import blockops, ellipticity, fixtures, syzygy
from cxkit.complexes import (
    Complex,
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    koszul_complex,
    laplacian,
    powered_de_rham_complex,
)
from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.poly import Poly

from _helpers import with_mu

REFERENCE_BUNDLE = Path(__file__).resolve().parent / "data" / "fixtures_bundle.json"


def _announce(n, message):
    print(f"[criterion {n}] PASS: {message}", file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------


def test_criterion_1_complex_property():
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        assert de_rham_complex(n).is_complex()
    for n in (2, 3):
        sig = spatial_signature(n)
        gens = [Poly.variable(sig.vars, f"d{k + 1}") for k in range(n)]
        assert koszul_complex(gens, sig).is_complex()
    for p in (2, 3):
        assert powered_de_rham_complex(3, p).is_complex()
    assert dolbeault_complex(2).is_complex()
    assert fixtures.symmetric_gradient_complex().is_complex()
    assert fixtures.planar_flow_complex().is_complex()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _announce(1, f"all complex families verified exactly in {elapsed:.2f}s")


def test_criterion_2_exact_laplacians():
    rep = fixtures.laplacian_family()
    assert rep["ok"], rep["checks"]
    sg = fixtures.symmetric_gradient_plane()
    assert sg["checks"]["weighted-laplacian-0"]
    assert sg["checks"]["weighted-laplacian-1"]
    pf = fixtures.planar_flow()
    assert all(pf["checks"][f"laplacian-{q}"] for q in range(3))
    _announce(2, "closed-form (generalized) Laplacians match exactly")


def test_criterion_3_block_fixtures():
    for name in ("electromagnetic", "acoustics", "mass-quanta",
                 "stokes-classical", "stokes-block-3"):
        rep = fixtures.FIXTURES[name]()
        assert rep["ok"], (name, rep["checks"])
    _announce(3, "hand-entered block systems equal the assembled operators")


def test_criterion_4_operator_factorization():
    for n in (2, 3, 4):
        cplx = de_rham_complex(n)
        mu = MuSet.laplace_powers(cplx, {j: 1 for j in range(n + 1)},
                                  {j: 1 for j in range(n + 1)})
        for q in range(1, n + 1):
            assert blockops.verify_factorization(cplx, q)
            assert blockops.verify_factorization(cplx, q, mu)
    assert blockops.verify_wave_factorization(de_rham_complex(3), 3,
                                              [1, 1, 1, 1])
    em = fixtures.electromagnetic()
    assert em["checks"]["wave-factorization"] and em["checks"]["wave-diagonal"]
    _announce(4, "block factorizations hold exactly, wave case included")


def test_criterion_5_symbol_parametrices():
    rep = fixtures.parametrix_family()
    assert rep["ok"], rep["checks"]
    oseen = fixtures.oseen_symbol()
    assert oseen["ok"], oseen["checks"]
    # evolution identity denominator is i*tau + mu |zeta|^2
    den = oseen["evolution_denominator"]
    assert "tau" in den and "mu" in den
    _announce(5, "symbol parametrices and fundamental symbols verified exactly")


def test_criterion_6_ellipticity():
    # exact Gram determinant of the plane symmetric-gradient operator
    sg = fixtures.symmetric_gradient_complex()
    sym = sg.op(0).principal_symbol("spatial")
    gram = (sym.hermitian_transpose() @ sym).body.determinant()
    vars = gram.vars
    z1 = Poly.variable(vars, "z1")
    z2 = Poly.variable(vars, "z2")
    n2 = z1 * z1 + z2 * z2
    assert gram == n2 * n2 - z1 * z1 * z2 * z2
    # numeric minimum vs an independent 10^6-point grid oracle
    rep = ellipticity.injectivity_check(sg.op(0))
    t = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    grid_min = float(np.min(1.0 - (np.cos(t) * np.sin(t)) ** 2))
    assert rep.verdict == "numeric-pass"
    assert abs(rep.minimum - grid_min) < 1e-6
    assert abs(grid_min - 0.75) < 1e-9
    # de Rham delta_q certified symbolically as |zeta|^2 I
    cplx = de_rham_complex(3)
    for q in range(4):
        cert = ellipticity.petrovskii_check(laplacian(cplx, q))
        assert cert.verdict == "certified-symbolic"
    _announce(6, "determinants exact, numeric minimum matches the grid oracle")


def test_criterion_7_dn_weights():
    cplx = de_rham_complex(3)
    p0, p1 = ellipticity.dn_weights_maxwell(cplx)
    assert p0.s == (1, 1, 1, 1) and p0.t == (0, 0, 0, 0)
    cp = with_mu(de_rham_complex(3))
    plan = ellipticity.dn_weights_stokes(cp, 1)
    assert plan.s == (2, 1) and plan.t == (0, 1)
    # DN determinant of the classical degree-1 system: numeric pass, with the
    # symbolic determinant cross-checked against sympy's
    from test_poly_kernel import assert_det_matches_sympy

    mu = MuSet.scalar(cp, Poly.variable(cp.signature.vars, "mu"), degrees=[1])
    op = blockops.stokes(cp, 1, mu)
    part = blockops.BlockPartition.for_degree(cp, 1)
    rep = ellipticity.dn_check(op, part, ellipticity.dn_weights_stokes(cp, 1, mu))
    assert rep.verdict == "numeric-pass"
    sym = ellipticity.dn_symbol(op, part, ellipticity.dn_weights_stokes(cp, 1, mu))
    assert_det_matches_sympy(sym.body)
    _announce(7, "weight plans exact; DN symbol elliptic with sympy oracle")


def test_criterion_8_syzygies():
    start = time.monotonic()
    sig3 = spatial_signature(3)
    grad = OperatorMatrix.from_entries(
        sig3, [[Poly.variable(sig3.vars, f"d{k}")] for k in (1, 2, 3)])
    b = syzygy.compatibility_operator(grad)
    assert syzygy.module_equivalent(b, de_rham_complex(3).op(1))
    sg = fixtures.symmetric_gradient_complex()
    assert syzygy.module_equivalent(
        syzygy.compatibility_operator(sg.op(0)), sg.op(1))
    pf = fixtures.planar_flow_complex()
    assert syzygy.module_equivalent(
        syzygy.compatibility_operator(pf.op(0)), pf.op(1))
    ops = syzygy.extend_to_complex(grad)
    assert [ops[0].cols] + [o.rows for o in ops] == [1, 3, 3, 1]
    assert Complex(ops).is_complex()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(8, f"compatibility operators recovered in {elapsed:.2f}s")


def test_criterion_9_deterministic_reports(tmp_path):
    payloads = []
    for name in ("run1.json", "run2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cxkit.cli", "fixtures", "--json", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]
    assert payloads[0] == REFERENCE_BUNDLE.read_bytes()
    bundle = json.loads(payloads[0])
    assert bundle["ok"]
    _announce(9, "fixture bundle JSON byte-identical across independent runs "
                 "and to the reference bundle")
