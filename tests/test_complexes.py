"""Complex families, weight sets, and (generalized) Laplacians."""

import pytest
from hypothesis import given, settings, strategies as st

from cxkit.complexes import (
    Complex,
    MuSet,
    check_coherence,
    de_rham_complex,
    dolbeault_complex,
    generalized_laplacian,
    imaginary_de_rham_complex,
    koszul_complex,
    laplacian,
    perturbed_laplacian,
    powered_de_rham_complex,
)
from cxkit.diffop import OperatorMatrix, Signature, spatial_signature
from cxkit.poly import GaussianRational, Poly

from math import comb


def _weight(mu, which, q):
    """The weight mu0_q (``which`` 0) or mu1_q (``which`` 1) as a matrix:
    the identity with the weight applied."""
    k = mu.cplx.rank(q + 1 if which == 0 else q - 1)
    return mu.apply(which, q, mu.cplx.identity(k))


# ---------------------------------------------------------------------------
# Complex property (exact)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_de_rham_is_complex(n):
    cplx = de_rham_complex(n)
    assert cplx.is_complex()
    assert cplx.ranks == tuple(comb(n, q) for q in range(n + 1))


@pytest.mark.parametrize("n", [2, 3])
def test_de_rham_small_ops(n):
    cplx = de_rham_complex(n)
    sig = cplx.signature
    # degree-0 operator is the gradient
    for k in range(n):
        assert cplx.op(0)[k, 0] == Poly.variable(sig.vars, f"d{k + 1}")


def test_de_rham_3_curl_div():
    cplx = de_rham_complex(3)
    sig = cplx.signature
    d = [Poly.variable(sig.vars, f"d{k}") for k in (1, 2, 3)]
    curl = cplx.op(1)
    # rows of curl are (up to ordering/sign) the standard curl
    div = cplx.op(2)
    assert (curl @ cplx.op(0)).is_zero
    assert (div @ curl).is_zero
    assert sorted(str(div[0, j]) for j in range(3)) == sorted(str(p) for p in d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_koszul_is_complex(n):
    sig = spatial_signature(n)
    gens = [Poly.variable(sig.vars, f"d{k + 1}") for k in range(n)]
    cplx = koszul_complex(gens, sig)
    assert cplx.is_complex()


def test_koszul_general_generators():
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, f"d{k}") for k in (1, 2, 3))
    cplx = koszul_complex([d1 * d1, d2 + d3, d1 * d3], sig)
    assert cplx.is_complex()


@pytest.mark.parametrize("p", [2, 3])
def test_powered_de_rham_is_complex(p):
    cplx = powered_de_rham_complex(3, p)
    assert cplx.is_complex()


def test_dolbeault_is_complex():
    cplx = dolbeault_complex(2)
    assert cplx.is_complex()
    # entries are (d_{2j-1} + i d_{2j}) / 2
    sig = cplx.signature
    i = GaussianRational.i()
    half = GaussianRational.of(1, 0) / GaussianRational.of(2, 0)
    d1 = Poly.variable(sig.vars, "d1")
    d2 = Poly.variable(sig.vars, "d2")
    dbar = (d1 + d2.scale(i)).scale(half)
    assert any(cplx.op(0)[k, 0] == dbar for k in range(cplx.op(0).rows))


def test_imaginary_de_rham():
    cplx = imaginary_de_rham_complex(3)
    real = de_rham_complex(3)
    i = GaussianRational.i()
    assert cplx.is_complex()
    for q in range(3):
        assert cplx.op(q) == real.op(q).lift(cplx.signature).scale(i)
    # adjoints: (i d_k)* = i d_k entrywise, so the Laplacian is unchanged
    for q in range(4):
        assert laplacian(cplx, q) == laplacian(real, q).lift(cplx.signature)


# ---------------------------------------------------------------------------
# Laplacians (exact oracles)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_de_rham_laplacian_is_minus_delta(n):
    cplx = de_rham_complex(n)
    sig = cplx.signature
    minus_delta = -sum(
        (Poly.variable(sig.vars, f"d{k + 1}") ** 2 for k in range(n)),
        Poly.zero(sig.vars),
    )
    for q in range(n + 1):
        lap = laplacian(cplx, q)
        expected = OperatorMatrix.identity(sig, cplx.rank(q)).scale(minus_delta)
        assert lap == expected


@pytest.mark.parametrize("p", [2, 3])
def test_powered_laplacian(p):
    n = 3
    cplx = powered_de_rham_complex(n, p)
    sig = cplx.signature
    sign = GaussianRational.of((-1) ** p, 0)
    val = sum(
        (Poly.variable(sig.vars, f"d{k + 1}") ** (2 * p) for k in range(n)),
        Poly.zero(sig.vars),
    ).scale(sign)
    for q in range(n + 1):
        assert laplacian(cplx, q) == OperatorMatrix.identity(
            sig, cplx.rank(q)).scale(val)


def test_dolbeault_laplacian_quarter_delta():
    cplx = dolbeault_complex(2)
    sig = cplx.signature
    quarter = GaussianRational.of(-1, 0) / GaussianRational.of(4, 0)
    val = sum(
        (Poly.variable(sig.vars, f"d{k + 1}") ** 2 for k in range(4)),
        Poly.zero(sig.vars),
    ).scale(quarter)
    for q in range(cplx.length + 1):
        assert laplacian(cplx, q) == OperatorMatrix.identity(
            sig, cplx.rank(q)).scale(val)


# ---------------------------------------------------------------------------
# Weight sets


def _scalar_mu(cplx, value):
    return MuSet.scalar(cplx, value)


def test_mu_identity_reproduces_laplacian():
    cplx = de_rham_complex(3)
    mu = MuSet.identity(cplx)
    for q in range(4):
        assert generalized_laplacian(cplx, q, mu) == laplacian(cplx, q)


def test_mu_scalar_scales_both_halves():
    cplx = de_rham_complex(3, params=("mu",))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval)
    for q in range(4):
        assert generalized_laplacian(cplx, q, mu) == laplacian(cplx, q).scale(muval)


def test_mu_coherence():
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    for q in range(cplx.length - 1):
        assert check_coherence(cplx, mu, q)


def test_mu_degree_restriction():
    cplx = de_rham_complex(3, params=("mu",))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval, degrees=[1])
    # only degree 1 carries weights
    assert generalized_laplacian(cplx, 1, mu) == laplacian(cplx, 1).scale(muval)


def test_mu_lift_to_richer_signature():
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"), degrees=[1])
    sig = Signature(cplx.signature.spatial, "dt", ("c", "mu"))
    cplx_t = cplx.lift(sig)
    lifted = mu.lift(cplx_t)
    assert lifted.cplx is cplx_t
    for q in range(cplx.length + 1):
        assert _weight(lifted, 0, q) == _weight(mu, 0, q).lift(sig)
        assert _weight(lifted, 1, q) == _weight(mu, 1, q).lift(sig)


def test_laplace_powers_weights():
    cplx = de_rham_complex(3)
    mu = MuSet.laplace_powers(cplx, {0: 1})
    sig = cplx.signature
    delta = sum((Poly.variable(sig.vars, f"d{k}") ** 2 for k in (1, 2, 3)),
                Poly.zero(sig.vars))
    g = generalized_laplacian(cplx, 0, mu)
    # grad* (-Delta) grad = Delta^2 as a scalar operator
    assert g[0, 0] == delta * delta


def test_scalar_weights_place_value_identity_and_skip_rank_zero():
    cplx = de_rham_complex(3, params=("mu",))
    sig = cplx.signature
    muval = Poly.variable(sig.vars, "mu")
    mu = MuSet(cplx, {0: muval, 3: muval}, {0: 5, 2: muval})
    # mu0 at degree 3 and mu1 at degree 0 act on rank-0 spaces: no entry
    assert set(mu._mu0) == {0} and set(mu._mu1) == {2}
    assert _weight(mu, 0, 0) == OperatorMatrix.identity(sig, 3).scale(muval)
    assert _weight(mu, 1, 2) == OperatorMatrix.identity(sig, 3).scale(muval)
    assert _weight(mu, 0, 1) == OperatorMatrix.identity(sig, 3)
    # the scalar builders and the spec's mu statements are this constructor
    lap = Poly.zero(sig.vars)
    for v in sig.spatial:
        lap = lap - Poly.variable(sig.vars, v) ** 2
    for got, want in (
        (MuSet.scalar(cplx, muval), MuSet(cplx, dict.fromkeys(range(4), muval),
                                          dict.fromkeys(range(4), muval))),
        (MuSet.laplace_powers(cplx, {1: 1, 3: 2}, {2: 1}),
         MuSet(cplx, {1: lap, 3: lap ** 2}, {2: lap})),
    ):
        for q in range(cplx.length + 1):
            assert _weight(got, 0, q) == _weight(want, 0, q) and _weight(got, 1, q) == _weight(want, 1, q)


def test_perturbed_laplacian_lower_order():
    cplx = de_rham_complex(3, params=("c",))
    mu = MuSet.identity(cplx)
    c = Poly.variable(cplx.signature.vars, "c")
    pot = OperatorMatrix.scalar(cplx.signature, c)
    pert = perturbed_laplacian(cplx, 0, mu, pot)
    assert pert == laplacian(cplx, 0) + pot


def test_perturbed_laplacian_order_limit():
    cplx = de_rham_complex(3)
    mu = MuSet.identity(cplx)
    sig = cplx.signature
    too_big = OperatorMatrix.scalar(sig, Poly.variable(sig.vars, "d1") ** 2)
    with pytest.raises(ValueError):
        perturbed_laplacian(cplx, 0, mu, too_big)


def test_perturbed_laplacian_top_degree_limit():
    """At the top degree delta_{N,mu} = A_{N-1} mu1_N A_{N-1}^* has order
    2 (m_{N-1} + mhat_N), 4 here: an order-3 perturbation is lower order (the
    limit used to ignore mu1_N and read 1) and an order-4 one is refused."""
    cplx = de_rham_complex(3)
    mu = MuSet.laplace_powers(cplx, mhat={3: 1})
    sig = cplx.signature
    d1 = Poly.variable(sig.vars, "d1")
    third = OperatorMatrix.scalar(sig, d1 ** 3)
    assert generalized_laplacian(cplx, 3, mu).order() == 4
    assert perturbed_laplacian(cplx, 3, mu, third) == generalized_laplacian(cplx, 3, mu) + third
    with pytest.raises(ValueError, match="perturbation order 4 exceeds the limit 3"):
        perturbed_laplacian(cplx, 3, mu, OperatorMatrix.scalar(sig, d1 ** 4))


# ---------------------------------------------------------------------------
# Structural


def test_complex_rejects_mismatched_shapes():
    sig = spatial_signature(2)
    a = OperatorMatrix.from_entries(
        sig, [[Poly.variable(sig.vars, "d1")], [Poly.variable(sig.vars, "d2")]])
    with pytest.raises(ValueError):
        Complex([a, a])  # 2x1 cannot follow 2x1


def test_op_outside_range_is_zero():
    cplx = de_rham_complex(2)
    assert cplx.op(-1).is_zero
    assert cplx.op(5).is_zero
