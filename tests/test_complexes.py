"""Complex families, weight sets, and (generalized) Laplacians."""

import pickle
from copy import deepcopy

import pytest

from cxkit import complexes, symbols
from cxkit.complexes import (
    SHARED_COMPLEXES,
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
from cxkit.diffop import SPATIAL, OperatorMatrix, Signature, spatial_signature
from cxkit.poly import GaussianRational, Poly

from math import comb

from _helpers import CONSTANTS, build, mu_matrix, norm2, stored, weights, with_mu


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


def _de_rham_over(n: int, sig: Signature) -> Complex:
    """de Rham(n) built directly over ``sig``: the wedge complex of d1..dn
    and, for n = 3, the change of basis to (grad, curl, div)."""
    gens = [Poly.variable(sig.vars, f"d{j + 1}") for j in range(n)]
    cplx = koszul_complex(gens, sig)
    if n != 3:
        return cplx
    a0, a1, a2 = cplx.ops
    r0, r1, r2 = a1.body.entries
    return Complex([a0, OperatorMatrix.from_entries(sig, [r2, [-p for p in r1], r0]),
                    OperatorMatrix.from_entries(sig, [[c, -b, a] for a, b, c in a2.body.entries])])


@pytest.mark.parametrize("params", [(), ("mu",), ("a", "mu")])
@pytest.mark.parametrize("time", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_lift_stores_what_a_build_over_the_signature_stores(n, time, params):
    """A lift of the (imaginary) de Rham complex onto time and parameters is
    stored, term order included, as a build directly over that signature."""
    sig = Signature(spatial_signature(n).spatial, "dt" if time else None, params)
    built = _de_rham_over(n, sig)
    i = GaussianRational.i()
    for lifted, want in ((de_rham_complex(n).lift(sig), built),
                         (imaginary_de_rham_complex(n).lift(sig),
                          Complex([op.scale(i) for op in built.ops]))):
        assert lifted.signature == sig
        assert [stored(op) for op in lifted.ops] == [stored(op) for op in want.ops]


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


def test_mu_identity_reproduces_laplacian():
    cplx = de_rham_complex(3)
    mu = MuSet.identity(cplx)
    for q in range(4):
        assert generalized_laplacian(cplx, q, mu) == laplacian(cplx, q)


def test_mu_scalar_scales_both_halves():
    cplx = with_mu(de_rham_complex(3))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval)
    for q in range(4):
        assert generalized_laplacian(cplx, q, mu) == laplacian(cplx, q).scale(muval)


def test_mu_coherence():
    cplx = with_mu(de_rham_complex(3))
    mu = weights(cplx, "mu")
    for q in range(cplx.length - 1):
        assert check_coherence(cplx, mu, q)


def test_mu_degree_restriction():
    cplx = with_mu(de_rham_complex(3))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval, degrees=[1])
    # only degree 1 carries weights
    assert generalized_laplacian(cplx, 1, mu) == laplacian(cplx, 1).scale(muval)


def test_mu_lift_to_richer_signature():
    cplx = with_mu(de_rham_complex(3))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"), degrees=[1])
    sig = Signature(cplx.signature.spatial, "dt", ("c", "mu"))
    cplx_t = cplx.lift(sig)
    lifted = mu.lift(cplx_t)
    assert lifted.cplx is cplx_t
    for q in range(cplx.length + 1):
        assert mu_matrix(lifted, 0, q) == mu_matrix(mu, 0, q).lift(sig)
        assert mu_matrix(lifted, 1, q) == mu_matrix(mu, 1, q).lift(sig)


def test_laplace_powers_weights():
    cplx = de_rham_complex(3)
    mu = MuSet.laplace_powers(cplx, {0: 1})
    sig = cplx.signature
    delta = norm2(sig)
    g = generalized_laplacian(cplx, 0, mu)
    # grad* (-Delta) grad = Delta^2 as a scalar operator
    assert g[0, 0] == delta * delta


def test_scalar_weights_place_value_identity_and_skip_rank_zero():
    cplx = with_mu(de_rham_complex(3))
    sig = cplx.signature
    muval = Poly.variable(sig.vars, "mu")
    mu = MuSet(cplx, {0: muval, 3: muval}, {0: 5, 2: muval})
    # mu0 at degree 3 and mu1 at degree 0 act on rank-0 spaces: no entry
    assert set(mu._mu0) == {0} and set(mu._mu1) == {2}
    assert mu_matrix(mu, 0, 0) == OperatorMatrix.identity(sig, 3).scale(muval)
    assert mu_matrix(mu, 1, 2) == OperatorMatrix.identity(sig, 3).scale(muval)
    assert mu_matrix(mu, 0, 1) == OperatorMatrix.identity(sig, 3)
    # the scalar builders and the spec's mu statements are this constructor
    lap = -norm2(sig)
    for got, want in (
        (MuSet.scalar(cplx, muval), MuSet(cplx, dict.fromkeys(range(4), muval),
                                          dict.fromkeys(range(4), muval))),
        (MuSet.laplace_powers(cplx, {1: 1, 3: 2}, {2: 1}),
         MuSet(cplx, {1: lap, 3: lap ** 2}, {2: lap})),
    ):
        for q in range(cplx.length + 1):
            assert mu_matrix(got, 0, q) == mu_matrix(want, 0, q) and mu_matrix(got, 1, q) == mu_matrix(want, 1, q)


def test_perturbed_laplacian_lower_order():
    cplx = de_rham_complex(3).lift(spatial_signature(3, params=("c",)))
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


# ---------------------------------------------------------------------------
# Shared complexes: one immutable complex per argument set, one kept lift per
# signature


def test_equal_arguments_share_one_complex():
    assert de_rham_complex(3) is de_rham_complex(3)
    assert imaginary_de_rham_complex(3) is imaginary_de_rham_complex(3)
    assert powered_de_rham_complex(3, 2) is powered_de_rham_complex(3, 2)
    assert dolbeault_complex(2) is dolbeault_complex(2)
    # their arguments are positional only, so one key per argument set;
    # parameters and time enter through a lift
    for call in (lambda: de_rham_complex(3, params=("mu",)), lambda: de_rham_complex(n=3),
                 lambda: imaginary_de_rham_complex(3, time=True),
                 lambda: powered_de_rham_complex(3, p=2), lambda: dolbeault_complex(n=2)):
        with pytest.raises(TypeError):
            call()
    cplx = de_rham_complex(3)
    assert cplx.principal_symbols() is cplx.principal_symbols()


def test_equal_signatures_share_one_lift():
    """Two lifts of one complex onto equal signatures are one complex, which
    keeps one complex of symbols; a lift onto the complex's own signature is
    the complex itself."""
    cplx = de_rham_complex(3)
    sig = Signature(("d1", "d2", "d3"), "dt", ["mu", "M"])
    lifted = cplx.lift(sig)
    assert lifted is cplx.lift(Signature(("d1", "d2", "d3"), "dt", ("M", "mu")))
    assert lifted.signature == sig and lifted is not cplx
    assert lifted.principal_symbols() is cplx.lift(sig).principal_symbols()
    assert cplx.lift(cplx.signature) is cplx
    assert with_mu(imaginary_de_rham_complex(2)) is with_mu(imaginary_de_rham_complex(2))


def test_different_arguments_build_different_complexes():
    """Different arguments build different complexes; so does every Koszul
    call, which keeps no cache."""
    sig = spatial_signature(2)
    d1, d2 = (Poly.variable(sig.vars, v) for v in sig.vars)
    builds = [de_rham_complex(3), with_mu(de_rham_complex(3)),
              de_rham_complex(3).lift(spatial_signature(3, params=["M", "mu"])),
              de_rham_complex(3).lift(Signature(("d1", "d2", "d3"), "dt")),
              de_rham_complex(4), imaginary_de_rham_complex(3), with_mu(imaginary_de_rham_complex(3)),
              powered_de_rham_complex(3, 2), powered_de_rham_complex(3, 3),
              powered_de_rham_complex(2, 2), dolbeault_complex(2), dolbeault_complex(1),
              koszul_complex([d1, d2 * d2], sig), koszul_complex((d1, d2 * d2), sig)]
    assert len({id(c) for c in builds}) == len(builds)
    assert de_rham_complex(3).signature.params == ()
    assert with_mu(de_rham_complex(3)).signature.params == ("mu",)


def test_koszul_generators_equal_in_value_keep_their_term_order():
    """A generator equal in value but stored in another term order builds its
    own complex, stored as a fresh build stores it."""
    sig = spatial_signature(2)
    p = Poly(sig.vars, {(1, 0): 1, (0, 1): 1})
    q = Poly(sig.vars, {(0, 1): 1, (1, 0): 1})
    assert p == q and list(p._num) != list(q._num)
    a, b = koszul_complex([p, p], sig), koszul_complex([q, q], sig)
    assert a is not b
    for cplx, g in ((a, p), (b, q)):
        assert [stored(op) for op in cplx.ops] == \
            [stored(op) for op in koszul_complex([g, g], sig).ops]


@pytest.mark.parametrize("cached", [complexes.de_rham_complex, complexes.powered_de_rham_complex,
                                    complexes.dolbeault_complex,
                                    complexes.imaginary_de_rham_complex])
def test_each_builder_cache_is_bounded(cached):
    assert cached.cache_info().maxsize == SHARED_COMPLEXES


def test_cache_keeps_to_its_bound():
    """A builder's cache keeps at most ``SHARED_COMPLEXES`` complexes, and a
    complex at most ``SHARED_COMPLEXES`` lifts, the oldest dropped first."""
    for p in range(1, SHARED_COMPLEXES + 4):
        powered_de_rham_complex(1, p)
    assert powered_de_rham_complex.cache_info().currsize == SHARED_COMPLEXES
    cplx = de_rham_complex(1)
    sigs = [spatial_signature(1, params=[f"p{k}"]) for k in range(SHARED_COMPLEXES + 3)]
    first = cplx.lift(sigs[0])
    lifts = [cplx.lift(sig) for sig in sigs]
    assert [k for k in cplx._derived if isinstance(k, Signature)] == sigs[-SHARED_COMPLEXES:]
    assert lifts[0] is first and lifts[-1] is cplx.lift(sigs[-1])
    assert cplx.lift(sigs[0]) is not first


def test_shared_complex_is_immutable():
    cplx = de_rham_complex(2)
    for name in ("ops", "signature", "ranks", "_derived", "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(cplx, name, None)
    with pytest.raises(AttributeError, match="immutable"):
        del cplx.ops
    for copy in (pickle.loads(pickle.dumps(cplx)), deepcopy(cplx)):
        assert copy is not cplx and copy.ops == cplx.ops and copy.ranks == cplx.ranks


# Each shared complex (or kept lift) beside a fresh build by the builder's
# uncached function (lifted afresh): (row, lift), the lift none, onto mu or
# onto time and mu
LIFTS = {None: lambda c: c, "mu": with_mu, "time-mu": lambda c: with_mu(c, "dt")}
SHARED = [("de-rham-2", None), ("de-rham-3", None), ("de-rham-4", None), ("de-rham-3", "mu"),
          ("de-rham-2", "time-mu"), ("imaginary-de-rham-3", "mu"), ("dolbeault-2", None),
          ("dolbeault-3", None), ("powered-de-rham-3-2", None)]


def _derived(cplx: Complex, weight) -> list:
    """Every principal symbol, adjoint and delta_j of ``cplx`` and both sides
    of its parametrix, with no weight and with the scalar ``weight``, each in
    its stored form."""
    sym = cplx.principal_symbols()
    out = [stored(m) for q in range(cplx.length) for m in (
        cplx.op(q).principal_symbol(SPATIAL), sym.op(q), cplx.op(q).formal_adjoint(),
        sym.op(q).hermitian_transpose())]
    for mu in (None, MuSet.scalar(cplx, weight)):
        out += [stored(symbols.delta(cplx, j, mu)) for j in range(cplx.length + 1)]
        for side in ("right", "left"):
            par = symbols.maxwell_parametrix_symbol(cplx, mu, side)
            out += [stored(par.num), stored(par.den)]
    return out


@pytest.mark.parametrize("name, lift", SHARED, ids=["-".join(filter(None, r)) for r in SHARED])
def test_shared_complex_derives_what_a_fresh_build_derives(name, lift):
    """The derivations a shared complex keeps, read by a second caller, equal
    those of a fresh build entry for entry and in stored term order."""
    weight = CONSTANTS["rational"]
    lifted = LIFTS[lift]
    first = _derived(lifted(build(name)), weight)
    again = lifted(build(name))
    assert again is lifted(build(name))
    assert again.principal_symbols() is lifted(build(name)).principal_symbols()
    fresh = lifted(build(name, fresh=True))
    assert fresh is not again
    assert _derived(again, weight) == first == _derived(fresh, weight)
