"""Kept Gram products: a complex forms A_q* A_q and A_{q-1} A_{q-1}* once,
an absent or constant scalar weight reads them (scaled), and every other
weight takes the weighted product; the fast path is checked against the
explicit products, stored form and term order included."""

import pytest

from cxkit import symbols
from cxkit.blockops import factorization_residual
from cxkit.complexes import (SHARED_COMPLEXES, MuSet, _gram, de_rham_complex,
                             generalized_laplacian)
from cxkit.diffop import Signature, spatial_signature
from cxkit.poly import PolyMatrix

from _helpers import CONSTANTS, WEIGHTS, build, stored, weights, with_mu

# The rows swept, each a fresh build (the builder's uncached function), so
# each test sees its complexes without Gram products kept by other tests
NAMES = ["de-rham-2", "de-rham-3", "de-rham-4", "dolbeault-2", "powered-de-rham-3-2",
         "symmetric-gradient-3", "koszul-3"]


def _variants(name: str) -> dict:
    """The complex as operators and as symbols, each also lifted onto time
    and ``mu``: {label: (operator complex, complex the weights act on)}."""
    cplx = build(name, fresh=True)
    lifted = with_mu(cplx, "dt")
    return {"ops": (cplx, cplx), "symbols": (cplx, cplx.principal_symbols()),
            "ops-time-mu": (lifted, lifted), "symbols-time-mu": (lifted, lifted.principal_symbols())}


def _reference(cplx, q: int, mu: MuSet):
    """delta_{q,mu} by the explicit products, as the weights apply them."""
    a, b = cplx.op(q), cplx.op(q - 1)
    return mu.apply(0, q, a.formal_adjoint()) @ a + mu.apply(1, q, b) @ b.formal_adjoint()


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", NAMES)
def test_generalized_laplacian_matches_the_explicit_products(name, kind):
    """Every delta, on operators and symbols, unlifted and lifted, for each
    weight kind, is stored as the explicit products store it; so are the
    outer product alone, on a first call (which forms the kept products)
    and on a second (which reads them).  The corner mu1_q A_{q-1}* A_{q-1},
    mu1_q applied on the left to the kept product, equals the explicit
    product for every kind and is stored alike for absent and constant
    weights."""
    for label, (cplx, target) in _variants(name).items():
        if kind.startswith("mu") and "mu" not in cplx.signature.vars:
            continue  # a parameter weight needs the parameter
        mu = weights(cplx, kind) or MuSet.identity(cplx)
        if target is not cplx:
            mu = mu.principal_symbols(target)
        for q in range(target.length + 1):
            want = stored(_reference(target, q, mu))
            for _ in range(2):
                assert stored(generalized_laplacian(target, q, mu)) == want, (label, q)
            b = target.op(q - 1)
            assert stored(_gram(target, 1, q, mu)) == \
                stored(mu.apply(1, q, b) @ b.formal_adjoint()), (label, q)
            if q:  # the Stokes corner: mu1_q applied to the kept product
                corner = mu.apply(1, q, _gram(target, 0, q - 1), left=True)
                explicit = mu.apply(1, q, b.formal_adjoint(), left=True) @ b
                assert corner == explicit, (label, q)
                if kind == "absent" or kind in CONSTANTS:
                    assert stored(corner) == stored(explicit), (label, q)


def _kept_grams(cplx) -> dict:
    """The Gram products ``cplx`` keeps, by key."""
    return {k: v for k, v in cplx._derived.items() if isinstance(k, tuple) and k[0] == "gram"}


def _count_products(monkeypatch) -> list:
    """Count every matrix product from now on."""
    calls, matmul = [], PolyMatrix.__matmul__

    def counted(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counted)
    return calls


# The sides (mu0_q or mu1_q, as (0, q) or (1, q)) of de Rham(3) each kind
# weighs: none for an absent or constant weight, all six for every other
# kind but the alternating Laplace powers, which weigh mu0 at degrees 0 and
# 2 and mu1 at degrees 1 and 3
SIDES = {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)}
WEIGHTED = {"absent": set(), **dict.fromkeys(CONSTANTS, set()),
            "alternating-laplace-powers": {(0, 0), (0, 2), (1, 1), (1, 3)}}


@pytest.mark.parametrize("kind", WEIGHTS)
def test_only_absent_and_constant_weights_read_kept_grams(kind, monkeypatch):
    """An absent or constant weight forms no product once the complex keeps
    its Grams; a parameter, Laplace-power or matrix weight takes the
    weighted product on each side it weighs and keeps no Gram there."""
    cplx = with_mu(build("de-rham-3", fresh=True), "dt")
    mu = weights(cplx, kind) or MuSet.identity(cplx)
    degrees = range(cplx.length + 1)
    first = [generalized_laplacian(cplx, q, mu) for q in degrees]
    grams = _kept_grams(cplx)
    calls = _count_products(monkeypatch)
    again = [generalized_laplacian(cplx, q, mu) for q in degrees]
    assert [stored(d) for d in again] == [stored(d) for d in first]
    weighted = WEIGHTED.get(kind, SIDES)
    assert set(grams) == {("gram", w, q) for w, q in SIDES - weighted}
    # one product per weighted side, and a matrix weight's own product before it
    assert len(calls) == (2 if kind == "matrix" else 1) * len(weighted)


def test_two_weight_sets_read_one_kept_gram():
    """On one shared complex the unweighted set and the constant weight 2 at
    degrees 1 and 2 (``tests/data/shared_de_rham3.spec``) give different
    deltas, both from the same kept Gram objects, as operators and as
    symbols."""
    for cplx in (de_rham_complex(3), de_rham_complex(3).principal_symbols()):
        plain, two = MuSet.identity(cplx), MuSet(cplx, {1: 2, 2: 2}, {1: 2, 2: 2})
        first = [generalized_laplacian(cplx, q, plain) for q in range(4)]
        grams = _kept_grams(cplx)
        weighted = [generalized_laplacian(cplx, q, two) for q in range(4)]
        assert _kept_grams(cplx) == grams
        assert all(cplx._derived[k] is v for k, v in grams.items())
        # degrees 0 and 3 carry no weight: the kept Grams themselves
        assert weighted[0] is first[0] is grams["gram", 0, 0]
        assert weighted[3] is first[3] is grams["gram", 1, 3]
        for q in (1, 2):
            assert weighted[q] != first[q]
            assert stored(weighted[q]) == stored(_reference(cplx, q, two))
            assert weighted[q] == grams["gram", 0, q].scale(2) + grams["gram", 1, q].scale(2)


def test_lifts_evict_lifts_and_keep_the_grams():
    """After ``SHARED_COMPLEXES + 1`` lifts of a complex that keeps its Gram
    products, the Grams are still kept and exactly ``SHARED_COMPLEXES``
    lifts, the newest."""
    cplx = build("de-rham-2", fresh=True)
    for q in range(cplx.length + 1):
        generalized_laplacian(cplx, q, MuSet.identity(cplx))
    grams = _kept_grams(cplx)
    assert len(grams) == 2 * cplx.length
    sigs = [spatial_signature(2, params=[f"p{k}"]) for k in range(SHARED_COMPLEXES + 1)]
    for sig in sigs:
        cplx.lift(sig)
    assert all(cplx._derived[k] is v for k, v in grams.items())
    assert [k for k in cplx._derived if isinstance(k, Signature)] == sigs[1:]


@pytest.mark.parametrize("value", list(CONSTANTS.values()))
def test_factorization_and_stokes_read_the_kept_grams(value):
    """The factorization residual and the Stokes fundamental symbol with a
    constant weight hold on a complex whose Grams are kept, as on a fresh
    one, and the Stokes symbol is stored alike."""
    fresh, kept = build("de-rham-3", fresh=True), build("de-rham-3", fresh=True)
    for c in (kept, kept.principal_symbols()):
        for q in range(4):
            generalized_laplacian(c, q, MuSet.identity(c))
    for cplx in (fresh, kept):
        mu = MuSet.scalar(cplx, value, degrees=[1, 2, 3])
        assert all(factorization_residual(cplx, q, mu).is_zero for q in range(4))
    if value:  # a zero weight at degree 1 leaves delta_1 singular
        (f0, r0), (f1, r1) = (symbols.stokes_fundamental_symbol(
            c, 1, MuSet(c, {1: value, 2: value}, {2: value, 3: value})) for c in (fresh, kept))
        assert r0 == r1 and r0["ok"]
        assert stored(f0.num) == stored(f1.num) and f0.den == f1.den


@pytest.mark.parametrize("kind", WEIGHTS)
def test_mapped_weights_are_what_the_checked_constructor_keeps(kind):
    """The symbols and a lift of a weight set, built without the weight
    checks, hold the weights the checked constructor keeps of them."""
    cplx = with_mu(build("de-rham-3", fresh=True), "dt")
    mu = weights(cplx, kind) or MuSet.identity(cplx)
    richer = cplx.lift(Signature(cplx.signature.spatial, "dt", ("mu", "nu")))
    for mapped in (mu.principal_symbols(cplx.principal_symbols()), mu.lift(richer)):
        checked = MuSet(mapped.cplx, mapped._mu0, mapped._mu1)
        assert (mapped._mu0, mapped._mu1) == (checked._mu0, checked._mu1)
        assert len(mapped._mu0) + len(mapped._mu1) == len(mu._mu0) + len(mu._mu1)
