"""One placement path: every block system is the Maxwell couplings plus a
diagonal placed by ``blockops._assemble``, and every rational block system
is placed by ``symbols._placed``.  Each builder is checked against the
placement written out by hand (the Maxwell blocks plus the diagonal in one
``block_place``), stored form and term order included."""

from fractions import Fraction

import pytest

from cxkit import blockops, symbols
from cxkit.blockops import (
    BlockPartition,
    assemble_stokes,
    block_place,
    maxwell,
    maxwell_blocks,
    maxwell_time,
    stokes_time,
)
from cxkit.complexes import MuSet, de_rham_complex, generalized_laplacian, perturbed_laplacian
from cxkit.poly import Poly
from cxkit.symbols import HypothesisFailure

from _helpers import CONSTANTS, build, stored, weights, with_mu

# The rows swept, lifted onto mu, and one weight kind per placement path
# (the other four kinds take the same paths and would add about 1.5 s); the
# Gaussian constant keeps its test id
NAMES = ["de-rham-2", "de-rham-3", "de-rham-4", "dolbeault-2", "symmetric-gradient-3",
         "koszul-3"]
KINDS = ["absent", "gaussian", "mu", "laplace-power", "matrix"]
KIND_IDS = {"gaussian": "constant"}


def _targets(name: str, kind: str):
    """The complex and its weights, as operators and as symbols."""
    cplx = with_mu(build(name))
    mu = weights(cplx, kind)
    sym = cplx.principal_symbols()
    return [(cplx, mu), (sym, None if mu is None else mu.principal_symbols(sym))]


# ---------------------------------------------------------------------------
# The placements written out by hand


def _placed_by_hand(cplx, q, diagonal, mu=None, variant=0):
    blocks = maxwell_blocks(cplx, q, mu, variant)
    blocks.update({(j, j): d for j, d in diagonal.items()})
    part = BlockPartition.for_degree(cplx, q)
    return block_place(part, blocks) if blocks else cplx.zero(part.size, part.size)


def _maxwell_time_by_hand(cplx, q, b, mu, variant):
    cplx, mu, b, dt = blockops._with_time(cplx, q, b, mu)
    return _placed_by_hand(cplx, q, {j: cplx.identity(cplx.rank(j), blockops._product(bj, dt))
                                     for j, bj in enumerate(b)}, mu, variant)


def _stokes_by_hand(cplx, q, diagonal):
    cplx = cplx.lift(cplx.signature.merge(*(d.signature for d in diagonal)))
    return _placed_by_hand(cplx, q, dict(enumerate(diagonal)))


def _stokes_time_by_hand(cplx, q, b, mu, kind):
    cplx, mu, b, dt = blockops._with_time(cplx, q, b, mu)
    square = kind == "parabolic"
    time_term = dt if square else dt * dt
    diagonal = [(perturbed_laplacian(cplx, j, mu) + cplx.identity(cplx.rank(j), time_term))
                .scale(blockops._product(bj, bj) if square else bj) for j, bj in enumerate(b)]
    return _stokes_by_hand(cplx, q, diagonal)


def _profiles(cplx, q):
    """The time coefficients b_0..b_q: all ones, and a parameter at the odd
    degrees."""
    beta = Poly.variable(("beta",), "beta")
    return [[1] * (q + 1), [beta if j % 2 else Fraction(j + 2, 2) for j in range(q + 1)]]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: KIND_IDS.get(k, k))
@pytest.mark.parametrize("name", NAMES)
def test_maxwell_builders_place_as_by_hand(name, kind):
    for cplx, mu in _targets(name, kind):
        for q in range(cplx.length + 1):
            for variant in (0, 1):
                assert stored(maxwell(cplx, q, mu, variant)) == \
                    stored(_placed_by_hand(cplx, q, {}, mu, variant)), (q, variant)
                for b in _profiles(cplx, q):
                    assert stored(maxwell_time(cplx, q, b, mu, variant)) == \
                        stored(_maxwell_time_by_hand(cplx, q, b, mu, variant)), (q, variant)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: KIND_IDS.get(k, k))
@pytest.mark.parametrize("name", NAMES)
def test_stokes_builders_place_as_by_hand(name, kind):
    for cplx, mu in _targets(name, kind):
        for q in range(cplx.length + 1):
            diagonal = [generalized_laplacian(cplx, j, mu or MuSet.identity(cplx))
                        for j in range(q + 1)]
            assert stored(assemble_stokes(cplx, q, diagonal)) == \
                stored(_stokes_by_hand(cplx, q, diagonal)), q
            for b in _profiles(cplx, q):
                for time_kind in ("parabolic", "hyperbolic"):
                    assert stored(stokes_time(cplx, q, b, mu, kind=time_kind)) == \
                        stored(_stokes_time_by_hand(cplx, q, b, mu, time_kind)), (q, time_kind)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: KIND_IDS.get(k, k))
@pytest.mark.parametrize("name", NAMES)
def test_stokes_dn_symbol_places_as_by_hand(name, kind):
    cplx = with_mu(build(name))
    mu = weights(cplx, kind)
    sym, mus = symbols._symbols(cplx, mu)
    for q in range(cplx.length + 1):
        want = _placed_by_hand(sym, q, {q: generalized_laplacian(sym, q, mus)})
        assert stored(symbols.stokes_dn_symbol(cplx, q, mu)) == stored(want), q


def test_no_blocks_place_the_zero_matrix():
    cplx = de_rham_complex(3)
    zero = blockops._assemble(cplx, 0, {})
    assert stored(zero) == stored(cplx.zero(1, 1)) and zero.is_zero


# ---------------------------------------------------------------------------
# The Stokes fundamental symbol against the corner -(mu1 sigma^*) sigma


def _n_symbol_by_hand(sym, q, mus, q_inverse):
    """N + sigma(M_{q-1}) with the corner built as -(mu1_q sigma_{q-1}^*)
    sigma_{q-1}, every block over one denominator and placed."""
    sq1 = sym.op(q - 1)
    mu1_adj = mus.apply(1, q, sq1.hermitian_transpose(), left=True)
    blocks = {(q, q): q_inverse @ symbols._gram(sym, 0, q, mus), (q, q - 1): sq1,
              (q - 1, q): mu1_adj, (q - 1, q - 1): -(mu1_adj @ sq1),
              **maxwell_blocks(sym, q - 1)}
    rationals = [b if isinstance(b, symbols.RationalSymbolMatrix)
                 else symbols.RationalSymbolMatrix.from_symbol(b) for b in blocks.values()]
    cores, num_factors, lcm = symbols._over_common(rationals)
    return symbols.RationalSymbolMatrix._over(
        block_place(BlockPartition.for_degree(sym, q), dict(zip(blocks, cores))),
        num_factors, lcm)


# The Stokes hypothesis a row refuses at a degree
REFUSED = {("symmetric-gradient-3", 1): "order-balance",
           ("symmetric-gradient-3", 2): "equal-orders"}


@pytest.mark.parametrize("value", [None, CONSTANTS["rational"], CONSTANTS["gaussian"]])
@pytest.mark.parametrize("name", NAMES)
def test_stokes_fundamental_symbol_is_stored_as_by_hand(name, value):
    """With absent and constant weights the fundamental symbol's core,
    numerator factors and factors are stored as the construction with the
    corner -(mu1 sigma^*) sigma stores them; the symmetric gradient's
    unequal orders are refused by name."""
    cplx = with_mu(build(name))
    for q in range(1, cplx.length):
        mu = MuSet.identity(cplx) if value is None else MuSet.scalar(cplx, value, degrees=[q])
        if (name, q) in REFUSED:
            with pytest.raises(HypothesisFailure) as info:
                symbols.stokes_fundamental_symbol(cplx, q, mu)
            assert info.value.condition == REFUSED[name, q]
            continue
        f, report = symbols.stokes_fundamental_symbol(cplx, q, mu)
        assert report["ok"], q
        sym, mus = symbols._symbols(cplx, mu)
        invs = {j: symbols.invert_symbol(generalized_laplacian(sym, j, mus)) for j in range(q + 1)}
        want = _n_symbol_by_hand(sym, q, mus, invs[q]) @ symbols._block_diagonal_inverse(sym, invs)
        assert stored(f.core) == stored(want.core), q
        assert list(f.num_factors.items()) == list(want.num_factors.items()), q
        assert list(f.factors.items()) == list(want.factors.items()), q
