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
from cxkit.complexes import (
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    generalized_laplacian,
    perturbed_laplacian,
)
from cxkit.poly import GaussianRational, Poly

from _helpers import matrix_weight, stored, with_mu

COMPLEXES = {
    "de-rham-2": lambda: with_mu(de_rham_complex(2)),
    "de-rham-3": lambda: with_mu(de_rham_complex(3)),
    "de-rham-4": lambda: with_mu(de_rham_complex(4)),
    "dolbeault-2": lambda: with_mu(dolbeault_complex(2)),
}
WEIGHTS = ["absent", "constant", "mu", "laplace-power", "matrix"]


def _weights(cplx, kind: str) -> MuSet | None:
    """Weights of one kind at every degree over the operator complex;
    ``None`` for absent weights."""
    degrees = range(cplx.length + 1)
    if kind == "absent":
        return None
    if kind == "constant":
        return MuSet.scalar(cplx, GaussianRational.of(2, Fraction(-1, 3)))
    if kind == "mu":
        return MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    if kind == "laplace-power":
        return MuSet.laplace_powers(cplx, dict.fromkeys(degrees, 1), dict.fromkeys(degrees, 1))
    return MuSet(cplx, {q: matrix_weight(cplx, cplx.rank(q + 1)) for q in degrees},
                 {q: matrix_weight(cplx, cplx.rank(q - 1)) for q in degrees})


def _targets(name: str, kind: str):
    """The complex and its weights, as operators and as symbols."""
    cplx = COMPLEXES[name]()
    mu = _weights(cplx, kind)
    sym = cplx.principal_symbols()
    return [(cplx, mu), (sym, None if mu is None else mu.principal_symbols(sym))]


def _same(got, want) -> bool:
    """Equal type and signature, and every entry stored alike."""
    return (type(got) is type(want) and got.signature == want.signature
            and stored(got) == stored(want))


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


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_maxwell_builders_place_as_by_hand(name, kind):
    for cplx, mu in _targets(name, kind):
        for q in range(cplx.length + 1):
            for variant in (0, 1):
                assert _same(maxwell(cplx, q, mu, variant),
                             _placed_by_hand(cplx, q, {}, mu, variant)), (q, variant)
                for b in _profiles(cplx, q):
                    assert _same(maxwell_time(cplx, q, b, mu, variant),
                                 _maxwell_time_by_hand(cplx, q, b, mu, variant)), (q, variant)


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_stokes_builders_place_as_by_hand(name, kind):
    for cplx, mu in _targets(name, kind):
        weights = mu or MuSet.identity(cplx)
        for q in range(cplx.length + 1):
            diagonal = [generalized_laplacian(cplx, j, weights) for j in range(q + 1)]
            assert _same(assemble_stokes(cplx, q, diagonal), _stokes_by_hand(cplx, q, diagonal)), q
            for b in _profiles(cplx, q):
                for time_kind in ("parabolic", "hyperbolic"):
                    assert _same(stokes_time(cplx, q, b, mu, kind=time_kind),
                                 _stokes_time_by_hand(cplx, q, b, mu, time_kind)), (q, time_kind)


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_stokes_dn_symbol_places_as_by_hand(name, kind):
    cplx = COMPLEXES[name]()
    mu = _weights(cplx, kind)
    sym, mus = symbols._symbols(cplx, mu)
    for q in range(cplx.length + 1):
        want = _placed_by_hand(sym, q, {q: generalized_laplacian(sym, q, mus)})
        assert _same(symbols.stokes_dn_symbol(cplx, q, mu), want), q


def test_no_blocks_place_the_zero_matrix():
    cplx = de_rham_complex(3)
    zero = blockops._assemble(cplx, 0, {})
    assert _same(zero, cplx.zero(1, 1)) and zero.is_zero


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


@pytest.mark.parametrize("value", [None, Fraction(3, 2), GaussianRational.of(2, Fraction(-1, 3))])
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_stokes_fundamental_symbol_is_stored_as_by_hand(name, value):
    """With absent and constant weights the fundamental symbol's core,
    numerator factors and factors are stored as the construction with the
    corner -(mu1 sigma^*) sigma stores them."""
    cplx = COMPLEXES[name]()
    for q in range(1, cplx.length):
        mu = MuSet.identity(cplx) if value is None else MuSet.scalar(cplx, value, degrees=[q])
        f, report = symbols.stokes_fundamental_symbol(cplx, q, mu)
        assert report["ok"], q
        sym, mus = symbols._symbols(cplx, mu)
        invs = {j: symbols.invert_symbol(generalized_laplacian(sym, j, mus)) for j in range(q + 1)}
        want = _n_symbol_by_hand(sym, q, mus, invs[q]) @ symbols._block_diagonal_inverse(sym, invs)
        assert stored(f.core) == stored(want.core), q
        assert list(f.num_factors.items()) == list(want.num_factors.items()), q
        assert list(f.factors.items()) == list(want.factors.items()), q
