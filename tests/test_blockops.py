"""Block operators: layout, Maxwell/Stokes assembly, factorizations."""

import pytest

from cxkit import blockops
from cxkit.blockops import (
    BlockPartition,
    assemble_stokes,
    block_diagonal,
    block_extract,
    block_inject,
    factorization_residual,
    maxwell,
    maxwell_time,
    stokes,
    stokes_time,
    trailing_minor,
    verify_factorization,
    verify_wave_factorization,
    wave_factorization_residual,
)
from cxkit.complexes import (
    MuSet,
    de_rham_complex,
    generalized_laplacian,
    laplacian,
)
from cxkit.diffop import OperatorMatrix, SymbolMatrix
from cxkit.poly import GaussianRational, Poly

from _helpers import weights, with_mu


CPLX3 = de_rham_complex(3)


# ---------------------------------------------------------------------------
# Partition layout (descending degree)


def test_partition_layout():
    part = BlockPartition.for_degree(CPLX3, 3)
    assert part.ranks == (1, 3, 3, 1)
    assert part.size == 8
    # descending layout: degree 3 first
    assert part.offset(3) == 0
    assert part.offset(2) == 1
    assert part.offset(1) == 4
    assert part.offset(0) == 7


def test_block_inject_extract_roundtrip():
    part = BlockPartition.for_degree(CPLX3, 3)
    grad = CPLX3.op(0)
    big = block_inject(part, grad, 1, 0)
    assert block_extract(part, big, 1, 0) == grad
    assert block_extract(part, big, 0, 1).is_zero
    assert block_extract(part, big, 2, 1).is_zero
    sym = grad.principal_symbol()
    big_sym = block_inject(part, sym, 1, 0)
    assert isinstance(big_sym, SymbolMatrix)
    assert block_extract(part, big_sym, 1, 0) == sym
    assert block_extract(part, big_sym, 0, 1).is_zero


@pytest.mark.parametrize("symbol", [False, True])
def test_block_diagonal_is_sum_of_injections(symbol):
    part = BlockPartition.for_degree(CPLX3, 3)
    blocks = {j: laplacian(CPLX3, j) for j in range(4)}
    blocks[2] = blocks[2] + CPLX3.identity(3)
    if symbol:
        blocks = {j: b.principal_symbol() for j, b in blocks.items()}
    total = block_diagonal(part, blocks)
    expected = block_inject(part, blocks[0], 0, 0)
    for j in (1, 2, 3):
        expected = expected + block_inject(part, blocks[j], j, j)
    assert type(total) is type(blocks[0])
    assert total == expected
    # a partial map leaves the other diagonal blocks zero
    partial = block_diagonal(part, {1: blocks[1]})
    assert partial == block_inject(part, blocks[1], 1, 1)
    assert block_extract(part, partial, 2, 2).is_zero


def test_block_inject_shape_check():
    part = BlockPartition.for_degree(CPLX3, 3)
    with pytest.raises(ValueError):
        block_inject(part, CPLX3.op(0), 0, 0)  # (0,0) block is 1x1


def test_block_edges_are_located_errors():
    """An empty diagonal map and a degree above the partition's top are
    ValueErrors that say what is wrong, as a negative degree already was."""
    part = BlockPartition.for_degree(CPLX3, 2)
    with pytest.raises(ValueError, match="blocks is empty"):
        block_diagonal(part, {})
    with pytest.raises(ValueError, match="degree 3 outside 0..2"):
        block_inject(part, CPLX3.identity(1), 3, 3)
    with pytest.raises(ValueError, match="degree 5 outside 0..2"):
        block_diagonal(part, {5: CPLX3.identity(1)})
    with pytest.raises(ValueError, match="degree -1 outside 0..2"):
        block_inject(part, CPLX3.identity(1), 0, -1)


def test_trailing_minor_drops_top_degree():
    m3 = maxwell(CPLX3, 3)
    m2 = maxwell(CPLX3, 2)
    assert trailing_minor(m3, 7) == m2


# ---------------------------------------------------------------------------
# Maxwell structure


def test_maxwell_structure_de_rham3():
    part = BlockPartition.for_degree(CPLX3, 3)
    m = maxwell(CPLX3, 3)
    # sub-diagonal couplings are the complex operators, super-diagonal their
    # adjoints; everything else vanishes
    for j in range(3):
        assert block_extract(part, m, j + 1, j) == CPLX3.op(j)
        assert block_extract(part, m, j, j + 1) == CPLX3.op(j).formal_adjoint()
    for j in range(4):
        assert block_extract(part, m, j, j).is_zero
    assert block_extract(part, m, 3, 0).is_zero


def test_maxwell_is_self_adjoint_with_identity_weights():
    m = maxwell(CPLX3, 3)
    assert m.formal_adjoint() == m


def test_maxwell_variants_weight_placement():
    cplx = with_mu(de_rham_complex(3))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval)
    part = BlockPartition.for_degree(cplx, 2)
    m0 = maxwell(cplx, 2, mu, 0)
    m1 = maxwell(cplx, 2, mu, 1)
    # variant 0 weights the downward coupling by mu0, variant 1 by mu1
    assert block_extract(part, m0, 1, 0) == cplx.op(0).scale(muval)
    assert block_extract(part, m1, 1, 0) == cplx.op(0).scale(muval)
    # unweighted upward couplings in both variants
    assert block_extract(part, m0, 0, 1) == cplx.op(0).formal_adjoint()
    assert block_extract(part, m1, 0, 1) == cplx.op(0).formal_adjoint()


def test_maxwell_time_adds_diagonal():
    part = BlockPartition.for_degree(CPLX3, 3)
    mt = maxwell_time(CPLX3, 3, [1, 1, 1, 1])
    sig = mt.signature
    dt = Poly.variable(sig.vars, "dt")
    for j in range(4):
        diag = block_extract(part, mt, j, j)
        assert diag == OperatorMatrix.identity(sig, part.ranks[j]).scale(dt)


def test_maxwell_time_coefficient_count():
    with pytest.raises(ValueError):
        maxwell_time(CPLX3, 3, [1, 1])


def test_time_lift_is_kept():
    """Two evolution operators of one complex share one time lift of it."""
    cplx = with_mu(de_rham_complex(3))
    first = blockops._with_time(cplx, 2, [1, 1, 1], None)[0]
    assert blockops._with_time(cplx, 2, [1, 1, 1], None)[0] is first
    assert first is cplx.lift(first.signature) and first.signature.time == "dt"


# ---------------------------------------------------------------------------
# Stokes structure


def test_stokes_diagonal_is_laplacian():
    part = BlockPartition.for_degree(CPLX3, 2)
    s = stokes(CPLX3, 2)
    for j in range(3):
        assert block_extract(part, s, j, j) == laplacian(CPLX3, j)
    assert block_extract(part, s, 1, 0) == CPLX3.op(0)
    assert block_extract(part, s, 0, 1) == CPLX3.op(0).formal_adjoint()


def test_stokes_weighted_diagonal():
    cplx = with_mu(de_rham_complex(3))
    muval = Poly.variable(cplx.signature.vars, "mu")
    mu = MuSet.scalar(cplx, muval)
    part = BlockPartition.for_degree(cplx, 1)
    s = stokes(cplx, 1, mu)
    for j in range(2):
        assert block_extract(part, s, j, j) == generalized_laplacian(cplx, j, mu)


def _zero_order(cplx, k):
    """A constant k x k perturbation with distinct entries."""
    sig = cplx.signature
    return OperatorMatrix.from_entries(
        sig, [[Poly.constant(sig.vars, 1 + r * k + c) for c in range(k)] for r in range(k)])


def test_stokes_lowers_land_on_their_block():
    part = BlockPartition.for_degree(CPLX3, 2)
    m = _zero_order(CPLX3, 3)
    s = stokes(CPLX3, 2, lowers={1: m})
    assert block_extract(part, s, 1, 1) == laplacian(CPLX3, 1) + m
    for j in (0, 2):
        assert block_extract(part, s, j, j) == laplacian(CPLX3, j)
    assert s - block_inject(part, m, 1, 1) == stokes(CPLX3, 2)


def test_stokes_lowers_above_the_order_limit_raise():
    """de Rham operators have order one, so the limit is 2*1 - 1 = 1."""
    d1 = CPLX3.op(0)[0, 0]
    first = CPLX3.identity(3).scale(d1)
    assert block_extract(BlockPartition.for_degree(CPLX3, 1),
                         stokes(CPLX3, 1, lowers={1: first}), 1, 1) \
        == laplacian(CPLX3, 1) + first
    with pytest.raises(ValueError, match="perturbation order 2 exceeds the limit 1"):
        stokes(CPLX3, 1, lowers={1: first.scale(d1)})


def test_stokes_degree_outside_complex_names_that_degree():
    """The first Laplacian past N used to fail first, naming degree N + 1."""
    with pytest.raises(ValueError, match=r"^degree 9 outside 0\.\.3$"):
        stokes(CPLX3, 9)
    with pytest.raises(ValueError, match=r"^degree 9 outside 0\.\.3$"):
        stokes_time(CPLX3, 9, [1] * 10)


def test_stokes_time_lifts_lowers():
    part = BlockPartition.for_degree(CPLX3, 1)
    m = _zero_order(CPLX3, 3)
    s = stokes_time(CPLX3, 1, [1, 2], lowers={1: m}, kind="hyperbolic")
    sig = s.signature
    assert sig.time == "dt" and m.signature.time is None
    dt = Poly.variable(sig.vars, "dt")
    expected = (laplacian(CPLX3, 1).lift(sig) + m.lift(sig)
                + OperatorMatrix.identity(sig, 3).scale(dt * dt)).scale(2)
    assert block_extract(part, s, 1, 1) == expected
    assert block_extract(part, s, 0, 0) == block_extract(
        part, stokes_time(CPLX3, 1, [1, 2], kind="hyperbolic"), 0, 0)


def test_assemble_stokes_custom_diagonal():
    sig = CPLX3.signature
    diag = [OperatorMatrix.identity(sig, CPLX3.rank(j)) for j in range(2)]
    part = BlockPartition.for_degree(CPLX3, 1)
    s = assemble_stokes(CPLX3, 1, diag)
    assert block_extract(part, s, 0, 0) == diag[0]
    assert block_extract(part, s, 1, 1) == diag[1]
    assert block_extract(part, s, 1, 0) == CPLX3.op(0)


def test_stokes_time_parabolic_structure():
    cplx = with_mu(de_rham_complex(3))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"),
                      degrees=[1])
    s = stokes_time(cplx, 1, [0, 1], mu, kind="parabolic")
    part = BlockPartition.for_degree(cplx, 1)
    sig = s.signature
    dt = Poly.variable(sig.vars, "dt")
    # b_0 = 0 kills the degree-0 diagonal entirely
    assert block_extract(part, s, 0, 0).is_zero
    top = block_extract(part, s, 1, 1)
    expected = (generalized_laplacian(cplx, 1, mu).lift(sig)
                + OperatorMatrix.identity(sig, 3).scale(dt))
    assert top == expected


def test_stokes_time_hyperbolic_uses_dtt():
    s = stokes_time(CPLX3, 1, [1, 1], kind="hyperbolic")
    part = BlockPartition.for_degree(CPLX3, 1)
    sig = s.signature
    dt = Poly.variable(sig.vars, "dt")
    blk = block_extract(part, s, 0, 0)
    assert blk == (laplacian(CPLX3, 0).lift(sig)
                   + OperatorMatrix.identity(sig, 1).scale(dt * dt))


def test_stokes_time_rejects_bad_kind():
    with pytest.raises(ValueError):
        stokes_time(CPLX3, 1, [1, 1], kind="elliptic")


# ---------------------------------------------------------------------------
# Factorizations (exact identities)


@pytest.mark.parametrize("n", [2, 3])
def test_factorization_identity_weights(n):
    cplx = de_rham_complex(n)
    for q in range(1, n + 1):
        assert verify_factorization(cplx, q)


def test_factorization_at_degree_zero():
    """At q = 0 both sides are the k_0 x k_0 zero: M0 and M1 are zero and
    the top block A_{-1} mu1_0 A_{-1}* is empty."""
    cplx = with_mu(de_rham_complex(3))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    for weights in (None, mu):
        assert verify_factorization(cplx, 0, weights)
        res = factorization_residual(cplx, 0, weights)
        assert (res.rows, res.cols) == (1, 1)


def test_wave_factorization_at_degree_zero():
    c = Poly.variable(("c",), "c")
    for b in ([1], [c], [GaussianRational.of(3)]):
        assert verify_wave_factorization(CPLX3, 0, b)
    res = wave_factorization_residual(CPLX3, 0, [2])
    assert (res.rows, res.cols) == (1, 1) and res.is_zero


def test_factorization_scalar_weights():
    cplx = with_mu(de_rham_complex(3))
    mu = weights(cplx, "mu")
    for q in range(1, 4):
        assert verify_factorization(cplx, q, mu)


def test_factorization_laplace_power_weights():
    cplx = de_rham_complex(3)
    assert verify_factorization(cplx, 3, weights(cplx, "laplace-power"))


def test_wave_factorization_constant_profile():
    assert verify_wave_factorization(CPLX3, 3, [1, 1, 1, 1])
    # parameter coefficient
    assert verify_wave_factorization(CPLX3, 3,
                                     [Poly.variable(("c",), "c")] * 4)


def test_wave_factorization_diagonal_is_dalembert():
    res = wave_factorization_residual(CPLX3, 3, [1, 1, 1, 1])
    assert res.is_zero
