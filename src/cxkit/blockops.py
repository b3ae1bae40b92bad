"""Block operators of Maxwell and Stokes type built from a complex.

A degree-q block operator acts on the direct sum E_q + E_{q-1} + ... + E_0,
laid out with the *highest* degree first, matching how the classical systems
are usually displayed (top-left block = degree q).  ``B_j`` denotes the
projection onto the degree-j component; ``block_inject`` realizes the
characteristic pattern ``B_r P B_c`` of placing an operator P into one block
of the big matrix.  Blocks of distinct degree pairs are disjoint, so a sum
``sum B_r P B_c`` is a placement, not an addition: ``block_place`` writes
every block into one entry table, zero elsewhere, and each entry is its
block's as stored.  The Maxwell, Stokes and time builders and
``block_diagonal`` (Laplacians or time terms on the diagonal) build on it.
The block helpers take operator and symbol matrices alike.

The evolution builders share one time lift: the complex and its weights are
lifted to a signature with a time variable ``dt`` (plus the parameters of
the time coefficients b_0..b_q), and the time terms go on the diagonal.

The builders take their zero and identity matrices from the complex, so on
``Complex.principal_symbols()`` with the weights' ``MuSet.principal_symbols``
they give sigma(M0), sigma(M1) and the symbol factorization residual, which
is how :mod:`cxkit.symbols` builds them.

The two Maxwell families interleave a complex with its formal adjoints::

    M0 = sum_j B_{j+1} mu0_j A_j B_j  +  B_j A_j* B_{j+1}
    M1 = sum_j B_{j+1} A_j mu1_{j+1} B_j  +  B_j A_j* B_{j+1}

and the Stokes family puts (perturbed) generalized Laplacians on the diagonal
with the unweighted Maxwell off-diagonal scaled by a coupling flag ``a``.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping, Sequence

from cxkit._record import Record
from cxkit.complexes import Complex, MatrixT, MuSet, generalized_laplacian, perturbed_laplacian
from cxkit.diffop import OperatorMatrix, Signature, SignatureMatrix
from cxkit.poly import GaussianRational, Poly, PolyMatrix


class BlockPartition(Record):
    """Rank profile (k_0, ..., k_q) of the degrees entering a block operator.

    Rows/columns are laid out by descending degree: degree q occupies the
    leading block, degree 0 the trailing one.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]):
        object.__setattr__(self, "ranks", ranks)

    @staticmethod
    def for_degree(cplx: Complex, q: int) -> "BlockPartition":
        cplx.check_degree(q)
        return BlockPartition(tuple(cplx.rank(j) for j in range(q + 1)))

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    @property
    def size(self) -> int:
        return sum(self.ranks)

    def offset(self, degree: int) -> int:
        """First row/column of the degree block (descending layout)."""
        if not 0 <= degree <= self.top:
            raise ValueError(f"degree {degree} outside 0..{self.top}")
        return sum(self.ranks[j] for j in range(degree + 1, self.top + 1))

    def span(self, degree: int) -> tuple[int, int]:
        off = self.offset(degree)
        return off, off + self.ranks[degree]


def block_place(part: BlockPartition,
                blocks: Mapping[tuple[int, int], MatrixT]) -> MatrixT:
    """``sum B_r P B_c`` over a nonempty ``{(r, c): P}`` map, each block
    written at its place of one zero matrix (``PolyMatrix.place``), over the
    merge of the blocks' signatures.  Operator and symbol blocks do not mix
    (``TypeError``), as in a sum."""
    if not blocks:
        raise ValueError("blocks is empty")
    ops = list(blocks.values())
    sig = ops[0].signature
    for op in ops:
        if type(op) is not type(ops[0]):
            raise TypeError(f"cannot place a {type(op).__name__} block "
                            f"among {type(ops[0]).__name__} blocks")
        sig = sig.merge(op.signature)
    placed = []
    for (r, c), op in blocks.items():
        (r0, r1), (c0, c1) = part.span(r), part.span(c)
        if (op.rows, op.cols) != (r1 - r0, c1 - c0):
            raise ValueError(
                f"block ({r},{c}) expects {r1 - r0}x{c1 - c0}, got {op.rows}x{op.cols}")
        placed.append(((op if op.signature == sig else op.lift(sig)).body, r0, c0))
    return type(ops[0])(sig, PolyMatrix.place(sig.vars, part.size, part.size, placed))


def block_inject(part: BlockPartition, op: MatrixT,
                 row_degree: int, col_degree: int) -> MatrixT:
    """Embed ``op`` as the (row_degree, col_degree) block of a big zero matrix."""
    return block_place(part, {(row_degree, col_degree): op})


def block_extract(part: BlockPartition, op: MatrixT,
                  row_degree: int, col_degree: int) -> MatrixT:
    """The (row_degree, col_degree) block of a big operator."""
    if (op.rows, op.cols) != (part.size, part.size):
        raise ValueError("operator does not match the partition size")
    body = op.body.block(*part.span(row_degree), *part.span(col_degree))
    return type(op)(op.signature, body)


def trailing_minor(op: MatrixT, size: int) -> MatrixT:
    """Lower-right ``size`` x ``size`` minor; a degree-q block operator is the
    trailing minor of the corresponding top-degree one."""
    body = op.body.block(op.rows - size, op.rows, op.cols - size, op.cols)
    return type(op)(op.signature, body)


def block_diagonal(part: BlockPartition, blocks: Mapping[int, MatrixT]) -> MatrixT:
    """``sum_j B_j blocks[j] B_j`` for a nonempty ``{degree: matrix}`` map,
    placed (``block_place``): each entry is one block's entry as stored."""
    return block_place(part, {(j, j): blk for j, blk in blocks.items()})


def _as_scalar_poly(value, sig: Signature) -> Poly:
    if isinstance(value, Poly):
        return value.lift(sig.vars)
    return Poly.constant(sig.vars, value)


def _product(*factors: Poly) -> Poly:
    """The product of ``factors``, left to right, none multiplied by a one."""
    one = Poly.one(factors[0].vars)
    return reduce(Poly.__mul__, [f for f in factors if f != one] or [one])


def _with_time(cplx: Complex, q: int, b: Sequence, mu: MuSet | None
               ) -> tuple[Complex, MuSet, list[Poly], Poly]:
    """The time lift of a degree-q block operator: the complex and the weights
    (identity for ``None``) over a signature with a time variable (``dt``
    unless the complex has one) and the parameters of ``b``, the time
    coefficients b_0..b_q as polynomials over it, and the time variable."""
    if len(b) != q + 1:
        raise ValueError(f"need q+1 = {q + 1} time coefficients, got {len(b)}")
    sig = cplx.signature
    time = sig.time or "dt"
    params = set(sig.params).union(*(c.vars for c in b if isinstance(c, Poly)))
    sig = Signature(sig.spatial, time, tuple(sorted(params - set(sig.spatial) - {time})))
    cplx = cplx.lift(sig)
    mu = MuSet.identity(cplx) if mu is None else mu.lift(cplx)
    return cplx, mu, [_as_scalar_poly(c, sig) for c in b], Poly.variable(sig.vars, time)


# ---------------------------------------------------------------------------
# Maxwell operators


def maxwell_blocks(cplx: Complex, q: int, mu: MuSet | None = None,
                   variant: int = 0) -> dict[tuple[int, int], SignatureMatrix]:
    """The blocks ``{(r, c): P}`` of the degree-q Maxwell operator (none at q = 0)."""
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    mu = mu or MuSet.identity(cplx)
    blocks = {}
    for j in range(q):
        a = cplx.op(j)
        blocks[j + 1, j] = mu.apply(0, j, a, left=True) if variant == 0 else mu.apply(1, j + 1, a)
        blocks[j, j + 1] = a.formal_adjoint()
    return blocks


def maxwell(cplx: Complex, q: int, mu: MuSet | None = None,
            variant: int = 0) -> SignatureMatrix:
    """The degree-q Maxwell operator M0 (variant 0) or M1 (variant 1)."""
    blocks = maxwell_blocks(cplx, q, mu, variant)
    part = BlockPartition.for_degree(cplx, q)
    return block_place(part, blocks) if blocks else cplx.zero(part.size, part.size)


def maxwell_time(cplx: Complex, q: int, b: Sequence, mu: MuSet | None = None,
                 variant: int = 0) -> OperatorMatrix:
    """Maxwell operator plus the diagonal time term sum_j B_j b_j B_j d/dt.

    ``b`` is indexed by degree (b[0] .. b[q]); entries may be exact constants
    or parameter polynomials.
    """
    cplx, mu, b, dt = _with_time(cplx, q, b, mu)
    part = BlockPartition.for_degree(cplx, q)
    blocks = maxwell_blocks(cplx, q, mu, variant)
    blocks.update({(j, j): cplx.identity(part.ranks[j], _product(bj, dt))
                   for j, bj in enumerate(b)})
    return block_place(part, blocks)


# ---------------------------------------------------------------------------
# Stokes operators


def _diagonal_ops(cplx: Complex, q: int, mu: MuSet,
                  lowers: Mapping[int, OperatorMatrix] | None
                  ) -> list[OperatorMatrix]:
    cplx.check_degree(q)  # a bad q is named before any Laplacian
    lowers = lowers or {}
    return [perturbed_laplacian(cplx, j, mu, lowers.get(j)) for j in range(q + 1)]


def assemble_stokes(cplx: Complex, q: int,
                    diagonal: Sequence[OperatorMatrix], a=1) -> OperatorMatrix:
    """Generic Stokes-type assembly: given diagonal blocks per degree, add the
    unweighted Maxwell off-diagonal scaled by ``a``."""
    sig = cplx.signature
    for d in diagonal:
        sig = sig.merge(d.signature)
    cplx = cplx.lift(sig) if cplx.signature != sig else cplx
    part = BlockPartition.for_degree(cplx, q)
    blocks = {(j, j): d.lift(sig) for j, d in enumerate(diagonal)}
    a_poly = _as_scalar_poly(a, sig)
    if not a_poly.is_zero:
        blocks.update({rc: blk.scale(a_poly) for rc, blk in maxwell_blocks(cplx, q).items()})
    return block_place(part, blocks)


def stokes(cplx: Complex, q: int, mu: MuSet | None = None,
           lowers: Mapping[int, OperatorMatrix] | None = None,
           a=1) -> OperatorMatrix:
    """The degree-q Stokes operator: perturbed generalized Laplacians on the
    diagonal, coupling off-diagonal scaled by ``a``."""
    mu = mu or MuSet.identity(cplx)
    return assemble_stokes(cplx, q, _diagonal_ops(cplx, q, mu, lowers), a)


def stokes_time(cplx: Complex, q: int, b: Sequence, mu: MuSet | None = None,
                lowers: Mapping[int, OperatorMatrix] | None = None,
                a=1, kind: str = "parabolic") -> OperatorMatrix:
    """Evolution Stokes operators.

    parabolic:  sum_j B_j b_j^2 (d/dt + D_j) B_j + a * Maxwell off-diagonal
    hyperbolic: sum_j B_j b_j  (d^2/dt^2 + D_j) B_j + a * Maxwell off-diagonal

    A zero ``b_j`` removes the whole diagonal block at degree j.
    """
    cplx, mu, b, dt = _with_time(cplx, q, b, mu)
    if kind not in ("parabolic", "hyperbolic"):
        raise ValueError("kind must be 'parabolic' or 'hyperbolic'")
    lowers = {j: low.lift(cplx.signature) for j, low in (lowers or {}).items()}
    square = kind == "parabolic"
    time_term = dt if square else dt * dt
    diagonal = [(d + cplx.identity(d.rows, time_term)).scale(_product(bj, bj) if square else bj)
                for d, bj in zip(_diagonal_ops(cplx, q, mu, lowers), b)]
    return assemble_stokes(cplx, q, diagonal, a)


# ---------------------------------------------------------------------------
# Factorization checks


def _factorization_rhs(cplx: Complex, q: int, mu: MuSet) -> dict[int, SignatureMatrix]:
    """The diagonal blocks ``{j: P_j}`` of ``B_q A_{q-1} mu1_q A_{q-1}* B_q +
    sum_{j<q} B_j GL_j B_j``; at q = 0 the top block is the k_0 x k_0 zero."""
    a = cplx.op(q - 1)
    blocks = {j: generalized_laplacian(cplx, j, mu) for j in range(q)}
    blocks[q] = mu.apply(1, q, a) @ a.formal_adjoint()
    return blocks


def factorization_residual(cplx: Complex, q: int, mu: MuSet | None = None
                           ) -> SignatureMatrix:
    """Residual of  M1 M0 = B_q A_{q-1} mu1_q A_{q-1}* B_q + sum_{j<q} B_j GL_j B_j.

    The identity requires the coherence condition at every degree below q.
    """
    mu = mu or MuSet.identity(cplx)
    lhs = maxwell(cplx, q, mu, 1) @ maxwell(cplx, q, mu, 0)
    return lhs - block_diagonal(BlockPartition.for_degree(cplx, q),
                                _factorization_rhs(cplx, q, mu))


def verify_factorization(cplx: Complex, q: int, mu: MuSet | None = None) -> bool:
    return factorization_residual(cplx, q, mu).is_zero


def wave_factorization_residual(cplx: Complex, q: int, b: Sequence,
                                mu: MuSet | None = None) -> OperatorMatrix:
    """Residual of the evolution factorization

    M1(A, -i b dt) M0(A, i b dt)
        = B_q (b_q^2 dtt + A_{q-1} mu1_q A_{q-1}*) B_q
          + sum_{j<q} B_j (b_j^2 dtt + GL_j) B_j

    which holds under coherence and commutation of the weights with a constant
    time profile b (the cross terms between the time diagonal and the
    off-diagonal couplings cancel in pairs only when b_j = b_{j+1}).
    """
    cplx_t, mu_t, b, dt = _with_time(cplx, q, b, mu)
    i = Poly.constant(cplx_t.signature.vars, GaussianRational.i())
    lhs = (maxwell_time(cplx, q, [_product(bj.scale(-1), i) for bj in b], mu, 1)
           @ maxwell_time(cplx, q, [_product(bj, i) for bj in b], mu, 0))
    dtt = dt * dt
    rhs = {j: blk + cplx_t.identity(blk.rows, _product(dtt, b[j], b[j]))
           for j, blk in _factorization_rhs(cplx_t, q, mu_t).items()}
    return lhs - block_diagonal(BlockPartition.for_degree(cplx_t, q), rhs)


def verify_wave_factorization(cplx: Complex, q: int, b: Sequence,
                              mu: MuSet | None = None) -> bool:
    return wave_factorization_residual(cplx, q, b, mu).is_zero


__all__ = [
    "BlockPartition",
    "block_place",
    "block_inject",
    "block_extract",
    "block_diagonal",
    "trailing_minor",
    "maxwell",
    "maxwell_blocks",
    "maxwell_time",
    "assemble_stokes",
    "stokes",
    "stokes_time",
    "factorization_residual",
    "verify_factorization",
    "wave_factorization_residual",
    "verify_wave_factorization",
]
