"""Block operators of Maxwell and Stokes type built from a complex.

A degree-q block operator acts on the direct sum E_q + E_{q-1} + ... + E_0,
laid out with the *highest* degree first, matching how the classical systems
are usually displayed (top-left block = degree q).  ``B_j`` denotes the
projection onto the degree-j component; ``block_inject`` realizes the
characteristic pattern ``B_r P B_c`` of placing an operator P into one block
of the big matrix.  The block helpers accept operator and symbol matrices
alike and return the type they were given.

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

from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from cxkit.complexes import (
    Complex,
    LowerOrderPart,
    MuSet,
    generalized_laplacian,
    perturbed_laplacian,
)
from cxkit.diffop import OperatorMatrix, Signature, SignatureMatrix
from cxkit.poly import GaussianRational, Poly

MatrixT = TypeVar("MatrixT", bound=SignatureMatrix)


@dataclass(frozen=True)
class BlockPartition:
    """Rank profile (k_0, ..., k_q) of the degrees entering a block operator.

    Rows/columns are laid out by descending degree: degree q occupies the
    leading block, degree 0 the trailing one.
    """

    ranks: tuple[int, ...]

    @staticmethod
    def for_degree(cplx: Complex, q: int) -> "BlockPartition":
        if not 0 <= q <= cplx.length:
            raise ValueError(f"degree {q} outside 0..{cplx.length}")
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
            raise ValueError(f"degree {degree} outside partition")
        return sum(self.ranks[j] for j in range(degree + 1, self.top + 1))

    def span(self, degree: int) -> tuple[int, int]:
        off = self.offset(degree)
        return off, off + self.ranks[degree]


def block_inject(part: BlockPartition, op: MatrixT,
                 row_degree: int, col_degree: int) -> MatrixT:
    """Embed ``op`` as the (row_degree, col_degree) block of a big zero matrix."""
    if (op.rows, op.cols) != (part.ranks[row_degree], part.ranks[col_degree]):
        raise ValueError(
            f"block ({row_degree},{col_degree}) expects "
            f"{part.ranks[row_degree]}x{part.ranks[col_degree]}, got {op.rows}x{op.cols}"
        )
    n = part.size
    body = op.body.embed(n, n, part.offset(row_degree), part.offset(col_degree))
    return type(op)(op.signature, body)


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


def embed_trailing(op: MatrixT, size: int) -> MatrixT:
    """Place ``op`` in the lower-right corner of a ``size`` x ``size`` zero
    matrix; the inverse of :func:`trailing_minor`."""
    body = op.body.embed(size, size, size - op.rows, size - op.cols)
    return type(op)(op.signature, body)


def _as_scalar_poly(value, sig: Signature) -> Poly:
    if isinstance(value, Poly):
        return value.lift(sig.vars)
    return Poly.constant(sig.vars, value)


def _time_signature(cplx: Complex, coeffs: Sequence) -> Signature:
    sig = cplx.signature
    params = set(sig.params)
    for c in coeffs:
        if isinstance(c, Poly):
            params |= set(c.vars)
    params -= set(sig.spatial)
    params.discard(sig.time or "dt")
    return Signature(sig.spatial, sig.time or "dt", tuple(sorted(params)))


# ---------------------------------------------------------------------------
# Maxwell operators


def maxwell(cplx: Complex, q: int, mu: MuSet | None = None,
            variant: int = 0) -> SignatureMatrix:
    """The degree-q Maxwell operator M0 (variant 0) or M1 (variant 1)."""
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    total = cplx.zero(part.size, part.size)
    for j in range(q):
        a = cplx.op(j)
        if variant == 0:
            down = mu.mu0(j) @ a
        else:
            down = a @ mu.mu1(j + 1)
        total = total + block_inject(part, down, j + 1, j)
        total = total + block_inject(part, a.formal_adjoint(), j, j + 1)
    return total


def maxwell_time(cplx: Complex, q: int, b: Sequence, mu: MuSet | None = None,
                 variant: int = 0) -> OperatorMatrix:
    """Maxwell operator plus the diagonal time term sum_j B_j b_j B_j d/dt.

    ``b`` is indexed by degree (b[0] .. b[q]); entries may be exact constants
    or parameter polynomials.
    """
    if len(b) != q + 1:
        raise ValueError(f"need q+1 = {q + 1} time coefficients, got {len(b)}")
    sig = _time_signature(cplx, b)
    cplx = cplx.lift(sig)
    if mu is not None:
        mu = mu.lift(cplx)
    part = BlockPartition.for_degree(cplx, q)
    total = maxwell(cplx, q, mu, variant)
    dt = Poly.variable(sig.vars, sig.time)
    for j in range(q + 1):
        coeff = _as_scalar_poly(b[j], sig) * dt
        diag = OperatorMatrix.identity(sig, part.ranks[j]).scale(coeff)
        total = total + block_inject(part, diag, j, j)
    return total


# ---------------------------------------------------------------------------
# Stokes operators


def _diagonal_ops(cplx: Complex, q: int, mu: MuSet,
                  lowers: Mapping[int, LowerOrderPart | OperatorMatrix] | None
                  ) -> list[OperatorMatrix]:
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
    total = OperatorMatrix.zero(sig, part.size, part.size)
    for j, diag in enumerate(diagonal):
        total = total + block_inject(part, diag.lift(sig), j, j)
    a_poly = _as_scalar_poly(a, sig)
    if not a_poly.is_zero:
        off = maxwell(cplx, q, None, 0).scale(a_poly)
        total = total + off
    return total


def stokes(cplx: Complex, q: int, mu: MuSet | None = None,
           lowers: Mapping[int, LowerOrderPart | OperatorMatrix] | None = None,
           a=1) -> OperatorMatrix:
    """The degree-q Stokes operator: perturbed generalized Laplacians on the
    diagonal, coupling off-diagonal scaled by ``a``."""
    if mu is None:
        mu = MuSet.identity(cplx)
    return assemble_stokes(cplx, q, _diagonal_ops(cplx, q, mu, lowers), a)


def stokes_time(cplx: Complex, q: int, b: Sequence, mu: MuSet | None = None,
                lowers: Mapping[int, LowerOrderPart | OperatorMatrix] | None = None,
                a=1, kind: str = "parabolic") -> OperatorMatrix:
    """Evolution Stokes operators.

    parabolic:  sum_j B_j b_j^2 (d/dt + D_j) B_j + a * Maxwell off-diagonal
    hyperbolic: sum_j B_j b_j  (d^2/dt^2 + D_j) B_j + a * Maxwell off-diagonal

    A zero ``b_j`` removes the whole diagonal block at degree j.
    """
    if len(b) != q + 1:
        raise ValueError(f"need q+1 = {q + 1} time coefficients, got {len(b)}")
    if kind not in ("parabolic", "hyperbolic"):
        raise ValueError("kind must be 'parabolic' or 'hyperbolic'")
    sig = _time_signature(cplx, b)
    cplx_t = cplx.lift(sig)
    if mu is None:
        mu = MuSet.identity(cplx)
    mu_t = mu.lift(cplx_t)
    lowers_t = None
    if lowers:
        lowers_t = {}
        for j, low in lowers.items():
            if isinstance(low, LowerOrderPart):
                lowers_t[j] = LowerOrderPart(
                    c=low.c.lift(sig) if low.c is not None else None,
                    ct=low.ct.lift(sig) if low.ct is not None else None,
                    m=low.m.lift(sig) if low.m is not None else None,
                )
            else:
                lowers_t[j] = low.lift(sig)
    steady = _diagonal_ops(cplx_t, q, mu_t, lowers_t)
    dt = Poly.variable(sig.vars, sig.time)
    time_term = dt if kind == "parabolic" else dt * dt
    diagonal = []
    for j, d in enumerate(steady):
        coeff = _as_scalar_poly(b[j], sig)
        if kind == "parabolic":
            coeff = coeff * coeff
        ident = OperatorMatrix.identity(sig, cplx_t.rank(j))
        diagonal.append((d + ident.scale(time_term)).scale(coeff))
    return assemble_stokes(cplx_t, q, diagonal, a)


# ---------------------------------------------------------------------------
# Factorization checks


def factorization_residual(cplx: Complex, q: int, mu: MuSet | None = None
                           ) -> SignatureMatrix:
    """Residual of  M1 M0 = B_q A_{q-1} mu1_q A_{q-1}* B_q + sum_{j<q} B_j GL_j B_j.

    The identity requires the coherence condition at every degree below q.
    """
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    lhs = maxwell(cplx, q, mu, 1) @ maxwell(cplx, q, mu, 0)
    rhs = cplx.zero(part.size, part.size)
    if q > 0:
        a = cplx.op(q - 1)
        top = a @ mu.mu1(q) @ a.formal_adjoint()
        rhs = rhs + block_inject(part, top, q, q)
    for j in range(q):
        rhs = rhs + block_inject(part, generalized_laplacian(cplx, j, mu), j, j)
    return lhs - rhs


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
    if mu is None:
        mu = MuSet.identity(cplx)
    sig = _time_signature(cplx, b)
    i_unit = Poly.constant(sig.vars, GaussianRational.i())
    minus_ib = [_as_scalar_poly(c, sig).scale(-1) * i_unit for c in b]
    plus_ib = [_as_scalar_poly(c, sig) * i_unit for c in b]
    lhs = maxwell_time(cplx, q, minus_ib, mu, 1) @ maxwell_time(cplx, q, plus_ib, mu, 0)

    cplx_t = cplx.lift(sig)
    mu_t = mu.lift(cplx_t)
    part = BlockPartition.for_degree(cplx_t, q)
    dt = Poly.variable(sig.vars, sig.time)
    dtt = dt * dt
    rhs = OperatorMatrix.zero(sig, part.size, part.size)
    for j in range(q + 1):
        if j == q and q > 0:
            a = cplx_t.op(q - 1)
            core = a @ mu_t.mu1(q) @ a.formal_adjoint()
        elif j == q:
            core = OperatorMatrix.zero(sig, part.ranks[q], part.ranks[q])
        else:
            core = generalized_laplacian(cplx_t, j, mu_t)
        bj = _as_scalar_poly(b[j], sig)
        blk = core + OperatorMatrix.identity(sig, part.ranks[j]).scale(dtt * bj * bj)
        rhs = rhs + block_inject(part, blk, j, j)
    return lhs - rhs


def verify_wave_factorization(cplx: Complex, q: int, b: Sequence,
                              mu: MuSet | None = None) -> bool:
    return wave_factorization_residual(cplx, q, b, mu).is_zero


__all__ = [
    "BlockPartition",
    "block_inject",
    "block_extract",
    "trailing_minor",
    "embed_trailing",
    "maxwell",
    "maxwell_time",
    "assemble_stokes",
    "stokes",
    "stokes_time",
    "factorization_residual",
    "verify_factorization",
    "wave_factorization_residual",
    "verify_wave_factorization",
]
