"""Differential complexes and their (generalized) Laplacians.

A :class:`Complex` is a finite sequence of constant-coefficient operators
``A_0, ..., A_{N-1}`` with ``A_{q+1} A_q = 0``, or of their principal
symbols, on which the Laplacians below give the deltas.  The exterior-derivative
builders (de Rham, Koszul, Dolbeault, powered de Rham) all share the wedge
pattern: degree-q basis elements are strictly increasing index tuples in
lexicographic order, and the entry from I to J = I + {i} carries the sign
(-1)^(number of elements of I below i).

For n = 3 the de Rham builder uses the vector-calculus basis at degree two
(the cyclic pairing e1 ~ dx2^dx3, e2 ~ dx3^dx1, e3 ~ dx1^dx2), so that the
three operators are literally gradient, curl and divergence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from cxkit.diffop import (
    SPATIAL,
    OperatorMatrix,
    Signature,
    SignatureMatrix,
    spatial_signature,
    tensor_identity,
)
from cxkit.poly import GaussianRational, Poly, PolyMatrix


class Complex:
    """A chain of operators E_0 -> E_1 -> ... -> E_N with A_{q+1} A_q = 0.

    The chain holds operator matrices or symbol matrices, all of one type.
    """

    __slots__ = ("ops", "signature", "ranks")

    def __init__(self, ops: Sequence[SignatureMatrix]):
        if not ops:
            raise ValueError("a complex needs at least one operator")
        sig = ops[0].signature
        for op in ops[1:]:
            sig = sig.merge(op.signature)
        ops = [op.lift(sig) if op.signature != sig else op for op in ops]
        for a, b in zip(ops, ops[1:]):
            if b.cols != a.rows:
                raise ValueError(
                    f"rank mismatch: {a.rows}-column target feeds a {b.cols}-column source"
                )
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "signature", sig)
        ranks = tuple(op.cols for op in ops) + (ops[-1].rows,)
        object.__setattr__(self, "ranks", ranks)

    @property
    def length(self) -> int:
        """N: the top degree (number of operators)."""
        return len(self.ops)

    def rank(self, q: int) -> int:
        """Rank of E_q; zero outside 0..N."""
        if 0 <= q < len(self.ranks):
            return self.ranks[q]
        return 0

    def op(self, q: int) -> SignatureMatrix:
        """A_q (a zero operator of the right shape outside 0..N-1)."""
        if 0 <= q < self.length:
            return self.ops[q]
        return self.zero(self.rank(q + 1), self.rank(q))

    def zero(self, rows: int, cols: int) -> SignatureMatrix:
        """A zero matrix of the operators' type over the complex's signature."""
        return type(self.ops[0]).zero(self.signature, rows, cols)

    def identity(self, n: int) -> SignatureMatrix:
        """An identity matrix of the operators' type over the complex's signature."""
        return type(self.ops[0]).identity(self.signature, n)

    def principal_symbols(self) -> "Complex":
        """The complex of spatial principal symbols sigma(A_0)..sigma(A_{N-1})."""
        return Complex([op.principal_symbol(SPATIAL) for op in self.ops])

    def lift(self, signature: Signature) -> "Complex":
        return Complex([op.lift(signature) for op in self.ops])

    def verify(self) -> list[tuple[int, bool]]:
        """Check A_{q+1} A_q = 0 for every q; returns (q, ok) pairs."""
        out = []
        for q in range(self.length - 1):
            out.append((q, (self.ops[q + 1] @ self.ops[q]).is_zero))
        return out

    def is_complex(self) -> bool:
        return all(ok for _, ok in self.verify())


# ---------------------------------------------------------------------------
# Wedge-pattern builders


def _wedge_bases(n: int) -> list[list[tuple[int, ...]]]:
    """Strictly increasing index tuples per degree, in lexicographic order."""
    return [sorted(combinations(range(n), q)) for q in range(n + 1)]


def koszul_complex(generators: Sequence[Poly], signature: Signature) -> Complex:
    """The wedge complex generated by commuting scalar operators Q_1..Q_n.

    The degree-q operator sends the basis element e_I to
    ``sum_i sign(i, I) Q_i e_{I + {i}}``.
    """
    n = len(generators)
    if n == 0:
        raise ValueError("need at least one generator")
    gens = [g.lift(signature.vars) for g in generators]
    bases = _wedge_bases(n)
    zero = Poly.zero(signature.vars)
    ops = []
    for q in range(n):
        src, dst = bases[q], bases[q + 1]
        col = {I: j for j, I in enumerate(src)}
        ents = [[zero] * len(src) for _ in range(len(dst))]
        for r, J in enumerate(dst):
            for pos, i in enumerate(J):
                I = J[:pos] + J[pos + 1:]
                # pos elements of I precede i inside J
                coeff = gens[i] if pos % 2 == 0 else -gens[i]
                ents[r][col[I]] = coeff
        ops.append(OperatorMatrix.from_entries(signature, ents))
    return Complex(ops)


def de_rham_complex(n: int, *, time: bool = False, params: Sequence[str] = ()) -> Complex:
    """The de Rham complex on R^n in derivative symbols d1..dn.

    For n = 3 the degree-two basis is re-ordered to the cyclic pairing so the
    operators are exactly (grad, curl, div).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sig = spatial_signature(n, time=time, params=params)
    gens = [Poly.variable(sig.vars, f"d{j + 1}") for j in range(n)]
    cplx = koszul_complex(gens, sig)
    if n != 3:
        return cplx
    # Change of basis at degree 2: (c12, c13, c23) -> (c23, -c13, c12).
    t = PolyMatrix(
        sig.vars,
        [
            [Poly.zero(sig.vars), Poly.zero(sig.vars), Poly.one(sig.vars)],
            [Poly.zero(sig.vars), Poly.constant(sig.vars, -1), Poly.zero(sig.vars)],
            [Poly.one(sig.vars), Poly.zero(sig.vars), Poly.zero(sig.vars)],
        ],
    )
    tmat = OperatorMatrix(sig, t)  # involutive and orthogonal
    a0, a1, a2 = cplx.ops
    return Complex([a0, tmat @ a1, a2 @ tmat])


def powered_de_rham_complex(n: int, p: int, *, params: Sequence[str] = ()) -> Complex:
    """The wedge complex generated by the pure powers d_j^p."""
    if p < 1:
        raise ValueError("need p >= 1")
    sig = spatial_signature(n, params=params)
    gens = [Poly.variable(sig.vars, f"d{j + 1}") ** p for j in range(n)]
    return koszul_complex(gens, sig)


def dolbeault_complex(n: int, *, params: Sequence[str] = ()) -> Complex:
    """The Dolbeault complex on C^n written in 2n real derivative symbols.

    The generators are d/d(conj z_j) = (d_{2j-1} + i d_{2j}) / 2.
    """
    sig = spatial_signature(2 * n, params=params)
    half = GaussianRational.of(Fraction(1, 2))
    half_i = GaussianRational.of(0, Fraction(1, 2))
    gens = []
    for j in range(n):
        re = Poly.variable(sig.vars, f"d{2 * j + 1}").scale(half)
        im = Poly.variable(sig.vars, f"d{2 * j + 2}").scale(half_i)
        gens.append(re + im)
    return koszul_complex(gens, sig)


def imaginary_de_rham_complex(n: int, *, time: bool = False, params: Sequence[str] = ()) -> Complex:
    """The de Rham complex with every operator multiplied by i.

    Each composition stays zero, while the formal adjoint of i*A_q is
    i*(A_q transposed): this is the complex underlying the self-adjoint
    field-theory block operators.
    """
    base = de_rham_complex(n, time=time, params=params)
    i = GaussianRational.i()
    return Complex([op.scale(i) for op in base.ops])


# ---------------------------------------------------------------------------
# Weights


class MuSet:
    """Per-degree weight pairs (mu0_q, mu1_q) for generalized Laplacians.

    ``mu0(q)`` acts on E_{q+1} (weighting A_q* . A_q from inside) and
    ``mu1(q)`` acts on E_{q-1} (weighting A_{q-1} . A_{q-1}*).  Degrees
    without an explicit entry default to the identity.
    """

    __slots__ = ("cplx", "_mu0", "_mu1")

    def __init__(self, cplx: Complex,
                 mu0: dict[int, SignatureMatrix] | None = None,
                 mu1: dict[int, SignatureMatrix] | None = None):
        self.cplx = cplx
        self._mu0 = dict(mu0 or {})
        self._mu1 = dict(mu1 or {})
        for q, m in self._mu0.items():
            k = cplx.rank(q + 1)
            if (m.rows, m.cols) != (k, k):
                raise ValueError(f"mu0[{q}] must be {k}x{k}, got {m.rows}x{m.cols}")
        for q, m in self._mu1.items():
            k = cplx.rank(q - 1)
            if (m.rows, m.cols) != (k, k):
                raise ValueError(f"mu1[{q}] must be {k}x{k}, got {m.rows}x{m.cols}")

    @staticmethod
    def identity(cplx: Complex) -> "MuSet":
        return MuSet(cplx)

    @staticmethod
    def from_scalars(cplx: Complex, mu0: Mapping[int, object],
                     mu1: Mapping[int, object]) -> "MuSet":
        """Scalar weights ``value * I``: ``mu0[q]`` on E_{q+1} and ``mu1[q]``
        on E_{q-1} at each degree q given (a Poly, or a constant); a rank-0
        space gets no entry."""
        sig = cplx.signature

        def weights(values: Mapping[int, object], step: int) -> dict:
            out = {}
            for q, value in values.items():
                k = cplx.rank(q + step)
                if k:
                    v = value if isinstance(value, Poly) else Poly.constant(sig.vars, value)
                    out[q] = OperatorMatrix.identity(sig, k).scale(v)
            return out

        return MuSet(cplx, weights(mu0, 1), weights(mu1, -1))

    @staticmethod
    def scalar(cplx: Complex, value, degrees: Sequence[int] | None = None) -> "MuSet":
        """Constant scalar weight (e.g. a viscosity parameter) at every degree,
        or only at the given degrees."""
        values = dict.fromkeys(range(cplx.length + 1) if degrees is None else degrees, value)
        return MuSet.from_scalars(cplx, values, values)

    @staticmethod
    def laplace_powers(cplx: Complex, mtilde: dict[int, int] | None = None,
                       mhat: dict[int, int] | None = None) -> "MuSet":
        """Weights (-Laplace)^m I at the requested degrees."""
        sig = cplx.signature
        minus_lap = Poly.zero(sig.vars)
        for v in sig.spatial:
            d = Poly.variable(sig.vars, v)
            minus_lap = minus_lap - d * d
        return MuSet.from_scalars(cplx, {q: minus_lap ** m for q, m in (mtilde or {}).items()},
                                  {q: minus_lap ** m for q, m in (mhat or {}).items()})

    def principal_symbols(self, sym: Complex) -> "MuSet":
        """The spatial principal symbols of these weights, over ``sym``, the
        complex's :meth:`Complex.principal_symbols`."""
        return MuSet(sym, {q: m.principal_symbol(SPATIAL) for q, m in self._mu0.items()},
                     {q: m.principal_symbol(SPATIAL) for q, m in self._mu1.items()})

    def lift(self, cplx: Complex) -> "MuSet":
        """The same weights over ``cplx``, this set's complex lifted to a
        richer signature (``Complex.lift``)."""
        sig = cplx.signature
        return MuSet(cplx, {q: m.lift(sig) for q, m in self._mu0.items()},
                     {q: m.lift(sig) for q, m in self._mu1.items()})

    def mu0(self, q: int) -> SignatureMatrix:
        if q in self._mu0:
            return self._mu0[q]
        return self.cplx.identity(self.cplx.rank(q + 1))

    def mu1(self, q: int) -> SignatureMatrix:
        if q in self._mu1:
            return self._mu1[q]
        return self.cplx.identity(self.cplx.rank(q - 1))

    def orders(self, q: int) -> tuple[int, int]:
        """(2*mtilde_q, 2*mhat_q): the orders of mu0_q and mu1_q (0 if absent)."""
        return (max(self.mu0(q).order(), 0), max(self.mu1(q).order(), 0))


# ---------------------------------------------------------------------------
# Laplacians


def laplacian(cplx: Complex, q: int) -> SignatureMatrix:
    """The Hodge Laplacian ``A_q* A_q + A_{q-1} A_{q-1}*`` at degree q."""
    return generalized_laplacian(cplx, q, MuSet.identity(cplx))


def generalized_laplacian(cplx: Complex, q: int, mu: MuSet) -> SignatureMatrix:
    """``A_q* mu0_q A_q + A_{q-1} mu1_q A_{q-1}*``; on the complex of
    principal symbols, with the weights' symbols, this is delta_{q,mu}.
    Raises ``ValueError`` for a degree outside 0..N."""
    if not 0 <= q <= cplx.length:
        raise ValueError(f"degree {q} outside 0..{cplx.length}")
    k = cplx.rank(q)
    total = cplx.zero(k, k)
    if q < cplx.length:
        a = cplx.op(q)
        total = total + a.formal_adjoint() @ mu.mu0(q) @ a
    if q > 0:
        b = cplx.op(q - 1)
        total = total + b @ mu.mu1(q) @ b.formal_adjoint()
    return total


def check_coherence(cplx: Complex, mu: MuSet, q: int) -> bool:
    """The compatibility condition ``A_{q+1} mu1_{q+2} mu0_q A_q = 0``."""
    if q + 1 >= cplx.length:
        return True
    prod = cplx.op(q + 1) @ mu.mu1(q + 2) @ mu.mu0(q) @ cplx.op(q)
    return prod.is_zero


def perturbed_laplacian(cplx: Complex, q: int, mu: MuSet,
                        lower: OperatorMatrix | None = None) -> OperatorMatrix:
    """Generalized Laplacian plus an explicitly lower-order perturbation.

    The perturbation must have order at most ``2 (m_q + mtilde_q) - 1`` where
    ``m_q`` is the order of A_q (of A_{q-1} at the top degree); a higher one
    raises ``ValueError``.
    """
    top = generalized_laplacian(cplx, q, mu)
    if lower is None:
        return top
    m_q = cplx.op(q).order() if q < cplx.length else cplx.op(q - 1).order()
    mtilde2, _ = mu.orders(q)
    limit = 2 * m_q + mtilde2 - 1
    if lower.order() > limit:
        raise ValueError(f"perturbation order {lower.order()} exceeds the limit {limit}")
    return top + lower


__all__ = [
    "Complex",
    "MuSet",
    "koszul_complex",
    "de_rham_complex",
    "imaginary_de_rham_complex",
    "powered_de_rham_complex",
    "dolbeault_complex",
    "laplacian",
    "generalized_laplacian",
    "check_coherence",
    "perturbed_laplacian",
    "tensor_identity",
]
