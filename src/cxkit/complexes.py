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
from typing import Mapping, Sequence, TypeVar

from cxkit.diffop import (
    SPATIAL,
    OperatorMatrix,
    Signature,
    SignatureMatrix,
    spatial_signature,
    tensor_identity,
)
from cxkit.poly import GaussianRational, Poly

MatrixT = TypeVar("MatrixT", bound=SignatureMatrix)


class Complex:
    """A chain of operators E_0 -> E_1 -> ... -> E_N with A_{q+1} A_q = 0.

    The chain holds operator matrices or symbol matrices, all of one type.
    """

    __slots__ = ("ops", "signature", "ranks")

    def __init__(self, ops: Sequence[SignatureMatrix]):
        if not ops:
            raise ValueError("a complex needs at least one operator")
        sig = Signature.merge(*(op.signature for op in ops))
        ops = [op.lift(sig) for op in ops]
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

    def check_degree(self, q: int) -> None:
        """Raise ``ValueError`` for a degree outside 0..N."""
        if not 0 <= q <= self.length:
            raise ValueError(f"degree {q} outside 0..{self.length}")

    def zero(self, rows: int, cols: int) -> SignatureMatrix:
        """A zero matrix of the operators' type over the complex's signature."""
        return type(self.ops[0]).zero(self.signature, rows, cols)

    def identity(self, n: int, scalar=1) -> SignatureMatrix:
        """``scalar`` I_n of the operators' type over the complex's signature."""
        return type(self.ops[0]).identity(self.signature, n, scalar)

    def principal_symbols(self) -> "Complex":
        """The complex of spatial principal symbols sigma(A_0)..sigma(A_{N-1})."""
        return Complex([op.principal_symbol(SPATIAL) for op in self.ops])

    def lift(self, signature: Signature) -> "Complex":
        if signature == self.signature:
            return self
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
    # Change of basis at degree 2: (c12, c13, c23) -> (c23, -c13, c12), an
    # involution: the rows of A_1 and the columns of A_2 reversed, the middle
    # one negated, with no product taken.
    a0, a1, a2 = cplx.ops
    r0, r1, r2 = a1.body.entries
    return Complex([a0, OperatorMatrix.from_entries(sig, [r2, [-p for p in r1], r0]),
                    OperatorMatrix.from_entries(sig, [[c, -b, a] for a, b, c in a2.body.entries])])


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

    ``mu0_q`` acts on E_{q+1} (weighting A_q* . A_q from inside) and
    ``mu1_q`` on E_{q-1} (weighting A_{q-1} . A_{q-1}*).  Each weight is
    kept as structure: absent (the identity), a scalar :class:`Poly` s
    meaning s I (given as a Poly or a constant), or a matrix.  A scalar 1, a
    matrix equal to I and any weight on a rank-0 space are stored as absent;
    a zero scalar stays a weight.  Builders multiply by a weight through
    :meth:`apply`, so none multiplies by an identity.
    """

    __slots__ = ("cplx", "_mu0", "_mu1")

    def __init__(self, cplx: Complex, mu0: Mapping[int, object] | None = None,
                 mu1: Mapping[int, object] | None = None):
        self.cplx = cplx
        self._mu0 = self._weights(mu0 or {}, 1, "mu0")
        self._mu1 = self._weights(mu1 or {}, -1, "mu1")

    def _weights(self, given: Mapping[int, object], step: int, name: str) -> dict:
        """The given weights other than the identity, a matrix checked
        against the rank k of E_{q+step}."""
        out, vars = {}, self.cplx.signature.vars
        for q, w in given.items():
            k = self.cplx.rank(q + step)
            if not isinstance(w, SignatureMatrix):
                w = self.cplx.signature.as_poly(w)
            elif (w.rows, w.cols) != (k, k):
                raise ValueError(f"{name}[{q}] must be {k}x{k}, got {w.rows}x{w.cols}")
            one = Poly.one(vars) if isinstance(w, Poly) else type(w).identity(w.signature, k)
            if k and w != one:
                out[q] = w
        return out

    @staticmethod
    def identity(cplx: Complex) -> "MuSet":
        return MuSet(cplx)

    @staticmethod
    def scalar(cplx: Complex, value, degrees: Sequence[int] | None = None) -> "MuSet":
        """Constant scalar weight (e.g. a viscosity parameter) at every degree,
        or only at the given degrees."""
        values = dict.fromkeys(range(cplx.length + 1) if degrees is None else degrees, value)
        return MuSet(cplx, values, values)

    @staticmethod
    def laplace_powers(cplx: Complex, mtilde: dict[int, int] | None = None,
                       mhat: dict[int, int] | None = None) -> "MuSet":
        """Weights (-Laplace)^m I at the requested degrees."""
        sig = cplx.signature
        minus_lap = Poly.zero(sig.vars)
        for v in sig.spatial:
            d = Poly.variable(sig.vars, v)
            minus_lap = minus_lap - d * d
        return MuSet(cplx, {q: minus_lap ** m for q, m in (mtilde or {}).items()},
                     {q: minus_lap ** m for q, m in (mhat or {}).items()})

    def _map(self, cplx: Complex, fn) -> "MuSet":
        """These weights over ``cplx``: a matrix m as ``fn(m)`` and a scalar
        s as the entry of ``fn`` of the 1x1 operator [s]."""
        sig = self.cplx.signature

        def one(w):
            return fn(OperatorMatrix.scalar(sig, w))[0, 0] if isinstance(w, Poly) else fn(w)

        return MuSet(cplx, {q: one(w) for q, w in self._mu0.items()},
                     {q: one(w) for q, w in self._mu1.items()})

    def principal_symbols(self, sym: Complex) -> "MuSet":
        """The spatial principal symbols of these weights, over ``sym``, the
        complex's :meth:`Complex.principal_symbols`."""
        return self._map(sym, lambda m: m.principal_symbol(SPATIAL))

    def lift(self, cplx: Complex) -> "MuSet":
        """The same weights over ``cplx``, this set's complex lifted to a
        richer signature (``Complex.lift``)."""
        return self._map(cplx, lambda m: m.lift(cplx.signature))

    def apply(self, which: int, q: int, m: MatrixT, *, left: bool = False) -> MatrixT:
        """``m mu_q``, or ``mu_q m`` with ``left``, for mu0 (``which`` 0) or
        mu1 (``which`` 1): ``m`` itself for an absent weight, each nonzero
        entry p as ``p * s`` (``s * p`` on the left) for a scalar s, which are
        the products s I would take, and the matrix product for a matrix.  A
        constant s commutes, so it scales the coefficients on either side."""
        w = (self._mu0, self._mu1)[which].get(q)
        if w is None:
            return m
        if not isinstance(w, Poly):
            return w @ m if left else m @ w
        if not left or w.is_constant:
            return m.scale(w)
        s = w.lift(m.signature.vars)
        return type(m)(m.signature, m.body.map(lambda p: s * p if p._num else p))

    def trivial(self, q: int) -> bool:
        """True when both weights at degree q are absent (the identity)."""
        return q not in self._mu0 and q not in self._mu1

    def orders(self, q: int) -> tuple[int, int]:
        """(mtilde_q, mhat_q): half the orders of mu0_q and mu1_q (0 if
        absent); an odd order has no half and raises ``ValueError``."""
        derivs = self.cplx.signature.derivative_vars
        halves = []
        for name, w in (("mu0", self._mu0.get(q)), ("mu1", self._mu1.get(q))):
            order = 0 if w is None else max(
                w.total_degree(derivs) if isinstance(w, Poly) else w.order(), 0)
            if order % 2:
                raise ValueError(f"weight {name} at degree {q} has odd order {order}")
            halves.append(order // 2)
        return tuple(halves)

    def delta_half_order(self, q: int) -> int:
        """Half the order of delta_{q,mu}: m_q + mtilde_q below the top
        degree, m_{N-1} + mhat_N at the top, m_q the order of A_q."""
        mtilde, mhat = self.orders(q)
        if q < self.cplx.length:
            return self.cplx.op(q).order() + mtilde
        return self.cplx.op(q - 1).order() + mhat


# ---------------------------------------------------------------------------
# Laplacians


def laplacian(cplx: Complex, q: int) -> SignatureMatrix:
    """The Hodge Laplacian ``A_q* A_q + A_{q-1} A_{q-1}*`` at degree q."""
    return generalized_laplacian(cplx, q, MuSet.identity(cplx))


def generalized_laplacian(cplx: Complex, q: int, mu: MuSet) -> SignatureMatrix:
    """``A_q* mu0_q A_q + A_{q-1} mu1_q A_{q-1}*``; on the complex of
    principal symbols, with the weights' symbols, this is delta_{q,mu}.
    Raises ``ValueError`` for a degree outside 0..N."""
    cplx.check_degree(q)
    k = cplx.rank(q)
    total = cplx.zero(k, k)
    if q < cplx.length:
        a = cplx.op(q)
        total = total + mu.apply(0, q, a.formal_adjoint()) @ a
    if q > 0:
        b = cplx.op(q - 1)
        total = total + mu.apply(1, q, b) @ b.formal_adjoint()
    return total


def check_coherence(cplx: Complex, mu: MuSet, q: int) -> bool:
    """The compatibility condition ``A_{q+1} mu1_{q+2} mu0_q A_q = 0``."""
    if q + 1 >= cplx.length:
        return True
    return (mu.apply(0, q, mu.apply(1, q + 2, cplx.op(q + 1))) @ cplx.op(q)).is_zero


def perturbed_laplacian(cplx: Complex, q: int, mu: MuSet,
                        lower: OperatorMatrix | None = None) -> OperatorMatrix:
    """Generalized Laplacian plus an explicitly lower-order perturbation.

    The perturbation's order must be below delta_{q,mu}'s: at most
    ``2 (m_q + mtilde_q) - 1``, or ``2 (m_{N-1} + mhat_N) - 1`` at the top
    degree N (``MuSet.delta_half_order``); a higher one raises ``ValueError``.
    """
    top = generalized_laplacian(cplx, q, mu)
    if lower is None:
        return top
    limit = 2 * mu.delta_half_order(q) - 1
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
