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

Each named builder returns one shared, immutable :class:`Complex` per
(positional-only) argument set, from a ``functools.lru_cache`` of
``SHARED_COMPLEXES`` entries per builder; :func:`koszul_complex` builds anew
on every call.  Parameters and time enter only through :meth:`Complex.lift`,
which keeps up to ``SHARED_COMPLEXES`` lifts per complex (one of de Rham(8)
onto time and a parameter takes ~5 ms and holds ~1.4 MB with its symbols
and adjoints).  What a shared complex derives (its operators' adjoints and
principal symbols, its complex of symbols, its lifts, and the Gram products
A_q* A_q and A_{q-1} A_{q-1}* of every degree a Laplacian has asked for) is
made once and serves every later caller, so callers must not mutate it or
its matrices.  A Laplacian with absent or constant scalar weights reads the
Gram products and scales them; other weights form their products anew.
The largest complex the spec language can ask for, de Rham(8), builds in
~4 ms, derives its symbols and adjoints in ~35 ms more and then keeps
~1.7 MB; its complex of symbols keeps ~3.4 MB more of Gram products once
all nine deltas are taken (~47 ms the first time, ~15 ms after), and a full
cache of complexes that size would hold ~80 MB.  An
operator compared by ``cxkit.syzygy.module_equivalent`` also keeps its
packed rows and their Groebner basis: for every operator of de Rham(8)
~0.33 MB more (~5 MB for a full cache), a few KiB for de Rham(3).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

# Entries of each builder's cache and lifts kept per complex (the fixture bundle
# needs seven and two); a kept lift of de Rham(8) onto time and a parameter, with
# its symbols and adjoints, takes ~5 ms and holds ~1.4 MB: ~23 MB for sixteen.
# The Gram products a complex keeps are not lifts and count against no bound:
# at most 2N per complex (~3.4 MB for de Rham(8)'s symbols, ~20 KB for de Rham(3))
SHARED_COMPLEXES = 16


class Complex:
    """A chain of operators E_0 -> E_1 -> ... -> E_N with A_{q+1} A_q = 0.

    The chain holds operator matrices or symbol matrices, all of one type.
    A complex is immutable: it keeps its complex of principal symbols and
    its lifts once made, and the builders share it between callers.
    """

    __slots__ = ("ops", "signature", "ranks", "_derived")

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
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"a Complex is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Complex is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # rebuilt from its operators; the kept derivations are not pickled
        return Complex, (self.ops,)

    _kept = SignatureMatrix._kept  # one keeper of derived values, in ``_derived``

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
        """The complex of spatial principal symbols sigma(A_0)..sigma(A_{N-1}),
        made on the first call and kept."""
        return self._kept("symbols", lambda: Complex(
            [op.principal_symbol(SPATIAL) for op in self.ops]))

    def lift(self, signature: Signature) -> "Complex":
        """This complex over a richer signature (more parameters, time), made
        once and kept; beyond ``SHARED_COMPLEXES`` lifts a new one drops the
        oldest lift (the kept symbols and Gram products stay)."""
        if signature == self.signature:
            return self
        lifts = [k for k in self._derived if isinstance(k, Signature)]
        if signature not in self._derived and len(lifts) == SHARED_COMPLEXES:
            del self._derived[lifts[0]]
        return self._kept(signature, lambda: Complex([op.lift(signature) for op in self.ops]))

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


def koszul_complex(generators: Sequence[Poly], signature: Signature) -> Complex:
    """The wedge complex generated by commuting scalar operators Q_1..Q_n.

    The degree-q operator sends the basis element e_I to
    ``sum_i sign(i, I) Q_i e_{I + {i}}``.  Built anew on every call.
    """
    n = len(generators)
    if n == 0:
        raise ValueError("need at least one generator")
    gens = [g.lift(signature.vars) for g in generators]
    # strictly increasing index tuples per degree, in lexicographic order
    bases = [list(combinations(range(n), q)) for q in range(n + 1)]
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


@lru_cache(maxsize=SHARED_COMPLEXES)
def de_rham_complex(n: int, /) -> Complex:
    """The de Rham complex on R^n in derivative symbols d1..dn.

    For n = 3 the degree-two basis is re-ordered to the cyclic pairing so the
    operators are exactly (grad, curl, div).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sig = spatial_signature(n)
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


@lru_cache(maxsize=SHARED_COMPLEXES)
def powered_de_rham_complex(n: int, p: int, /) -> Complex:
    """The wedge complex generated by the pure powers d_j^p."""
    if p < 1:
        raise ValueError("need p >= 1")
    sig = spatial_signature(n)
    gens = [Poly.variable(sig.vars, f"d{j + 1}") ** p for j in range(n)]
    return koszul_complex(gens, sig)


@lru_cache(maxsize=SHARED_COMPLEXES)
def dolbeault_complex(n: int, /) -> Complex:
    """The Dolbeault complex on C^n written in 2n real derivative symbols.

    The generators are d/d(conj z_j) = (d_{2j-1} + i d_{2j}) / 2.
    """
    sig = spatial_signature(2 * n)
    half = GaussianRational.of(Fraction(1, 2))
    half_i = GaussianRational.of(0, Fraction(1, 2))
    gens = []
    for j in range(n):
        re = Poly.variable(sig.vars, f"d{2 * j + 1}").scale(half)
        im = Poly.variable(sig.vars, f"d{2 * j + 2}").scale(half_i)
        gens.append(re + im)
    return koszul_complex(gens, sig)


@lru_cache(maxsize=SHARED_COMPLEXES)
def imaginary_de_rham_complex(n: int, /) -> Complex:
    """The de Rham complex with every operator multiplied by i.

    Each composition stays zero, while the formal adjoint of i*A_q is
    i*(A_q transposed): this is the complex underlying the self-adjoint
    field-theory block operators.
    """
    i = GaussianRational.i()
    return Complex([op.scale(i) for op in de_rham_complex(n).ops])


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
        against the rank k of E_{q+step}; a scalar is the identity when it
        is the polynomial one (the test ``PolyMatrix.scale`` makes)."""
        out = {}
        for q, w in given.items():
            k = self.cplx.rank(q + step)
            if isinstance(w, SignatureMatrix):
                if (w.rows, w.cols) != (k, k):
                    raise ValueError(f"{name}[{q}] must be {k}x{k}, got {w.rows}x{w.cols}")
                one = k and w == type(w).identity(w.signature, k)
            else:
                w = self.cplx.signature.as_poly(w)
                one = w.is_one
            if k and not one:
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
        """These weights over ``cplx``: a matrix m as ``fn(m)``, a constant
        scalar as the same constant over ``cplx``'s ring (what ``fn`` makes
        of it, both for a principal symbol and for a lift) and any other
        scalar s as the entry of ``fn`` of the 1x1 operator [s].  The set is
        built as it is, without ``_weights``: a weight of a checked set maps
        to a weight of the same shape that is not the identity either."""
        sig = self.cplx.signature

        def one(w):
            if not isinstance(w, Poly):
                return fn(w)
            if w.is_constant:
                return cplx.signature.as_poly(w.constant_value())
            return cplx.signature.as_poly(fn(OperatorMatrix.scalar(sig, w))[0, 0])

        out = object.__new__(MuSet)
        out.cplx = cplx
        out._mu0 = {q: one(w) for q, w in self._mu0.items()}
        out._mu1 = {q: one(w) for q, w in self._mu1.items()}
        return out

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
        return type(m)(m.signature, m.body.map(lambda p: p if p.is_zero else s * p))

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


def _gram(cplx: Complex, side: int, q: int, mu: MuSet | None = None) -> SignatureMatrix:
    """The inner product ``A_q* mu0_q A_q`` (``side`` 0) or the outer one
    ``A_{q-1} mu1_q A_{q-1}*`` (``side`` 1), both on E_q, for the weights
    ``mu`` (unweighted for ``None``).

    An absent weight reads the unweighted product, formed on the first
    request and kept by the complex (key ``("gram", side, q)``); a constant
    scalar c scales it, since c (X Y) is stored as (c X) Y is: a nonzero c
    keeps every sum's term order and cancellations, and a zero c gives the
    zero entries both ways.  Any other weight (a scalar with variables, a
    matrix) takes the weighted product.  A caller that weights the product
    by another weight applies it (``MuSet.apply``) to the unweighted one."""
    a = cplx.op(q if side == 0 else q - 1)
    w = None if mu is None else (mu._mu0, mu._mu1)[side].get(q)
    if w is None or isinstance(w, Poly) and w.is_constant:
        gram = cplx._kept(("gram", side, q), lambda: a.formal_adjoint() @ a if side == 0
                          else a @ a.formal_adjoint())
        return gram if w is None else gram.scale(w)
    if side == 0:
        return mu.apply(0, q, a.formal_adjoint()) @ a
    return mu.apply(1, q, a) @ a.formal_adjoint()


def generalized_laplacian(cplx: Complex, q: int, mu: MuSet) -> SignatureMatrix:
    """``A_q* mu0_q A_q + A_{q-1} mu1_q A_{q-1}*``; on the complex of
    principal symbols, with the weights' symbols, this is delta_{q,mu}.
    Each product is the complex's kept Gram product, scaled by a constant
    scalar weight, or the weighted product for any other weight
    (``_gram``).  The result may be a kept matrix itself, which callers
    must not mutate.  Raises ``ValueError`` for a degree outside 0..N."""
    cplx.check_degree(q)
    if q == 0:
        return _gram(cplx, 0, q, mu)
    if q == cplx.length:
        return _gram(cplx, 1, q, mu)
    return _gram(cplx, 0, q, mu) + _gram(cplx, 1, q, mu)


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
    "SHARED_COMPLEXES",
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
