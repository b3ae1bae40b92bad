"""Symbol-level calculus: deltas, parametrices and fundamental symbols.

For constant-coefficient operators the parametrix theorems reduce to exact
algebraic identities between principal symbols, with the inverse Laplacian
symbols represented as rational matrices whose numerator and denominator are
both kept as powers of monic factors: a scalar block s I_k inverts to the
constant core I/lc(s) times monic(s)^(k-1) over monic(s)^k, any other block
to its adjugate over monic(det).  Products add exponents.  Sums are taken
over the lcm of the denominators by raising the numerator factors; the powers
all operands then share stay factors and only the rest is expanded, so the
parametrix and Stokes products multiply constant diagonals.  Factors are
never split or cancelled.  Every identity is checked exactly on the cores,
with the common powers left out; no analysis is involved.

The symbol-level objects (delta_q, sigma(M0), sigma(M1), the factorization
residual) are the operator builders of :mod:`cxkit.complexes` and
:mod:`cxkit.blockops` run on ``Complex.principal_symbols()`` with the weights'
``MuSet.principal_symbols``: products sigma(mu) sigma(A), never sigma(mu A).
Each routine computes those symbols once and passes them down; a Stokes
routine builds one table of delta_{j,mu}, j <= q, and passes its blocks down.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from cxkit._record import Record
from cxkit.blockops import (
    BlockPartition,
    block_diagonal,
    block_place,
    factorization_residual,
    maxwell,
    maxwell_blocks,
)
from cxkit.complexes import Complex, MuSet, generalized_laplacian
from cxkit.diffop import SPATIAL, Signature, SymbolMatrix
from cxkit.poly import GaussianRational, Poly


class RationalSymbolMatrix:
    """A symbol matrix over a common scalar denominator, both kept factored.

    The value is ``core * prod f^c / prod f^d``.  ``factors`` maps distinct
    monic polynomials (leading coefficient one under grlex) to the positive
    exponents d of the denominator, ``num_factors`` maps monic polynomials to
    the positive exponents c of the numerator, and ``core`` is a symbol
    matrix.  ``num`` and ``den`` are the expanded products, each built on
    first use.  Products add both exponent maps.  Sums and equality bring the
    operands over the lcm of their denominators (the higher power of each
    identical factor) by adding the missing powers to their numerator
    factors, pull out the numerator powers all operands share and expand only
    the rest into each core.  Factors are never split or cancelled, so equal
    fractions may carry different denominators.
    """

    __slots__ = ("core", "num_factors", "factors", "_num", "_den")

    def __init__(self, num: SymbolMatrix, den: Poly):
        """``num / den`` for any nonzero ``den``: its leading coefficient
        moves into the numerator and the monic rest is the one factor."""
        den = den.lift(num.signature.vars)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        base, lc = _monic(den)
        if lc != GaussianRational.one():
            num = num.scale(GaussianRational.one() / lc)
        self.core, self.num_factors, self._num, self._den = num, {}, None, None
        self.factors = {} if base.is_constant else {base: 1}

    @staticmethod
    def _over(core: SymbolMatrix, num_factors: Mapping[Poly, int],
              factors: Mapping[Poly, int]) -> "RationalSymbolMatrix":
        """``core`` times the product of ``num_factors`` over the product of
        ``factors``, taken as given: monic, positive exponents, over the
        variables of ``core``."""
        out = object.__new__(RationalSymbolMatrix)
        out.core, out.num_factors, out.factors = core, num_factors, factors
        out._num = out._den = None
        return out

    @staticmethod
    def from_symbol(sym: SymbolMatrix) -> "RationalSymbolMatrix":
        return RationalSymbolMatrix._over(sym, {}, {})

    @property
    def num(self) -> SymbolMatrix:
        """The numerator: the core times the numerator factor powers."""
        if self._num is None:
            self._num = _times(self.core, self.num_factors)
        return self._num

    @property
    def den(self) -> Poly:
        """The denominator: the product of the factor powers."""
        if self._den is None:
            self._den = _expand(self.signature.vars, self.factors)
        return self._den

    @property
    def signature(self) -> Signature:
        return self.core.signature

    @property
    def rows(self) -> int:
        return self.core.rows

    @property
    def cols(self) -> int:
        return self.core.cols

    def _align(self, other) -> tuple["RationalSymbolMatrix", "RationalSymbolMatrix"]:
        """Both operands over one signature; a SymbolMatrix operand is taken
        over the denominator one."""
        if isinstance(other, SymbolMatrix):
            other = RationalSymbolMatrix.from_symbol(other)
        elif not isinstance(other, RationalSymbolMatrix):
            raise TypeError(
                f"cannot combine a rational symbol matrix with {type(other).__name__}"
            )
        if self.signature == other.signature:
            return self, other
        sig = self.signature.merge(other.signature)
        return self._lift(sig), other._lift(sig)

    def _lift(self, sig: Signature) -> "RationalSymbolMatrix":
        def lift(exps: Mapping[Poly, int]) -> dict[Poly, int]:
            return {f.lift(sig.vars): e for f, e in exps.items()}
        return RationalSymbolMatrix._over(
            self.core.lift(sig), lift(self.num_factors), lift(self.factors))

    def __add__(self, other) -> "RationalSymbolMatrix":
        (a, b), num_factors, lcm = _over_common(self._align(other))
        return RationalSymbolMatrix._over(a + b, num_factors, lcm)

    def __sub__(self, other) -> "RationalSymbolMatrix":
        (a, b), num_factors, lcm = _over_common(self._align(other))
        return RationalSymbolMatrix._over(a - b, num_factors, lcm)

    def __radd__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a + b

    def __rsub__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a - b

    def __matmul__(self, other) -> "RationalSymbolMatrix":
        a, b = self._align(other)
        return RationalSymbolMatrix._over(
            a.core @ b.core, _product(a.num_factors, b.num_factors),
            _product(a.factors, b.factors))

    def __rmatmul__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a @ b

    def scale(self, value) -> "RationalSymbolMatrix":
        return RationalSymbolMatrix._over(self.core.scale(value), self.num_factors, self.factors)

    def __eq__(self, other) -> bool:
        """Exact equality: the numerators over the lcm of the denominators."""
        if not isinstance(other, (SymbolMatrix, RationalSymbolMatrix)):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        (a, b), _, _ = _over_common(self._align(other))
        return a == b

    def __hash__(self):
        # equal values may differ in numerator and denominator alike
        return hash((self.signature, self.rows, self.cols))

    def is_identity(self) -> bool:
        """True iff num == den * I exactly: core * prod f^(c-m) against
        prod f^(d-m) * I, with m = min(c, d) for each factor."""
        if self.rows != self.cols:
            return False
        num, den = self.num_factors, self.factors
        shared = {f: min(c, den[f]) for f, c in num.items() if f in den}
        ident = SymbolMatrix.identity(self.signature, self.rows)
        return _times(self.core, _quotient(num, shared)) == _times(ident, _quotient(den, shared))

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "numerator": [[str(p) for p in row] for row in self.num.body.entries],
            "denominator": str(self.den),
        }


def _monic(p: Poly) -> tuple[Poly, GaussianRational]:
    """``p`` over its leading coefficient, and that coefficient."""
    lc = p.leading_term()[1]
    return (p if lc == GaussianRational.one() else p.scale(GaussianRational.one() / lc)), lc


def _lcm(bases: Sequence[Mapping[Poly, int]]) -> dict[Poly, int]:
    """The highest power of each factor in any of the bases."""
    out: dict[Poly, int] = {}
    for base in bases:
        for f, e in base.items():
            out[f] = max(e, out.get(f, 0))
    return out


def _product(a: Mapping[Poly, int], b: Mapping[Poly, int]) -> dict[Poly, int]:
    """The exponents of the product of two factor powers."""
    out = dict(a)
    for f, e in b.items():
        out[f] = out.get(f, 0) + e
    return out


def _quotient(a: Mapping[Poly, int], b: Mapping[Poly, int]) -> dict[Poly, int]:
    """The exponents of ``a / b`` for ``b`` dividing ``a``; zeros dropped."""
    return {f: e - b.get(f, 0) for f, e in a.items() if e > b.get(f, 0)}


def _over_common(operands: Sequence[RationalSymbolMatrix]
                 ) -> tuple[list[SymbolMatrix], dict[Poly, int], dict[Poly, int]]:
    """The operands (over one signature) brought over the lcm of their
    denominators: each one's numerator factors gain the powers its
    denominator misses, the powers all of them share are pulled out, and
    only the rest is expanded into each core.  Returns the cores, the shared
    numerator factors and the lcm."""
    lcm = _lcm([op.factors for op in operands])
    nums = [_product(op.num_factors, _quotient(lcm, op.factors)) for op in operands]
    shared = {f: min(num.get(f, 0) for num in nums) for f in nums[0]}
    shared = {f: e for f, e in shared.items() if e}
    cores = [_times(op.core, _quotient(num, shared)) for op, num in zip(operands, nums)]
    return cores, shared, lcm


def _expand(vars: Sequence[str], factors: Mapping[Poly, int]) -> Poly:
    out = Poly.one(vars)
    for f, e in factors.items():
        out = out * f ** e
    return out


def _times(m: SymbolMatrix, factors: Mapping[Poly, int]) -> SymbolMatrix:
    """``m`` times the product of the factor powers."""
    return m.scale(_expand(m.signature.vars, factors)) if factors else m


# ---------------------------------------------------------------------------
# Basic symbols of a complex


def sigma(cplx: Complex, q: int) -> SymbolMatrix:
    """Principal (spatial) symbol of A_q; zero-shaped outside 0..N-1."""
    return cplx.op(q).principal_symbol(SPATIAL)


def _symbols(cplx: Complex, mu: MuSet | None) -> tuple[Complex, MuSet]:
    """The complex of principal symbols and the weights' symbols over it
    (identity weights for ``None``)."""
    sym = cplx.principal_symbols()
    return sym, MuSet.identity(sym) if mu is None else mu.principal_symbols(sym)


def delta(cplx: Complex, q: int, mu: MuSet | None = None) -> SymbolMatrix:
    """delta_q = sigma_q^* sigma_q + sigma_{q-1} sigma_{q-1}^*, optionally
    weighted by the principal symbols of the mu pair at degree q."""
    sym, mus = _symbols(cplx, mu)
    return generalized_laplacian(sym, q, mus)


# ---------------------------------------------------------------------------
# Block symbol assembly


def maxwell_symbol(cplx: Complex, q: int, mu: MuSet | None = None,
                   variant: int = 0) -> SymbolMatrix:
    """The weighted principal symbol of the Maxwell block operator."""
    sym, mus = _symbols(cplx, mu)
    return maxwell(sym, q, mus, variant)


def _stokes_dn(sym: Complex, q: int, top: SymbolMatrix) -> SymbolMatrix:
    """``B_q top B_q + sigma(M0)``, unweighted off the diagonal, as one placement."""
    blocks = maxwell_blocks(sym, q)
    blocks[q, q] = top
    return block_place(BlockPartition.for_degree(sym, q), blocks)


def stokes_dn_symbol(cplx: Complex, q: int, mu: MuSet | None = None) -> SymbolMatrix:
    """DN principal symbol of the Stokes operator:
    ``B_q delta_{q,mu} B_q + maxwell_symbol``."""
    sym, mus = _symbols(cplx, mu)
    return _stokes_dn(sym, q, generalized_laplacian(sym, q, mus))


# ---------------------------------------------------------------------------
# Inversion and factorization


def invert_symbol(m: SymbolMatrix) -> RationalSymbolMatrix:
    """Exact inverse; raises on identically singular input.

    A scalar block s I_k is inverted as monic(s)^(k-1) I / lc(s) over the
    factor monic(s)^k: the adjugate/determinant fraction, with the
    determinant kept as a power.  The numerator power stays a factor too
    (``num_factors`` {monic(s): k-1}) of the constant core I / lc(s).  Any
    other block is adjugate over determinant, with the single factor
    monic(det).
    """
    if m.rows != m.cols:
        raise ValueError("cannot invert a non-square symbol")
    s = m.scalar_part()
    if s is None:
        det = m.body.determinant()
        if det.is_zero:
            raise ValueError("symbol is identically singular")
        return RationalSymbolMatrix(SymbolMatrix(m.signature, m.body.adjugate()), det)
    if s.is_zero:
        raise ValueError("symbol is identically singular")
    base, lc = _monic(s)
    k = m.rows
    core = SymbolMatrix.identity(m.signature, k).scale(GaussianRational.one() / lc)
    if base.is_constant:
        return RationalSymbolMatrix.from_symbol(core)
    return RationalSymbolMatrix._over(core, {base: k - 1} if k > 1 else {}, {base: k})


def symbolic_factorization_residual(cplx: Complex, q: int,
                                    mu: MuSet | None = None) -> SymbolMatrix:
    """Residual of the symbol-level Maxwell factorization

    sigma(M1) sigma(M0) = B_q sigma_{q-1} sigma(mu1_q) sigma_{q-1}^* B_q
                          + sum_{j<q} B_j delta_{j,mu} B_j.
    """
    sym, mus = _symbols(cplx, mu)
    return factorization_residual(sym, q, mus)


def verify_symbolic_factorization(cplx: Complex, q: int,
                                  mu: MuSet | None = None) -> dict:
    res = symbolic_factorization_residual(cplx, q, mu)
    return {"identity": "maxwell-symbol-factorization", "degree": q,
            "ok": res.is_zero}


def _block_diagonal_inverse(sym: Complex, invs: Mapping[int, RationalSymbolMatrix]
                            ) -> RationalSymbolMatrix:
    """``sum_j B_j invs_j B_j`` for the inverses of delta_{j,mu}, by degree."""
    if not invs:
        raise ValueError("degrees is empty: need at least one degree")
    cores, num_factors, lcm = _over_common(list(invs.values()))
    part = BlockPartition.for_degree(sym, max(invs))
    return RationalSymbolMatrix._over(block_diagonal(part, dict(zip(invs, cores))),
                                      num_factors, lcm)


def block_diagonal_inverse(cplx: Complex, degrees: Sequence[int],
                           mu: MuSet | None = None) -> RationalSymbolMatrix:
    """``sum_j B_j delta_{j,mu}^{-1} B_j`` over the given (nonempty) degrees
    as one rational matrix over the lcm of the blocks' denominators, the
    highest power of each factor: (|zeta|^2)^k when every block is a
    multiple of |zeta|^2 I and the largest has rank k.  Each block's
    numerator gains the powers its denominator misses as factors; the powers
    all blocks share stay factors of the whole matrix, so a block of rank r
    keeps the constant core I/lc and (|zeta|^2)^(k-1) is one numerator
    factor."""
    sym, mus = _symbols(cplx, mu)
    return _block_diagonal_inverse(
        sym, {j: invert_symbol(generalized_laplacian(sym, j, mus)) for j in degrees})


def maxwell_parametrix_symbol(cplx: Complex, mu: MuSet | None = None,
                              side: str = "right") -> RationalSymbolMatrix:
    """Symbol-level Maxwell parametrix at the top degree.

    right: F1 = sigma(M0) . sum_j B_j delta_{j,mu}^{-1} B_j   (M1 F1 = I)
    left:  F0 = sum_j B_j delta_{j,mu}^{-1} B_j . sigma(M1)   (F0 M0 = I)

    The product identity is verified exactly; a failure raises.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    n = cplx.length
    sym, mus = _symbols(cplx, mu)
    diag_inv = _block_diagonal_inverse(
        sym, {j: invert_symbol(generalized_laplacian(sym, j, mus)) for j in range(n + 1)})
    if side == "right":
        f = maxwell(sym, n, mus, 0) @ diag_inv
        product = maxwell(sym, n, mus, 1) @ f
    else:
        f = diag_inv @ maxwell(sym, n, mus, 1)
        product = f @ maxwell(sym, n, mus, 0)
    if not product.is_identity():
        raise ArithmeticError("parametrix product is not the identity")
    return f


# ---------------------------------------------------------------------------
# Stokes fundamental symbols


class HypothesisFailure(Record, ValueError):
    """A hypothesis of the Stokes identities that the input does not meet."""

    __slots__ = ("condition", "detail")

    def __init__(self, condition: str, detail: str):
        ValueError.__init__(self, condition, detail)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "detail", detail)

    def __str__(self):
        return f"{self.condition}: {self.detail}"


def _check_stokes_hypotheses(cplx: Complex, q: int, mu: MuSet, sym: Complex,
                             mus: MuSet) -> None:
    """The hypotheses of the Stokes identities; ``sym``/``mus`` are the
    symbols of ``cplx``/``mu``.  They make every weight below degree q the
    identity, so delta_{j,mu} = delta_j for j < q."""
    n = cplx.length
    if not 1 <= q <= n - 1:
        raise HypothesisFailure("degree-range", f"need 1 <= q <= N-1, got q={q}, N={n}")
    m = cplx.op(0).order()
    for j in range(q):
        if cplx.op(j).order() != m:
            raise HypothesisFailure(
                "equal-orders", f"order of A_{j} is {cplx.op(j).order()}, expected {m}"
            )
    half = mu.delta_half_order(q)
    if half != m:
        raise HypothesisFailure("order-balance", f"m_q + mtilde_q = {half} != m = {m}")
    for j in range(q):
        if not mu.trivial(j):
            raise HypothesisFailure(
                "trivial-weights-below-q", f"weights at degree {j} are not the identity"
            )
    if q >= 2:
        s2 = sym.op(q - 2).formal_adjoint()
        s1 = sym.op(q - 1).formal_adjoint()
        if not (mus.apply(1, q, s2) @ s1).is_zero:
            raise HypothesisFailure(
                "mu-mu", "sigma_{q-2}^* sigma(mu1_q) sigma_{q-1}^* does not vanish"
            )


def _n_symbol(sym: Complex, q: int, mus: MuSet, q_inverse: RationalSymbolMatrix,
              i_tau: Poly | None = None) -> RationalSymbolMatrix:
    """N + sigma(M_{q-1}) around an inverse for the degree-q block, its
    blocks over one denominator and placed (those of sigma(M_{q-1}) are
    disjoint from N's); with ``i_tau``, N - B_{q-1} i tau B_{q-1}."""
    sq = sym.op(q)
    sq1 = sym.op(q - 1)
    mu1_adj = mus.apply(1, q, sq1.hermitian_transpose(), left=True)
    lower = maxwell_blocks(sym, q - 1)
    plain = [sq1, mu1_adj, -(mu1_adj @ sq1), *lower.values()]
    if i_tau is not None:
        plain.append(sym.identity(sq1.cols, i_tau))
    (top, down, up, corner, *rest), num_factors, lcm = _over_common(
        [q_inverse @ (mus.apply(0, q, sq.hermitian_transpose()) @ sq)]
        + [RationalSymbolMatrix.from_symbol(b) for b in plain])
    placed = dict(zip(lower, rest))
    placed.update({(q, q): top, (q, q - 1): down, (q - 1, q): up,
                   (q - 1, q - 1): corner - rest[-1] if i_tau is not None else corner})
    return RationalSymbolMatrix._over(
        block_place(BlockPartition.for_degree(sym, q), placed), num_factors, lcm)


def stokes_fundamental_symbol(cplx: Complex, q: int, mu: MuSet
                              ) -> tuple[RationalSymbolMatrix, dict]:
    """Symbol of the right fundamental solution of the Stokes operator.

    Verifies both the intermediate identity

        S_dn (N + sigma(M_{q-1})) = B_q delta_{q,mu} B_q + sum_{j<q} B_j delta_j B_j

    and the full product ``S_dn . F = I`` in exact rational arithmetic.
    """
    sym, mus = _symbols(cplx, mu)
    _check_stokes_hypotheses(cplx, q, mu, sym, mus)
    deltas = {j: generalized_laplacian(sym, j, mus) for j in range(q + 1)}
    invs = {j: invert_symbol(d) for j, d in deltas.items()}
    core = _n_symbol(sym, q, mus, invs[q])
    s_dn = _stokes_dn(sym, q, deltas[q])
    intermediate_ok = (s_dn @ core) == block_diagonal(BlockPartition.for_degree(sym, q), deltas)

    f = core @ _block_diagonal_inverse(sym, invs)
    product_ok = (s_dn @ f).is_identity()
    report = {
        "identity": "stokes-fundamental-symbol",
        "degree": q,
        "intermediate_ok": intermediate_ok,
        "product_ok": product_ok,
        "ok": intermediate_ok and product_ok,
    }
    return f, report


# ---------------------------------------------------------------------------
# Evolution identity


def verify_evolution_identity(cplx: Complex, q: int, mu: MuSet) -> dict:
    """Exact symbol-level check of the parabolic fundamental-solution identity.

    With b = (0,...,0,1) the evolution Stokes symbol is
    ``S_t = S_dn + B_q i tau B_q``; the degree-q inverse is the scalar
    rational ``1/(i tau + s)`` which requires delta_{q,mu} = s I, and N_t is N
    built around it, minus ``B_{q-1} i tau B_{q-1}``.  The verified identity is

        S_t (N_t + sigma(M_{q-1})) = B_q delta_{q,mu} B_q + sum_{j<q} B_j delta_j B_j.
    """
    sym, mus = _symbols(cplx, mu)
    _check_stokes_hypotheses(cplx, q, mu, sym, mus)
    sig = Signature(sym.signature.spatial, "tau", sym.signature.params)
    sym = sym.lift(sig)
    mus = mus.lift(sym)
    deltas = {j: generalized_laplacian(sym, j, mus) for j in range(q + 1)}
    scalar = deltas[q].scalar_part()
    if scalar is None:
        raise HypothesisFailure("scalar-delta", "delta_{q,mu} is not a scalar multiple of I")

    part = BlockPartition.for_degree(sym, q)
    i_tau = Poly.variable(sig.vars, "tau").scale(GaussianRational.i())
    resolvent_den = i_tau + scalar
    resolvent = RationalSymbolMatrix(sym.identity(part.ranks[q]), resolvent_den)
    core = _n_symbol(sym, q, mus, resolvent, i_tau)
    top = deltas[q] + sym.identity(part.ranks[q], i_tau)
    ok = (_stokes_dn(sym, q, top) @ core) == block_diagonal(part, deltas)
    return {
        "identity": "stokes-evolution-symbol",
        "degree": q,
        "denominator": str(resolvent_den),
        "ok": ok,
    }


__all__ = [
    "RationalSymbolMatrix",
    "HypothesisFailure",
    "sigma",
    "delta",
    "maxwell_symbol",
    "stokes_dn_symbol",
    "invert_symbol",
    "symbolic_factorization_residual",
    "verify_symbolic_factorization",
    "block_diagonal_inverse",
    "maxwell_parametrix_symbol",
    "stokes_fundamental_symbol",
    "verify_evolution_identity",
]
