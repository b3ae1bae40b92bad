"""Symbol-level calculus: deltas, parametrices and fundamental symbols.

For constant-coefficient operators the parametrix theorems reduce to exact
algebraic identities between principal symbols, with the inverse Laplacian
symbols represented as rational matrices over a factored denominator: a scalar
block s I_k inverts to I/s over monic(s)^k, any other block to its adjugate
over monic(det).  Sums of rational matrices are taken over the lcm of their
factors and products add exponents; factors are never split or cancelled.
Every identity is checked exactly, on the expanded product; no analysis is
involved.

The symbol-level objects (delta_q, sigma(M0), sigma(M1), the factorization
residual) are the operator builders of :mod:`cxkit.complexes` and
:mod:`cxkit.blockops` run on ``Complex.principal_symbols()`` with the weights'
``MuSet.principal_symbols``: products sigma(mu) sigma(A), never sigma(mu A).
Each routine computes those symbols once and passes them down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from cxkit.blockops import (
    BlockPartition,
    block_diagonal,
    block_inject,
    embed_trailing,
    factorization_residual,
    maxwell,
)
from cxkit.complexes import Complex, MuSet, generalized_laplacian
from cxkit.diffop import SPATIAL, Signature, SymbolMatrix
from cxkit.poly import GaussianRational, Poly


class RationalSymbolMatrix:
    """A symbol matrix over a common scalar denominator.

    The denominator is kept factored, as ``factors``: distinct monic
    polynomials (leading coefficient one under grlex) mapped to positive
    exponents.  ``den`` is their expanded product, built on first use.  Sums
    and equality work over the lcm of the two factor bases (the higher power
    of each identical factor), products add exponents.  Factors are never
    split or cancelled, so equal fractions may carry different denominators.
    """

    __slots__ = ("num", "factors", "_den")

    def __init__(self, num: SymbolMatrix, den: Poly):
        """``num / den`` for any nonzero ``den``: its leading coefficient
        moves into the numerator and the monic rest is the one factor."""
        den = den.lift(num.signature.vars)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        base, lc = _monic(den)
        if lc != GaussianRational.one():
            num = num.scale(GaussianRational.one() / lc)
        self.num, self._den = num, None
        self.factors = {} if base.is_constant else {base: 1}

    @staticmethod
    def _over(num: SymbolMatrix, factors: Mapping[Poly, int]) -> "RationalSymbolMatrix":
        """``num`` over the product of ``factors``, taken as given: monic,
        distinct, over the variables of ``num``."""
        out = object.__new__(RationalSymbolMatrix)
        out.num, out.factors, out._den = num, factors, None
        return out

    @staticmethod
    def from_symbol(sym: SymbolMatrix) -> "RationalSymbolMatrix":
        return RationalSymbolMatrix._over(sym, {})

    @property
    def den(self) -> Poly:
        """The denominator: the product of the factor powers."""
        if self._den is None:
            self._den = _expand(self.signature.vars, self.factors)
        return self._den

    @property
    def signature(self) -> Signature:
        return self.num.signature

    @property
    def rows(self) -> int:
        return self.num.rows

    @property
    def cols(self) -> int:
        return self.num.cols

    def map(self, fn) -> "RationalSymbolMatrix":
        """``fn(num)`` over the same denominator, for a linear ``fn`` such
        as a block injection."""
        return RationalSymbolMatrix._over(fn(self.num), self.factors)

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
        return RationalSymbolMatrix._over(
            self.num.lift(sig), {f.lift(sig.vars): e for f, e in self.factors.items()})

    def _over_lcm(self, other) -> tuple[SymbolMatrix, SymbolMatrix, dict[Poly, int]]:
        """Both numerators brought over the lcm of the two denominators, and
        that lcm's factors."""
        a, b = self._align(other)
        if a.factors == b.factors:
            return a.num, b.num, a.factors
        lcm = _lcm([a.factors, b.factors])
        return a._raise_to(lcm), b._raise_to(lcm), lcm

    def _raise_to(self, lcm: Mapping[Poly, int]) -> SymbolMatrix:
        """The numerator over ``lcm``, a multiple of this denominator."""
        missing = {f: e - self.factors.get(f, 0) for f, e in lcm.items()
                   if e > self.factors.get(f, 0)}
        return self.num.scale(_expand(self.signature.vars, missing)) if missing else self.num

    def __add__(self, other) -> "RationalSymbolMatrix":
        a, b, lcm = self._over_lcm(other)
        return RationalSymbolMatrix._over(a + b, lcm)

    def __sub__(self, other) -> "RationalSymbolMatrix":
        a, b, lcm = self._over_lcm(other)
        return RationalSymbolMatrix._over(a - b, lcm)

    def __radd__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a + b

    def __rsub__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a - b

    def __matmul__(self, other) -> "RationalSymbolMatrix":
        a, b = self._align(other)
        factors = dict(a.factors)
        for f, e in b.factors.items():
            factors[f] = factors.get(f, 0) + e
        return RationalSymbolMatrix._over(a.num @ b.num, factors)

    def __rmatmul__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a @ b

    def scale(self, value) -> "RationalSymbolMatrix":
        return self.map(lambda num: num.scale(value))

    def __eq__(self, other) -> bool:
        """Exact equality: the numerators over the lcm of the denominators."""
        if not isinstance(other, (SymbolMatrix, RationalSymbolMatrix)):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b, _ = self._over_lcm(other)
        return a == b

    def __hash__(self):
        # equal values may differ in numerator and denominator alike
        return hash((self.signature, self.rows, self.cols))

    def is_identity(self) -> bool:
        """True iff num == den * I exactly."""
        if self.rows != self.cols:
            return False
        ident = SymbolMatrix.identity(self.signature, self.rows).scale(self.den)
        return self.num == ident

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
            if e > out.get(f, 0):
                out[f] = e
    return out


def _expand(vars: Sequence[str], factors: Mapping[Poly, int]) -> Poly:
    out = Poly.one(vars)
    for f, e in factors.items():
        out = out * f ** e
    return out


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


def _stokes_dn(sym: Complex, mus: MuSet, q: int) -> SymbolMatrix:
    part = BlockPartition.for_degree(sym, q)
    return block_inject(part, generalized_laplacian(sym, q, mus), q, q) + maxwell(sym, q)


def stokes_dn_symbol(cplx: Complex, q: int, mu: MuSet | None = None) -> SymbolMatrix:
    """DN principal symbol of the Stokes operator:
    ``B_q delta_{q,mu} B_q + maxwell_symbol``."""
    return _stokes_dn(*_symbols(cplx, mu), q)


# ---------------------------------------------------------------------------
# Inversion and factorization


def invert_symbol(m: SymbolMatrix) -> RationalSymbolMatrix:
    """Exact inverse; raises on identically singular input.

    A scalar block s I_k is inverted as monic(s)^(k-1) I / lc(s) over the
    factor monic(s)^k: the adjugate/determinant fraction, with the
    determinant kept as a power.  Any other block is adjugate over
    determinant, with the single factor monic(det).
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
    num = SymbolMatrix.identity(m.signature, k).scale(
        (base ** (k - 1)).scale(GaussianRational.one() / lc))
    return RationalSymbolMatrix._over(num, {} if base.is_constant else {base: k})


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


def _block_diagonal_inverse(sym: Complex, mus: MuSet, degrees: Sequence[int],
                            known: Mapping[int, RationalSymbolMatrix] | None = None
                            ) -> RationalSymbolMatrix:
    """``sum_j B_j delta_{j,mu}^{-1} B_j``; ``known`` holds inverses the
    caller already has, by degree."""
    known = known or {}
    invs = {j: known[j] if j in known else invert_symbol(generalized_laplacian(sym, j, mus))
            for j in degrees}
    lcm = _lcm([inv.factors for inv in invs.values()])
    blocks = {j: inv._raise_to(lcm) for j, inv in invs.items()}
    part = BlockPartition.for_degree(sym, max(degrees))
    return RationalSymbolMatrix._over(block_diagonal(part, blocks), lcm)


def block_diagonal_inverse(cplx: Complex, degrees: Sequence[int],
                           mu: MuSet | None = None) -> RationalSymbolMatrix:
    """``sum_j B_j delta_{j,mu}^{-1} B_j`` over the given degrees as one
    rational matrix over the lcm of the blocks' denominators, the highest
    power of each factor: (|zeta|^2)^k when every block is a multiple of
    |zeta|^2 I and the largest has rank k."""
    return _block_diagonal_inverse(*_symbols(cplx, mu), degrees)


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
    diag_inv = _block_diagonal_inverse(sym, mus, range(n + 1))
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


@dataclass(frozen=True)
class HypothesisFailure(Exception):
    condition: str
    detail: str

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
    mt2, _ = mu.orders(q)
    if cplx.op(q).order() + mt2 // 2 != m:
        raise HypothesisFailure(
            "order-balance", f"m_q + mtilde_q = {cplx.op(q).order() + mt2 // 2} != m = {m}"
        )
    for j in range(q):
        if not (mu.mu0(j) == cplx.identity(cplx.rank(j + 1))
                and mu.mu1(j) == cplx.identity(cplx.rank(j - 1))):
            raise HypothesisFailure(
                "trivial-weights-below-q", f"weights at degree {j} are not the identity"
            )
    if q >= 2:
        s2 = sym.op(q - 2).formal_adjoint()
        s1 = sym.op(q - 1).formal_adjoint()
        if not (s2 @ mus.mu1(q) @ s1).is_zero:
            raise HypothesisFailure(
                "mu-mu", "sigma_{q-2}^* sigma(mu1_q) sigma_{q-1}^* does not vanish"
            )


def _n_symbol(sym: Complex, q: int, mus: MuSet,
              q_inverse: RationalSymbolMatrix) -> RationalSymbolMatrix:
    """The correction matrix N built around an inverse for the degree-q block."""
    part = BlockPartition.for_degree(sym, q)
    sq = sym.op(q)
    sq1 = sym.op(q - 1)
    mu1_adj = mus.mu1(q) @ sq1.hermitian_transpose()
    core = q_inverse @ (sq.hermitian_transpose() @ mus.mu0(q) @ sq)
    total = core.map(lambda num: block_inject(part, num, q, q))
    total = total + block_inject(part, sq1, q, q - 1)
    total = total + block_inject(part, mu1_adj, q - 1, q)
    return total - block_inject(part, mu1_adj @ sq1, q - 1, q - 1)


def _stokes_rhs(sym: Complex, mus: MuSet, q: int) -> RationalSymbolMatrix:
    """``sum_{j<=q} B_j delta_{j,mu} B_j``, the right side of the Stokes
    identities (the weights below q are the identity)."""
    blocks = {j: generalized_laplacian(sym, j, mus) for j in range(q + 1)}
    return RationalSymbolMatrix.from_symbol(
        block_diagonal(BlockPartition.for_degree(sym, q), blocks))


def stokes_fundamental_symbol(cplx: Complex, q: int, mu: MuSet
                              ) -> tuple[RationalSymbolMatrix, dict]:
    """Symbol of the right fundamental solution of the Stokes operator.

    Verifies both the intermediate identity

        S_dn (N + sigma(M_{q-1})) = B_q delta_{q,mu} B_q + sum_{j<q} B_j delta_j B_j

    and the full product ``S_dn . F = I`` in exact rational arithmetic.
    """
    sym, mus = _symbols(cplx, mu)
    _check_stokes_hypotheses(cplx, q, mu, sym, mus)
    part = BlockPartition.for_degree(sym, q)
    delta_q_inv = invert_symbol(generalized_laplacian(sym, q, mus))
    core = _n_symbol(sym, q, mus, delta_q_inv) + embed_trailing(maxwell(sym, q - 1), part.size)
    s_dn = _stokes_dn(sym, mus, q)
    intermediate_ok = (s_dn @ core) == _stokes_rhs(sym, mus, q)

    f = core @ _block_diagonal_inverse(sym, mus, range(q + 1), {q: delta_q_inv})
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
    scalar = generalized_laplacian(sym, q, mus).scalar_part()
    if scalar is None:
        raise HypothesisFailure("scalar-delta", "delta_{q,mu} is not a scalar multiple of I")

    sig0 = sym.signature
    sig = Signature(sig0.spatial, "tau", sig0.params)
    sym = sym.lift(sig)
    mus = mus.lift(sym)
    part = BlockPartition.for_degree(sym, q)
    i_tau = Poly.variable(sig.vars, "tau").scale(GaussianRational.i())
    resolvent_den = i_tau + scalar.lift(sig.vars)

    def i_tau_block(j: int) -> SymbolMatrix:
        return block_inject(part, sym.identity(part.ranks[j]).scale(i_tau), j, j)

    resolvent = RationalSymbolMatrix(sym.identity(part.ranks[q]), resolvent_den)
    n_t = _n_symbol(sym, q, mus, resolvent) - i_tau_block(q - 1)
    s_t = _stokes_dn(sym, mus, q) + i_tau_block(q)
    core = n_t + embed_trailing(maxwell(sym, q - 1), part.size)
    ok = (s_t @ core) == _stokes_rhs(sym, mus, q)
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
