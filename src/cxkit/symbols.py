"""Symbol-level calculus: deltas, parametrices and fundamental symbols.

For constant-coefficient operators the parametrix theorems reduce to exact
algebraic identities between principal symbols, with the inverse Laplacian
symbols represented as adjugate/determinant pairs.  Everything here is checked
by exact cross-multiplied rational arithmetic; no analysis is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from cxkit.blockops import BlockPartition, block_inject, embed_trailing
from cxkit.complexes import Complex, MuSet
from cxkit.diffop import SPATIAL, OperatorMatrix, Signature, SymbolMatrix
from cxkit.poly import GaussianRational, Poly


class RationalSymbolMatrix:
    """A symbol matrix with a common scalar polynomial denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: SymbolMatrix, den: Poly):
        den = den.lift(num.signature.vars)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_symbol(sym: SymbolMatrix) -> "RationalSymbolMatrix":
        return RationalSymbolMatrix(sym, Poly.one(sym.signature.vars))

    @property
    def signature(self) -> Signature:
        return self.num.signature

    @property
    def rows(self) -> int:
        return self.num.rows

    @property
    def cols(self) -> int:
        return self.num.cols

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
        return (
            RationalSymbolMatrix(self.num.lift(sig), self.den.lift(sig.vars)),
            RationalSymbolMatrix(other.num.lift(sig), other.den.lift(sig.vars)),
        )

    def __add__(self, other) -> "RationalSymbolMatrix":
        a, b = self._align(other)
        num = a.num.scale(b.den) + b.num.scale(a.den)
        return RationalSymbolMatrix(num, a.den * b.den)

    def __sub__(self, other) -> "RationalSymbolMatrix":
        a, b = self._align(other)
        num = a.num.scale(b.den) - b.num.scale(a.den)
        return RationalSymbolMatrix(num, a.den * b.den)

    def __radd__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a + b

    def __rsub__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a - b

    def __matmul__(self, other) -> "RationalSymbolMatrix":
        a, b = self._align(other)
        return RationalSymbolMatrix(a.num @ b.num, a.den * b.den)

    def __rmatmul__(self, other) -> "RationalSymbolMatrix":
        b, a = self._align(other)
        return a @ b

    def scale(self, value) -> "RationalSymbolMatrix":
        return RationalSymbolMatrix(self.num.scale(value), self.den)

    def __eq__(self, other) -> bool:
        """Exact equality by cross-multiplication."""
        if not isinstance(other, (SymbolMatrix, RationalSymbolMatrix)):
            return NotImplemented
        a, b = self._align(other)
        return a.num.scale(b.den) == b.num.scale(a.den)

    def __hash__(self):
        return hash((self.num, self.den))

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


# ---------------------------------------------------------------------------
# Basic symbols of a complex


def sigma(cplx: Complex, q: int) -> SymbolMatrix:
    """Principal (spatial) symbol of A_q; zero-shaped outside 0..N-1."""
    return cplx.op(q).principal_symbol(SPATIAL)


def sigma_mu(op: OperatorMatrix) -> SymbolMatrix:
    """Principal symbol of a weight operator."""
    return op.principal_symbol(SPATIAL)


def delta(cplx: Complex, q: int, mu: MuSet | None = None) -> SymbolMatrix:
    """delta_q = sigma_q^* sigma_q + sigma_{q-1} sigma_{q-1}^*, optionally
    weighted by the principal symbols of the mu pair at degree q."""
    sig = cplx.signature.symbol_signature()
    k = cplx.rank(q)
    total = SymbolMatrix.zero(sig, k, k)
    if q < cplx.length:
        s = sigma(cplx, q)
        if mu is None:
            total = total + s.hermitian_transpose() @ s
        else:
            total = total + s.hermitian_transpose() @ sigma_mu(mu.mu0(q)) @ s
    if q > 0:
        s = sigma(cplx, q - 1)
        if mu is None:
            total = total + s @ s.hermitian_transpose()
        else:
            total = total + s @ sigma_mu(mu.mu1(q)) @ s.hermitian_transpose()
    return total


# ---------------------------------------------------------------------------
# Block symbol assembly


def maxwell_symbol(cplx: Complex, q: int, mu: MuSet | None = None,
                   variant: int = 0) -> SymbolMatrix:
    """The weighted principal symbol of the Maxwell block operator."""
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    sig = cplx.signature.symbol_signature()
    total = SymbolMatrix.zero(sig, part.size, part.size)
    for j in range(q):
        s = sigma(cplx, j)
        if variant == 0:
            down = sigma_mu(mu.mu0(j)) @ s
        else:
            down = s @ sigma_mu(mu.mu1(j + 1))
        total = total + block_inject(part, down, j + 1, j)
        total = total + block_inject(part, s.hermitian_transpose(), j, j + 1)
    return total


def stokes_dn_symbol(cplx: Complex, q: int, mu: MuSet | None = None) -> SymbolMatrix:
    """DN principal symbol of the Stokes operator:
    ``B_q delta_{q,mu} B_q + maxwell_symbol``."""
    part = BlockPartition.for_degree(cplx, q)
    total = block_inject(part, delta(cplx, q, mu), q, q)
    return total + maxwell_symbol(cplx, q, None, 0)


# ---------------------------------------------------------------------------
# Inversion and factorization


def invert_symbol(m: SymbolMatrix) -> RationalSymbolMatrix:
    """Adjugate/determinant inverse; exact, raises on identically singular input."""
    if m.rows != m.cols:
        raise ValueError("cannot invert a non-square symbol")
    det = m.body.determinant()
    if det.is_zero:
        raise ValueError("symbol is identically singular")
    adj = SymbolMatrix(m.signature, m.body.adjugate())
    return RationalSymbolMatrix(adj, det)


def symbolic_factorization_residual(cplx: Complex, q: int,
                                    mu: MuSet | None = None) -> SymbolMatrix:
    """Residual of the symbol-level Maxwell factorization

    sigma(M1) sigma(M0) = B_q sigma_{q-1} sigma(mu1_q) sigma_{q-1}^* B_q
                          + sum_{j<q} B_j delta_{j,mu} B_j.
    """
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    lhs = maxwell_symbol(cplx, q, mu, 1) @ maxwell_symbol(cplx, q, mu, 0)
    sig = cplx.signature.symbol_signature()
    rhs = SymbolMatrix.zero(sig, part.size, part.size)
    if q > 0:
        s = sigma(cplx, q - 1)
        top = s @ sigma_mu(mu.mu1(q)) @ s.hermitian_transpose()
        rhs = rhs + block_inject(part, top, q, q)
    for j in range(q):
        rhs = rhs + block_inject(part, delta(cplx, j, mu), j, j)
    return lhs - rhs


def verify_symbolic_factorization(cplx: Complex, q: int,
                                  mu: MuSet | None = None) -> dict:
    res = symbolic_factorization_residual(cplx, q, mu)
    return {"identity": "maxwell-symbol-factorization", "degree": q,
            "ok": res.is_zero}


def block_diagonal_inverse(cplx: Complex, degrees: Sequence[int],
                           mu_at: dict[int, MuSet] | None = None
                           ) -> RationalSymbolMatrix:
    """``sum_j B_j delta_j^{-1} B_j`` over the given degrees as one rational
    matrix over the common denominator (product of the determinants)."""
    part = BlockPartition.for_degree(cplx, max(degrees))
    sig = cplx.signature.symbol_signature()
    inverses = {}
    for j in degrees:
        mu = (mu_at or {}).get(j)
        inverses[j] = invert_symbol(delta(cplx, j, mu))
    den = Poly.one(sig.vars)
    for j in degrees:
        den = den * inverses[j].den
    num = SymbolMatrix.zero(sig, part.size, part.size)
    for j in degrees:
        cofactor = Poly.one(sig.vars)
        for i in degrees:
            if i != j:
                cofactor = cofactor * inverses[i].den
        num = num + block_inject(part, inverses[j].num.scale(cofactor), j, j)
    return RationalSymbolMatrix(num, den)


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
    mu_at = {j: mu for j in range(n + 1)} if mu is not None else None
    diag_inv = block_diagonal_inverse(cplx, list(range(n + 1)), mu_at)
    if side == "right":
        f = maxwell_symbol(cplx, n, mu, 0) @ diag_inv
        product = maxwell_symbol(cplx, n, mu, 1) @ f
    else:
        f = diag_inv @ maxwell_symbol(cplx, n, mu, 1)
        product = f @ maxwell_symbol(cplx, n, mu, 0)
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


def _check_stokes_hypotheses(cplx: Complex, q: int, mu: MuSet) -> None:
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
        if not (mu.mu0(j) == OperatorMatrix.identity(cplx.signature, cplx.rank(j + 1))
                and mu.mu1(j) == OperatorMatrix.identity(cplx.signature, cplx.rank(j - 1))):
            raise HypothesisFailure(
                "trivial-weights-below-q", f"weights at degree {j} are not the identity"
            )
    if q >= 2:
        s2 = sigma(cplx, q - 2).hermitian_transpose()
        s1 = sigma(cplx, q - 1).hermitian_transpose()
        if not (s2 @ sigma_mu(mu.mu1(q)) @ s1).is_zero:
            raise HypothesisFailure(
                "mu-mu", "sigma_{q-2}^* sigma(mu1_q) sigma_{q-1}^* does not vanish"
            )


def _n_symbol(cplx: Complex, q: int, mu: MuSet,
              q_inverse: RationalSymbolMatrix) -> RationalSymbolMatrix:
    """The correction matrix N built around an inverse for the degree-q block."""
    part = BlockPartition.for_degree(cplx, q)
    sq = sigma(cplx, q)
    sq1 = sigma(cplx, q - 1)
    mu0_sym = sigma_mu(mu.mu0(q))
    mu1_sym = sigma_mu(mu.mu1(q))
    core = q_inverse @ (sq.hermitian_transpose() @ mu0_sym @ sq)
    total = RationalSymbolMatrix(block_inject(part, core.num, q, q), core.den)
    total = total + block_inject(part, sq1, q, q - 1)
    total = total + block_inject(part, mu1_sym @ sq1.hermitian_transpose(), q - 1, q)
    total = total - block_inject(
        part, mu1_sym @ sq1.hermitian_transpose() @ sq1, q - 1, q - 1
    )
    return total


def stokes_fundamental_symbol(cplx: Complex, q: int, mu: MuSet
                              ) -> tuple[RationalSymbolMatrix, dict]:
    """Symbol of the right fundamental solution of the Stokes operator.

    Verifies both the intermediate identity

        S_dn (N + sigma(M_{q-1})) = B_q delta_{q,mu} B_q + sum_{j<q} B_j delta_j B_j

    and the full product ``S_dn . F = I`` in exact rational arithmetic.
    """
    _check_stokes_hypotheses(cplx, q, mu)
    part = BlockPartition.for_degree(cplx, q)
    delta_q_inv = invert_symbol(delta(cplx, q, mu))
    n_sym = _n_symbol(cplx, q, mu, delta_q_inv)
    m_lower = maxwell_symbol(cplx, q - 1, None, 0)
    lower_embedded = embed_trailing(m_lower, part.size)
    core = n_sym + lower_embedded

    s_dn = stokes_dn_symbol(cplx, q, mu)
    sig = cplx.signature.symbol_signature()
    rhs = block_inject(part, delta(cplx, q, mu), q, q)
    for j in range(q):
        rhs = rhs + block_inject(part, delta(cplx, j), j, j)
    intermediate_ok = (s_dn @ core) == RationalSymbolMatrix.from_symbol(rhs)

    diag_inv = block_diagonal_inverse(cplx, list(range(q + 1)), {q: mu})
    f = core @ diag_inv
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
    ``B_q (i tau + delta_{q,mu}) B_q + sigma(M_q)``; the degree-q inverse is
    the scalar rational ``1/(i tau + s)`` which requires delta_{q,mu} = s I.
    The verified identity is

        S_t (N_t + sigma(M_{q-1})) = B_q delta_{q,mu} B_q + sum_{j<q} B_j delta_j B_j.
    """
    _check_stokes_hypotheses(cplx, q, mu)
    d_q = delta(cplx, q, mu)
    scalar = d_q.scalar_part()
    if scalar is None:
        raise HypothesisFailure("scalar-delta", "delta_{q,mu} is not a scalar multiple of I")

    sig0 = cplx.signature.symbol_signature()
    sig = Signature(sig0.spatial, "tau", sig0.params)
    part = BlockPartition.for_degree(cplx, q)
    tau = Poly.variable(sig.vars, "tau")
    i_tau = tau.scale(GaussianRational.i())
    resolvent_den = i_tau + scalar.lift(sig.vars)

    def up(sym: SymbolMatrix) -> SymbolMatrix:
        return sym.lift(sig)

    sq = up(sigma(cplx, q))
    sq1 = up(sigma(cplx, q - 1))
    mu0_sym = up(sigma_mu(mu.mu0(q)))
    mu1_sym = up(sigma_mu(mu.mu1(q)))

    core = RationalSymbolMatrix(sq.hermitian_transpose() @ mu0_sym @ sq, resolvent_den)
    n_t = RationalSymbolMatrix(block_inject(part, core.num, q, q), core.den)
    n_t = n_t + block_inject(part, sq1, q, q - 1)
    n_t = n_t + block_inject(part, mu1_sym @ sq1.hermitian_transpose(), q - 1, q)
    last = mu1_sym @ sq1.hermitian_transpose() @ sq1 \
        + SymbolMatrix.identity(sig, part.ranks[q - 1]).scale(i_tau)
    n_t = n_t - block_inject(part, last, q - 1, q - 1)

    time_block = up(d_q) + SymbolMatrix.identity(sig, part.ranks[q]).scale(i_tau)
    s_t = block_inject(part, time_block, q, q) + up(maxwell_symbol(cplx, q, None, 0))

    core_total = n_t + embed_trailing(up(maxwell_symbol(cplx, q - 1, None, 0)), part.size)
    rhs = block_inject(part, up(d_q), q, q)
    for j in range(q):
        rhs = rhs + block_inject(part, up(delta(cplx, j)), j, j)
    ok = (s_t @ core_total) == RationalSymbolMatrix.from_symbol(rhs)
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
