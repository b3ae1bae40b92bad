"""Ellipticity checks and Douglis-Nirenberg weight computation.

Four check flavours (Petrovskii, injectivity, strong ellipticity and
Douglis-Nirenberg) share the same two-stage strategy: first attempt an exact
symbolic certificate of the narrow form ``gamma * (|zeta|^2)^k`` (optionally
times the identity), and only fall back to a deterministic numeric
minimization over the unit sphere when the certificate does not apply.
Numeric verdicts use a three-way threshold: minimum > 1e-9 passes, a point
below 1e-12 fails, anything between is inconclusive.  The numeric search
lives in :mod:`cxkit.sphere`, which is imported only when a certificate
fails, so certified checks do not load numpy; no check loads scipy.  The
Douglis-Nirenberg weights of the Maxwell and Stokes operators come from one
recurrence (``_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from cxkit.complexes import Complex, MuSet
from cxkit.diffop import OperatorMatrix, SymbolMatrix
from cxkit.poly import GaussianRational, Poly

if TYPE_CHECKING:  # annotations only: the checks need no block builders
    from cxkit.blockops import BlockPartition

PASS_THRESHOLD = 1e-9
FAIL_THRESHOLD = 1e-12
DEFAULT_BUDGET = 20_000
DEFAULT_SEED = 20240


# ---------------------------------------------------------------------------
# Reports and weight plans


@dataclass(frozen=True)
class EllipticityReport:
    """The verdict of one check and the evidence behind it.

    It and :class:`WeightPlan` stay dataclasses, unlike the package's other
    value types (:mod:`cxkit._record`): the benchmark's self-tests build
    corrupted reports with ``dataclasses.replace``.  Only the commands that
    import this module pay for ``dataclasses``.
    """

    verdict: str  # certified-symbolic | numeric-pass | fail | inconclusive
    check: str
    determinant: str | None = None
    certified_form: str | None = None
    minimum: float | None = None
    argmin: tuple[float, ...] | None = None
    witness: tuple[float, ...] | None = None
    seed: int | None = None
    budget: int | None = None
    thresholds: tuple[float, float] = (PASS_THRESHOLD, FAIL_THRESHOLD)

    @property
    def ok(self) -> bool:
        return self.verdict in ("certified-symbolic", "numeric-pass")

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "check": self.check,
            "thresholds": {"pass": self.thresholds[0], "fail": self.thresholds[1]},
        }
        for key in ("determinant", "certified_form", "minimum", "argmin", "witness"):
            value = getattr(self, key)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        if self.seed is not None:
            out["seed"] = self.seed
            out["budget"] = self.budget
        return out


@dataclass(frozen=True)
class WeightPlan:
    s: tuple[int, ...]
    t: tuple[int, ...]
    shift: int
    scheme: str  # "maxwell" | "stokes"

    def __post_init__(self):
        if len(self.s) != len(self.t):
            raise ValueError("weight vectors must have equal length")
        if any(v < 0 for v in self.s + self.t):
            raise ValueError("weights must be non-negative after the shift")

    @property
    def size(self) -> int:
        return len(self.s)

    def to_json(self) -> dict:
        return {"s": list(self.s), "t": list(self.t),
                "shift": self.shift, "scheme": self.scheme}


# ---------------------------------------------------------------------------
# Symbolic certification helpers


def _certify_power(det: Poly, spatial: Sequence[str]) -> tuple[GaussianRational, int] | None:
    """If det == gamma * (|zeta|^2)^k for a nonzero constant gamma, return
    (gamma, k); else None."""
    if det.is_zero:
        return None
    r2 = Poly.zero(det.vars)
    for v in spatial:
        z = Poly.variable(det.vars, v)
        r2 = r2 + z * z
    current = det
    k = 0
    while True:
        if current.total_degree(spatial) == 0:
            if current.is_constant:
                return current.constant_value(), k
            return None  # depends on parameters only: not certified
        try:
            current = current.exact_div(r2)
        except ValueError:
            return None
        k += 1


def _axis(sphere_vars: Sequence[str]) -> tuple[float, ...]:
    """The first unit vector: the witness of a failure at every point."""
    return tuple(1.0 if i == 0 else 0.0 for i in range(len(sphere_vars)))


def _numeric_verdict(minimum: float, argmin: tuple[float, ...], *, check: str,
                     determinant: str | None, seed: int, budget: int
                     ) -> EllipticityReport:
    verdict = ("numeric-pass" if minimum > PASS_THRESHOLD
               else "fail" if minimum < FAIL_THRESHOLD else "inconclusive")
    return EllipticityReport(verdict, check, determinant=determinant,
                             minimum=minimum, argmin=argmin,
                             witness=argmin if verdict == "fail" else None,
                             seed=seed, budget=budget)


# ---------------------------------------------------------------------------
# The checks


def _petrovskii_on_symbol(sym: SymbolMatrix, *, check: str,
                          seed: int = DEFAULT_SEED,
                          budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    if sym.rows != sym.cols:
        raise ValueError("Petrovskii check needs a square symbol")
    det = sym.body.determinant()
    det_str = str(det)
    sphere_vars = sym.signature.derivative_vars
    if det.is_zero:
        return EllipticityReport("fail", check, determinant=det_str,
                                 minimum=0.0, witness=_axis(sphere_vars))
    cert = _certify_power(det, sphere_vars)
    if cert is not None:
        gamma, k = cert
        return EllipticityReport(
            "certified-symbolic", check, determinant=det_str,
            certified_form=f"({gamma})*(|zeta|^2)^{k}",
        )
    from cxkit import sphere
    minimum, argmin = sphere.abs_minimum(det, sphere_vars, sym.signature.params,
                                         seed=seed, budget=budget)
    return _numeric_verdict(minimum, argmin, check=check, determinant=det_str,
                            seed=seed, budget=budget)


def petrovskii_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                     budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Invertibility of the principal symbol away from zero."""
    if op.rows != op.cols:
        raise ValueError("Petrovskii check needs a square operator")
    return _petrovskii_on_symbol(op.principal_symbol(), check="petrovskii",
                                 seed=seed, budget=budget)


def injectivity_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                      budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Injectivity of the principal symbol: Petrovskii check of sigma^H sigma."""
    if op.rows < op.cols:
        raise ValueError("injectivity check needs rows >= cols")
    s = op.principal_symbol()
    gram = s.hermitian_transpose() @ s
    return _petrovskii_on_symbol(gram, check="injectivity", seed=seed,
                                 budget=budget)


def strong_ellipticity_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                             budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Positivity of the Hermitian part of the principal symbol on the sphere."""
    if op.rows != op.cols:
        raise ValueError("strong ellipticity check needs a square operator")
    if op.order() % 2 != 0:
        raise ValueError("strong ellipticity check needs an even-order operator")
    s = op.principal_symbol()
    herm = (s + s.hermitian_transpose()).scale(GaussianRational.of(1, 0) / GaussianRational.of(2, 0))
    sphere_vars = herm.signature.derivative_vars
    scalar = herm.scalar_part()
    if scalar is not None:
        cert = _certify_power(scalar, sphere_vars)
        if cert is not None:
            gamma, k = cert
            if gamma.is_real and gamma.re > 0:
                return EllipticityReport(
                    "certified-symbolic", "strong-ellipticity",
                    certified_form=f"({gamma})*(|zeta|^2)^{k}*I",
                )
            if gamma.is_real and gamma.re < 0:
                return EllipticityReport("fail", "strong-ellipticity",
                                         certified_form=f"({gamma})*(|zeta|^2)^{k}*I",
                                         minimum=float(gamma.re),
                                         witness=_axis(sphere_vars))
    from cxkit import sphere
    minimum, argmin = sphere.eigenvalue_minimum(herm.body, sphere_vars,
                                                herm.signature.params,
                                                seed=seed, budget=budget)
    return _numeric_verdict(minimum, argmin, check="strong-ellipticity",
                            determinant=None, seed=seed, budget=budget)


# ---------------------------------------------------------------------------
# Douglis-Nirenberg weights


def _plan(m: Sequence[int], down: Sequence[int], up: Sequence[int], top: int,
          s0: int, scheme: str) -> WeightPlan:
    """The weights solving, for j = 1..top at degree top - j,

        s_j - t_{j+1} = m + down,    s_{j+1} - t_j = m + up

    from t_1 = 0 and s_1 = s0, shifted by the least constant that makes them
    non-negative; both relations are checked on the shifted plan."""
    s, t = [s0], [0]
    for j in range(1, top + 1):
        deg = top - j
        t.append(s[j - 1] - m[deg] - down[deg])
        s.append(m[deg] + up[deg] + t[j - 1])
    c = max(0, -min(s + t))
    plan = WeightPlan(tuple(v + c for v in s), tuple(v + c for v in t), c, scheme)
    for j in range(1, top + 1):
        deg = top - j
        assert plan.s[j - 1] - plan.t[j] == m[deg] + down[deg], (j, "s_j - t_{j+1}")
        assert plan.s[j] - plan.t[j - 1] == m[deg] + up[deg], (j, "s_{j+1} - t_j")
    return plan


def dn_weights_maxwell(cplx: Complex, mu: MuSet | None = None
                       ) -> tuple[WeightPlan, WeightPlan]:
    """Weight plans for both Maxwell variants, solved from the defining
    triangular system with the seeding t_1 = t_2 = 0: variant 0 puts
    mtilde on s_j - t_{j+1}, variant 1 puts mhat on s_{j+1} - t_j."""
    n = cplx.length
    if n < 1:
        raise ValueError("need a complex of length at least 1")
    mu = mu or MuSet.identity(cplx)
    m = [cplx.op(j).order() for j in range(n)]
    mtilde, mhat = zip(*map(mu.orders, range(n + 1)))
    zero = [0] * (n + 1)
    # s_1 = m_{N-1} + down_{N-1} makes the first step give t_2 = 0
    return (_plan(m, mtilde, zero, n, mu.delta_half_order(n - 1), "maxwell"),
            _plan(m, zero, mhat, n, m[n - 1], "maxwell"))


def dn_weights_stokes(cplx: Complex, q: int, mu: MuSet | None = None) -> WeightPlan:
    """Weight plan for the Stokes operator at degree q, seeded with t_1 = 0 and
    s_1 = 2(m_q + mtilde_q) (2(m_{N-1} + mhat_N) at the top degree)."""
    cplx.check_degree(q)
    mu = mu or MuSet.identity(cplx)
    half = mu.delta_half_order(q)
    if 0 < q < cplx.length and half != cplx.op(q - 1).order() + mu.orders(q)[1]:
        raise ValueError(
            f"order balance m_q + mtilde_q = m_(q-1) + mhat_q violated at q={q}"
        )
    zero = [0] * q
    return _plan([cplx.op(j).order() for j in range(q)], zero, zero, q, 2 * half, "stokes")


# ---------------------------------------------------------------------------
# DN principal symbols


def dn_symbol(op: OperatorMatrix, part: BlockPartition, plan: WeightPlan
              ) -> SymbolMatrix:
    """The (s, t)-principal symbol: entry (i, j) keeps the terms of degree
    exactly s_i - t_j of the total symbol (zero when s_i < t_j), with row i
    and column j weighted as their degree block, the top degree first."""
    if plan.size != len(part.ranks):
        raise ValueError(f"plan has {plan.size} blocks but the partition has {len(part.ranks)}")
    if (op.rows, op.cols) != (part.size, part.size):
        raise ValueError(f"a {op.rows}x{op.cols} operator does not fit partition size {part.size}")
    ranks = tuple(reversed(part.ranks))
    s = [w for w, k in zip(plan.s, ranks) for _ in range(k)]
    t = [w for w, k in zip(plan.t, ranks) for _ in range(k)]
    return op.total_symbol(degrees=[[si - tj for tj in t] for si in s])


def dn_check(op: OperatorMatrix, part: BlockPartition, plan: WeightPlan, *,
             seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET
             ) -> EllipticityReport:
    """Douglis-Nirenberg ellipticity: Petrovskii check of the DN symbol."""
    sym = dn_symbol(op, part, plan)
    return _petrovskii_on_symbol(sym, check="douglis-nirenberg", seed=seed,
                                 budget=budget)


__all__ = [
    "EllipticityReport",
    "WeightPlan",
    "PASS_THRESHOLD",
    "FAIL_THRESHOLD",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "petrovskii_check",
    "injectivity_check",
    "strong_ellipticity_check",
    "dn_weights_maxwell",
    "dn_weights_stokes",
    "dn_symbol",
    "dn_check",
]
