"""Ellipticity checks and Douglis-Nirenberg weight computation.

Three check flavours (Petrovskii, injectivity, strong ellipticity) share the
same two-stage strategy: first attempt an exact symbolic certificate of the
narrow form ``gamma * (|zeta|^2)^k`` (optionally times the identity), and only
fall back to a deterministic numeric minimization over the unit sphere when the
certificate does not apply.  Numeric verdicts use a three-way threshold:
minimum > 1e-9 passes, a point below 1e-12 fails, anything between is
inconclusive.  The numeric search lives in :mod:`cxkit.sphere`, which is
imported only when a certificate fails, so certified checks do not load
numpy; no check loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from cxkit.blockops import BlockPartition
from cxkit.complexes import Complex, MuSet
from cxkit.diffop import OperatorMatrix, SymbolMatrix
from cxkit.poly import GaussianRational, Poly

PASS_THRESHOLD = 1e-9
FAIL_THRESHOLD = 1e-12
DEFAULT_BUDGET = 20_000
DEFAULT_SEED = 20240


# ---------------------------------------------------------------------------
# Reports and weight plans


@dataclass(frozen=True)
class EllipticityReport:
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
        if self.determinant is not None:
            out["determinant"] = self.determinant
        if self.certified_form is not None:
            out["certified_form"] = self.certified_form
        if self.minimum is not None:
            out["minimum"] = self.minimum
        if self.argmin is not None:
            out["argmin"] = list(self.argmin)
        if self.witness is not None:
            out["witness"] = list(self.witness)
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


def _zeta_norm_square(p: Poly, spatial: Sequence[str]) -> Poly:
    total = Poly.zero(p.vars)
    for v in spatial:
        z = Poly.variable(p.vars, v)
        total = total + z * z
    return total


def _certify_power(det: Poly, spatial: Sequence[str]) -> tuple[GaussianRational, int] | None:
    """If det == gamma * (|zeta|^2)^k for a nonzero constant gamma, return
    (gamma, k); else None."""
    if det.is_zero:
        return None
    r2 = _zeta_norm_square(det, spatial)
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


def _spatial_symbol_vars(sym: SymbolMatrix) -> tuple[list[str], list[str]]:
    """(sphere variables, parameter variables) for a symbol matrix."""
    sig = sym.signature
    sphere = list(sig.spatial)
    if sig.time is not None:
        sphere.append(sig.time)
    return sphere, list(sig.params)


def _numeric_verdict(minimum: float, argmin: tuple[float, ...], *, check: str,
                     determinant: str | None, seed: int, budget: int
                     ) -> EllipticityReport:
    if minimum > PASS_THRESHOLD:
        return EllipticityReport("numeric-pass", check, determinant=determinant,
                                 minimum=minimum, argmin=argmin,
                                 seed=seed, budget=budget)
    if minimum < FAIL_THRESHOLD:
        return EllipticityReport("fail", check, determinant=determinant,
                                 minimum=minimum, argmin=argmin, witness=argmin,
                                 seed=seed, budget=budget)
    return EllipticityReport("inconclusive", check, determinant=determinant,
                             minimum=minimum, argmin=argmin,
                             seed=seed, budget=budget)


# ---------------------------------------------------------------------------
# The three checks


def _petrovskii_on_symbol(sym: SymbolMatrix, *, check: str,
                          seed: int = DEFAULT_SEED,
                          budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    if sym.rows != sym.cols:
        raise ValueError("Petrovskii check needs a square symbol")
    det = sym.body.determinant()
    det_str = str(det)
    sphere_vars, param_vars = _spatial_symbol_vars(sym)
    if det.is_zero:
        witness = tuple(1.0 if i == 0 else 0.0 for i in range(len(sphere_vars)))
        return EllipticityReport("fail", check, determinant=det_str,
                                 minimum=0.0, witness=witness)
    cert = _certify_power(det, sphere_vars)
    if cert is not None:
        gamma, k = cert
        return EllipticityReport(
            "certified-symbolic", check, determinant=det_str,
            certified_form=f"({gamma})*(|zeta|^2)^{k}",
        )
    from cxkit import sphere
    minimum, argmin = sphere.abs_minimum(det, sphere_vars, param_vars,
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
    sphere_vars, param_vars = _spatial_symbol_vars(herm)
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
                witness = tuple(1.0 if i == 0 else 0.0
                                for i in range(len(sphere_vars)))
                return EllipticityReport("fail", "strong-ellipticity",
                                         certified_form=f"({gamma})*(|zeta|^2)^{k}*I",
                                         minimum=float(gamma.re),
                                         witness=witness)
    from cxkit import sphere
    minimum, argmin = sphere.eigenvalue_minimum(herm.body, sphere_vars,
                                                param_vars, seed=seed,
                                                budget=budget)
    return _numeric_verdict(minimum, argmin, check="strong-ellipticity",
                            determinant=None, seed=seed, budget=budget)


# ---------------------------------------------------------------------------
# Douglis-Nirenberg weights


def _complex_orders(cplx: Complex, mu: MuSet | None):
    mu = mu or MuSet.identity(cplx)
    m = [cplx.op(j).order() for j in range(cplx.length)]
    mtilde = [mu.orders(j)[0] // 2 for j in range(cplx.length + 1)]
    mhat = [mu.orders(j)[1] // 2 for j in range(cplx.length + 1)]
    return m, mtilde, mhat


def _shift_nonneg(s: list[int], t: list[int]) -> int:
    lowest = min(s + t)
    return -lowest if lowest < 0 else 0


def dn_weights_maxwell(cplx: Complex, mu: MuSet | None = None
                       ) -> tuple[WeightPlan, WeightPlan]:
    """Weight plans for both Maxwell variants, solved from the defining
    triangular system with the seeding t_1 = t_2 = 0."""
    n = cplx.length
    if n < 1:
        raise ValueError("need a complex of length at least 1")
    m, mtilde, mhat = _complex_orders(cplx, mu)

    plans = []
    for variant in (0, 1):
        s = [0] * (n + 1)
        t = [0] * (n + 1)
        # 1-indexed in the derivation; python lists are 0-indexed.
        if variant == 0:
            s[0] = m[n - 1] + mtilde[n - 1]   # s_1 = t_2 + m_{N-1} + mtilde_{N-1}
            s[1] = m[n - 1]                   # s_2 = t_1 + m_{N-1}
        else:
            s[0] = m[n - 1]                   # s_1 = t_2 + m_{N-1}
            s[1] = m[n - 1] + mhat[n - 1]     # s_2 = t_1 + m_{N-1} + mhat_{N-1}
        for j in range(2, n + 1):
            deg = n - j
            if variant == 0:
                t[j] = s[j - 1] - m[deg] - mtilde[deg]
                s[j] = m[deg] + t[j - 1]
            else:
                t[j] = s[j - 1] - m[deg]
                s[j] = m[deg] + mhat[deg] + t[j - 1]
        c = _shift_nonneg(s, t)
        plan = WeightPlan(tuple(v + c for v in s), tuple(v + c for v in t), c,
                          "maxwell")
        _assert_dn_p(plan, variant, m, mtilde, mhat)
        plans.append(plan)
    return plans[0], plans[1]


def _assert_dn_p(plan: WeightPlan, variant: int, m, mtilde, mhat) -> None:
    n = plan.size - 1
    s, t = plan.s, plan.t
    for j in range(1, n + 1):
        deg = n - j
        if variant == 0:
            assert s[j - 1] - t[j] == m[deg] + mtilde[deg], (j, "s_j - t_{j+1}")
            assert s[j] - t[j - 1] == m[deg], (j, "s_{j+1} - t_j")
        else:
            assert s[j] - t[j - 1] == m[deg] + mhat[deg], (j, "s_{j+1} - t_j")
            assert s[j - 1] - t[j] == m[deg], (j, "s_j - t_{j+1}")


def dn_weights_stokes(cplx: Complex, q: int, mu: MuSet | None = None) -> WeightPlan:
    """Weight plan for the Stokes operator at degree q, seeded with t_1 = 0 and
    s_1 = 2(m_q + mtilde_q)."""
    m, mtilde, mhat = _complex_orders(cplx, mu)
    if 0 < q < cplx.length and m[q] + mtilde[q] != m[q - 1] + mhat[q]:
        raise ValueError(
            f"order balance m_q + mtilde_q = m_(q-1) + mhat_q violated at q={q}"
        )
    s = [0] * (q + 1)
    t = [0] * (q + 1)
    s[0] = 2 * (m[q] + mtilde[q]) if q < cplx.length else 2 * (m[q - 1] + mhat[q])
    for j in range(1, q + 1):
        deg = q - j
        t[j] = s[j - 1] - m[deg]
        s[j] = m[deg] + t[j - 1]
    c = _shift_nonneg(s, t)
    plan = WeightPlan(tuple(v + c for v in s), tuple(v + c for v in t), c,
                      "stokes")
    for j in range(1, q + 1):
        deg = q - j
        assert plan.s[j - 1] - plan.t[j] == m[deg]
        assert plan.s[j] - plan.t[j - 1] == m[deg]
    return plan


# ---------------------------------------------------------------------------
# DN principal symbols


def dn_symbol(op: OperatorMatrix, part: BlockPartition, plan: WeightPlan
              ) -> SymbolMatrix:
    """The (s, t)-principal symbol: block (p, r) keeps the terms of spatial
    degree exactly s_p - t_r of the total symbol; zero when s_p < t_r."""
    blocks = len(part.ranks)
    if plan.size != blocks:
        raise ValueError(
            f"plan has {plan.size} blocks but the partition has {blocks}"
        )
    total = op.total_symbol()
    sig = total.signature
    spatial = list(sig.spatial)
    if sig.time is not None:
        spatial.append(sig.time)
    # block index p (from the top) corresponds to descending degree.
    degrees = sorted(range(blocks), reverse=True)
    n = part.size
    out = SymbolMatrix.zero(sig, n, n)
    for p, row_deg in enumerate(degrees):
        for r, col_deg in enumerate(degrees):
            target = plan.s[p] - plan.t[r]
            if target < 0:
                continue
            r0, r1 = part.span(row_deg)
            c0, c1 = part.span(col_deg)
            blk = total.body.block(r0, r1, c0, c1).map(
                lambda entry: entry.homogeneous_part(target, spatial))
            out = out + SymbolMatrix(sig, blk.embed(n, n, r0, c0))
    return out


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
