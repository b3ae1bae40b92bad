"""Ellipticity checks and Douglis-Nirenberg weight computation.

Four check flavours (Petrovskii, injectivity, strong ellipticity and
Douglis-Nirenberg) reach their verdicts through one route, ``_verdict``, on
one target H, the 1x1 [det sigma] or the strong check's Hermitian part, in
this order: a zero determinant fails at once; one exact certificate
prod_k (H - c_k (|zeta|^2)^k I) = 0, whose one root is gamma * (|zeta|^2)^k
(times I for a Hermitian part) and several a spectrum; then, once the seed
and budget are checked, the closed form of a homogeneous real quadratic
scalar target (parameters held at 1.0), whose extreme values on the unit
sphere are the extreme eigenvalues of its matrix (Rayleigh-Ritz), or of the
root q of a scalar injectivity check's |q|^2, squared; and only otherwise
the deterministic sphere search (Sobol scan and Nelder-Mead polish).
Numeric verdicts use a three-way threshold: minimum > 1e-9 passes, a point
below 1e-12 fails, anything between is inconclusive.  Both numeric routes
live in :mod:`cxkit.sphere`, which is imported only then, so certified
checks do not load numpy; no check loads scipy.  The Douglis-Nirenberg
weights of the Maxwell and Stokes operators come from one recurrence
(``_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Sequence

from cxkit.complexes import Complex, MuSet
from cxkit.diffop import OperatorMatrix, SymbolMatrix
from cxkit.poly import GaussianRational, Poly, PolyMatrix, _matrix

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

    @property
    def ok(self) -> bool:
        return self.verdict in ("certified-symbolic", "numeric-pass")

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "check": self.check,
            "thresholds": {"pass": PASS_THRESHOLD, "fail": FAIL_THRESHOLD},
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


@lru_cache(maxsize=32)
def _radius_power(vars: tuple[str, ...], spatial: tuple[str, ...], k: int) -> Poly:
    """(|zeta|^2)^k over ``vars``, |zeta|^2 the sum of the squares of the
    ``spatial`` variables: built on the first request and kept."""
    r2 = sum((Poly.variable(vars, v) ** 2 for v in spatial), Poly.zero(vars))
    return r2 ** k


def _spectrum(h: PolyMatrix, spatial: Sequence[str]
              ) -> tuple[list[GaussianRational], int] | None:
    """The distinct c_k, ascending, and k with prod_k (H - c_k (|zeta|^2)^k I)
    == 0 exactly for H = ``h``; else None.  Then every eigenvalue of H(zeta)
    is some c_k |zeta|^2k (Cayley-Hamilton with the minimal polynomial), and
    each c_k is one at the first axis e_1: the candidates are the diagonal
    of H(e_1), the coefficients of zeta_1^2k (the constant terms when
    ``spatial`` is empty), read when H(e_1) is diagonal.  One root c is the
    certificate H = c (|zeta|^2)^k I, of a 1x1 H = [det] too."""
    degree = h.total_degree(spatial)
    if degree % 2:  # -1 for H = 0
        return None
    axis = [degree if spatial and v == spatial[0] else 0 for v in h.vars]
    roots = []
    for i, row in enumerate(h.entries):
        for j, p in enumerate(row):
            c = p.coefficient(axis)
            if i != j:
                if not c.is_zero:
                    return None
            elif c not in roots:
                roots.append(c)
    roots.sort(key=lambda c: (c.re, c.im))
    return (roots, degree // 2) if _annihilates(h, spatial, roots, degree // 2) else None


def _annihilates(h: PolyMatrix, spatial: Sequence[str],
                 roots: Sequence[GaussianRational], k: int) -> bool:
    """Whether prod_k (H - c_k (|zeta|^2)^k I) == 0 exactly for H = ``h``
    and the c_k in ``roots``: the check of a certificate, for one root the
    comparison H == c (|zeta|^2)^k I; no root leaves the identity."""
    power = _radius_power(h.vars, tuple(spatial), k)
    scalars = [PolyMatrix.identity(h.vars, h.rows, power.scale(c)) for c in roots]
    if len(scalars) == 1:
        return h == scalars[0]
    return bool(scalars) and reduce(PolyMatrix.__matmul__, (h - s for s in scalars)).is_zero


def _axis(sphere_vars: Sequence[str]) -> tuple[float, ...]:
    """The first unit vector: the witness of a failure at every point."""
    return tuple(1.0 if i == 0 else 0.0 for i in range(len(sphere_vars)))


def _verdict(check: str, sym: SymbolMatrix, *, hermitian: bool = False,
             root: Poly | None = None, seed: int, budget: int) -> EllipticityReport:
    """The one route to every check's verdict, on one target H: the 1x1
    [det ``sym``], or with ``hermitian`` ``sym`` as a Hermitian part.  In
    order: a zero determinant fails at the axis; the certificate of
    ``_spectrum``, one root gamma * (|zeta|^2)^k (times I for a Hermitian
    part) or several, a spectrum, certifies a determinant, and a Hermitian
    part when its least root is positive, else fails with that root as
    minimum at the axis, where it is an eigenvalue (a Hermitian part's roots
    are real: each diagonal entry of (s + s^H) / 2 has real coefficients).
    Then ``sphere`` is imported, the seed and budget are checked, and H's
    scalar part when it is a real quadratic form, or else a real quadratic
    ``root`` q of the scalar target |q|^2 (its minimum squared), takes the
    closed form; any other target the sphere search, whose report alone
    carries its seed and budget."""
    sphere_vars = sym.signature.derivative_vars
    determinant, h = None, sym.body
    if not hermitian:
        det = sym.body.determinant()
        determinant = str(det)
        if det.is_zero:
            return EllipticityReport("fail", check, determinant=determinant,
                                     minimum=0.0, witness=_axis(sphere_vars))
        h = _matrix(det.vars, ((det,),), 1, 1)
    if (spectrum := _spectrum(h, sphere_vars)) is not None:
        roots, k = spectrum
        shown = ", ".join(f"({c})*(|zeta|^2)^{k}" for c in roots)
        shown = f"spectrum {shown}" if len(roots) > 1 else shown + ("*I" if hermitian else "")
        if not hermitian or roots[0].re > 0:
            return EllipticityReport("certified-symbolic", check,
                                     determinant=determinant, certified_form=shown)
        return EllipticityReport("fail", check, certified_form=shown,
                                 minimum=float(roots[0].re), witness=_axis(sphere_vars))
    from cxkit import sphere
    sphere.check_search(len(sphere_vars), seed, budget)
    form = sym.scalar_part() if hermitian else det
    closed = None if form is None else sphere.quadratic_minimum(
        form, sphere_vars, absolute=not hermitian)
    if closed is None and root is not None:
        closed = sphere.quadratic_minimum(root, sphere_vars, absolute=True)
        closed = None if closed is None else (closed[0] ** 2, closed[1])
    if closed is None:
        search, target = ((sphere.eigenvalue_minimum, sym.body) if hermitian
                          else (sphere.abs_minimum, form))
        minimum, argmin = search(target, sphere_vars, sym.signature.params,
                                 seed=seed, budget=budget)
        sampled = {"seed": seed, "budget": budget}
    else:
        (minimum, argmin), sampled = closed, {}
    verdict = ("numeric-pass" if minimum > PASS_THRESHOLD
               else "fail" if minimum < FAIL_THRESHOLD else "inconclusive")
    return EllipticityReport(verdict, check, determinant=determinant,
                             minimum=minimum, argmin=argmin,
                             witness=argmin if verdict == "fail" else None, **sampled)


# ---------------------------------------------------------------------------
# The checks


def petrovskii_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                     budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Invertibility of the principal symbol away from zero."""
    if op.rows != op.cols:
        raise ValueError("Petrovskii check needs a square operator")
    return _verdict("petrovskii", op.principal_symbol(), seed=seed, budget=budget)


def injectivity_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                      budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Injectivity of the principal symbol: Petrovskii check of sigma^H sigma,
    whose 1x1 sigma = [q] is passed on as the root of |q|^2."""
    if op.rows < op.cols:
        raise ValueError("injectivity check needs rows >= cols")
    s = op.principal_symbol()
    root = s[0, 0] if (s.rows, s.cols) == (1, 1) else None
    return _verdict("injectivity", s.hermitian_transpose() @ s, root=root,
                    seed=seed, budget=budget)


def strong_ellipticity_check(op: OperatorMatrix, *, seed: int = DEFAULT_SEED,
                             budget: int = DEFAULT_BUDGET) -> EllipticityReport:
    """Positivity of the Hermitian part of the principal symbol on the sphere."""
    if op.rows != op.cols:
        raise ValueError("strong ellipticity check needs a square operator")
    if op.is_zero:
        raise ValueError("strong ellipticity check is undefined for the zero operator")
    if op.order() % 2 != 0:
        raise ValueError("strong ellipticity check needs an even-order operator")
    s = op.principal_symbol()
    herm = (s + s.hermitian_transpose()).scale(Fraction(1, 2))
    return _verdict("strong-ellipticity", herm, hermitian=True, seed=seed, budget=budget)


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


def dn_check(op: OperatorMatrix, part: BlockPartition, plan: WeightPlan) -> EllipticityReport:
    """Douglis-Nirenberg ellipticity: Petrovskii check of the DN symbol."""
    return _verdict("douglis-nirenberg", dn_symbol(op, part, plan),
                    seed=DEFAULT_SEED, budget=DEFAULT_BUDGET)


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
