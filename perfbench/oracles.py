"""Output checks that do not follow cxkit's exact path.

Exact results are checked numerically: polynomials are read back from
cxkit's printed form and evaluated in floating point at seeded points on the
unit sphere, then compared with ``numpy.linalg.det`` / ``inv`` of the
operator's principal symbol evaluated at the same points.  Numeric minima
are compared with closed forms (``numpy.linalg.eigvalsh`` for quadratic
forms, ``min(mu, lam + 2 mu)`` for Lame systems).  The fixture bundle is
compared with a reference captured from the command line.

Every check returns ``(ok, info)``; ``info`` says what was wrong, or carries
measured quantities such as the minimum's error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

# Relative tolerance of a floating-point evaluation of an exact identity.
IDENTITY_TOL = 1e-7
# Numeric minima: |minimum - oracle| <= MINIMUM_TOL * max(1, |oracle|).
MINIMUM_TOL = 1e-6
# A minimum this far above zero must pass; at or below the library's pass
# threshold (1e-9) it must not.
CLEAR_PASS = 1e-6
PASS_THRESHOLD = 1e-9
# Floats of the fixture bundle: |got - ref| <= FLOAT_TOL * max(1, |ref|).
FLOAT_TOL = 1e-9
# Keys of the bundle whose value is a point where a minimum is attained; any
# minimiser is valid, so these are checked as unit vectors.
POINT_KEYS = ("argmin", "witness")

_TERM_SPLIT = re.compile(r" ([+-]) ")
_CHUNK = 200


# ---------------------------------------------------------------------------
# Reading printed polynomials back


def eval_poly(text: str, env: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate cxkit's printed form of a polynomial (``a/b*z1^2 - i*z2 +
    (1/2+3/4*i)*z3``) at the points in ``env`` (name -> values)."""
    parts = _TERM_SPLIT.split(text.replace("^", "**"))
    terms = [parts[0]] + [f"{sign}{term}" for sign, term in zip(parts[1::2], parts[2::2])]
    scope = {"__builtins__": {}, "i": 1j, **env}
    total = 0j
    for k in range(0, len(terms), _CHUNK):
        total = total + eval("(" + ")+(".join(terms[k:k + _CHUNK]) + ")", scope)  # noqa: S307
    return np.broadcast_to(np.asarray(total, dtype=complex), _shape(env))


def _shape(env) -> tuple:
    for v in env.values():
        return np.shape(v)
    return ()


def unit_points(seed: int, names, count: int = 4) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, len(names)))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return {name: pts[:, k] for k, name in enumerate(names)}


def eval_matrix(entries, env) -> np.ndarray:
    """(points, rows, cols) values of a matrix of printed polynomials."""
    rows = [[eval_poly(str(e), env) for e in row] for row in entries]
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (1, 2))


def symbol_entries(sym) -> list[list[str]]:
    return [[str(p) for p in row] for row in sym.body.entries]


def _close(a: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    scale = max(1.0, float(np.max(np.abs(b))))
    err = float(np.max(np.abs(a - b))) / scale
    return err <= IDENTITY_TOL, err


def _parse_certificate(form: str) -> tuple[complex, int]:
    """``(gamma)*(|zeta|^2)^k`` (optionally ``*I``) -> (gamma, k)."""
    m = re.fullmatch(r"\((.*)\)\*\(\|zeta\|\^2\)\^(\d+)(\*I)?", form)
    if m is None:
        raise ValueError(f"unreadable certificate {form!r}")
    return complex(eval_poly(m.group(1), {})), int(m.group(2))


# ---------------------------------------------------------------------------
# exact-symbols


def check_petrovskii(output, symbol, seed: int):
    """Certified Maxwell block: the printed determinant, numpy's determinant
    of the evaluated symbol and the certificate gamma |zeta|^(2k) agree."""
    report = output["report"]
    if not output["factorization"]:
        return False, "Maxwell factorization check failed"
    if report.verdict != "certified-symbolic":
        return False, f"verdict {report.verdict}, expected certified-symbolic"
    names = list(symbol.signature.spatial)
    env = unit_points(seed, names)
    det_np = np.linalg.det(eval_matrix(symbol_entries(symbol), env))
    ok1, err1 = _close(eval_poly(report.determinant, env), det_np)
    gamma, k = _parse_certificate(report.certified_form)
    r2 = sum(env[v] ** 2 for v in names)
    ok2, err2 = _close(gamma * r2 ** k, det_np)
    if not (ok1 and ok2):
        return False, f"determinant mismatch (rel err {err1:.2e}, certificate {err2:.2e})"
    return True, {}


def check_inverse(num_entries, den_text: str, target, seed: int, names):
    """``num / den`` evaluated at seeded points equals numpy's inverse of
    the evaluated ``target`` symbol."""
    env = unit_points(seed, names)
    f = eval_matrix(num_entries, env) / eval_poly(den_text, env)[:, None, None]
    inv = np.linalg.inv(eval_matrix(symbol_entries(target), env))
    ok, err = _close(f, inv)
    if f.shape != inv.shape or not ok:
        return False, f"not the inverse (rel err {err:.2e})"
    return True, {}


def check_parametrix(f, target, seed: int):
    return check_inverse(symbol_entries(f.num), str(f.den), target, seed,
                         list(target.signature.spatial))


def check_stokes(output, target, seed: int):
    f, report = output
    if not report["ok"]:
        return False, f"library identity check failed: {report}"
    return check_parametrix(f, target, seed)


# ---------------------------------------------------------------------------
# numeric-ellipticity


def quadratic_minimum(a, check: str) -> float:
    """Minimum over the unit sphere that each check reports for the symbol
    ``zeta^T a zeta``: |q| (Petrovskii), q^2 (injectivity), q (strong)."""
    ev = np.linalg.eigvalsh(np.array(a, dtype=float))
    lo, hi = float(ev[0]), float(ev[-1])
    definite = lo > 0 or hi < 0
    if check == "strong":
        return lo
    smallest = min(abs(lo), abs(hi)) if definite else 0.0
    return smallest ** 2 if check == "injectivity" else smallest


def lame_minimum(lam: Fraction, mu: Fraction) -> float:
    """Smallest eigenvalue of mu |zeta|^2 I + (lam + mu) zeta zeta^T on the sphere."""
    return float(min(mu, lam + 2 * mu))


def lame_certificate(n: int, lam: Fraction, mu: Fraction, check: str) -> tuple[Fraction, int]:
    """det of the Lame symbol (Petrovskii) or of its square (injectivity)."""
    gamma = mu ** (n - 1) * (lam + 2 * mu)
    return (gamma, n) if check == "petrovskii" else (gamma ** 2, 2 * n)


def check_minimum(report, expected: float, certificate=None):
    """A numeric report against its closed-form minimum; ``info`` carries the
    absolute error of the minimum."""
    if report.verdict == "certified-symbolic":
        if certificate is None:
            if expected > CLEAR_PASS:
                return True, {"minimum_err": 0.0}
            return False, "certified an input that is not elliptic"
        m = re.fullmatch(r"\((.*)\)\*\(\|zeta\|\^2\)\^(\d+)(\*I)?", report.certified_form or "")
        if m is None or (Fraction(m.group(1)), int(m.group(2))) != certificate:
            return False, f"certificate {report.certified_form}, expected {certificate}"
        return True, {"minimum_err": 0.0}
    if certificate is not None:
        return False, f"verdict {report.verdict}, expected a certificate {certificate}"
    if report.minimum is None:
        return False, f"verdict {report.verdict} without a minimum"
    err = abs(report.minimum - expected)
    if err > MINIMUM_TOL * max(1.0, abs(expected)):
        return False, f"minimum {report.minimum}, oracle {expected}"
    if expected > CLEAR_PASS and report.verdict != "numeric-pass":
        return False, f"verdict {report.verdict} for an elliptic input"
    if expected <= PASS_THRESHOLD and report.verdict == "numeric-pass":
        return False, "numeric-pass for a non-elliptic input"
    return True, {"minimum_err": err}


# ---------------------------------------------------------------------------
# syzygy


def generic_rank(op, seed: int) -> int:
    """Rank of an operator matrix at a seeded point, in floating point."""
    env = unit_points(seed, list(op.signature.vars), count=1)
    m = eval_matrix([[op[i, j] for j in range(op.cols)] for i in range(op.rows)], env)[0]
    return int(np.linalg.matrix_rank(m, tol=1e-9 * max(1.0, float(np.max(np.abs(m))))))


def check_compat(output, undone, known, seed: int):
    """B A = 0 exactly; B, mapped back to the original rows, has the known
    operator's rank at a seeded point; and cxkit finds the two
    module-equivalent."""
    a, b = output["a"], output["b"]
    if b.rows == 0:
        return False, "empty compatibility operator"
    if not (b @ a).is_zero:
        return False, "B A != 0"
    if generic_rank(undone, seed) != generic_rank(known, seed):
        return False, "rank differs from the known operator's"
    if not output["equivalent"]:
        return False, "not module-equivalent to the known operator"
    return True, {}


def check_extend(ops):
    for k in range(len(ops) - 1):
        if not (ops[k + 1] @ ops[k]).is_zero:
            return False, f"composition {k} is not zero"
    return True, {"ranks": [ops[0].cols] + [o.rows for o in ops]}


# ---------------------------------------------------------------------------
# corpus


def compare_bundle(got, ref, path: str = "$") -> list[str]:
    """Differences between two fixture bundles: exact fields must be equal,
    floats within FLOAT_TOL, minimiser points unit vectors."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for key in ref:
            if key in POINT_KEYS:
                v = got[key]
                if (not isinstance(v, list) or len(v) != len(ref[key])
                        or abs(float(np.linalg.norm(v)) - 1.0) > 1e-6):
                    out.append(f"{path}.{key}: not a unit vector of length {len(ref[key])}")
            else:
                out.extend(compare_bundle(got[key], ref[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: lengths differ"]
        out = []
        for k, (g, r) in enumerate(zip(got, ref)):
            out.extend(compare_bundle(g, r, f"{path}[{k}]"))
        return out
    if isinstance(ref, float) and type(got) in (int, float):
        if abs(got - ref) > FLOAT_TOL * max(1.0, abs(ref)):
            return [f"{path}: {got} != {ref}"]
        return []
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def check_cli(task: dict, returncode: int, stdout: bytes, ctx: dict):
    """Check one CLI command of the corpus workload."""
    if returncode != 0:
        return False, f"exit status {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, "output is not JSON"
    kind = task["kind"]
    if kind == "fixtures":
        diffs = compare_bundle(report, ctx["fixtures_ref"])
        identical = stdout == ctx["fixtures_ref_bytes"]
        if diffs:
            return False, "; ".join(diffs[:5])
        return True, {"bytes_identical": identical}
    if not report.get("ok"):
        return False, f"report not ok: {report.get('error')}"
    if kind == "verify":
        (entry,) = report["complexes"]
        comps = [(c["degree"], c["ok"]) for c in entry["compositions"]]
        coh = [(c["degree"], c["ok"]) for c in entry.get("coherence", [])]
        if comps != [(0, True), (1, True)] or coh != [(0, True), (1, True)]:
            return False, f"verify report {comps} {coh}"
        return True, {}
    if kind == "parametrix":
        sym = report["symbol"]
        target = ctx["parametrix_target"](task)
        return check_inverse(sym["numerator"], sym["denominator"], target,
                             ctx["seed"], list(target.signature.spatial))
    rep = report["report"]
    expected = quadratic_minimum(task["matrix"], task["check"])
    if rep["verdict"] != "numeric-pass" or "minimum" not in rep:
        return False, f"verdict {rep['verdict']} for a positive definite form"
    err = abs(rep["minimum"] - expected)
    if err > MINIMUM_TOL * max(1.0, expected):
        return False, f"minimum {rep['minimum']}, oracle {expected}"
    return True, {"minimum_err": err}
