"""Seeded inputs and tasks of the four benchmark workloads.

``make_inputs(workload, seed)`` returns plain data (JSON-able) and imports no
cxkit code, so the self-tests can compare inputs without running anything.
``run_task`` turns one input task into cxkit calls and returns its output;
building the complex or operator is part of the task.

Why each workload exists:

- corpus: what users type.  ``cxkit fixtures`` plus seeded spec files for
  ``verify``, ``parametrix`` and ``ellipticity``, each a fresh subprocess, so
  interpreter start-up (cli) and spec parsing (dsl) carry weight.
- exact-symbols: big exact determinants and rational symbol algebra (poly,
  symbols, blockops) with seeded scalar weights; no sphere sampling and no
  Groebner work.  The de Rham(4) Petrovskii check (16x16, ~10 s) and the
  de Rham(4) q=2 Stokes symbol (~65 s) are left out: too long to repeat.
- numeric-ellipticity: quadratic forms and strong Lame checks go through
  sampling (Sobol points, Nelder-Mead polishing, vectorised evaluation);
  the Lame Petrovskii and injectivity checks certify through small
  determinants.  Only 1x1 to 3x3 determinants reach poly.
- syzygy: Buchberger on many tiny polynomials, the opposite use of poly to
  exact-symbols.

Seeds vary weights, coefficients, row orders and rescalings, never the
shape of a task list, so every seed does the same amount of work up to the
inputs' values.  Quadratic forms are scaled to a largest entry of 1: the
polish stops at an absolute tolerance, so unscaled forms made its work (and
a task's time) vary fourfold with the seed; Lame moduli stay in a narrow
band (mu in [1, 2]) for the same reason.  The four orders of the four-generator module are fixed (a
Latin square: each generator once in each position) because Buchberger's
cost today varies twentyfold with the order of that module's rows, which
would swamp any bound; the seed rescales its rows instead.
"""

from __future__ import annotations

import random
from fractions import Fraction

_PRIMES = (2, 3, 5, 7, 11, 13)
_SCALES = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "2/3", "-3/2", "3/4")

LATIN_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def _weight(rng: random.Random) -> str:
    p, q = rng.sample(_PRIMES, 2)
    return f"{p}/{q}"


def _int_matrix(rng: random.Random, rows: int, cols: int, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _gram(l, extra: int = 0):
    n = len(l)
    return [[sum(l[i][k] * l[j][k] for k in range(len(l[0]))) + (extra if i == j else 0)
             for j in range(n)] for i in range(n)]


def _eigenvalues(a) -> list[float]:
    import numpy as np
    return [float(x) for x in np.linalg.eigvalsh(np.array(a, dtype=float))]


def quadratic_form(rng: random.Random, n: int, kind: str):
    """Integer symmetric matrix: positive definite (L L^T + I), singular
    (L L^T with L of rank n-1) or indefinite (M + M^T, both signs)."""
    while True:
        if kind == "pd":
            return _gram(_int_matrix(rng, n, n), 1)
        if kind == "singular":
            a = _gram(_int_matrix(rng, n, n - 1))
            if _eigenvalues(a)[1] > 0.5:  # rank exactly n-1
                return a
        else:
            m = _int_matrix(rng, n, n)
            a = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
            ev = _eigenvalues(a)
            if ev[0] < -0.5 and ev[-1] > 0.5:
                return a


def _tasks(kind_list, rng):
    rng.shuffle(kind_list)
    return [dict(t, id=f"t{i:02d}-{t['kind']}") for i, t in enumerate(kind_list)]


def _exact_symbols(rng):
    tasks = []
    for cplx, n in (("de_rham", 3), ("dolbeault", 2)):
        for variant in (0, 1):
            tasks.append({"kind": "petrovskii", "complex": cplx, "n": n,
                          "variant": variant, "weight": _weight(rng)})
    tasks.append({"kind": "petrovskii", "complex": "dolbeault", "n": 3,
                  "variant": rng.randrange(2), "weight": _weight(rng)})
    for cplx, n in (("de_rham", 3), ("dolbeault", 2), ("power_de_rham", 3)):
        for side in ("right", "left"):
            tasks.append({"kind": "parametrix", "complex": cplx, "n": n,
                          "side": side, "weight": _weight(rng)})
    for n, q in ((3, 2), (4, 1)):
        tasks.append({"kind": "stokes", "complex": "de_rham", "n": n, "q": q,
                      "weight": _weight(rng)})
    return {"tasks": _tasks(tasks, rng)}


def _numeric(rng):
    tasks = []
    for n, form, check in ((3, "pd", "petrovskii"), (3, "pd", "injectivity"),
                           (3, "pd", "strong"), (4, "pd", "petrovskii"),
                           (4, "pd", "strong"), (3, "singular", "strong"),
                           (4, "singular", "petrovskii"),
                           (3, "indefinite", "petrovskii"),
                           (4, "indefinite", "strong")):
        tasks.append({"kind": "quadratic", "n": n, "form": form, "check": check,
                      "matrix": quadratic_form(rng, n, form)})
    for n, check in ((2, "strong"), (3, "strong"), (3, "petrovskii"),
                     (2, "injectivity")):
        mu = Fraction(rng.randint(4, 8), 4)
        lam = mu * Fraction(rng.randint(-15, 30), 10)  # lam + 2 mu >= mu / 2
        tasks.append({"kind": "lame", "n": n, "check": check,
                      "lam": str(lam), "mu": str(mu)})
    return {"tasks": _tasks(tasks, rng)}


def _syzygy(rng):
    scales = [rng.choice(_SCALES) for _ in range(4)]
    tasks = [{"kind": "compat", "module": "roadmap", "order": list(order),
              "scales": scales} for order in LATIN_ORDERS]
    tasks.append({"kind": "extend", "module": "roadmap", "order": [0, 1, 2, 3],
                  "scales": scales})
    for module, rows in (("symgrad3", 6), ("symgrad4", 10), ("grad5", 5)):
        order = list(range(rows))
        rng.shuffle(order)
        sc = [rng.choice(_SCALES) for _ in range(rows)]
        for kind in ("compat", "extend"):
            tasks.append({"kind": kind, "module": module, "order": order, "scales": sc})
    return {"tasks": _tasks(tasks, rng)}


def _corpus(rng):
    a = quadratic_form(rng, 3, "pd")
    tasks = [
        {"kind": "fixtures"},
        {"kind": "verify", "weights": {"1": _weight(rng), "2": _weight(rng)}},
        {"kind": "parametrix", "complex": "de_rham", "n": 3,
         "side": rng.choice(("right", "left")), "weight": _weight(rng)},
        {"kind": "ellipticity", "check": rng.choice(("petrovskii", "strong")),
         "matrix": a},
    ]
    return {"tasks": _tasks(tasks, rng)}


_MAKERS = {"corpus": _corpus, "exact-symbols": _exact_symbols,
           "numeric-ellipticity": _numeric, "syzygy": _syzygy}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's task list for ``seed``; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = _MAKERS[workload](rng)
    out.update(workload=workload, seed=seed)
    return out


def size_class(inputs: dict) -> list:
    """What must not change with the seed: task kinds and input shapes."""
    out = []
    for t in inputs["tasks"]:
        shape = {k: v for k, v in t.items()
                 if k in ("kind", "complex", "n", "q", "module", "form")}
        if "matrix" in t:
            shape["matrix"] = (len(t["matrix"]), len(t["matrix"][0]))
        if "order" in t:
            shape["rows"] = len(t["order"])
        out.append(repr(sorted(shape.items())))
    return sorted(out)


# ---------------------------------------------------------------------------
# Spec documents of the corpus workload


def quadratic_operator_text(a) -> str:
    """``-sum a_ij d_i d_j`` for an integer positive definite ``a``, as a DSL
    expression (principal symbol ``zeta^T a zeta``)."""
    n = len(a)
    terms = []
    for i in range(n):
        for j in range(i, n):
            c = -(a[i][j] if i == j else a[i][j] + a[j][i])
            if c:
                mono = f"d{i + 1}^2" if i == j else f"d{i + 1}*d{j + 1}"
                terms.append(("-" if c < 0 else "+", f"{abs(c)}*{mono}"))
    head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return head + "".join(f" {s} {t}" for s, t in terms[1:])


def spec_text(task: dict) -> str:
    lines = ["vars: d1 d2 d3"]
    kind = task["kind"]
    if kind == "verify":
        lines.append("complex C = de_rham(3)")
        for degree, w in sorted(task["weights"].items()):
            lines.append(f"mu C {degree} scalar {w}")
    elif kind == "parametrix":
        lines.append("complex C = de_rham(3)")
        for degree in range(4):
            lines.append(f"mu C {degree} scalar {task['weight']}")
    elif kind == "ellipticity":
        lines.append(f"operator Q = [[{quadratic_operator_text(task['matrix'])}]]")
    return "\n".join(lines) + "\n"


def cli_args(task: dict, spec_path: str | None) -> list[str]:
    kind = task["kind"]
    if kind == "fixtures":
        return ["fixtures"]
    if kind == "verify":
        return ["verify", "--spec", spec_path]
    if kind == "parametrix":
        return ["parametrix", "--spec", spec_path, "--side", task["side"]]
    return ["ellipticity", "--spec", spec_path, "--kind", task["check"]]


# ---------------------------------------------------------------------------
# In-process tasks


def build_complex(task: dict):
    from cxkit import complexes
    name, n = task["complex"], task["n"]
    if name == "de_rham":
        return complexes.de_rham_complex(n)
    if name == "dolbeault":
        return complexes.dolbeault_complex(n)
    return complexes.powered_de_rham_complex(n, 2)


def weights(cplx, task: dict):
    from cxkit.complexes import MuSet
    w = Fraction(task["weight"])
    if task["kind"] == "stokes":
        # the Stokes hypotheses need the identity weight below degree q
        return MuSet.scalar(cplx, w, degrees=[task["q"]])
    return MuSet.scalar(cplx, w)


def scaled_matrix(task: dict):
    """The quadratic task's matrix divided by its largest absolute entry."""
    a = task["matrix"]
    top = max(abs(x) for row in a for x in row)
    return [[Fraction(x, top) for x in row] for row in a]


def quadratic_operator(a):
    from cxkit.diffop import OperatorMatrix, spatial_signature
    from cxkit.poly import GaussianRational, Poly
    n = len(a)
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    p = Poly.zero(sig.vars)
    for i in range(n):
        for j in range(n):
            if a[i][j]:
                p = p - (d[i] * d[j]).scale(GaussianRational.of(Fraction(a[i][j])))
    return OperatorMatrix.from_entries(sig, [[p]])


def lame_operator(n: int, lam: Fraction, mu: Fraction):
    """``-(mu Laplace I + (lam + mu) grad div)``: principal symbol
    ``mu |zeta|^2 I + (lam + mu) zeta zeta^T``."""
    from cxkit.diffop import OperatorMatrix, spatial_signature
    from cxkit.poly import GaussianRational, Poly
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    lap = Poly.zero(sig.vars)
    for x in d:
        lap = lap + x * x
    m, c = GaussianRational.of(mu), GaussianRational.of(lam + mu)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = (d[i] * d[j]).scale(c)
            if i == j:
                entry = entry + lap.scale(m)
            row.append(-entry)
        rows.append(row)
    return OperatorMatrix.from_entries(sig, rows)


def module_rows(module: str):
    """Rows of the syzygy inputs, before permutation and rescaling."""
    from cxkit.diffop import spatial_signature
    from cxkit.poly import Poly
    n = {"roadmap": 3, "symgrad3": 3, "symgrad4": 4, "grad5": 5}[module]
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    z = Poly.zero(sig.vars)
    if module == "roadmap":
        d1, d2, d3 = d
        return sig, [[d1 * d1 + d2 * d3, d1], [d1 * d2, d2 + d3],
                     [d3 * d3 - d1 * d2, d1 + d2], [d2 * d2, d3]]
    if module == "grad5":
        return sig, [[x] for x in d]
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [z] * n
            if i == j:
                row[i] = d[i]
            else:
                row[i], row[j] = d[j], d[i]
            rows.append(row)
    return sig, rows


def permuted_operator(task: dict):
    """Original row j scaled by scales[j], rows listed in the task's order."""
    from cxkit.diffop import OperatorMatrix
    from cxkit.poly import GaussianRational
    sig, rows = module_rows(task["module"])
    out = []
    for src in task["order"]:
        c = GaussianRational.of(Fraction(task["scales"][src]))
        out.append([p.scale(c) for p in rows[src]])
    return OperatorMatrix.from_entries(sig, out)


def undo_permutation(task: dict, b):
    """A compatibility operator of the permuted, rescaled rows, mapped back
    to the original rows: column j is scales[j] times the column of the
    position that holds original row j."""
    from cxkit.diffop import OperatorMatrix
    from cxkit.poly import GaussianRational
    order = task["order"]
    where = {src: pos for pos, src in enumerate(order)}
    ents = [[b[i, where[j]].scale(GaussianRational.of(Fraction(task["scales"][j])))
             for j in range(len(order))] for i in range(b.rows)]
    return OperatorMatrix.from_entries(b.signature, ents)


def run_task(task: dict, ctx: dict):
    """Run one in-process task; returns its output."""
    from cxkit import blockops, ellipticity, symbols, syzygy
    kind = task["kind"]
    if kind == "petrovskii":
        cplx = build_complex(task)
        mu = weights(cplx, task)
        op = blockops.maxwell(cplx, cplx.length, mu, task["variant"])
        factored = blockops.verify_factorization(cplx, cplx.length, mu)
        return {"report": ellipticity.petrovskii_check(op), "factorization": factored}
    if kind == "parametrix":
        cplx = build_complex(task)
        return symbols.maxwell_parametrix_symbol(cplx, weights(cplx, task), task["side"])
    if kind == "stokes":
        cplx = build_complex(task)
        return symbols.stokes_fundamental_symbol(cplx, task["q"], weights(cplx, task))
    if kind in ("quadratic", "lame"):
        if kind == "quadratic":
            op = quadratic_operator(scaled_matrix(task))
        else:
            op = lame_operator(task["n"], Fraction(task["lam"]), Fraction(task["mu"]))
        check = {"petrovskii": ellipticity.petrovskii_check,
                 "injectivity": ellipticity.injectivity_check,
                 "strong": ellipticity.strong_ellipticity_check}[task["check"]]
        return check(op)
    if kind == "compat":
        a = permuted_operator(task)
        b = syzygy.compatibility_operator(a)
        known = ctx["known"][task["module"]]
        return {"a": a, "b": b,
                "equivalent": syzygy.module_equivalent(undo_permutation(task, b), known)}
    if kind == "extend":
        a = permuted_operator(task)
        return syzygy.extend_to_complex(a)
    raise ValueError(f"unknown task kind {kind!r}")
