"""In-memory spans around calls into cxkit's public functions.

A :class:`Tracer` replaces each traced function with a wrapper, in every
loaded ``cxkit`` module that refers to it, so calls between modules are seen
as well as the benchmark's own calls.  A span is ``[name, start, end, parent,
task]``: ``parent`` is the index of the enclosing span (or ``None``) and
``task`` the benchmark task that was running.  Counters are filled from the
results of selected calls.  Nothing is written until :func:`write_sidecar`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Public functions per layer.  Methods are given as "Class.method".
TRACED = {
    "poly": ("PolyMatrix.determinant", "PolyMatrix.adjugate", "Poly.exact_div"),
    "diffop": ("OperatorMatrix.principal_symbol", "OperatorMatrix.total_symbol",
               "OperatorMatrix.formal_adjoint"),
    "complexes": ("de_rham_complex", "dolbeault_complex", "powered_de_rham_complex",
                  "koszul_complex", "imaginary_de_rham_complex", "laplacian",
                  "generalized_laplacian", "check_coherence", "Complex.verify"),
    "blockops": ("maxwell", "maxwell_time", "stokes", "stokes_time",
                 "assemble_stokes", "verify_factorization",
                 "verify_wave_factorization", "block_inject", "block_extract"),
    "symbols": ("delta", "maxwell_symbol", "stokes_dn_symbol", "invert_symbol",
                "verify_symbolic_factorization", "block_diagonal_inverse",
                "maxwell_parametrix_symbol", "stokes_fundamental_symbol",
                "verify_evolution_identity"),
    "ellipticity": ("petrovskii_check", "injectivity_check",
                    "strong_ellipticity_check", "dn_weights_maxwell",
                    "dn_weights_stokes", "dn_symbol", "dn_check"),
    "syzygy": ("groebner_basis", "interreduce", "syzygies",
               "compatibility_operator", "extend_to_complex", "module_equivalent"),
    "dsl": ("parse",),
    "cli": tuple(f"cmd_{c}" for c in ("verify", "laplacian", "maxwell", "stokes",
                                      "ellipticity", "dn_weights", "parametrix",
                                      "syzygy", "extend", "fixtures")),
}

# Per-layer time metrics: metric name -> span names it sums (outermost only).
TIME_METRICS = {
    "poly.determinant_s": ("poly.PolyMatrix.determinant",),
    "poly.exact_div_s": ("poly.Poly.exact_div",),
    "symbols.parametrix_s": ("symbols.maxwell_parametrix_symbol",),
    "symbols.stokes_fundamental_s": ("symbols.stokes_fundamental_symbol",),
    "blockops.maxwell_s": ("blockops.maxwell", "blockops.maxwell_time"),
    "blockops.verify_factorization_s": ("blockops.verify_factorization",),
    "diffop.principal_symbol_s": ("diffop.OperatorMatrix.principal_symbol",),
    "complexes.build_s": tuple(f"complexes.{f}" for f in (
        "de_rham_complex", "dolbeault_complex", "powered_de_rham_complex",
        "koszul_complex", "imaginary_de_rham_complex")),
    "ellipticity.petrovskii_s": ("ellipticity.petrovskii_check",),
    "ellipticity.injectivity_s": ("ellipticity.injectivity_check",),
    "ellipticity.strong_s": ("ellipticity.strong_ellipticity_check",),
    "syzygy.compatibility_s": ("syzygy.compatibility_operator",),
    "syzygy.extend_s": ("syzygy.extend_to_complex",),
    "syzygy.module_equivalent_s": ("syzygy.module_equivalent",),
    "dsl.parse_s": ("dsl.parse",),
}

_CHECKS = ("ellipticity.petrovskii_check", "ellipticity.injectivity_check",
           "ellipticity.strong_ellipticity_check")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.task: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, result) -> None:
        if name == "poly.PolyMatrix.determinant":
            self.counters["poly.det_calls"] += 1
            self.counters["poly.det_terms"] += len(result.terms)
        elif name in _CHECKS:
            self.counters["ellipticity.checks"] += 1
            if result.verdict == "certified-symbolic":
                self.counters["ellipticity.certified"] += 1
            if result.budget is not None:
                self.counters["ellipticity.samples"] += result.budget
        elif name == "symbols.maxwell_parametrix_symbol":
            self.counters["symbols.parametrix_den_terms"] = max(
                self.counters["symbols.parametrix_den_terms"], len(result.den.terms))

    def _wrap(self, name: str, fn, size_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size_of is not None:
                tracer.counters["poly.det_max_n"] = max(
                    tracer.counters["poly.det_max_n"], size_of(args[0]))
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._count(name, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a loaded cxkit module binds it."""
        if self._patched:
            return
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cxkit" or n.startswith("cxkit."))]
        for layer, names in TRACED.items():
            mod = sys.modules.get(f"cxkit.{layer}")
            if mod is None:
                continue
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    size_of = (lambda m: m.rows) if qual == "PolyMatrix.determinant" else None
                    self._set(cls, meth, orig, self._wrap(f"{layer}.{qual}", orig, size_of))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(f"{layer}.{qual}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, orig, wrapper)
                # command table of the CLI holds its own references
                cmds = getattr(mod, "_COMMANDS", None)
                if cmds is not None:
                    for key, value in list(cmds.items()):
                        if value is orig:
                            self._set(cmds, key, orig, wrapper)
        fixtures = sys.modules.get("cxkit.fixtures")
        if fixtures is not None:
            for key, fn in list(fixtures.FIXTURES.items()):
                self._set(fixtures.FIXTURES, key, fn, self._wrap(f"fixtures.{key}", fn))

    def _set(self, owner, attr, orig, new) -> None:
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patched.clear()


# ---------------------------------------------------------------------------
# Derived numbers


def _outermost_total(spans: list[list], names: set[str]) -> float:
    """Sum of durations of spans in ``names`` that have no ancestor in it."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] in names:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".")[0]] += (end - start) - child[i]
    return out


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see ``metrics.PER_LAYER``)."""
    out = {name: _outermost_total(spans, set(names))
           for name, names in TIME_METRICS.items()}
    for name in {s[0] for s in spans if s[0].startswith("fixtures.")}:
        out[name + "_s"] = _outermost_total(spans, {name})
    selfs = self_times(spans)
    for layer in TRACED.keys() | {"fixtures"}:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for name in ("poly.det_terms", "poly.det_max_n", "symbols.parametrix_den_terms",
                 "ellipticity.samples"):
        out[name] = counters.get(name, 0.0)
    checks = counters.get("ellipticity.checks", 0.0)
    out["ellipticity.certified_frac"] = (
        counters.get("ellipticity.certified", 0.0) / checks if checks else 0.0)
    return out


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that tracing adds to one call: a wrapped no-op function
    against the bare one, best of ``repeats``.  Times the number of spans of
    a pass, this is the tracing overhead of the pass."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("trace.noop", noop)
    best = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


def write_sidecar(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
