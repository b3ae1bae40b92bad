"""Metric definitions of the cxkit benchmark.

``END_TO_END`` are the numbers a user of cxkit sees, measured with tracing
off.  ``PER_LAYER`` are derived from a traced run; each entry names the
end-to-end metric and workload it should move (``moves``) and the workload
that bypasses the layer (``bypass``), where the prediction is no change.
``BENCHMARK.json`` at the repository root lists the same names; the
self-tests keep the two in step.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = ("corpus", "exact-symbols", "numeric-ellipticity", "syzygy")

# The cxkit package modules; each one is a layer.
LAYERS = ("poly", "diffop", "complexes", "blockops", "symbols", "ellipticity",
          "syzygy", "dsl", "fixtures", "cli")

# Names of the bundled fixtures (cxkit.fixtures.FIXTURES).
FIXTURE_NAMES = (
    "complex-family", "laplacian-family", "symmetric-gradient-plane",
    "planar-flow", "electromagnetic", "acoustics", "mass-quanta",
    "stokes-classical", "stokes-block-3", "oseen-symbol", "parametrix-family",
    "dn-weights", "ellipticity-suite", "syzygy-suite",
)

END_TO_END = {
    # name: (unit, better, bound)
    "wall_s": ("s", "lower", 0.2),
    "setup_s": ("s", "lower", 0.25),
    "slowest_task_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_EXACT = ("exact-symbols",)
_NUMERIC = ("numeric-ellipticity", "corpus")


def _layer(unit, better, moves, workloads, bypass):
    return {"unit": unit, "better": better, "moves": list(moves),
            "workloads": list(workloads), "bypass": bypass}


# Self time of each layer: the workloads it carries weight on, and the one
# it is bypassed by.
_SELF = {
    "poly": (_EXACT, "numeric-ellipticity"),
    "diffop": (_EXACT, "syzygy"),
    "complexes": (_EXACT, "syzygy"),
    "blockops": (_EXACT, "syzygy"),
    "symbols": (_EXACT, "syzygy"),
    "ellipticity": (_NUMERIC, "exact-symbols"),
    "syzygy": (("syzygy",), "exact-symbols"),
    "dsl": (("corpus",), "exact-symbols"),
    "fixtures": (("corpus",), "exact-symbols"),
    "cli": (("corpus",), "exact-symbols"),
}

PER_LAYER: dict[str, dict] = {
    "poly.determinant_s": _layer("s", "lower", ("wall_s", "slowest_task_s", "peak_rss_mb"), _EXACT, "numeric-ellipticity"),
    "poly.exact_div_s": _layer("s", "lower", ("wall_s", "slowest_task_s", "peak_rss_mb"), _EXACT, "numeric-ellipticity"),
    "poly.det_terms": _layer("count", "lower", ("wall_s", "slowest_task_s", "peak_rss_mb"), _EXACT, "numeric-ellipticity"),
    "poly.det_max_n": _layer("count", "lower", ("wall_s", "slowest_task_s", "peak_rss_mb"), _EXACT, "numeric-ellipticity"),
    "symbols.parametrix_s": _layer("s", "lower", ("wall_s", "peak_rss_mb"), _EXACT, "syzygy"),
    "symbols.stokes_fundamental_s": _layer("s", "lower", ("wall_s", "peak_rss_mb"), _EXACT, "syzygy"),
    "symbols.parametrix_den_terms": _layer("count", "lower", ("wall_s", "peak_rss_mb"), _EXACT, "syzygy"),
    "blockops.maxwell_s": _layer("s", "lower", ("wall_s",), _EXACT, "syzygy"),
    "blockops.verify_factorization_s": _layer("s", "lower", ("wall_s",), _EXACT, "syzygy"),
    "diffop.principal_symbol_s": _layer("s", "lower", ("wall_s",), _EXACT, "syzygy"),
    "complexes.build_s": _layer("s", "lower", ("wall_s",), _EXACT, "syzygy"),
    "ellipticity.petrovskii_s": _layer("s", "lower", ("wall_s",), _NUMERIC, "exact-symbols"),
    "ellipticity.injectivity_s": _layer("s", "lower", ("wall_s",), _NUMERIC, "exact-symbols"),
    "ellipticity.strong_s": _layer("s", "lower", ("wall_s",), _NUMERIC, "exact-symbols"),
    "ellipticity.samples": _layer("count", "lower", ("wall_s",), _NUMERIC, "exact-symbols"),
    "ellipticity.certified_frac": _layer("ratio", "higher", ("wall_s",), _NUMERIC, "exact-symbols"),
    "ellipticity.minimum_err_max": _layer("1", "lower", ("wall_s",), _NUMERIC, "exact-symbols"),
    "syzygy.compatibility_s": _layer("s", "lower", ("wall_s",), ("syzygy",), "exact-symbols"),
    "syzygy.extend_s": _layer("s", "lower", ("wall_s",), ("syzygy",), "exact-symbols"),
    "syzygy.module_equivalent_s": _layer("s", "lower", ("wall_s",), ("syzygy",), "exact-symbols"),
    "syzygy.distinct_outputs": _layer("count", "lower", ("wall_s",), ("syzygy",), "exact-symbols"),
    "cli.import_s": _layer("s", "lower", ("setup_s", "wall_s"), ("corpus",), "exact-symbols"),
    "cli.fixtures_cmd_s": _layer("s", "lower", ("wall_s",), ("corpus",), "exact-symbols"),
    "cli.spec_cmd_s": _layer("s", "lower", ("wall_s",), ("corpus",), "exact-symbols"),
    "dsl.parse_s": _layer("s", "lower", ("wall_s",), ("corpus",), "exact-symbols"),
    **{f"fixtures.{name}_s": _layer("s", "lower", ("wall_s",), ("corpus",), "exact-symbols")
       for name in FIXTURE_NAMES},
    "corpus.bytes_identical": _layer("bool", "higher", ("wall_s",), ("corpus",), "exact-symbols"),
    # Import of the cxkit modules a worker needs, inside its set-up.  Every
    # workload imports ellipticity and with it scipy.
    "worker.import_s": _layer("s", "lower", ("setup_s",), WORKLOADS, "none"),
    **{f"{layer}.self_s": _layer("s", "lower", ("wall_s",), moved, bypass)
       for layer, (moved, bypass) in _SELF.items()},
    "trace.overhead_s": _layer("s", "lower", ("wall_s",), WORKLOADS, "none"),
}
