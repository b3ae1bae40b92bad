"""One benchmark worker: a fresh Python process that runs one workload.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

The worker imports what the workload needs and generates its inputs (its
set-up), sampling the machine's speed meanwhile (``speed.py``), prints a
ready line with that speed, and then runs the workload's task list a fixed
number of times (``pass_count``), one task at a time (a closed loop with
one client), sampling the machine's speed while each task runs.  Every
output is checked.  With TRACE=1 the passes alternate between untraced and
traced, and the traced ones give the per-layer numbers.  Lines meant for the parent start with ``PROTOCOL``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROTOCOL = "@@perfbench "
# A task that takes longer than its cap counts as failed.
TASK_CAP_S = 60.0
CLI_CAP_S = 60.0
# Seconds one pass of each workload's task list took (raw) on the baseline
# machine; they turn --seconds into a pass count that does not depend on how
# fast the program under test runs.
NOMINAL_PASS_S = {"corpus": 9.0, "exact-symbols": 4.5,
                  "numeric-ellipticity": 2.5, "syzygy": 7.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def emit(kind: str, **payload) -> None:
    sys.stdout.write(PROTOCOL + json.dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


def setup(workload: str, seed: int):
    """Imports and inputs: everything ``setup_s`` measures."""
    t0 = time.perf_counter()
    if workload == "corpus":
        import cxkit.cli  # noqa: F401
    else:
        import cxkit.blockops  # noqa: F401
        import cxkit.ellipticity  # noqa: F401
        import cxkit.symbols  # noqa: F401
        import cxkit.syzygy  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    inputs = workloads.make_inputs(workload, seed)
    workdir = None
    if workload == "corpus":
        workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        for task in inputs["tasks"]:
            if task["kind"] != "fixtures":
                (workdir / f"{task['id']}.spec").write_text(workloads.spec_text(task))
    return inputs, import_s, workdir


# ---------------------------------------------------------------------------
# Checking


class Checker:
    """Checks outputs; an output equal to one already checked for the same
    task gets the same verdict without checking it again."""

    def __init__(self, workload: str, seed: int):
        import oracles
        import workloads
        self.oracles, self.workloads = oracles, workloads
        self.workload, self.seed = workload, seed
        self.cache: dict[tuple, tuple] = {}
        self.ctx = {"seed": seed}
        if workload == "corpus":
            ref = (HERE / "reference" / "fixtures.json").read_bytes()
            self.ctx.update(fixtures_ref_bytes=ref, fixtures_ref=json.loads(ref),
                            parametrix_target=self.maxwell_symbol)
        if workload == "syzygy":
            self.ctx["known"] = known_operators()

    def maxwell_symbol(self, task, variant=None):
        """Principal symbol of the task's top Maxwell operator, built on the
        operator path; by default the variant a parametrix of ``side``
        inverts (M1 for right, M0 for left)."""
        from cxkit import blockops
        w = self.workloads
        if variant is None:
            variant = 1 if task["side"] == "right" else 0
        cplx = w.build_complex(task)
        return blockops.maxwell(cplx, cplx.length, w.weights(cplx, task),
                                variant).principal_symbol()

    def fingerprint(self, task, output) -> str:
        kind = task["kind"]
        if self.workload == "corpus":
            return f"{output[0]}:{output[1].decode(errors='replace')}"
        if kind == "petrovskii":
            return json.dumps([output["report"].to_json(), output["factorization"]])
        if kind == "parametrix":
            return json.dumps(output.to_json())
        if kind == "stokes":
            return json.dumps([output[0].to_json(), output[1]])
        if kind in ("quadratic", "lame"):
            return json.dumps(output.to_json())
        if kind == "compat":
            return repr((str(output["b"].body), output["equivalent"]))
        return repr([str(o.body) for o in output])

    def check(self, task, output):
        key = (task["id"], self.fingerprint(task, output))
        if key not in self.cache:
            try:
                self.cache[key] = self._check(task, output)
            except Exception as exc:  # a malformed output is a failed check
                self.cache[key] = (False, f"checker raised {exc!r}")
        return self.cache[key]

    def _check(self, task, output):
        o, w = self.oracles, self.workloads
        kind = task["kind"]
        if self.workload == "corpus":
            return o.check_cli(task, output[0], output[1], self.ctx)
        seed = self.seed
        if kind == "petrovskii":
            return o.check_petrovskii(output, self.maxwell_symbol(task, task["variant"]), seed)
        if kind == "parametrix":
            ok, info = o.check_parametrix(output, self.maxwell_symbol(task), seed)
            if ok:
                info = {"den_terms": len(output.den.terms)}
            return ok, info
        if kind == "stokes":
            from cxkit import symbols
            cplx = w.build_complex(task)
            target = symbols.stokes_dn_symbol(cplx, task["q"], w.weights(cplx, task))
            return o.check_stokes(output, target, seed)
        if kind == "quadratic":
            return o.check_minimum(output, o.quadratic_minimum(w.scaled_matrix(task),
                                                                 task["check"]))
        if kind == "lame":
            from fractions import Fraction
            lam, mu = Fraction(task["lam"]), Fraction(task["mu"])
            cert = (None if task["check"] == "strong"
                    else o.lame_certificate(task["n"], lam, mu, task["check"]))
            return o.check_minimum(output, o.lame_minimum(lam, mu), cert)
        if kind == "compat":
            return o.check_compat(output, w.undo_permutation(task, output["b"]),
                                  self.ctx["known"][task["module"]], self.seed)
        return o.check_extend(output)


def known_operators() -> dict:
    """Known compatibility operators of the syzygy inputs, built without
    Groebner bases: a reference for the four-generator module, the
    linearised Riemann operator for symmetric gradients, and curl-type
    operators (de Rham A_1) for the gradient."""
    from fractions import Fraction
    from cxkit.complexes import de_rham_complex
    from cxkit.diffop import OperatorMatrix, spatial_signature
    from cxkit.poly import GaussianRational, Poly
    import workloads

    ref = json.loads((HERE / "reference" / "roadmap_syzygy.json").read_text())
    sig = spatial_signature(3)
    roadmap = OperatorMatrix.from_entries(sig, [
        [Poly(sig.vars, {tuple(e): GaussianRational.of(Fraction(re), Fraction(im))
                         for e, re, im in entry}) for entry in row]
        for row in ref["rows"]])
    out = {"roadmap": roadmap, "grad5": de_rham_complex(5).op(1)}
    for module, n in (("symgrad3", 3), ("symgrad4", 4)):
        out[module] = riemann_operator(workloads.module_rows(module)[0], n)
    return out


def riemann_operator(sig, n: int):
    """Rows R_ijkl = d_j d_k e_il + d_i d_l e_jk - d_i d_k e_jl - d_j d_l e_ik
    for pairs (i<j) <= (k<l), over the components e_ab (a <= b) in the row
    order of ``workloads.module_rows``; e_aa is half the diagonal strain."""
    from cxkit.diffop import OperatorMatrix
    from cxkit.poly import Poly
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    comps = [(a, b) for a in range(n) for b in range(a, n)]
    col = {ab: k for k, ab in enumerate(comps)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for p, (i, j) in enumerate(pairs):
        for k, l in pairs[p:]:
            row = [Poly.zero(sig.vars)] * len(comps)
            for sign, x, y, a, b in ((1, j, k, i, l), (1, i, l, j, k),
                                     (-1, i, k, j, l), (-1, j, l, i, k)):
                factor = 2 if a == b else 1
                c = col[(min(a, b), max(a, b))]
                row[c] = row[c] + (d[x] * d[y]).scale(sign * factor)
            rows.append(row)
    return OperatorMatrix.from_entries(sig, rows)


# ---------------------------------------------------------------------------
# Passes


def run_pass(inputs, ctx, tracer=None, workdir=None, env=None):
    """Run the task list once; returns [(task, output, seconds, error)] and,
    for an untraced pass, each task's speed in reference seconds per second
    (``speed.Sampler``; the probes' own time is left out of ``seconds``).
    A CLI task samples the speed in its own process (``cli_shim.py``)."""
    import workloads
    from speed import Sampler, probe, speed
    corpus = inputs["workload"] == "corpus"
    results = []
    speeds = []
    for task in inputs["tasks"]:
        if tracer is not None:
            tracer.task = task["id"]
        idx = tracer.open(f"task.{task['kind']}") if tracer is not None else None
        in_process = tracer is None and not corpus
        sampler = Sampler() if in_process else contextlib.nullcontext()
        child = None
        with sampler:
            t0 = time.perf_counter()
            try:
                if corpus:
                    output, child = run_cli(task, workdir, env, tracer)
                else:
                    output = workloads.run_task(task, ctx)
                error = None
            except subprocess.TimeoutExpired:
                output, error = None, "time cap exceeded"
            except Exception as exc:  # a task that raises is a failed task
                output, error = None, repr(exc)
            dur = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(idx)
        elif in_process:
            dur = sampler.net(dur)
            speeds.append(sampler.speed())
        else:
            # a command that failed may have written no speed: probe after it
            dur -= child["inside"] if child else 0.0
            speeds.append(child["speed"] if child else speed([probe()]))
        results.append((task, output, dur, error))
    return results, speeds


def run_cli(task, workdir, env, tracer):
    """Run one CLI command through ``cli_shim.py``; returns ((return code,
    standard output), the shim's sidecar)."""
    import workloads
    spec = str(workdir / f"{task['id']}.spec") if task["kind"] != "fixtures" else None
    args = workloads.cli_args(task, spec)
    sidecar = workdir / f"{task['id']}.sidecar.json"
    mode = "speed" if tracer is None else "trace"
    cmd = [sys.executable, str(HERE / "cli_shim.py"), mode, str(sidecar), *args]
    proc = subprocess.run(cmd, capture_output=True, timeout=CLI_CAP_S, env=env, cwd=ROOT)
    child = json.loads(sidecar.read_text())
    sidecar.unlink()
    if tracer is not None:
        merge_child(tracer, child, task["id"])
    return (proc.returncode, proc.stdout), child


def merge_child(tracer, child: dict, task_id: str) -> None:
    """Append a CLI child's spans under the current task span."""
    offset = len(tracer.spans)
    parent = tracer._stack[-1] if tracer._stack else None
    for name, start, end, p, _ in child["spans"]:
        tracer.spans.append([name, start, end, parent if p is None else p + offset, task_id])
    tracer.counters["cli.imports"] += 1
    tracer.counters["cli.import_s"] += child["import_s"]
    for key, value in child["counters"].items():
        if key.endswith("_max_n") or key.endswith("den_terms"):
            tracer.counters[key] = max(tracer.counters[key], value)
        else:
            tracer.counters[key] += value


def distinct_outputs(results) -> int:
    """Distinct compatibility operators of the four-generator module across
    its row orders, each mapped back to the original rows."""
    import workloads
    seen = set()
    for task, output, _, error in results:
        if task["kind"] == "compat" and task["module"] == "roadmap" and error is None:
            b = workloads.undo_permutation(task, output["b"])
            seen.add(tuple(sorted(str(row) for row in b.body.entries)))
    return len(seen)


def pass_layers(results, tracer, infos) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import layer_metrics
    out = layer_metrics(tracer.spans, tracer.counters)
    errs = [i.get("minimum_err", 0.0) for i in infos if isinstance(i, dict)]
    out["ellipticity.minimum_err_max"] = max(errs, default=0.0)
    dens = [i["den_terms"] for i in infos if isinstance(i, dict) and "den_terms" in i]
    if dens:
        out["symbols.parametrix_den_terms"] = max(dens)
    out["syzygy.distinct_outputs"] = distinct_outputs(results)
    imports = tracer.counters.get("cli.imports", 0)
    if imports:
        out["cli.import_s"] = tracer.counters["cli.import_s"] / imports
        fixtures = [d for t, _, d, _ in results if t["kind"] == "fixtures"]
        out["cli.fixtures_cmd_s"] = sum(fixtures)
        out["cli.spec_cmd_s"] = sum(d for t, _, d, _ in results if t["kind"] != "fixtures")
        flags = [i.get("bytes_identical") for i in infos
                 if isinstance(i, dict) and "bytes_identical" in i]
        out["corpus.bytes_identical"] = float(bool(flags) and all(flags))
    return out


def task_times(passes, key: str) -> dict[str, float]:
    """Each task's median over the passes of its ``key`` time ("raw" or
    "scaled")."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for task_id, t in p[key].items():
            times.setdefault(task_id, []).append(t)
    return {task_id: statistics.median(ts) for task_id, ts in times.items()}


def main(argv) -> int:
    from speed import Sampler
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    with Sampler() as sampler:
        inputs, import_s, workdir = setup(workload, seed)
    emit("ready", probes_s=sum(sampler.inside), speed=sampler.speed())
    try:
        if "--setup-only" in argv[4:]:
            return 0
        return measure(workload, seed, seconds, trace, inputs, import_s, workdir)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, trace, inputs, import_s, workdir) -> int:
    import numpy
    import scipy
    from tracing import Tracer, wrapper_cost, write_sidecar

    checker = Checker(workload, seed)
    env = dict(os.environ)
    n_passes = pass_count(workload, seconds)
    passes = []  # {"traced", "tasks", "raw", "scaled", "layers", "spans"}
    failures = []
    all_spans = []
    start = time.perf_counter()
    while len(passes) < n_passes:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            results, speeds = run_pass(inputs, checker.ctx, tracer, workdir, env)
        finally:
            if tracer is not None:
                tracer.uninstall()
        infos = []
        for task, output, dur, error in results:
            info = None
            if error is None and dur > (CLI_CAP_S if workload == "corpus" else TASK_CAP_S):
                error = "time cap exceeded"
            if error is None:
                ok, info = checker.check(task, output)
                if not ok:
                    error = info
            infos.append(info)
            if error is not None:
                failures.append(f"{task['id']}: {error}")
        layers = pass_layers(results, tracer, infos) if traced else None
        if traced:
            all_spans.append({"pass": len(passes), "spans": tracer.spans,
                              "counters": dict(tracer.counters)})
        # outputs are dropped once checked, so memory does not grow with passes
        passes.append({
            "traced": traced,
            "tasks": len(results),
            "raw": {t["id"]: d for t, _, d, _ in results},
            "scaled": {t["id"]: d * v for (t, _, d, _), v in zip(results, speeds)},
            "layers": layers,
            "spans": len(tracer.spans) if traced else 0,
        })
        del results
        # a machine or program so slow that the next pass would end after
        # twice the requested time stops early, after at least two passes
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > 2 * seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["tasks"] for p in passes)
    times = task_times(untraced, "scaled")
    raw = task_times(untraced, "raw")
    e2e = {
        "wall_s": sum(times.values()),
        "slowest_task_s": max(times.values()),
        "raw_wall_s": sum(raw.values()),
        "raw_slowest_task_s": max(raw.values()),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }
    per_layer = {}
    if traced_passes:
        names = set().union(*(p["layers"] for p in traced_passes))
        per_layer = {n: statistics.median(p["layers"].get(n, 0.0) for p in traced_passes)
                     for n in names}
        per_layer["trace.overhead_s"] = wrapper_cost() * statistics.median(
            p["spans"] for p in traced_passes)
        per_layer["worker.import_s"] = import_s
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "workload": workload,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        write_sidecar(out_dir / f"trace-{workload}-seed{seed}.json",
                      {"env": environment, "per_layer": per_layer, "passes": all_spans,
                       "span_fields": ["name", "start", "end", "parent", "task"]})
    emit("result", attempted=attempted, failed=len(failures), failures=failures[:10],
         passes=len(passes), e2e=e2e, task_s=times, per_layer=per_layer, env=environment)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main(sys.argv[1:]))
