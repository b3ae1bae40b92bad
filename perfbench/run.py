"""The cxkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; cxkit is imported from ``src``.
Launches fresh workers (``worker.py``) with BLAS threads pinned to one, all
on one CPU: a few that only set up, to time set-up, and one that measures
the workload for about S seconds and checks every output.  Prints each
metric by name with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1`` (spans are written to
``.perfbench/trace-<workload>-seed<N>.json``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from worker import PROTOCOL  # noqa: E402

# Set-up is timed in this many fresh workers; the median is reported.
SETUP_RUNS = 3
# Kill everything and fail, printing no result, past this many seconds.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CXKIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args, env, deadline: float, setup_only: bool) -> tuple[float, float, dict | None]:
    """Run one worker; returns (set-up seconds, the same at reference speed,
    result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup_s, scaled_s, result = None, None, None
    try:
        for line in proc.stdout:
            if not line.startswith(PROTOCOL):
                continue
            msg = json.loads(line[len(PROTOCOL):])
            if msg["kind"] == "ready":
                setup_s = time.perf_counter() - t0
                scaled_s = (setup_s - msg["probes_s"]) * msg["speed"]
            elif msg["kind"] == "result":
                result = msg
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise WorkerError(f"worker exited with status {code}")
    return setup_s, scaled_s, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cxkit" / "__init__.py").is_file():
        print("perfbench: no cxkit sources under src/cxkit", file=sys.stderr)
        return 2
    env = worker_env()
    # One CPU for this process, the workers and their CLI children, so the
    # speed probe and the work it scales run on the same vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [launch(args, env, deadline, True)[:2] for _ in range(SETUP_RUNS - 1)]
        *setup, result = launch(args, env, deadline, False)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(tuple(setup))

    if args.trace:
        values = {name: result["per_layer"].get(name, 0.0) for name in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]["unit"]}
                   for name in PER_LAYER}
    else:
        values = dict(result["e2e"], setup_s=statistics.median(s for _, s in setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}

    attempted, failed = result["attempted"], result["failed"]
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print("env: " + json.dumps(dict(result["env"], passes=result["passes"], e2e=result["e2e"],
                                    task_s=result["task_s"],
                                    raw_setup_s=[round(s, 4) for s, _ in setups])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
