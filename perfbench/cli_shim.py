"""Run one cxkit command and report on it.

    python3 perfbench/cli_shim.py speed SIDECAR <cxkit arguments...>
    python3 perfbench/cli_shim.py trace SIDECAR <cxkit arguments...>

Behaves like ``python3 -m cxkit.cli <cxkit arguments...>``.  With ``speed``
it samples the machine's speed (``speed.Sampler``) from before ``import
cxkit.cli`` to the end of the command and writes the probes' own time and
the speed to the JSON file SIDECAR.  With ``trace`` it records spans around
cxkit's public functions and writes them, the counters and the time
``import cxkit.cli`` took to SIDECAR.  The corpus workload runs every
command through it: the probes must run in the process that does the work,
since the benchmark pins all its processes to one CPU.
"""

import sys
import time

from tracing import write_sidecar


def run_with_speed(sidecar: str, argv: list[str]) -> int:
    from speed import Sampler
    code = 1
    with Sampler() as sampler:
        import cxkit.cli
        code = cxkit.cli.main(argv)
    write_sidecar(sidecar, {"inside": sum(sampler.inside), "speed": sampler.speed()})
    return code


def run_with_trace(sidecar: str, argv: list[str]) -> int:
    from tracing import Tracer
    t0 = time.perf_counter()
    import cxkit.cli  # timed: this is the command's import cost
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t0 + import_s, None, None])
    tracer.install()
    try:
        return cxkit.cli.main(argv)
    finally:
        tracer.uninstall()
        write_sidecar(sidecar, {"import_s": import_s, "spans": tracer.spans,
                                "counters": dict(tracer.counters)})


def main() -> int:
    mode, sidecar, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    return (run_with_speed if mode == "speed" else run_with_trace)(sidecar, argv)


if __name__ == "__main__":
    raise SystemExit(main())
