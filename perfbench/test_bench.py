"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

Inputs are reproducible from the seed, other seeds keep the size class, the
checks flag corrupted outputs, metric names agree with BENCHMARK.json, and
the timing helpers do not depend on how fast the program runs.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_other_seed_same_size_class(workload):
    base = workloads.make_inputs(workload, 1)
    for seed in (2, 3, 1234):
        other = workloads.make_inputs(workload, seed)
        assert other != base
        assert workloads.size_class(other) == workloads.size_class(base)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {n: (m["unit"], m["better"]) for n, m in metrics.PER_LAYER.items()}
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name


def test_every_time_metric_is_a_per_layer_metric():
    assert set(tracing.TIME_METRICS) <= set(metrics.PER_LAYER)
    for layer in metrics.LAYERS:
        assert f"{layer}.self_s" in metrics.PER_LAYER


def test_eval_poly_reads_printed_polynomials():
    from cxkit.poly import GaussianRational, Poly
    vars = ("z1", "z2")
    z1, z2 = (Poly.variable(vars, v) for v in vars)
    p = (z1 * z1).scale(GaussianRational.of(Fraction(3, 2), Fraction(-1, 4))) \
        - z2.scale(GaussianRational.i()) + Poly.constant(vars, Fraction(-5, 7))
    env = oracles.unit_points(3, vars)
    want = np.array([p.evaluate({"z1": a, "z2": b}) for a, b in zip(env["z1"], env["z2"])])
    assert np.allclose(oracles.eval_poly(str(p), env), want)



def _run(workload, kind):
    inputs = workloads.make_inputs(workload, 5)
    task = next(t for t in inputs["tasks"] if t["kind"] == kind)
    ctx = {"known": worker.known_operators()} if workload == "syzygy" else {}
    return task, workloads.run_task(task, ctx)


def test_checker_flags_a_corrupted_parametrix():
    from cxkit.symbols import RationalSymbolMatrix
    checker = worker.Checker("exact-symbols", 5)
    task, out = _run("exact-symbols", "parametrix")
    assert checker.check(task, out)[0]
    bad = RationalSymbolMatrix(out.num, out.den.scale(Fraction(1001, 1000)))
    assert not checker.check(task, bad)[0]


def test_checker_flags_a_corrupted_minimum():
    from dataclasses import replace
    checker = worker.Checker("numeric-ellipticity", 5)
    inputs = workloads.make_inputs("numeric-ellipticity", 5)
    task = next(t for t in inputs["tasks"]
                if t["kind"] == "quadratic" and t["form"] == "pd" and t["check"] == "strong")
    out = workloads.run_task(task, {})
    assert checker.check(task, out)[0]
    assert not checker.check(task, replace(out, minimum=out.minimum * 1.01))[0]
    assert not checker.check(task, replace(out, verdict="fail"))[0]


def test_checker_flags_a_corrupted_syzygy():
    from cxkit.diffop import OperatorMatrix
    checker = worker.Checker("syzygy", 5)
    task, out = _run("syzygy", "compat")
    assert checker.check(task, out)[0]
    b = out["b"]
    rows = [[b[i, j] for j in range(b.cols)] for i in range(b.rows)]
    rows[0][0] = rows[0][0] + rows[0][0].__class__.one(rows[0][0].vars)
    bad = dict(out, b=OperatorMatrix.from_entries(b.signature, rows))
    assert not checker.check(task, bad)[0]
    # one row still annihilates A but generates too small a module
    first = [[b[0, j] for j in range(b.cols)]]
    bad = dict(out, b=OperatorMatrix.from_entries(b.signature, first))
    assert not checker.check(task, bad)[0]


def test_riemann_operator_annihilates_symmetric_gradient():
    for module, n in (("symgrad3", 3), ("symgrad4", 4)):
        sig, rows = workloads.module_rows(module)
        from cxkit.diffop import OperatorMatrix
        a = OperatorMatrix.from_entries(sig, rows)
        b = worker.riemann_operator(sig, n)
        assert (b @ a).is_zero and not b.is_zero


def test_bundle_comparison_flags_changes():
    ref = json.loads((HERE / "reference" / "fixtures.json").read_text())
    assert oracles.compare_bundle(ref, ref) == []
    bad = json.loads(json.dumps(ref))
    bad["fixtures"][0]["checks"][next(iter(bad["fixtures"][0]["checks"]))] = False
    assert oracles.compare_bundle(bad, ref)
    bad = json.loads(json.dumps(ref))
    suite = next(f for f in bad["fixtures"] if f["name"] == "ellipticity-suite")
    suite["symmetric_gradient"]["minimum"] += 1e-6
    assert oracles.compare_bundle(bad, ref)


def test_quadratic_operator_text_round_trips_through_the_dsl():
    from cxkit import dsl
    a = workloads.quadratic_form(__import__("random").Random(0), 3, "pd")
    doc = dsl.parse(workloads.spec_text({"kind": "ellipticity", "matrix": a}))
    assert doc.operators["Q"] == workloads.quadratic_operator(a)


def test_pass_count_is_fixed_by_workload_and_seconds():
    for workload in metrics.WORKLOADS:
        assert worker.pass_count(workload, 1) == 2
        assert worker.pass_count(workload, 20) == worker.pass_count(workload, 20) >= 2


def test_speed_is_relative_to_the_reference_probe():
    ref = speed.REFERENCE_PROBE_S
    assert speed.speed([ref, ref]) == pytest.approx(1.0)
    # twice as slow a machine: a task's 6 s are 3 reference seconds
    assert 6.0 * speed.speed([2 * ref, 2 * ref]) == pytest.approx(3.0)


def test_sampler_probes_during_the_region_and_leaves_its_time_out():
    import time
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            sum(range(1000))
        elapsed = time.perf_counter() - t0
    assert len(sampler.edges) == 2 and len(sampler.inside) >= 2
    assert 0 < sampler.net(elapsed) < elapsed
    assert sampler.speed() > 0


def test_wrapper_cost_is_small_and_positive():
    assert 0.0 <= tracing.wrapper_cost(calls=2000, repeats=2) < 1e-3
