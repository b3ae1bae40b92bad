"""Block literals of the spec language, the way the fixture corpus enters its
displays, against plain entry tables; the bundle of a warm run against that
of a cold one; and the pinned bundle against the benchmark's reference."""

import importlib.util
import json
from pathlib import Path

import pytest

from cxkit import cli, complexes, dsl, fixtures, sphere
from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.poly import Poly

from _helpers import cold_start

SIG = spatial_signature(2)


def numbered(rows: int, cols: int, start: int = 1) -> OperatorMatrix:
    """Distinct entries k * d1 + d2, so any misplaced entry shows."""
    d1, d2 = (Poly.variable(SIG.vars, v) for v in SIG.vars)
    return OperatorMatrix.from_entries(SIG, [
        [d1.scale(start + i * cols + j) + d2 for j in range(cols)]
        for i in range(rows)])


def spec_text(blocks: dict[str, OperatorMatrix], value: str) -> str:
    """A spec that enters each of ``blocks`` flat, then ``X = value``."""
    lines = ["vars: d1 d2"]
    for name, op in blocks.items():
        rows = ", ".join("[" + ", ".join(str(p) for p in row) + "]" for row in table(op))
        lines.append(f"operator {name} = [{rows}]")
    return "\n".join(lines + [f"operator X = {value}", ""])


def literal(blocks: dict[str, OperatorMatrix], value: str) -> OperatorMatrix:
    return dsl.parse(spec_text(blocks, value)).operators["X"]


def table(op: OperatorMatrix) -> list[list[Poly]]:
    return [[op[i, j] for j in range(op.cols)] for i in range(op.rows)]


def test_assemble_glues_block_rows():
    a, b = numbered(1, 2, 1), numbered(1, 3, 10)
    c, d = numbered(2, 2, 20), numbered(2, 3, 30)
    glued = literal({"a": a, "b": b, "c": c, "d": d}, "[[a, b], [c, d]]")
    want = [table(a)[0] + table(b)[0]] + [x + y for x, y in zip(table(c), table(d))]
    assert glued == OperatorMatrix.from_entries(SIG, want)


BLOCKS = {"A12": numbered(1, 2), "A21": numbered(2, 1), "A13": numbered(1, 3),
          "A11": numbered(1, 1)}


@pytest.mark.parametrize("rows", [
    [["A12", "A21"]],            # heights differ: a ragged block row
    [["A12"], ["A13"]],          # widths differ: a ragged block column
    [["A12", "A11"], ["A12"]],   # short second row: a ragged matrix row
])
def test_assemble_rejects_ragged_rows(rows):
    value = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    with pytest.raises(dsl.SpecError, match="ragged") as exc:
        literal(BLOCKS, value)
    assert exc.value.line == len(BLOCKS) + 2


def _quarters(op: OperatorMatrix, k: int) -> dict[str, OperatorMatrix]:
    """The blocks P, Q, R, S of ``op`` = [[P, Q], [R, S]], P being k x k."""
    n = op.rows
    return {name: OperatorMatrix(SIG, op.body.block(r0, r1, c0, c1))
            for name, (r0, r1, c0, c1) in (("P", (0, k, 0, k)), ("Q", (0, k, k, n)),
                                           ("R", (k, n, 0, k)), ("S", (k, n, k, n)))}


def test_reverse_blocks_permutes_entries():
    """A display entered in the other block order is the same matrix with
    its rows and columns permuted."""
    op = numbered(5, 5)
    perm = [3, 4, 0, 1, 2]  # blocks (3, 2) become (2, 3)
    blocks = _quarters(op, 3)
    assert literal(blocks, "[[P, Q], [R, S]]") == op
    got = literal(blocks, "[[S, R], [Q, P]]")
    assert table(got) == [[op[perm[i], perm[j]] for j in range(5)] for i in range(5)]


def test_reverse_blocks_rejects_bad_profile():
    """Blocks whose sizes do not line up are refused at the first misfit."""
    blocks = _quarters(numbered(5, 5), 3)
    text = spec_text(blocks, "[[S, Q], [R, P]]")
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert str(exc.value) == (f"line 6, column {text.split(chr(10))[5].index('Q') + 1}: "
                              "ragged block row: 3 rows where the first operator has 2")


def test_scale_last_row():
    op = numbered(3, 2)
    want = table(op)
    want[-1] = [p.scale(-1) for p in want[-1]]
    blocks = {"top": OperatorMatrix(SIG, op.body.block(0, 2, 0, 2)),
              "last": OperatorMatrix(SIG, op.body.block(2, 3, 0, 2))}
    assert literal(blocks, "[[top], [-last]]") == OperatorMatrix.from_entries(SIG, want)


REFERENCE = Path(__file__).resolve().parent / "data" / "fixtures_bundle.json"
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def test_warm_bundle_equals_cold_bundle(tmp_path, monkeypatch):
    """``cxkit fixtures`` twice in one process: the first run starts from
    ``cold_start``, so it builds every complex and runs every numeric search,
    the second reuses the shared complexes and what they keep, and both
    write the reference bundle byte for byte.  The cold run searches three
    times, the symmetric gradient's two checks in 2 sphere variables and
    the Stokes q = 1 DN check in 3, and the second 2-variable search reads
    the first one's points."""
    cold_start()
    searches = []
    minimize = sphere._sphere_minimize
    monkeypatch.setattr(sphere, "_sphere_minimize",
                        lambda fn, dim, *args: searches.append(dim) or minimize(fn, dim, *args))
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    assert cli.main(["fixtures", "--json", str(cold)]) == 0
    searched = fixtures._symmetric_gradient_injectivity.cache_info()
    assert (searched.misses, searched.hits) == (1, 1)  # searched once, read once
    assert sorted(searches) == [2, 2, 3]
    built = sphere._sphere_points.cache_info()
    assert (built.misses, built.hits) == (2, 1)
    assert complexes.de_rham_complex.cache_info().hits > 0
    hits = complexes.de_rham_complex.cache_info().hits
    assert cli.main(["fixtures", "--json", str(warm)]) == 0
    assert complexes.de_rham_complex.cache_info().hits > hits
    assert warm.read_bytes() == cold.read_bytes() == REFERENCE.read_bytes()


def test_bundle_passes_the_benchmark_oracle():
    """The pinned bundle against the reference the benchmark checks every
    ``cxkit fixtures`` against, with the benchmark's own comparison: exact
    fields equal, floats within a relative 1e-9, minimisers unit vectors."""
    spec = importlib.util.spec_from_file_location("oracles", BENCHMARK / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert oracles.FLOAT_TOL == 1e-9
    reference = json.loads((BENCHMARK / "reference" / "fixtures.json").read_text())
    assert oracles.compare_bundle(json.loads(REFERENCE.read_text()), reference) == []
