"""Block gluing helpers of the fixture corpus, against plain entry tables."""

import pytest

from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.fixtures import _assemble, _reverse_blocks, _scale_last_row
from cxkit.poly import Poly

SIG = spatial_signature(2)


def numbered(rows: int, cols: int, start: int = 1) -> OperatorMatrix:
    """Distinct entries k * d1 + d2, so any misplaced entry shows."""
    d1, d2 = (Poly.variable(SIG.vars, v) for v in SIG.vars)
    return OperatorMatrix.from_entries(SIG, [
        [d1.scale(start + i * cols + j) + d2 for j in range(cols)]
        for i in range(rows)])


def table(op: OperatorMatrix) -> list[list[Poly]]:
    return [[op[i, j] for j in range(op.cols)] for i in range(op.rows)]


def test_assemble_glues_block_rows():
    a, b = numbered(1, 2, 1), numbered(1, 3, 10)
    c, d = numbered(2, 2, 20), numbered(2, 3, 30)
    glued = _assemble(SIG, [[a, b], [c, d]])
    want = [table(a)[0] + table(b)[0]] + [x + y for x, y in zip(table(c), table(d))]
    assert glued == OperatorMatrix.from_entries(SIG, want)


@pytest.mark.parametrize("rows", [
    [[numbered(1, 2), numbered(2, 1)]],                  # heights differ
    [[numbered(1, 2)], [numbered(1, 3)]],                # widths differ
    [[numbered(1, 2), numbered(1, 1)], [numbered(1, 2)]],  # short second row
])
def test_assemble_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="ragged"):
        _assemble(SIG, rows)


def test_reverse_blocks_permutes_entries():
    op = numbered(5, 5)
    perm = [3, 4, 0, 1, 2]  # blocks (3, 2) become (2, 3)
    got = _reverse_blocks(op, (3, 2))
    assert table(got) == [[op[perm[i], perm[j]] for j in range(5)] for i in range(5)]
    assert _reverse_blocks(got, (2, 3)) == op


def test_reverse_blocks_rejects_bad_profile():
    with pytest.raises(ValueError, match="rank profile"):
        _reverse_blocks(numbered(4, 4), (3, 2))


def test_scale_last_row():
    op = numbered(3, 2)
    want = table(op)
    want[-1] = [p.scale(-1) for p in want[-1]]
    assert _scale_last_row(op, -1) == OperatorMatrix.from_entries(SIG, want)
