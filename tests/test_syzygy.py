"""Syzygies and compatibility complexes over the polynomial ring."""

import json
from pathlib import Path

import pytest

from cxkit.complexes import Complex, de_rham_complex
from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.fixtures import planar_flow_complex, symmetric_gradient_complex
from cxkit.poly import GaussianRational, Poly
from cxkit.syzygy import (
    BudgetExceeded,
    compatibility_operator,
    extend_to_complex,
    groebner_basis,
    interreduce,
    module_equivalent,
    syzygies,
)

SIG3 = spatial_signature(3)


def _grad(sig=SIG3):
    return OperatorMatrix.from_entries(
        sig, [[Poly.variable(sig.vars, "d1")],
              [Poly.variable(sig.vars, "d2")],
              [Poly.variable(sig.vars, "d3")]])


# ---------------------------------------------------------------------------
# Groebner machinery


def test_groebner_basis_membership():
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    gens = [(x * x - y,), (x * y - Poly.one(vars),)]
    gb = groebner_basis(gens)
    # x (xy - 1) - y (x^2 - y) = y^2 - x is in the ideal
    from cxkit.syzygy import _is_zero, _leading, _reduce

    leads = [_leading(g) for g in gb]
    member = (y * y - x,)
    assert _is_zero(_reduce(member, gb, leads))
    non_member = (x + Poly.one(vars),)
    assert not _is_zero(_reduce(non_member, gb, leads))


def test_interreduce_deterministic():
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    gens = [(x,), (x + y,), (y,)]
    r1 = interreduce(gens, vars)
    r2 = interreduce(list(reversed(gens)), vars)
    assert r1 == r2
    assert len(r1) == 2


def test_budget_exceeded():
    vars = tuple(f"x{k}" for k in range(4))
    gens = []
    for a in range(4):
        for b in range(4):
            if a != b:
                p = (Poly.variable(vars, vars[a]) ** 3
                     - Poly.variable(vars, vars[b]) ** 2)
                gens.append((p,))
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, budget=3)


# ---------------------------------------------------------------------------
# Syzygies of classical operators


def test_syzygy_rows_annihilate():
    rows = [(Poly.variable(SIG3.vars, f"d{k}"),) for k in (1, 2, 3)]
    syz = syzygies(rows, SIG3.vars)
    for b in syz:
        total = Poly.zero(SIG3.vars)
        for coeff, (row,) in zip(b, rows):
            total = total + coeff * row
        assert total.is_zero


def test_compatibility_of_gradient_is_curl():
    b = compatibility_operator(_grad())
    assert (b @ _grad()).is_zero
    curl = de_rham_complex(3).op(1)
    assert module_equivalent(b, curl)


def test_extend_gradient_resolution():
    ops = extend_to_complex(_grad())
    assert [ops[0].cols] + [o.rows for o in ops] == [1, 3, 3, 1]
    assert Complex(ops).is_complex()


@pytest.mark.parametrize("steps", [0, -1])
def test_extend_rejects_max_steps_below_one(steps):
    with pytest.raises(ValueError, match=f"max_steps must be at least 1, got {steps}"):
        extend_to_complex(_grad(), max_steps=steps)


def test_extend_step_limit_is_budget_exceeded():
    # grad, curl, div: the third step finds the trivial kernel
    with pytest.raises(BudgetExceeded, match="no resolution within 2 steps"):
        extend_to_complex(_grad(), max_steps=2)
    assert len(extend_to_complex(_grad(), max_steps=3)) == 3


def test_trivial_kernel_gives_empty_operator():
    sig = spatial_signature(1)
    op = OperatorMatrix.scalar(sig, Poly.variable(sig.vars, "d1"))
    b = compatibility_operator(op)
    assert b.rows == 0


def test_symmetric_gradient_compatibility():
    sg = symmetric_gradient_complex()
    b = compatibility_operator(sg.op(0))
    assert (b @ sg.op(0)).is_zero
    assert module_equivalent(b, sg.op(1))


def test_planar_flow_compatibility():
    pf = planar_flow_complex()
    b = compatibility_operator(pf.op(0))
    assert module_equivalent(b, pf.op(1))


def test_module_equivalent_rejects_different_modules():
    curl = de_rham_complex(3).op(1)
    grad_rows = OperatorMatrix.from_entries(
        SIG3, [[Poly.variable(SIG3.vars, "d1"),
                Poly.variable(SIG3.vars, "d2"),
                Poly.variable(SIG3.vars, "d3")]])
    assert not module_equivalent(curl, grad_rows)


def test_module_equivalent_shape_mismatch():
    grad = _grad()
    curl = de_rham_complex(3).op(1)
    assert not module_equivalent(grad, curl)


# ---------------------------------------------------------------------------
# Pinned Buchberger output: the pair order, the reducer choice and every basis
# element decide which compatibility operator comes out, so a change to the
# Groebner machinery must keep these bytes.  Regenerate the data file with
# ``PYTHONPATH=src python tests/test_syzygy.py`` only for a deliberate change
# of the basis.

PINNED = Path(__file__).parent / "data" / "syzygy_pinned.json"
# Each generator of the four-generator module once in each position.
LATIN_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
RESCALE = ("2", "-1/2", "3/4", "-3")


def _module(name: str):
    """The signature and operator rows of a pinned module."""
    n = {"four-generator": 3, "symgrad3": 3, "symgrad4": 4, "grad5": 5}[name]
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    if name == "four-generator":
        d1, d2, d3 = d
        return sig, [[d1 * d1 + d2 * d3, d1], [d1 * d2, d2 + d3],
                     [d3 * d3 - d1 * d2, d1 + d2], [d2 * d2, d3]]
    if name == "grad5":
        return sig, [[x] for x in d]
    z = Poly.zero(sig.vars)
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [z] * n
            row[i], row[j] = d[j], d[i]
            rows.append(row)
    return sig, rows


def _pinned_cases():
    """(key, operator) for every pinned input."""
    sig, rows = _module("four-generator")
    for scales in (None, RESCALE):
        for order in LATIN_ORDERS:
            ents = [[p.scale(GaussianRational.of(scales[k])) if scales else p
                     for p in rows[k]] for k in order]
            key = "four-generator " + "".join(map(str, order))
            yield key + (" rescaled" if scales else ""), OperatorMatrix.from_entries(sig, ents)
    for name in ("symgrad3", "symgrad4", "grad5"):
        sig, rows = _module(name)
        yield name, OperatorMatrix.from_entries(sig, rows)


def _pinned_outputs() -> dict:
    out = {}
    for key, op in _pinned_cases():
        ops = extend_to_complex(op)
        # the compatibility operator of ``op``, then each one's own
        out[key] = {"operators": [str(o.body) for o in ops[1:]],
                    "ranks": [op.cols] + [o.rows for o in ops]}
    return out


def test_buchberger_output_is_pinned():
    got = json.dumps(_pinned_outputs(), indent=1, sort_keys=True) + "\n"
    assert got.encode() == PINNED.read_bytes()


def test_symmetric_gradient_3d_resolution():
    sig, rows = _module("symgrad3")
    ops = extend_to_complex(OperatorMatrix.from_entries(sig, rows))
    assert [ops[0].cols] + [o.rows for o in ops] == [3, 6, 6, 3]
    assert [o.order() for o in ops] == [1, 2, 1]


@pytest.mark.parametrize("key, pairs", [("four-generator 3210", 121),
                                        ("four-generator 2301 rescaled", 43),
                                        ("symgrad3", 18)])
def test_budget_exceeded_at_pinned_pair_count(key, pairs):
    """Buchberger processes exactly ``pairs`` S-pairs on these inputs."""
    op = dict(_pinned_cases())[key]
    compatibility_operator(op, budget=pairs)
    with pytest.raises(BudgetExceeded):
        compatibility_operator(op, budget=pairs - 1)
