"""Syzygies and compatibility complexes over the polynomial ring."""

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
    gb = groebner_basis(gens, vars)
    # x (xy - 1) - y (x^2 - y) = y^2 - x is in the ideal
    from cxkit.syzygy import _is_zero, _reduce

    member = (y * y - x,)
    assert _is_zero(_reduce(member, gb, vars))
    non_member = (x + Poly.one(vars),)
    assert not _is_zero(_reduce(non_member, gb, vars))


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
        groebner_basis(gens, vars, budget=3)


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
