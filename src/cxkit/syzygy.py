"""Syzygies of constant-coefficient operators via module Groebner bases.

Rows of an operator matrix are elements of a free module over the polynomial
ring (Gaussian-rational coefficients).  A compatibility operator for A is a
generating set of the left kernel {B : B A = 0}; since the coefficients are
constant, operator composition is plain polynomial multiplication and the left
kernel is the syzygy module of the rows of A.

Syzygies are computed by the standard elimination trick: run Buchberger on the
extended elements (f_i, e_i) in R^(c+k) with a position-over-term order in
which the first c positions dominate; basis elements whose first part vanishes
are syzygies, read off from the trailing coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from cxkit.diffop import OperatorMatrix
from cxkit.poly import GaussianRational, Poly, grlex_key

DEFAULT_PAIR_BUDGET = 10_000

Element = tuple[Poly, ...]


class BudgetExceeded(Exception):
    """Raised when Buchberger exceeds its S-pair budget."""


# ---------------------------------------------------------------------------
# Leading terms under position-over-term (POT) + graded lex


def _leading(elem: Element):
    """(position, exponent, coeff) of the POT+grlex leading term; None if zero.
    Lower position dominates."""
    for pos, p in enumerate(elem):
        if not p.is_zero:
            exp, coeff = p.leading_term()
            return pos, exp, coeff
    return None


def _is_zero(elem: Element) -> bool:
    return all(p.is_zero for p in elem)


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul(elem: Element, exp: tuple, coeff: GaussianRational, vars) -> Element:
    factor = Poly.monomial(vars, exp, coeff)
    return tuple(p * factor for p in elem)


def _sub(a: Element, b: Element) -> Element:
    return tuple(x - y for x, y in zip(a, b))


def _normalize(elem: Element) -> Element:
    """Scale so the leading coefficient is one."""
    lead = _leading(elem)
    if lead is None:
        return elem
    _, _, coeff = lead
    inv = GaussianRational.one() / coeff
    return tuple(p.scale(inv) for p in elem)


def _reduce(elem: Element, basis: Sequence[Element], vars) -> Element:
    """Leading-term reduction: rewrite the leading term by ``basis`` until no
    basis leading term divides it.  Lower terms are left unreduced, so this is
    not a full reduction; over a Groebner basis the result is zero exactly
    when ``elem`` lies in the module the basis generates."""
    result = elem
    while True:
        lead = _leading(result)
        if lead is None:
            return result
        pos, exp, coeff = lead
        for g in basis:
            gl = _leading(g)
            if gl is None:
                continue
            gpos, gexp, gcoeff = gl
            if gpos == pos and _divides(gexp, exp):
                result = _sub(result, _mono_mul(g, _exp_sub(exp, gexp),
                                                coeff / gcoeff, vars))
                break
        else:
            return result


def groebner_basis(gens: Sequence[Element], vars, *,
                   budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """Buchberger with POT+grlex; S-pairs only between elements sharing the
    leading position.  Raises BudgetExceeded past the S-pair budget."""
    basis = [_normalize(g) for g in gens if not _is_zero(g)]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    while pairs:
        i, j = pairs.pop(0)
        gi, gj = basis[i], basis[j]
        li, lj = _leading(gi), _leading(gj)
        if li is None or lj is None or li[0] != lj[0]:
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        lcm = _exp_lcm(li[1], lj[1])
        s = _sub(
            _mono_mul(gi, _exp_sub(lcm, li[1]), GaussianRational.one() / li[2], vars),
            _mono_mul(gj, _exp_sub(lcm, lj[1]), GaussianRational.one() / lj[2], vars),
        )
        s = _reduce(s, basis, vars)
        if not _is_zero(s) and _leading(s) is not None:
            # only add if the leading term is genuinely new-reducible work
            s = _normalize(s)
            k = len(basis)
            basis.append(s)
            pairs.extend((idx, k) for idx in range(k))
    return basis


def interreduce(basis: Sequence[Element], vars) -> list[Element]:
    """Remove elements whose leading terms are divisible by another's, then
    tail-reduce; output sorted for determinism."""
    kept: list[Element] = []
    items = [_normalize(b) for b in basis if not _is_zero(b)]
    for i, b in enumerate(items):
        lb = _leading(b)
        redundant = False
        for j, other in enumerate(items):
            if i == j:
                continue
            lo = _leading(other)
            if lo is None:
                continue
            if lo[0] == lb[0] and _divides(lo[1], lb[1]):
                if lb[0] == lo[0] and lb[1] == lo[1] and j > i:
                    continue  # keep the earlier of two equal leading terms
                redundant = True
                break
        if not redundant:
            kept.append(b)
    reduced = []
    for i, b in enumerate(kept):
        others = reduced + kept[i + 1:]
        lead = _leading(b)
        pos, exp, coeff = lead
        head = _mono_mul(_unit(len(b), pos, b[0].vars), exp, coeff, b[0].vars)
        tail = _reduce(_sub(b, head), others, b[0].vars)
        reduced.append(_normalize(tuple(h + t for h, t in zip(head, tail))))
    reduced.sort(key=lambda e: _sort_key(e))
    return reduced


def _unit(length: int, pos: int, vars) -> Element:
    return tuple(Poly.one(vars) if k == pos else Poly.zero(vars)
                 for k in range(length))


def _sort_key(elem: Element):
    lead = _leading(elem)
    if lead is None:
        return (1,)
    pos, exp, _ = lead
    total, lex = grlex_key(exp)
    return (0, pos, -total, tuple(-x for x in lex), tuple(str(p) for p in elem))


# ---------------------------------------------------------------------------
# Syzygies


def syzygies(rows: Sequence[Element], vars, *,
             budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """Generators of the syzygy module {b in R^k : sum_i b_i rows_i = 0}."""
    if not rows:
        return []
    c = len(rows[0])
    k = len(rows)
    extended = []
    for i, row in enumerate(rows):
        tail = [Poly.zero(vars)] * k
        tail[i] = Poly.one(vars)
        extended.append(tuple(row) + tuple(tail))
    gb = groebner_basis(extended, vars, budget=budget)
    syz = [g[c:] for g in gb if all(p.is_zero for p in g[:c])]
    return interreduce(syz, vars)


def _op_rows(op: OperatorMatrix) -> list[Element]:
    return [tuple(op[i, j] for j in range(op.cols)) for i in range(op.rows)]


def compatibility_operator(op: OperatorMatrix, *,
                           budget: int = DEFAULT_PAIR_BUDGET) -> OperatorMatrix:
    """A generating compatibility operator B with B op = 0 (rows of B generate
    the left kernel).  Returns a 0 x rows operator when the kernel is trivial."""
    # Left kernel: syzygies of the rows of op viewed in R^cols... a row vector
    # b satisfies b @ op = 0 iff sum_i b_i row_i = 0.
    syz = syzygies(_op_rows(op), op.signature.vars, budget=budget)
    sig = op.signature
    if not syz:
        return OperatorMatrix.zero(sig, 0, op.rows)
    return OperatorMatrix.from_entries(sig, [list(b) for b in syz])


def extend_to_complex(op: OperatorMatrix, *, max_steps: int = 8,
                      budget: int = DEFAULT_PAIR_BUDGET) -> list[OperatorMatrix]:
    """Iterate compatibility operators until the kernel is trivial; returns
    the list [op, B1, B2, ...] forming a complex."""
    ops = [op]
    for _ in range(max_steps):
        b = compatibility_operator(ops[-1], budget=budget)
        if b.rows == 0:
            break
        ops.append(b)
    else:
        raise RuntimeError(f"no resolution within {max_steps} steps")
    return ops


def module_equivalent(a: OperatorMatrix, b: OperatorMatrix, *,
                      budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Do the rows of a and b generate the same submodule?"""
    if a.cols != b.cols:
        return False
    vars = a.signature.vars
    rows_a = _op_rows(a)
    rows_b = [tuple(p.lift(vars) for p in row) for row in _op_rows(b)]
    gb_a = groebner_basis(rows_a, vars, budget=budget)
    gb_b = groebner_basis(rows_b, vars, budget=budget)
    return (all(_is_zero(_reduce(r, gb_b, vars)) for r in rows_a)
            and all(_is_zero(_reduce(r, gb_a, vars)) for r in rows_b))


__all__ = [
    "BudgetExceeded",
    "DEFAULT_PAIR_BUDGET",
    "groebner_basis",
    "interreduce",
    "syzygies",
    "compatibility_operator",
    "extend_to_complex",
    "module_equivalent",
]
