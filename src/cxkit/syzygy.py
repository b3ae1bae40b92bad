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

from math import gcd
from operator import le, sub
from typing import Sequence

from cxkit.diffop import OperatorMatrix
from cxkit.poly import Poly, grlex_key

DEFAULT_PAIR_BUDGET = 10_000

Element = tuple[Poly, ...]


class BudgetExceeded(Exception):
    """Raised when Buchberger exceeds its S-pair budget, or a resolution its
    step limit."""


# ---------------------------------------------------------------------------
# Leading terms under position-over-term (POT) + graded lex
#
# All arithmetic below runs on the Gaussian-integer numerators of the
# entries through the private ``Poly`` kernel (``_leading_num``, ``_scaled``,
# ``_sub_scaled``): a lead is ``(pos, exp, (re, im), den)`` with coefficient
# ``(re + im*i) / den``, and a coefficient factor is an int triple ``(cr,
# ci, cd)`` standing for ``(cr + ci*i) / cd``.


def _leading(elem: Element):
    """(position, exponent, numerator, denominator) of the POT+grlex leading
    term; None if zero.  Lower position dominates."""
    for pos, p in enumerate(elem):
        if not p.is_zero:
            return (pos, *p._leading_num())
    return None


def _is_zero(elem: Element) -> bool:
    return all(p.is_zero for p in elem)


def _divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _quotient(a: tuple[int, int], ad: int, b: tuple[int, int], bd: int):
    """``(cr, ci, cd)`` in lowest terms with ``(cr + ci*i)/cd`` equal to
    ``(a/ad) / (b/bd) = a * conj(b) * bd / (ad * |b|^2)``."""
    (ar, ai), (br, bi) = a, b
    cr, ci, cd = (ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd, ad * (br * br + bi * bi)
    g = gcd(cr, ci, cd)
    return cr // g, ci // g, cd // g


def _normalize(elem: Element) -> Element:
    """Scale so the leading coefficient is one."""
    lead = _leading(elem)
    if lead is None:
        return elem
    _, _, num, den = lead
    c = _quotient((1, 0), 1, num, den)
    return tuple(p._scaled(*c) for p in elem)


def _reduce(elem: Element, basis: Sequence[Element], leads: Sequence) -> Element:
    """Leading-term reduction: rewrite the leading term by ``basis`` (whose
    elements have the leads ``leads``) until no basis leading term divides
    it.  Lower terms are left unreduced, so this is not a full reduction;
    over a Groebner basis the result is zero exactly when ``elem`` lies in
    the module the basis generates."""
    result = elem
    while True:
        lead = _leading(result)
        if lead is None:
            return result
        pos, exp, num, den = lead
        for g, (gpos, gexp, gnum, gden) in zip(basis, leads):
            if gpos == pos and _divides(gexp, exp):
                c = _quotient(num, den, gnum, gden)
                shift = _exp_sub(exp, gexp)
                result = tuple(p._sub_scaled(q, *c, shift) for p, q in zip(result, g))
                break
        else:
            return result


def groebner_basis(gens: Sequence[Element], *,
                   budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """Buchberger with POT+grlex; S-pairs only between elements sharing the
    leading position, taken first in, first out.  Raises BudgetExceeded past
    the S-pair budget."""
    basis = [_normalize(g) for g in gens if not _is_zero(g)]
    leads = [_leading(g) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    cursor = 0
    while cursor < len(pairs):
        i, j = pairs[cursor]
        cursor += 1
        (pi, ei, ni, di), (pj, ej, nj, dj) = leads[i], leads[j]
        if pi != pj:
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        lcm = _exp_lcm(ei, ej)
        ci, cj = _quotient((1, 0), 1, ni, di), _quotient((1, 0), 1, nj, dj)
        si, sj = _exp_sub(lcm, ei), _exp_sub(lcm, ej)
        s = tuple(p._scaled(*ci, si)._sub_scaled(q, *cj, sj)
                  for p, q in zip(basis[i], basis[j]))
        s = _reduce(s, basis, leads)
        if not _is_zero(s):
            s = _normalize(s)
            k = len(basis)
            basis.append(s)
            leads.append(_leading(s))
            pairs.extend((idx, k) for idx in range(k))
    return basis


def interreduce(basis: Sequence[Element], vars) -> list[Element]:
    """Remove elements whose leading terms are divisible by another's, then
    rewrite the leading terms of each kept element's tail (the element minus
    its leading term) by the others.  Lower tail terms are left unreduced,
    so the result is not the fully reduced (canonical) basis.  Output sorted
    for determinism."""
    items = [_normalize(b) for b in basis if not _is_zero(b)]
    item_leads = [_leading(b) for b in items]
    kept: list[Element] = []
    leads = []
    for i, (b, lb) in enumerate(zip(items, item_leads)):
        redundant = False
        for j, lo in enumerate(item_leads):
            if i == j:
                continue
            if lo[0] == lb[0] and _divides(lo[1], lb[1]):
                if lb[1] == lo[1] and j > i:
                    continue  # keep the earlier of two equal leading terms
                redundant = True
                break
        if not redundant:
            kept.append(b)
            leads.append(lb)
    one = Poly.one(vars)
    reduced = []
    for i, (b, (pos, exp, (re, im), den)) in enumerate(zip(kept, leads)):
        # the tail has no term at or above the lead, so neither has its
        # reduction: each reduced element keeps the leading term of its
        # source, and leads[:i] + leads[i + 1:] stay the leads of the others
        tail = list(b)
        tail[pos] = b[pos]._sub_scaled(one, re, im, den, exp)
        tail = list(_reduce(tuple(tail), reduced + kept[i + 1:], leads[:i] + leads[i + 1:]))
        tail[pos] = tail[pos]._sub_scaled(one, -re, -im, den, exp)
        reduced.append(tuple(tail))
    reduced.sort(key=lambda e: _sort_key(e))
    return reduced


def _sort_key(elem: Element):
    lead = _leading(elem)
    if lead is None:
        return (1,)
    pos, exp, _, _ = lead
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
    gb = groebner_basis(extended, budget=budget)
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
    the list [op, B1, B2, ...] forming a complex.  Raises BudgetExceeded if
    the kernel is still nontrivial after ``max_steps`` compatibility
    operators."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    ops = [op]
    for _ in range(max_steps):
        b = compatibility_operator(ops[-1], budget=budget)
        if b.rows == 0:
            break
        ops.append(b)
    else:
        raise BudgetExceeded(f"no resolution within {max_steps} steps")
    return ops


def module_equivalent(a: OperatorMatrix, b: OperatorMatrix, *,
                      budget: int = DEFAULT_PAIR_BUDGET) -> bool:
    """Do the rows of a and b generate the same submodule?"""
    if a.cols != b.cols:
        return False
    vars = a.signature.vars
    rows_a = _op_rows(a)
    rows_b = [tuple(p.lift(vars) for p in row) for row in _op_rows(b)]
    gb_a = groebner_basis(rows_a, budget=budget)
    gb_b = groebner_basis(rows_b, budget=budget)
    leads_a = [_leading(g) for g in gb_a]
    leads_b = [_leading(g) for g in gb_b]
    return (all(_is_zero(_reduce(r, gb_b, leads_b)) for r in rows_a)
            and all(_is_zero(_reduce(r, gb_a, leads_a)) for r in rows_b))


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
