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

Buchberger selects S-pairs by smallest lcm from a heap and prunes them with
the Gebauer-Moeller criteria.  The syzygies are then fully reduced, so each
compatibility operator is the reduced Groebner basis of the syzygy module
under POT+grlex: unique for the module and the order, whatever pairs the
algorithm took.  The rows of the input fix the module's coordinates, so
another row order or scaling of the input can give another operator.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import gcd
from typing import Sequence

from cxkit.diffop import OperatorMatrix
from cxkit.poly import Poly, _key_divides, _key_lcm

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
# ``_sub_scaled``): a lead is ``(pos, key, (re, im), den)`` with ``key`` the
# packed monomial (int order is grlex, a product's key the sum of the keys)
# and coefficient ``(re + im*i) / den``, and a coefficient factor is an int
# triple ``(cr, ci, cd)`` standing for ``(cr + ci*i) / cd``.


def _leading(elem: Element):
    """(position, key, numerator, denominator) of the POT+grlex leading
    term; None if zero.  Lower position dominates."""
    for pos, p in enumerate(elem):
        if not p.is_zero:
            return (pos, *p._leading_num())
    return None


def _is_zero(elem: Element) -> bool:
    return all(p.is_zero for p in elem)


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
    return tuple(p if p.is_zero else p._scaled(*c) for p in elem)


def _sub_shifted(elem: Element, g: Element, c: tuple[int, int, int],
                 shift: int) -> Element:
    """``elem - c * x^shift * g``, skipping the components where ``g`` is
    zero."""
    return tuple(p if q.is_zero else p._sub_scaled(q, *c, shift) for p, q in zip(elem, g))


def _reduce(elem: Element, basis: Sequence[Element], leads: Sequence) -> Element:
    """Leading-term reduction: rewrite the leading term by ``basis`` (whose
    elements have the leads ``leads``) until no basis leading term divides
    it.  Lower terms are left unreduced; over a Groebner basis the result is
    zero exactly when ``elem`` lies in the module the basis generates."""
    result = elem
    while True:
        lead = _leading(result)
        if lead is None:
            return result
        pos, exp, num, den = lead
        for g, (gpos, gexp, gnum, gden) in zip(basis, leads):
            if gpos == pos and _key_divides(gexp, exp):
                result = _sub_shifted(result, g, _quotient(num, den, gnum, gden), exp - gexp)
                break
        else:
            return result


def _reduce_fully(elem: Element, basis: Sequence[Element], leads: Sequence) -> Element:
    """Full reduction: rewrite every term of ``elem`` divisible by a leading
    term of ``basis`` until none is.  Positions are done in order: a basis
    element is zero before its leading position, so a step at one position
    leaves the earlier ones alone, and within a position it changes only
    terms below the one it removes."""
    by_pos: dict[int, list] = {}
    for g, (gpos, gexp, gnum, gden) in zip(basis, leads):
        by_pos.setdefault(gpos, []).append((g, gexp, gnum, gden))
    result = elem
    for pos, reducers in sorted(by_pos.items()):
        kept: set = set()  # keys at ``pos`` that no leading term divides
        while True:
            lead = result[pos]._leading_num(kept)
            if lead is None:
                break
            exp, num, den = lead
            for g, gexp, gnum, gden in reducers:
                if _key_divides(gexp, exp):
                    result = _sub_shifted(result, g, _quotient(num, den, gnum, gden), exp - gexp)
                    break
            else:
                kept.add(exp)
    return result


def groebner_basis(gens: Sequence[Element], *,
                   budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """A Groebner basis of the module ``gens`` generate, under POT+grlex.

    Buchberger with normal selection: S-pairs (only between elements that
    share the leading position) wait in a heap keyed on their lcm: the
    smallest in graded lex order first, then the lowest position, then the
    earliest pair.  Each new element prunes the pairs with the Gebauer-
    Moeller criteria (1988): B_k removes an old pair whose lcm the new
    leading term divides, unless the new term's lcm with either element of
    the pair is that lcm; M removes a new pair whose lcm another new pair's
    lcm divides strictly; and F keeps one new pair per lcm.  Buchberger's product
    (coprime) criterion is not used: it does not hold for module elements
    such as the extended rows ``(f_i, e_i)``.  An element whose leading
    term a newer one divides stops making pairs and reducing, and is left
    out of the result.

    The budget counts S-pairs processed, not pairs a criterion removes;
    raises BudgetExceeded past it."""
    basis: list[Element] = []
    leads: list = []
    active: list[int] = []  # elements whose leading term no later one divides
    pairs: list[tuple] = []  # (lcm, position, seq, i, j): lcm is a key
    seq = count()

    def add(h: Element) -> None:
        k = len(basis)
        lead = _leading(h)
        pos, exp = lead[0], lead[1]
        n = len(h[pos].vars)
        basis.append(h)
        leads.append(lead)
        # B_k on the old pairs in the same position
        old = len(pairs)
        pairs[:] = [p for p in pairs if not (
            p[1] == pos and _key_divides(exp, p[0])
            and _key_lcm(leads[p[3]][1], exp, n) != p[0]
            and _key_lcm(leads[p[4]][1], exp, n) != p[0])]
        if len(pairs) != old:
            heapify(pairs)
        # M and F on the new pairs
        new = [(_key_lcm(leads[i][1], exp, n), i) for i in active if leads[i][0] == pos]
        lcms: set = set()
        for lcm, i in new:
            if lcm in lcms or any(m != lcm and _key_divides(m, lcm) for m, _ in new):
                continue
            lcms.add(lcm)
            heappush(pairs, (lcm, pos, next(seq), i, k))
        active[:] = [i for i in active
                     if not (leads[i][0] == pos and _key_divides(exp, leads[i][1]))]
        active.append(k)

    for g in gens:
        if not _is_zero(g):
            add(_normalize(g))
    processed = 0
    while pairs:
        lcm, _, _, i, j = heappop(pairs)
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        # basis elements are monic: s = x^si * basis[i] - x^sj * basis[j]
        si, sj = lcm - leads[i][1], lcm - leads[j][1]
        s = tuple(p if p.is_zero else p._scaled(1, 0, 1, si) for p in basis[i])
        s = _sub_shifted(s, basis[j], (1, 0, 1), sj)
        s = _reduce(s, [basis[k] for k in active], [leads[k] for k in active])
        if not _is_zero(s):
            add(_normalize(s))
    return [basis[k] for k in active]


def interreduce(basis: Sequence[Element]) -> list[Element]:
    """The reduced Groebner basis of the module a Groebner basis ``basis``
    generates: drop elements whose leading terms are divisible by another's,
    then fully reduce each kept element by the others, so that no term of
    any element is divisible by another element's leading term, and scale
    each to leading coefficient one.  That basis is unique for the module
    and the order; the output is sorted for determinism."""
    items = [_normalize(b) for b in basis if not _is_zero(b)]
    item_leads = [_leading(b) for b in items]
    kept: list[Element] = []
    leads = []
    for i, (b, lb) in enumerate(zip(items, item_leads)):
        redundant = False
        for j, lo in enumerate(item_leads):
            if i == j:
                continue
            if lo[0] == lb[0] and _key_divides(lo[1], lb[1]):
                if lb[1] == lo[1] and j > i:
                    continue  # keep the earlier of two equal leading terms
                redundant = True
                break
        if not redundant:
            kept.append(b)
            leads.append(lb)
    reduced = []
    for i, b in enumerate(kept):
        # no other leading term divides this one's, so the reduction keeps
        # it: leads[:i] + leads[i + 1:] stay the leads of the others
        reduced.append(_reduce_fully(b, reduced + kept[i + 1:], leads[:i] + leads[i + 1:]))
    reduced.sort(key=_sort_key)
    return reduced


def _sort_key(elem: Element):
    """Leading position, then leading exponent from the highest down: the
    leading terms of a reduced basis differ, so this orders it fully."""
    pos, key, _, _ = _leading(elem)
    return pos, -key


# ---------------------------------------------------------------------------
# Syzygies


def syzygies(rows: Sequence[Element], vars, *,
             budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """Generators of the syzygy module {b in R^k : sum_i b_i rows_i = 0}."""
    if not rows:
        return []
    c, k = len(rows[0]), len(rows)
    zero, one = Poly.zero(vars), Poly.one(vars)
    extended = [tuple(row) + tuple(one if j == i else zero for j in range(k))
                for i, row in enumerate(rows)]
    gb = groebner_basis(extended, budget=budget)
    syz = [g[c:] for g in gb if all(p.is_zero for p in g[:c])]
    return interreduce(syz)


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
