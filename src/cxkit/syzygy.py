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

A vector of R^npos over n variables is packed once, where it enters, into
one dict over one denominator: ``(npos - pos) << _WIDTH * (n + 1) | key``
maps to the Gaussian-integer numerator of ``x^key`` at ``pos``.  The tag sits
above the key's degree field, so int order is POT+grlex and ``max`` gives the
leading term.  A reduction updates a private dict in place, one fused step
(``cxkit.poly._step``, the step ``Poly.exact_div`` takes) over the reducer's
terms per removed term, keeping each position's terms in the order its own
``Poly`` would; only outputs are unpacked.

For :func:`module_equivalent` an operator keeps its rows packed over a ring's
variables and their Groebner basis, in the slot where ``cxkit.diffop`` keeps
its adjoint and symbols, so an operator compared again (a reference that
many results are checked against) is packed and reduced to a basis once.
Kept rows and records are only read: each reduction steps on a copy.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import lcm
from typing import Sequence

from cxkit.diffop import OperatorMatrix
from cxkit.poly import (_WIDTH, Poly, _cancel, _key_divides, _key_lcm,
                        _poly_nonzero, _quotient, _step)

DEFAULT_PAIR_BUDGET = 10_000

Element = tuple[Poly, ...]


class BudgetExceeded(ValueError):
    """Raised when Buchberger exceeds its S-pair budget, or a resolution its
    step limit."""


# ---------------------------------------------------------------------------
# Packed vectors ``(num, den)``, numerators ``(re, im)``.  A reducer is the
# record ``(max(num), num, den, highest total degree)``; a coefficient factor
# is an int triple ``(cr, ci, cd)`` standing for ``(cr + ci*i) / cd``.


def _packed(elem: Element, n: int, npos: int | None = None) -> tuple[dict, int]:
    """``elem`` over ``n`` variables packed, over the lcm of its denominators,
    as the first positions of a vector of ``npos`` (by default its own)."""
    npos, shift, den = npos or len(elem), _WIDTH * (n + 1), lcm(*(p._den for p in elem))
    num = {}
    for pos, p in enumerate(elem):
        tag, f = npos - pos << shift, den // p._den
        for k, (re, im) in p._num.items():
            num[tag | k] = (re * f, im * f)
    return num, den


def _unpacked(vec: tuple[dict, int], vars: tuple[str, ...], npos: int) -> Element:
    """The inverse of :func:`_packed`, each position in canonical form; the
    zero positions share one zero."""
    shift = _WIDTH * (len(vars) + 1)
    untagged = (1 << shift) - 1
    parts: list[dict] = [{} for _ in range(npos)]
    for k, c in vec[0].items():
        parts[npos - (k >> shift)][k & untagged] = c
    zero = _poly_nonzero(vars, {}, 1)
    return tuple(_poly_nonzero(vars, part, vec[1]) if part else zero for part in parts)


def _record(num: dict, den: int, n: int) -> tuple:
    untagged = (1 << _WIDTH * (n + 1)) - 1  # a key below its position tag
    return max(num), num, den, max(map(untagged.__and__, num)) >> _WIDTH * n


def _by_tag(records, n: int) -> dict[int, list]:
    """Records grouped, in order, by the position tag of their lead."""
    out: dict[int, list] = {}
    for g in records:
        out.setdefault(g[0] >> _WIDTH * (n + 1), []).append(g)
    return out


def _normalized(num: dict, den: int) -> tuple[dict, int]:
    """A new vector, scaled so the leading coefficient is one."""
    cr, ci, cd = _quotient((1, 0), 1, num[max(num)], den)
    return _cancel({k: (re * cr - im * ci, re * ci + im * cr)
                    for k, (re, im) in num.items()}, den * cd)


def _reduce(num: dict, den: int, reducers: dict, n: int, full=False) -> tuple[dict, int]:
    """Reduce a private vector by ``reducers`` (:func:`_by_tag`; the first
    whose leading term divides takes the step): its leading term until none
    divides it, which over a Groebner basis leaves zero exactly for module
    members; with ``full`` every term, from the leading one down, as a step
    changes only terms below the one it removes."""
    shift = _WIDTH * (n + 1)
    key = max(num, default=None)
    while key is not None:
        tag = key >> shift
        for g in reducers.get(tag, ()):
            if _key_divides(g[0], key):
                c = _quotient(num[key], den, g[1][g[0]], g[2])
                num, den = _step(num, den, g, *c, key - g[0], n)
                break
        else:
            if not full:
                break
            key = key if tag in reducers else tag << shift  # skip a bare position
        key = max((k for k in num if k < key), default=None) if full else max(num, default=None)
    return num, den


def _groebner(vecs, n: int, budget: int) -> list[tuple]:
    """:func:`groebner_basis` on packed vectors over ``n`` variables: the
    records of the result."""
    if budget < 0:
        raise ValueError(f"S-pair budget must be non-negative, got {budget}")
    shift, seq, done = _WIDTH * (n + 1), count(), count(1)
    low = (1 << shift) - 1
    basis: list[tuple] = []
    active: dict[int, list] = {}  # per tag, the records no later lead divides
    pairs: list[tuple] = []  # (lcm, -tag, seq, gi, gj): lcm is a key

    def add(num: dict, den: int) -> None:
        g = _record(*_normalized(num, den), n)
        basis.append(g)
        tag, exp = g[0] >> shift, g[0] & low
        olds = active.get(tag, [])
        # B_k on the old pairs in the same position
        old = len(pairs)
        pairs[:] = [p for p in pairs if not (
            p[1] == -tag and _key_divides(exp, p[0])
            and _key_lcm(p[3][0], exp, n) != p[0]
            and _key_lcm(p[4][0], exp, n) != p[0])]
        if len(pairs) != old:
            heapify(pairs)
        # M and F on the new pairs
        new = [(_key_lcm(h[0], exp, n), h) for h in olds]
        lcms: set = set()
        for m, h in new:
            if m in lcms or any(o != m and _key_divides(o, m) for o, _ in new):
                continue
            lcms.add(m)
            heappush(pairs, (m, -tag, next(seq), h, g))
        active[tag] = [h for h in olds if not _key_divides(g[0], h[0])] + [g]

    for num, den in vecs:
        if num:
            add(num, den)
    while pairs:
        m, _, _, gi, gj = heappop(pairs)
        if next(done) > budget:  # S-pairs processed
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        # basis elements are monic: s = x^si * gi - x^sj * gj
        s = _step({}, 1, gi, -1, 0, 1, m - (gi[0] & low), n)
        num, den = _reduce(*_step(*s, gj, 1, 0, 1, m - (gj[0] & low), n), active, n)
        if num:
            add(num, den)
    return [g for g in basis if any(g is h for h in active[g[0] >> shift])]


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
    raises BudgetExceeded past it, and ValueError for a negative one."""
    vars = next((p.vars for g in gens[:1] for p in g), ())
    gb = _groebner([_packed(g, len(vars)) for g in gens], len(vars), budget)
    return [_unpacked(g[1:3], vars, len(gens[0])) for g in gb]


def _interreduce(items: list[tuple], n: int) -> list[tuple[dict, int]]:
    """:func:`interreduce` on the records of monic packed vectors over ``n``
    variables, no leading term dividing another's, such as the syzygy
    positions of :func:`_groebner`'s records; their dicts may change."""
    reduced = []
    for i, b in enumerate(items):
        # keeps b's leading term; b reduces no later element, so may change
        v = _reduce(b[1], b[2], _by_tag(reduced + items[i + 1:], n), n, full=True)
        reduced.append(_record(*v, n))
    # leading position, then exponent from the highest down: a full order
    reduced.sort(key=lambda g: -g[0])
    return [g[1:3] for g in reduced]


def interreduce(basis: Sequence[Element]) -> list[Element]:
    """The reduced Groebner basis of the module a Groebner basis ``basis``
    generates: drop elements whose leading terms are divisible by another's,
    then fully reduce each kept element by the others, so that no term of
    any element is divisible by another element's leading term, and scale
    each to leading coefficient one.  That basis is unique for the module
    and the order; the output is sorted for determinism."""
    vars = next((p.vars for b in basis[:1] for p in b), ())
    n, shift = len(vars), _WIDTH * (len(vars) + 1)
    items = [_record(*_normalized(*v), n) for v in (_packed(b, n) for b in basis) if v[0]]
    # of two equal leading terms the earlier is kept
    kept = [b for i, b in enumerate(items) if not any(
        j != i and o[0] >> shift == b[0] >> shift and _key_divides(o[0], b[0])
        and (o[0] != b[0] or j < i) for j, o in enumerate(items))]
    return [_unpacked(v, vars, len(basis[0])) for v in _interreduce(kept, n)]


# ---------------------------------------------------------------------------
# Syzygies


def syzygies(rows: Sequence[Element], vars, *,
             budget: int = DEFAULT_PAIR_BUDGET) -> list[Element]:
    """Generators of the syzygy module {b in R^k : sum_i b_i rows_i = 0}."""
    k, n = len(rows), len(vars)
    extended = [_packed(row, n, len(row) + k) for row in rows]
    for i, (num, den) in enumerate(extended):
        num[k - i << _WIDTH * (n + 1)] = (den, 0)  # the unit e_i
    # the first part vanishes where the leading tag is at most k; each
    # trailing position keeps its tag in R^k; Buchberger's records are monic,
    # and no lead of them divides another's: each is reduced by the older
    # ones and drops those it divides, and the inputs there are distinct e_i
    syz = [g for g in _groebner(extended, n, budget) if g[0] >> _WIDTH * (n + 1) <= k]
    return [_unpacked(v, tuple(vars), k) for v in _interreduce(syz, n)]


def compatibility_operator(op: OperatorMatrix, *,
                           budget: int = DEFAULT_PAIR_BUDGET) -> OperatorMatrix:
    """A generating compatibility operator B with B op = 0 (rows of B generate
    the left kernel).  Returns a 0 x rows operator when the kernel is trivial."""
    syz = syzygies(op.body.entries, op.signature.vars, budget=budget)
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


def _packed_rows(op: OperatorMatrix, vars: tuple[str, ...]) -> tuple:
    """The rows of ``op`` lifted to ``vars`` and packed, kept on ``op``."""
    return op._kept(("rows", vars), lambda: tuple(
        _packed(r, len(vars)) for r in op.body.lift(vars).entries))


def _rows_basis(op: OperatorMatrix, vars: tuple[str, ...]) -> dict:
    """The Groebner basis of :func:`_packed_rows`, grouped by :func:`_by_tag`,
    kept on ``op``; a call that runs out of budget keeps nothing."""
    return op._kept(("groebner", vars), lambda: _by_tag(
        _groebner(_packed_rows(op, vars), len(vars), DEFAULT_PAIR_BUDGET), len(vars)))


def module_equivalent(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Do the rows of a and b generate the same submodule?  Each operator
    keeps its rows packed over a's variables and their Groebner basis."""
    if a.cols != b.cols:
        return False
    vars = a.signature.vars
    rows = [_packed_rows(m, vars) for m in (a, b)]
    gbs = [_rows_basis(m, vars) for m in (a, b)]
    # each reduction steps on a copy: kept rows and records are only read
    return all(not _reduce(dict(r), d, gbs[1 - i], len(vars))[0]
               for i in (0, 1) for r, d in rows[i])


__all__ = ["BudgetExceeded", "DEFAULT_PAIR_BUDGET", "groebner_basis", "interreduce",
           "syzygies", "compatibility_operator", "extend_to_complex", "module_equivalent"]
