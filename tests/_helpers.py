"""Helpers shared by the symbol tests: a Hypothesis strategy of small
rationals, the stored form of a symbol matrix, term order included, a
complex lifted to carry the parameter ``mu``, a weight as a matrix, a
constant matrix weight and |zeta|^2; shared by the determinant tests: the
block-by-block reference of a split determinant; and shared by every cold
run: ``cold_start``, which empties each cache cxkit keeps."""

import sys
from fractions import Fraction

from hypothesis import strategies as st

from cxkit.diffop import Signature
from cxkit.poly import GaussianRational, Poly, PolyMatrix

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 10]))


def stored(m) -> list:
    """Each entry's variables, numerator terms in storage order and
    denominator: equal only where the entries are stored alike."""
    return [[(p.vars, list(p._num.items()), p._den) for p in row] for row in m.body.entries]


def with_mu(cplx):
    """``cplx`` over its spatial variables and the parameter ``mu``, for the
    builders that take no parameters."""
    return cplx.lift(Signature(cplx.signature.spatial, None, ("mu",)))


def mu_matrix(mu, which, q):
    """The weight mu0_q (``which`` 0) or mu1_q (``which`` 1) as a matrix:
    the identity with the weight applied."""
    k = mu.cplx.rank(q + 1 if which == 0 else q - 1)
    return mu.apply(which, q, mu.cplx.identity(k))


def matrix_weight(cplx, k: int):
    """A k x k constant matrix, neither the identity nor a scalar multiple
    of it."""
    sig = cplx.signature
    return type(cplx.ops[0]).from_entries(sig, [
        [Poly.constant(sig.vars, GaussianRational.of(Fraction(r + 2 * c + 1, 3), r - c))
         for c in range(k)] for r in range(k)])


def norm2(sig: Signature) -> Poly:
    """|zeta|^2, the sum of the squares of ``sig``'s spatial variables."""
    total = Poly.zero(sig.vars)
    for v in sig.spatial:
        z = Poly.variable(sig.vars, v)
        total = total + z * z
    return total


def _odd(order: list) -> bool:
    """True when ``order``, a permutation of 0..n-1, is odd."""
    seen, swaps = set(), 0
    for start in range(len(order)):
        k, j = 0, start
        while j not in seen:
            seen.add(j)
            j, k = order[j], k + 1
        swaps += max(k - 1, 0)
    return swaps % 2 == 1


def split_determinant(m, det, mul):
    """The determinant of the square PolyMatrix ``m`` as stored when it is
    split into blocks, from a reference ``det`` of one block and ``mul`` of
    two polynomials.  The blocks are the connected components of the graph
    whose nodes are rows and columns and whose edges are nonzero entries,
    found by a search from each row in turn.  A component with more rows
    than columns gives zero; otherwise each block is ``det`` of the
    submatrix on its ascending rows and columns, the blocks are multiplied
    in order with ``mul``, and the sign of the row and column orders is
    applied last."""
    n = m.rows
    parts, reached = [], set()
    for start in range(n):
        if start in reached:
            continue
        rows, cols, todo = {start}, set(), [start]
        while todo:
            i = todo.pop()
            for j in range(n):
                if j in cols or m[i, j].is_zero:
                    continue
                cols.add(j)
                found = {r for r in range(n) if not m[r, j].is_zero} - rows
                rows |= found
                todo += found
        reached |= rows
        if len(rows) > len(cols):
            return Poly.zero(m.vars)
        parts.append((sorted(rows), sorted(cols)))
    total = Poly.one(m.vars) if not parts else None
    for rows, cols in parts:
        d = det(PolyMatrix(m.vars, [[m[i, j] for j in cols] for i in rows],
                           shape=(len(rows), len(cols))))
        total = d if total is None else mul(total, d)
    row_order = [i for rows, _ in parts for i in rows]
    col_order = [j for _, cols in parts for j in cols]
    return -total if _odd(row_order) != _odd(col_order) else total


def cold_start() -> None:
    """Empty every cache of the loaded ``cxkit`` modules, each object there
    with a ``cache_clear``: the builders' shared complexes, the sphere's
    scan memo, the fixture corpus and whatever a later module keeps, so the
    next run derives everything afresh."""
    for name, module in list(sys.modules.items()):
        if name == "cxkit" or name.startswith("cxkit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
