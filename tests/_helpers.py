"""Helpers shared by the tests.

The fast-path tests take their complexes from one table, ``COMPLEXES``
(``build`` makes a shared or a fresh complex from a row, ``with_mu`` lifts it
onto ``mu`` or onto time and ``mu``), and their weights from one builder,
``weights(cplx, kind)`` for each kind of ``WEIGHTS``; they compare stored
forms, term order included, with ``stored``.  Also shared: a Hypothesis
strategy of small rationals, a weight as a matrix, |zeta|^2, the Lame and
cubic elasticity operators, the block-by-block reference of a split determinant, and ``cold_start``, which
empties each cache cxkit keeps before a cold run."""

import sys
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from cxkit.complexes import (
    Complex,
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    imaginary_de_rham_complex,
    koszul_complex,
    powered_de_rham_complex,
)
from cxkit.diffop import OperatorMatrix, Signature, spatial_signature
from cxkit.poly import GaussianRational, Poly, PolyMatrix
from cxkit.syzygy import extend_to_complex

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 10]))


def stored(x) -> tuple | list:
    """The stored form of a Poly (its variables, numerator terms in storage
    order and denominator), of a PolyMatrix (each entry's) or of a signature
    matrix (its type, signature and body's): equal only where stored
    alike."""
    if isinstance(x, Poly):
        return x.vars, list(x._num.items()), x._den
    if isinstance(x, PolyMatrix):
        return [[stored(p) for p in row] for row in x.entries]
    return type(x), x.signature, stored(x.body)


@cache
def _symmetric_gradient_3() -> Complex:
    """Symmetric gradient on R^3 and its resolution: orders (1, 2, 1)."""
    sig = spatial_signature(3)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    rows = []
    for i in range(3):
        for j in range(i, 3):
            row = [Poly.zero(sig.vars)] * 3
            row[i], row[j] = d[j], d[i]
            rows.append(row)
    return Complex(extend_to_complex(OperatorMatrix.from_entries(sig, rows)))


@cache
def _koszul_3() -> Complex:
    """The Koszul complex of d1^2, d2 + d3 and d1 d3: mixed orders."""
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.spatial)
    return koszul_complex([d1 * d1, d2 + d3, d1 * d3], sig)


# Every complex the fast-path tests sweep: {name: (builder, *arguments)}.
# Each builder keeps one complex per argument set, its uncached function is
# its ``__wrapped__``.
COMPLEXES = {
    "de-rham-2": (de_rham_complex, 2),
    "de-rham-3": (de_rham_complex, 3),
    "de-rham-4": (de_rham_complex, 4),
    "de-rham-5": (de_rham_complex, 5),
    "dolbeault-2": (dolbeault_complex, 2),
    "dolbeault-3": (dolbeault_complex, 3),
    "powered-de-rham-2-2": (powered_de_rham_complex, 2, 2),
    "powered-de-rham-3-2": (powered_de_rham_complex, 3, 2),
    "imaginary-de-rham-3": (imaginary_de_rham_complex, 3),
    "symmetric-gradient-3": (_symmetric_gradient_3,),
    "koszul-3": (_koszul_3,),
}


def build(name: str, fresh: bool = False) -> Complex:
    """The complex of row ``name``: the shared one, or with ``fresh`` a new
    build by the builder's uncached function (it keeps no derivation another
    test made)."""
    builder, *args = COMPLEXES[name]
    return (builder.__wrapped__ if fresh else builder)(*args)


def with_mu(cplx, time: str | None = None):
    """``cplx`` over its spatial variables, the time variable ``time`` if
    one is given, and the parameter ``mu``."""
    return cplx.lift(Signature(cplx.signature.spatial, time, ("mu",)))


# The constant scalar weights, by kind
CONSTANTS = {"rational": Fraction(3, 2), "gaussian": GaussianRational.of(2, Fraction(-1, 3)),
             "zero": 0}
WEIGHTS = ["absent", *CONSTANTS, "mu", "mu-polynomial", "laplace-power",
           "alternating-laplace-powers", "matrix"]


def weights(cplx, kind: str) -> MuSet | None:
    """Weights of one kind of ``WEIGHTS`` over ``cplx``: ``None`` when
    absent; a constant, the parameter mu or mu^2 - mu/2 + 1 at every degree
    (the last two need ``mu`` among ``cplx``'s variables); -Laplace at every
    degree on both sides; -Laplace in mu0 at degrees 0 and 2 and in mu1 at
    degrees 1 and 3; or a constant matrix at every degree."""
    degrees = range(cplx.length + 1)
    if kind == "absent":
        return None
    if kind in CONSTANTS:
        return MuSet.scalar(cplx, CONSTANTS[kind])
    if kind == "laplace-power":
        return MuSet.laplace_powers(cplx, dict.fromkeys(degrees, 1), dict.fromkeys(degrees, 1))
    if kind == "alternating-laplace-powers":
        return MuSet.laplace_powers(cplx, mtilde={0: 1, 2: 1}, mhat={1: 1, 3: 1})
    if kind == "matrix":
        return MuSet(cplx, {q: _matrix_weight(cplx, cplx.rank(q + 1)) for q in degrees},
                     {q: _matrix_weight(cplx, cplx.rank(q - 1)) for q in degrees})
    vars = cplx.signature.vars
    mu = Poly.variable(vars, "mu")
    return MuSet.scalar(cplx, mu if kind == "mu" else
                        mu * mu - mu.scale(Fraction(1, 2)) + Poly.one(vars))


def mu_matrix(mu, which, q):
    """The weight mu0_q (``which`` 0) or mu1_q (``which`` 1) as a matrix:
    the identity with the weight applied."""
    k = mu.cplx.rank(q + 1 if which == 0 else q - 1)
    return mu.apply(which, q, mu.cplx.identity(k))


def _matrix_weight(cplx, k: int):
    """A k x k invertible constant matrix, for k > 1 neither Hermitian nor
    a scalar multiple of the identity: r + 2 at (r, r), 1 + i at (r, r + 1)
    and zero elsewhere, so its determinant is (k + 1)!."""
    sig = cplx.signature
    return type(cplx.ops[0]).from_entries(sig, [
        [Poly.constant(sig.vars, GaussianRational.of(r + 2, 0) if c == r else
                       GaussianRational.of(1, 1) if c == r + 1 else 0)
         for c in range(k)] for r in range(k)])


def norm2(sig: Signature) -> Poly:
    """|zeta|^2, the sum of the squares of ``sig``'s spatial variables."""
    total = Poly.zero(sig.vars)
    for v in sig.spatial:
        z = Poly.variable(sig.vars, v)
        total = total + z * z
    return total


def lame(n: int, lam: Fraction, mu: Fraction) -> OperatorMatrix:
    """-(mu Laplace I + (lam + mu) grad div) in n dimensions: principal
    symbol mu |zeta|^2 I + (lam + mu) zeta zeta^T."""
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    lap = norm2(sig)
    m, c = GaussianRational.of(mu), GaussianRational.of(lam + mu)
    return OperatorMatrix.from_entries(sig, [
        [-((d[i] * d[j]).scale(c) + (lap.scale(m) if i == j else Poly.zero(sig.vars)))
         for j in range(n)] for i in range(n)])


def cubic_elasticity(c11: Fraction, c12: Fraction, c44: Fraction) -> OperatorMatrix:
    """3-D elasticity with cubic symmetry, whose principal symbol has
    entries c11 z_i^2 + c44 (|z|^2 - z_i^2) on the diagonal and
    (c12 + c44) z_i z_j off it: Lame's (lambda = c12, mu = c44) when
    c11 - c12 = 2 c44, otherwise not isotropic."""
    sig = spatial_signature(3)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    lap = norm2(sig)
    c = GaussianRational.of
    return OperatorMatrix.from_entries(sig, [
        [-((d[i] * d[i]).scale(c(c11 - c44)) + lap.scale(c(c44))) if i == j
         else -(d[i] * d[j]).scale(c(c12 + c44)) for j in range(3)]
        for i in range(3)])


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
    scan points, the fixture corpus and whatever a later module keeps, so the
    next run derives everything afresh."""
    for name, module in list(sys.modules.items()):
        if name == "cxkit" or name.startswith("cxkit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
