"""Exact arithmetic: Gaussian rationals, sparse polynomials, matrices."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from cxkit.poly import GaussianRational, Poly, PolyMatrix, _pack

from _helpers import split_determinant, stored

VARS = ("x", "y")

fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)
gaussians = st.builds(GaussianRational.of, fractions, fractions)


@st.composite
def polys(draw, vars=VARS, max_terms=4, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in vars)
        terms[exp] = draw(gaussians)
    return Poly(vars, terms)


# ---------------------------------------------------------------------------
# GaussianRational field axioms


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + GaussianRational.zero() == a
    assert a * GaussianRational.one() == a
    assert a - a == GaussianRational.zero()


@given(gaussians)
def test_gaussian_division(a):
    if not a.is_zero:
        assert a / a == GaussianRational.one()
        assert (GaussianRational.one() / a) * a == GaussianRational.one()


@given(gaussians, gaussians)
def test_gaussian_conjugation(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert not norm.im


def test_gaussian_i():
    i = GaussianRational.i()
    assert i * i == -GaussianRational.one()
    assert complex(i) == 1j


# ---------------------------------------------------------------------------
# Poly ring axioms (hypothesis)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(VARS) == p
    # a sum that cancels and the constant zero store no term
    assert stored(p - p) == stored(Poly.constant(VARS, 0)) == stored(Poly.zero(VARS))
    assert p * Poly.one(VARS) == p
    assert (p - q) + q == p


@settings(max_examples=40)
@given(polys(), polys())
def test_poly_conjugate_hom(p, q):
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()
    assert (p + q).conjugate() == p.conjugate() + q.conjugate()


@settings(max_examples=40)
@given(polys(), polys())
def test_exact_division_roundtrip(p, q):
    if q.is_zero:
        return
    product = p * q
    assert product.exact_div(q) == p


def test_exact_division_failure():
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x)


def test_grlex_order():
    # grlex: total degree first, then lexicographic on the exponent tuple;
    # the packed monomial keys order that way
    assert _pack((2, 0)) > _pack((1, 0))
    assert _pack((2, 0)) > _pack((0, 2))
    assert _pack((1, 1)) > _pack((0, 2))
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    exp, coeff = (x * x + x * y + y * y).leading_term()
    assert exp == (2, 0)
    assert coeff == GaussianRational.one()


@settings(max_examples=30)
@given(polys())
def test_homogeneous_parts_sum(p):
    total = Poly.zero(VARS)
    for d in range(p.total_degree() + 1 if not p.is_zero else 0):
        total = total + p.homogeneous_part(d)
    assert total == p


def test_evaluate():
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    p = x * x + y
    assert p.evaluate({"x": 2.0, "y": 3.0}) == pytest.approx(7.0)


def test_str_parseable_roundtrip():
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    i = Poly.constant(VARS, GaussianRational.i())
    half = Poly.constant(VARS, GaussianRational.of(Fraction(1, 2)))
    p = half * x ** 2 - i * x * y + y - Poly.one(VARS)
    s = str(p)
    assert "x" in s and "y" in s
    # canonical form round-trips through the constructorless parser in dsl
    from cxkit import dsl

    doc = dsl.parse(f"vars: x y\noperator P = [[{s}]]\n")
    assert doc.operators["P"][0, 0] == p


# ``_str_reference`` is the earlier printing, kept as the reference for the
# one that reads the packed storage: ``sorted_terms()`` and each coefficient's
# text from its two ``Fraction`` parts.


def _coeff_reference(c: GaussianRational) -> str:
    if c.is_zero:
        return "0"
    if not c.im:
        return str(c.re)
    imag = "i" if c.im == 1 else "-i" if c.im == -1 else f"{c.im}*i"
    return f"{c.re}{'+' if c.im > 0 else ''}{imag}" if c.re else imag


def _str_reference(p: Poly) -> str:
    if p.is_zero:
        return "0"
    chunks = []
    for exp, coeff in p.sorted_terms():
        mono, text = p._monomial_str(exp), _coeff_reference(coeff)
        needs_parens = coeff.re and coeff.im
        if mono == "1":
            piece = f"({text})" if needs_parens and chunks else text
        elif text in ("1", "-1"):
            piece = text[:-1] + mono
        else:
            piece = f"({text})*{mono}" if needs_parens else f"{text}*{mono}"
        chunks.append(piece)
    out = chunks[0]
    for piece in chunks[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# negative, +-1, zero (so purely real or imaginary) and non-unit denominators
_parts = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), fractions,
                   st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)))
_coeffs = st.builds(GaussianRational, _parts, _parts)


@settings(max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs, max_size=5))
def test_str_matches_the_fraction_printing(terms):
    """Printing from the numerators over ``den`` gives the text the
    ``Fraction`` parts of each coefficient gave, byte for byte."""
    p = Poly(VARS, terms)
    assert str(p) == _str_reference(p)
    for c in terms.values():
        assert str(c) == _coeff_reference(c)


# ---------------------------------------------------------------------------
# Determinants and adjugates against cofactor expansion


def _cofactor_det(m: PolyMatrix) -> Poly:
    """Value oracle: first-row expansion through ``scale``, no shared minors."""
    n = m.rows
    if n == 0:
        return Poly.one(m.vars)
    if n == 1:
        return m[0, 0]
    total = Poly.zero(m.vars)
    sign = GaussianRational.one()
    for j in range(n):
        minor = PolyMatrix(
            m.vars,
            [[m[r, c] for c in range(n) if c != j] for r in range(1, n)],
        )
        total = total + (m[0, j] * _cofactor_det(minor)).scale(sign)
        sign = -sign
    return total


def _det_cofactor(self: PolyMatrix) -> Poly:
    """The library's earlier ``PolyMatrix.det_cofactor``, verbatim: the order
    in which it adds and multiplies fixes the storage order of its terms."""
    if not self.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = self.rows
    if n == 0:
        return Poly.one(self.vars)

    def rec(row_idx: list[int], col_idx: list[int]) -> Poly:
        if len(row_idx) == 1:
            return self.entries[row_idx[0]][col_idx[0]]
        total = Poly.zero(self.vars)
        i = row_idx[0]
        rest = row_idx[1:]
        for pos, j in enumerate(col_idx):
            a = self.entries[i][j]
            if a.is_zero:
                continue
            minor = rec(rest, col_idx[:pos] + col_idx[pos + 1:])
            term = a * minor
            total = total + term if pos % 2 == 0 else total - term
        return total

    return rec(list(range(n)), list(range(n)))


def _adjugate_cofactor(self: PolyMatrix) -> PolyMatrix:
    """The library's earlier cofactor-minor adjugate (its n <= 4 branch),
    verbatim, run at every n."""
    n = self.rows
    if n == 0:
        return self
    if n == 1:
        return PolyMatrix.identity(self.vars, 1)
    cof = []
    idx = list(range(n))
    for i in range(n):
        row = []
        for j in range(n):
            sub = PolyMatrix(
                self.vars,
                [
                    [self.entries[r][c] for c in idx if c != j]
                    for r in idx
                    if r != i
                ],
            )
            minor = _det_cofactor(sub)
            row.append(minor if (i + j) % 2 == 0 else -minor)
        cof.append(row)
    return PolyMatrix(self.vars, cof).transpose()


@st.composite
def sparse_matrices(draw, max_n=6):
    """Square matrices of size 1..max_n with sparse entries, zeros among
    them; in about half of them the last row is a polynomial combination of
    the others (for n = 1 the zero row), so the matrix is singular."""
    n = draw(st.integers(1, max_n))
    entry = polys(max_terms=2, max_exp=1)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    singular = draw(st.booleans())
    if singular:
        coeffs = [draw(entry) for _ in range(n - 1)]
        rows[-1] = [sum((c * rows[r][j] for r, c in enumerate(coeffs)), Poly.zero(VARS))
                    for j in range(n)]
    return PolyMatrix(VARS, rows), singular


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_determinant_matches_cofactor(case):
    m, singular = case
    det = m.determinant()
    assert det == _det_cofactor(m) == _cofactor_det(m)
    # a split matrix stores the product of its blocks' determinants
    assert stored(det) == stored(split_determinant(m, _det_cofactor, mul))
    if singular:
        assert det.is_zero


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_adjugate_matches_cofactor(case):
    m, _ = case
    adj, ref = m.adjugate(), _adjugate_cofactor(m)
    assert adj == ref
    assert stored(adj) == stored(ref)


@settings(max_examples=40, deadline=None)
@given(sparse_matrices())
def test_adjugate_identity(case):
    m, _ = case
    n = m.rows
    det = m.determinant()
    adj = m.adjugate()
    target = PolyMatrix.identity(VARS, n).map(lambda p: p * det)
    assert m @ adj == target
    assert adj @ m == target


def test_determinant_and_adjugate_edges():
    empty = PolyMatrix(VARS, [], shape=(0, 0))
    assert empty.determinant() == Poly.one(VARS)
    assert empty.adjugate() == empty
    x = Poly.variable(VARS, "x")
    assert PolyMatrix(VARS, [[x]]).adjugate() == PolyMatrix.identity(VARS, 1)
    wide = PolyMatrix(VARS, [[x, x]])
    with pytest.raises(ValueError):
        wide.determinant()
    with pytest.raises(ValueError):
        wide.adjugate()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 2), st.data())
def test_embed_block_roundtrip(rows, cols, top, left, bottom, right, data):
    entries = [[data.draw(polys(max_terms=2, max_exp=1)) for _ in range(cols)]
               for _ in range(rows)]
    m = PolyMatrix(VARS, entries, shape=(rows, cols))
    big_rows, big_cols = top + rows + bottom, left + cols + right
    big = PolyMatrix.place(VARS, big_rows, big_cols, [(m, top, left)])
    assert (big.rows, big.cols) == (big_rows, big_cols)
    assert big.block(top, top + rows, left, left + cols) == m
    for i in range(big_rows):
        for j in range(big_cols):
            if not (top <= i < top + rows and left <= j < left + cols):
                assert big[i, j].is_zero


def test_embed_block_bounds():
    m = PolyMatrix.identity(VARS, 2)
    with pytest.raises(ValueError):
        PolyMatrix.place(VARS, 2, 3, [(m, 1, 0)])
    with pytest.raises(ValueError):
        m.block(0, 3, 0, 1)
    with pytest.raises(ValueError):
        m.block(1, 0, 0, 1)


def test_matrix_algebra():
    x = Poly.variable(VARS, "x")
    y = Poly.variable(VARS, "y")
    a = PolyMatrix(VARS, [[x, y], [Poly.zero(VARS), x]])
    b = PolyMatrix(VARS, [[y, Poly.zero(VARS)], [x, y]])
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a + b) - b == a
    assert a.conjugate().conjugate() == a
