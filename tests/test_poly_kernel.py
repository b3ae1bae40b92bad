"""The integer-numerator Poly kernel against slower exact references.

``FractionPoly`` is the earlier ``Poly`` arithmetic, one ``GaussianRational``
(two ``Fraction``s) per term, kept verbatim up to the class name as the
reference the kernel is compared with.  Determinants are also compared with
sympy where it is installed.
"""

import copy
import pickle
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from cxkit.blockops import maxwell
from cxkit.complexes import de_rham_complex
from cxkit.ellipticity import petrovskii_check
from cxkit.poly import (
    MAX_DEGREE,
    GaussianRational,
    Poly,
    PolyMatrix,
    _coerce_coeff,
    _key_divides,
    _key_lcm,
    _pack,
    _split,
    _unpack,
    grlex_key,
)
from cxkit.symbols import maxwell_parametrix_symbol, maxwell_symbol

VARS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# Reference: Fraction-based arithmetic


class FractionPoly:
    """Sparse polynomial with one GaussianRational per term (reference)."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        if terms:
            nv = len(self.vars)
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nv:
                    raise ValueError(f"exponent {exp} does not match {nv} variables")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                coeff = _coerce_coeff(coeff)
                if not coeff.is_zero:
                    clean[exp] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def zero(vars):
        return FractionPoly(vars)

    @staticmethod
    def monomial(vars, exponent, coeff):
        return FractionPoly(vars, {tuple(exponent): _coerce_coeff(coeff)})

    @property
    def is_zero(self):
        return not self.terms

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def _check_vars(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        self._check_vars(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, GaussianRational.zero()) + coeff
        return FractionPoly(self.vars, out)

    def __sub__(self, other):
        self._check_vars(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, GaussianRational.zero()) - coeff
        return FractionPoly(self.vars, out)

    def __mul__(self, other):
        self._check_vars(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                if exp in out:
                    out[exp] = out[exp] + prod
                else:
                    out[exp] = prod
        return FractionPoly(self.vars, out)

    def exact_div(self, divisor):
        """Exact polynomial division; raises ``ValueError`` if not divisible."""
        self._check_vars(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return FractionPoly.zero(self.vars)
        d_exp, d_coeff = divisor.leading_term()
        quotient = {}
        remainder = self
        while not remainder.is_zero:
            r_exp, r_coeff = remainder.leading_term()
            diff = tuple(a - b for a, b in zip(r_exp, d_exp))
            if any(e < 0 for e in diff):
                raise ValueError("division is not exact")
            c = r_coeff / d_coeff
            quotient[diff] = c
            remainder = remainder - FractionPoly.monomial(self.vars, diff, c) * divisor
        return FractionPoly(self.vars, quotient)


def ref(p: Poly) -> FractionPoly:
    return FractionPoly(p.vars, p.terms)


def same(p: Poly, r: FractionPoly) -> bool:
    return p.vars == r.vars and dict(p.terms) == r.terms


# ---------------------------------------------------------------------------
# Strategies: Gaussian-rational, Gaussian-integer and real coefficients

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))
coefficients = st.one_of(
    st.builds(GaussianRational.of, rationals, rationals),
    st.builds(GaussianRational.of, st.integers(-9, 9), st.integers(-9, 9)),
    st.builds(GaussianRational.of, rationals),
    st.builds(GaussianRational.of, st.just(0), rationals),
)


@st.composite
def polys(draw, max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in VARS)
        terms[exp] = draw(coefficients)
    return Poly(VARS, terms)


def assert_canonical(p: Poly) -> None:
    assert p._den > 0
    assert all(c != (0, 0) for c in p._num.values())
    assert gcd(p._den, *(x for c in p._num.values() for x in c)) == 1
    if p.is_zero:
        assert p._den == 1


# ---------------------------------------------------------------------------
# Arithmetic against the reference


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_arithmetic_matches_reference(p, q):
    for got, want in ((p + q, ref(p) + ref(q)), (p - q, ref(p) - ref(q)),
                      (p * q, ref(p) * ref(q))):
        assert same(got, want)
        assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(max_terms=3))
def test_exact_div_matches_reference(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.exact_div(q)
        return
    try:
        want = ref(p).exact_div(ref(q))
    except ValueError:
        with pytest.raises(ValueError):
            p.exact_div(q)
        return
    got = p.exact_div(q)
    assert same(got, want)
    assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), coefficients)
def test_canonical_form_and_hash(p, q, c):
    for r in (p, -p, p.conjugate(), p.scale(c), p.homogeneous_part(2),
              (p + q) - q, Poly(VARS, p.terms)):
        assert_canonical(r)
    built = ((p + q) - q, (p * q) - p * q + p, Poly(VARS, p.terms))
    for r in built:
        assert r == p
        assert hash(r) == hash(p)
    if not c.is_zero:
        back = p.scale(c).scale(GaussianRational.one() / c)
        assert back == p and hash(back) == hash(p)
    assert len(p.terms) == len(p._num)  # fills the cached view before copying
    for r in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert r == p and hash(r) == hash(p)
        assert_canonical(r)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(max_terms=4), st.data())
def test_exact_div_roundtrip_and_failure(p, q, data):
    if q.is_zero:
        return
    assert (p * q).exact_div(q) == p
    if q.total_degree() > 0:
        # a nonzero term below q's degree leaves a remainder: not divisible
        low = tuple(data.draw(st.integers(0, q.total_degree() - 1)) if i == 0 else 0
                    for i in range(len(VARS)))
        r = Poly(VARS, {low: data.draw(coefficients.filter(lambda c: not c.is_zero))})
        with pytest.raises(ValueError):
            (p * q + r).exact_div(q)


def test_exact_div_scales_the_remainder():
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    # leading coefficient 2 + i: quotient coefficients are not Gaussian integers
    q = (x * x).scale(GaussianRational.of(2, 1)) - y.scale(3)
    p = x.scale(Fraction(1, 7)) + y.scale(GaussianRational.of(Fraction(2, 5), 1)) - Poly.one(VARS)
    assert (p * q).exact_div(q) == p
    assert same((p * q).exact_div(q), (ref(p) * ref(q)).exact_div(ref(q)))


# ---------------------------------------------------------------------------
# Groebner kernel operations against monomial products

shifts = st.one_of(st.none(), st.tuples(*(st.integers(0, 2) for _ in VARS)))


def shift_key(shift) -> int:
    """The key the kernel takes for an exponent tuple; 0 (no shift) for None."""
    return 0 if shift is None else _pack(shift)


@st.composite
def factors(draw):
    """``(cr, ci, cd, c)``: an int triple standing for ``c``, with a common
    factor left in about half the time."""
    c = draw(coefficients)
    k = draw(st.sampled_from([1, 1, 2, 6]))
    cr, ci, cd = _split(c)
    return cr * k, ci * k, cd * k, c


def assert_same_poly(got: Poly, want: Poly) -> None:
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), factors(), shifts)
def test_fused_step_and_shifted_scale_match_monomial_product(p, g, f, shift):
    cr, ci, cd, c = f
    mono = Poly(VARS, {shift or (0,) * len(VARS): c})
    zero = Poly.zero(VARS)
    shift = shift_key(shift)
    assert_same_poly(p._sub_scaled(g, cr, ci, cd, shift), p - mono * g)
    assert_same_poly(g._scaled(cr, ci, cd, shift), mono * g)
    assert_same_poly(p._sub_scaled(zero, cr, ci, cd, shift), p)
    assert_same_poly(zero._sub_scaled(g, cr, ci, cd, shift), -(mono * g))
    # the reduction step cancels exactly what the shifted scale built
    assert_same_poly((p + mono * g)._sub_scaled(g, cr, ci, cd, shift), p)
    assert_same_poly((mono * g)._sub_scaled(g, cr, ci, cd, shift), zero)


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), factors(), shifts, st.data())
def test_fused_step_drops_cancelled_terms(r, g, f, shift, data):
    """``p = r + c*x^s*h`` with ``h`` some of the terms of ``g``: the step
    cancels those terms exactly, and any of ``r`` it meets, and keeps no
    zero numerator."""
    cr, ci, cd, c = f
    mono = Poly(VARS, {shift or (0,) * len(VARS): c})
    keep = data.draw(st.sets(st.sampled_from(sorted(g.terms)))) if g.terms else set()
    p = r + mono * Poly(VARS, {e: v for e, v in g.terms.items() if e in keep})
    assert_same_poly(p._sub_scaled(g, cr, ci, cd, shift_key(shift)), p - mono * g)


def test_fused_step_cancels_terms_and_denominator():
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    half = GaussianRational.of(Fraction(1, 2))
    p = x * x + y.scale(half) + Poly.one(VARS).scale(GaussianRational.of(Fraction(1, 3)))
    g = x - y.scale(GaussianRational.of(0, Fraction(1, 2))) + Poly.one(VARS).scale(
        GaussianRational.of(Fraction(1, 3)))
    # p - x*g: x^2 cancels, leaving y/2 + i*x*y/2 + 1/3 - x/3 over den 6
    step = p._sub_scaled(g, 1, 0, 1, _pack((1, 0, 0)))
    assert_same_poly(step, p - x * g)
    assert step._den == 6
    # p - x*g - (1 - x)/3: the constant and x terms cancel, den drops to 2
    half_y = y.scale(half) + (x * y).scale(GaussianRational.of(0, Fraction(1, 2)))
    assert_same_poly(step._sub_scaled(Poly.one(VARS) - x, 1, 0, 3), half_y)
    assert half_y._den == 2
    # everything cancels: the zero polynomial, den 1
    assert_same_poly(half_y._sub_scaled(half_y, 1, 0, 1), Poly.zero(VARS))


@settings(max_examples=150, deadline=None)
@given(polys(), st.data())
def test_leading_num_matches_leading_term(p, data):
    if p.is_zero:
        assert p._leading_num() is None
        return
    key, (re, im), den = Poly(VARS, p.terms)._leading_num()
    want_exp, want_coeff = ref(p).leading_term()
    assert key == _pack(want_exp)
    assert _unpack(key, len(VARS)) == want_exp == p.leading_term()[0]
    assert GaussianRational(Fraction(re, den), Fraction(im, den)) == want_coeff
    # outside ``skip``: the leading term of the remaining terms
    skip = data.draw(st.sets(st.sampled_from(sorted(p.terms))))
    rest = FractionPoly(VARS, {e: v for e, v in p.terms.items() if e not in skip})
    if rest.is_zero:
        assert p._leading_num({_pack(e) for e in skip}) is None
    else:
        key, (re, im), den = p._leading_num({_pack(e) for e in skip})
        assert (_unpack(key, len(VARS)),
                GaussianRational(Fraction(re, den), Fraction(im, den))) == rest.leading_term()


# ---------------------------------------------------------------------------
# Packed monomials against the exponent tuples


@st.composite
def exponents(draw, n=None, max_exp=None):
    """``(n, a, b)``: two exponent tuples of ``n`` variables whose lcm stays
    within ``MAX_DEGREE``; ``b`` is a multiple of ``a`` about half the time."""
    n = draw(st.integers(1, 7)) if n is None else n
    high = MAX_DEGREE // (2 * n) if max_exp is None else max_exp
    a = tuple(draw(st.integers(0, high)) for _ in range(n))
    b = tuple(draw(st.integers(0, high)) for _ in range(n))
    if draw(st.booleans()):
        b = tuple(min(x + y, high) for x, y in zip(a, b))
    return n, a, b


@settings(max_examples=300, deadline=None)
@given(st.one_of(exponents(), exponents(max_exp=3)))
def test_packed_keys_match_exponent_tuples(nab):
    """Int order is grlex order, keys round-trip, divisibility is the
    componentwise ``<=`` and the lcm the componentwise ``max``."""
    n, a, b = nab
    ka, kb = _pack(a), _pack(b)
    assert (ka < kb) == (grlex_key(a) < grlex_key(b))
    assert (ka == kb) == (a == b)
    assert _unpack(ka, n) == a and _unpack(kb, n) == b
    assert _key_divides(ka, kb) == all(x <= y for x, y in zip(a, b))
    assert _key_divides(kb, ka) == all(y <= x for x, y in zip(a, b))
    assert _key_lcm(ka, kb, n) == _key_lcm(kb, ka, n) == _pack(tuple(map(max, a, b)))
    assert ka + kb == _pack(tuple(map(add, a, b)))


def test_key_divides_at_the_field_limits():
    top = (MAX_DEGREE, 0, 0)
    assert _key_divides(_pack(top), _pack(top))
    assert not _key_divides(_pack(top), _pack((0, MAX_DEGREE, 0)))
    assert not _key_divides(_pack((0, 0, 1)), _pack((MAX_DEGREE - 1, 1, 0)))
    assert _key_divides(_pack((0, 0, 0)), _pack((0, 0, MAX_DEGREE)))


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.permutations(("u", "z", "v", "x", "w", "y")), st.integers(3, 6))
def test_lift_across_variable_counts(p, q, order, size):
    """Lifting repacks each key into the wider ring: the terms land on the
    new positions, in storage order, and lifting commutes with arithmetic."""
    new_vars = tuple(v for v in order if v in VARS or order.index(v) < size - 3)
    lifted = p.lift(new_vars)
    pos = [new_vars.index(v) for v in VARS]
    want = {}
    for exp, c in p.terms.items():
        new_exp = [0] * len(new_vars)
        for i, e in zip(pos, exp):
            new_exp[i] = e
        want[tuple(new_exp)] = c
    assert list(lifted.terms.items()) == list(want.items())
    assert lifted.total_degree() == p.total_degree()
    assert (p * q).lift(new_vars) == lifted * q.lift(new_vars)
    assert (p - q).lift(new_vars) == lifted - q.lift(new_vars)
    x = Poly.variable(("x",), "x")
    assert (x * x).lift(new_vars) == Poly.variable(new_vars, "x") * Poly.variable(new_vars, "x")


SUBSETS = st.one_of(st.none(), st.lists(st.sampled_from(VARS), unique=True))


@settings(max_examples=150, deadline=None)
@given(polys(), SUBSETS, st.integers(0, 6), st.integers(-1, 6), st.booleans())
def test_degree_views_match_exponent_tuples(p, subset, degree, turns, conjugate):
    """``total_degree``, ``homogeneous_part`` and ``twist`` read the fields
    of a key as the sums over the exponent tuples do, with and without a
    subset."""
    idx = range(len(VARS)) if subset is None else [VARS.index(v) for v in subset]

    def deg(exp):
        return sum(exp[i] for i in idx)

    assert p.total_degree(subset) == max(map(deg, p.terms), default=-1)
    part = p.homogeneous_part(degree, subset)
    assert list(part.terms.items()) == [(e, c) for e, c in p.terms.items() if deg(e) == degree]
    assert_canonical(part)
    assert p.is_constant == all(sum(e) == 0 for e in p.terms)
    if subset is None:
        return
    units = (GaussianRational.one(), GaussianRational.i(),
             GaussianRational.of(-1), GaussianRational.of(0, -1))
    twisted = p.twist(subset, turns, conjugate=conjugate)
    assert list(twisted.terms.items()) == [
        (e, (c.conjugate() if conjugate else c) * units[turns * deg(e) % 4])
        for e, c in p.terms.items()]


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), factors(), shifts)
def test_terms_in_tuple_kernel_storage_order(p, q, f, shift):
    """``terms`` unpacks in storage order, which is the insertion order of
    the exponent-tuple arithmetic (the reference shares its loops): the
    floats of a numeric evaluation see the terms in the same order."""
    for got, want in ((p + q, ref(p) + ref(q)), (p - q, ref(p) - ref(q)),
                      (p * q, ref(p) * ref(q))):
        assert list(got.terms) == list(want.terms)
    if not q.is_zero:
        assert list((p * q).exact_div(q).terms) == list((ref(p) * ref(q)).exact_div(ref(q)).terms)
    cr, ci, cd, c = f
    mono = FractionPoly.monomial(VARS, shift or (0,) * len(VARS), c)
    assert list(p._sub_scaled(q, cr, ci, cd, shift_key(shift)).terms) == \
        list((ref(p) - mono * ref(q)).terms)


def test_degree_limit_is_an_overflow_error():
    """Degree ``MAX_DEGREE`` is held; one more raises before anything wraps,
    from the constructor and from every product."""
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    edge = Poly(VARS, {(MAX_DEGREE - 2, 1, 1): 3})
    assert edge.total_degree() == MAX_DEGREE
    assert edge.leading_term()[0] == (MAX_DEGREE - 2, 1, 1)
    assert Poly(VARS, {(MAX_DEGREE, 0, 0): 1}) == x ** MAX_DEGREE
    assert (x ** (MAX_DEGREE - 1) * y).exact_div(y) == x ** (MAX_DEGREE - 1)
    for exp in ((MAX_DEGREE + 1, 0, 0), (MAX_DEGREE - 1, 1, 1), (0, 0, MAX_DEGREE + 1)):
        with pytest.raises(OverflowError):
            Poly(VARS, {exp: 1})
    with pytest.raises(OverflowError):
        edge * y
    with pytest.raises(OverflowError):
        x ** (MAX_DEGREE + 1)
    with pytest.raises(OverflowError):
        (x ** 5) * (y ** (MAX_DEGREE - 4) + Poly.one(VARS))
    with pytest.raises(OverflowError):
        y._scaled(1, 0, 1, _pack((MAX_DEGREE, 0, 0)))
    with pytest.raises(OverflowError):
        x._sub_scaled(y, 1, 0, 1, _pack((0, 0, MAX_DEGREE)))
    assert edge * Poly.one(VARS) == edge
    assert x._sub_scaled(y, 1, 0, 1, _pack((0, 0, MAX_DEGREE - 1))) == \
        x - y * Poly(VARS, {(0, 0, MAX_DEGREE - 1): 1})


# ---------------------------------------------------------------------------
# Sparse matrix products against the dense loop


def dense_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The earlier ``PolyMatrix.__matmul__``, which visits every k of row i
    and column j and skips the zero entries (reference)."""
    zero = Poly.zero(a.vars)
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                x, y = a.entries[i][k], b.entries[k][j]
                if x.is_zero or y.is_zero:
                    continue
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return PolyMatrix(a.vars, out, shape=(a.rows, b.cols))


@st.composite
def sparse_matrices(draw, rows: int, cols: int) -> PolyMatrix:
    """A rows x cols matrix with about two thirds of its entries zero."""
    zero = Poly.zero(VARS)
    return PolyMatrix(VARS, [[draw(polys(max_terms=3)) if draw(st.integers(0, 2)) == 0
                              else zero for _ in range(cols)] for _ in range(rows)],
                      shape=(rows, cols))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda s: st.tuples(sparse_matrices(s[0], s[1]), sparse_matrices(s[1], s[2]))))
def test_sparse_matmul_matches_dense_loop(ab):
    """Every entry keeps its value and its storage order: the same products,
    summed in the same increasing k."""
    a, b = ab
    got, want = a @ b, dense_matmul(a, b)
    assert got == want
    assert [[(list(p._num.items()), p._den) for p in row] for row in got.entries] == \
        [[(list(p._num.items()), p._den) for p in row] for row in want.entries]


# ---------------------------------------------------------------------------
# Determinants against sympy


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(polys(max_terms=2, max_exp=1), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_determinant_matches_sympy(entries):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)

    def to_sympy(p: Poly):
        total = sympy.Integer(0)
        for exp, c in p.terms.items():
            mono = sympy.Integer(1)
            for s, e in zip(syms, exp):
                mono *= s ** e
            total += (sympy.Rational(c.re.numerator, c.re.denominator)
                      + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * mono
        return total

    m = PolyMatrix(VARS, entries)
    want = sympy.Matrix([[to_sympy(p) for p in row] for row in entries]).det(method="berkowitz")
    assert sympy.expand(to_sympy(m.determinant()) - want) == 0


# ---------------------------------------------------------------------------
# de Rham(4): the 16x16 Maxwell symbol


def test_de_rham_4_petrovskii_certified():
    rep = petrovskii_check(maxwell(de_rham_complex(4), 4))
    assert rep.verdict == "certified-symbolic"
    assert rep.certified_form == "(1)*(|zeta|^2)^8"


def test_de_rham_4_right_parametrix_exact():
    cplx = de_rham_complex(4)
    f1 = maxwell_parametrix_symbol(cplx, None, "right")
    assert (maxwell_symbol(cplx, 4, None, 1) @ f1).is_identity()
