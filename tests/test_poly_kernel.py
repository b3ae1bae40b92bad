"""The integer-numerator Poly kernel against slower exact references.

``FractionPoly`` is the earlier ``Poly`` arithmetic, one ``GaussianRational``
(two ``Fraction``s) per term, kept verbatim up to the class name as the
reference the kernel is compared with.  Exact division, determinants, matrix
products and adjugates are also compared with sympy where it is installed.
The earlier product, sum-of-products loop, ``embed`` and ``Poly.lift``
(``old_mul``, ``old_sum``, ``old_embed``, ``old_lift``) are kept verbatim
too (the product drops its cancelled numerators itself, as the earlier
constructor did), as the references of the one-accumulator
sums, of block placement and of whole-matrix lifts.
"""

import copy
import pickle
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from functools import reduce
from operator import add

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from cxkit import poly
from cxkit.blockops import BlockPartition, block_place, maxwell
from cxkit.complexes import de_rham_complex, dolbeault_complex
from cxkit.diffop import OperatorMatrix, Signature, SymbolMatrix, spatial_signature
from cxkit.ellipticity import petrovskii_check
from cxkit.poly import (
    _WIDTH,
    MAX_DEGREE,
    GaussianRational,
    Poly,
    PolyMatrix,
    _check_product,
    _coerce_coeff,
    _dot,
    _key_divides,
    _key_lcm,
    _pack,
    _poly_nonzero,
    _split,
    _step,
    _unpack,
)
from cxkit.symbols import maxwell_parametrix_symbol, maxwell_symbol
from cxkit.syzygy import _packed, _record, _unpacked

from _helpers import split_determinant, stored

VARS = ("x", "y", "z")


def grlex_key(exponent):
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(exponent), exponent)


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
def polys(draw, max_terms=5, max_exp=3, vars=VARS):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in vars)
        terms[exp] = draw(coefficients)
    return Poly(vars, terms)


def to_sympy(p: Poly, syms):
    """``p`` as a sympy expression in ``syms``, one symbol per variable."""
    import sympy

    total = sympy.Integer(0)
    for exp, c in p.terms.items():
        mono = sympy.Integer(1)
        for s, e in zip(syms, exp):
            mono *= s ** e
        total += (sympy.Rational(c.re.numerator, c.re.denominator)
                  + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * mono
    return total


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


# A ring with a parameter, as the weighted symbols have: d1 d2 and mu.
PARAM_VARS = spatial_signature(2, params=["mu"]).vars
gaussian_leads = st.builds(GaussianRational.of, st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda c: c.re * c.re + c.im * c.im > 1)


# The sympy oracles report the first failing example as found: shrinking it
# would rerun sympy hundreds of times (over 200 s and ~500 MB on a broken
# ``_dot``), while generating finds a failure in well under a second.
SYMPY_ORACLE = {"deadline": None, "phases": (Phase.explicit, Phase.reuse, Phase.generate)}


@settings(max_examples=20, **SYMPY_ORACLE)
@given(polys(max_terms=3, max_exp=2, vars=PARAM_VARS),
       polys(max_terms=2, max_exp=1, vars=PARAM_VARS).filter(lambda q: not q.is_zero),
       coefficients, gaussian_leads, coefficients.filter(lambda c: not c.is_zero))
def test_exact_div_matches_sympy(p, q, r, lead, c):
    """sympy's ``exquo`` over QQ_I as the oracle.  The divisor q * (mu + r)
    uses the parameter and is scaled to the leading coefficient ``lead``, of
    norm above 1, so quotient terms need not be Gaussian integers; adding the
    constant ``c`` to a multiple of it, of degree at least 1, leaves a
    remainder, which both refuse."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(PARAM_VARS)

    def sym(x: Poly):
        return sympy.Poly(to_sympy(x, syms), *syms, domain=sympy.QQ_I)

    d = q * (Poly.variable(PARAM_VARS, "mu") + Poly.constant(PARAM_VARS, r))
    d = d.scale(lead / d.leading_term()[1])
    assert sym((p * d).exact_div(d)) == sym(p * d).exquo(sym(d)) == sym(p)
    f = p * d + Poly.constant(PARAM_VARS, c)
    with pytest.raises(ValueError, match="not exact"):
        f.exact_div(d)
    with pytest.raises(sympy.ExactQuotientFailed):
        sym(f).exquo(sym(d))


def test_exact_div_scales_the_remainder():
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    # leading coefficient 2 + i: quotient coefficients are not Gaussian integers
    q = (x * x).scale(GaussianRational.of(2, 1)) - y.scale(3)
    p = x.scale(Fraction(1, 7)) + y.scale(GaussianRational.of(Fraction(2, 5), 1)) - Poly.one(VARS)
    assert (p * q).exact_div(q) == p
    assert same((p * q).exact_div(q), (ref(p) * ref(q)).exact_div(ref(q)))


# ---------------------------------------------------------------------------
# The packed vectors of cxkit.syzygy against monomial products: a vector of
# polynomials is one dict over one denominator, each key tagged with its
# position, and a Groebner reduction is one fused step on it

shifts = st.one_of(st.none(), st.tuples(*(st.integers(0, 2) for _ in VARS)))
N = len(VARS)
TAG = _WIDTH * (N + 1)  # the first bit of a packed key's position tag


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


# a reduction's factor is a quotient of nonzero coefficients
nonzero_factors = factors().filter(lambda f: not f[3].is_zero)
vectors = st.lists(polys(), min_size=1, max_size=3).map(tuple)


@st.composite
def vector_pairs(draw):
    """``(p, g)``: vectors of one to three positions, ``g`` nonzero, as
    every reducer is."""
    p = draw(vectors)
    g = tuple(draw(polys()) for _ in p)
    assume(not all(q.is_zero for q in g))
    return p, g


def assert_same_poly(got: Poly, want: Poly) -> None:
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want)
    assert_canonical(got)


def packed_step(p, g, cr, ci, cd, shift):
    """``p - ((cr + ci*i)/cd) * x^shift * g`` through the packed step."""
    step = _step(*_packed(p, N), _record(*_packed(g, N), N), cr, ci, cd, shift, N)
    return _unpacked(step, VARS, len(p))


def shifted_scale(g, cr, ci, cd, shift):
    """``((cr + ci*i)/cd) * x^shift * g`` as an S-polynomial starts: a step
    from the zero vector."""
    step = _step({}, 1, _record(*_packed(g, N), N), -cr, -ci, cd, shift, N)
    return _unpacked(step, VARS, len(g))


@settings(max_examples=150, deadline=None)
@given(vector_pairs(), nonzero_factors, shifts)
def test_packed_step_and_shifted_scale_match_monomial_products(pg, f, shift):
    """At each position the step is ``p - mono * g``, canonical and in the
    storage order of the exponent-tuple arithmetic (the reference shares
    its loops), and the scale from zero is ``mono * g``."""
    p, g = pg
    cr, ci, cd, c = f
    mono = Poly(VARS, {shift or (0,) * N: c})
    fmono = FractionPoly.monomial(VARS, shift or (0,) * N, c)
    zero = tuple(Poly.zero(VARS) for _ in p)
    shift = shift_key(shift)
    for got, a, b in zip(packed_step(p, g, cr, ci, cd, shift), p, g):
        assert_same_poly(got, a - mono * b)
        assert list(got.terms) == list((ref(a) - fmono * ref(b)).terms)
    for got, b in zip(shifted_scale(g, cr, ci, cd, shift), g):
        assert_same_poly(got, mono * b)
    for got, b in zip(packed_step(zero, g, cr, ci, cd, shift), g):
        assert_same_poly(got, -(mono * b))
    # the reduction step cancels exactly what the shifted scale built
    built = tuple(a + mono * b for a, b in zip(p, g))
    for got, a in zip(packed_step(built, g, cr, ci, cd, shift), p):
        assert_same_poly(got, a)
    for got in packed_step(tuple(mono * b for b in g), g, cr, ci, cd, shift):
        assert_same_poly(got, Poly.zero(VARS))


@settings(max_examples=150, deadline=None)
@given(vector_pairs(), nonzero_factors, shifts, st.data())
def test_packed_step_drops_cancelled_terms(rg, f, shift, data):
    """``p = r + c*x^s*h`` with ``h`` some of the terms of ``g`` at each
    position: the step cancels those terms exactly, and any of ``r`` it
    meets, and keeps no zero numerator."""
    r, g = rg
    cr, ci, cd, c = f
    mono = Poly(VARS, {shift or (0,) * N: c})
    p = []
    for a, b in zip(r, g):
        keep = data.draw(st.sets(st.sampled_from(sorted(b.terms)))) if b.terms else set()
        p.append(a + mono * Poly(VARS, {e: v for e, v in b.terms.items() if e in keep}))
    num, _ = _step(*_packed(tuple(p), N), _record(*_packed(g, N), N), cr, ci, cd,
                   shift_key(shift), N)
    assert (0, 0) not in num.values()
    for got, a, b in zip(packed_step(tuple(p), g, cr, ci, cd, shift_key(shift)), p, g):
        assert_same_poly(got, a - mono * b)


def test_packed_step_cancels_terms_and_denominator():
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    one, zero = Poly.one(VARS), Poly.zero(VARS)
    half = GaussianRational.of(Fraction(1, 2))
    p = x * x + y.scale(half) + one.scale(GaussianRational.of(Fraction(1, 3)))
    g = x - y.scale(GaussianRational.of(0, Fraction(1, 2))) + one.scale(
        GaussianRational.of(Fraction(1, 3)))
    # (p, x) - x*(g, 0): x^2 cancels, leaving y/2 + i*x*y/2 + 1/3 - x/3 over
    # den 6 at position 0, and x over den 1 at position 1: one den 6
    num, den = _step(*_packed((p, x), N), _record(*_packed((g, zero), N), N),
                     1, 0, 1, _pack((1, 0, 0)), N)
    step = _unpacked((num, den), VARS, 2)
    assert den == 6 and step[0]._den == 6 and step[1]._den == 1
    assert_same_poly(step[0], p - x * g)
    assert_same_poly(step[1], x)
    # minus (1 - x, 3x)/3: the constant and x terms cancel, den drops to 2
    half_y = y.scale(half) + (x * y).scale(GaussianRational.of(0, Fraction(1, 2)))
    num, den = _step(num, den, _record(*_packed((one - x, x.scale(GaussianRational.of(3))), N), N),
                     1, 0, 3, 0, N)
    assert den == 2
    assert _unpacked((num, den), VARS, 2) == (half_y, zero)
    # everything cancels: the zero vector, den 1
    assert _step(num, den, _record(dict(num), den, N), 1, 0, 1, 0, N) == ({}, 1)


def test_packed_step_degree_limit_is_an_overflow_error():
    """A shift that takes a term past ``MAX_DEGREE`` raises before anything
    wraps; the degree named is that of the first position that passes, as a
    check position by position finds it, not the highest."""
    x, y, one = Poly.variable(VARS, "x"), Poly.variable(VARS, "y"), Poly.one(VARS)
    with pytest.raises(OverflowError, match=f"total degree {MAX_DEGREE + 1} exceeds"):
        shifted_scale((y,), 1, 0, 1, _pack((MAX_DEGREE, 0, 0)))
    with pytest.raises(OverflowError):
        packed_step((x,), (y,), 1, 0, 1, _pack((0, 0, MAX_DEGREE)))
    assert packed_step((x,), (y,), 1, 0, 1, _pack((0, 0, MAX_DEGREE - 1))) == \
        (x - y * Poly(VARS, {(0, 0, MAX_DEGREE - 1): 1}),)
    shift = _pack((0, MAX_DEGREE - 1, 0))
    with pytest.raises(OverflowError, match=f"total degree {MAX_DEGREE + 1} exceeds"):
        packed_step((one, one), (x ** 2, x ** 3), 1, 0, 1, shift)
    with pytest.raises(OverflowError, match=f"total degree {MAX_DEGREE + 2} exceeds"):
        packed_step((one, one), (one, x ** 3), 1, 0, 1, shift)


@settings(max_examples=150, deadline=None)
@given(vectors, st.data())
def test_packed_keys_sort_position_over_term(elem, data):
    """From the highest down, the packed keys list the positions in order,
    each with its terms leading-first (POT+grlex).  So among the keys not in
    ``skip`` the largest is the leading term of what is left, with its
    coefficient: the term a full reduction, walking down, takes next."""
    num, den = _packed(elem, N)
    mask = (1 << TAG) - 1
    assert [(len(elem) - (k >> TAG), _unpack(k & mask, N)) for k in sorted(num, reverse=True)] \
        == [(pos, e) for pos, p in enumerate(elem) for e, _ in p.sorted_terms()]
    skip = data.draw(st.sets(st.sampled_from(sorted(num)))) if num else set()
    key = max((k for k in num if k not in skip), default=None)
    rest = [FractionPoly(VARS, {e: v for e, v in p.terms.items()
                                if (len(elem) - pos) << TAG | _pack(e) not in skip})
            for pos, p in enumerate(elem)]
    first = next((pos for pos, r in enumerate(rest) if not r.is_zero), None)
    if first is None:
        assert key is None
        return
    re, im = num[key]
    assert (len(elem) - (key >> TAG), _unpack(key & mask, N),
            GaussianRational(Fraction(re, den), Fraction(im, den))) == \
        (first, *rest[first].leading_term())


@settings(max_examples=150, deadline=None)
@given(st.lists(polys(), max_size=4).map(tuple))
def test_pack_then_unpack_keeps_stored_terms(elem):
    """Packing keeps every term over the lcm of the denominators, in lowest
    terms; unpacking gives back each position's stored terms, their order
    and its denominator."""
    num, den = _packed(elem, N)
    assert den == lcm(*(p._den for p in elem))
    assert gcd(den, *(x for c in num.values() for x in c)) == 1
    assert [(p.vars, list(p._num.items()), p._den) for p in _unpacked((num, den), VARS, len(elem))] \
        == [(p.vars, list(p._num.items()), p._den) for p in elem]


@settings(max_examples=150, deadline=None)
@given(polys())
def test_leading_term_matches_reference(p):
    """The largest stored key is the leading monomial, as the fused step and
    ``exact_div`` read it."""
    if p.is_zero:
        return
    want_exp, want_coeff = ref(p).leading_term()
    assert max(p._num) == _pack(want_exp)
    assert Poly(VARS, p.terms).leading_term() == (want_exp, want_coeff)


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
    """``total_degree``, ``homogeneous_part``, ``coefficient`` and ``twist``
    read the fields of a key as the sums over the exponent tuples do, with
    and without a subset."""
    idx = range(len(VARS)) if subset is None else [VARS.index(v) for v in subset]

    def deg(exp):
        return sum(exp[i] for i in idx)

    assert p.total_degree(subset) == max(map(deg, p.terms), default=-1)
    for exp in [*p.terms, (degree, 0, turns + 1)]:
        assert p.coefficient(exp) == p.terms.get(exp, GaussianRational.zero())
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
@given(polys(), polys())
def test_terms_in_tuple_kernel_storage_order(p, q):
    """``terms`` unpacks in storage order, which is the insertion order of
    the exponent-tuple arithmetic (the reference shares its loops): the
    floats of a numeric evaluation see the terms in the same order."""
    for got, want in ((p + q, ref(p) + ref(q)), (p - q, ref(p) - ref(q)),
                      (p * q, ref(p) * ref(q))):
        assert list(got.terms) == list(want.terms)
    if not q.is_zero:
        assert list((p * q).exact_div(q).terms) == list((ref(p) * ref(q)).exact_div(ref(q)).terms)


def test_degree_limit_is_an_overflow_error():
    """Degree ``MAX_DEGREE`` is held; one more raises before anything wraps,
    from the constructor and from every product."""
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    edge = Poly(VARS, {(MAX_DEGREE - 2, 1, 1): 3})
    assert edge.total_degree() == MAX_DEGREE == edge.total_degree(VARS)
    assert edge.total_degree(["x", "z"]) == MAX_DEGREE - 1
    assert edge.coefficient((MAX_DEGREE - 2, 1, 1)) == GaussianRational.of(3)
    with pytest.raises(ValueError, match="does not match 3 variables"):
        edge.coefficient((1, 1))
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
    assert edge * Poly.one(VARS) == edge


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


def checked_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The product with every entry summed by the checked ``_dot``, entry by
    entry in row-major order, over the nonzero pairs in increasing k: each
    pair checks its variables and ``MAX_DEGREE`` (reference)."""
    zero = Poly.zero(a.vars)
    return PolyMatrix(a.vars, [[_dot(a.vars, pairs) if (pairs := [
        (a[i, k], b[k, j]) for k in range(a.cols)
        if not a[i, k].is_zero and not b[k, j].is_zero]) else zero
        for j in range(b.cols)] for i in range(a.rows)], shape=(a.rows, b.cols))


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
    summed in the same increasing k, as the dense loop and as each entry's
    checked ``_dot`` (one degree guard per product changes no entry)."""
    a, b = ab
    got = a @ b
    for want in (dense_matmul(a, b), checked_matmul(a, b)):
        assert got == want
        assert stored(got) == stored(want)


@st.composite
def high_degree_matrices(draw, rows: int, cols: int) -> PolyMatrix:
    """A matrix, a third of its entries zero, whose nonzero entries are
    small polynomials or, in about half of them, a term of degree near
    ``MAX_DEGREE / 2``."""
    zero = Poly.zero(VARS)

    def entry():
        if draw(st.booleans()):
            return draw(polys(max_terms=2, max_exp=2))
        x, y = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        exp = [0, 0, 0]
        exp[x] += draw(st.integers(MAX_DEGREE // 2 - 3, MAX_DEGREE // 2 + 3))
        exp[y] += draw(st.integers(0, 2))
        return Poly(VARS, {tuple(exp): draw(coefficients)})

    return PolyMatrix(VARS, [[entry() if draw(st.integers(0, 2)) else zero
                              for _ in range(cols)] for _ in range(rows)], shape=(rows, cols))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(high_degree_matrices(s[0], s[1]), high_degree_matrices(s[1], s[2]))))
def test_matmul_past_the_degree_bound_raises_as_the_checked_dot(ab):
    """Operands whose top degrees sum past ``MAX_DEGREE`` take the checked
    path: the first pair past the bound raises the reference's
    ``OverflowError``, and a product whose high entries never meet is the
    reference's, stored alike."""
    a, b = ab
    try:
        want = checked_matmul(a, b)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as info:
            a @ b
        assert str(info.value) == str(exc)
    else:
        assert stored(a @ b) == stored(want)


def test_matmul_degree_bound_message():
    """Past ``MAX_DEGREE`` the message names the degree of the first pair
    past it, row by row; at the bound the product is held, and operands
    whose top entries never meet multiply."""
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    zero, one = Poly.zero(VARS), Poly.one(VARS)
    half = MAX_DEGREE // 2  # 2 * half + 1 == MAX_DEGREE
    a = PolyMatrix(VARS, [[one, zero], [x ** half, y]])
    b = PolyMatrix(VARS, [[y ** (half + 3) + one, zero], [zero, x ** MAX_DEGREE]])
    with pytest.raises(OverflowError, match=f"^total degree {MAX_DEGREE + 2} exceeds "
                                            f"the limit {MAX_DEGREE}$"):
        a @ b
    held = PolyMatrix(VARS, [[one, zero], [x ** (half - 2), one]])
    assert stored(held @ b) == stored(checked_matmul(held, b))
    assert (held @ b).total_degree() == MAX_DEGREE
    apart = PolyMatrix(VARS, [[x ** MAX_DEGREE, zero], [zero, one]])
    other = PolyMatrix(VARS, [[one, zero], [zero, y ** MAX_DEGREE]])
    assert stored(apart @ other) == stored(checked_matmul(apart, other))


def test_identity_keeps_the_check_of_the_scalar_ring():
    z = Poly.variable(("z",), "z")
    with pytest.raises(ValueError, match="entry variables do not match the matrix"):
        PolyMatrix.identity(VARS, 2, z)
    m = PolyMatrix.identity(VARS, 3, Poly.variable(VARS, "y"))
    assert m == PolyMatrix(VARS, [[Poly.variable(VARS, "y") if i == j else Poly.zero(VARS)
                                   for j in range(3)] for i in range(3)])
    assert PolyMatrix.identity(VARS, 0).entries == ()


# ---------------------------------------------------------------------------
# Determinants against sympy


@st.composite
def split_matrices(draw, max_n=7):
    """An n x n matrix, n <= 7, block-diagonal with up to three blocks, a
    quarter of each block's entries zero, its rows and columns then
    shuffled.  In about a quarter of the draws the row and column cuts of
    the blocks differ, so that some blocks have more rows than columns, or
    rows and no columns (zero rows).  (Zeros are drawn by an integer, not
    ``one_of``, which drew them far more often.)"""
    n = draw(st.integers(0, max_n))
    cuts = st.lists(st.integers(0, n), min_size=2, max_size=2).map(sorted)
    row_cuts = draw(cuts)
    col_cuts = draw(cuts) if draw(st.integers(0, 3)) == 3 else row_cuts
    nonzero = polys(max_terms=2, max_exp=1).filter(lambda p: not p.is_zero)
    zero = Poly.zero(VARS)
    table = [[draw(nonzero) if bisect_right(row_cuts, i) == bisect_right(col_cuts, j)
              and draw(st.integers(0, 3)) < 3 else zero for j in range(n)] for i in range(n)]
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return PolyMatrix(VARS, [[table[i][j] for j in cols] for i in rows], shape=(n, n))


@settings(max_examples=10, **SYMPY_ORACLE)
@given(st.one_of(st.integers(2, 5).flatmap(
    lambda n: st.lists(st.lists(polys(max_terms=2, max_exp=1), min_size=n, max_size=n),
                       min_size=n, max_size=n).map(lambda e: PolyMatrix(VARS, e))),
    split_matrices()))
def test_determinant_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)
    want = sympy.Matrix(m.rows, m.cols, [to_sympy(p, syms) for row in m.entries
                                         for p in row]).det(method="berkowitz")
    assert sympy.expand(to_sympy(m.determinant(), syms) - want) == 0


gaussian_integers = st.builds(GaussianRational.of, st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def gaussian_matrices(draw, rows: int, cols: int) -> PolyMatrix:
    """A rows x cols matrix over x, y, z of Gaussian-integer polynomials of
    one or two terms, about a third of its entries zero."""
    zero = Poly.zero(VARS)

    def entry():
        n = draw(st.integers(1, 2))
        return Poly(VARS, {tuple(draw(st.integers(0, 2)) for _ in VARS): draw(gaussian_integers)
                           for _ in range(n)})

    return PolyMatrix(VARS, [[entry() if draw(st.integers(0, 2)) else zero for _ in range(cols)]
                             for _ in range(rows)], shape=(rows, cols))


def sympy_matrix(m: PolyMatrix, syms):
    import sympy

    return sympy.Matrix(m.rows, m.cols, [to_sympy(p, syms) for row in m.entries for p in row])


@settings(max_examples=10, **SYMPY_ORACLE)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(gaussian_matrices(s[0], s[1]), gaussian_matrices(s[1], s[2]))),
    st.integers(1, 4).flatmap(lambda n: gaussian_matrices(n, n)))
def test_product_and_adjugate_match_sympy(ab, m):
    """sympy's ``Matrix`` product and ``adjugate`` as the oracle, after
    ``expand``, on matrices of at most 4x4 over three variables."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(VARS)
    a, b = ab
    want = sympy_matrix(a, syms) * sympy_matrix(b, syms)
    assert (sympy_matrix(a @ b, syms) - want).expand() == sympy.zeros(a.rows, b.cols)
    want = sympy_matrix(m, syms).adjugate(method="bareiss")
    assert (sympy_matrix(m.adjugate(), syms) - want).expand() == sympy.zeros(m.rows, m.rows)


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


def test_de_rham_5_petrovskii_certified():
    """The 32x32 symbol splits into its even-to-odd and odd-to-even 16x16
    blocks; expanded whole, it did not finish in 40 s."""
    rep = petrovskii_check(maxwell(de_rham_complex(5), 5))
    assert rep.verdict == "certified-symbolic"
    assert rep.certified_form == "(1)*(|zeta|^2)^16"


@pytest.mark.parametrize("variant", [0, 1])
def test_dolbeault_3_petrovskii_certified(variant):
    cplx = dolbeault_complex(3)
    rep = petrovskii_check(maxwell(cplx, cplx.length, None, variant))
    assert rep.verdict == "certified-symbolic"
    assert rep.certified_form == "(1/256)*(|zeta|^2)^4"


# ---------------------------------------------------------------------------
# One-accumulator sums of products against the old loop


def old_mul(self: Poly, other: Poly) -> Poly:
    """The earlier ``Poly.__mul__``, verbatim but for dropping the zero
    numerators, which its constructor did (reference)."""
    self._check_vars(other)
    _check_product(max(self._num, default=0), max(other._num, default=0),
                   _WIDTH * len(self.vars))
    out: dict[int, tuple[int, int]] = {}
    get = out.get
    b_terms = list(other._num.items())
    for ka, (ar, ai) in self._num.items():
        for kb, (br, bi) in b_terms:
            key = ka + kb
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            c = get(key)
            if c is None:
                out[key] = (re, im)
            else:
                out[key] = (c[0] + re, c[1] + im)
    out = {k: c for k, c in out.items() if c != (0, 0)}
    return _poly_nonzero(self.vars, out, self._den * other._den)


def old_sum(vars, pairs) -> Poly:
    """The earlier accumulation of ``PolyMatrix.__matmul__`` and of the
    minor expansion: ``acc = acc + a * b`` from zero (reference)."""
    acc = Poly.zero(vars)
    for a, b in pairs:
        acc = acc + old_mul(a, b)
    return acc


def old_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The earlier sparse ``PolyMatrix.__matmul__`` loop on ``old_sum``."""
    zero = Poly.zero(a.vars)
    out = [[old_sum(a.vars, [(a[i, k], b[k, j]) for k in range(a.cols)
                             if not a[i, k].is_zero and not b[k, j].is_zero])
            if a.cols else zero for j in range(b.cols)] for i in range(a.rows)]
    return PolyMatrix(a.vars, out, shape=(a.rows, b.cols))


def old_determinant(m: PolyMatrix) -> Poly:
    """The earlier memoized first-row expansion of ``_minor_table``, its
    signed terms added one by one with ``old_mul`` (reference)."""
    table = {}

    def minor(rows, cols):
        if len(rows) <= 1:
            return m.entries[rows[0]][cols[0]] if rows else Poly.one(m.vars)
        if (rows, cols) not in table:
            total = Poly.zero(m.vars)
            for pos, j in enumerate(cols):
                a = m.entries[rows[0]][j]
                if a.is_zero:
                    continue
                term = old_mul(a, minor(rows[1:], cols[:pos] + cols[pos + 1:]))
                total = total + term if pos % 2 == 0 else total - term
            table[rows, cols] = total
        return table[rows, cols]

    idx = tuple(range(m.rows))
    return minor(idx, idx)


# a partner of an earlier pair, scaled so that its product cancels that one's
# terms exactly (-1), in part, or not at all
_PARTNER_SCALES = (-1, -1, 1, GaussianRational.of(Fraction(-1, 2)), GaussianRational.i())


@st.composite
def pair_lists(draw, max_pairs=6):
    """Up to ``max_pairs`` Gaussian-rational pairs with different
    denominators; some repeat an earlier pair with one factor scaled, so
    keys cancel mid-sum, reappear later, or cancel in the total."""
    pairs = []
    for _ in range(draw(st.integers(0, max_pairs))):
        if pairs and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(pairs))
            c = draw(st.sampled_from(_PARTNER_SCALES))
            pairs.append((a.scale(c), b) if draw(st.booleans()) else (a, b.scale(c)))
        else:
            pairs.append((draw(polys(max_terms=3)), draw(polys(max_terms=3))))
    return pairs


@settings(max_examples=300, deadline=None)
@given(pair_lists())
def test_dot_matches_the_old_loop(pairs):
    got = _dot(VARS, pairs)
    assert stored(got) == stored(old_sum(VARS, pairs))
    assert_canonical(got)
    if len(pairs) == 1:  # Poly.__mul__ is the lone pair
        a, b = pairs[0]
        assert stored(got) == stored(a * b) == stored(old_mul(a, b))


def test_dot_deletes_a_cancelled_key_and_appends_it_anew():
    """x^2 cancels after the second product and comes back at the end, after
    xy, as the old loop stores it; a key that cancels only partway through
    a product stays; a sum that cancels to zero has den 1."""
    x, y = Poly.variable(VARS, "x"), Poly.variable(VARS, "y")
    half = Poly.constant(VARS, Fraction(1, 2))
    pairs = [(x, x + y), (x, -x), (x.scale(Fraction(1, 3)), x)]
    got = _dot(VARS, pairs)
    assert list(got.terms) == [(1, 1, 0), (2, 0, 0)]
    assert stored(got) == stored(old_sum(VARS, pairs))
    # within one product, x^2 cancels against the sum and comes back: it
    # keeps its place, as in the old sum of (x + x^2)(2 - x) = x^2 + 2x - x^3
    a = Poly(VARS, {(1, 0, 0): 1, (2, 0, 0): 1})
    b = Poly(VARS, {(1, 0, 0): -1, (0, 0, 0): 2})
    got = _dot(VARS, [(x, x), (a, b)])
    assert list(got.terms) == [(2, 0, 0), (1, 0, 0), (3, 0, 0)]
    assert stored(got) == stored(old_sum(VARS, [(x, x), (a, b)]))
    zero = _dot(VARS, [(half, x + y), (x + y, -half)])
    assert zero.is_zero and zero._den == 1
    assert _dot(VARS, []) == Poly.zero(VARS)


def test_dot_keeps_the_product_checks():
    x = Poly.variable(VARS, "x")
    with pytest.raises(ValueError, match="variable mismatch"):
        _dot(VARS, [(x, x), (x, Poly.variable(("x",), "x"))])
    with pytest.raises(OverflowError):
        _dot(VARS, [(x, x), (x ** 17000, x ** 17000)])
    tall = PolyMatrix(VARS, [[x ** 17000], [x ** 17000]])
    with pytest.raises(OverflowError):
        tall.transpose() @ tall


@st.composite
def cancelling_matrices(draw, rows, inner, cols):
    """A rows x inner and an inner x cols matrix, 0-sized dimensions
    included, whose entries come from a small pool of polynomials and their
    negatives, so the sums of an entry's products cancel in part or in
    full; about half of the entries are zero."""
    pool = draw(st.lists(polys(max_terms=3), min_size=1, max_size=3))
    pool += [-p for p in pool] + [Poly.zero(VARS)] * len(pool)
    entry = st.sampled_from(pool)
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return (PolyMatrix(VARS, a, shape=(rows, inner)),
            PolyMatrix(VARS, b, shape=(inner, cols)))


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: cancelling_matrices(*s)))
def test_matmul_matches_the_old_loop(ab):
    a, b = ab
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert stored(got) == stored(old_matmul(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(Poly.zero(VARS)), polys(max_terms=2, max_exp=1)),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_the_old_loop(entries):
    """A matrix of one block stores what the old loop stores; a split one
    the old loop's block determinants multiplied in order with ``old_mul``."""
    m = PolyMatrix(VARS, entries)
    det = m.determinant()
    assert det == old_determinant(m)
    assert stored(det) == stored(split_determinant(m, old_determinant, old_mul))


@settings(max_examples=150, deadline=None)
@given(split_matrices())
def test_split_determinant_matches_the_unsplit_expansion(m):
    idx = tuple(range(m.rows))
    det = m.determinant()
    assert det == m._minor_table()(idx, idx)
    assert stored(det) == stored(split_determinant(m, old_determinant, old_mul))
    assert_canonical(det)
    if not m.rows:
        assert stored(det) == stored(Poly.one(VARS))


# ---------------------------------------------------------------------------
# Block placement against summed embeddings


def old_embed(self: PolyMatrix, rows: int, cols: int, r0: int, c0: int) -> PolyMatrix:
    """The earlier ``PolyMatrix.embed``, verbatim (reference)."""
    r1, c1 = r0 + self.rows, c0 + self.cols
    if not (0 <= r0 and r1 <= rows and 0 <= c0 and c1 <= cols):
        raise ValueError(
            f"a {self.rows}x{self.cols} block at ({r0}, {c0}) "
            f"does not fit a {rows}x{cols} matrix"
        )
    z = Poly.zero(self.vars)
    zero_row = (z,) * cols
    left, right = (z,) * c0, (z,) * (cols - c1)
    return PolyMatrix(
        self.vars,
        [zero_row] * r0
        + [left + row + right for row in self.entries]
        + [zero_row] * (rows - r1),
        shape=(rows, cols),
    )


@st.composite
def block_maps(draw):
    """A partition of 1 to 4 degrees (rank 0 allowed) and a nonempty map
    of distinct degree pairs to blocks of their shapes."""
    part = BlockPartition(tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))))
    degree = st.integers(0, part.top)
    keys = draw(st.lists(st.tuples(degree, degree), min_size=1, max_size=6, unique=True))
    return part, {(r, c): PolyMatrix(
        VARS, [[draw(polys(max_terms=2)) for _ in range(part.ranks[c])]
               for _ in range(part.ranks[r])], shape=(part.ranks[r], part.ranks[c]))
        for r, c in keys}


SIG = Signature(VARS)


@settings(max_examples=120, deadline=None)
@given(block_maps())
def test_placement_matches_summed_embeds(case):
    """``PolyMatrix.place`` and ``block_place`` on operator and symbol
    matrices give the sum of the old ``embed``s, entry for entry."""
    part, blocks = case
    n = part.size
    embeds = [old_embed(blk, n, n, part.offset(r), part.offset(c))
              for (r, c), blk in blocks.items()]
    want = reduce(add, embeds)
    got = PolyMatrix.place(VARS, n, n, [(blk, part.offset(r), part.offset(c))
                                        for (r, c), blk in blocks.items()])
    assert stored(got) == stored(want)
    for kind in (OperatorMatrix, SymbolMatrix):
        placed = block_place(part, {rc: kind(SIG, blk) for rc, blk in blocks.items()})
        assert type(placed) is kind and placed.signature == SIG
        assert stored(placed.body) == stored(want)
        assert placed == reduce(add, (kind(SIG, e) for e in embeds))


@st.composite
def overlapping_blocks(draw):
    """Two nonempty blocks of a 6x6 matrix that share at least one cell."""
    r0, c0 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    h, w = draw(st.integers(1, 6 - r0)), draw(st.integers(1, 6 - c0))
    i, j = draw(st.integers(r0, r0 + h - 1)), draw(st.integers(c0, c0 + w - 1))
    s0, t0 = draw(st.integers(0, i)), draw(st.integers(0, j))
    h2, w2 = draw(st.integers(i - s0 + 1, 6 - s0)), draw(st.integers(j - t0 + 1, 6 - t0))
    return (PolyMatrix.zeros(VARS, h, w), r0, c0), (PolyMatrix.zeros(VARS, h2, w2), s0, t0)


@settings(max_examples=120, deadline=None)
@given(overlapping_blocks(), st.booleans())
def test_placement_rejects_overlapping_blocks(blocks, swap):
    first, second = blocks if not swap else blocks[::-1]
    with pytest.raises(ValueError, match="overlaps another block"):
        PolyMatrix.place(VARS, 6, 6, [first, second])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 5), st.integers(-2, 5))
def test_placement_bounds(h, w, r0, c0):
    """A block fits a 4x4 matrix exactly when ``embed`` accepts it."""
    blk = PolyMatrix.identity(VARS, 3).block(0, h, 0, w)
    fits = 0 <= r0 and r0 + h <= 4 and 0 <= c0 and c0 + w <= 4
    if fits:
        assert PolyMatrix.place(VARS, 4, 4, [(blk, r0, c0)]) == old_embed(blk, 4, 4, r0, c0)
    else:
        with pytest.raises(ValueError, match="does not fit a 4x4 matrix"):
            PolyMatrix.place(VARS, 4, 4, [(blk, r0, c0)])


def test_block_place_rejects_bad_degrees_and_shapes():
    part = BlockPartition((1, 2, 1))
    one = OperatorMatrix.identity(SIG, 1)
    with pytest.raises(ValueError, match="degree 3 outside 0..2"):
        block_place(part, {(3, 0): one})
    with pytest.raises(ValueError, match="degree -1 outside 0..2"):
        block_place(part, {(0, -1): one})
    with pytest.raises(ValueError, match=r"block \(1,1\) expects 2x2, got 1x1"):
        block_place(part, {(0, 0): one, (1, 1): one})
    with pytest.raises(ValueError, match="blocks is empty"):
        block_place(part, {})
    # operator and symbol blocks do not mix, as in a sum; also when the two
    # signatures' spatial names coincide
    sym = SymbolMatrix.identity(SIG.symbol_signature(), 1)
    same_names = SymbolMatrix.identity(SIG, 1)
    for other in (sym, same_names):
        with pytest.raises(TypeError, match="cannot place a SymbolMatrix block "
                                            "among OperatorMatrix blocks"):
            block_place(part, {(0, 0): one, (2, 2): other})


# ---------------------------------------------------------------------------
# Constant weights scale the coefficients, stored as the product


weights = st.one_of(
    st.sampled_from([GaussianRational.i(), GaussianRational.of(-1),
                     GaussianRational.of(Fraction(-3, 2), Fraction(1, 6))]),
    coefficients)


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(3, 4), weights)
def test_constant_scale_stores_the_product(m, c):
    w = Poly.constant(VARS, c)
    got = m.scale(w)
    assert stored(got) == stored(m.map(lambda p: p * w if p._num else p))
    assert stored(got) == stored(m.scale(c))


@settings(max_examples=150, deadline=None)
@given(polys(), st.one_of(weights, st.just(GaussianRational.zero()), st.integers(-4, 4)))
def test_poly_scale_stores_the_product(p, c):
    """``Poly.scale`` stores what the product with the constant stores, in
    canonical form: by zero, the zero polynomial over denominator one."""
    got = p.scale(c)
    assert stored(got) == stored(p * Poly.constant(VARS, c))
    assert got.vars == p.vars and (0, 0) not in got._num.values()
    if poly._coerce_coeff(c).is_zero:
        assert stored(got) == stored(Poly.zero(VARS))


def test_constant_scales_split_once_and_share_zero(monkeypatch):
    """A constant, or a constant ``Poly``, is split once for a whole matrix;
    the ``Poly`` one returns the matrix itself, over any variables; and
    ``GaussianRational.of`` builds no zero ``Fraction`` for a real part."""
    x, zero = Poly.variable(VARS, "x"), Poly.zero(VARS)
    m = PolyMatrix(VARS, [[x, zero, x * x], [x + Poly.one(VARS), zero, zero]])
    assert m.scale(Poly.one(VARS)) is m and m.scale(Poly.one(("x",))) is m
    splits = []
    real = poly._split
    monkeypatch.setattr(poly, "_split", lambda c: splits.append(c) or real(c))
    for value in (Fraction(-3, 4), GaussianRational.of(2, 1)):
        assert stored(m.scale(value)) == stored(m.scale(Poly.constant(VARS, value)))
    assert len(splits) == 2 + 2  # one per matrix: two constants, two to build the Polys
    assert GaussianRational.of(Fraction(1, 3)).im is GaussianRational.of(5).im


def test_only_a_polynomial_weight_multiplies(monkeypatch):
    x, zero, one = Poly.variable(VARS, "x"), Poly.zero(VARS), Poly.one(VARS)
    m = PolyMatrix(VARS, [[x + one, zero], [x * x, Poly.constant(VARS, GaussianRational.i())]])
    w = x - Poly.constant(VARS, Fraction(1, 2))
    want = m.map(lambda p: p * w if p._num else p)
    calls = []
    real = poly._dot
    monkeypatch.setattr(poly, "_dot", lambda vars, pairs: calls.append(pairs) or real(vars, pairs))
    m.scale(Poly.constant(VARS, Fraction(-2, 3)))
    assert not calls
    assert stored(m.scale(w)) == stored(want)
    assert len(calls) == 3  # one product per nonzero entry
    # a weight over other variables raises as its product does
    other = Poly.constant(("x",), 2)
    with pytest.raises(ValueError) as product:
        x * other
    with pytest.raises(ValueError) as scaled:
        m.scale(other)
    assert str(scaled.value) == str(product.value)


# ---------------------------------------------------------------------------
# Whole-matrix lifts against the earlier entry-by-entry lift


def old_lift(self: Poly, new_vars) -> Poly:
    """The earlier ``Poly.lift``, verbatim (reference)."""
    new_vars = poly._ring(new_vars)
    if self.vars == new_vars:
        return self
    for v in self.vars:
        if v not in new_vars:
            raise ValueError(f"variable {v!r} missing from {new_vars}")
    moves = list(zip(poly._shifts(self.vars, self.vars), poly._shifts(new_vars, self.vars)))
    top, new_top = _WIDTH * len(self.vars), _WIDTH * len(new_vars)
    out = {}
    for key, c in self._num.items():
        new_key = key >> top << new_top  # the degree field
        for old, new in moves:
            new_key |= (key >> old & poly._FIELD) << new
        out[new_key] = c
    return _poly_nonzero(new_vars, out, self._den)


@st.composite
def lift_targets(draw):
    """A ring holding VARS: new variables interleaved with VARS in order or
    in any order, or a signature with VARS as its spatial variables and a
    time variable or parameters."""
    kind = draw(st.sampled_from(("interleaved", "permuted", "signature")))
    if kind == "signature":
        return Signature(VARS, draw(st.sampled_from((None, "dt"))),
                         draw(st.lists(st.sampled_from(("mu", "nu", "a")), unique=True))).vars
    extra = draw(st.lists(st.sampled_from(("u", "v", "w", "t")), unique=True))
    if kind == "permuted":
        return tuple(draw(st.permutations(VARS + tuple(extra))))
    new_vars = list(VARS)
    for v in extra:
        new_vars.insert(draw(st.integers(0, len(new_vars))), v)
    return tuple(new_vars)


lift_entries = st.one_of(st.just(Poly.zero(VARS)), polys(), polys(max_exp=MAX_DEGREE // len(VARS)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda c: st.lists(st.lists(lift_entries, min_size=c, max_size=c),
                                                    min_size=1, max_size=3)),
       lift_targets())
def test_matrix_lift_is_the_entrywise_lift(rows, new_vars):
    """Each entry of a lifted matrix is stored as the earlier lift of that
    entry stores it, term order included, and every zero entry of a lift
    that changes the ring is one object."""
    m = PolyMatrix(VARS, rows)
    lifted = m.lift(new_vars)
    assert (lifted.vars, lifted.rows, lifted.cols) == (new_vars, m.rows, m.cols)
    assert stored(lifted) == [[stored(old_lift(p, new_vars)) for p in row] for row in rows]
    assert all(p.vars == new_vars for row in lifted.entries for p in row)
    if new_vars == VARS:
        assert lifted is m
        return
    zeros = [p for row in lifted.entries for p in row if p.is_zero]
    assert all(z is zeros[0] for z in zeros)


def test_zero_entries_of_a_lift_are_one_object():
    op = de_rham_complex(3).op(1)
    lifted = op.lift(Signature(("d1", "d2", "d3"), "dt", ("mu",))).body
    zeros = {id(p) for row in lifted.entries for p in row if p.is_zero}
    assert len(zeros) == 1 and sum(p.is_zero for row in lifted.entries for p in row) == 3
    assert zeros != {id(p) for row in op.body.entries for p in row if p.is_zero}


def test_lift_onto_a_ring_without_a_variable_raises_as_before():
    p = Poly.variable(VARS, "y")
    errors = []
    for lift in (PolyMatrix(VARS, [[Poly.one(VARS), p]]).lift, p.lift,
                 lambda vars: old_lift(p, vars)):
        with pytest.raises(ValueError) as e:
            lift(("x", "z", "t"))
        errors.append(str(e.value))
    assert errors == ["variable 'y' missing from ('x', 'z', 't')"] * 3


@settings(max_examples=100, deadline=None)
@given(polys(), lift_targets(), st.lists(st.sampled_from(VARS), unique=True),
       st.integers(-1, 6), st.booleans(), st.booleans())
def test_poly_lift_and_twist_are_their_1x1_matrix_cases(p, new_vars, subset, turns,
                                                        conjugate, rename):
    cell = PolyMatrix(VARS, [[p]])
    assert p.lift(VARS) is p and cell.lift(VARS) is cell
    assert stored(p.lift(new_vars)) == stored(cell.lift(new_vars)[0, 0])
    assert stored(p.lift(iter(new_vars))) == stored(old_lift(p, new_vars))
    vars = ("a", "b", "c") if rename else None
    twisted = p.twist(subset, turns, conjugate=conjugate, vars=vars)
    assert twisted.vars == (vars or VARS)
    assert stored(twisted) == stored(cell.twist(subset, turns, conjugate=conjugate,
                                                vars=vars)[0, 0])
