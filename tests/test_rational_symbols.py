"""Factored rational symbols against the full-product arithmetic.

``RationalSymbolMatrix`` keeps its denominator as powers of monic factors and
adds over their lcm.  ``_Slow`` is the earlier arithmetic, which multiplies
whole denominators, kept here as the oracle: every operation must give the
same fraction, and the factored denominator must divide the full product.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cxkit.complexes import MuSet, de_rham_complex, dolbeault_complex
from cxkit.diffop import Signature, SymbolMatrix
from cxkit.poly import GaussianRational, Poly
from cxkit.symbols import (
    RationalSymbolMatrix,
    invert_symbol,
    maxwell_parametrix_symbol,
    stokes_fundamental_symbol,
)

SIG0 = Signature(("z1", "z2"), None, ())
SIG1 = Signature(("z1", "z2"), None, ("mu",))


class _Slow:
    """num / den with the denominators multiplied out on every operation."""

    def __init__(self, num: SymbolMatrix, den: Poly):
        self.num, self.den = num, den

    def _align(self, other: "_Slow") -> tuple["_Slow", "_Slow"]:
        sig = self.num.signature.merge(other.num.signature)
        return (_Slow(self.num.lift(sig), self.den.lift(sig.vars)),
                _Slow(other.num.lift(sig), other.den.lift(sig.vars)))

    def __add__(self, other):
        a, b = self._align(other)
        return _Slow(a.num.scale(b.den) + b.num.scale(a.den), a.den * b.den)

    def __sub__(self, other):
        a, b = self._align(other)
        return _Slow(a.num.scale(b.den) - b.num.scale(a.den), a.den * b.den)

    def __matmul__(self, other):
        a, b = self._align(other)
        return _Slow(a.num @ b.num, a.den * b.den)

    def __eq__(self, other):
        a, b = self._align(other)
        return a.num.scale(b.den) == b.num.scale(a.den)

    def is_identity(self) -> bool:
        ident = SymbolMatrix.identity(self.num.signature, self.num.rows)
        return self.num == ident.scale(self.den)


def _vars(sig: Signature) -> dict[str, Poly]:
    return {v: Poly.variable(sig.vars, v) for v in sig.vars}


def _pool(sig: Signature) -> list[Poly]:
    """Distinct monic factors (leading coefficient one under grlex)."""
    v = _vars(sig)
    one = Poly.one(sig.vars)
    z1, z2 = v["z1"], v["z2"]
    pool = [z1 * z1 + z2 * z2, z1, z1 + z2 + one, z2 * z2 - z1 + one.scale(2)]
    if "mu" in v:
        pool.append(v["mu"] * z1 + one)
    assert all(f.leading_term()[1] == GaussianRational.one() for f in pool)
    return pool


UNITS = [1, 2, Fraction(-3, 2), GaussianRational.i()]


@st.composite
def _entries(draw, sig: Signature) -> Poly:
    v = _vars(sig)
    monomials = [Poly.one(sig.vars), v["z1"], v["z2"], v["z1"] * v["z2"]]
    if "mu" in v:
        monomials.append(v["mu"])
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monomials),
                           max_size=len(monomials)))
    total = Poly.zero(sig.vars)
    for c, m in zip(coeffs, monomials):
        total = total + m.scale(c)
    return total


def _factored(num: SymbolMatrix, unit, exps: list[int], pool: list[Poly],
              expanded: bool) -> RationalSymbolMatrix:
    """``num / (unit * prod pool[i]**exps[i])``: one factor per pool entry
    (a product of single-factor identities), or the whole product as one
    factor."""
    sig = num.signature
    if expanded:
        den = Poly.constant(sig.vars, unit)
        for f, e in zip(pool, exps):
            den = den * f ** e
        return RationalSymbolMatrix(num, den)
    out = RationalSymbolMatrix(num, Poly.constant(sig.vars, unit))
    ident = SymbolMatrix.identity(sig, num.cols)
    for f, e in zip(pool, exps):
        for _ in range(e):
            out = out @ RationalSymbolMatrix(ident, f)
    return out


@st.composite
def operands(draw) -> tuple[RationalSymbolMatrix, _Slow, tuple]:
    """A 2x2 rational symbol, its oracle, and the parts it was built from."""
    sig = draw(st.sampled_from([SIG0, SIG1]))
    pool = _pool(sig)
    exps = draw(st.lists(st.integers(0, 2), min_size=len(pool), max_size=len(pool)))
    unit = draw(st.sampled_from(UNITS))
    expanded = draw(st.booleans())
    num = SymbolMatrix.from_entries(sig, [[draw(_entries(sig)) for _ in range(2)]
                                          for _ in range(2)])
    den = Poly.constant(sig.vars, unit)
    for f, e in zip(pool, exps):
        den = den * f ** e
    parts = (unit, exps, pool, expanded)
    return _factored(num, *parts), _Slow(num, den), parts


def _assert_same_fraction(got: RationalSymbolMatrix, want: _Slow) -> None:
    assert _Slow(got.num, got.den) == want
    # the factored denominator divides the full product
    sig = got.signature.merge(want.num.signature)
    want.den.lift(sig.vars).exact_div(got.den.lift(sig.vars))


@settings(max_examples=60, deadline=None)
@given(operands(), operands())
def test_arithmetic_matches_full_products(x, y):
    (fa, sa, _), (fb, sb, _) = x, y
    _assert_same_fraction(fa + fb, sa + sb)
    _assert_same_fraction(fa - fb, sa - sb)
    _assert_same_fraction(fa @ fb, sa @ sb)
    # a polynomial operand on either side is taken over the denominator one
    sym = sb.num
    one = Poly.one(sym.signature.vars)
    _assert_same_fraction(fa + sym, sa + _Slow(sym, one))
    _assert_same_fraction(sym - fa, _Slow(sym, one) - sa)
    _assert_same_fraction(sym @ fa, _Slow(sym, one) @ sa)


@settings(max_examples=60, deadline=None)
@given(operands(), operands())
def test_equality_matches_cross_multiplication(x, y):
    (fa, sa, _), (fb, sb, _) = x, y
    assert (fa == fb) == (sa == sb)
    # the same fraction with an extra factor on both sides
    f = _pool(fb.signature)[-1]
    ident = SymbolMatrix.identity(fb.signature, 2)
    padded = fb @ RationalSymbolMatrix(ident.scale(f), f)
    assert padded == fb and fb == padded
    assert hash(padded) == hash(fb)
    assert (fa == padded) == (sa == sb)


@settings(max_examples=60, deadline=None)
@given(operands())
def test_is_identity_matches_full_product(x):
    fa, sa, parts = x
    assert fa.is_identity() == sa.is_identity()
    ident = _factored(SymbolMatrix.identity(sa.num.signature, 2).scale(sa.den), *parts)
    assert ident.is_identity()
    assert (ident - fa).is_identity() == (_Slow(ident.num, ident.den) - sa).is_identity()


def test_equal_values_hash_alike():
    """Equal fractions hash alike however they are stored."""
    v = _vars(SIG0)
    n2 = v["z1"] * v["z1"] + v["z2"] * v["z2"]
    s = SymbolMatrix.from_entries(SIG0, [[v["z1"], v["z2"]]])
    a = RationalSymbolMatrix(s, n2)
    variants = [
        RationalSymbolMatrix(s.scale(2), n2.scale(2)),
        RationalSymbolMatrix(s.scale(n2), n2 * n2),
        a @ RationalSymbolMatrix(SymbolMatrix.identity(SIG0, 2).scale(n2), n2),
    ]
    for b in variants:
        assert a == b and hash(a) == hash(b)
    assert len({a, *variants}) == 1


def test_scalar_block_inverse_keeps_the_power():
    """s I_k inverts to monic(s)^(k-1) I / lc(s) over monic(s)^k: the
    adjugate/determinant fraction with the determinant as a power."""
    v = _vars(SIG0)
    n2 = v["z1"] * v["z1"] + v["z2"] * v["z2"]
    block = SymbolMatrix.identity(SIG0, 3).scale(n2.scale(Fraction(1, 4)))
    inv = invert_symbol(block)
    assert inv.factors == {n2: 3}
    assert inv.num == SymbolMatrix.identity(SIG0, 3).scale(n2 * n2).scale(4)
    assert (inv @ block).is_identity() and (block @ inv).is_identity()


def _norm2(sig: Signature) -> Poly:
    total = Poly.zero(sig.vars)
    for z in sig.spatial:
        total = total + Poly.variable(sig.vars, z) ** 2
    return total


PARAMETRIX_COMPLEXES = {
    "de-rham-3": lambda: de_rham_complex(3),
    "de-rham-4": lambda: de_rham_complex(4),
    "dolbeault-3": lambda: dolbeault_complex(3),
}


@pytest.mark.parametrize("name, top_rank", [
    ("de-rham-3", 3), ("de-rham-4", 6), ("dolbeault-3", 3)])
@pytest.mark.parametrize("side", ["right", "left"])
def test_parametrix_denominator_is_the_top_block_power(name, top_rank, side):
    """Every block is a multiple of |zeta|^2 I, so the lcm of the blocks'
    denominators is (|zeta|^2)^(largest rank); the earlier full product was
    (|zeta|^2)^(sum of the ranks), and 1/4-scaled for Dolbeault."""
    cplx = PARAMETRIX_COMPLEXES[name]()
    assert top_rank == max(cplx.rank(j) for j in range(cplx.length + 1))
    f = maxwell_parametrix_symbol(cplx, None, side)
    n2 = _norm2(f.signature)
    assert f.factors == {n2: top_rank}
    assert f.den == n2 ** top_rank


def test_oseen_denominator_is_the_full_product():
    """The degree-1 block is mu |zeta|^2 I_3 and the degree-0 block |zeta|^2.
    Factors are never split (no content or parameter split), so mu |zeta|^2
    stays one factor, distinct from |zeta|^2; the lcm of the two blocks is
    then their product, and F = core @ (block inverse) has the denominator of
    the earlier arithmetic, mu^6 |zeta|^14.  The ``oseen-symbol`` fixture
    prints it, and the fixture bundle is pinned byte for byte."""
    c = de_rham_complex(3, params=["mu"])
    mu = c.op(0).poly("mu")
    f, report = stokes_fundamental_symbol(c, 1, MuSet.scalar(c, mu, degrees=[1]))
    assert report["ok"]
    n2 = _norm2(f.signature)
    mu_n2 = Poly.variable(f.signature.vars, "mu") * n2
    assert f.factors == {mu_n2: 6, n2: 1}
    assert f.den == mu_n2 ** 6 * n2
