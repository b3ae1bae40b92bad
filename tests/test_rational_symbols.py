"""Factored rational symbols against the full-product arithmetic.

``RationalSymbolMatrix`` keeps its denominator as powers of monic factors,
and a core matrix times powers of monic factors as its numerator; it adds
over the lcm of the denominators.  ``_Slow`` is the earlier arithmetic, which
multiplies whole denominators, kept here as the oracle: every operation must
give the same fraction, and its factored denominator must divide the product
of the operands' denominators.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from cxkit.cli import main
from cxkit.complexes import MuSet, de_rham_complex
from cxkit.diffop import Signature, SymbolMatrix
from cxkit.poly import GaussianRational, Poly
from cxkit.symbols import (
    RationalSymbolMatrix,
    block_diagonal_inverse,
    invert_symbol,
    maxwell_parametrix_symbol,
    stokes_fundamental_symbol,
)

from _helpers import build, norm2, stored, with_mu

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


BUILDS = ("expanded", "factored", "inverses")


def _factored(num: SymbolMatrix, unit, exps: list[int], pool: list[Poly],
              build: str) -> RationalSymbolMatrix:
    """``num / (unit * prod pool[i]**exps[i])``: the whole product as one
    factor ("expanded"), one factor per pool entry as a product of
    single-factor identities ("factored"), or as a product of scalar-block
    inverses, f I / f^2 each, so the numerator carries factors too
    ("inverses")."""
    sig = num.signature
    if build == "expanded":
        den = Poly.constant(sig.vars, unit)
        for f, e in zip(pool, exps):
            den = den * f ** e
        return RationalSymbolMatrix(num, den)
    out = RationalSymbolMatrix(num, Poly.constant(sig.vars, unit))
    ident = SymbolMatrix.identity(sig, num.cols)
    for f, e in zip(pool, exps):
        for _ in range(e):
            out = out @ (invert_symbol(ident.scale(f)) if build == "inverses"
                         else RationalSymbolMatrix(ident, f))
    return out


@st.composite
def operands(draw) -> tuple[RationalSymbolMatrix, _Slow, tuple]:
    """A 2x2 rational symbol, its oracle, and the parts it was built from."""
    sig = draw(st.sampled_from([SIG0, SIG1]))
    pool = _pool(sig)
    exps = draw(st.lists(st.integers(0, 2), min_size=len(pool), max_size=len(pool)))
    unit = draw(st.sampled_from(UNITS))
    build = draw(st.sampled_from(BUILDS))
    num = SymbolMatrix.from_entries(sig, [[draw(_entries(sig)) for _ in range(2)]
                                          for _ in range(2)])
    den = Poly.constant(sig.vars, unit)
    for f, e in zip(pool, exps):
        den = den * f ** e
    parts = (unit, exps, pool, build)
    out = _factored(num, *parts)
    _assert_same_fraction(out, _Slow(num, den))
    return out, _Slow(num, den), parts


def _expand(sig: Signature, exps: dict[Poly, int]) -> Poly:
    out = Poly.one(sig.vars)
    for f, e in exps.items():
        out = out * f ** e
    return out


def _assert_same_fraction(got: RationalSymbolMatrix, want: _Slow,
                          *operands: RationalSymbolMatrix) -> None:
    """``got`` is the fraction ``want``, and its denominator divides the
    product of the operands' denominators."""
    # num and den are the expanded products of the factored storage
    assert got.num == got.core.scale(_expand(got.signature, got.num_factors))
    assert got.den == _expand(got.signature, got.factors)
    assert all(e > 0 for e in [*got.num_factors.values(), *got.factors.values()])
    assert _Slow(got.num, got.den) == want
    if operands:
        full = Poly.one(got.signature.vars)
        for op in operands:
            full = full * op.den.lift(got.signature.vars)
        full.exact_div(got.den)


@settings(max_examples=60, deadline=None)
@given(operands(), operands())
def test_arithmetic_matches_full_products(x, y):
    (fa, sa, _), (fb, sb, _) = x, y
    _assert_same_fraction(fa + fb, sa + sb, fa, fb)
    _assert_same_fraction(fa - fb, sa - sb, fa, fb)
    _assert_same_fraction(fa @ fb, sa @ sb, fa, fb)
    # a polynomial operand on either side is taken over the denominator one
    sym = sb.num
    one = Poly.one(sym.signature.vars)
    _assert_same_fraction(fa + sym, sa + _Slow(sym, one), fa)
    _assert_same_fraction(sym - fa, _Slow(sym, one) - sa, fa)
    _assert_same_fraction(sym @ fa, _Slow(sym, one) @ sa, fa)


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
    adjugate/determinant fraction with the determinant as a power.  The
    numerator power is kept as a factor of the constant core I / lc(s)."""
    v = _vars(SIG0)
    n2 = v["z1"] * v["z1"] + v["z2"] * v["z2"]
    for k in (1, 2, 3):
        ident = SymbolMatrix.identity(SIG0, k)
        block = ident.scale(n2.scale(Fraction(1, 4)))
        inv = invert_symbol(block)
        assert inv.factors == {n2: k}
        assert inv.num_factors == ({n2: k - 1} if k > 1 else {})
        assert inv.core == ident.scale(4)
        assert inv.num == ident.scale(n2 ** (k - 1)).scale(4)
        assert inv.den == n2 ** k
        assert (inv @ block).is_identity() and (block @ inv).is_identity()
        # a constant block has no factor at all
        const = invert_symbol(ident.scale(Fraction(-3, 2)))
        assert const.factors == {} and const.num_factors == {}
        assert const.num == ident.scale(Fraction(-2, 3))
        assert const.den == Poly.one(SIG0.vars)


def _parent_inverse(m: SymbolMatrix, s: Poly) -> tuple[SymbolMatrix, dict, dict]:
    """The core and factor maps of the inverse of m = s I_k as they were
    built from the coefficient 1/lc(s) in Fractions: ``s.scale(1/lc)`` for
    the factor and ``identity(...).scale(1/lc)`` for the core (reference)."""
    one = GaussianRational.one()
    lc = s.leading_term()[1]
    base = s if lc == one else s.scale(one / lc)
    core = SymbolMatrix.identity(m.signature, m.rows).scale(one / lc)
    if base.is_constant:
        return core, {}, {}
    return core, ({base: m.rows - 1} if m.rows > 1 else {}), {base: m.rows}


def _stored_factors(factors: dict) -> list:
    return [(stored(f), e) for f, e in factors.items()]


# leading coefficients off the real line, not one, and one
_LEADS = st.one_of(
    st.builds(GaussianRational.of, st.fractions(-5, 5, max_denominator=7),
              st.fractions(-5, 5, max_denominator=7)),
    st.sampled_from([GaussianRational.one(), GaussianRational.i(),
                     GaussianRational.of(0, -3), GaussianRational.of(Fraction(2, 3), 1)]))


@st.composite
def _scalar_blocks(draw) -> tuple[SymbolMatrix, Poly]:
    """s I_k for k in 1..4 and a nonzero s over z1, z2 (and mu): a sum of
    monomials times Gaussian rationals, a random one of them leading."""
    sig = draw(st.sampled_from([SIG0, SIG1]))
    v = _vars(sig)
    monomials = [Poly.one(sig.vars), v["z1"], v["z2"], v["z1"] * v["z1"] + v["z2"] * v["z2"],
                 v["z1"] * v["z2"]] + ([v["mu"] * v["z1"]] if "mu" in v else [])
    picked = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3))
    s = Poly.zero(sig.vars)
    for m in picked:
        s = s + m.scale(draw(_LEADS))
    assume(not s.is_zero)
    k = draw(st.integers(1, 4))
    return SymbolMatrix.identity(sig, k, s), s


@settings(max_examples=100, deadline=None)
@given(_scalar_blocks())
def test_scalar_inverse_matches_the_fraction_reciprocal(block):
    """One packed reciprocal 1/lc builds the same core and factor maps,
    stored alike, as scaling by the Fraction 1/lc did; and a fraction over
    s keeps that construction's core."""
    m, s = block
    inv = invert_symbol(m)
    core, num_factors, factors = _parent_inverse(m, s)
    assert stored(inv.core) == stored(core)
    assert _stored_factors(inv.num_factors) == _stored_factors(num_factors)
    assert _stored_factors(inv.factors) == _stored_factors(factors)
    assert (inv @ m).is_identity()
    lc = s.leading_term()[1]
    over = RationalSymbolMatrix(m, s)
    assert stored(over.core) == stored(m.scale(GaussianRational.one() / lc))
    assert _stored_factors(over.factors) == _stored_factors({f: 1 for f in factors})


@pytest.mark.parametrize("name, top_rank", [
    ("de-rham-3", 3), ("de-rham-4", 6), ("de-rham-5", 10), ("dolbeault-3", 3)])
@pytest.mark.parametrize("side", ["right", "left"])
def test_parametrix_denominator_is_the_top_block_power(name, top_rank, side):
    """Every block is a multiple of |zeta|^2 I, so the lcm of the blocks'
    denominators is (|zeta|^2)^(largest rank); the earlier full product was
    (|zeta|^2)^(sum of the ranks), and 1/4-scaled for Dolbeault."""
    cplx = build(name)
    assert top_rank == max(cplx.rank(j) for j in range(cplx.length + 1))
    f = maxwell_parametrix_symbol(cplx, None, side)
    n2 = norm2(f.signature)
    assert f.factors == {n2: top_rank}
    assert f.den == n2 ** top_rank


def test_block_diagonal_inverse_pulls_out_the_shared_power():
    """Each de Rham(5) block inverts to (|zeta|^2)^(r-1) I over (|zeta|^2)^r.
    Over the lcm (|zeta|^2)^10 every block's numerator is (|zeta|^2)^9 I, a
    power all blocks share, so it stays a factor and the core is the
    constant identity: the parametrix products multiply constants."""
    cplx = de_rham_complex(5)
    inv = block_diagonal_inverse(cplx, range(6))
    n2 = norm2(inv.signature)
    assert inv.factors == {n2: 10} and inv.num_factors == {n2: 9}
    assert inv.core == SymbolMatrix.identity(inv.signature, 32)


def test_block_diagonal_inverse_needs_a_degree():
    with pytest.raises(ValueError, match="degrees"):
        block_diagonal_inverse(de_rham_complex(3), [])


@pytest.mark.parametrize("q", [2, 3])
def test_de_rham_5_stokes_fundamental_symbol(q):
    c = de_rham_complex(5)
    f, report = stokes_fundamental_symbol(c, q, MuSet.scalar(c, Fraction(3, 2), degrees=[q]))
    assert report["ok"] and report["intermediate_ok"] and report["product_ok"]
    assert set(f.factors) == {norm2(f.signature)}


def test_oseen_denominator_is_the_full_product():
    """The degree-1 block is mu |zeta|^2 I_3 and the degree-0 block |zeta|^2.
    Factors are never split (no content or parameter split), so mu |zeta|^2
    stays one factor, distinct from |zeta|^2; the lcm of the two blocks is
    then their product, and F = core @ (block inverse) has the denominator of
    the earlier arithmetic, mu^6 |zeta|^14.  The ``oseen-symbol`` fixture
    prints it, and the fixture bundle is pinned byte for byte."""
    c = with_mu(de_rham_complex(3))
    mu = c.op(0).poly("mu")
    f, report = stokes_fundamental_symbol(c, 1, MuSet.scalar(c, mu, degrees=[1]))
    assert report["ok"]
    n2 = norm2(f.signature)
    mu_n2 = Poly.variable(f.signature.vars, "mu") * n2
    assert f.factors == {mu_n2: 6, n2: 1}
    assert f.den == mu_n2 ** 6 * n2


# Pinned ``cxkit parametrix`` output: the exact bytes of ``--json`` on both
# sides for a few specs.  The rational symbol's storage (its factors, any
# numerator factors) may change, but its printed fraction may not.  Regenerate
# the data file with ``PYTHONPATH=src python tests/test_rational_symbols.py``
# only for a deliberate change of the printed fraction.

PARAMETRIX_PINNED = Path(__file__).parent / "data" / "parametrix_pinned.json"
PARAMETRIX_SPECS = {
    "de-rham-3-scalar-3/2": "vars: d1 d2 d3\ncomplex C = de_rham(3)\n"
    + "".join(f"mu C {q} scalar 3/2\n" for q in range(4)),
    "de-rham-4": "vars: d1 d2 d3 d4\ncomplex C = de_rham(4)\n",
    "dolbeault-2": "vars: d1 d2 d3 d4\ncomplex C = dolbeault(2)\n",
    "de-rham-3-mu-1": "vars: d1 d2 d3\nparams: mu\ncomplex C = de_rham(3)\n"
    "mu C 1 scalar mu\n",
}


def _parametrix_json(spec: str, side: str, workdir: Path) -> str:
    """The bytes ``cxkit parametrix --json`` writes for ``spec``."""
    spec_path, out_path = workdir / "doc.spec", workdir / "out.json"
    spec_path.write_text(spec, encoding="utf-8")
    assert main(["parametrix", "--spec", str(spec_path), "--side", side,
                 "--json", str(out_path)]) == 0
    return out_path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("name", sorted(PARAMETRIX_SPECS))
def test_parametrix_json_is_pinned(name, side, tmp_path):
    pinned = json.loads(PARAMETRIX_PINNED.read_text(encoding="utf-8"))
    assert pinned[name]["spec"] == PARAMETRIX_SPECS[name]
    assert _parametrix_json(PARAMETRIX_SPECS[name], side, tmp_path) == pinned[name][side]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {name: {"spec": spec, **{side: _parametrix_json(spec, side, Path(tmp))
                                         for side in ("right", "left")}}
                for name, spec in PARAMETRIX_SPECS.items()}
    PARAMETRIX_PINNED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
