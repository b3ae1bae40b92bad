"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

A polynomial over variables ``vars`` is stored as one positive integer
denominator ``den`` and a dictionary mapping packed monomials to
Gaussian-integer numerators ``(re, im)`` of Python ints: the coefficient of
``x^e`` is ``(re + im*i) / den``.  The form is canonical: ``den > 0``, no
numerator is zero and ``gcd(den, every numerator part) == 1``, so equal
polynomials have equal storage and ``==``/``hash`` compare ``(vars, den,
numerators)``.  The zero polynomial has no terms and ``den == 1``; its total
degree is the sentinel ``-1``.  All arithmetic is exact integer arithmetic
(products of Gaussian integers, sums over the lcm of the two denominators),
so polynomial identity testing is fully reliable.

A monomial ``x^e`` over ``n`` variables is one int, its key (the packed
exponent vectors of Monagan and Pearce, 2007): ``n + 1`` fields of
``_WIDTH`` bits, the total degree in the top field and ``e_1, ..., e_n``
below it, ``e_n`` lowest.  Int order of keys is graded lexicographic order,
and the key of a product is the sum of the keys.  The top bit of every field
is a guard bit, always clear: since no field exceeds the total degree, which
is at most ``MAX_DEGREE = 2^(_WIDTH - 1) - 1``, no sum of two keys carries
from one field into the next, and ``b - a`` leaves every guard bit clear
exactly when ``x^a`` divides ``x^b`` (:func:`_key_divides`).  A polynomial
whose total degree would pass ``MAX_DEGREE`` is never built: packing an
exponent and every product check the degree and raise ``OverflowError``; a
matrix product checks it once, from the top entry degrees of its operands.

:class:`GaussianRational` stays the public value type of a coefficient and
exponent tuples the public form of a monomial: the read-only view
``Poly.terms`` maps each exponent tuple to one (in storage order), and
``leading_term`` and ``constant_value`` return them.  The storage format is
private to this module.

Reduction works on the storage itself, never building a
:class:`GaussianRational` or an exponent tuple: its one operation is the
fused step :func:`_step`, which subtracts ``c * x^s * g`` (``c`` from
:func:`_quotient`) from a dict of numerators in place.  :meth:`Poly.exact_div`
runs it, and so does Buchberger in ``cxkit.syzygy`` on vectors packed into
one dict over one denominator, each key tagged with its position above the
degree field; that module also takes :func:`_key_divides`, :func:`_key_lcm`
(divisibility and lcm of keys), :func:`_cancel` and :func:`_poly_nonzero`.

Printing reads the storage too: :func:`_coeff_str` formats a numerator over
``den`` with one gcd per part, for ``str`` of a :class:`Poly` and of a
:class:`GaussianRational`.  A :class:`PolyMatrix` built from entries over
its variables (products, entrywise operations, twists, lifts, blocks,
placements, transposes) comes from the trusted constructor :func:`_matrix`,
as every :class:`Poly` result from :func:`_poly_nonzero`; only the public
constructor checks each entry.  A lift or twist of a :class:`Poly` is the
1x1 case of the matrix's, so each rewrite of the keys exists once.

Monomials are ordered by graded lexicographic order (total degree first, then
lexicographic by exponent tuple), which fixes a canonical leading term and a
canonical serialization.

A determinant is a memoized Laplace expansion (``PolyMatrix._minor_table``),
split first along the block structure of the matrix's nonzero pattern:
:meth:`PolyMatrix.determinant` expands each connected component of the
row/column graph on its own and multiplies the results.  The paper's Maxwell
symbols couple only neighbouring degrees, so each falls into an even-to-odd
and an odd-to-even block.  The adjugate needs every cofactor of the whole
matrix and is left unsplit: one expansion table serves all its minors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from cxkit._record import Record

Exponent = tuple[int, ...]

_FRACTION_ZERO = Fraction(0)  # every zero part coerced from an int


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value) if value else _FRACTION_ZERO
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to Fraction")


class GaussianRational(Record):
    """An exact complex number a + b*i with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = _FRACTION_ZERO, im: Fraction = _FRACTION_ZERO):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def zero() -> "GaussianRational":
        return _GR_ZERO

    @staticmethod
    def one() -> "GaussianRational":
        return _GR_ONE

    @staticmethod
    def i() -> "GaussianRational":
        return _GR_I

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero:
            raise ZeroDivisionError("division by zero Gaussian rational")
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        """Canonical form, see :func:`_coeff_str`."""
        return _coeff_str(*_split(self))


def _part_str(n: int, den: int) -> str:
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _coeff_str(re: int, im: int, den: int) -> str:
    """The canonical text ``a/b``, ``c/d*i`` or ``a/b+c/d*i`` of ``(re +
    im*i)/den``, each part in lowest terms by one gcd, as ``str(Fraction)``."""
    if not im:
        return _part_str(re, den) if re else "0"
    imag = "i" if im == den else "-i" if im == -den else f"{_part_str(im, den)}*i"
    return f"{_part_str(re, den)}{'+' if im > 0 else ''}{imag}" if re else imag


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(Fraction(1))
_GR_I = GaussianRational(Fraction(0), Fraction(1))


def _coerce_coeff(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return GaussianRational(_as_fraction(value))
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


# -- packed monomials (see the module docstring) ----------------------------

_WIDTH = 16  # bits per field of a key, the top one a guard bit
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1
_FIELD = (1 << _WIDTH) - 1
_MAX_VARS = 255  # _GUARDS covers the fields of a key of this many variables
_GUARDS = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(_MAX_VARS + 1))


def _ring(vars: Sequence[str]) -> tuple[str, ...]:
    vars = tuple(vars)
    if len(vars) > _MAX_VARS:
        raise ValueError(f"{len(vars)} variables; at most {_MAX_VARS} are supported")
    return vars


def _degree_error(degree: int) -> OverflowError:
    return OverflowError(f"total degree {degree} exceeds the limit {MAX_DEGREE}")


def _pack(exponent: Sequence[int]) -> int:
    """The key of ``x^exponent``, for nonnegative ints; raises
    ``OverflowError`` past ``MAX_DEGREE``."""
    key = degree = 0
    for e in exponent:
        key = key << _WIDTH | e
        degree += e
    if degree > MAX_DEGREE:
        raise _degree_error(degree)
    return degree << (_WIDTH * len(exponent)) | key


def _unpack(key: int, n: int) -> Exponent:
    """The exponent tuple of a key of ``n`` variables."""
    return tuple(key >> s & _FIELD for s in range(_WIDTH * (n - 1), -1, -_WIDTH))


def _shifts(vars: tuple[str, ...], subset: Iterable[str]) -> list[int]:
    """Bit offsets of the exponent fields of ``subset`` in a key over ``vars``."""
    top = _WIDTH * (len(vars) - 1)
    return [top - _WIDTH * vars.index(v) for v in subset]


def _check_product(a: int, b: int, top: int) -> None:
    """Raise ``OverflowError`` if the product of keys ``a`` and ``b``, whose
    degree fields start at bit ``top``, passes ``MAX_DEGREE``."""
    degree = (a >> top) + (b >> top)
    if degree > MAX_DEGREE:
        raise _degree_error(degree)


def _key_divides(a: int, b: int) -> bool:
    """Does ``x^a`` divide ``x^b``?  A field of ``b - a`` borrows, setting
    its guard bit, exactly where an exponent of ``a`` is the larger."""
    d = b - a
    return d >= 0 and not d & _GUARDS


def _key_lcm(a: int, b: int, n: int) -> int:
    """The key of ``lcm(x^a, x^b)`` for keys of ``n`` variables: the larger
    of each pair of exponent fields, picked by the guard bits of a
    field-wise ``(a | guards) - b``, under the sum of the picked fields."""
    top = _WIDTH * n
    low = (1 << top) - 1
    guards = _GUARDS & low
    a &= low
    b &= low
    pick_a = ((((a | guards) - b) & guards) >> (_WIDTH - 1)) * _FIELD
    e = b ^ ((a ^ b) & pick_a)
    degree = (e * (low // _FIELD)) >> (top - _WIDTH) & _FIELD  # e_1 + ... + e_n
    return degree << top | e


def _split(c: GaussianRational) -> tuple[int, int, int]:
    """``(re, im, den)`` with ``c == (re + im*i) / den`` and ``den > 0``."""
    if not c.im:
        return c.re.numerator, 0, c.re.denominator
    re_den, im_den = c.re.denominator, c.im.denominator
    den = lcm(re_den, im_den)
    return c.re.numerator * (den // re_den), c.im.numerator * (den // im_den), den


def _cancel(num: dict, den: int) -> tuple[dict, int]:
    """Cancel the gcd of ``den`` with every numerator part of ``num``, which
    has no zero numerator."""
    if den == 1:
        return num, den
    if not num:
        return num, 1
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            return num, den
    return {e: (re // g, im // g) for e, (re, im) in num.items()}, den // g


def _quotient(a: tuple[int, int], ad: int, b: tuple[int, int], bd: int):
    """``(cr, ci, cd)`` in lowest terms with ``(cr + ci*i)/cd`` equal to
    ``(a/ad) / (b/bd) = a * conj(b) * bd / (ad * |b|^2)``."""
    (ar, ai), (br, bi) = a, b
    cr, ci, cd = (ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd, ad * (br * br + bi * bi)
    g = gcd(cr, ci, cd)
    return cr // g, ci // g, cd // g


def _step(num: dict, den: int, g: tuple, cr: int, ci: int, cd: int, shift: int,
          n: int) -> tuple[dict, int]:
    """The fused step ``num/den - c * x^shift * g``, ``c = (cr + ci*i)/cd``
    nonzero, for a reducer record ``g = (max(g_num), g_num, g_den, highest
    total degree)`` over ``n`` variables (in ``cxkit.syzygy`` its keys carry a
    position tag).  Over ``lcm(den, g_den * cd)``, in place where the den
    stays: new keys appended in ``g``'s order, cancelled ones deleted, one gcd
    cancel.  Past MAX_DEGREE, ``OverflowError`` names the degree of x^shift *
    g's first key past it."""
    top = _WIDTH * n
    if g[3] + (shift >> top) > MAX_DEGREE:
        raise _degree_error(next(d for k in sorted(g[1], reverse=True)
                                 if (d := (k + shift) >> top & _FIELD) > MAX_DEGREE))
    gd = g[2] * cd
    new = lcm(den, gd)
    if new != den:
        f = new // den
        num = {k: (re * f, im * f) for k, (re, im) in num.items()}
    f = new // gd
    cr, ci = -cr * f, -ci * f  # negated, so the loop adds
    get = num.get
    for k, (re, im) in g[1].items():
        k += shift
        c = get(k, (0, 0))  # a new key's sum is a nonzero product
        pr, pi = c[0] + re * cr - im * ci, c[1] + re * ci + im * cr
        if pr or pi:
            num[k] = (pr, pi)
        else:
            del num[k]  # cancelled: num keeps no zero numerator
    return _cancel(num, new)


def _poly_nonzero(vars: tuple[str, ...], num: dict, den: int) -> "Poly":
    """The trusted constructor: every arithmetic result is built here, and
    so is the unpacking in ``cxkit.syzygy``.

    ``num`` maps valid keys to nonzero integer pairs, ``den`` is positive,
    and the new polynomial takes ``num`` over.  Nothing is validated; the
    gcd of ``den`` with every numerator part is cancelled.  Every caller
    keeps zeros out of ``num``: a sum deletes a cancelled key as it adds,
    and a product of nonzero Gaussian integers is nonzero.
    """
    p = object.__new__(Poly)
    p.vars = vars
    p._num, p._den = _cancel(num, den)
    p._terms = p._hash = None
    return p


def _dot(vars: tuple[str, ...], pairs: Sequence[tuple["Poly", "Poly"]]) -> "Poly":
    """``sum(a * b for a, b in pairs)``, each pair checked first: its
    variables, and ``MAX_DEGREE`` against the sum of its top degrees (the
    first pair past it raises ``OverflowError``), then summed by
    :func:`_sum_products`; ``a * b`` is the lone pair.  A matrix product
    guards its degree once for all its entries and sums them unchecked
    (:meth:`PolyMatrix.__matmul__`)."""
    top = _WIDTH * len(vars)
    for a, b in pairs:
        a._check_vars(b)
        _check_product(max(a._num, default=0), max(b._num, default=0), top)
    return _sum_products(vars, pairs)


def _sum_products(vars: tuple[str, ...], pairs: Sequence[tuple["Poly", "Poly"]]) -> "Poly":
    """``sum(a * b for a, b in pairs)`` for pairs over ``vars`` whose
    products stay within ``MAX_DEGREE``, unchecked: one dict over a running
    common denominator, stored as adding the products one by one to zero
    stores it: new keys in order of first occurrence, a key whose sum is zero
    after a product deleted then (a later product appends it anew), the gcd
    cancelled once."""
    out: dict[int, tuple[int, int]] = {}
    den = 1
    for a, b in pairs:
        d = a._den * b._den
        if den % d:
            f = d // gcd(den, d)  # the new den is lcm(den, d)
            out = {k: (re * f, im * f) for k, (re, im) in out.items()}
            den *= f
        f = den // d
        get = out.get
        zeros = []
        b_terms = list(b._num.items())
        for ka, (ar, ai) in a._num.items():
            if f != 1:
                ar, ai = ar * f, ai * f
            for kb, (br, bi) in b_terms:
                key = ka + kb
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                c = get(key)
                if c is not None:
                    re += c[0]
                    im += c[1]
                    if not (re or im):
                        zeros.append(key)
                out[key] = (re, im)
        for key in zeros:
            if out.get(key) == (0, 0):
                del out[key]
    return _poly_nonzero(vars, out, den)


class Poly:
    """A sparse multivariate polynomial with Gaussian-rational coefficients.

    Instances are immutable by convention: all operations return new objects.
    """

    __slots__ = ("vars", "_num", "_den", "_terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, GaussianRational] | None = None):
        vars = _ring(vars)
        num, den = {}, 1
        if terms:
            nv = len(vars)
            coeffs: dict[Exponent, GaussianRational] = {}
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != nv:
                    raise ValueError(f"exponent {exp} does not match {nv} variables")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                coeff = _coerce_coeff(coeff)
                if not coeff.is_zero:
                    coeffs[exp] = coeff
            den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
            num = {
                _pack(exp): (c.re.numerator * (den // c.re.denominator),
                      c.im.numerator * (den // c.im.denominator))
                for exp, c in coeffs.items()
            }
        self.vars = vars
        self._num, self._den = _cancel(num, den)  # zero coefficients were skipped
        self._terms = self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "Poly":
        return _poly_nonzero(_ring(vars), {}, 1)

    @staticmethod
    def constant(vars: Sequence[str], value) -> "Poly":
        re, im, den = _split(_coerce_coeff(value))
        return _poly_nonzero(_ring(vars), {0: (re, im)} if re or im else {}, den)

    @staticmethod
    def one(vars: Sequence[str]) -> "Poly":
        return _poly_nonzero(_ring(vars), {0: (1, 0)}, 1)

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "Poly":
        vars = _ring(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}; have {vars}")
        shift, = _shifts(vars, [name])
        return _poly_nonzero(vars, {1 << (_WIDTH * len(vars)) | 1 << shift: (1, 0)}, 1)

    # -- predicates and views ----------------------------------------------

    def _coeff(self, key: int) -> GaussianRational:
        re, im = self._num[key]
        den = self._den
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    @property
    def terms(self) -> Mapping[Exponent, GaussianRational]:
        """Read-only view: exponent -> nonzero :class:`GaussianRational`,
        in storage order."""
        if self._terms is None:
            n = len(self.vars)
            self._terms = MappingProxyType(
                {_unpack(key, n): self._coeff(key) for key in self._num})
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self._den == 1 and self._num == {0: (1, 0)}

    @property
    def is_constant(self) -> bool:
        return not any(self._num)  # the constant monomial's key is 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.coefficient((0,) * len(self.vars))

    def coefficient(self, exponent: Sequence[int]) -> GaussianRational:
        """The coefficient of ``x^exponent`` (one exponent per variable),
        zero when that monomial is absent: one key is packed and looked up,
        no term unpacked."""
        if len(exponent) != len(self.vars):
            raise ValueError(f"exponent {exponent} does not match {len(self.vars)} variables")
        key = _pack(exponent)
        return self._coeff(key) if key in self._num else GaussianRational.zero()

    def total_degree(self, subset: Iterable[str] | None = None) -> int:
        """Maximal total degree over all terms; -1 for the zero polynomial.

        With ``subset`` given, only the exponents of those variables count.
        """
        if not self._num:
            return -1
        top = _WIDTH * len(self.vars)  # the degree field's offset
        if subset is None:
            return max(self._num) >> top
        # one product sums the subset's fields into the degree field's place
        mask = sum(_FIELD << s for s in set(_shifts(self.vars, subset)))
        spread = ((1 << top) - 1) // _FIELD << _WIDTH
        return max((key & mask) * spread >> top & _FIELD for key in self._num)

    def leading_term(self) -> tuple[Exponent, GaussianRational]:
        """Leading (exponent, coefficient) pair under graded lex order."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._num)
        return _unpack(key, len(self.vars)), self._coeff(key)

    def _monic(self) -> tuple["Poly", "Poly"]:
        """A nonzero ``self`` over its leading coefficient lc (``self``
        itself when lc is one), and the constant 1/lc.  The reciprocal is
        taken once, in packed integers from the leading numerator over the
        denominator, and scales both."""
        inv = _quotient((1, 0), 1, self._num[max(self._num)], self._den)
        if inv == (1, 0, 1):
            return self, Poly.one(self.vars)
        return self._scaled(*inv), Poly.one(self.vars)._scaled(*inv)

    def _coeff_bits(self) -> int:
        """The least ``b`` with ``2**b`` at least the denominator and the
        1-norm ``sum |re| + |im|`` of the numerators: a product's ``b`` is at
        most the sum of its factors', and a power's at most ``e`` times its
        base's, so a caller can bound both before multiplying."""
        norm = sum(abs(re) + abs(im) for re, im in self._num.values())
        return (max(norm, self._den) - 1).bit_length()

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        """Terms sorted leading-first (descending graded lex)."""
        n = len(self.vars)
        return [(_unpack(key, n), self._coeff(key)) for key in sorted(self._num, reverse=True)]

    # -- arithmetic --------------------------------------------------------

    def _check_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_vars(other)
        if not other._num:
            return self
        if sign == 1 and not self._num:
            return other
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, (den // db) * sign
        if fa == 1:
            out = dict(self._num)
        else:
            out = {e: (re * fa, im * fa) for e, (re, im) in self._num.items()}
        get = out.get
        for e, (re, im) in other._num.items():
            c = get(e)
            if c is None:
                out[e] = (re * fb, im * fb)
            elif (total := (c[0] + re * fb, c[1] + im * fb)) != (0, 0):
                out[e] = total
            else:
                del out[e]  # cancelled: out keeps no zero numerator
        return _poly_nonzero(self.vars, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return _poly_nonzero(self.vars, {e: (-re, -im) for e, (re, im) in self._num.items()},
                             self._den)

    def __mul__(self, other: "Poly") -> "Poly":
        return _dot(self.vars, ((self, other),))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, value) -> "Poly":
        return self._scaled(*_split(_coerce_coeff(value)))

    def _scaled(self, cr: int, ci: int, cd: int) -> "Poly":
        """``self * (cr + ci*i)/cd``.  A nonzero Gaussian integer times a
        nonzero numerator is nonzero, so only the zero factor drops terms."""
        if not (cr or ci):
            return _poly_nonzero(self.vars, {}, 1)
        out = {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self._num.items()}
        return _poly_nonzero(self.vars, out, self._den * cd)

    def conjugate(self) -> "Poly":
        """Conjugate all coefficients (the variables are treated as real)."""
        return _poly_nonzero(self.vars, {e: (re, -im) for e, (re, im) in self._num.items()},
                             self._den)

    def twist(self, subset: Iterable[str], quarter_turns: int, *,
              conjugate: bool = False, vars: Sequence[str] | None = None) -> "Poly":
        """``p(i^q x)`` for the variables ``x`` in ``subset``: the term of
        subset-degree ``k`` is multiplied by ``i^(q*k)``, after every
        coefficient is conjugated if ``conjugate`` is set; the 1x1 case of
        :meth:`PolyMatrix.twist`.

        ``vars`` renames the result's variables position by position.  With
        the derivative variables as ``subset``, ``twist(subset, 1)`` is the
        total symbol (``d_j -> i*z_j``) and ``twist(subset, 2,
        conjugate=True)`` the formal adjoint of a scalar operator.
        """
        return _matrix(self.vars, ((self,),), 1, 1).twist(
            subset, quarter_turns, conjugate=conjugate, vars=vars)[0, 0]

    def homogeneous_part(self, degree: int, subset: Iterable[str] | None = None) -> "Poly":
        """The sum of terms whose (subset-)total degree equals ``degree``."""
        return _matrix(self.vars, ((self,),), 1, 1).twist(
            self.vars if subset is None else subset, 0, degrees=((degree,),))[0, 0]

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises ``ValueError`` if not divisible.

        Fused steps (:func:`_step`) on a private copy of the dividend: each
        removes the remainder's leading term, whose factor is the next
        quotient term, until none is left or the divisor's leading term does
        not divide it."""
        self._check_vars(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        n, key = len(self.vars), max(divisor._num)
        g = key, divisor._num, divisor._den, key >> _WIDTH * n
        num, den, quotient = dict(self._num), self._den, []
        while num:
            lead = max(num)
            if not _key_divides(key, lead):
                raise ValueError("division is not exact")
            c = _quotient(num[lead], den, divisor._num[key], divisor._den)
            quotient.append((lead - key, *c))
            num, den = _step(num, den, g, *c, lead - key, n)
        qd = lcm(*(cd for *_, cd in quotient))
        return _poly_nonzero(self.vars, {k: (cr * (qd // cd), ci * (qd // cd))
                                         for k, cr, ci, cd in quotient}, qd)

    # -- substitutions and evaluation --------------------------------------

    def lift(self, new_vars: Sequence[str]) -> "Poly":
        """Embed into a polynomial ring with a superset of the variables:
        ``self`` onto its own ring, else the 1x1 case of :meth:`PolyMatrix.lift`."""
        new_vars = tuple(new_vars)
        if self.vars == new_vars:
            return self
        return _matrix(self.vars, ((self,),), 1, 1).lift(new_vars)[0, 0]

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        """Numeric evaluation; every variable must be assigned a value."""
        total = 0j
        for exp, coeff in self.terms.items():
            term = complex(coeff)
            for v, e in zip(self.vars, exp):
                if e:
                    term *= values[v] ** e
            total += term
        return total

    # -- canonical form ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.vars == other.vars and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vars, self._den, frozenset(self._num.items())))
        return self._hash

    def __reduce__(self):
        # the cached views (a mappingproxy among them) are not pickled
        return _poly_nonzero, (self.vars, dict(self._num), self._den)

    def _monomial_str(self, exp: Exponent) -> str:
        parts = []
        for v, e in zip(self.vars, exp):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        """Leading term first, each coefficient printed from its numerator
        over ``den`` (:func:`_coeff_str`)."""
        if self.is_zero:
            return "0"
        chunks, n = [], len(self.vars)
        for key in sorted(self._num, reverse=True):
            re, im = self._num[key]
            mono = self._monomial_str(_unpack(key, n))
            text = _coeff_str(re, im, self._den)
            needs_parens = re and im
            if mono == "1":
                piece = f"({text})" if needs_parens and chunks else text
            elif text == "1":
                piece = mono
            elif text == "-1":
                piece = f"-{mono}"
            elif needs_parens:
                piece = f"({text})*{mono}"
            else:
                piece = f"{text}*{mono}"
            chunks.append(piece)
        out = chunks[0]
        for piece in chunks[1:]:
            if piece.startswith("-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _matrix(vars: tuple[str, ...], entries: tuple, rows: int, cols: int) -> "PolyMatrix":
    """The trusted constructor, as :func:`_poly_nonzero` is for a
    :class:`Poly`: every result built from entries already over ``vars`` is
    built here.
    ``entries``, ``rows`` tuples of ``cols`` entries, is taken over unchecked."""
    m = object.__new__(PolyMatrix)
    m.vars, m.entries, m.rows, m.cols = vars, entries, rows, cols
    return m


class PolyMatrix:
    """A dense matrix with :class:`Poly` entries (all over the same variables)."""

    __slots__ = ("rows", "cols", "vars", "entries")

    def __init__(self, vars: Sequence[str], entries: Sequence[Sequence[Poly]], shape: tuple[int, int] | None = None):
        object.__setattr__(self, "vars", tuple(vars))
        rows = [tuple(row) for row in entries]
        if shape is not None:
            r, c = shape
        else:
            r = len(rows)
            c = len(rows[0]) if rows else 0
        if len(rows) != r or any(len(row) != c for row in rows):
            raise ValueError("ragged or mis-shaped entry table")
        for row in rows:
            for p in row:
                if p.vars != self.vars:
                    raise ValueError("entry variables do not match the matrix")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "entries", tuple(rows))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(vars: Sequence[str], rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix.place(vars, rows, cols, ())

    @staticmethod
    def identity(vars: Sequence[str], n: int, scalar: Poly | None = None) -> "PolyMatrix":
        """I_n, or ``scalar`` I_n with the scalar (over ``vars``) placed on
        the diagonal."""
        vars = tuple(vars)
        z = Poly.zero(vars)
        s = Poly.one(vars) if scalar is None else scalar
        if n and s.vars != vars:
            raise ValueError("entry variables do not match the matrix")
        return _matrix(vars, tuple((z,) * i + (s,) + (z,) * (n - 1 - i) for i in range(n)),
                       n, n)

    @staticmethod
    def place(vars: Sequence[str], rows: int, cols: int,
              blocks: Iterable[tuple["PolyMatrix", int, int]]) -> "PolyMatrix":
        """The rows x cols matrix with each block ``(matrix, r0, c0)`` written
        at ``(r0, c0)``, zero elsewhere, with no entry added.  A block that
        does not fit or overlaps raises."""
        vars = tuple(vars)
        z = Poly.zero(vars)  # no block holds this object
        table = [[z] * cols for _ in range(rows)]
        for blk, r0, c0 in blocks:
            if blk.vars != vars:
                raise ValueError("entry variables do not match the matrix")
            r1, c1 = r0 + blk.rows, c0 + blk.cols
            if not (0 <= r0 and r1 <= rows and 0 <= c0 and c1 <= cols):
                raise ValueError(f"a {blk.rows}x{blk.cols} block at ({r0}, {c0}) "
                                 f"does not fit a {rows}x{cols} matrix")
            for row, src in zip(table[r0:r1], blk.entries):
                if any(p is not z for p in row[c0:c1]):
                    raise ValueError(f"the block at ({r0}, {c0}) overlaps another block")
                row[c0:c1] = src
        return _matrix(vars, tuple(map(tuple, table)), rows, cols)

    def __getitem__(self, key: tuple[int, int]) -> Poly:
        i, j = key
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "PolyMatrix":
        """The submatrix of rows ``r0:r1`` and columns ``c0:c1``."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(
                f"block [{r0}:{r1}, {c0}:{c1}] outside a {self.rows}x{self.cols} matrix"
            )
        return _matrix(self.vars, tuple(row[c0:c1] for row in self.entries[r0:r1]),
                       r1 - r0, c1 - c0)

    def map(self, fn) -> "PolyMatrix":
        """Apply ``fn``, which keeps the ring, entrywise."""
        return _matrix(self.vars, tuple(tuple(map(fn, row)) for row in self.entries),
                       self.rows, self.cols)

    def lift(self, vars: Sequence[str]) -> "PolyMatrix":
        """Embed into a polynomial ring with a superset of the variables,
        the field moves found once: each nonzero entry's keys move in its
        term order, and the zero entries share one zero of the new ring."""
        new_vars = _ring(vars)
        if new_vars == self.vars:
            return self
        for v in self.vars:
            if v not in new_vars:
                raise ValueError(f"variable {v!r} missing from {new_vars}")
        moves = list(zip(_shifts(self.vars, self.vars), _shifts(new_vars, self.vars)))
        top, new_top = _WIDTH * len(self.vars), _WIDTH * len(new_vars)
        zero = _poly_nonzero(new_vars, {}, 1)

        def lifted(p: Poly) -> Poly:
            out = {}
            for key, c in p._num.items():
                new_key = key >> top << new_top  # the degree field
                for old, new in moves:
                    new_key |= (key >> old & _FIELD) << new
                out[new_key] = c
            return _poly_nonzero(new_vars, out, p._den) if out else zero

        return _matrix(new_vars, tuple(tuple(map(lifted, row)) for row in self.entries),
                       self.rows, self.cols)

    def total_degree(self, subset: Iterable[str] | None = None) -> int:
        """Max entry degree (-1 for the zero matrix)."""
        if subset is None:  # the degree field of the largest key
            keys = [max(p._num) for row in self.entries for p in row if p._num]
            return max(keys) >> (_WIDTH * len(self.vars)) if keys else -1
        degs = [p.total_degree(subset) for row in self.entries for p in row]
        return max(degs, default=-1)

    def twist(self, subset: Iterable[str], quarter_turns: int, *, conjugate: bool = False,
              vars: Sequence[str] | None = None, top: Iterable[str] | None = None,
              degrees: Sequence[Sequence[int]] | None = None) -> "PolyMatrix":
        """Each entry's ``p(i^q x)`` for the variables ``x`` in ``subset``
        (:meth:`Poly.twist` is the 1x1 case), the fields located once.
        Zero entries are not rewritten: they become the zero of the result's
        ring.  With ``top``, a variable subset, each entry keeps only its terms
        of the matrix's highest degree in ``top`` (its principal part).  With
        ``degrees``, a matrix of ints, entry (i, j) keeps only its terms of
        degree ``degrees[i][j]`` in ``subset`` (none where that is negative)."""
        new_vars = self.vars if vars is None else _ring(vars)
        if len(new_vars) != len(self.vars):
            raise ValueError(f"cannot rename {self.vars} to {new_vars}")
        shifts, zero = _shifts(self.vars, subset), Poly.zero(new_vars)
        grade = shifts
        if top is not None:
            if degrees is not None:
                raise ValueError("give top or degrees, not both")
            grade = _shifts(self.vars, top)
            m = max((sum(k >> s & _FIELD for s in grade) for row in self.entries
                     for p in row for k in p._num), default=-1)
            degrees = [[m] * self.cols] * self.rows

        def twisted(p: Poly, degree: int | None) -> Poly:
            out = {}
            for key, (re, im) in p._num.items():
                if degree is not None and sum(key >> s & _FIELD for s in grade) != degree:
                    continue
                if conjugate:
                    im = -im
                k = quarter_turns * sum(key >> s & _FIELD for s in shifts) % 4
                out[key] = ((re, im), (-im, re), (-re, -im), (im, -re))[k]
            return _poly_nonzero(new_vars, out, p._den)

        return _matrix(new_vars, tuple(
            tuple(twisted(p, None if degrees is None else degrees[i][j])
                  if p._num and (degrees is None or degrees[i][j] >= 0) else zero
                  for j, p in enumerate(row)) for i, row in enumerate(self.entries)),
            self.rows, self.cols)

    # -- arithmetic --------------------------------------------------------

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if self.vars != other.vars:
            raise ValueError("variable mismatch between matrices")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch between matrices")
        return _matrix(self.vars, tuple(tuple(map(op, ra, rb))
                                        for ra, rb in zip(self.entries, other.entries)),
                       self.rows, self.cols)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, Poly.__add__)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._entrywise(other, Poly.__sub__)

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda p: -p)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.vars != other.vars:
            raise ValueError("variable mismatch between matrices")
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Entry (i, j) sums the products of the nonzero entries of row i and
        # column j in increasing k, in one accumulator: the term order of
        # every entry is that of the full k loop of ``acc + a * b``.  The
        # degree is guarded once for the whole product: when the highest
        # entry degrees of the two operands sum to at most MAX_DEGREE, no
        # pair can pass it and every entry is summed unchecked
        # (``_sum_products``); otherwise each entry takes the checked
        # ``_dot``, which raises at the first pair past the bound.
        vars, zero = self.vars, Poly.zero(self.vars)
        rows = [[(k, a) for k, a in enumerate(row) if a._num] for row in self.entries]
        cols = [{k: row[j] for k, row in enumerate(other.entries) if row[j]._num}
                for j in range(other.cols)]
        guarded = self.total_degree() + other.total_degree() <= MAX_DEGREE
        dot = _sum_products if guarded else _dot
        out = []
        for nonzero in rows:
            row = []
            for col in cols:
                pairs = [(a, col[k]) for k, a in nonzero if k in col]
                row.append(dot(vars, pairs) if pairs else zero)
            out.append(tuple(row))
        return _matrix(vars, tuple(out), self.rows, other.cols)

    def scale(self, value) -> "PolyMatrix":
        """Each entry times ``value``, a Poly or a constant.  Zero entries
        stay as they are, and scaling by the Poly one is the matrix itself.
        A constant Poly over these variables scales the coefficients, which
        stores what the product would; the constant is split once, its
        canonical numerator over its denominator, for every entry."""
        if isinstance(value, Poly):
            if value.is_one:
                return self
            if not value.is_constant or value.vars != self.vars:
                return self.map(lambda p: p * value if p._num else p)
            c = (*value._num.get(0, (0, 0)), value._den)
        else:
            c = _split(_coerce_coeff(value))
        return self.map(lambda p: p._scaled(*c) if p._num else p)

    def transpose(self) -> "PolyMatrix":
        return _matrix(self.vars, tuple(tuple(row[j] for row in self.entries)
                                        for j in range(self.cols)), self.cols, self.rows)

    def conjugate(self) -> "PolyMatrix":
        return self.twist((), 0, conjugate=True)

    def hermitian_transpose(self) -> "PolyMatrix":
        return self.transpose().conjugate()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.vars == other.vars
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.entries))

    # -- determinants and adjugates ---------------------------------------

    def _minor_table(self):
        """A ``minor(rows, cols)`` function: the determinant of the submatrix
        on the row and column index tuples, by Laplace expansion along its
        first row, skipping zero entries.  Each minor of size two or more is
        computed once and kept in a table shared by all calls of the returned
        function.  Its cost grows with the number of distinct nonzero minors
        the expansion reaches: few for the sparse block symbols of a complex,
        but 2^n for a dense n x n matrix, where fraction-free elimination
        would be cheaper from n of about 8.  :meth:`determinant` calls it once
        per block of the nonzero pattern, which keeps each expansion to the
        size of its block; :meth:`adjugate` calls it on the whole matrix."""
        entries = self.entries
        one = Poly.one(self.vars)
        table: dict[tuple[tuple[int, ...], tuple[int, ...]], Poly] = {}

        def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Poly:
            if len(rows) <= 1:
                return entries[rows[0]][cols[0]] if rows else one
            key = (rows, cols)
            total = table.get(key)
            if total is not None:
                return total
            first, rest = entries[rows[0]], rows[1:]
            # odd terms enter negated: acc - a * m stores as acc + (-a) * m
            total = table[key] = _dot(self.vars, [
                (a if pos % 2 == 0 else -a, minor(rest, cols[:pos] + cols[pos + 1:]))
                for pos, j in enumerate(cols) if not (a := first[j]).is_zero])
            return total

        return minor

    def determinant(self) -> Poly:
        """Exact determinant.  Rows and columns are the nodes of a graph with
        an edge for each nonzero entry.  The determinant is zero when one of
        its connected components has more rows than columns, and otherwise
        the sign of the row and column orders times the product of the
        components' memoized Laplace expansions (``_minor_table``), taken in
        order of their smallest row, each on its rows and columns ascending."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n, minor = self.rows, self._minor_table()
        link = list(range(2 * n))  # union-find over rows i and columns n + j

        def root(v: int) -> int:
            while link[v] != v:
                link[v] = link[link[v]]
                v = link[v]
            return v

        for i, row in enumerate(self.entries):
            for j, p in enumerate(row):
                if p._num:
                    link[root(n + j)] = root(i)
        parts: dict[int, tuple[list[int], list[int]]] = {}
        for v in range(2 * n):
            parts.setdefault(root(v), ([], []))[v >= n].append(v % n)
        if len(parts) <= 1:
            idx = tuple(range(n))
            return minor(idx, idx)
        if any(len(rows) != len(cols) for rows, cols in parts.values()):
            return Poly.zero(self.vars)
        det, order = None, [[], []]
        for rows, cols in parts.values():  # rows 0..n-1 were keyed first
            order[0] += rows
            order[1] += cols
            d = minor(tuple(rows), tuple(cols))
            det = d if det is None else det * d
        odd = sum(a > b for seq in order for k, a in enumerate(seq) for b in seq[k + 1:])
        return -det if odd % 2 else det

    def adjugate(self) -> "PolyMatrix":
        """Adjugate matrix, satisfying ``self @ adj == det * identity``.

        Entry (j, i) is the signed minor of row i and column j; all minors
        come from one shared table (see ``_minor_table``)."""
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        n, minor = self.rows, self._minor_table()
        idx = tuple(range(n))

        def cofactor(i: int, j: int) -> Poly:
            m = minor(idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:])
            return m if (i + j) % 2 == 0 else -m

        return _matrix(self.vars, tuple(tuple(cofactor(i, j) for i in range(n))
                                        for j in range(n)), n, n)

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(p) for p in row) + "]" for row in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, {self})"


__all__ = ["MAX_DEGREE", "GaussianRational", "Poly", "PolyMatrix"]
