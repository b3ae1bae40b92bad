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
exponent and every product check the degree and raise ``OverflowError``.

:class:`GaussianRational` stays the public value type of a coefficient and
exponent tuples the public form of a monomial: the read-only view
``Poly.terms`` maps each exponent tuple to one (in storage order), and
``leading_term`` and ``constant_value`` return them.  The storage format is
private to this module.

Groebner-basis code in this package works on the storage itself, never
building a :class:`GaussianRational` or an exponent tuple: ``cxkit.syzygy``
packs a vector of polynomials into one dict of numerators over one
denominator, each key tagged with its position above the degree field, and
reduces it in place with its own fused step.  It takes from here
:func:`_key_divides` and :func:`_key_lcm` (divisibility and lcm of keys),
:func:`_cancel` and :func:`_poly_nonzero`.

Monomials are ordered by graded lexicographic order (total degree first, then
lexicographic by exponent tuple), which fixes a canonical leading term and a
canonical serialization.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from cxkit._record import Record

Exponent = tuple[int, ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to Fraction")


class GaussianRational(Record):
    """An exact complex number a + b*i with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
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

    @property
    def is_real(self) -> bool:
        return not self.im

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
        """Canonical form ``a/b``, ``c/d*i`` or ``a/b+c/d*i``."""
        if self.is_zero:
            return "0"
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}*i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"


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


def _twisted(p: "Poly", vars: tuple[str, ...], shifts: list[int], turns: int,
             conjugate: bool, keep: tuple[list[int], int] | None = None) -> "Poly":
    """:meth:`Poly.twist` over the exponent fields at ``shifts``, renamed to
    ``vars``; with ``keep = (grade, m)``, of the terms of degree m at ``grade``."""
    out = {}
    for key, (re, im) in p._num.items():
        if keep and sum(key >> s & _FIELD for s in keep[0]) != keep[1]:
            continue
        if conjugate:
            im = -im
        k = turns * sum(key >> s & _FIELD for s in shifts) % 4
        out[key] = ((re, im), (-im, re), (-re, -im), (im, -re))[k]
    return _poly(vars, out, p._den)


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


def _poly(vars: tuple[str, ...], num: dict, den: int) -> "Poly":
    """The trusted constructor: every arithmetic result is built here.

    ``num`` maps valid keys to integer pairs, ``den`` is positive,
    and the new polynomial takes ``num`` over.  Nothing is validated; the
    result is brought to canonical form: zero numerators are dropped (from
    ``num`` itself) and the gcd of ``den`` with every numerator part is
    cancelled.
    """
    zeros = [e for e, c in num.items() if c == (0, 0)]
    for e in zeros:
        del num[e]
    return _poly_nonzero(vars, num, den)


def _poly_nonzero(vars: tuple[str, ...], num: dict, den: int) -> "Poly":
    """:func:`_poly` for a ``num`` that has no zero numerator, such as
    :func:`_dot` and the unpacking in ``cxkit.syzygy`` build: only the gcd
    is cancelled."""
    p = object.__new__(Poly)
    p.vars = vars
    p._num, p._den = _cancel(num, den)
    p._terms = p._lead = p._hash = None
    return p


def _dot(vars: tuple[str, ...], pairs: Sequence[tuple["Poly", "Poly"]]) -> "Poly":
    """``sum(a * b for a, b in pairs)`` in one dict over a running common
    denominator, stored as adding the products one by one to zero stores it:
    new keys in order of first occurrence, a key whose sum is zero after a
    product deleted then (a later product appends it anew), the gcd cancelled
    once.  Each product checks its variables and ``MAX_DEGREE``; ``a * b`` is
    the lone pair."""
    top = _WIDTH * len(vars)
    out: dict[int, tuple[int, int]] = {}
    den = 1
    for a, b in pairs:
        a._check_vars(b)
        _check_product(max(a._num, default=0), max(b._num, default=0), top)
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

    __slots__ = ("vars", "_num", "_den", "_terms", "_lead", "_hash")

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
        self._terms = self._lead = self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "Poly":
        return _poly(_ring(vars), {}, 1)

    @staticmethod
    def constant(vars: Sequence[str], value) -> "Poly":
        re, im, den = _split(_coerce_coeff(value))
        return _poly(_ring(vars), {0: (re, im)}, den)

    @staticmethod
    def one(vars: Sequence[str]) -> "Poly":
        return _poly(_ring(vars), {0: (1, 0)}, 1)

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "Poly":
        vars = _ring(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}; have {vars}")
        shift, = _shifts(vars, [name])
        return _poly(vars, {1 << (_WIDTH * len(vars)) | 1 << shift: (1, 0)}, 1)

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
    def is_constant(self) -> bool:
        return not any(self._num)  # the constant monomial's key is 0

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return GaussianRational.zero()
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self._coeff(next(iter(self._num)))

    def total_degree(self, subset: Iterable[str] | None = None) -> int:
        """Maximal total degree over all terms; -1 for the zero polynomial.

        With ``subset`` given, only the exponents of those variables count.
        """
        if not self._num:
            return -1
        if subset is None:
            return max(self._num) >> (_WIDTH * len(self.vars))
        shifts = _shifts(self.vars, subset)
        return max(sum(key >> s & _FIELD for s in shifts) for key in self._num)

    def leading_term(self) -> tuple[Exponent, GaussianRational]:
        """Leading (exponent, coefficient) pair under graded lex order."""
        if self._lead is None:
            if not self._num:
                raise ValueError("zero polynomial has no leading term")
            key = max(self._num)
            self._lead = _unpack(key, len(self.vars)), self._coeff(key)
        return self._lead

    def _leading_num(self) -> tuple[int, tuple[int, int], int] | None:
        """``(key, (re, im), den)`` of the leading term under graded lex
        order, read straight from storage: its coefficient is ``(re +
        im*i) / den``.  None for the zero polynomial."""
        key = max(self._num, default=None)
        if key is None:
            return None
        return key, self._num[key], self._den

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
            else:
                out[e] = (c[0] + re * fb, c[1] + im * fb)
        return _poly(self.vars, out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return _poly(self.vars, {e: (-re, -im) for e, (re, im) in self._num.items()}, self._den)

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
        cr, ci, cd = _split(_coerce_coeff(value))
        out = {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self._num.items()}
        return _poly(self.vars, out, self._den * cd)

    def conjugate(self) -> "Poly":
        """Conjugate all coefficients (the variables are treated as real)."""
        return _poly(self.vars, {e: (re, -im) for e, (re, im) in self._num.items()}, self._den)

    def twist(self, subset: Iterable[str], quarter_turns: int, *,
              conjugate: bool = False, vars: Sequence[str] | None = None) -> "Poly":
        """``p(i^q x)`` for the variables ``x`` in ``subset``: the term of
        subset-degree ``k`` is multiplied by ``i^(q*k)``, after every
        coefficient is conjugated if ``conjugate`` is set.

        ``vars`` renames the result's variables position by position.  With
        the derivative variables as ``subset``, ``twist(subset, 1)`` is the
        total symbol (``d_j -> i*z_j``) and ``twist(subset, 2,
        conjugate=True)`` the formal adjoint of a scalar operator.
        """
        new_vars = self.vars if vars is None else tuple(vars)
        if len(new_vars) != len(self.vars):
            raise ValueError(f"cannot rename {self.vars} to {new_vars}")
        return _twisted(self, new_vars, _shifts(self.vars, subset), quarter_turns, conjugate)

    def homogeneous_part(self, degree: int, subset: Iterable[str] | None = None) -> "Poly":
        """The sum of terms whose (subset-)total degree equals ``degree``."""
        grade = _shifts(self.vars, self.vars if subset is None else subset)
        return _twisted(self, self.vars, [], 0, False, (grade, degree))

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises ``ValueError`` if not divisible.

        The remainder is one dict of Gaussian-integer numerators over a
        denominator ``rd``, keyed like storage; a heap of the negated keys
        yields its leading term.  With ``lc`` the divisor's leading numerator, a
        quotient term is ``r * conj(lc) / |lc|^2`` for the remainder's leading
        numerator ``r``; only when that is not a Gaussian integer are the
        remainder and ``rd`` scaled up, by the smallest factor that makes it one.
        """
        self._check_vars(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return Poly.zero(self.vars)
        d_key, (lr, li), _ = divisor._leading_num()
        norm = lr * lr + li * li
        rest = [(k, c) for k, c in divisor._num.items() if k != d_key]
        rem = dict(self._num)
        heap = [-k for k in rem]
        heapify(heap)
        rd = self._den
        quotient = []  # (diff, q_k.re, q_k.im, rd_k): rd when q_k was found
        while heap:
            key = -heappop(heap)
            lead = rem.pop(key, None)
            if lead is None:
                continue  # a key whose term has cancelled since it was pushed
            if not _key_divides(d_key, key):
                raise ValueError("division is not exact")
            diff = key - d_key
            rr, ri = lead
            tr, ti = rr * lr + ri * li, ri * lr - rr * li  # lead * conj(lc)
            if norm != 1:
                if tr % norm or ti % norm:
                    f = norm // gcd(norm, tr, ti)
                    for k, (re, im) in rem.items():
                        rem[k] = (re * f, im * f)
                    rd *= f
                    tr *= f
                    ti *= f
                tr //= norm
                ti //= norm
            quotient.append((diff, tr, ti, rd))
            for k, (dr, di) in rest:
                k += diff
                pr, pi = tr * dr - ti * di, tr * di + ti * dr
                c = rem.get(k)
                if c is None:
                    rem[k] = (-pr, -pi)
                    heappush(heap, -k)
                elif c[0] == pr and c[1] == pi:
                    del rem[k]
                else:
                    rem[k] = (c[0] - pr, c[1] - pi)
        # term k of the quotient is q_k * divisor._den / rd_k: bring every
        # term over the final rd, a multiple of each rd_k
        out = {}
        for diff, qr, qi, qd in quotient:
            f = divisor._den * (rd // qd)
            out[diff] = (qr * f, qi * f)
        return _poly(self.vars, out, rd)

    # -- substitutions and evaluation --------------------------------------

    def lift(self, new_vars: Sequence[str]) -> "Poly":
        """Embed into a polynomial ring with a superset of the variables."""
        new_vars = _ring(new_vars)
        if self.vars == new_vars:
            return self
        for v in self.vars:
            if v not in new_vars:
                raise ValueError(f"variable {v!r} missing from {new_vars}")
        moves = list(zip(_shifts(self.vars, self.vars), _shifts(new_vars, self.vars)))
        top, new_top = _WIDTH * len(self.vars), _WIDTH * len(new_vars)
        out = {}
        for key, c in self._num.items():
            new_key = key >> top << new_top  # the degree field
            for old, new in moves:
                new_key |= (key >> old & _FIELD) << new
            out[new_key] = c
        return _poly(new_vars, out, self._den)

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
        return _poly, (self.vars, dict(self._num), self._den)

    def _monomial_str(self, exp: Exponent) -> str:
        parts = []
        for v, e in zip(self.vars, exp):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            mono = self._monomial_str(exp)
            text = str(coeff)
            needs_parens = coeff.re and coeff.im
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
        """I_n, or ``scalar`` I_n with the scalar placed on the diagonal."""
        z = Poly.zero(vars)
        s = Poly.one(vars) if scalar is None else scalar
        return PolyMatrix(
            vars, [[s if i == j else z for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def place(vars: Sequence[str], rows: int, cols: int,
              blocks: Iterable[tuple["PolyMatrix", int, int]]) -> "PolyMatrix":
        """The rows x cols matrix with each block ``(matrix, r0, c0)`` written
        at ``(r0, c0)``, zero elsewhere, with no entry added.  A block that
        does not fit or overlaps raises."""
        z = Poly.zero(vars)  # no block holds this object
        table = [[z] * cols for _ in range(rows)]
        for blk, r0, c0 in blocks:
            r1, c1 = r0 + blk.rows, c0 + blk.cols
            if not (0 <= r0 and r1 <= rows and 0 <= c0 and c1 <= cols):
                raise ValueError(f"a {blk.rows}x{blk.cols} block at ({r0}, {c0}) "
                                 f"does not fit a {rows}x{cols} matrix")
            for row, src in zip(table[r0:r1], blk.entries):
                if any(p is not z for p in row[c0:c1]):
                    raise ValueError(f"the block at ({r0}, {c0}) overlaps another block")
                row[c0:c1] = src
        return PolyMatrix(vars, table, shape=(rows, cols))

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
        return PolyMatrix(
            self.vars, [row[c0:c1] for row in self.entries[r0:r1]],
            shape=(r1 - r0, c1 - c0),
        )

    def map(self, fn, vars: Sequence[str] | None = None) -> "PolyMatrix":
        """Apply ``fn`` entrywise; pass ``vars`` if ``fn`` changes the ring."""
        return PolyMatrix(
            self.vars if vars is None else vars,
            [[fn(p) for p in row] for row in self.entries],
            shape=(self.rows, self.cols),
        )

    def total_degree(self, subset: Iterable[str] | None = None) -> int:
        """Max entry degree (-1 for the zero matrix)."""
        degs = [p.total_degree(subset) for row in self.entries for p in row]
        return max(degs, default=-1)

    def twist(self, subset: Iterable[str], quarter_turns: int, *, conjugate: bool = False,
              vars: Sequence[str] | None = None, top: Iterable[str] | None = None,
              degrees: Sequence[Sequence[int]] | None = None) -> "PolyMatrix":
        """Entrywise :meth:`Poly.twist`, the fields of ``subset`` located once.
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
        return PolyMatrix(new_vars, [
            [_twisted(p, new_vars, shifts, quarter_turns, conjugate,
                      None if degrees is None else (grade, degrees[i][j]))
             if p._num and (degrees is None or degrees[i][j] >= 0) else zero
             for j, p in enumerate(row)] for i, row in enumerate(self.entries)],
            shape=(self.rows, self.cols))

    # -- arithmetic --------------------------------------------------------

    def _entrywise(self, other: "PolyMatrix", op) -> "PolyMatrix":
        if self.vars != other.vars:
            raise ValueError("variable mismatch between matrices")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch between matrices")
        return PolyMatrix(self.vars, [list(map(op, ra, rb))
                                      for ra, rb in zip(self.entries, other.entries)],
                          shape=(self.rows, self.cols))

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
        # column j in increasing k, in one accumulator (``_dot``): the term
        # order of every entry is that of the full k loop of ``acc + a * b``.
        vars, zero = self.vars, Poly.zero(self.vars)
        rows = [[(k, a) for k, a in enumerate(row) if not a.is_zero] for row in self.entries]
        cols = [{k: row[j] for k, row in enumerate(other.entries) if not row[j].is_zero}
                for j in range(other.cols)]
        out = []
        for nonzero in rows:
            row = []
            for col in cols:
                pairs = [(a, col[k]) for k, a in nonzero if k in col]
                row.append(_dot(vars, pairs) if pairs else zero)
            out.append(row)
        return PolyMatrix(vars, out, shape=(self.rows, other.cols))

    def scale(self, value) -> "PolyMatrix":
        """Each entry times ``value``, a Poly or a constant.  Zero entries
        stay as they are, and scaling by the Poly one is the matrix itself."""
        if isinstance(value, Poly):
            if value == Poly.one(value.vars):
                return self
            return self.map(lambda p: p * value if p._num else p)
        return self.map(lambda p: p.scale(value) if p._num else p)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.vars,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

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
        would be cheaper from n of about 8."""
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
        """Exact determinant, by memoized Laplace expansion (see ``_minor_table``)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        idx = tuple(range(self.rows))
        return self._minor_table()(idx, idx)

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

        return PolyMatrix(self.vars, [[cofactor(i, j) for i in range(n)] for j in range(n)],
                          shape=(n, n))

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(p) for p in row) + "]" for row in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, {self})"
