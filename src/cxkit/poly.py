"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

A polynomial is a dictionary mapping exponent tuples (one entry per variable)
to :class:`GaussianRational` coefficients.  The zero polynomial is the empty
dictionary; its total degree is the sentinel ``-1``.  All arithmetic is exact,
so polynomial identity testing is fully reliable.

Monomials are ordered by graded lexicographic order (total degree first, then
lexicographic by exponent tuple), which fixes a canonical leading term and a
canonical serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to Fraction")


@dataclass(frozen=True)
class GaussianRational:
    """An exact complex number a + b*i with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

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


def grlex_key(exponent: Exponent) -> tuple:
    """Sort key realizing graded lexicographic order (ascending)."""
    return (sum(exponent), exponent)


class Poly:
    """A sparse multivariate polynomial with Gaussian-rational coefficients.

    Instances are immutable by convention: all operations return new objects.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, GaussianRational] | None = None):
        object.__setattr__(self, "vars", tuple(vars))
        clean: dict[Exponent, GaussianRational] = {}
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "Poly":
        return Poly(vars)

    @staticmethod
    def constant(vars: Sequence[str], value) -> "Poly":
        vars = tuple(vars)
        return Poly(vars, {(0,) * len(vars): _coerce_coeff(value)})

    @staticmethod
    def one(vars: Sequence[str]) -> "Poly":
        return Poly.constant(vars, 1)

    @staticmethod
    def variable(vars: Sequence[str], name: str) -> "Poly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}; have {vars}")
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return Poly(vars, {tuple(exp): GaussianRational.one()})

    @staticmethod
    def monomial(vars: Sequence[str], exponent: Exponent, coeff) -> "Poly":
        return Poly(vars, {tuple(exponent): _coerce_coeff(coeff)})

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return GaussianRational.zero()
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self, subset: Iterable[str] | None = None) -> int:
        """Maximal total degree over all terms; -1 for the zero polynomial.

        With ``subset`` given, only the exponents of those variables count.
        """
        if not self.terms:
            return -1
        if subset is None:
            return max(sum(exp) for exp in self.terms)
        idx = [self.vars.index(v) for v in subset]
        return max(sum(exp[i] for i in idx) for exp in self.terms)

    def leading_term(self) -> tuple[Exponent, GaussianRational]:
        """Leading (exponent, coefficient) pair under graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        """Terms sorted leading-first (descending graded lex)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_vars(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, GaussianRational.zero()) + coeff
        return Poly(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_vars(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, GaussianRational.zero()) - coeff
        return Poly(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {exp: -c for exp, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_vars(other)
        out: dict[Exponent, GaussianRational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                prod = ca * cb
                if exp in out:
                    out[exp] = out[exp] + prod
                else:
                    out[exp] = prod
        return Poly(self.vars, out)

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
        c = _coerce_coeff(value)
        return Poly(self.vars, {exp: coeff * c for exp, coeff in self.terms.items()})

    def conjugate(self) -> "Poly":
        """Conjugate all coefficients (the variables are treated as real)."""
        return Poly(self.vars, {exp: c.conjugate() for exp, c in self.terms.items()})

    def homogeneous_part(self, degree: int, subset: Iterable[str] | None = None) -> "Poly":
        """The sum of terms whose (subset-)total degree equals ``degree``."""
        if subset is None:
            return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == degree})
        idx = [self.vars.index(v) for v in subset]
        return Poly(
            self.vars,
            {e: c for e, c in self.terms.items() if sum(e[i] for i in idx) == degree},
        )

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises ``ValueError`` if not divisible."""
        self._check_vars(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return Poly.zero(self.vars)
        d_exp, d_coeff = divisor.leading_term()
        quotient: dict[Exponent, GaussianRational] = {}
        remainder = self
        while not remainder.is_zero:
            r_exp, r_coeff = remainder.leading_term()
            diff = tuple(a - b for a, b in zip(r_exp, d_exp))
            if any(e < 0 for e in diff):
                raise ValueError("division is not exact")
            c = r_coeff / d_coeff
            quotient[diff] = c
            remainder = remainder - Poly.monomial(self.vars, diff, c) * divisor
        return Poly(self.vars, quotient)

    # -- substitutions and evaluation --------------------------------------

    def lift(self, new_vars: Sequence[str]) -> "Poly":
        """Embed into a polynomial ring with a superset of the variables."""
        new_vars = tuple(new_vars)
        if self.vars == new_vars:
            return self
        positions = []
        for v in self.vars:
            if v not in new_vars:
                raise ValueError(f"variable {v!r} missing from {new_vars}")
            positions.append(new_vars.index(v))
        out: dict[Exponent, GaussianRational] = {}
        for exp, coeff in self.terms.items():
            new_exp = [0] * len(new_vars)
            for pos, e in zip(positions, exp):
                new_exp[pos] = e
            out[tuple(new_exp)] = coeff
        return Poly(new_vars, out)

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Rename variables (a bijective relabelling, exponents unchanged)."""
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ValueError("variable renaming is not injective")
        return Poly(new_vars, self.terms)

    def substitute(self, values: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials for some variables (same ambient ring)."""
        result = Poly.zero(self.vars)
        for exp, coeff in self.terms.items():
            term = Poly.constant(self.vars, coeff)
            for v, e in zip(self.vars, exp):
                if e == 0:
                    continue
                base = values.get(v)
                if base is None:
                    base = Poly.variable(self.vars, v)
                term = term * base ** e
            result = result + term
        return result

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
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.vars, frozenset(self.terms.items())))
            )
        return self._hash

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
        z = Poly.zero(vars)
        return PolyMatrix(vars, [[z] * cols for _ in range(rows)], shape=(rows, cols))

    @staticmethod
    def identity(vars: Sequence[str], n: int) -> "PolyMatrix":
        z = Poly.zero(vars)
        one = Poly.one(vars)
        return PolyMatrix(
            vars, [[one if i == j else z for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def diagonal(vars: Sequence[str], diag: Sequence[Poly]) -> "PolyMatrix":
        z = Poly.zero(vars)
        n = len(diag)
        return PolyMatrix(
            vars, [[diag[i] if i == j else z for j in range(n)] for i in range(n)]
        )

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

    def embed(self, rows: int, cols: int, r0: int, c0: int) -> "PolyMatrix":
        """This matrix placed at ``(r0, c0)`` of an otherwise zero rows x cols one."""
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

    # -- arithmetic --------------------------------------------------------

    def _check_shape(self, other: "PolyMatrix") -> None:
        if self.vars != other.vars:
            raise ValueError("variable mismatch between matrices")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch between matrices")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(
            self.vars,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            shape=(self.rows, self.cols),
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_shape(other)
        return PolyMatrix(
            self.vars,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            shape=(self.rows, self.cols),
        )

    def __neg__(self) -> "PolyMatrix":
        return self.map(lambda p: -p)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.vars != other.vars:
            raise ValueError("variable mismatch between matrices")
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = Poly.zero(self.vars)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.vars, out, shape=(self.rows, other.cols))

    def scale(self, value) -> "PolyMatrix":
        if isinstance(value, Poly):
            return self.map(lambda p: p * value)
        return self.map(lambda p: p.scale(value))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.vars,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows),
        )

    def conjugate(self) -> "PolyMatrix":
        return self.map(lambda p: p.conjugate())

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

    def det_cofactor(self) -> Poly:
        """Determinant by cofactor expansion (exponential; oracle / small sizes)."""
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

    def det_bareiss(self) -> Poly:
        """Fraction-free Bareiss determinant (divisions are exact)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Poly.one(self.vars)
        m = [list(row) for row in self.entries]
        sign = 1
        prev = Poly.one(self.vars)
        for k in range(n - 1):
            if m[k][k].is_zero:
                pivot_row = next(
                    (i for i in range(k + 1, n) if not m[i][k].is_zero), None
                )
                if pivot_row is None:
                    return Poly.zero(self.vars)
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                    m[i][j] = num.exact_div(prev)
                m[i][k] = Poly.zero(self.vars)
            prev = m[k][k]
        det = m[n - 1][n - 1]
        return -det if sign < 0 else det

    def determinant(self) -> Poly:
        """Exact determinant (cofactor expansion up to 4x4, Bareiss beyond)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.rows <= 4:
            return self.det_cofactor()
        return self.det_bareiss()

    def adjugate(self) -> "PolyMatrix":
        """Adjugate matrix, satisfying ``self @ adj == det * identity``."""
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 0:
            return self
        if n == 1:
            return PolyMatrix.identity(self.vars, 1)
        if n <= 4:
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
                    minor = sub.det_cofactor()
                    row.append(minor if (i + j) % 2 == 0 else -minor)
                cof.append(row)
            return PolyMatrix(self.vars, cof).transpose()
        # Faddeev-LeVerrier recursion: only exact integer divisions occur.
        ident = PolyMatrix.identity(self.vars, n)
        m = ident
        c = Poly.one(self.vars)
        for k in range(1, n):
            am = self @ m
            trace = Poly.zero(self.vars)
            for i in range(n):
                trace = trace + am.entries[i][i]
            c = trace.scale(Fraction(-1, k))
            m = am + ident.scale(c)
        if n % 2 == 0:
            return -m
        return m

    def __str__(self) -> str:
        rows = ["[" + ", ".join(str(p) for p in row) + "]" for row in self.entries]
        return "[" + ", ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, {self})"
