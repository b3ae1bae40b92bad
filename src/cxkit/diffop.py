"""Constant-coefficient matrix differential operators and their symbols.

An operator is a matrix whose entries are polynomials in formal derivative
symbols (spatial derivatives, optionally a time derivative) and, possibly,
scalar parameter symbols such as a viscosity or a wave speed.  Parameters
behave like commuting constants: they never contribute to the order of an
operator and they are untouched by the formal adjoint.

The (total) symbol replaces each spatial derivative d_j by i*z_j and the time
derivative by i*tau; the principal symbol keeps only the top-order part.  Two
gradings are supported: ``"isotropic"`` counts the time derivative like a
spatial one, ``"spatial"`` gives it weight zero.
"""

from __future__ import annotations

from typing import Sequence

from cxkit._record import Record
from cxkit.poly import Poly, PolyMatrix

ISOTROPIC = "isotropic"
SPATIAL = "spatial"


class Signature(Record):
    """Names and roles of the variables an operator is written in."""

    __slots__ = ("spatial", "time", "params")

    def __init__(self, spatial: tuple[str, ...], time: str | None = None,
                 params: tuple[str, ...] = ()):
        object.__setattr__(self, "spatial", spatial)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "params", params)

    @property
    def vars(self) -> tuple[str, ...]:
        v = self.spatial
        if self.time is not None:
            v = v + (self.time,)
        return v + self.params

    @property
    def derivative_vars(self) -> tuple[str, ...]:
        if self.time is not None:
            return self.spatial + (self.time,)
        return self.spatial

    def grading_vars(self, grading: str) -> tuple[str, ...]:
        if grading == ISOTROPIC:
            return self.derivative_vars
        if grading == SPATIAL:
            return self.spatial
        raise ValueError(f"unknown grading {grading!r}")

    def symbol_signature(self) -> "Signature":
        """Variable names used by symbols: z1..zn for space, tau for time."""
        return Signature(
            spatial=tuple(f"z{j + 1}" for j in range(len(self.spatial))),
            time="tau" if self.time is not None else None,
            params=self.params,
        )

    def merge(self, other: "Signature") -> "Signature":
        """Common refinement: same spatial block, union of time/params."""
        if self.spatial != other.spatial:
            raise ValueError(f"spatial variables differ: {self.spatial} vs {other.spatial}")
        if self.time is not None and other.time is not None and self.time != other.time:
            raise ValueError("conflicting time variable names")
        time = self.time if self.time is not None else other.time
        params = tuple(sorted(set(self.params) | set(other.params)))
        return Signature(self.spatial, time, params)


def spatial_signature(n: int, *, time: bool = False, params: Sequence[str] = ()) -> Signature:
    """The standard signature d1..dn (plus ``dt`` and sorted parameters)."""
    return Signature(
        spatial=tuple(f"d{j + 1}" for j in range(n)),
        time="dt" if time else None,
        params=tuple(sorted(params)),
    )


class SignatureMatrix:
    """A :class:`PolyMatrix` body over the variables of a :class:`Signature`.

    Holds the algebra that operators and symbols share.  Every method returns
    the operand's own class, and binary operations between different
    subclasses return ``NotImplemented``.
    """

    __slots__ = ("signature", "body")

    def __init__(self, signature: Signature, body: PolyMatrix):
        if body.vars != signature.vars:
            raise ValueError(
                f"matrix variables {body.vars} do not match signature {signature.vars}"
            )
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "body", body)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, signature: Signature, rows: int, cols: int):
        return cls(signature, PolyMatrix.zeros(signature.vars, rows, cols))

    @classmethod
    def identity(cls, signature: Signature, n: int, scalar: Poly | None = None):
        """I_n, or ``scalar`` I_n with the scalar on the diagonal."""
        if scalar is not None:
            scalar = scalar.lift(signature.vars)
        return cls(signature, PolyMatrix.identity(signature.vars, n, scalar))

    @classmethod
    def from_entries(cls, signature: Signature, entries: Sequence[Sequence[Poly]]):
        return cls(signature, PolyMatrix(signature.vars, entries))

    # -- views -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.body.rows

    @property
    def cols(self) -> int:
        return self.body.cols

    def __getitem__(self, key: tuple[int, int]) -> Poly:
        return self.body[key]

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def lift(self, signature: Signature):
        """Re-express over a richer signature (more params and/or a time axis)."""
        merged = self.signature.merge(signature)
        if merged != signature:
            # The target must contain everything this matrix mentions.
            raise ValueError(f"cannot lift {self.signature} into {signature}")
        return type(self)(
            signature,
            self.body.map(lambda p: p.lift(signature.vars), vars=signature.vars),
        )

    # -- algebra -----------------------------------------------------------

    def _aligned(self, other):
        if self.signature == other.signature:
            return self, other
        sig = self.signature.merge(other.signature)
        return self.lift(sig), other.lift(sig)

    def _binary(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._aligned(other)
        return type(self)(a.signature, op(a.body, b.body))

    def __add__(self, other):
        return self._binary(other, PolyMatrix.__add__)

    def __sub__(self, other):
        return self._binary(other, PolyMatrix.__sub__)

    def __neg__(self):
        return type(self)(self.signature, -self.body)

    def __matmul__(self, other):
        return self._binary(other, PolyMatrix.__matmul__)

    def scale(self, value):
        if isinstance(value, Poly):
            value = value.lift(self.signature.vars)
        return type(self)(self.signature, self.body.scale(value))

    def transpose(self):
        return type(self)(self.signature, self.body.transpose())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.signature == other.signature and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.signature, self.body))


class OperatorMatrix(SignatureMatrix):
    """A matrix differential operator with constant Gaussian-rational coefficients."""

    __slots__ = ()

    @classmethod
    def scalar(cls, signature: Signature, p: Poly) -> "OperatorMatrix":
        """A 1x1 operator."""
        return cls(signature, PolyMatrix(signature.vars, [[p.lift(signature.vars)]]))

    def poly(self, name: str) -> Poly:
        """The polynomial for a single variable of this operator's ring."""
        return Poly.variable(self.signature.vars, name)

    def order(self, grading: str = ISOTROPIC) -> int:
        """Max total degree in the derivative symbols (-1 for the zero operator)."""
        return self.body.total_degree(self.signature.grading_vars(grading))

    def formal_adjoint(self) -> "OperatorMatrix":
        """Formal L2 adjoint: conjugate-transpose with a (-1)^|alpha| twist on
        each derivative monomial.  Parameters and zero entries are left untouched."""
        return OperatorMatrix(self.signature, self.body.transpose().twist(
            self.signature.derivative_vars, 2, conjugate=True))

    # -- symbols -----------------------------------------------------------

    def total_symbol(self, top: Sequence[str] | None = None,
                     degrees: Sequence[Sequence[int]] | None = None) -> "SymbolMatrix":
        """Replace d_j -> i*z_j and dt -> i*tau; with ``top``, only the terms
        of the operator's highest degree in the ``top`` variables; with
        ``degrees``, only the terms of entry (i, j) of derivative degree
        ``degrees[i][j]`` (none where that is negative)."""
        sig = self.signature
        sym_sig = sig.symbol_signature()
        return SymbolMatrix(sym_sig, self.body.twist(
            sig.derivative_vars, 1, vars=sym_sig.vars, top=top, degrees=degrees))

    def principal_symbol(self, grading: str = ISOTROPIC) -> "SymbolMatrix":
        """Top-order part of the total symbol under the chosen grading."""
        return self.total_symbol(self.signature.grading_vars(grading))


class SymbolMatrix(SignatureMatrix):
    """A polynomial matrix in the symbol variables z1..zn (and tau, params)."""

    __slots__ = ()

    def hermitian_transpose(self) -> "SymbolMatrix":
        """Conjugate transpose; equals the symbol of the formal adjoint for
        real symbol variables."""
        return SymbolMatrix(self.signature, self.body.hermitian_transpose())

    def formal_adjoint(self) -> "SymbolMatrix":
        """The conjugate transpose: the symbol-level formal adjoint, so the
        operator builders run unchanged on a complex of symbols."""
        return self.hermitian_transpose()

    def scalar_part(self) -> Poly | None:
        """The scalar s when this matrix is s*I, else None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        s = self.body[0, 0]
        if self == SymbolMatrix.identity(self.signature, self.rows, s):
            return s
        return None


def tensor_identity(op: OperatorMatrix, n: int, *, outer: bool = True) -> OperatorMatrix:
    """Kronecker product ``I_n (x) op`` (outer) or ``op (x) I_n``, placed.

    With ``outer=True`` the result repeats ``op`` down a block diagonal.
    """
    if n < 0:
        raise ValueError(f"tensor_identity needs n >= 0, got n = {n}")
    sig = op.signature
    if outer:
        blocks = [(op.body, b * op.rows, b * op.cols) for b in range(n)]
    else:
        blocks = [(PolyMatrix.identity(sig.vars, n, op[i, j]), i * n, j * n)
                  for i in range(op.rows) for j in range(op.cols)]
    return OperatorMatrix(sig, PolyMatrix.place(sig.vars, n * op.rows, n * op.cols, blocks))
