"""Line-oriented specification language for operators and complexes.

Grammar (one statement per line, ``#`` comments)::

    vars: d1 d2 d3            # spatial derivative symbols
    time: dt                  # optional time symbol
    params: mu c              # named parameters
    operator A = [[d1, 0], [d2, d1], [0, d2]]
    complex C = ops(A, B)     # or de_rham(3), koszul(d1, d2), dolbeault(2),
                              #    power_de_rham(3, 2)
    mu C 1 scalar mu          # weight assignment: complex, degree (0..N, once
                              #    each), kind (only scalar), value

Polynomial expressions use ``+ - * ^`` with integer or rational (``a/b``)
constants and the imaginary unit ``i``; exponents are at most
``MAX_EXPONENT``, denominators nonzero, the total degree of a power or
product at most ``poly.MAX_DEGREE``, a bound on its term count at most
``MAX_TERMS``, one on its coefficients' bit length at most
``MAX_COEFF_BITS`` and one on the term products of each multiply at most
``MAX_TERM_PRODUCTS``.  Builder sizes are at least 1 and at most what keeps
every differential within ``MAX_MATRIX_ENTRIES`` entries, and the
``power_de_rham`` power lies in 1..``MAX_EXPONENT``.  A name is declared
once across ``vars``, ``time`` and ``params``, and never ``i``; an operator
or complex name is defined once.  Parse errors carry line/column.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from cxkit._record import Record, field_repr
from cxkit.complexes import (
    Complex,
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    koszul_complex,
    powered_de_rham_complex,
)
from cxkit.diffop import OperatorMatrix, Signature
from cxkit.poly import MAX_DEGREE, GaussianRational, Poly

# Largest exponent ``^`` accepts: a power's size grows with it without bound.
MAX_EXPONENT = 64
# Largest term count a power or product may reach, by the bound ``_check_size``
# takes before multiplying: nested powers stay within ``MAX_EXPONENT`` and
# ``MAX_DEGREE`` and still expand to millions of terms.
MAX_TERMS = 10_000
# Largest bit length a power's or product's coefficients (numerator parts and
# denominator) may reach, by the bound ``_check_size`` takes before
# multiplying: ((1+d1)^64)^64 passes the two caps above, and its 4096-bit
# binomials took about 20 s to expand.
MAX_COEFF_BITS = 1024
# Most term products one multiply of a power or product may take, by the
# bound ``_check_size`` takes before multiplying: ``MAX_TERMS`` bounds only
# the result, and (d1^0 + d1 + ... + d1^64)^64, 4097 terms, squares a
# 2049-term polynomial on its way (about 3 s).
MAX_TERM_PRODUCTS = 1_000_000
# Most entries a builder's largest differential may have.  The builders are
# wedge (Koszul) complexes on n generators, whose largest differential is
# C(n, q + 1) x C(n, q) at q = (n - 1) // 2: 3920 entries at n = 8, and
# 853 776 at n = 12, where ``cxkit verify`` runs past two minutes.
MAX_MATRIX_ENTRIES = 10_000


class SpecError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SpecDocument:
    _FIELDS = ("spatial", "time", "params", "operators", "complexes", "mu_specs", "builders")

    def __init__(self, spatial: tuple[str, ...] = (), time: str | None = None,
                 params: tuple[str, ...] = (),
                 operators: dict[str, OperatorMatrix] | None = None,
                 complexes: dict[str, Complex] | None = None,
                 mu_specs: dict[str, list[tuple[int, str, Poly]]] | None = None,
                 builders: dict[str, str] | None = None):
        self.spatial = spatial
        self.time = time
        self.params = params
        self.operators = {} if operators is None else operators
        self.complexes = {} if complexes is None else complexes
        self.mu_specs = {} if mu_specs is None else mu_specs
        self.builders = {} if builders is None else builders  # for printing

    def __repr__(self) -> str:
        return field_repr(self, self._FIELDS)

    @property
    def signature(self) -> Signature:
        return Signature(self.spatial, self.time, self.params)

    def mu_set(self, name: str) -> MuSet | None:
        """Materialize the weight assignments for a complex, if any."""
        specs = self.mu_specs.get(name)
        if not specs:
            return None
        values = {degree: value for degree, _, value in specs}  # ``parse`` admits only scalar ones
        return MuSet(self.complexes[name], values, values)

    def __eq__(self, other):
        if not isinstance(other, SpecDocument):
            return NotImplemented
        return (
            self.spatial == other.spatial
            and self.time == other.time
            and self.params == other.params
            and self.operators == other.operators
            and list(self.complexes) == list(other.complexes)
            and all(self.complexes[k].ops == other.complexes[k].ops
                    for k in self.complexes)
            and self.mu_specs == other.mu_specs
        )


# ---------------------------------------------------------------------------
# Tokenizer


class Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        object.__setattr__(self, "kind", kind)  # name | int | punct | end
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


_PUNCT = set("[](),+-*^/=:")


def _tokenize(text: str, line_no: int) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line_no, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line_no, col))
            i = j
        elif ch in _PUNCT:
            tokens.append(Token("punct", ch, line_no, col))
            i += 1
        else:
            raise SpecError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(Token("end", "", line_no, len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent expression parser over one token stream."""

    def __init__(self, tokens: list[Token], doc: SpecDocument):
        self.tokens = tokens
        self.pos = 0
        self.doc = doc

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> SpecError:
        tok = self.current
        return SpecError(message, tok.line, tok.column)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            want = text or kind
            raise self.error(f"expected {want!r}, found {self.current.text!r}")
        return tok

    # expression := term (('+'|'-') term)*
    def expression(self) -> Poly:
        if self.accept("punct", "-"):
            total = -self.term()
        else:
            total = self.term()
        while True:
            if self.accept("punct", "+"):
                total = total + self.term()
            elif self.accept("punct", "-"):
                total = total - self.term()
            else:
                return total

    # term := factor ('*' factor)*
    def term(self) -> Poly:
        total = self.factor()
        while star := self.accept("punct", "*"):
            factor = self.factor()
            products = len(total.terms) * len(factor.terms)
            _check_size(total.total_degree() + factor.total_degree(), products,
                        total._coeff_bits() + factor._coeff_bits(), products,
                        len(total.vars), star)
            total = total * factor
        return total

    # factor := atom ('^' int)?
    def factor(self) -> Poly:
        atom = self.atom()
        if self.accept("punct", "^"):
            exp = self.expect("int")
            if int(exp.text) > MAX_EXPONENT:
                raise SpecError(f"exponent {exp.text} exceeds {MAX_EXPONENT}",
                                exp.line, exp.column)
            e, t = int(exp.text), len(atom.terms)
            _check_size(atom.total_degree() * e, comb(t + e - 1, e) if t else 1,
                        atom._coeff_bits() * e, _power_products(atom, e),
                        len(atom.vars), exp)
            return atom ** e
        return atom

    # atom := rational | 'i' | variable | '(' expression ')'
    def atom(self) -> Poly:
        vars = self.doc.signature.vars
        if self.accept("punct", "("):
            inner = self.expression()
            self.expect("punct", ")")
            return inner
        tok = self.current
        if tok.kind == "int":
            self.pos += 1
            value = Fraction(int(tok.text))
            if self.accept("punct", "/"):
                den = self.expect("int")
                if int(den.text) == 0:
                    raise SpecError("zero denominator", den.line, den.column)
                value = value / int(den.text)
            return Poly.constant(vars, GaussianRational.of(value))
        if tok.kind == "name":
            self.pos += 1
            if tok.text == "i":
                return Poly.constant(vars, GaussianRational.i())
            if tok.text in vars:
                return Poly.variable(vars, tok.text)
            raise SpecError(f"unknown symbol {tok.text!r}", tok.line, tok.column)
        raise self.error("expected a polynomial atom")

    # matrix := '[' row (',' row)* ']'
    def matrix(self) -> list[list[Poly]]:
        self.expect("punct", "[")
        rows = [self.matrix_row()]
        while self.accept("punct", ","):
            rows.append(self.matrix_row())
        self.expect("punct", "]")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise self.error("ragged matrix row")
        return rows

    def matrix_row(self) -> list[Poly]:
        self.expect("punct", "[")
        row = [self.expression()]
        while self.accept("punct", ","):
            row.append(self.expression())
        self.expect("punct", "]")
        return row


def _power_products(atom: Poly, e: int) -> int:
    """A bound on the term products of the largest multiply ``atom ** e``
    takes: ``Poly.__pow__`` squares and multiplies, low bit first, and the
    k-th power has at most the multisets of k terms and the monomials of
    degree at most k times the atom's."""
    t, degree, nvars = len(atom.terms), atom.total_degree(), len(atom.vars)
    if not t:
        return 0

    def terms(k: int) -> int:
        return min(comb(t + k - 1, k), comb(degree * k + nvars, nvars))

    most, done, k = 0, 0, 1
    while e:
        if e & 1:
            most = max(most, terms(done) * terms(k))
            done += k
        if e > 1:
            most = max(most, terms(k) ** 2)
        k *= 2
        e >>= 1
    return most


def _check_size(degree: int, terms: int, bits: int, products: int, nvars: int,
                tok: Token) -> None:
    """A located error, before the multiply, for a power or product whose
    total degree would pass what ``Poly`` can hold, whose term count could
    pass ``MAX_TERMS``, whose coefficients could pass ``MAX_COEFF_BITS``, or
    one of whose multiplies could take more than ``MAX_TERM_PRODUCTS`` term
    products.  ``terms`` bounds that count from the operands' terms (a product
    of their counts, or the multisets of a power); the monomials of degree at
    most ``degree`` in ``nvars`` variables bound it too.  ``bits`` bounds the
    coefficients from the operands' ``Poly._coeff_bits``, and ``products``
    the term products of the largest multiply."""
    if degree > MAX_DEGREE:
        raise SpecError(f"total degree {degree} exceeds {MAX_DEGREE}", tok.line, tok.column)
    bound = min(terms, comb(max(degree, 0) + nvars, nvars))
    if bound > MAX_TERMS:
        raise SpecError(f"term count bound {bound} exceeds {MAX_TERMS}", tok.line, tok.column)
    if bits > MAX_COEFF_BITS:
        raise SpecError(f"coefficient bit length bound {bits} exceeds {MAX_COEFF_BITS}",
                        tok.line, tok.column)
    if products > MAX_TERM_PRODUCTS:
        raise SpecError(f"term products bound {products} exceeds {MAX_TERM_PRODUCTS}",
                        tok.line, tok.column)


# ---------------------------------------------------------------------------
# Statements


def parse(text: str) -> SpecDocument:
    doc = SpecDocument()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens[0].kind == "end":
            continue
        p = _Parser(tokens, doc)
        head = p.expect("name")
        if head.text in ("vars", "params"):
            p.expect("punct", ":")
            names = []
            while p.current.kind == "name":
                names.append(_new_name(p.expect("name"), doc.signature.vars + tuple(names)))
            p.expect("end")
            setattr(doc, "spatial" if head.text == "vars" else "params", tuple(names))
        elif head.text == "time":
            p.expect("punct", ":")
            doc.time = _new_name(p.expect("name"), doc.signature.vars)
            p.expect("end")
        elif head.text == "operator":
            name = _new_name(p.expect("name"), doc.operators, "operator")
            p.expect("punct", "=")
            entries = p.matrix()
            p.expect("end")
            doc.operators[name] = OperatorMatrix.from_entries(doc.signature, entries)
        elif head.text == "complex":
            name = _new_name(p.expect("name"), doc.complexes, "complex")
            p.expect("punct", "=")
            doc.complexes[name] = _parse_complex(p, doc, name)
            p.expect("end")
        elif head.text == "mu":
            cname = p.expect("name").text
            if cname not in doc.complexes:
                raise SpecError(f"unknown complex {cname!r}", head.line, head.column)
            tok = p.expect("int")
            degree, top = int(tok.text), doc.complexes[cname].length
            specs = doc.mu_specs.setdefault(cname, [])
            if degree > top:
                raise SpecError(f"mu degree {degree} outside 0..{top} of {cname}",
                                tok.line, tok.column)
            if any(d == degree for d, _, _ in specs):
                raise SpecError(f"mu degree {degree} of {cname} already set",
                                tok.line, tok.column)
            tok = p.expect("name")
            if tok.text != "scalar":
                raise SpecError(f"unknown mu kind {tok.text!r}", tok.line, tok.column)
            value = p.expression()
            p.expect("end")
            specs.append((degree, tok.text, value))
        else:
            raise SpecError(f"unknown statement {head.text!r}", head.line, head.column)
    return doc


def _new_name(tok: Token, taken, kind: str = "name") -> str:
    """The name ``tok`` declares, else an error located at it: ``i`` always
    parses as the imaginary unit, and a name in ``taken`` is declared."""
    if kind == "name" and tok.text == "i":
        raise SpecError("'i' is the imaginary unit and cannot be declared", tok.line, tok.column)
    if tok.text in taken:
        raise SpecError(f"{kind} {tok.text!r} already declared", tok.line, tok.column)
    return tok.text


def _parse_complex(p: _Parser, doc: SpecDocument, name: str) -> Complex:
    kind = p.expect("name").text
    p.expect("punct", "(")
    if kind == "ops":
        ops = []
        parts = []
        while True:
            tok = p.expect("name")
            if tok.text not in doc.operators:
                raise SpecError(f"unknown operator {tok.text!r}", tok.line, tok.column)
            ops.append(doc.operators[tok.text])
            parts.append(tok.text)
            if not p.accept("punct", ","):
                break
        p.expect("punct", ")")
        doc.builders[name] = f"ops({', '.join(parts)})"
        return Complex(ops)
    if kind in _WEDGE_BUILDERS:
        args = [_wedge_size(p)]
        if kind == "power_de_rham":
            p.expect("punct", ",")
            args.append(_positive_int(p, MAX_EXPONENT,
                                      f"power must be between 1 and {MAX_EXPONENT}"))
        p.expect("punct", ")")
        doc.builders[name] = f"{kind}({', '.join(map(str, args))})"
        _require_spatial(p, doc, 2 * args[0] if kind == "dolbeault" else args[0])
        return _WEDGE_BUILDERS[kind](*args).lift(doc.signature)
    if kind == "koszul":
        gens = [p.expression()]
        parts = [str(gens[-1])]
        while p.accept("punct", ","):
            if len(gens) == _MAX_WEDGE:
                raise p.error(f"more than {_MAX_WEDGE} generators: {_WEDGE_ERROR}")
            gens.append(p.expression())
            parts.append(str(gens[-1]))
        p.expect("punct", ")")
        doc.builders[name] = f"koszul({', '.join(parts)})"
        return koszul_complex(gens, doc.signature)
    raise p.error(f"unknown complex builder {kind!r}")


_WEDGE_BUILDERS = {"de_rham": de_rham_complex, "dolbeault": dolbeault_complex,
                   "power_de_rham": powered_de_rham_complex}


def _positive_int(p: _Parser, high: int | None, message: str) -> int:
    """An integer builder argument in 1..``high`` (unbounded above if None),
    else ``message`` located at its token."""
    tok = p.expect("int")
    value = int(tok.text)
    if value < 1 or (high is not None and value > high):
        raise SpecError(message, tok.line, tok.column)
    return value


# The largest n whose wedge complex keeps within MAX_MATRIX_ENTRIES
_MAX_WEDGE = max(n for n in range(1, 64)
                 if comb(n, (n - 1) // 2) * comb(n, (n + 1) // 2) <= MAX_MATRIX_ENTRIES)
_WEDGE_ERROR = f"its largest differential would pass {MAX_MATRIX_ENTRIES} entries"


def _wedge_size(p: _Parser) -> int:
    """The size n of a ``de_rham``, ``dolbeault`` or ``power_de_rham``
    complex, each a wedge complex on n generators: at least 1, and at most
    ``_MAX_WEDGE``, else an error located at the integer."""
    tok = p.current
    n = _positive_int(p, None, "n must be at least 1")
    if n > _MAX_WEDGE:
        raise SpecError(f"n must be at most {_MAX_WEDGE}: {_WEDGE_ERROR}",
                        tok.line, tok.column)
    return n


def _require_spatial(p: _Parser, doc: SpecDocument, n: int) -> None:
    expected = tuple(f"d{k}" for k in range(1, n + 1))
    if doc.spatial != expected:
        raise p.error(
            f"builder needs spatial symbols {' '.join(expected)}, "
            f"declared {' '.join(doc.spatial) or '(none)'}"
        )


# ---------------------------------------------------------------------------
# Printing (round-trip)


def print_document(doc: SpecDocument) -> str:
    lines = []
    if doc.spatial:
        lines.append("vars: " + " ".join(doc.spatial))
    if doc.time:
        lines.append("time: " + doc.time)
    if doc.params:
        lines.append("params: " + " ".join(doc.params))
    for name, op in doc.operators.items():
        rows = ", ".join(
            "[" + ", ".join(str(op[i, j]) for j in range(op.cols)) + "]"
            for i in range(op.rows)
        )
        lines.append(f"operator {name} = [{rows}]")
    for name in doc.complexes:
        lines.append(f"complex {name} = {doc.builders[name]}")
    for cname, specs in doc.mu_specs.items():
        for degree, kind, value in specs:
            lines.append(f"mu {cname} {degree} {kind} {value}")
    return "\n".join(lines) + "\n"


__all__ = ["SpecDocument", "SpecError", "parse", "print_document"]
