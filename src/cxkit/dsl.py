"""Line-oriented specification language for operators and complexes.

Grammar (one statement per line, ``#`` comments)::

    vars: d1 d2 d3            # spatial derivative symbols
    time: dt                  # optional time symbol
    params: mu c              # named parameters
    operator A = [[d1], [d2], [d3]]
    operator S = [[dt - mu*(d1^2 + d2^2 + d3^2), A], [[[d1, d2, d3]], 0]]
    operator N = -i*S         # an operator negated or times a polynomial
    complex C = ops(A, B)     # or de_rham(3), koszul(d1, d2), dolbeault(2),
                              #    power_de_rham(3, 2)
    mu C 1 scalar mu          # weight assignment: complex, degree (0..N, once
                              #    each), kind (only scalar), value

Each of ``vars``, ``time`` and ``params`` is stated at most once, in any
order, but ``vars`` before every operator and complex: a ``time`` or
``params`` statement lifts the operators, complexes and ``mu`` values read
before it onto the new variables.  An operator is a
literal, a grid of blocks: each entry is a polynomial, an operator named
before, or a nested literal.  A block row takes its height, and a block
column its width, from the operators in it (1 where it holds none); a
polynomial p is p*I in a square block and the zero block when p = 0.  A
whole operator may be negated or multiplied by a polynomial, and nothing
else: no sum with it, no product of two operators, no power.  A literal
with operator blocks has at most ``MAX_MATRIX_ENTRIES`` entries.

Polynomial expressions use ``+ - * ^`` with integer or rational (``a/b``)
constants and the imaginary unit ``i``.  An integer is a run of decimal
digits of any script (``str.isdecimal``, what ``int`` reads), of no more
digits than ``int`` converts; exponents are at most
``MAX_EXPONENT``, denominators nonzero, the total degree of a power or
product at most ``poly.MAX_DEGREE``, a bound on its term count at most
``MAX_TERMS``, one on its coefficients' bit length at most
``MAX_COEFF_BITS`` and one on the term products of each multiply at most
``MAX_TERM_PRODUCTS``; an operator times a polynomial is held to the same
bounds entry by entry.  Builder sizes are at least 1 and at most what keeps
every differential within ``MAX_MATRIX_ENTRIES`` entries, and the
``power_de_rham`` power lies in 1..``MAX_EXPONENT``.  A name is declared
once across ``vars``, ``time`` and ``params``, and never ``i``; no parameter
is a variable of the principal symbol (z1..zn for n spatial variables, tau
with a time variable); an operator or complex name is defined once.  Parse
errors carry line/column.
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
from cxkit.poly import MAX_DEGREE, GaussianRational, Poly, PolyMatrix

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
# Most entries a builder's largest differential, or a literal with operator
# blocks, may have.  The builders are wedge (Koszul) complexes on n
# generators, whose largest differential is C(n, q + 1) x C(n, q) at
# q = (n - 1) // 2: 3920 entries at n = 8, and 853 776 at n = 12, where
# ``cxkit verify`` runs past two minutes.  k lines of ``[[A, A], [A, A]]``
# would make 4^k entries.
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
        self.signature = Signature(spatial, time, params)  # rebuilt by each declaration
        self.operators = {} if operators is None else operators
        self.complexes = {} if complexes is None else complexes
        self.mu_specs = {} if mu_specs is None else mu_specs
        self.builders = {} if builders is None else builders  # for printing

    def __repr__(self) -> str:
        return field_repr(self, self._FIELDS)

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
        if ch.isdecimal():  # the digits int() reads, in any script
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                int(text[i:j])
            except ValueError:  # more digits than int() converts
                raise SpecError(f"integer literal of {j - i} digits is too long",
                                line_no, col) from None
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
    """Recursive-descent expression parser over one token stream.  An
    expression is a :class:`Poly`, or, where ``operators`` names the
    operators it may use, an :class:`OperatorMatrix`."""

    def __init__(self, tokens: list[Token], doc: SpecDocument):
        self.tokens = tokens
        self.pos = 0
        self.doc = doc
        self.operators: dict[str, OperatorMatrix] | None = None

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

    # expression := '-'? term (('+'|'-') term)*
    def expression(self) -> Poly | OperatorMatrix:
        if self.accept("punct", "-"):
            total = -self.term()
        else:
            total = self.term()
        while sign := self.accept("punct", "+") or self.accept("punct", "-"):
            right = self.term()
            if not isinstance(total, Poly) or not isinstance(right, Poly):
                raise SpecError("no sum with an operator", sign.line, sign.column)
            total = total + right if sign.text == "+" else total - right
        return total

    # term := factor ('*' factor)*
    def term(self) -> Poly | OperatorMatrix:
        total = self.factor()
        while star := self.accept("punct", "*"):
            factor = self.factor()
            if isinstance(total, Poly) and isinstance(factor, Poly):
                _check_product(total, factor, star)
                total = total * factor
                continue
            op, scalar = (total, factor) if isinstance(factor, Poly) else (factor, total)
            if not isinstance(scalar, Poly):
                raise SpecError("no product of two operators", star.line, star.column)
            for row in op.body.entries:
                for entry in row:
                    _check_product(entry, scalar, star)
            total = op.scale(scalar)
        return total

    # factor := atom ('^' int)?
    def factor(self) -> Poly | OperatorMatrix:
        atom = self.atom()
        if caret := self.accept("punct", "^"):
            if not isinstance(atom, Poly):
                raise SpecError("no power of an operator", caret.line, caret.column)
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

    # atom := rational | 'i' | variable | '(' expression ')' | operator | literal
    def atom(self) -> Poly | OperatorMatrix:
        vars = self.doc.signature.vars
        if self.accept("punct", "("):
            inner = self.expression()
            self.expect("punct", ")")
            return inner
        tok = self.current
        if self.operators is not None and tok.text == "[":
            return self.literal()
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
            if self.operators and tok.text in self.operators:
                return self.operators[tok.text]  # over doc.signature, see _declare
            raise SpecError(f"unknown symbol {tok.text!r}", tok.line, tok.column)
        raise self.error("expected a polynomial atom")

    # literal := '[' row (',' row)* ']'    row := '[' expression (',' expression)* ']'
    def literal(self) -> OperatorMatrix:
        start = self.expect("punct", "[")
        rows = [self.literal_row()]
        while self.accept("punct", ","):
            rows.append(self.literal_row())
        self.expect("punct", "]")
        if any(len(row) != len(rows[0]) for row in rows):
            raise self.error("ragged matrix row")
        sig = self.doc.signature
        if not any(isinstance(v, OperatorMatrix) for row in rows for _, v in row):
            return OperatorMatrix.from_entries(sig, [[v for _, v in row] for row in rows])
        heights = [_block_size(row, "rows", "row") for row in rows]
        widths = [_block_size(col, "cols", "column") for col in zip(*rows)]
        if sum(heights) * sum(widths) > MAX_MATRIX_ENTRIES:
            raise SpecError(f"{sum(heights)}x{sum(widths)} operator would pass "
                            f"{MAX_MATRIX_ENTRIES} entries", start.line, start.column)
        placed, r0 = [], 0
        for row, height in zip(rows, heights):
            c0 = 0
            for (tok, value), width in zip(row, widths):
                if isinstance(value, OperatorMatrix):
                    placed.append((value.body, r0, c0))
                elif not value.is_zero:
                    if height != width:
                        raise SpecError(f"polynomial in a {height}x{width} block: only "
                                        "a square block is a multiple of I",
                                        tok.line, tok.column)
                    placed.append((PolyMatrix.identity(sig.vars, height, value), r0, c0))
                c0 += width
            r0 += height
        return OperatorMatrix(sig, PolyMatrix.place(sig.vars, r0, c0, placed))

    def literal_row(self) -> list[tuple[Token, Poly | OperatorMatrix]]:
        self.expect("punct", "[")
        row = [(self.current, self.expression())]
        while self.accept("punct", ","):
            row.append((self.current, self.expression()))
        self.expect("punct", "]")
        return row


def _block_size(cells, dim: str, kind: str) -> int:
    """The height (``dim`` "rows") or width ("cols") of a block row or
    column: that of each operator in it, 1 where it holds none, else an
    error located at the first operator of another size."""
    sizes = [(tok, getattr(v, dim)) for tok, v in cells if isinstance(v, OperatorMatrix)]
    for tok, size in sizes:
        if size != sizes[0][1]:
            raise SpecError(f"ragged block {kind}: {size} {dim} where the first "
                            f"operator has {sizes[0][1]}", tok.line, tok.column)
    return sizes[0][1] if sizes else 1


def _check_product(a: Poly, b: Poly, tok: Token) -> None:
    """``_check_size`` on the product ``a * b``."""
    products = len(a.terms) * len(b.terms)
    _check_size(a.total_degree() + b.total_degree(), products,
                a._coeff_bits() + b._coeff_bits(), products, len(a.vars), tok)


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
    declared: dict[str, Token] = {}  # the token of each vars and params name
    stated: set[str] = set()  # the declaration statements read
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, line_no)
        if tokens[0].kind == "end":
            continue
        p = _Parser(tokens, doc)
        head = p.expect("name")
        if head.text in ("vars", "time", "params"):
            if head.text in stated:
                raise SpecError(f"second {head.text!r} statement", head.line, head.column)
            stated.add(head.text)
            if head.text == "vars" and (doc.operators or doc.complexes):
                raise SpecError("'vars' must come before every operator and complex",
                                head.line, head.column)
            p.expect("punct", ":")
            if head.text == "time":
                doc.time = _new_name(p.expect("name"), doc.signature.vars)
            else:
                names = []
                while p.current.kind == "name":
                    tok = p.expect("name")
                    names.append(_new_name(tok, doc.signature.vars + tuple(names)))
                    declared[tok.text] = tok
                setattr(doc, "spatial" if head.text == "vars" else "params", tuple(names))
            p.expect("end")
            _declare(doc, declared)
        elif head.text == "operator":
            name = _new_name(p.expect("name"), doc.operators, "operator")
            p.expect("punct", "=")
            p.operators, start = doc.operators, p.current
            value = p.expression()
            p.expect("end")
            if not isinstance(value, OperatorMatrix):
                raise SpecError("an operator is a matrix literal, not a polynomial",
                                start.line, start.column)
            doc.operators[name] = value
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


def _declare(doc: SpecDocument, declared: dict[str, Token]) -> None:
    """After a declaration: rebuild ``doc.signature`` once, and lift what was
    read (operators, complexes and their ``mu`` values, all after ``vars``)
    onto it, as ``print_document``, which declares first, would read them.
    An error located at a parameter the principal symbol also names: z1..zn
    for n spatial variables, or tau with a time variable
    (``Signature.symbol_signature``), whatever the statement order."""
    sig = doc.signature = Signature(doc.spatial, doc.time, doc.params)
    try:
        sig.symbol_signature()
    except ValueError:
        symbol_vars = Signature(doc.spatial, doc.time).symbol_signature().vars
        tok = next(declared[v] for v in doc.params if v in symbol_vars)
        raise SpecError(f"parameter {tok.text!r} is also a variable of the principal symbol",
                        tok.line, tok.column) from None
    doc.operators.update({name: op.lift(sig) for name, op in doc.operators.items()})
    doc.complexes.update({name: c.lift(sig) for name, c in doc.complexes.items()})
    doc.mu_specs.update({name: [(q, kind, value.lift(sig.vars)) for q, kind, value in specs]
                         for name, specs in doc.mu_specs.items()})


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
