"""Spec-document language: parsing, round-trips, error positions."""

import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cxkit import dsl
from cxkit.complexes import laplacian
from cxkit.poly import MAX_DEGREE, GaussianRational, Poly, PolyMatrix


EXAMPLE = """\
# a small document
vars: d1 d2 d3
time: dt
params: mu
operator A = [[d1], [d2], [d3]]
operator B = [[d2^2, -d1*d2, d1^2]]
complex C = de_rham(3)
mu C 1 scalar mu
"""


def test_parse_declarations():
    doc = dsl.parse(EXAMPLE)
    assert doc.spatial == ("d1", "d2", "d3")
    assert doc.time == "dt"
    assert doc.params == ("mu",)
    assert set(doc.operators) == {"A", "B"}
    assert list(doc.complexes) == ["C"]


def test_task_statement_is_unknown():
    # no command reads a task line, so the grammar has none
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1 d2 d3\ncomplex C = de_rham(3)\n  task verify C\n")
    assert str(exc.value) == "line 3, column 3: unknown statement 'task'"
    assert (exc.value.line, exc.value.column) == (3, 3)


def test_parsed_complex_is_usable():
    doc = dsl.parse(EXAMPLE)
    cplx = doc.complexes["C"]
    assert cplx.is_complex()
    mu = doc.mu_set("C")
    assert mu is not None
    lap = laplacian(cplx, 0)
    assert lap.rows == 1


def test_roundtrip():
    doc = dsl.parse(EXAMPLE)
    printed = dsl.print_document(doc)
    assert dsl.parse(printed) == doc


def test_roundtrip_builders():
    text = """\
vars: d1 d2 d3 d4
params: nu
complex D = dolbeault(2)
complex K = koszul(d1 + i*d2, d3^2, 1/2*d4)
complex P = power_de_rham(4, 2)
"""
    doc = dsl.parse(text)
    assert dsl.parse(dsl.print_document(doc)) == doc


def test_expression_grammar():
    doc = dsl.parse("vars: x y\noperator P = [[1/2*x^2 - i*x*y + 3]]\n")
    p = doc.operators["P"][0, 0]
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    expected = (x * x).scale(GaussianRational.of(1, 0)
                             / GaussianRational.of(2, 0)) \
        - (x * y).scale(GaussianRational.i()) \
        + Poly.constant(vars, GaussianRational.of(3, 0))
    assert p == expected


def test_parenthesized_expressions():
    doc = dsl.parse("vars: x y\noperator P = [[(x + y)^2]]\n")
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    assert doc.operators["P"][0, 0] == (x + y) * (x + y)


# ---------------------------------------------------------------------------
# Errors carry positions


def test_error_position_incomplete_power():
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1\noperator A = [[d1^]]\n")
    assert exc.value.line == 2
    assert exc.value.column == 19


def test_error_unknown_symbol():
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1\noperator A = [[d9]]\n")
    assert "d9" in str(exc.value)
    assert exc.value.line == 2


def test_error_bad_character():
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: a $\n")
    assert exc.value.column == 9


def test_error_ragged_matrix():
    with pytest.raises(dsl.SpecError):
        dsl.parse("vars: x\noperator A = [[x, x], [x]]\n")


def test_error_unknown_statement():
    with pytest.raises(dsl.SpecError):
        dsl.parse("frobnicate: yes\n")


def test_error_builder_needs_standard_vars():
    with pytest.raises(dsl.SpecError):
        dsl.parse("vars: a b c\ncomplex C = de_rham(3)\n")


def test_error_unknown_builder():
    with pytest.raises(dsl.SpecError):
        dsl.parse("vars: d1\ncomplex C = moebius(1)\n")


def test_error_mu_before_complex():
    with pytest.raises(dsl.SpecError):
        dsl.parse("vars: d1\nmu C 1 scalar 2\n")


@pytest.mark.parametrize("text, line, column", [
    ("vars: d1\ncomplex C = de_rham(1)\nmu C 1 scalar 1/0\n", 3, 17),
    ("vars: d1\noperator A = [[2/0*d1]]\n", 2, 18),
])
def test_error_zero_denominator(text, line, column):
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert "zero denominator" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_integers_are_decimal_digits_of_any_script():
    """Every character ``str.isdecimal`` accepts is a digit of an integer
    literal, read as ``int`` reads it; ``d1^٣`` is ``d1^3``."""
    digits = [c for c in map(chr, range(0x110000)) if c.isdecimal()]
    text = " + ".join(f"{c}*d{k % 2 + 1}^{c}" for k, c in enumerate(digits))
    ascii = " + ".join(f"{unicodedata.decimal(c)}*d{k % 2 + 1}^{unicodedata.decimal(c)}"
                       for k, c in enumerate(digits))
    assert dsl.parse(f"vars: d1 d2\noperator A = [[{text}]]\n") \
        == dsl.parse(f"vars: d1 d2\noperator A = [[{ascii}]]\n")


def test_error_non_decimal_digit_is_located():
    """A digit that ``int`` does not read, such as a superscript, is an
    unexpected character where it stands, not an error with no location."""
    others = [c for c in map(chr, range(0x110000)) if c.isdigit() and not c.isdecimal()]
    assert "\u00b2" in others
    for c in others:
        for body, column in ((f"d1^{c}", 19), (f"2{c}", 17)):
            with pytest.raises(dsl.SpecError) as exc:
                dsl.parse(f"vars: d1\noperator A = [[{body}]]\n")
            assert str(exc.value) == f"line 2, column {column}: unexpected character {c!r}"


@pytest.mark.parametrize("text, column", [
    ("operator A = [[{digits}*d1]]", 16),
    ("operator A = [[d1^{digits}]]", 19),
    ("operator A = [[1/{digits}*d1]]", 18),
    ("complex C = de_rham({digits})", 21),
])
def test_error_integer_literal_too_long(text, column):
    """More digits than ``int`` converts (4300 by default) is a located
    error, not Python's conversion limit with no location."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1\n" + text.format(digits="1" * 5000) + "\n")
    assert str(exc.value) == f"line 2, column {column}: integer literal of 5000 digits is too long"


@pytest.mark.parametrize("builder, column, message", [
    ("de_rham(0)", 21, "n must be at least 1"),
    ("dolbeault(0)", 23, "n must be at least 1"),
    ("power_de_rham(0, 2)", 27, "n must be at least 1"),
    ("power_de_rham(3, 0)", 30, f"power must be between 1 and {dsl.MAX_EXPONENT}"),
    (f"power_de_rham(3, {dsl.MAX_EXPONENT + 1})", 30,
     f"power must be between 1 and {dsl.MAX_EXPONENT}"),
])
def test_error_builder_argument_out_of_range(builder, column, message):
    """Located at the integer, before the spatial symbols are compared."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(f"vars: d1 d2 d3\ncomplex C = {builder}\n")
    assert str(exc.value) == f"line 2, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (2, column)


def test_builder_power_limit_is_accepted():
    doc = dsl.parse(f"vars: d1\ncomplex C = power_de_rham(1, {dsl.MAX_EXPONENT})\n")
    assert doc.builders["C"] == f"power_de_rham(1, {dsl.MAX_EXPONENT})"


def test_exponent_limit():
    doc = dsl.parse(f"vars: d1\noperator P = [[d1^{dsl.MAX_EXPONENT}]]\n")
    assert doc.operators["P"][0, 0].total_degree() == dsl.MAX_EXPONENT
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1 d2\noperator Q = [[(d1+d2)^100000]]\n")
    assert time.perf_counter() - t0 < 5.0
    assert (exc.value.line, exc.value.column) == (2, 24)


@pytest.mark.parametrize("expr, degree, at", [
    ("((d1^64)^64)^8", 32768, "8"),  # the power: degree times exponent
    ("((d1^64)^64)^7 * (d2^64)^64", 32768, "*"),  # the product: sum of degrees
    ("((d1^64)^64)^7 * (d2^64)^63 * d1^63 * d2", 32768, "* d2"),
])
def test_degree_limit_is_located(expr, degree, at):
    """A power or product past ``poly.MAX_DEGREE`` is a located error raised
    before the multiply, at the exponent or at the ``*``."""
    assert MAX_DEGREE == 32767
    text = f"vars: d1 d2\noperator Q = [[{expr}]]\n"
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    column = text.split("\n")[1].rindex(at) + 1
    assert str(exc.value) == f"line 2, column {column}: total degree {degree} exceeds {MAX_DEGREE}"


@pytest.mark.parametrize("expr, bound, at", [
    # the power: monomials of degree 1024 in 3 variables, C(1027, 3)
    ("((d1+d2+d3)^64)^16", 180007425, "16"),
    # the product: monomials of degree 128, C(131, 3), below 2145 * 2145
    ("(d1+d2+d3)^64 * (d1+d2+d3)^64", 366145, "*"),
])
def test_term_count_limit_is_located(expr, bound, at):
    """A power or product whose term count could pass ``MAX_TERMS`` is a
    located error raised before the multiply, although its degree is held."""
    text = f"vars: d1 d2 d3\noperator Q = [[{expr}]]\n"
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert time.perf_counter() - t0 < 5.0
    column = text.split("\n")[1].rindex(at) + 1
    assert str(exc.value) == \
        f"line 2, column {column}: term count bound {bound} exceeds {dsl.MAX_TERMS}"


def test_term_count_limit_is_accepted():
    """Dense powers within the bound parse; a zero atom or a single term
    never counts against it."""
    doc = dsl.parse("vars: d1 d2 d3\noperator Q = [[(d1+d2+d3)^64, ((d1*d2)^64)^64, 0^64]]\n")
    assert len(doc.operators["Q"][0, 0].terms) == 2145
    assert len(doc.operators["Q"][0, 1].terms) == 1
    assert doc.operators["Q"][0, 2].is_zero


@pytest.mark.parametrize("expr, bits, at", [
    # the power: (1+d1)^64 has numerator 1-norm 2^64, its 64th power 2^4096
    ("((1+d1)^64)^64", 4096, "64"),
    # the denominator counts too: (10^9 + 7)^64 needs 1920 bits
    ("(1/1000000007*d1)^64", 1920, "64"),
    # the product: 512 + 512 bits are at the limit, one more factor passes it
    ("((1+d1)^64)^8 * ((1+d1)^64)^8 * (1+d1)", 1025, "*"),
])
def test_coefficient_size_limit_is_located(expr, bits, at):
    """A power or product whose coefficients could pass ``MAX_COEFF_BITS`` is
    a located error raised before the multiply, although its degree and term
    count are held.  Before the limit the first took about 20 s to parse."""
    text = f"vars: d1\noperator Q = [[{expr}]]\n"
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert time.perf_counter() - t0 < 1.0
    column = text.split("\n")[1].rindex(at) + 1
    assert str(exc.value) == (f"line 2, column {column}: coefficient bit length "
                              f"bound {bits} exceeds {dsl.MAX_COEFF_BITS}")
    assert (exc.value.line, exc.value.column) == (2, column)


def test_coefficient_size_limit_is_accepted():
    """The bound at the limit parses, and the coefficients keep within it;
    (d1+d2+d3)^64 is accepted in ``test_term_count_limit_is_accepted``."""
    doc = dsl.parse("vars: d1\noperator Q = [[((1+d1)^16)^64]]\n")
    q = doc.operators["Q"][0, 0]
    assert len(q.terms) == 1025
    assert max(abs(c.re.numerator) for c in q.terms.values()) < 2 ** dsl.MAX_COEFF_BITS


_small = st.builds(
    lambda terms: Poly(("x", "y"), terms),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.builds(GaussianRational.of,
                              st.fractions(max_denominator=50).filter(lambda f: abs(f) < 100),
                              st.fractions(max_denominator=50).filter(lambda f: abs(f) < 100)),
                    max_size=5))


@settings(max_examples=200, deadline=None)
@given(_small, _small, st.integers(0, 6))
def test_coefficient_bits_bound_products_and_powers(p, q, e):
    """The bound ``_check_size`` takes: a product's ``_coeff_bits`` is at most
    the sum of its factors', a power's at most the exponent times its base's,
    and every numerator part and the denominator lie below ``2**bits``."""
    assert (p * q)._coeff_bits() <= p._coeff_bits() + q._coeff_bits()
    assert (p ** e)._coeff_bits() <= e * p._coeff_bits()
    bound = 2 ** p._coeff_bits()
    den = max([c.re.denominator for c in p.terms.values()]
              + [c.im.denominator for c in p.terms.values()] + [1])
    assert den <= bound
    assert all(abs(c.re) * den <= bound and abs(c.im) * den <= bound
               for c in p.terms.values())


@pytest.mark.parametrize("builder, column", [
    ("de_rham(24)", 21),
    ("dolbeault(9)", 23),
    ("power_de_rham(9, 2)", 27),
    (f"de_rham({10 ** 30})", 21),
])
def test_builder_size_limit_is_located(builder, column):
    """A builder whose largest differential would pass ``MAX_MATRIX_ENTRIES``
    is refused at its size argument.  Before the limit ``cxkit verify`` on
    de_rham(24) ran past 15 s while its memory grew."""
    names = " ".join(f"d{k}" for k in range(1, 25))
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(f"vars: {names}\ncomplex C = {builder}\n")
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == (
        f"line 2, column {column}: n must be at most 8: its largest differential "
        f"would pass {dsl.MAX_MATRIX_ENTRIES} entries")


def test_koszul_generator_limit_is_located():
    gens = ", ".join(f"d{k}" for k in range(1, 10))
    text = f"vars: {gens.replace(',', '')}\ncomplex C = koszul({gens})\n"
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert (exc.value.line, exc.value.column) == (2, text.split("\n")[1].index("d9") + 1)
    assert "more than 8 generators" in str(exc.value)


def test_builder_size_limit_is_accepted():
    """de Rham(8), the largest, has a 70 x 56 differential: 3920 entries."""
    names = " ".join(f"d{k}" for k in range(1, 9))
    doc = dsl.parse(f"vars: {names}\ncomplex C = de_rham(8)\n"
                    f"complex K = koszul({names.replace(' ', ', ')})\n")
    sizes = [op.rows * op.cols for op in doc.complexes["C"].ops]
    assert max(sizes) == 3920 <= dsl.MAX_MATRIX_ENTRIES
    assert [op.rows for op in doc.complexes["K"].ops] == \
        [op.rows for op in doc.complexes["C"].ops]


def test_degree_limit_is_accepted():
    doc = dsl.parse("vars: d1 d2\noperator Q = [[((d1^64)^64)^7 * (d2^64)^63 * d1^63]]\n")
    assert doc.operators["Q"][0, 0].total_degree() == MAX_DEGREE


_WIDE = " + ".join(f"d1^{k}" for k in range(65))


@pytest.mark.parametrize("vars, expr, products, at", [
    # squaring the 2049-term 32nd power on the way to the 64th
    ("d1", f"({_WIDE})^64", 2049 * 2049, "64"),
    # squaring the 2145-term inner power
    ("d1 d2", "((1+d1+d2)^64)^2", 2145 * 2145, "2"),
    # the product of the same two powers
    ("d1 d2", "(1+d1+d2)^64 * (1+d1+d2)^64", 2145 * 2145, "*"),
])
def test_term_products_limit_is_located(vars, expr, products, at):
    """A power or product one of whose multiplies could take more than
    ``MAX_TERM_PRODUCTS`` term products is a located error raised before it,
    although its result keeps within the other bounds.  Before the limit the
    first two took about 3 s each to parse."""
    text = f"vars: {vars}\noperator Q = [[{expr}]]\n"
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert time.perf_counter() - t0 < 1.0
    column = text.split("\n")[1].rindex(at) + 1
    assert str(exc.value) == (f"line 2, column {column}: term products bound "
                              f"{products} exceeds {dsl.MAX_TERM_PRODUCTS}")


def test_term_products_limit_is_accepted():
    """On the way to its 64th power a 32-term polynomial of degree 31 squares
    its 993-term 32nd power, 986 049 term products: within the bound.  One
    term more squares 1025 terms, past it."""
    for width, ok in ((32, True), (33, False)):
        wide = " + ".join(f"d1^{k}" for k in range(width))
        text = f"vars: d1\noperator Q = [[({wide})^64]]\n"
        if ok:
            doc = dsl.parse(text)
            assert len(doc.operators["Q"][0, 0].terms) == 31 * 64 + 1
        else:
            with pytest.raises(dsl.SpecError, match="term products bound 1050625"):
                dsl.parse(text)


@pytest.mark.parametrize("statement, column, message", [
    ("mu C 4 scalar 2", 6, "mu degree 4 outside 0..3 of C"),
    ("mu C 7 scalar mu", 6, "mu degree 7 outside 0..3 of C"),
    ("mu C 1 tensor mu", 8, "unknown mu kind 'tensor'"),
])
def test_error_mu_statement_is_located(statement, column, message):
    """Each of these used to parse: a degree above N built no weight and an
    unknown kind failed only when a command asked for the weights."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(f"vars: d1 d2 d3\nparams: mu\ncomplex C = de_rham(3)\n{statement}\n")
    assert str(exc.value) == f"line 4, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (4, column)


def test_error_mu_degree_repeated():
    """A second weight at one degree used to replace the first silently."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("vars: d1 d2\ncomplex C = de_rham(2)\ncomplex D = de_rham(2)\n"
                  "mu C 0 scalar 2\nmu D 0 scalar 3\nmu C 2 scalar 5\nmu C 0 scalar 3\n")
    assert str(exc.value) == "line 7, column 6: mu degree 0 of C already set"


def test_mu_degrees_zero_to_top_are_accepted():
    doc = dsl.parse("vars: d1 d2 d3\ncomplex C = de_rham(3)\n"
                    + "".join(f"mu C {q} scalar {q + 2}\n" for q in range(4)))
    assert [d for d, _, _ in doc.mu_specs["C"]] == [0, 1, 2, 3]
    mu = doc.mu_set("C")
    ident = mu.cplx.identity(3)
    assert mu.apply(0, 0, ident) == ident.scale(2)
    assert mu.apply(1, 3, ident) == ident.scale(5)


@pytest.mark.parametrize("text, line, column, message", [
    ("vars: d1 d1\noperator A = [[d1^2]]\n", 1, 10, "name 'd1' already declared"),
    ("vars: d1 d2\ntime: d2\n", 2, 7, "name 'd2' already declared"),
    ("vars: d1\nparams: mu d1\n", 2, 12, "name 'd1' already declared"),
    ("vars: d1\ntime: dt\nparams: dt\n", 3, 9, "name 'dt' already declared"),
    ("vars: d1 i\n", 1, 10, "'i' is the imaginary unit and cannot be declared"),
    ("vars: d1\ntime: i\n", 2, 7, "'i' is the imaginary unit and cannot be declared"),
    ("vars: d1\nparams: i\n", 2, 9, "'i' is the imaginary unit and cannot be declared"),
    ("vars: d1\noperator A = [[d1]]\noperator A = [[d1^2]]\n", 3, 10,
     "operator 'A' already declared"),
    ("vars: d1 d2\ncomplex C = de_rham(2)\ncomplex C = de_rham(1)\n", 3, 9,
     "complex 'C' already declared"),
])
def test_error_name_declared_twice_or_unusable(text, line, column, message):
    """Each of these used to parse: a repeated variable made a signature
    whose operators fail every ellipticity check, a declared ``i`` could
    never be read back, and a second operator or complex replaced the first
    silently (its ``mu`` statements keeping the old complex's degrees)."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("text, line, column, name", [
    ("vars: d1 d2\nparams: z1\n", 2, 9, "z1"),
    ("params: z2\nvars: d1 d2\n", 1, 9, "z2"),
    ("vars: d1 d2\nparams: mu z2\n", 2, 12, "z2"),
    ("vars: d1\ntime: dt\nparams: tau\n", 3, 9, "tau"),
    ("params: tau\nvars: d1\ntime: dt\n", 1, 9, "tau"),
])
def test_error_parameter_is_a_symbol_variable(text, line, column, name):
    """Each of these used to parse, and the principal symbol then held one
    variable both as z_k (or tau) and as the parameter, so ``ellipticity``
    measured the wrong form."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert str(exc.value) == (f"line {line}, column {column}: "
                              f"parameter {name!r} is also a variable of the principal symbol")


def test_params_in_any_order_give_one_signature():
    """``params: nu mu`` beside a builder complex used to fail with "cannot
    lift": the built complex went into the declared order, which no merge
    of signatures gives."""
    text = "vars: d1 d2 d3\nparams: {}\ncomplex C = de_rham(3)\nmu C 1 scalar mu*nu\n"
    doc, same = dsl.parse(text.format("nu mu")), dsl.parse(text.format("mu nu"))
    assert doc.params == ("nu", "mu") and doc.signature == same.signature
    assert doc.complexes["C"].ops == same.complexes["C"].ops
    assert dsl.print_document(doc) == text.format("nu mu")


@pytest.mark.parametrize("text", ["vars: d1 d2\nparams: z3\n", "vars: d1\nparams: tau\n",
                                  "params: z1\ntime: dt\n"])
def test_parameter_free_of_the_symbol_variables_parses(text):
    doc = dsl.parse(text)
    assert doc.signature.symbol_signature().params == doc.params


def test_operator_and_complex_may_share_a_name():
    doc = dsl.parse("vars: d1 d2\noperator C = [[d1], [d2]]\ncomplex C = ops(C)\n")
    assert doc.complexes["C"].ops == (doc.operators["C"],)


@pytest.mark.parametrize("text, line, column, head", [
    ("vars: d1 d2\noperator A = [[d1^2 + d2^2]]\nvars: d3\n", 3, 1, "vars"),
    ("vars: d1\ntime: dt\ntime: ds\n", 3, 1, "time"),
    ("params: mu\nvars: d1\n  params: nu\n", 3, 3, "params"),
    ("vars:\nvars: d1\n", 2, 1, "vars"),
])
def test_error_declaration_repeated(text, line, column, head):
    """A second ``vars``, ``time`` or ``params`` statement used to replace the
    first silently: the first case parsed to the signature ('d3',) while A
    stayed over ('d1', 'd2'), and printed only ``vars: d3``."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    assert str(exc.value) == f"line {line}, column {column}: second {head!r} statement"


# ---------------------------------------------------------------------------
# Block literals

BLOCK_HEAD = """\
vars: d1 d2 d3
time: dt
params: mu
operator grad = [[d1], [d2], [d3]]
operator div = [[d1, d2, d3]]
"""


def _ops(text: str) -> dict:
    return dsl.parse(BLOCK_HEAD + text).operators


def test_block_literal_places_blocks_and_scalar_identities():
    """A polynomial is p*I in a square block and the zero block for 0; each
    block row and column takes its size from its operators."""
    ops = _ops("operator S = [[dt - mu*(d1^2 + d2^2 + d3^2), grad], [div, 0]]\n"
               "operator F = [[dt - mu*(d1^2 + d2^2 + d3^2), 0, 0, d1], "
               "[0, dt - mu*(d1^2 + d2^2 + d3^2), 0, d2], "
               "[0, 0, dt - mu*(d1^2 + d2^2 + d3^2), d3], [d1, d2, d3, 0]]\n")
    assert ops["S"] == ops["F"] and (ops["S"].rows, ops["S"].cols) == (4, 4)


def test_block_literal_nests_negates_and_scales():
    ops = _ops("operator N = [[[[d1, d2]], 0], [0, [[dt], [mu]]]]\n"
               "operator M = -i*[[grad, -grad]]\n"
               "operator P = (1 - mu)*div\n")
    sig = ops["N"].signature
    d1, d2, d3, dt, mu = (Poly.variable(sig.vars, v) for v in ("d1", "d2", "d3", "dt", "mu"))
    zero, i = Poly.zero(sig.vars), GaussianRational.i()
    assert ops["N"].body.entries == ((d1, d2, zero), (zero, zero, dt), (zero, zero, mu))
    assert ops["M"].body.entries == tuple((d.scale(-i), d.scale(i)) for d in (d1, d2, d3))
    one = Poly.one(sig.vars)
    assert ops["P"].body.entries == (tuple(d * (one - mu) for d in (d1, d2, d3)),)


def test_flat_literals_keep_their_operator():
    """Where no block row or column holds an operator every block is 1x1, so
    a flat literal is its entry table, as before block literals."""
    doc = dsl.parse(EXAMPLE)
    sig = doc.signature
    d1, d2 = (Poly.variable(sig.vars, v) for v in ("d1", "d2"))
    assert doc.operators["B"].body == PolyMatrix(sig.vars, [[d2 ** 2, -(d1 * d2), d1 ** 2]])


def test_named_operator_lifts_onto_later_parameters():
    """A ``params`` statement lifts the operators read before it, as the
    printed document, which declares first, reads them: ``A`` used to stay
    without ``mu``, so the reparse of the printed text differed."""
    text = "vars: d1\noperator A = [[d1]]\nparams: mu\noperator B = [[A, mu]]\n"
    doc = dsl.parse(text)
    assert doc.operators["A"].signature.params == ("mu",)
    assert str(doc.operators["B"][0, 1]) == "mu"
    assert dsl.parse(dsl.print_document(doc)) == doc


def test_late_time_lifts_complexes_and_weights():
    doc = dsl.parse("vars: d1 d2\ncomplex C = de_rham(2)\nmu C 1 scalar 2*d1\n"
                    "operator A = [[d1]]\ncomplex O = ops(A)\ntime: dt\nparams: mu\n")
    sig = doc.signature
    assert sig.vars == ("d1", "d2", "dt", "mu")
    assert all(c.signature == sig for c in doc.complexes.values())
    assert doc.mu_specs["C"][0][2].vars == sig.vars
    assert doc.mu_set("C").cplx is doc.complexes["C"]
    assert dsl.parse(dsl.print_document(doc)) == doc


@pytest.mark.parametrize("name", ["flow3", "late_params3", "flow3_time"])
def test_parsing_a_spec_twice_shares_its_lifted_complex(name):
    """A builder complex under ``params`` or ``time``, declared before or
    after it, is the builder's kept lift: a second parse returns the same
    complex, with the same kept complex of symbols."""
    text = (Path(__file__).parent / "data" / f"{name}.spec").read_text()
    first, again = dsl.parse(text).complexes["C"], dsl.parse(text).complexes["C"]
    assert first.signature.params == ("mu",)
    assert again is first and again.principal_symbols() is first.principal_symbols()


@pytest.mark.parametrize("value, at, message", [
    ("[[grad, div]]", "div", "ragged block row: 1 rows where the first operator has 3"),
    ("[[grad], [div]]", "div", "ragged block column: 3 cols where the first operator has 1"),
    ("[[grad, mu]]", "mu", "polynomial in a 3x1 block: only a square block is a multiple of I"),
    ("[[div^2]]", "^", "no power of an operator"),
    ("[[grad + grad]]", "+", "no sum with an operator"),
    ("[[1 - div]]", "-", "no sum with an operator"),
    ("div*grad", "*", "no product of two operators"),
    ("d1 + d2", "d1", "an operator is a matrix literal, not a polynomial"),
    ("[[curl]]", "curl", "unknown symbol 'curl'"),
])
def test_block_literal_errors_are_located(value, at, message):
    text = BLOCK_HEAD + f"operator X = {value}\n"
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    column = text.split("\n")[5].index(at, len("operator X = ")) + 1
    assert str(exc.value) == f"line 6, column {column}: {message}"


@pytest.mark.parametrize("statement, at, message", [
    ("complex K = koszul(d1, grad)", "grad", "unknown symbol 'grad'"),
    ("mu C 1 scalar grad", "grad", "unknown symbol 'grad'"),
    ("mu C 1 scalar [[d1]]", "[", "expected a polynomial atom"),
])
def test_operators_stay_out_of_polynomial_contexts(statement, at, message):
    """Koszul generators and ``mu`` values are polynomials: an operator's
    name is unknown there, and a literal is no polynomial atom."""
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(BLOCK_HEAD + f"complex C = de_rham(3)\n{statement}\n")
    assert str(exc.value) == f"line 7, column {statement.index(at) + 1}: {message}"


def test_operator_over_other_spatial_variables_is_located():
    """An operator entered before ``vars`` could not be lifted onto them, and
    the printed document, which declares first, would read it over them: a
    ``vars`` statement after an operator or complex is refused at ``vars``."""
    for text in ("operator A = [[1]]\nvars: d1\noperator B = [[A, d1]]\n",
                 "complex K = koszul(1)\nvars: d1\n"):
        with pytest.raises(dsl.SpecError) as exc:
            dsl.parse(text)
        assert str(exc.value) == (
            "line 2, column 1: 'vars' must come before every operator and complex")


def test_block_literal_entry_limit_is_located():
    """Each line of [[A, A], [A, A]] quadruples the entries: the line that
    would pass ``MAX_MATRIX_ENTRIES`` is refused at its literal, quickly."""
    lines = ["vars: d1", "operator A0 = [[d1]]"]
    lines += [f"operator A{k} = [[A{k - 1}, A{k - 1}], [A{k - 1}, A{k - 1}]]"
              for k in range(1, 12)]
    t0 = time.perf_counter()
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse("\n".join(lines) + "\n")
    assert time.perf_counter() - t0 < 2.0
    # A6, 64 x 64 = 4096 entries, parses; A7, 128 x 128 = 16384, does not
    assert str(exc.value) == (f"line 9, column 15: 128x128 operator would pass "
                              f"{dsl.MAX_MATRIX_ENTRIES} entries")


def test_operator_scaling_checks_each_entry_product():
    """An operator times a polynomial is held to the polynomial bounds entry
    by entry, at its ``*``, before any multiply."""
    text = "vars: d1 d2\noperator A = [[d1, (d2^64)^64]]\noperator B = ((d1^64)^64)^7 * A\n"
    with pytest.raises(dsl.SpecError) as exc:
        dsl.parse(text)
    column = text.split("\n")[2].rindex("*") + 1
    assert str(exc.value) == f"line 3, column {column}: total degree 32768 exceeds {MAX_DEGREE}"
    doc = dsl.parse(text.replace("(d2^64)^64", "(d2^64)^63*d2^63"))
    assert doc.operators["B"][0, 1].total_degree() == MAX_DEGREE


# ---------------------------------------------------------------------------
# Round trip over generated specs

_POLY_ATOMS = ["0", "1", "2", "1/2", "3*i", "i", "d1", "d2^2", "mu", "(d1 - i*d2)", "d1*mu"]


def _signed_sum(terms: list[tuple[bool, str]]) -> str:
    """``a - b + c`` from ``[(False, "a"), (True, "b"), (False, "c")]``."""
    (negative, first), rest = terms[0], terms[1:]
    return ("-" if negative else "") + first + "".join(
        f" {'-' if neg else '+'} {atom}" for neg, atom in rest)


@st.composite
def _specs(draw) -> str:
    """A spec of declarations, flat and block-literal operators, builder and
    ``ops`` complexes and ``mu`` statements, over d1 d2 (and dt, mu, nu, declared first, after
    the operators, after the complexes or last).  Sometimes ``vars`` follows
    a definition that needs no variable, and the spec is to be refused."""
    lines = draw(st.sampled_from([[], [], ["operator Z = [[1, i]]"],
                                  ["complex Z = koszul(1)"]])) + ["vars: d1 d2"]
    time_var = draw(st.booleans())
    params = draw(st.sampled_from([[], ["mu"], ["nu", "mu"]]))
    declarations = (["time: dt"] if time_var else []) + (
        ["params: " + " ".join(params)] if params else [])
    # the time and parameter declarations come first, after the operators
    # (which then cannot use them), after the complexes or last
    late = draw(st.sampled_from(["", "operators", "complexes", "end"]))
    if not late:
        lines += declarations

    def sums(atoms):
        return st.lists(st.tuples(st.booleans(), st.sampled_from(atoms)),
                        min_size=1, max_size=3).map(_signed_sum)

    poly = sums([a for a in _POLY_ATOMS if "mu" not in a or params] + (["dt"] if time_var else []))
    early = sums([a for a in _POLY_ATOMS if "mu" not in a])
    op_poly = early if late else poly
    ops = {}  # name -> (rows, cols)
    for k in range(draw(st.integers(1, 4))):
        name = f"A{k}"
        if ops and draw(st.booleans()):
            # a block literal, scaled: a square operator beside a polynomial
            # times I, any other above a nested zero row
            other, (r, c) = draw(st.sampled_from(sorted(ops.items())))
            scale = draw(st.sampled_from(["", "-", "i*", "(1/2 - d1)*"]))
            if r == c:
                value, ops[name] = f"{scale}[[{other}, 0], [0, {draw(op_poly)}]]", (2 * r, 2 * c)
            else:
                zeros = ", ".join(["0"] * c)
                value, ops[name] = f"{scale}[[{other}], [[[{zeros}]]]]", (r + 1, c)
        else:
            r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            value = "[" + ", ".join("[" + ", ".join(draw(op_poly) for _ in range(c)) + "]"
                                    for _ in range(r)) + "]"
            ops[name] = (r, c)
        lines.append(f"operator {name} = {value}")
    if late == "operators":
        lines += declarations
    complexes = {"C": 2}  # name -> length
    lines.append("complex C = de_rham(2)")
    if draw(st.booleans()):
        lines.append("complex K = koszul(d1 + i*d2, d2^2)")
        complexes["K"] = 2
    lines.append(f"complex O = ops({draw(st.sampled_from(sorted(ops)))})")
    complexes["O"] = 1
    if late == "complexes":
        lines += declarations
    for cname, length in complexes.items():
        for q in draw(st.sets(st.integers(0, length))):
            lines.append(f"mu {cname} {q} scalar {draw(early if late == 'end' else poly)}")
    if late == "end":
        lines += declarations
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_printed_document_parses_back(text):
    """Printing a parsed spec and parsing it again gives the same document,
    and the printed text is a fixed point.  A ``vars`` statement after an
    operator or complex is refused, located at ``vars``."""
    lines = text.splitlines()
    at = lines.index("vars: d1 d2")
    if any(line.startswith(("operator ", "complex ")) for line in lines[:at]):
        with pytest.raises(dsl.SpecError) as exc:
            dsl.parse(text)
        assert str(exc.value) == (f"line {at + 1}, column 1: "
                                  "'vars' must come before every operator and complex")
        return
    doc = dsl.parse(text)
    printed = dsl.print_document(doc)
    again = dsl.parse(printed)
    assert again == doc
    assert dsl.print_document(again) == printed
