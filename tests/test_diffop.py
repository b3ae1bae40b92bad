"""Operator matrices: signatures, adjoints, symbols, gradings."""

import pickle
from copy import deepcopy
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cxkit.complexes import de_rham_complex

from cxkit.diffop import (
    ISOTROPIC,
    SPATIAL,
    OperatorMatrix,
    Signature,
    SymbolMatrix,
    spatial_signature,
    tensor_identity,
)
from _helpers import rationals, stored, with_mu
from cxkit.poly import GaussianRational, Poly, PolyMatrix
from cxkit.symbols import invert_symbol

SIG = spatial_signature(3)
SIG_T = Signature(SIG.spatial, "dt", ("mu",))


def _d(sig, name):
    return Poly.variable(sig.vars, name)


def _grad(sig=SIG):
    return OperatorMatrix.from_entries(
        sig, [[_d(sig, "d1")], [_d(sig, "d2")], [_d(sig, "d3")]])


# ---------------------------------------------------------------------------
# Signatures


def test_signature_gradings():
    assert SIG_T.vars == ("d1", "d2", "d3", "dt", "mu")
    assert SIG_T.derivative_vars == ("d1", "d2", "d3", "dt")
    assert SIG_T.grading_vars(SPATIAL) == ("d1", "d2", "d3")


def test_signature_merge():
    merged = SIG.merge(SIG_T)
    assert merged.vars == SIG_T.vars
    other = Signature(("d1", "d2", "d3"), None, ("nu",))
    assert SIG_T.merge(other).params == ("mu", "nu")


def test_signature_merge_conflicts_still_raise():
    with pytest.raises(ValueError, match="spatial variables differ"):
        SIG.merge(spatial_signature(2))
    with pytest.raises(ValueError, match="conflicting time variable names"):
        SIG_T.merge(SIG, Signature(SIG.spatial, "dtt"))


def test_signature_refuses_a_name_in_two_roles():
    for spatial, time, params in [(("d1", "d2"), None, ("d2",)), (("d1",), "d1", ()),
                                  (("d1",), "dt", ("mu", "dt")), (("d1", "d1"), None, ())]:
        with pytest.raises(ValueError, match="has two roles"):
            Signature(spatial, time, params)
    with pytest.raises(ValueError, match="variable 'z1' has two roles"):
        Signature(("d1", "d2"), None, ("z1",)).symbol_signature()
    with pytest.raises(ValueError, match="variable 'tau' has two roles"):
        Signature(("d1",), "dt", ("tau",)).symbol_signature()
    # no clash in the symbol's variables: z3 with two spatial ones, tau without time
    Signature(("d1", "d2"), None, ("z3",)).symbol_signature()
    Signature(("d1",), None, ("tau",)).symbol_signature()


def test_operands_with_a_name_in_two_roles_do_not_merge():
    """The sum used to be 2*dt, of order 1 with principal symbol 2*i*tau:
    the parameter dt became the time derivative dt."""
    as_param = Signature(("d1",), None, ("dt",))
    as_time = Signature(("d1",), "dt", ())
    a = OperatorMatrix.scalar(as_param, _d(as_param, "dt"))
    b = OperatorMatrix.scalar(as_time, _d(as_time, "dt"))
    with pytest.raises(ValueError, match="variable 'dt' has two roles"):
        a + b
    with pytest.raises(ValueError, match="variable 'dt' has two roles"):
        as_param.merge(as_time)


def test_signature_sorts_params_pickles_and_copies():
    sig = Signature(("d1", "d2"), "dt", ("nu", "mu"))
    assert sig.params == ("mu", "nu") and sig == Signature(("d1", "d2"), "dt", ("mu", "nu"))
    for copy in (pickle.loads(pickle.dumps(sig)), deepcopy(sig)):
        assert copy == sig and hash(copy) == hash(sig)


_SIGNATURES = st.builds(
    Signature, st.just(("d1", "d2")), st.sampled_from([None, "dt"]),
    st.lists(st.sampled_from(["a", "b", "mu"]), unique=True).map(tuple))


@settings(max_examples=100, deadline=None)
@given(st.lists(_SIGNATURES, min_size=1, max_size=4))
def test_merge_is_the_pairwise_fold_in_every_order(sigs):
    merged = sigs[0].merge(*sigs[1:])
    for order in permutations(sigs):
        assert order[0].merge(*order[1:]) == reduce(Signature.merge, order) == merged
    assert merged.params == tuple(sorted({v for s in sigs for v in s.params}))
    assert merged.time == ("dt" if any(s.time for s in sigs) else None)
    first = sigs[0]
    assert first.merge(*[Signature(first.spatial, first.time, first.params)] * len(sigs)) is first
    assert sigs[0].merge() is sigs[0]


def test_lift_onto_own_signature_is_the_same_object():
    cplx = with_mu(de_rham_complex(2))
    op = cplx.op(0)
    sym = op.principal_symbol()
    rational = invert_symbol(sym.hermitian_transpose() @ sym)
    assert op[0, 0].lift(op.signature.vars) is op[0, 0]
    for x in (op, sym, cplx):
        assert x.lift(x.signature) is x
    assert rational._lift(rational.signature) is rational


def test_as_poly_lifts_a_poly_and_makes_a_constant():
    mu = _d(SIG_T, "mu")
    assert SIG_T.as_poly(mu) is mu
    assert SIG_T.as_poly(_d(spatial_signature(3), "d1")) == _d(SIG_T, "d1")
    assert SIG_T.as_poly(2) == Poly.constant(SIG_T.vars, 2)


def test_params_do_not_count_toward_order():
    mu = _d(SIG_T, "mu")
    op = OperatorMatrix.scalar(SIG_T, mu * _d(SIG_T, "d1"))
    assert op.order() == 1
    op2 = OperatorMatrix.scalar(SIG_T, mu * _d(SIG_T, "dt"))
    assert op2.order() == 1
    assert op2.body.total_degree(SIG_T.grading_vars(SPATIAL)) == 0


# ---------------------------------------------------------------------------
# Formal adjoint


def test_adjoint_of_gradient_is_minus_divergence():
    grad = _grad()
    adj = grad.formal_adjoint()
    assert adj.rows == 1 and adj.cols == 3
    for j, name in enumerate(("d1", "d2", "d3")):
        assert adj[0, j] == -_d(SIG, name)


def test_adjoint_involution_and_antihomomorphism():
    grad = _grad()
    lap = grad.formal_adjoint() @ grad
    assert grad.formal_adjoint().formal_adjoint() == grad
    assert (grad.formal_adjoint() @ grad).formal_adjoint() == lap


def test_adjoint_conjugates_coefficients():
    i = GaussianRational.i()
    op = OperatorMatrix.scalar(SIG, _d(SIG, "d1").scale(i))
    # (i d1)* = conj(i) * (-d1) = i d1: first-order imaginary ops are self-adjoint
    assert op.formal_adjoint() == op


def test_adjoint_second_order_sign():
    op = OperatorMatrix.scalar(SIG, _d(SIG, "d1") * _d(SIG, "d2"))
    assert op.formal_adjoint() == op  # (-1)^2
    op3 = OperatorMatrix.scalar(SIG, _d(SIG, "d1") ** 3)
    assert op3.formal_adjoint() == -op3  # (-1)^3


@settings(max_examples=30)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_adjoint_antihomomorphism_property(e1, e2):
    p1 = Poly(SIG.vars, {tuple(e1): GaussianRational.one()})
    p2 = Poly(SIG.vars, {tuple(e2): GaussianRational.of(0, 1)})
    a = OperatorMatrix.scalar(SIG, p1)
    b = OperatorMatrix.scalar(SIG, p2)
    assert (a @ b).formal_adjoint() == b.formal_adjoint() @ a.formal_adjoint()


# ---------------------------------------------------------------------------
# Symbols


def test_principal_symbol_spatial_drops_lower_order():
    sig = SIG_T
    p = _d(sig, "d1") ** 2 + _d(sig, "mu") * _d(sig, "d2") + _d(sig, "dt")
    op = OperatorMatrix.scalar(sig, p)
    sym = op.principal_symbol(SPATIAL)
    # spatial principal part keeps only the top spatial-degree terms; the
    # symbol substitutes d_k -> i z_k, so d1^2 -> -z1^2
    z1 = Poly.variable(sym.signature.vars, "z1")
    assert sym[0, 0] == -(z1 * z1)


def test_total_symbol_keeps_everything():
    sig = SIG_T
    p = _d(sig, "d1") ** 2 + _d(sig, "dt")
    op = OperatorMatrix.scalar(sig, p)
    sym = op.total_symbol()
    vars = sym.signature.vars
    z1 = Poly.variable(vars, "z1")
    tau = Poly.variable(vars, "tau")
    i = Poly.constant(vars, GaussianRational.i())
    assert sym[0, 0] == -(z1 * z1) + i * tau


def test_symbol_of_composition_multiplies():
    grad = _grad()
    lap = grad.formal_adjoint() @ grad
    s1 = grad.principal_symbol(SPATIAL)
    s2 = grad.formal_adjoint().principal_symbol(SPATIAL)
    assert (s2 @ s1)[0, 0] == lap.principal_symbol(SPATIAL)[0, 0]


def test_symbol_adjoint_is_hermitian_transpose():
    grad = _grad()
    s = grad.principal_symbol(SPATIAL)
    sa = grad.formal_adjoint().principal_symbol(SPATIAL)
    assert sa == s.hermitian_transpose()


def test_symbol_matrix_algebra():
    grad = _grad()
    s = grad.principal_symbol(SPATIAL)
    ident = SymbolMatrix.identity(s.signature, 3)
    assert (ident @ s) == s
    assert (s - s).is_zero
    assert s + (-s) == s.scale(0)


# ---------------------------------------------------------------------------
# Structure helpers


def test_tensor_identity():
    op = OperatorMatrix.scalar(SIG, _d(SIG, "d1"))
    t = tensor_identity(op, 3)
    assert t.rows == 3 and t.cols == 3
    for k in range(3):
        assert t[k, k] == _d(SIG, "d1")
    assert t[0, 1].is_zero


def test_tensor_identity_layouts():
    d1, d2 = _d(SIG, "d1"), _d(SIG, "d2")
    op = OperatorMatrix.from_entries(SIG, [[d1], [d2]])
    zero = Poly.zero(SIG.vars)
    assert tensor_identity(op, 2) == OperatorMatrix.from_entries(
        SIG, [[d1, zero], [d2, zero], [zero, d1], [zero, d2]])


def test_tensor_identity_rejects_a_negative_count():
    op = OperatorMatrix.scalar(SIG, _d(SIG, "d1"))
    assert tensor_identity(op, 0).rows == 0
    with pytest.raises(ValueError, match="n >= 0, got n = -1"):
        tensor_identity(op, -1)


def test_operator_and_symbol_do_not_mix():
    grad = _grad()
    sym = grad.principal_symbol()
    with pytest.raises(TypeError):
        grad + sym
    with pytest.raises(TypeError):
        sym @ grad
    assert grad != sym


def test_symbol_scalar_part():
    sig = SIG.symbol_signature()
    z1 = Poly.variable(sig.vars, "z1")
    assert SymbolMatrix.identity(sig, 3).scale(z1).scalar_part() == z1
    assert SymbolMatrix.zero(sig, 2, 2).scalar_part() == Poly.zero(sig.vars)
    assert _grad().principal_symbol().scalar_part() is None
    off = SymbolMatrix.from_entries(sig, [[z1, z1], [Poly.zero(sig.vars), z1]])
    assert off.scalar_part() is None


def _ref_scalar_part(m: SymbolMatrix):
    """s when m == s I, compared with the identity scaled by m[0, 0] (reference)."""
    if m.rows != m.cols or m.rows == 0:
        return None
    s = m.body[0, 0]
    return s if m == SymbolMatrix.identity(m.signature, m.rows, s) else None


@st.composite
def _near_scalar(draw):
    """A rows x cols symbol matrix over z1..z3: s I, s I with one entry
    changed (an off-diagonal nonzero or an unequal diagonal entry), or any
    matrix of a few small entries; square or not, 0x0 included."""
    sig = SIG.symbol_signature()
    z = [Poly.variable(sig.vars, v) for v in sig.vars]
    entry = st.builds(lambda c, i, e: (z[i] ** e).scale(c),
                      st.sampled_from([0, 1, -1, 2]), st.integers(0, 2), st.integers(0, 2))
    rows = draw(st.integers(0, 4))
    cols = rows if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["scalar", "changed", "any"]))
    if shape == "any" or rows != cols or rows == 0:
        table = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    else:
        s = draw(entry)
        table = [[s if i == j else Poly.zero(sig.vars) for j in range(cols)] for i in range(rows)]
        if shape == "changed":
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            table[i][j] = table[i][j] + draw(entry)
    return SymbolMatrix(sig, PolyMatrix(sig.vars, table, shape=(rows, cols)))


@settings(max_examples=150, deadline=None)
@given(_near_scalar())
def test_scalar_part_matches_the_identity_comparison(m):
    got, want = m.scalar_part(), _ref_scalar_part(m)
    assert got == want
    assert (got is None) == (want is None)


def test_lift_preserves_entries():
    grad = _grad()
    lifted = grad.lift(SIG_T)
    assert lifted.signature == SIG_T
    assert lifted[0, 0] == _d(SIG_T, "d1")


def test_shape_errors():
    grad = _grad()
    with pytest.raises(ValueError):
        grad @ grad  # 3x1 times 3x1


# ---------------------------------------------------------------------------
# Adjoint and total symbol against the earlier per-term construction
#
# ``_formal_adjoint`` and ``_total_symbol`` are the earlier implementations,
# which rebuilt each entry from ``Poly.terms`` through the validating
# constructor, kept verbatim as the reference for ``Poly.twist``.


def _formal_adjoint(self) -> "OperatorMatrix":
    sig = self.signature
    deriv_idx = [sig.vars.index(v) for v in sig.derivative_vars]

    def entry_adjoint(p: Poly) -> Poly:
        out = {}
        for exp, coeff in p.terms.items():
            deg = sum(exp[i] for i in deriv_idx)
            c = coeff.conjugate()
            out[exp] = -c if deg % 2 else c
        return Poly(sig.vars, out)

    return OperatorMatrix(sig, self.body.transpose().map(entry_adjoint))


def _total_symbol(self) -> "SymbolMatrix":
    sig = self.signature
    sym_sig = sig.symbol_signature()
    deriv_idx = [sig.vars.index(v) for v in sig.derivative_vars]
    i_pow = [GaussianRational.one(), GaussianRational.i(),
             GaussianRational.of(-1), GaussianRational.of(0, -1)]

    def entry_symbol(p: Poly) -> Poly:
        out = {}
        for exp, coeff in p.terms.items():
            deg = sum(exp[i] for i in deriv_idx)
            out[exp] = coeff * i_pow[deg % 4]
        return Poly(sym_sig.vars, out)

    return SymbolMatrix.from_entries(
        sym_sig, [[entry_symbol(p) for p in row] for row in self.body.entries])


@st.composite
def operators(draw):
    sig = Signature(spatial_signature(draw(st.integers(1, 3))).spatial,
                    "dt" if draw(st.booleans()) else None,
                    ["mu", "nu"][:draw(st.integers(0, 2))])
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for _ in range(draw(st.integers(0, 5))):
                exp = tuple(draw(st.integers(0, 5)) for _ in sig.vars)
                terms[exp] = GaussianRational.of(draw(rationals), draw(rationals))
            row.append(Poly(sig.vars, terms))
        entries.append(row)
    return OperatorMatrix.from_entries(sig, entries)


@settings(max_examples=150, deadline=None)
@given(operators())
def test_adjoint_and_total_symbol_match_per_term_construction(op):
    for got, want in ((op.formal_adjoint(), _formal_adjoint(op)),
                      (op.total_symbol(), _total_symbol(op))):
        assert got == want and hash(got) == hash(want)
        for i in range(got.rows):
            for j in range(got.cols):
                assert got[i, j].vars == want[i, j].vars
                assert got[i, j] == want[i, j] and hash(got[i, j]) == hash(want[i, j])


@settings(max_examples=60, deadline=None)
@given(operators())
def test_derived_matrices_are_kept_and_equal_a_fresh_copys(op):
    """An adjoint, principal symbol or conjugate transpose is made on the
    first request and kept: a repeated one returns the same object, stored
    as a fresh copy of the matrix (or the total symbol's top part) makes it,
    and an adjoint's adjoint is the matrix itself."""
    fresh = OperatorMatrix(op.signature, op.body)
    requests = [(op.formal_adjoint, fresh.formal_adjoint)]
    for grading in (ISOTROPIC, SPATIAL):
        sym = op.principal_symbol(grading)
        fresh_sym = SymbolMatrix(sym.signature, sym.body)
        requests += [(lambda g=grading: op.principal_symbol(g),
                      lambda g=grading: op.total_symbol(op.signature.grading_vars(g))),
                     (sym.hermitian_transpose, fresh_sym.hermitian_transpose),
                     (sym.formal_adjoint, fresh_sym.formal_adjoint)]
        assert sym.formal_adjoint().hermitian_transpose() is sym
    for kept, made in requests:
        first = kept()
        assert kept() is first
        assert first == made() and stored(first) == stored(made())
    assert op.formal_adjoint().formal_adjoint() is op


def test_kept_derived_matrices_survive_pickle_and_deepcopy():
    """Copies keep equal derived matrices, each under its own grading."""
    op = OperatorMatrix.scalar(SIG_T, _d(SIG_T, "dt") ** 2 - _d(SIG_T, "d1"))
    sym = op.principal_symbol(SPATIAL)
    derived = (op.formal_adjoint(), op.principal_symbol(), sym.hermitian_transpose())
    for m in (op, sym, *derived):
        for copy in (pickle.loads(pickle.dumps(m)), deepcopy(m)):
            assert copy == m and stored(copy) == stored(m)
            assert copy.formal_adjoint() == m.formal_adjoint()
            assert copy.formal_adjoint().formal_adjoint() is copy
    for copy in (pickle.loads(pickle.dumps(op)), deepcopy(op)):
        assert copy.principal_symbol(SPATIAL) == sym
        assert copy.principal_symbol() == derived[1] != sym


def test_twist_renames_only_to_the_same_number_of_variables():
    with pytest.raises(ValueError, match="rename"):
        _d(SIG, "d1").twist(SIG.vars, 1, vars=("z1", "z2"))
    with pytest.raises(ValueError, match="rename"):
        _grad().body.twist(SIG.vars, 1, vars=("z1", "z2"))


def test_twist_keeps_the_top_degree_or_given_degrees_not_both():
    with pytest.raises(ValueError, match="not both"):
        _grad().body.twist(SIG.vars, 1, top=SIG.vars, degrees=[[1]] * 3)


def _principal_symbol(op: OperatorMatrix, grading: str) -> SymbolMatrix:
    """The earlier construction: the total symbol, then each entry's
    homogeneous part of the operator's order, entry by entry."""
    sym = op.total_symbol()
    m = op.body.total_degree(op.signature.grading_vars(grading))
    grade = [sym.signature.vars[op.signature.vars.index(v)]
             for v in op.signature.grading_vars(grading)]
    return SymbolMatrix(sym.signature, sym.body.map(
        lambda p: p.homogeneous_part(m, grade) if p.total_degree(grade) == m
        else Poly.zero(p.vars)))


@settings(max_examples=150, deadline=None)
@given(operators(), st.sampled_from([ISOTROPIC, SPATIAL]))
def test_principal_symbol_and_hermitian_transpose_store_the_same_terms(op, grading):
    """One pass over the nonzero entries stores each entry's terms as the
    entrywise construction does, in the same order, and zero entries are the
    zero of the symbol ring."""
    got = op.principal_symbol(grading)
    assert stored(got) == stored(_principal_symbol(op, grading))
    sym = op.total_symbol()
    want = sym.body.transpose().map(lambda p: p.conjugate())
    assert stored(sym.hermitian_transpose()) == stored(SymbolMatrix(sym.signature, want))
    for row in got.body.entries:
        for p in row:
            assert p.vars == got.signature.vars
