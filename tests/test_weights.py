"""Weights kept as structure: absent, scalar or matrix.

``MuSet`` stores a scalar weight s as its polynomial and multiplies by it
entry by entry (``MuSet.apply``).  The slow exact path is the same weight as
an explicit matrix s I, multiplied out by matrix products; every builder must
give the same matrices from both, down to the order in which each entry
stores its terms, and the same verdicts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cxkit import poly
from cxkit.blockops import (factorization_residual, maxwell, maxwell_time, stokes,
                             stokes_time, wave_factorization_residual)
from cxkit.complexes import (
    MuSet,
    check_coherence,
    de_rham_complex,
    generalized_laplacian,
    laplacian,
    perturbed_laplacian,
)
from cxkit.diffop import SPATIAL, OperatorMatrix
from cxkit.ellipticity import dn_weights_maxwell, dn_weights_stokes
from cxkit.poly import GaussianRational, Poly
from cxkit.symbols import HypothesisFailure, _check_stokes_hypotheses, _symbols

from _helpers import build, norm2, stored, weights, with_mu

# The rows swept, lifted onto mu
NAMES = ["de-rham-3", "dolbeault-2", "powered-de-rham-2-2"]


def _scalars(cplx):
    """0, 1, random fractions, the parameter mu and (-Laplace)^m."""
    sig = cplx.signature
    return st.one_of(
        st.sampled_from([Poly.zero(sig.vars), Poly.one(sig.vars),
                         Poly.variable(sig.vars, "mu")]),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).map(
            lambda f: Poly.constant(sig.vars, f)),
        st.integers(1, 2).map(lambda m: (-norm2(sig)) ** m),
    )


def _explicit(cplx, mu0: dict, mu1: dict) -> MuSet:
    """The same scalar weights as explicit matrices s I."""
    return MuSet(cplx, {q: cplx.identity(cplx.rank(q + 1)).scale(s) for q, s in mu0.items()},
                 {q: cplx.identity(cplx.rank(q - 1)).scale(s) for q, s in mu1.items()})


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, HypothesisFailure) as exc:
        return type(exc).__name__, str(exc)


def _hypotheses(cplx, q, mu):
    sym, mus = _symbols(cplx, mu)
    return _check_stokes_hypotheses(cplx, q, mu, sym, mus)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_scalar_weights_match_explicit_matrices(name, data):
    cplx = with_mu(build(name))
    n = cplx.length
    given = st.lists(st.one_of(st.none(), _scalars(cplx)), min_size=n + 1, max_size=n + 1)

    def weights() -> dict:
        return {q: s for q, s in enumerate(data.draw(given)) if s is not None}

    mu0, mu1 = weights(), weights()
    fast, slow = MuSet(cplx, mu0, mu1), _explicit(cplx, mu0, mu1)
    built = [generalized_laplacian(cplx, q, mu) for q in range(n + 1) for mu in (fast, slow)]
    built += [maxwell(cplx, n, mu, v) for v in (0, 1) for mu in (fast, slow)]
    built += [stokes(cplx, n, mu) for mu in (fast, slow)]
    built += [factorization_residual(cplx, n, mu) for mu in (fast, slow)]
    for a, b in zip(built[::2], built[1::2]):
        assert a == b
        assert stored(a) == stored(b)
    for q in range(n + 1):
        assert check_coherence(cplx, fast, q) == check_coherence(cplx, slow, q)
        assert _outcome(dn_weights_stokes, cplx, q, fast) \
            == _outcome(dn_weights_stokes, cplx, q, slow)
        assert _outcome(_hypotheses, cplx, q, fast) == _outcome(_hypotheses, cplx, q, slow)
    assert dn_weights_maxwell(cplx, fast) == dn_weights_maxwell(cplx, slow)


def test_zero_scalar_stays_a_weight():
    cplx = de_rham_complex(3)
    mu = MuSet(cplx, {1: 0}, {})
    assert not mu.trivial(1)
    b = cplx.op(0)
    assert generalized_laplacian(cplx, 1, mu) == b @ b.formal_adjoint()
    assert generalized_laplacian(cplx, 1, mu) != laplacian(cplx, 1)


def test_one_and_the_identity_are_absent():
    cplx = de_rham_complex(3)
    sig = cplx.signature
    for mu in (MuSet.scalar(cplx, 1), MuSet.scalar(cplx, Fraction(1)),
               MuSet.scalar(cplx, Poly.one(sig.vars)),
               MuSet(cplx, {q: cplx.identity(cplx.rank(q + 1)) for q in range(4)},
                     {q: cplx.identity(cplx.rank(q - 1)) for q in range(4)}),
               MuSet.laplace_powers(cplx, {1: 0}, {2: 0})):
        assert all(mu.trivial(q) for q in range(4))
        assert mu.orders(1) == (0, 0)
    # a weight on a rank-0 space is the 0x0 identity
    assert MuSet.scalar(cplx, 7, degrees=[0]).trivial(0) is False
    assert MuSet(cplx, {3: 7}, {0: 7}).trivial(3)
    assert MuSet(cplx, {3: 7}, {0: 7}).trivial(0)


def test_apply_keeps_each_form():
    cplx = with_mu(de_rham_complex(3))
    sig = cplx.signature
    muval = Poly.variable(sig.vars, "mu")
    a = cplx.op(1)
    mu = MuSet(cplx, {1: muval, 0: cplx.op(1).formal_adjoint() @ cplx.op(1)})
    assert MuSet.identity(cplx).apply(0, 1, a) is a
    assert stored(mu.apply(0, 1, a, left=True)) \
        == stored(cplx.identity(3).scale(muval) @ a)
    assert stored(mu.apply(0, 1, a.formal_adjoint())) \
        == stored(a.formal_adjoint() @ cplx.identity(3).scale(muval))
    weight = cplx.op(1).formal_adjoint() @ cplx.op(1)
    assert mu.apply(0, 0, cplx.op(0), left=True) == weight @ cplx.op(0)


def test_orders_read_the_scalar_degree():
    """``orders`` gives half orders, mtilde and mhat, as every reader uses."""
    cplx = with_mu(de_rham_complex(3))
    mu = MuSet.laplace_powers(cplx, {1: 2}, {2: 1})
    assert mu.orders(1) == (2, 0) and mu.orders(2) == (0, 1)
    assert weights(cplx, "mu").orders(1) == (0, 0)
    assert MuSet.scalar(cplx, 0).orders(1) == (0, 0)


@pytest.mark.parametrize("which", ["mu0", "mu1"])
def test_odd_weight_order_is_refused(which):
    """An odd weight order has no half order.  Flooring it made the Stokes
    plan at degree 1 of ``mu C 1 scalar d1`` s = (2, 1), t = (0, 1), whose
    DN symbol has determinant 0 (delta_{1,mu} has order 3)."""
    cplx = de_rham_complex(3)
    sig = cplx.signature
    d1 = Poly.variable(sig.vars, "d1")
    mu = MuSet(cplx, {1: d1}) if which == "mu0" else MuSet(cplx, {}, {1: d1})
    message = f"weight {which} at degree 1 has odd order 1"
    lower = cplx.identity(cplx.rank(1))
    for refused in (lambda: mu.orders(1), lambda: mu.delta_half_order(1),
                    lambda: dn_weights_stokes(cplx, 1, mu), lambda: dn_weights_maxwell(cplx, mu),
                    lambda: perturbed_laplacian(cplx, 1, mu, lower),
                    lambda: _hypotheses(cplx, 1, mu)):
        with pytest.raises(ValueError, match=message):
            refused()
    assert mu.orders(2) == (0, 0)
    assert check_coherence(cplx, mu, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_no_product_has_a_constant_one_factor(monkeypatch, n):
    """Without weights, with the default coupling and with time coefficients
    b_j = 1, no builder multiplies by an identity weight, scales by a = 1 or
    multiplies an identity by b_j dt."""
    calls = {"pairs": 0, "ones": 0}
    dot = poly._dot

    def counting(vars, pairs):
        pairs = list(pairs)
        one = Poly.one(vars)
        calls["pairs"] += len(pairs)
        calls["ones"] += sum(a == one or b == one for a, b in pairs)
        return dot(vars, pairs)

    cplx = de_rham_complex(n)  # its n = 3 basis change multiplies by ones
    monkeypatch.setattr(poly, "_dot", counting)
    for q in range(n + 1):
        stokes(cplx, q)
        laplacian(cplx, q)
        check_coherence(cplx, MuSet.identity(cplx), q)
    maxwell(cplx, n, None, 0)
    maxwell(cplx, n, None, 1)
    factorization_residual(cplx, n)
    ones = [1] * (n + 1)
    for variant in (0, 1):
        maxwell_time(cplx, n, ones, variant=variant)
    for kind in ("parabolic", "hyperbolic"):
        stokes_time(cplx, n, ones, kind=kind)
    wave_factorization_residual(cplx, n, ones)
    assert calls["pairs"] > 0
    assert calls["ones"] == 0


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.sampled_from([GaussianRational.i(), GaussianRational.of(-3),
                     GaussianRational.of(Fraction(5, 7), -2)]),
    st.builds(GaussianRational.of, st.fractions(-4, 4, max_denominator=6),
              st.fractions(-4, 4, max_denominator=6))), st.booleans())
def test_constant_weight_stores_the_product(c, left):
    """A constant scalar s scales the coefficients on either side, stored as
    each nonzero entry's product ``p * s`` (``s * p`` on the left)."""
    cplx = with_mu(de_rham_complex(3))
    s = Poly.constant(cplx.signature.vars, c)
    mu = MuSet(cplx, {1: c}, {2: c})
    a = cplx.op(1)
    for which, q, m in ((0, 1, a), (0, 1, a.formal_adjoint()), (1, 2, a)):
        want = m.body.map(lambda p: (s * p if left else p * s) if p._num else p)
        assert stored(mu.apply(which, q, m, left=left)) == stored(type(m)(m.signature, want))


_CONSTANTS = st.one_of(
    st.sampled_from([0, 1, 2, GaussianRational.i(), GaussianRational.of(Fraction(2, 3), -1)]),
    st.builds(GaussianRational.of, st.fractions(-4, 4, max_denominator=6),
              st.fractions(-4, 4, max_denominator=6)))


def _one_by_one(mu: MuSet, target, fn) -> MuSet:
    """``mu`` over ``target`` with every scalar weight s taken as the entry of
    ``fn`` of the 1x1 operator [s], a matrix m as ``fn(m)`` (reference)."""
    sig = mu.cplx.signature

    def one(w):
        return fn(OperatorMatrix.scalar(sig, w))[0, 0] if isinstance(w, Poly) else fn(w)

    return MuSet(target, {q: one(w) for q, w in mu._mu0.items()},
                 {q: one(w) for q, w in mu._mu1.items()})


def _stored_weights(mu: MuSet) -> list:
    return [sorted((q, stored(w)) for q, w in ws.items()) for ws in (mu._mu0, mu._mu1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_constant_weights_map_as_the_one_by_one_operator(name, data):
    """The symbols and the lift of a constant scalar weight are the same
    constant over the new ring, as the principal symbol and the lift of the
    1x1 operator [s] are; a parameter or a Laplace power takes that route."""
    cplx = with_mu(build(name))
    n = cplx.length
    scalar = st.one_of(_CONSTANTS, _CONSTANTS, _scalars(cplx))
    given = st.lists(st.one_of(st.none(), scalar), min_size=n + 1, max_size=n + 1)
    mu = MuSet(cplx, *({q: s for q, s in enumerate(data.draw(given)) if s is not None}
                       for _ in range(2)))
    sym, lifted = cplx.principal_symbols(), with_mu(cplx, "dt")
    assert _stored_weights(mu.principal_symbols(sym)) == _stored_weights(
        _one_by_one(mu, sym, lambda m: m.principal_symbol(SPATIAL)))
    assert _stored_weights(mu.lift(lifted)) == _stored_weights(
        _one_by_one(mu, lifted, lambda m: m.lift(lifted.signature)))


def test_only_a_non_constant_scalar_builds_a_one_by_one_operator(monkeypatch):
    cplx = with_mu(de_rham_complex(3))
    made = []
    scalar = OperatorMatrix.scalar
    monkeypatch.setattr(OperatorMatrix, "scalar",
                        staticmethod(lambda sig, p: made.append(p) or scalar(sig, p)))
    constants = MuSet(cplx, {0: 2, 1: GaussianRational.i()}, {2: 0, 3: Fraction(1, 3)})
    constants.principal_symbols(cplx.principal_symbols())
    constants.lift(with_mu(cplx, "dt"))
    assert made == []
    mu_var = Poly.variable(cplx.signature.vars, "mu")
    param = MuSet(cplx, {1: mu_var}, {2: 3})
    param.principal_symbols(cplx.principal_symbols())
    param.lift(with_mu(cplx, "dt"))
    assert made == [mu_var, mu_var]
