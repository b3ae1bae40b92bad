"""Symbol calculus: rational symbols, parametrices, fundamental symbols.

The symbol-level objects are the operator builders of ``complexes`` and
``blockops`` run on the complex of principal symbols.  ``_ref_delta``,
``_ref_maxwell_symbol``, ``_ref_factorization_residual`` and
``_ref_evolution_n_t`` are the earlier hand-written symbol versions, kept
verbatim (bar their names) as the reference: the builders must give the same
matrices exactly, down to the order in which each polynomial stores its
terms, since the numeric ellipticity route sums terms in that order.
"""

import hashlib
import json
import pickle
from copy import deepcopy
from pathlib import Path

import pytest

from cxkit import symbols
from cxkit.blockops import BlockPartition, block_diagonal, block_inject
from cxkit.complexes import (
    Complex,
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    koszul_complex,
    powered_de_rham_complex,
)
from cxkit.diffop import SPATIAL, OperatorMatrix, Signature, SymbolMatrix, spatial_signature
from cxkit.poly import GaussianRational, Poly
from cxkit.symbols import (
    HypothesisFailure,
    RationalSymbolMatrix,
    block_diagonal_inverse,
    delta,
    invert_symbol,
    maxwell_parametrix_symbol,
    maxwell_symbol,
    sigma,
    stokes_fundamental_symbol,
    symbolic_factorization_residual,
    verify_evolution_identity,
    verify_symbolic_factorization,
)
from cxkit.syzygy import extend_to_complex


def _weight(mu, which, q):
    """The weight mu0_q (``which`` 0) or mu1_q (``which`` 1) as a matrix:
    the identity with the weight applied."""
    k = mu.cplx.rank(q + 1 if which == 0 else q - 1)
    return mu.apply(which, q, mu.cplx.identity(k))


CPLX3 = de_rham_complex(3)


def _norm2(sig):
    total = Poly.zero(sig.vars)
    for v in sig.spatial:
        z = Poly.variable(sig.vars, v)
        total = total + z * z
    return total


# ---------------------------------------------------------------------------
# Rational symbol matrices


def test_rational_symbol_algebra():
    s = sigma(CPLX3, 0)  # symbol of grad: 3x1
    den = _norm2(s.signature)
    r = RationalSymbolMatrix(s, den)
    # r + r == 2 r (cross-multiplied equality)
    two = RationalSymbolMatrix(s.scale(2), den)
    assert r + r == two
    assert (r - r) == RationalSymbolMatrix(s.scale(0), den)


def test_rational_symbol_cross_multiplied_equality():
    s = sigma(CPLX3, 0)
    den = _norm2(s.signature)
    a = RationalSymbolMatrix(s, den)
    b = RationalSymbolMatrix(s.scale(3), den.scale(3))
    assert a == b
    assert a == RationalSymbolMatrix(s.scale(den), den * den)


def test_rational_symbol_mixed_matmul():
    s = sigma(CPLX3, 0)
    den = _norm2(s.signature)
    r = RationalSymbolMatrix(s, den)
    adj = sigma(CPLX3, 0).hermitian_transpose()
    prod = adj @ r  # SymbolMatrix @ RationalSymbolMatrix via reflected op
    assert isinstance(prod, RationalSymbolMatrix)
    # sigma* sigma = |z|^2, so the product over |z|^2 is the identity
    assert prod.is_identity()


def test_invert_symbol_roundtrip():
    lap = delta(CPLX3, 1)
    inv = invert_symbol(lap)
    assert (inv @ lap).is_identity()
    assert (lap @ inv).is_identity()


def test_invert_symbol_singular():
    s = SymbolMatrix.zero(sigma(CPLX3, 0).signature, 2, 2)
    with pytest.raises(ValueError):
        invert_symbol(s)


# ---------------------------------------------------------------------------
# delta and the Maxwell symbol


def test_delta_is_norm_squared_identity():
    for q in range(4):
        sym = delta(CPLX3, q)
        n2 = _norm2(sym.signature)
        assert sym == SymbolMatrix.identity(sym.signature,
                                            CPLX3.rank(q)).scale(n2)


def test_maxwell_symbol_matches_operator_symbol():
    from cxkit.blockops import maxwell

    op = maxwell(CPLX3, 3)
    assert maxwell_symbol(CPLX3, 3, None, 0) == op.principal_symbol(SPATIAL)


# ---------------------------------------------------------------------------
# Factorization and parametrices (exact)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_symbolic_factorization_identity_weights(q):
    rep = verify_symbolic_factorization(CPLX3, q)
    assert rep["ok"]


def test_symbolic_factorization_with_mu():
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    for q in (1, 2, 3):
        assert verify_symbolic_factorization(cplx, q, mu)["ok"]


@pytest.mark.parametrize("side", ["right", "left"])
def test_maxwell_parametrix_de_rham(side):
    f = maxwell_parametrix_symbol(CPLX3, None, side)
    assert isinstance(f, RationalSymbolMatrix)


@pytest.mark.parametrize("side", ["right", "left"])
def test_maxwell_parametrix_dolbeault(side):
    maxwell_parametrix_symbol(dolbeault_complex(2), None, side)


def test_maxwell_parametrix_scalar_mu():
    cplx = de_rham_complex(2, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    maxwell_parametrix_symbol(cplx, mu, "right")


# ---------------------------------------------------------------------------
# Stokes fundamental symbol and evolution identity


def _oseen_setup(n):
    cplx = de_rham_complex(n, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"),
                      degrees=[1])
    return cplx, mu


@pytest.mark.parametrize("degrees", [range(4), [0, 2], [3]])
def test_block_diagonal_inverse_inverts_weighted_deltas(degrees):
    # times sum_j B_j delta_{j,mu} B_j it is the identity on the blocks given
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"))
    inv = block_diagonal_inverse(cplx, degrees, mu)
    part = BlockPartition.for_degree(cplx, max(degrees))
    diag = block_diagonal(part, {j: delta(cplx, j, mu) for j in degrees})
    if len(degrees) == part.top + 1:
        assert (inv @ diag).is_identity() and (diag @ inv).is_identity()
    ident = block_diagonal(part, {j: SymbolMatrix.identity(diag.signature, part.ranks[j])
                                  for j in degrees})
    assert inv @ diag == ident
    # unweighted, it inverts the plain deltas instead
    plain = block_diagonal(part, {j: delta(cplx, j) for j in degrees})
    assert block_diagonal_inverse(cplx, degrees) @ plain == ident
    assert not inv @ plain == ident


@pytest.mark.parametrize("n", [2, 3])
def test_stokes_fundamental_symbol(n):
    cplx, mu = _oseen_setup(n)
    f, rep = stokes_fundamental_symbol(cplx, 1, mu)
    assert rep["intermediate_ok"] and rep["product_ok"] and rep["ok"]


def test_stokes_fundamental_symbol_q2(monkeypatch):
    cplx = de_rham_complex(3, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"),
                      degrees=[2])
    inverted = []
    real = symbols.invert_symbol
    monkeypatch.setattr(symbols, "invert_symbol", lambda m: inverted.append(m) or real(m))
    f, rep = stokes_fundamental_symbol(cplx, 2, mu)
    assert rep["ok"]
    # delta_{j,mu} is inverted once for each degree j <= q
    assert len(inverted) == 3
    assert len({str(m.body) for m in inverted}) == 3


@pytest.mark.parametrize("n", [2, 3])
def test_evolution_identity(n):
    cplx, mu = _oseen_setup(n)
    rep = verify_evolution_identity(cplx, 1, mu)
    assert rep["ok"]
    # denominator is i tau + mu |zeta|^2
    assert "tau" in rep["denominator"] and "mu" in rep["denominator"]


def test_stokes_hypothesis_degree_range():
    cplx, mu = _oseen_setup(3)
    with pytest.raises(HypothesisFailure):
        stokes_fundamental_symbol(cplx, 0, mu)
    with pytest.raises(HypothesisFailure):
        stokes_fundamental_symbol(cplx, 3, mu)


def test_stokes_hypothesis_nontrivial_lower_weights():
    cplx = de_rham_complex(3, params=("mu",))
    muval = Poly.variable(cplx.signature.vars, "mu")
    # weights below q must be trivial: weighting every degree violates this
    mu_all = MuSet.scalar(cplx, muval)
    with pytest.raises(HypothesisFailure):
        stokes_fundamental_symbol(cplx, 2, mu_all)


def test_hypothesis_failure_pickles_and_copies():
    """Exceptions cross process boundaries by pickle; a frozen dataclass
    exception could not be rebuilt, since ``BaseException.__setstate__``
    assigns its fields."""
    cplx, mu = _oseen_setup(3)
    with pytest.raises(HypothesisFailure) as info:
        stokes_fundamental_symbol(cplx, 0, mu)
    exc = info.value
    for copy in (pickle.loads(pickle.dumps(exc)), deepcopy(exc)):
        assert type(copy) is HypothesisFailure and copy == exc
        assert copy.args == exc.args == ("degree-range", exc.detail)
        assert (copy.condition, copy.detail) == (exc.condition, exc.detail)
        assert str(copy) == str(exc) == f"degree-range: {exc.detail}"


def test_evolution_identity_requires_scalar_delta():
    cplx = de_rham_complex(3)
    sig = cplx.signature
    diag = [[Poly.constant(sig.vars, i + 1 if i == j else 0) for j in range(3)] for i in range(3)]
    mu = MuSet(cplx, mu0={1: OperatorMatrix.from_entries(sig, diag)})
    with pytest.raises(HypothesisFailure) as info:
        verify_evolution_identity(cplx, 1, mu)
    assert info.value.condition == "scalar-delta"


@pytest.mark.parametrize("n, q", [(3, 1), (3, 2), (4, 1)])
def test_each_delta_is_built_once(monkeypatch, n, q):
    """Each Stokes routine builds delta_{j,mu} once for each j <= q (2q + 3
    and q + 3 builds before the one table), and the parametrix once per
    degree."""
    built = []
    real = symbols.generalized_laplacian
    monkeypatch.setattr(symbols, "generalized_laplacian",
                        lambda c, j, mu: built.append(j) or real(c, j, mu))
    cplx = de_rham_complex(n, params=("mu",))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"), degrees=[q])
    for routine in (stokes_fundamental_symbol, verify_evolution_identity):
        built.clear()
        routine(cplx, q, mu)
        assert built == list(range(q + 1)), routine.__name__
    built.clear()
    maxwell_parametrix_symbol(cplx, MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu")))
    assert built == list(range(n + 1))


def test_maxwell_symbol_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        maxwell_symbol(CPLX3, 3, None, 2)


# ---------------------------------------------------------------------------
# Reference: the earlier symbol-level copies of the operator builders


def _ref_sigma_mu(op: OperatorMatrix) -> SymbolMatrix:
    """Principal symbol of a weight operator."""
    return op.principal_symbol(SPATIAL)


def _ref_delta(cplx, q, mu=None):
    """delta_q = sigma_q^* sigma_q + sigma_{q-1} sigma_{q-1}^*, optionally
    weighted by the principal symbols of the mu pair at degree q."""
    sig = cplx.signature.symbol_signature()
    k = cplx.rank(q)
    total = SymbolMatrix.zero(sig, k, k)
    if q < cplx.length:
        s = sigma(cplx, q)
        if mu is None:
            total = total + s.hermitian_transpose() @ s
        else:
            total = total + s.hermitian_transpose() @ _ref_sigma_mu(_weight(mu, 0, q)) @ s
    if q > 0:
        s = sigma(cplx, q - 1)
        if mu is None:
            total = total + s @ s.hermitian_transpose()
        else:
            total = total + s @ _ref_sigma_mu(_weight(mu, 1, q)) @ s.hermitian_transpose()
    return total


def _ref_maxwell_symbol(cplx, q, mu=None, variant=0):
    """The weighted principal symbol of the Maxwell block operator."""
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    sig = cplx.signature.symbol_signature()
    total = SymbolMatrix.zero(sig, part.size, part.size)
    for j in range(q):
        s = sigma(cplx, j)
        if variant == 0:
            down = _ref_sigma_mu(_weight(mu, 0, j)) @ s
        else:
            down = s @ _ref_sigma_mu(_weight(mu, 1, j + 1))
        total = total + block_inject(part, down, j + 1, j)
        total = total + block_inject(part, s.hermitian_transpose(), j, j + 1)
    return total


def _ref_factorization_residual(cplx, q, mu=None):
    if mu is None:
        mu = MuSet.identity(cplx)
    part = BlockPartition.for_degree(cplx, q)
    lhs = _ref_maxwell_symbol(cplx, q, mu, 1) @ _ref_maxwell_symbol(cplx, q, mu, 0)
    sig = cplx.signature.symbol_signature()
    rhs = SymbolMatrix.zero(sig, part.size, part.size)
    if q > 0:
        s = sigma(cplx, q - 1)
        top = s @ _ref_sigma_mu(_weight(mu, 1, q)) @ s.hermitian_transpose()
        rhs = rhs + block_inject(part, top, q, q)
    for j in range(q):
        rhs = rhs + block_inject(part, _ref_delta(cplx, j, mu), j, j)
    return lhs - rhs


def _ref_evolution_n_t(cplx, q, mu, scalar):
    """N_t + sigma(M_{q-1}) of the evolution identity around the resolvent
    1/(i tau + scalar)."""
    sig0 = cplx.signature.symbol_signature()
    sig = Signature(sig0.spatial, "tau", sig0.params)
    part = BlockPartition.for_degree(cplx, q)
    tau = Poly.variable(sig.vars, "tau")
    i_tau = tau.scale(GaussianRational.i())
    resolvent_den = i_tau + scalar.lift(sig.vars)

    def up(sym: SymbolMatrix) -> SymbolMatrix:
        return sym.lift(sig)

    sq = up(sigma(cplx, q))
    sq1 = up(sigma(cplx, q - 1))
    mu0_sym = up(_ref_sigma_mu(_weight(mu, 0, q)))
    mu1_sym = up(_ref_sigma_mu(_weight(mu, 1, q)))

    core = RationalSymbolMatrix(sq.hermitian_transpose() @ mu0_sym @ sq, resolvent_den)
    n_t = RationalSymbolMatrix(block_inject(part, core.num, q, q), core.den)
    n_t = n_t + block_inject(part, sq1, q, q - 1)
    n_t = n_t + block_inject(part, mu1_sym @ sq1.hermitian_transpose(), q - 1, q)
    last = mu1_sym @ sq1.hermitian_transpose() @ sq1 \
        + SymbolMatrix.identity(sig, part.ranks[q - 1]).scale(i_tau)
    n_t = n_t - block_inject(part, last, q - 1, q - 1)
    for j in range(q - 1):  # sigma(M_{q-1}), unweighted
        s = up(sigma(cplx, j))
        n_t = n_t + block_inject(part, s, j + 1, j)
        n_t = n_t + block_inject(part, s.hermitian_transpose(), j, j + 1)
    return n_t


def _evolution_n_t(cplx, q, mu, scalar):
    """N_t + sigma(M_{q-1}) as ``verify_evolution_identity`` builds it:
    ``_n_symbol`` on the lifted symbol complex around I/(i tau + scalar),
    with the i tau block placed in its corner."""
    sym, mus = symbols._symbols(cplx, mu)
    sig = Signature(sym.signature.spatial, "tau", sym.signature.params)
    sym = sym.lift(sig)
    mus = mus.lift(sym)
    part = BlockPartition.for_degree(sym, q)
    i_tau = Poly.variable(sig.vars, "tau").scale(GaussianRational.i())
    resolvent = RationalSymbolMatrix(sym.identity(part.ranks[q]), i_tau + scalar.lift(sig.vars))
    return symbols._n_symbol(sym, q, mus, resolvent, i_tau)


def _symmetric_gradient_3d() -> Complex:
    """Symmetric gradient on R^3 and its resolution: orders (1, 2, 1)."""
    sig = spatial_signature(3)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    rows = []
    for i in range(3):
        for j in range(i, 3):
            row = [Poly.zero(sig.vars)] * 3
            row[i], row[j] = d[j], d[i]
            rows.append(row)
    return Complex(extend_to_complex(OperatorMatrix.from_entries(sig, rows)))


def _koszul() -> Complex:
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.spatial)
    return koszul_complex([d1 * d1, d2 + d3, d1 * d3], sig)


REFERENCE_COMPLEXES = {
    "de-rham-2": lambda: de_rham_complex(2),
    "de-rham-3": lambda: de_rham_complex(3),
    "de-rham-4": lambda: de_rham_complex(4),
    "dolbeault-2": lambda: dolbeault_complex(2),
    "powered-de-rham-3-2": lambda: powered_de_rham_complex(3, 2),
    "symmetric-gradient-3": _symmetric_gradient_3d,
    "koszul-3": _koszul,
}

WEIGHTS = {
    "none": lambda c: None,
    "scalar": lambda c: MuSet.scalar(c, GaussianRational.of(2, 1)),
    "laplace-powers": lambda c: MuSet.laplace_powers(c, mtilde={0: 1, 2: 1},
                                                     mhat={1: 1, 3: 1}),
}


def _stored_terms(m: SymbolMatrix) -> list:
    return [[list(p.terms.items()) for p in row] for row in m.body.entries]


def _assert_same(got: SymbolMatrix, ref: SymbolMatrix) -> None:
    assert got == ref
    assert _stored_terms(got) == _stored_terms(ref)


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("name", sorted(REFERENCE_COMPLEXES))
def test_builders_on_symbol_complex_match_reference(name, weights):
    cplx = REFERENCE_COMPLEXES[name]()
    mu = WEIGHTS[weights](cplx)
    for q in range(cplx.length + 1):
        _assert_same(delta(cplx, q, mu), _ref_delta(cplx, q, mu))
        for variant in (0, 1):
            _assert_same(maxwell_symbol(cplx, q, mu, variant),
                         _ref_maxwell_symbol(cplx, q, mu, variant))
        _assert_same(symbolic_factorization_residual(cplx, q, mu),
                     _ref_factorization_residual(cplx, q, mu))
    scalar = _norm2(cplx.signature.symbol_signature())
    for q in range(1, cplx.length + 1):
        n_t = _evolution_n_t(cplx, q, mu, scalar)
        ref = _ref_evolution_n_t(cplx, q, mu or MuSet.identity(cplx), scalar)
        assert n_t.num == ref.num and n_t.den == ref.den


# ---------------------------------------------------------------------------
# Pinned Stokes symbols: the fundamental symbol's printed fraction (by its
# SHA-256, the largest prints 2 MB) and the evolution report, or the error
# either raises, for scalar and Laplace-power weights at degree q.  Regenerate
# the data file with ``PYTHONPATH=src python tests/test_symbols.py`` only for
# a deliberate change of an output.

STOKES_PINNED = Path(__file__).parent / "data" / "stokes_pinned.json"
STOKES_COMPLEXES = {
    "de-rham-3": (lambda: de_rham_complex(3, params=("mu",)), (1, 2)),
    "de-rham-4": (lambda: de_rham_complex(4, params=("mu",)), (1, 2)),
    "dolbeault-2": (lambda: dolbeault_complex(2, params=("mu",)), (1,)),
}
STOKES_WEIGHTS = {
    "scalar-mu": lambda c, q: MuSet.scalar(c, Poly.variable(c.signature.vars, "mu"),
                                           degrees=[q]),
    "laplace-mhat": lambda c, q: MuSet.laplace_powers(c, mhat={q: 1}),
    "laplace-mtilde": lambda c, q: MuSet.laplace_powers(c, mtilde={q: 1}),
}
# The one case left out: the de Rham(4) q = 2 fundamental symbol with the
# Laplace-power weight takes about 15 s.
STOKES_SLOW = {("de-rham-4", 2, "laplace-mhat")}


def _stokes_cases():
    return [(name, q, weight) for name, (_, degrees) in sorted(STOKES_COMPLEXES.items())
            for q in degrees for weight in sorted(STOKES_WEIGHTS)
            if (name, q, weight) not in STOKES_SLOW]


def _outcome_json(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except (ValueError, ArithmeticError, HypothesisFailure) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _stokes_pin(name, q, weight) -> dict:
    build, _ = STOKES_COMPLEXES[name]
    c = build()
    mu = STOKES_WEIGHTS[weight](c, q)

    def fundamental():
        f, report = stokes_fundamental_symbol(c, q, mu)
        text = json.dumps(f.to_json(), sort_keys=True)
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "report": report}

    return {"fundamental": _outcome_json(fundamental),
            "evolution": _outcome_json(lambda: verify_evolution_identity(c, q, mu))}


@pytest.mark.parametrize("name, q, weight", _stokes_cases())
def test_stokes_symbols_are_pinned(name, q, weight):
    pinned = json.loads(STOKES_PINNED.read_text(encoding="utf-8"))
    assert _stokes_pin(name, q, weight) == pinned[f"{name}/q{q}/{weight}"]


if __name__ == "__main__":
    STOKES_PINNED.write_text(json.dumps(
        {f"{name}/q{q}/{weight}": _stokes_pin(name, q, weight)
         for name, q, weight in _stokes_cases()}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
