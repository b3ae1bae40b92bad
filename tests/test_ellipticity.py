"""Ellipticity certification: symbolic powers, numeric minima, weight plans."""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cxkit import blockops, dsl, ellipticity, poly, sphere
from cxkit.complexes import (
    MuSet,
    de_rham_complex,
    generalized_laplacian,
    laplacian,
)
from cxkit.diffop import OperatorMatrix, Signature, SymbolMatrix, spatial_signature
from cxkit.ellipticity import (
    DEFAULT_SEED,
    WeightPlan,
    dn_check,
    dn_symbol,
    dn_weights_maxwell,
    dn_weights_stokes,
    injectivity_check,
    petrovskii_check,
    strong_ellipticity_check,
)
from cxkit.fixtures import symmetric_gradient_complex
from _helpers import (
    COMPLEXES,
    CONSTANTS,
    build,
    cubic_elasticity,
    lame,
    mu_matrix,
    rationals,
    stored,
    with_mu,
)
from test_imports import REFERENCE_BUNDLE
from cxkit.poly import GaussianRational, Poly, PolyMatrix


# ---------------------------------------------------------------------------
# Symbolic certification


def test_laplacian_certified_symbolically():
    for q in range(4):
        cplx = de_rham_complex(3)
        rep = petrovskii_check(laplacian(cplx, q))
        assert rep.verdict == "certified-symbolic"
        assert "|zeta|^2" in (rep.certified_form or "")


def _certify_by_division(det: Poly, spatial) -> tuple[GaussianRational, int] | None:
    """The earlier certificate, kept as the reference for the one comparison:
    divide by |zeta|^2 until no spatial variable is left."""
    if det.is_zero:
        return None
    r2 = Poly.zero(det.vars)
    for v in spatial:
        z = Poly.variable(det.vars, v)
        r2 = r2 + z * z
    current, k = det, 0
    while True:
        if current.total_degree(spatial) == 0:
            return (current.constant_value(), k) if current.is_constant else None
        try:
            current = current.exact_div(r2)
        except ValueError:
            return None
        k += 1


_CERT_VARS = ("z1", "z2", "tau", "mu")


@st.composite
def _power_candidates(draw):
    """gamma * (|zeta|^2)^k, with gamma a constant (zero too) or depending
    on the parameter mu, perhaps plus one term (of odd degree, constant,
    ...), over some of z1, z2, tau."""
    spatial = draw(st.sampled_from([(), ("z1",), ("z1", "z2"), ("z1", "z2", "tau")]))
    z = {v: Poly.variable(_CERT_VARS, v) for v in _CERT_VARS}
    r2 = sum((z[v] * z[v] for v in spatial), Poly.zero(_CERT_VARS))
    c = Poly.constant(_CERT_VARS, GaussianRational.of(draw(rationals), draw(rationals)))
    gamma = draw(st.sampled_from([c, c, c * z["mu"], c + z["mu"]]))
    det = gamma * r2 ** draw(st.integers(0, 3))
    if draw(st.sampled_from([False, False, True])):
        exp = tuple(draw(st.integers(0, 2)) for _ in _CERT_VARS)
        det = det + Poly(_CERT_VARS, {exp: GaussianRational.of(draw(rationals))})
    return det, spatial


def _certify_power(det: Poly, spatial) -> tuple[GaussianRational, int] | None:
    """The one certificate on the 1x1 [det], as (gamma, k) when it has the
    one root gamma: det == gamma * (|zeta|^2)^k."""
    spectrum = ellipticity._spectrum(PolyMatrix.identity(det.vars, 1, det), spatial)
    if spectrum is None:
        return None
    (gamma,), k = spectrum
    return gamma, k


@settings(max_examples=200, deadline=None)
@given(_power_candidates())
def test_certify_power_matches_repeated_division(case):
    det, spatial = case
    assert _certify_power(det, spatial) == _certify_by_division(det, spatial)


def test_certify_power_edges():
    z1, z2 = (Poly.variable(_CERT_VARS, v) for v in ("z1", "z2"))
    r2 = z1 * z1 + z2 * z2
    three = GaussianRational.of(3)
    assert _certify_power((r2 ** 3).scale(three), ("z1", "z2")) == (three, 3)
    assert _certify_power(Poly.constant(_CERT_VARS, three), ()) == (three, 0)
    for det in (Poly.zero(_CERT_VARS), z1 * r2, r2 + z1, Poly.variable(_CERT_VARS, "mu") * r2):
        assert _certify_power(det, ("z1", "z2")) is None


def test_gradient_injectivity_certified():
    cplx = de_rham_complex(3)
    rep = injectivity_check(cplx.op(0))
    assert rep.verdict == "certified-symbolic"


def test_strong_ellipticity_sign():
    cplx = de_rham_complex(3)
    lap = laplacian(cplx, 0)
    assert strong_ellipticity_check(lap).ok          # -Delta is positive
    assert not strong_ellipticity_check(-lap).ok     # +Delta is not


@st.composite
def symbol_squares(draw):
    """A square symbol with Gaussian-rational coefficients over one to three
    spatial variables and maybe a parameter: either any such matrix, or
    p I + m - m^H, whose Hermitian part is the scalar Re(p) I."""
    sig = spatial_signature(draw(st.integers(1, 3)),
                            params=["mu"][:draw(st.integers(0, 1))]).symbol_signature()

    def poly():
        return Poly(sig.vars, {tuple(draw(st.integers(0, 2)) for _ in sig.vars):
                               GaussianRational.of(draw(rationals), draw(rationals))
                               for _ in range(draw(st.integers(0, 3)))})

    k = draw(st.integers(1, 3))
    m = SymbolMatrix.from_entries(sig, [[poly() for _ in range(k)] for _ in range(k)])
    if draw(st.booleans()):
        return m
    return SymbolMatrix.identity(sig, k, poly()) + m - m.hermitian_transpose()


@settings(max_examples=150, deadline=None)
@given(symbol_squares())
def test_hermitian_part_has_a_real_scalar_part(s):
    """The Hermitian part (s + s^H) / 2 the strong check passes to
    ``_verdict`` has real coefficients on its diagonal, so its scalar part,
    whenever it has one, and the certificate's gamma are real."""
    herm = (s + s.hermitian_transpose()).scale(GaussianRational.of(1, 0) / GaussianRational.of(2, 0))
    for i in range(herm.rows):
        assert all(not c.im for c in herm.body[i, i].terms.values())
    scalar = herm.scalar_part()
    if scalar is not None:
        assert all(not c.im for c in scalar.terms.values())


@pytest.mark.parametrize("body, error", [
    ("[[d1, d2]]", "needs a square operator"),
    ("[[0, 0], [0, 0]]", "is undefined for the zero operator"),
    ("[[d1, 0], [0, d2]]", "needs an even-order operator"),
])
def test_strong_check_argument_errors(body, error):
    """The zero operator, whose order is -1, is named as itself, not as an
    operator of odd order."""
    op = dsl.parse(f"vars: d1 d2\noperator A = {body}\n").operators["A"]
    with pytest.raises(ValueError, match=f"^strong ellipticity check {error}$"):
        strong_ellipticity_check(op)


# Every branch of the verdict route, as (check, operator literal over d1 d2).
VERDICT_CASES = {
    "zero-determinant": ("petrovskii", "[[d1, d2], [d1, d2]]"),
    "certified-determinant": ("petrovskii", "[[d1^2 + d2^2]]"),
    "certified-determinant-nonreal": ("petrovskii", "[[i*(d1^2 + d2^2)]]"),
    "numeric-determinant": ("petrovskii", "[[-d1^2 - d1*d2 - d2^2]]"),
    "injectivity-numeric-fail": ("injectivity", "[[d1], [d1]]"),
    "strong-positive": ("strong", "[[-(d1^2 + d2^2)]]"),
    "strong-negative": ("strong", "[[d1^2 + d2^2]]"),
    "strong-zero": ("strong", "[[i*(d1^2 + d2^2)]]"),
    "strong-non-scalar": ("strong", "[[-2*d1^2 - d2^2, d1*d2], [d1*d2, -d1^2 - 2*d2^2]]"),
}
DATA = Path(__file__).parent / "data"
VERDICT_PINS = DATA / "verdict_reports.json"


def _verdict_report(case: str) -> dict:
    kind, body = VERDICT_CASES[case]
    op = dsl.parse(f"vars: d1 d2\noperator A = {body}\n").operators["A"]
    check = {"petrovskii": petrovskii_check, "injectivity": injectivity_check,
             "strong": strong_ellipticity_check}[kind]
    return check(op, budget=256).to_json()


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_report_as_pinned(case):
    """The full report of each branch, captured before the four checks
    shared one route to their verdict; ``numeric-determinant``,
    ``injectivity-numeric-fail`` and ``strong-zero``, whose targets are
    quadratic forms, recaptured when those took the closed-form route, and
    ``strong-non-scalar``, whose spectrum is 1 and 2, when it was certified
    by its spectrum."""
    pinned = json.loads(VERDICT_PINS.read_text())
    assert _verdict_report(case) == pinned[case]


# ---------------------------------------------------------------------------
# Spectral certificates


def _hermitian_part(op: OperatorMatrix) -> SymbolMatrix:
    """(s + s^H) / 2 of the principal symbol s, the strong check's target."""
    s = op.principal_symbol()
    return (s + s.hermitian_transpose()).scale(Fraction(1, 2))


def _searched(herm: SymbolMatrix) -> float:
    """The sphere search's least eigenvalue of ``herm``, called directly."""
    return sphere.eigenvalue_minimum(herm.body, herm.signature.derivative_vars,
                                     herm.signature.params, seed=DEFAULT_SEED, budget=2048)[0]


def _roots(*values) -> list:
    return [GaussianRational.of(Fraction(v)) for v in values]


def _spectrum(sym: SymbolMatrix):
    """The certificate of ``sym`` over its sphere variables."""
    return ellipticity._spectrum(sym.body, sym.signature.derivative_vars)


def _annihilates(sym: SymbolMatrix, roots, k: int) -> bool:
    return ellipticity._annihilates(sym.body, sym.signature.derivative_vars, roots, k)


def test_spectral_certificate_negative_controls():
    """Lame's roots annihilate its symbol, and no corrupted root or dropped
    factor does.  Each other symbol declines: an H(e_1) off the diagonal
    (though its true spectrum would certify), an H(e_1) with a parameter,
    cubic anisotropy, and the symmetric gradient's 2-D strong check and
    3-D injectivity target, whose reports stay the pinned ones."""
    herm = _hermitian_part(lame(3, Fraction(-13, 10), Fraction(7, 5)))
    assert _spectrum(herm) == (_roots("7/5", "3/2"), 1)
    assert _annihilates(herm, _roots("7/5", "3/2"), 1)
    for roots, k in ((_roots("7/5", "8/5"), 1), (_roots("3/2", "3/2"), 1),
                     (_roots("7/5"), 1), (_roots("3/2"), 1), (_roots("7/5", "3/2"), 2)):
        assert not _annihilates(herm, roots, k), (roots, k)

    sig = spatial_signature(2)
    r2 = Poly.variable(sig.vars, "d1") ** 2 + Poly.variable(sig.vars, "d2") ** 2
    rotated = OperatorMatrix.from_entries(sig, [[r2.scale(-2), -r2], [-r2, r2.scale(-2)]])
    herm = _hermitian_part(rotated)
    assert _annihilates(herm, _roots(1, 3), 1)
    assert _spectrum(herm) is None
    rep = strong_ellipticity_check(rotated, budget=2048)
    assert rep.verdict == "numeric-pass" and abs(rep.minimum - 1.0) < 1e-9

    sig = spatial_signature(3, params=["mu"])
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    mu = Poly.variable(sig.vars, "mu")
    r2 = sum((x * x for x in d), Poly.zero(sig.vars))
    lame_mu = OperatorMatrix.from_entries(sig, [
        [-((d[i] * d[j]) * (mu + Poly.one(sig.vars)) + (mu * r2 if i == j else Poly.zero(sig.vars)))
         for j in range(3)] for i in range(3)])
    assert _spectrum(_hermitian_part(lame_mu)) is None
    rep = strong_ellipticity_check(lame_mu, budget=2048)
    assert rep.verdict == "numeric-pass" and rep.seed == DEFAULT_SEED

    assert _spectrum(_hermitian_part(
        cubic_elasticity(Fraction(3), Fraction(1, 2), Fraction(1)))) is None
    # at c11 - c12 = 2 c44 cubic symmetry is Lame's, lambda = c12, mu = c44
    assert _spectrum(_hermitian_part(
        cubic_elasticity(Fraction(5), Fraction(1), Fraction(2)))) == (_roots(2, 5), 1)

    sg = symmetric_gradient_complex()
    lap = generalized_laplacian(sg, 1, MuSet.laplace_powers(sg, mtilde={0: 1}, mhat={1: 1}))
    assert _spectrum(_hermitian_part(lap)) is None
    bundle = json.loads(REFERENCE_BUNDLE.read_text())["fixtures"][4]
    assert strong_ellipticity_check(lap).to_json() == bundle["symmetric_gradient_strong"]
    op = dsl.parse((DATA / "symgrad3.spec").read_text()).operators["E"]
    s = op.principal_symbol()
    assert _spectrum(s.hermitian_transpose() @ s) is None
    pinned = json.loads((DATA / "ellipticity_symgrad3_injectivity.json").read_text())
    assert injectivity_check(op).to_json() == pinned["report"]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), rationals, rationals)
def test_lame_spectrum_matches_the_sphere_search(n, lam, mu):
    """On Lame with rational moduli the spectral route and the sphere search
    agree: the least root is min(mu, lambda + 2 mu) and the search's minimum
    within 1e-9 max(1, |c|), and the verdicts match away from the
    thresholds; a failing check reports the least root at the axis."""
    assume(lam or mu)  # else the operator is zero
    op = lame(n, lam, mu)
    herm = _hermitian_part(op)
    lowest = min(mu, lam + 2 * mu)
    roots, k = _spectrum(herm)
    assert (roots[0], k) == (GaussianRational.of(lowest), 1)
    searched = _searched(herm)
    assert abs(searched - float(lowest)) <= 1e-9 * max(1.0, abs(float(lowest)))
    rep = strong_ellipticity_check(op)
    if not 1e-13 <= lowest <= 1e-8:
        assert rep.verdict == {"numeric-pass": "certified-symbolic",
                               "fail": "fail"}[_numeric_verdict(searched)]
    if rep.certified_form is not None:
        assert rep.seed is None
        if rep.verdict == "fail":
            assert rep.minimum == float(lowest)
            assert rep.witness == tuple(1.0 if i == 0 else 0.0 for i in range(n))


@pytest.mark.parametrize("name", ["de-rham-3", "de-rham-4", "de-rham-5"])
def test_weighted_laplacian_spectrum_matches_the_sphere_search(name):
    """delta_{q,mu} with the constant weights mu0_q = 2 and mu1_q = 3 is
    2 P_+ + 3 P_- at each interior degree: certified by the roots 2 and 3 in
    under 0.1 s, where the sphere search finds the least eigenvalue 2."""
    cplx = build(name)
    degrees = range(cplx.length + 1)
    mu = MuSet(cplx, dict.fromkeys(degrees, 2), dict.fromkeys(degrees, 3))
    for q in range(1, cplx.length):
        op = generalized_laplacian(cplx, q, mu)
        start = time.perf_counter()
        rep = strong_ellipticity_check(op)
        assert time.perf_counter() - start < 0.1, q
        assert rep.verdict == "certified-symbolic", q
        assert rep.certified_form == "spectrum (2)*(|zeta|^2)^1, (3)*(|zeta|^2)^1"
        assert abs(_searched(_hermitian_part(op)) - 2.0) <= 2e-9, q


def _certified_targets(name: str, mu: MuSet, maxwell: bool = True) -> list:
    """(label, H, sphere variables, reference) for every target on the
    complex of row ``name`` with the weights ``mu``: the 1x1 [det] of each
    top Maxwell symbol (with ``maxwell``) and each delta_{q,mu}.  The
    reference is the division certificate of the determinant, or of
    delta's scalar part (None when it has none)."""
    cplx = build(name)
    targets = []
    for variant in (0, 1) if maxwell else ():
        sym = blockops.maxwell(cplx, cplx.length, mu, variant).principal_symbol()
        det, spatial = sym.body.determinant(), sym.signature.derivative_vars
        targets.append((f"M{variant}", PolyMatrix.identity(det.vars, 1, det), spatial,
                        _certify_by_division(det, spatial)))
    for q in range(cplx.length + 1):
        delta = generalized_laplacian(cplx, q, mu).principal_symbol()
        scalar, spatial = delta.scalar_part(), delta.signature.derivative_vars
        targets.append((f"delta{q}", delta.body, spatial,
                        None if scalar is None else _certify_by_division(scalar, spatial)))
    return targets


@pytest.mark.parametrize("kind", ["rational", "gaussian"])
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_one_certificate_sweeps_the_complex_table(name, kind):
    """With a constant scalar weight, every top Maxwell determinant and
    every delta_{q,mu} of the table is certified by exactly one root, the
    division reference's gamma and k, or not at all where the reference
    fails (the powered de Rham, symmetric-gradient and Koszul rows).  de
    Rham(5)'s Maxwell determinants, 1.5 s each, are certified at the
    identity weight in ``test_poly_kernel``."""
    mu = MuSet.scalar(build(name), CONSTANTS[kind])
    for label, h, spatial, want in _certified_targets(name, mu, name != "de-rham-5"):
        got = ellipticity._spectrum(h, spatial)
        if want is None:
            assert got is None, label
        else:
            assert got == ([want[0]], want[1]), label


def _corruptions(roots: list, k: int):
    """Each root times 1 + 1/7, k - 1 and k + 1, and each root dropped."""
    scaled = GaussianRational.of(Fraction(8, 7))
    for i in range(len(roots)):
        yield roots[:i] + [roots[i] * scaled] + roots[i + 1:], k
        yield roots[:i] + roots[i + 1:], k
    yield roots, k + 1
    if k:
        yield roots, k - 1


@pytest.mark.parametrize("name", ["de-rham-3", "de-rham-4", "de-rham-5"])
def test_corrupted_certificates_are_refused(name):
    """The weights mu0_q = 2 and mu1_q = 3 give the two roots 2 and 3 at
    each interior degree and one root at the ends; with the constant weight
    3/2 every target has one root.  ``_annihilates`` accepts each found
    certificate and refuses every corruption of it: a root times 1 + 1/7,
    k - 1 or k + 1, or a root dropped."""
    cplx = build(name)
    degrees = range(cplx.length + 1)
    two = MuSet(cplx, dict.fromkeys(degrees, 2), dict.fromkeys(degrees, 3))
    targets = (_certified_targets(name, two, maxwell=False)
               + _certified_targets(name, MuSet.scalar(cplx, CONSTANTS["rational"]),
                                    maxwell=name != "de-rham-5"))
    for q, (label, h, spatial, _) in enumerate(targets[:cplx.length + 1]):
        assert ellipticity._spectrum(h, spatial) == (
            (_roots(2, 3), 1) if 0 < q < cplx.length else (_roots(3 if q else 2), 1)), label
    for label, h, spatial, _ in targets:
        roots, k = ellipticity._spectrum(h, spatial)
        assert ellipticity._annihilates(h, spatial, roots, k), label
        for bad_roots, bad_k in _corruptions(roots, k):
            assert not ellipticity._annihilates(h, spatial, bad_roots, bad_k), (label, bad_roots, bad_k)


def test_rank_deficient_fails_with_witness():
    sig = spatial_signature(2)
    d1 = Poly.variable(sig.vars, "d1")
    # det of [[d1, 0], [0, 0]] vanishes identically
    op = OperatorMatrix.from_entries(
        sig, [[d1, Poly.zero(sig.vars)], [Poly.zero(sig.vars),
                                          Poly.zero(sig.vars)]])
    rep = petrovskii_check(op)
    assert rep.verdict == "fail"
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# Numeric minima with independent oracles


def test_symmetric_gradient_minimum_against_grid_oracle():
    sg = symmetric_gradient_complex()
    rep = injectivity_check(sg.op(0))
    assert rep.verdict == "numeric-pass"
    # oracle: det sigma^H sigma = |zeta|^4 - zeta1^2 zeta2^2 on the unit
    # circle equals 1 - (cos t sin t)^2; dense grid of 10^6 points
    t = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    grid_min = float(np.min(1.0 - (np.cos(t) * np.sin(t)) ** 2))
    assert abs(grid_min - 0.75) < 1e-9
    assert abs(rep.minimum - grid_min) < 1e-6


def test_symmetric_gradient_strong_minimum_exact_eigen_oracle():
    # the weighted degree-1 Laplacian of the symmetric-gradient complex:
    # its symmetrized symbol attains eigenvalue 1/2 at zeta = (1,1)/sqrt(2),
    # where the matrix is (1/4) [[3,1,1],[1,5,1],[1,1,3]] with eigenvector
    # (1, 0, -1).  The determinant bound 3/4 is *not* the eigen minimum.
    sg = symmetric_gradient_complex()
    lap = generalized_laplacian(sg, 1, MuSet.laplace_powers(
        sg, mtilde={0: 1}, mhat={1: 1}))
    rep = strong_ellipticity_check(lap)
    assert rep.verdict == "numeric-pass"
    m = 0.25 * np.array([[3, 1, 1], [1, 5, 1], [1, 1, 3]], dtype=float)
    eig_min = float(np.linalg.eigvalsh(m)[0])
    assert abs(eig_min - 0.5) < 1e-12
    assert abs(rep.minimum - 0.5) < 1e-6


def test_numeric_reports_are_deterministic():
    sg = symmetric_gradient_complex()
    r1 = injectivity_check(sg.op(0), seed=DEFAULT_SEED)
    r2 = injectivity_check(sg.op(0), seed=DEFAULT_SEED)
    assert r1.to_json() == r2.to_json()


# ---------------------------------------------------------------------------
# Quadratic forms: the closed-form route against the sphere search


@st.composite
def quadratic_forms(draw):
    """The terms of a real quadratic form zeta^T A zeta in 1-5 sphere
    variables, with its symbol signature and A: A is definite (L L^T + I,
    either sign), semidefinite (L L^T, L with n - 1 columns) or indefinite
    (M + M^T), all integer.  With the parameter mu, part of some
    coefficients moves onto mu or mu^2, so the form at mu = 1 is A's."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["definite", "semidefinite", "indefinite"]))
    ints = st.integers(-3, 3)
    if kind == "indefinite":
        m = [[draw(ints) for _ in range(n)] for _ in range(n)]
        a = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    else:
        k = n if kind == "definite" else n - 1
        low = [[draw(ints) for _ in range(k)] for _ in range(n)]
        sign = draw(st.sampled_from([1, -1]))
        a = [[sign * (sum(low[i][t] * low[j][t] for t in range(k))
                      + (kind == "definite" and i == j)) for j in range(n)] for i in range(n)]
    sig = spatial_signature(n, params=["mu"][:draw(st.integers(0, 1))]).symbol_signature()
    terms = []
    for i in range(n):
        for j in range(i, n):
            exp = [0] * len(sig.vars)
            exp[i] += 1
            exp[j] += 1
            c = a[i][j] * (1 if i == j else 2)
            if sig.params and draw(st.booleans()):
                moved = draw(ints)
                terms.append((tuple(exp[:-1] + [draw(st.integers(1, 2))]),
                              GaussianRational.of(moved)))
                c -= moved
            terms.append((tuple(exp), GaussianRational.of(c)))
    return sig, terms, np.array(a, dtype=float)


def _numeric_verdict(minimum: float) -> str:
    return ("numeric-pass" if minimum > ellipticity.PASS_THRESHOLD
            else "fail" if minimum < ellipticity.FAIL_THRESHOLD else "inconclusive")


@settings(max_examples=40, deadline=None)
@given(quadratic_forms())
def test_quadratic_route_matches_the_sphere_search(case):
    """On every drawn form the closed-form route and the sphere search,
    called directly, agree: the same verdict away from the thresholds and
    minima within 1e-9 max(1, |lambda|), for p (the strong check) and |p|
    (Petrovskii and injectivity).  The route's argmin attains its minimum,
    and a check's report carries the route's floats and no seed or budget.
    One form stored in two term orders gives byte-identical reports."""
    sig, terms, a = case
    p = Poly(sig.vars, dict(terms))
    sphere_vars, params = sig.derivative_vars, sig.params
    assert np.array_equal(sphere._form_matrix(p, sphere_vars), a)
    searches = {True: sphere.abs_minimum(p, sphere_vars, params, seed=DEFAULT_SEED, budget=2048),
                False: sphere.eigenvalue_minimum(PolyMatrix(p.vars, [[p]]), sphere_vars,
                                                 params, seed=DEFAULT_SEED, budget=2048)}
    for absolute, (searched, _) in searches.items():
        minimum, argmin = sphere.quadratic_minimum(p, sphere_vars, absolute=absolute)
        tol = 1e-9 * max(1.0, abs(minimum))
        assert abs(searched - minimum) <= tol
        if not 1e-13 <= minimum <= 1e-8:
            assert _numeric_verdict(searched) == _numeric_verdict(minimum)
        at = p.evaluate({**dict(zip(sphere_vars, argmin)), **dict.fromkeys(params, 1.0)})
        assert abs((abs(at) if absolute else at.real) - minimum) <= tol
        assert abs(np.linalg.norm(argmin) - 1.0) <= 1e-11
    reports, forms = [], [p, Poly(sig.vars, dict(terms[::-1]))]
    assert forms[0] == forms[1]
    assert len(p.terms) < 2 or stored(forms[0]) != stored(forms[1])
    for form in forms:
        sym = SymbolMatrix.from_entries(sig, [[form]])
        reports.append([ellipticity._verdict(check, sym, hermitian=hermitian,
                                             seed=DEFAULT_SEED, budget=2048)
                        for check, hermitian in (("petrovskii", False),
                                                 ("strong-ellipticity", True))])
    assert [json.dumps(r.to_json()) for r in reports[0]] == \
        [json.dumps(r.to_json()) for r in reports[1]]
    for rep, absolute in zip(reports[0], (True, False)):
        if rep.certified_form is None and not (absolute and p.is_zero):
            assert (rep.minimum, rep.argmin) == sphere.quadratic_minimum(
                p, sphere_vars, absolute=absolute)
            assert rep.seed is None and rep.budget is None


@settings(max_examples=40, deadline=None)
@given(quadratic_forms())
def test_scalar_injectivity_squares_the_petrovskii_minimum(case):
    """A scalar operator whose symbol q is a real quadratic form: its
    injectivity check reports the square of its Petrovskii minimum, min |q|,
    at the same argmin, with no seed or budget; the determinant is still
    |q|^2's."""
    sig, terms, _ = case
    op_sig = spatial_signature(len(sig.spatial), params=sig.params)
    # the symbol of -c d_i d_j is c z_i z_j
    op = OperatorMatrix.from_entries(op_sig, [[Poly(op_sig.vars, {e: -c for e, c in terms})]])
    pet, inj = petrovskii_check(op), injectivity_check(op)
    if pet.certified_form is not None:  # q = gamma |zeta|^2, so |q|^2 certifies too
        assert inj.verdict == "certified-symbolic"
        return
    assert inj.minimum == pet.minimum ** 2
    assert (inj.argmin, inj.witness is None) == (pet.argmin, pet.witness is None)
    assert (inj.seed, inj.budget) == (None, None)
    s = op.principal_symbol()
    assert inj.determinant == str((s.hermitian_transpose() @ s).body.determinant())


# ---------------------------------------------------------------------------
# Weight plans


def test_maxwell_weights_de_rham():
    cplx = de_rham_complex(3)
    p0, p1 = dn_weights_maxwell(cplx)
    assert p0.s == (1, 1, 1, 1) and p0.t == (0, 0, 0, 0)
    assert p1.s == (1, 1, 1, 1) and p1.t == (0, 0, 0, 0)


def test_maxwell_weights_satisfy_defining_relations():
    # back-substitute the defining relations for both variants: each nonzero
    # coupling block of the Maxwell operator must be exactly homogeneous of
    # weight-degree s_p - t_r
    cplx = de_rham_complex(4)
    mu = MuSet.laplace_powers(cplx, {1: 1}, {2: 1})
    p0, p1 = dn_weights_maxwell(cplx, mu)
    n = cplx.length
    m = [cplx.op(j).order() for j in range(n)]
    mt = [max(mu_matrix(mu, 0, j).order(), 0) for j in range(n + 1)]   # order 2*mtilde
    mh = [max(mu_matrix(mu, 1, j).order(), 0) for j in range(n + 1)]
    for plan, variant in ((p0, 0), (p1, 1)):
        s, t = plan.s, plan.t
        for j in range(1, n + 1):
            deg = n - j
            down = m[deg] + (mt[deg] // 2 if variant == 0 else 0)
            up = m[deg] + (0 if variant == 0 else mh[deg] // 2)
            if variant == 0:
                assert s[j - 1] - t[j] == down
                assert s[j] - t[j - 1] == m[deg]
            else:
                assert s[j - 1] - t[j] == m[deg]
                assert s[j] - t[j - 1] == up


@pytest.mark.parametrize("mtilde, mhat, balanced", [
    ({1: 1}, {2: 1}, [0, 3, 4]),
    ({1: 1}, {1: 1, 4: 1}, [0, 1, 2, 3, 4]),
])
def test_stokes_weights_satisfy_defining_relations(mtilde, mhat, balanced):
    # back-substitute s_j - t_{j+1} = s_{j+1} - t_j = m_{q-j} at every degree
    # where the order balance m_q + mtilde_q = m_{q-1} + mhat_q holds; the
    # plan is refused exactly where it fails
    cplx = de_rham_complex(4)
    mu = MuSet.laplace_powers(cplx, mtilde, mhat)
    n = cplx.length
    m = [cplx.op(j).order() for j in range(n)]
    mt = [max(mu_matrix(mu, 0, j).order(), 0) // 2 for j in range(n + 1)]
    mh = [max(mu_matrix(mu, 1, j).order(), 0) // 2 for j in range(n + 1)]
    checked = []
    for q in range(n + 1):
        if 0 < q < n and m[q] + mt[q] != m[q - 1] + mh[q]:
            with pytest.raises(ValueError, match="order balance"):
                dn_weights_stokes(cplx, q, mu)
            continue
        plan = dn_weights_stokes(cplx, q, mu)
        s, t = plan.s, plan.t
        assert plan.size == q + 1 and plan.scheme == "stokes"
        seed = 2 * (m[q] + mt[q]) if q < n else 2 * (m[q - 1] + mh[q])
        assert s[0] - t[0] == seed
        for j in range(1, q + 1):
            assert s[j - 1] - t[j] == m[q - j]
            assert s[j] - t[j - 1] == m[q - j]
        checked.append(q)
    assert checked == balanced


def test_stokes_weights_reject_degree_outside_complex():
    cplx = de_rham_complex(3)
    for q in (-1, 4):
        with pytest.raises(ValueError, match=f"degree {q} outside 0..3"):
            dn_weights_stokes(cplx, q)


def test_maxwell_weights_cover_all_blocks():
    # with the computed plan, the weighted DN symbol keeps every entry of the
    # spatial principal symbol: no coupling is truncated away
    from cxkit.diffop import SPATIAL

    cplx = de_rham_complex(3)
    p0, _ = dn_weights_maxwell(cplx)
    op = blockops.maxwell(cplx, 3)
    part = blockops.BlockPartition.for_degree(cplx, 3)
    sym = dn_symbol(op, part, p0)
    assert sym == op.principal_symbol(SPATIAL)


def test_stokes_weights_classical():
    cplx = de_rham_complex(3)
    plan = dn_weights_stokes(cplx, 1)
    assert plan.s == (2, 1) and plan.t == (0, 1)


def test_stokes_weights_q2():
    cplx = de_rham_complex(3)
    plan = dn_weights_stokes(cplx, 2)
    assert plan.s == (2, 1, 2) and plan.t == (0, 1, 0)


def test_weight_plan_validation():
    with pytest.raises(ValueError):
        WeightPlan((1, 2), (0,), 0, "maxwell")
    with pytest.raises(ValueError):
        WeightPlan((1, -1), (0, 0), 0, "maxwell")


# ---------------------------------------------------------------------------
# DN symbols


def _classical_stokes():
    cplx = with_mu(de_rham_complex(3))
    mu = MuSet.scalar(cplx, Poly.variable(cplx.signature.vars, "mu"),
                      degrees=[1])
    op = blockops.stokes(cplx, 1, mu)
    part = blockops.BlockPartition.for_degree(cplx, 1)
    plan = dn_weights_stokes(cplx, 1, mu)
    return op, part, plan


def test_dn_symbol_classical_stokes_shape():
    op, part, plan = _classical_stokes()
    sym = dn_symbol(op, part, plan)
    vars = sym.signature.vars
    mu = Poly.variable(vars, "mu")
    n2 = sum((Poly.variable(vars, f"z{k}") ** 2 for k in (1, 2, 3)),
             Poly.zero(vars))
    # top-left block is mu |zeta|^2 I_3, bottom-right is zero
    for k in range(3):
        assert sym[k, k] == mu * n2
    assert sym[3, 3].is_zero


def test_dn_check_classical_stokes():
    op, part, plan = _classical_stokes()
    rep = dn_check(op, part, plan)
    assert rep.verdict == "numeric-pass"
    assert abs(rep.minimum - 1.0) < 1e-6


def test_dn_determinant_matches_sympy():
    # the determinant of the DN symbol agrees with sympy's (independent
    # algorithm)
    from test_poly_kernel import assert_det_matches_sympy

    op, part, plan = _classical_stokes()
    assert_det_matches_sympy(dn_symbol(op, part, plan).body)


def _entrywise_dn_symbol(op, part, plan):
    """The earlier construction: the total symbol, then each entry's
    homogeneous part of degree s_i - t_j, zero entries included."""
    total = op.total_symbol()
    sig = total.signature
    ranks = tuple(reversed(part.ranks))
    s = [w for w, k in zip(plan.s, ranks) for _ in range(k)]
    t = [w for w, k in zip(plan.t, ranks) for _ in range(k)]
    zero = Poly.zero(sig.vars)
    return SymbolMatrix.from_entries(sig, [
        [p.homogeneous_part(s[i] - t[j], sig.derivative_vars) if s[i] >= t[j] else zero
         for j, p in enumerate(row)]
        for i, row in enumerate(total.body.entries)])


def _dn_cases():
    from cxkit.complexes import dolbeault_complex

    d4 = de_rham_complex(4)
    for cplx, mu in ((de_rham_complex(3), None),
                     (d4, MuSet.laplace_powers(d4, {1: 1}, {2: 1})),
                     (dolbeault_complex(2), None)):
        n = cplx.length
        part = blockops.BlockPartition.for_degree(cplx, n)
        for variant, plan in enumerate(dn_weights_maxwell(cplx, mu)):
            yield blockops.maxwell(cplx, n, mu, variant), part, plan
            # the other variant's plan too: it leaves some blocks below zero
            yield blockops.maxwell(cplx, n, mu, 1 - variant), part, plan
        for q in range(n + 1):
            try:
                plan = dn_weights_stokes(cplx, q, mu)
            except ValueError:  # order balance fails at this degree
                continue
            part = blockops.BlockPartition.for_degree(cplx, q)
            yield blockops.stokes(cplx, q, mu), part, plan
    # every entry 1 + d1 + d2^2 + d1 d2 d3, so each block keeps one degree,
    # the constant terms included where s_i = t_j
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.spatial)
    entry = Poly.one(sig.vars) + d1 + d2 * d2 + d1 * d2 * d3
    full = OperatorMatrix.from_entries(sig, [[entry] * 4 for _ in range(4)])
    part = blockops.BlockPartition.for_degree(de_rham_complex(3), 1)
    for plan in (dn_weights_stokes(de_rham_complex(3), 1), WeightPlan((3, 0), (0, 3), 0, "stokes")):
        yield full, part, plan


def test_dn_symbol_matches_entrywise_construction_term_for_term():
    """Every fixed case, the paper's Maxwell and Stokes systems among them,
    stores each entry's terms as the entrywise construction does, in the
    same order."""
    cases = 0
    for op, part, plan in _dn_cases():
        got = dn_symbol(op, part, plan)
        want = _entrywise_dn_symbol(op, part, plan)
        assert got == want and stored(got) == stored(want)
        cases += 1
    assert cases == 24


@st.composite
def dn_cases(draw):
    """A square operator on a partition of one to three blocks, sparse
    entries of degree up to 4 in every variable, and weights that leave some
    blocks below zero."""
    sig = Signature(spatial_signature(draw(st.integers(1, 3))).spatial,
                    "dt" if draw(st.booleans()) else None, ["mu"][:draw(st.integers(0, 1))])
    ranks = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    part = blockops.BlockPartition(ranks)
    entries = [[Poly(sig.vars, {tuple(draw(st.integers(0, 4)) for _ in sig.vars):
                                GaussianRational.of(draw(rationals), draw(rationals))
                                for _ in range(draw(st.integers(0, 4)))})
                for _ in range(part.size)] for _ in range(part.size)]
    weights = st.tuples(*[st.integers(0, 4)] * len(ranks))
    plan = WeightPlan(draw(weights), draw(weights), 0, "stokes")
    return OperatorMatrix.from_entries(sig, entries), part, plan


@settings(max_examples=150, deadline=None)
@given(dn_cases())
def test_dn_symbol_stores_the_entrywise_terms(case):
    """One pass over the nonzero entries stores each entry's terms as the
    entrywise construction does, in the same order."""
    op, part, plan = case
    got = dn_symbol(op, part, plan)
    assert got.signature == op.signature.symbol_signature()
    assert stored(got) == stored(_entrywise_dn_symbol(op, part, plan))


def test_dn_symbol_locates_the_derivative_fields_once(monkeypatch):
    calls = []
    shifts = poly._shifts
    monkeypatch.setattr(poly, "_shifts", lambda *args: calls.append(args) or shifts(*args))
    cases = [_classical_stokes(), *_dn_cases()]
    for op, part, plan in cases:
        calls.clear()
        dn_symbol(op, part, plan)
        assert len(calls) == 1


@pytest.mark.parametrize("size", [3, 5])
def test_dn_symbol_rejects_operator_off_the_partition(size):
    _, part, plan = _classical_stokes()  # a partition of size 4
    other = blockops.stokes(de_rham_complex(3), 1)
    square = OperatorMatrix.identity(other.signature, size)
    for bad in (square, OperatorMatrix(other.signature, other.body.block(0, 4, 0, 3))):
        with pytest.raises(ValueError):
            dn_symbol(bad, part, plan)
