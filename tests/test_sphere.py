"""The numeric sphere search: its shared-monomial evaluation kernel against
the earlier per-entry evaluation, its Sobol, ndtri and Nelder-Mead ports
against scipy, its scramble bits against ``numpy.random`` and its
argument checks, and the boundary that keeps numpy out of exact work and
scipy, ``numpy.random`` and ``numpy.ma`` out of every command, through the
import probe of ``tests/test_imports.py``.

``_compile_poly`` and ``_compile_matrix`` are the earlier evaluation, one
numpy call chain per matrix entry, kept verbatim as the reference.  The
kernel must give the same floats bit for bit, since the numeric verdicts and
the fixture bundle are built from them.  For the same reason
``_sobol_blocks`` (joined by ``_sobol``), ``_ndtri`` and ``_polish`` must
return the floats of
``scipy.stats.qmc.Sobol``, ``scipy.special.ndtri`` and
``scipy.optimize.minimize``, which they replace; scipy's ``stats``,
``special`` and ``optimize`` are imported inside those tests only, and
``numpy.random`` inside the test of the scramble bits.
``_power_table_reference`` is the earlier power table, one ``**`` over every
exponent, kept to pin the table's numpy route.  The scan, valued block by
block, must give the bits of one kernel call over all its points, and a
kernel that holds the parameters at 1.0 the bits of appended columns of 1.0.

The search polishes its candidates as one array of simplices, valuing four
speculative candidates per run in one batched call.  ``_nelder_mead_steps``
and its runner ``_lock_step_polish`` are the earlier polish, one simplex
of Python floats per run, and ``_on_sphere_one`` the earlier
one-point polish objective, kept verbatim as the reference: each polish must
end on the floats the one-point search gives.  ``_reference_rounds`` replays
each start alone through the reference to check which rows each batched call
values.
"""

import itertools
import json
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cxkit import ellipticity, sphere
from cxkit._sobol_directions import POLY, VINIT
from cxkit.diffop import OperatorMatrix, Signature, SymbolMatrix, spatial_signature
from cxkit.ellipticity import (DEFAULT_BUDGET, DEFAULT_SEED, petrovskii_check,
                               strong_ellipticity_check)
from cxkit.poly import _MAX_VARS, GaussianRational, Poly, PolyMatrix

from _helpers import cold_start, cubic_elasticity, lame
from test_imports import REFERENCE_BUNDLE, probe

# ---------------------------------------------------------------------------
# Reference: per-entry evaluation


def _compile_poly(p: Poly, var_order: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Return a function mapping an (M, d) point array to (M,) complex values."""
    index = {v: i for i, v in enumerate(p.vars)}
    cols = [index[v] for v in var_order]
    exps = []
    coeffs = []
    for exp, coeff in p.terms.items():
        exps.append([exp[c] for c in cols])
        coeffs.append(complex(coeff))
    if not exps:
        return lambda pts: np.zeros(len(pts), dtype=complex)
    e = np.array(exps, dtype=np.int64)  # (T, d)
    c = np.array(coeffs, dtype=complex)  # (T,)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        # pts: (M, d) real; result (M,)
        monomials = np.prod(pts[:, None, :] ** e[None, :, :], axis=2)
        return monomials @ c

    return evaluate


def _compile_matrix(sym: SymbolMatrix, var_order: Sequence[str]
                    ) -> Callable[[np.ndarray], np.ndarray]:
    entry_fns = [[_compile_poly(sym.body[i, j], var_order) for j in range(sym.cols)]
                 for i in range(sym.rows)]

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = np.empty((len(pts), sym.rows, sym.cols), dtype=complex)
        for i in range(sym.rows):
            for j in range(sym.cols):
                out[:, i, j] = entry_fns[i][j](pts)
        return out

    return evaluate


# ---------------------------------------------------------------------------
# Reference: the Nelder-Mead generator and its lock-step runner


def _nelder_mead_steps(x0: np.ndarray, xatol: float, fatol: float,
                       maxiter: int):
    """The Nelder and Mead (1965) simplex search from ``x0``, with the
    coefficients 1, 2, 1/2, 1/2, as a generator: it yields the list of points
    (lists of floats) whose values it needs next, receives the list of their
    values, and returns (least value, its vertex).  It asks for the N + 1
    initial vertices at once, then for one point per reflection, expansion
    or contraction, and for the N vertices of a shrink at once.

    Every floating-point operation is the one, in the order, that scipy's
    ``minimize(method="Nelder-Mead")`` performs without bounds, callback or
    ``maxfev``, so both return the same floats.  The simplex is held as
    lists of Python floats, whose arithmetic rounds as numpy's elementwise
    float64 arithmetic does, and is ordered by ``np.argsort`` as scipy's is:
    its order of equal values differs from a stable sort's.
    """
    x0 = np.asarray(x0, dtype=float).flatten().tolist()
    N = len(x0)
    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)

    def reorder() -> None:
        ind = np.array(fsim).argsort().tolist()
        sim[:] = [sim[i] for i in ind]
        fsim[:] = [fsim[i] for i in ind]

    fsim = list((yield list(sim)))
    # Sorted twice, as scipy does: argsort is not stable, so the second sort
    # may reorder equal values.
    reorder()
    reorder()

    iterations = 1
    while iterations < maxiter:
        # ``all`` of ``<=`` is scipy's ``max(...) <= tol``: a NaN (inf - inf
        # at infinite vertices) fails both.
        best, fbest = sim[0], fsim[0]
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fbest - fv) <= fatol for fv in fsim[1:])):
            break
        # numpy's add.reduce over the rows starts from 0.0, not the first row
        # (the sums differ in the sign of a zero)
        xbar = [0.0] * N
        for x in sim[:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / N for s in xbar]
        worst = sim[-1]
        # the coefficients 1 + rho, rho with rho = 1
        xr = [2 * b - 1 * w for b, w in zip(xbar, worst)]
        fxr, = yield [xr]
        if fxr < fsim[0]:
            # expansion: 1 + rho chi, rho chi with chi = 2
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe, = yield [xe]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            doshrink = False
            if fxr < fsim[-1]:
                # outside contraction: 1 + psi rho, psi rho with psi = 1/2
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fxc, = yield [xc]
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:
                # inside contraction: 1 - psi, psi
                xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fxcc, = yield [xcc]
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                # shrink towards the best vertex, sigma = 1/2; the new
                # vertices do not depend on each other's values
                sim[1:] = [[b + 0.5 * (v - b) for b, v in zip(best, x)]
                           for x in sim[1:]]
                fsim[1:] = yield sim[1:]
        iterations += 1
        reorder()
    return np.min(fsim), np.array(sim[0])


def _lock_step_polish(objective: Callable[[np.ndarray], Sequence[float]],
                      starts: Sequence[np.ndarray], xatol: float, fatol: float,
                      maxiter: int) -> list[tuple[float, np.ndarray]]:
    """(least value, its vertex) of a Nelder-Mead search from each start.

    The searches run in lock-step: each round, the points that every search
    still running asks for are stacked into one (B, d) array and valued by
    one call of ``objective``, which returns their B values in row order."""
    runs = [_nelder_mead_steps(x0, xatol, fatol, maxiter) for x0 in starts]
    results: list = [None] * len(runs)
    asks = {k: next(run) for k, run in enumerate(runs)}
    while asks:
        values = objective(np.array([x for ask in asks.values() for x in ask]))
        at = 0
        for k, ask in list(asks.items()):
            try:
                asks[k] = runs[k].send(values[at:at + len(ask)])
            except StopIteration as done:
                results[k] = done.value
                del asks[k]
            at += len(ask)
    return results


def _row_by_row(func: Callable[[np.ndarray], float]
                ) -> Callable[[np.ndarray], np.ndarray]:
    """A batched objective that values each row by its own call of ``func``."""
    return lambda xs: np.array([func(x) for x in xs], dtype=float)



# ---------------------------------------------------------------------------
# Strategies: symbol matrices with and without time and parameter variables

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 10]))
coefficients = st.one_of(
    st.builds(GaussianRational.of, rationals, rationals),
    st.builds(GaussianRational.of, rationals),
)


@st.composite
def signatures(draw, params=None, spatial=3):
    n = draw(st.integers(1, spatial))
    time = draw(st.sampled_from([None, "tau"]))
    count = draw(st.integers(0, 2)) if params is None else params
    return Signature(tuple(f"z{j + 1}" for j in range(n)), time,
                     tuple(["a", "b"][:count]))


@st.composite
def symbol_matrices(draw, params=None, spatial=3):
    sig = draw(signatures(params, spatial))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = {}
            for _ in range(draw(st.integers(0, 5))):
                exp = tuple(draw(st.integers(0, 3)) for _ in sig.vars)
                terms[exp] = draw(coefficients)
            row.append(Poly(sig.vars, terms))
        entries.append(row)
    return SymbolMatrix(sig, PolyMatrix(sig.vars, entries))


def var_order(sym: SymbolMatrix) -> list[str]:
    """Sphere variables, then parameters: the order the checks use."""
    sig = sym.signature
    return list(sig.derivative_vars) + list(sig.params)


def batch(dim: int, size: int, seed: int) -> np.ndarray:
    """Scan points, built afresh, outside the search's memo."""
    return sphere._sphere_points.__wrapped__(dim, size, seed)


def assert_same(sym: SymbolMatrix, pts: np.ndarray) -> None:
    order = var_order(sym)
    want = _compile_matrix(sym, order)(pts)
    got = sphere.compile_matrix(sym.body, order)(pts)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Kernel: bit identity with the per-entry evaluation


@settings(max_examples=150, deadline=None)
@given(symbol_matrices(), st.integers(0, 2**31 - 1))
def test_kernel_matches_per_entry_at_one_point(sym, seed):
    pts = batch(len(var_order(sym)), 1, seed)
    assert_same(sym, pts)


@pytest.mark.parametrize("params", [0, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_entry_on_sobol_batch(params, data):
    sym = data.draw(symbol_matrices(params))
    assert_same(sym, batch(len(var_order(sym)), 20_000, data.draw(st.integers(0, 999))))


@settings(max_examples=60, deadline=None)
@given(symbol_matrices(), st.integers(0, 999))
def test_scalar_kernel_matches_per_entry_poly(sym, seed):
    """A determinant is evaluated as a 1x1 matrix."""
    p = sym.body[0, 0]
    order = var_order(sym)
    pts = batch(len(order), 2_000, seed)
    got = sphere.compile_matrix(PolyMatrix(p.vars, [[p]]), order)(pts)[:, 0, 0]
    assert np.array_equal(got, _compile_poly(p, order)(pts))


def test_kernel_shares_exponent_rows():
    """Entries with common monomials keep their own term order and values;
    equal entries are valued once, and an entry with the same monomials but
    other coefficients is not taken for them."""
    sig = spatial_signature(2)
    d1, d2 = (Poly.variable(sig.vars, v) for v in sig.vars)
    a = d1 * d1 + d2 * d2
    b = d2 * d2 - d1 * d2 + d1 * d1
    zero = Poly.zero(sig.vars)
    sym = SymbolMatrix(sig, PolyMatrix(sig.vars, [[a, b, a + a], [b, zero, a]]))
    pts = batch(2, 512, 7)
    assert_same(sym, pts)
    got = sphere.compile_matrix(sym.body, sig.vars)(pts)
    assert np.all(got[:, 1, 1] == 0)
    assert np.array_equal(got[:, 0, 1], got[:, 1, 0])
    assert np.array_equal(got[:, 0, 2], 2 * got[:, 0, 0])


def _power_table_reference(pts: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """The earlier power table: every exponent, 0 and 1 included, through
    one ``**`` whose int64 exponent axis is the inner loop."""
    return pts[:, :, None] ** pw


def test_power_table_keeps_the_pow_route():
    """The table takes x ** 0 and x ** 1 without ``**`` and the higher
    exponents through numpy's general float64 ``power`` route, as the earlier
    table did, for every set of exponents of a form of degree up to 6 (a
    single exponent of 2 or more included, where a repeated exponent would
    take the route on which x ** 2 is x * x): the same bytes on Sobol blocks,
    on the search's blocks with parameter columns at 1.0, and on one-row
    batches of the polish.  A numpy whose routes change fails here."""
    blocks = []
    for dim in (2, 3, 4):
        pts = batch(dim, 4096, 5)
        blocks += [pts[:2048], np.hstack([pts[2048:], np.ones((2048, 2))])]
        blocks += [row[None, :] for row in _unit_rows(dim, 64, dim)]
    for r in range(6):
        for high in itertools.combinations(range(2, 7), r):
            pw = np.array([0, 1, *high], dtype=np.int64)
            for pts in blocks:
                got = sphere._power_table(pts, np.array(high, dtype=float))
                want = _power_table_reference(pts, pw)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), high


@st.composite
def power_layouts(draw):
    """Symbol matrices in the layouts where a power table could fall onto
    numpy's other float64 ``power`` route (an exponent that repeats along the
    inner loop): one sphere variable plus parameters, single-term entries,
    entries using only the exponents 0 and 1, exponents up to 8, and one
    exponent throughout, whose table would have a single slot without 0
    and 1."""
    n = draw(st.sampled_from([1, 1, 2, 3]))
    params = draw(st.integers(1 if n == 1 else 0, 2))
    sig = Signature(tuple(f"z{j + 1}" for j in range(n)), None, ("a", "b")[:params])
    top = draw(st.sampled_from([1, 2, 8, None]))
    same = draw(st.sampled_from([2, 3, 8]))
    size = draw(st.sampled_from([1, 1, 3]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def exponent():
        if top is None:
            return (same,) * len(sig.vars)
        return tuple(draw(st.integers(0, top)) for _ in sig.vars)

    entries = [[Poly(sig.vars, {exponent(): draw(coefficients) for _ in range(size)})
                for _ in range(cols)] for _ in range(rows)]
    return SymbolMatrix(sig, PolyMatrix(sig.vars, entries))


@settings(max_examples=150, deadline=None)
@given(power_layouts(), st.integers(0, 999), st.booleans())
def test_kernel_matches_per_entry_in_power_route_layouts(sym, seed, search):
    """On Sobol points of every variable, or on the search's points: sphere
    points with the parameters held at 1.0."""
    sig = sym.signature
    if search:
        pts = batch(len(sig.derivative_vars), 2_000, seed)
        pts = np.hstack([pts, np.ones((len(pts), len(sig.params)))])
    else:
        pts = batch(len(var_order(sym)), 2_000, seed)
    assert_same(sym, pts)
    p = sym.body[0, 0]
    got = sphere.compile_matrix(PolyMatrix(p.vars, [[p]]), var_order(sym))(pts)
    assert np.array_equal(got[:, 0, 0], _compile_poly(p, var_order(sym))(pts))


@st.composite
def scan_symbols(draw):
    """Symbol matrices in 1 to 5 sphere variables, with up to two parameters,
    whose terms have degree up to 12."""
    n = draw(st.integers(1, 5))
    sig = Signature(tuple(f"z{j + 1}" for j in range(n)), None,
                    ("a", "b")[:draw(st.integers(0, 2))])
    rows = cols = draw(st.integers(1, 3))

    def term():
        exp = [0] * len(sig.vars)
        for _ in range(draw(st.integers(0, 12))):
            exp[draw(st.integers(0, len(sig.vars) - 1))] += 1
        return tuple(exp)

    entries = [[Poly(sig.vars, {term(): draw(coefficients)
                                for _ in range(draw(st.integers(0, 4)))})
                for _ in range(cols)] for _ in range(rows)]
    return SymbolMatrix(sig, PolyMatrix(sig.vars, entries))


@pytest.mark.parametrize("rows", [1, 2, 2047, 2048, 2049, 4097, 20_000])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_blocked_scan_matches_one_call(rows, data):
    """The scan values ``_SCAN_BLOCK`` rows per call, each block raising its
    own powers; every row keeps the bits of one call over all the rows, for
    the kernel's complex values and for the least eigenvalue the search
    minimizes, on symbols over every variable and on ``scan_symbols`` with
    the parameters held at 1.0.  At 2049 and 4097 rows a one-row last block
    would sum its row as a dot product, not as a row of a matrix-vector
    product."""
    assert sphere._SCAN_BLOCK == 2048
    held = data.draw(st.booleans())
    sym = data.draw(scan_symbols() if held else symbol_matrices(spatial=4))
    sig = sym.signature
    order, params = (sig.derivative_vars, sig.params) if held else (var_order(sym), ())
    pts = _unit_rows(len(order), rows, data.draw(st.integers(0, 999)))
    kernel = sphere.compile_matrix(sym.body, order, params)
    want = kernel(pts)
    got = sphere._scan(kernel, pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    fn = _values(sym, held=held)
    assert sphere._scan(fn, pts).tobytes() == fn(pts).tobytes()


def test_sphere_points_are_memoized_read_only():
    fresh = sphere._sphere_points.__wrapped__(3, 20_000, DEFAULT_SEED)
    pts = sphere._sphere_points(3, 20_000, DEFAULT_SEED)
    assert sphere._sphere_points(3, 20_000, DEFAULT_SEED) is pts
    assert pts.shape == fresh.shape and pts.tobytes() == fresh.tobytes()
    assert sphere._sphere_points.cache_info().maxsize == sphere._POINTS_CACHED
    for points in (pts, fresh, sphere._sphere_points(1, 20_000, DEFAULT_SEED)):
        assert not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            points[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            points *= 2.0
    assert pts.tobytes() == fresh.tobytes()


def test_one_to_every_power_is_one():
    """A held parameter's table columns are 1.0 at every exponent, the float
    an appended column of 1.0 gets through ``**`` on the full-array route:
    1.0 ** e is 1.0 for e = 2 to 39, the exponents of a degree up to 39."""
    ones = np.ones((2048, 3))
    high = np.arange(2, 40, dtype=float)
    pw = np.array([0, 1, *range(2, 40)], dtype=np.int64)
    assert (_power_table_reference(ones, pw) == 1.0).all()
    assert (sphere._power_table(ones, high) == 1.0).all()
    for e in range(2, 40):
        assert (sphere._raise(ones, e) == 1.0).all()
    table = sphere._power_table(batch(2, 64, 3), high, params=3)
    assert table.shape == (64, 5, 40) and (table[:, 2:] == 1.0).all()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_held_parameters_match_appended_ones(data):
    """The kernel that holds the parameters at 1.0 gives the floats the
    kernel over every variable gives with columns of 1.0 appended, in the
    scan's layout and in the polish's."""
    sym = data.draw(symbol_matrices(params=data.draw(st.integers(1, 2))))
    sig = sym.signature
    pts = _unit_rows(len(sig.derivative_vars), data.draw(st.sampled_from([1, 5, 300])),
                     data.draw(st.integers(0, 999)))
    held = sphere.compile_matrix(sym.body, sig.derivative_vars, sig.params)
    every = sphere.compile_matrix(sym.body, var_order(sym))
    ones = np.hstack([pts, np.ones((len(pts), len(sig.params)))])
    for per_point in (False, True):
        assert (held(pts, _per_point=per_point).tobytes()
                == every(ones, _per_point=per_point).tobytes())


def _quadratic3() -> OperatorMatrix:
    """A positive definite quadratic in three variables that no certificate
    covers, so its checks take the closed-form route."""
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.vars)
    form = (d1 * d1).scale(GaussianRational.of(3)) + (d1 * d2).scale(GaussianRational.of(2)) \
        + (d2 * d2).scale(GaussianRational.of(2)) + (d2 * d3).scale(GaussianRational.of(2)) \
        + (d3 * d3).scale(GaussianRational.of(4))
    return OperatorMatrix.from_entries(sig, [[-form]])


def _scanned3(c11: Fraction = Fraction(2), c12: Fraction = Fraction(1),
              c44: Fraction = Fraction(1)) -> OperatorMatrix:
    """A cubic-anisotropic elasticity operator (c11 - c12 != 2 c44): its
    strong check's symbol is a matrix with the exponents 0 to 2 that no
    certificate or closed form covers, the spectral one included, so the
    check scans."""
    assert c11 - c12 != 2 * c44
    op = cubic_elasticity(c11, c12, c44)
    sym = op.principal_symbol()
    assert ellipticity._spectrum(sym.body, sym.signature.derivative_vars) is None
    return op


def test_quadratic_check_builds_no_scan_points(monkeypatch):
    """A quadratic form's checks take the eigenvalues of its matrix: no
    check builds a scan point, and no report carries a seed or budget."""
    cold_start()
    points = sphere._sphere_points

    def scanned(*key):
        raise AssertionError(f"scan points built for {key}")

    monkeypatch.setattr(sphere, "_sphere_points", scanned)
    for check in (petrovskii_check, strong_ellipticity_check):
        rep = check(_quadratic3())
        assert rep.verdict == "numeric-pass" and (rep.seed, rep.budget) == (None, None)
    assert points.cache_info().currsize == 0


def test_second_check_raises_no_scan_coordinate(monkeypatch):
    """Each check in three variables at the default seed and budget passes
    its 60 000 scan coordinates to ``**`` once, for its one exponent: the
    scan keeps its points, not their powers.  A second check of that
    dimension builds no points, and raises its own coordinates again.  The
    polish, which raises its own points, is stubbed out."""
    cold_start()
    raised = []
    power = np.power

    def counted(x, y, *args, **kwargs):
        raised.append(np.broadcast(x, y).size)
        return power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "power", counted)
    monkeypatch.setattr(sphere, "_polish", lambda *args, **kwargs: [])
    assert strong_ellipticity_check(_scanned3()).verdict == "numeric-pass"
    assert sum(raised) == DEFAULT_BUDGET * 3
    built = sphere._sphere_points.cache_info()
    assert (built.misses, built.hits) == (1, 0)
    raised.clear()
    rep = strong_ellipticity_check(_scanned3(Fraction(3), Fraction(1, 2), Fraction(1)))
    assert rep.verdict == "numeric-pass"
    assert sum(raised) == DEFAULT_BUDGET * 3
    built = sphere._sphere_points.cache_info()
    assert (built.misses, built.hits) == (1, 1)


def test_checks_at_other_seeds_and_budgets_read_their_own_columns():
    """Each (seed, budget) keeps its own points, and a check run after
    others reports what it reports with a cold memo."""
    runs = [(DEFAULT_SEED, DEFAULT_BUDGET), (7, DEFAULT_BUDGET), (DEFAULT_SEED, 4097)]
    cold = {}
    for seed, budget in runs:
        cold_start()
        cold[seed, budget] = strong_ellipticity_check(_scanned3(), seed=seed, budget=budget)
    cold_start()
    for seed, budget in runs + runs[::-1]:
        rep = strong_ellipticity_check(_scanned3(), seed=seed, budget=budget)
        assert (rep.minimum, rep.argmin) == (cold[seed, budget].minimum,
                                             cold[seed, budget].argmin)
    kept = [sphere._sphere_points(3, budget, seed) for seed, budget in runs]
    assert len({id(pts) for pts in kept}) == len(runs)
    assert sphere._sphere_points.cache_info().misses == len(runs)
    for (seed, budget), pts in zip(runs, kept):
        fresh = sphere._sphere_points.__wrapped__(3, budget, seed)
        assert pts.tobytes() == fresh.tobytes()


# ---------------------------------------------------------------------------
# Sobol, ndtri and Nelder-Mead: bit identity with scipy


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The (n, dim) points of ``sphere._sobol_blocks`` in one array."""
    blocks = sphere._sobol_blocks(dim, n, seed)  # checks n before it is allocated
    out = np.empty((n, dim))
    for a, block in blocks:
        out[a:a + len(block)] = block
    return out


@pytest.mark.parametrize("dim", [*range(1, 9), 40])
def test_sobol_matches_scipy(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in (0, 1, DEFAULT_SEED, 2**31 - 1):
        for n in (1, 2, 3, 17, 20_000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # n not a power of two
                want = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
            got = _sobol(dim, n, seed)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (dim, seed, n)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 255])
def test_scramble_bits_match_numpy_random(dim):
    """The shift and LMS bits are the draws ``_sobol`` used to take from
    ``np.random.default_rng(seed)``: (dim, 30) and then (dim, 30, 30)
    ``integers(0, 2, dtype=np.uint32)`` from one generator.  Seeds of one,
    two, three and five 32-bit words."""
    import numpy.random

    for seed in (0, 1, DEFAULT_SEED, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7):
        rng = numpy.random.default_rng(seed)
        shift = rng.integers(0, 2, size=(dim, 30), dtype=np.uint32)
        ltm = rng.integers(0, 2, size=(dim, 30, 30), dtype=np.uint32)
        want = np.concatenate([shift.ravel(), ltm.ravel()]).tolist()
        assert sphere._scramble_bits(seed, dim * 930) == want, seed


def test_direction_table_structure():
    """Without scipy: one row per dimension a ring can have, each primitive
    polynomial of degree m (leading and constant bits set) with m initial
    direction numbers, the k-th odd and below 2^k."""
    assert len(POLY) == len(VINIT) == _MAX_VARS == 255
    assert POLY[0] == 1 and VINIT[0] == ()
    for p, row in zip(POLY, VINIT):
        assert len(row) == p.bit_length() - 1
        assert p & 1 and all(v & 1 and v < 2 ** k for k, v in enumerate(row, start=1))


def test_direction_numbers_match_scipy():
    """The bundled rows are the first 255 of the table scipy ships, bit for
    bit.  Regenerate them with::

        with np.load(path) as t:  # scipy/stats/_sobol_direction_numbers.npz
            POLY = tuple(int(p) for p in t["poly"][:255])
            VINIT = tuple(tuple(int(v) for v in t["vinit"][d, :p.bit_length() - 1])
                          for d, p in enumerate(POLY))

    and store them in ``cxkit/_sobol_directions.py`` by the recipe in its
    docstring."""
    scipy = pytest.importorskip("scipy")
    path = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    rows = len(POLY)
    assert rows == len(VINIT) == _MAX_VARS
    assert POLY == tuple(int(p) for p in poly[:rows])
    for d, p in enumerate(POLY):
        m = p.bit_length() - 1
        assert VINIT[d] == tuple(int(v) for v in vinit[d, :m]), d


LOW, HIGH = 1e-12, 1 - 1e-12  # the clip of the Sobol scan


def test_ndtri_matches_scipy():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    tails = 10.0 ** rng.uniform(-12, np.log10(np.exp(-2.0)), 100_000)
    inputs = [
        np.clip(rng.random(200_000), LOW, HIGH),
        np.clip(tails, LOW, HIGH),       # the lower tail branch
        np.clip(1 - tails, LOW, HIGH),   # the flipped upper tail
        # the clip bounds, the centre and both branch points
        np.array([LOW, HIGH, 0.5, np.exp(-2.0), 1 - np.exp(-2.0),
                  np.nextafter(np.exp(-2.0), 0), np.nextafter(np.exp(-2.0), 1)]),
    ]
    for u in inputs:
        got = sphere._ndtri(u)
        assert got.dtype == np.float64 and np.array_equal(got, special.ndtri(u))


@pytest.mark.parametrize("dim", range(1, 9))
def test_ndtri_matches_scipy_on_sobol_scan(dim):
    special = pytest.importorskip("scipy.special")
    for seed in (0, DEFAULT_SEED):
        u = np.clip(_sobol(dim, 20_000, seed), LOW, HIGH)
        got = sphere._ndtri(u)
        assert got.shape == u.shape and np.array_equal(got, special.ndtri(u))


def _values(sym: SymbolMatrix, held: bool = False) -> Callable[..., np.ndarray]:
    """The function the search minimizes for ``sym``: |entry (0, 0)| for a
    1x1 matrix, else the least eigenvalue of the Hermitian part of its
    leading square block.  Its points have a column per variable, or with
    ``held`` a column per sphere variable, the parameters held at 1.0 as the
    search holds them."""
    order = var_order(sym)
    n = min(sym.rows, sym.cols)
    body = sym.body if sym.rows == sym.cols else sym.body.block(0, n, 0, n)
    sig = sym.signature
    values = (sphere.compile_matrix(body, sig.derivative_vars, sig.params) if held
              else sphere.compile_matrix(body, order))
    if n == 1:
        return lambda pts, **layout: np.abs(values(pts, **layout)[:, 0, 0])

    def fn(pts, **layout):
        mats = values(pts, **layout)
        mats = (mats + np.conj(np.swapaxes(mats, 1, 2))) / 2
        return np.linalg.eigvalsh(mats)[:, 0].real

    return fn


def _on_sphere_one(fn: Callable[[np.ndarray], np.ndarray]
                   ) -> Callable[[np.ndarray], float]:
    """The polish objective: ``fn`` at the projection of ``x`` to the sphere,
    infinite near the origin."""
    def objective(x: np.ndarray) -> float:
        n = np.linalg.norm(x)
        if n < 1e-9:
            return float("inf")
        return float(fn((x / n)[None, :])[0])

    return objective


def test_on_sphere_keeps_rows_near_the_origin_from_the_kernel():
    """Rows within 1e-9 of the origin are infinite and are neither divided
    nor valued: the kernel here raises on the 0/0 row and the division runs
    with invalid operations raising.  Without such rows every row is valued
    in one call; a NaN row is valued too.  Each value is the float of a
    one-point call."""
    calls = []

    def fn(pts, _per_point=False):
        if not np.isfinite(pts).all():
            raise ValueError("a row near the origin reached the kernel")
        calls.append(len(pts))
        return pts[:, 0] - 2.0 * pts[:, 1] * pts[:, 2]

    objective, one_point = sphere._on_sphere(fn), _on_sphere_one(fn)
    xs = np.array([[0.3, -1.2, 0.7], [0.0, 0.0, 0.0], [2.0, 1.0, -4.0],
                   [1e-12, 0.0, -1e-12], [-0.5, 0.25, 3.0]])
    with np.errstate(invalid="raise"):
        got = objective(xs)
    assert calls == [3]
    assert np.isinf(got[[1, 3]]).all()
    assert [got[k] for k in (0, 2, 4)] == [one_point(xs[k]) for k in (0, 2, 4)]
    live = xs[[0, 2, 4]]
    got = objective(live)
    assert calls[-1] == 3 and got.tolist() == [one_point(x) for x in live]

    def nan_kernel(pts, _per_point=False):
        return pts[:, 0] + pts[:, 1]

    assert np.isnan(sphere._on_sphere(nan_kernel)(np.array([[np.nan, 1.0]]))).all()


def _objective(sym: SymbolMatrix) -> Callable[[np.ndarray], float]:
    """The one-point polish objective of the search for ``sym``."""
    return _on_sphere_one(_values(sym))


def assert_nelder_mead_matches(func, x0, maxiter):
    optimize = pytest.importorskip("scipy.optimize")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inf - inf in the convergence test
        want = optimize.minimize(func, x0, method="Nelder-Mead",
                                 options={"xatol": 1e-12, "fatol": 1e-14,
                                          "maxiter": maxiter})
        (fun, x), = sphere._polish(_row_by_row(func), [x0], xatol=1e-12,
                                   fatol=1e-14, maxiter=maxiter)
    assert type(fun) is type(want.fun) and float(fun).hex() == float(want.fun).hex()
    assert x.dtype == want.x.dtype and x.tobytes() == want.x.tobytes()


@st.composite
def starts(draw, dim):
    """A Sobol point on the sphere, optionally with a coordinate set to zero
    (the 0.00025 step of the first simplex) and scaled towards the origin
    (where the objective is infinite)."""
    x0 = batch(dim, 1, draw(st.integers(0, 2**31 - 1)))[0].copy()
    if draw(st.booleans()):
        x0[draw(st.integers(0, dim - 1))] = 0.0
    return x0 * draw(st.sampled_from([1.0, 1.0, 0.3, 1e-10]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_nelder_mead_matches_scipy(data):
    sym = data.draw(symbol_matrices())
    dim = len(var_order(sym))
    x0 = data.draw(starts(dim))
    maxiter = data.draw(st.sampled_from([600, 600, 40, 3, 1]))
    assert_nelder_mead_matches(_objective(sym), x0, maxiter)


def test_nelder_mead_edge_starts_match_scipy():
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.vars)
    form = SymbolMatrix(sig, PolyMatrix(sig.vars, [[d1 * d1 + d1 * d2 - d3 * d3]]))
    func = _objective(form)
    assert func(np.zeros(3)) == float("inf")
    for x0 in (np.array([0.0, 0.6, 0.8]),       # a zero coordinate
               np.array([1e-10, 2e-10, 0.0]),   # infinite at all but one vertex
               np.array([3e-10, 1e-10, 2e-10])):  # infinite at every vertex
        for maxiter in (600, 7, 1):
            assert_nelder_mead_matches(func, x0, maxiter)


_PLATEAUS = [
    lambda x: 1.0,                                     # every vertex ties
    lambda x: float(np.sum(np.floor(2 * x))),          # integer plateaus
    lambda x: float(np.sum(np.abs(np.floor(3 * x)))),
]


@pytest.mark.parametrize("func", _PLATEAUS)
def test_nelder_mead_ties_match_scipy(func):
    """Equal vertex values are ordered as numpy's argsort orders them.  From
    four vertices on that is not always a stable sort's order, and these
    plateaus in four and five variables reach such ties."""
    for dim in (2, 3, 4, 5):
        for x0 in (np.ones(dim), np.resize([0.5, -0.5], dim)):
            for maxiter in (600, 40, 3):
                assert_nelder_mead_matches(func, x0, maxiter)


# ---------------------------------------------------------------------------
# Lock-step polish: bit identity with the one-point search


def _unit_rows(dim: int, size: int, seed: int) -> np.ndarray:
    """``size`` points of the unit sphere in ``dim`` variables, Gaussian
    directions from ``seed`` (the Sobol scan has two points for dim 1)."""
    x = np.random.default_rng(seed).standard_normal((size, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


@settings(max_examples=150, deadline=None)
@given(symbol_matrices(spatial=4), st.sampled_from([1, 2, 3, 5, 16, 17, 40]),
       st.integers(0, 2**31 - 1))
def test_per_point_kernel_rows_match_one_point_calls(sym, size, seed):
    """The polish layout of the kernel: row k of a batch is, bit for bit,
    what a one-point call at that row gives."""
    evaluate = sphere.compile_matrix(sym.body, var_order(sym))
    pts = _unit_rows(len(var_order(sym)), size, seed)
    got = evaluate(pts, _per_point=True)
    assert got.shape == (size, sym.rows, sym.cols)
    for k in range(size):
        assert got[k].tobytes() == evaluate(pts[k:k + 1])[0].tobytes(), k


def assert_polish_matches_reference(objective, one_point, starts_, maxiter):
    """The batched polish of ``starts_`` through ``objective`` ends, start by
    start, on the floats of the reference one-point search through
    ``one_point``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference's inf - inf
        got = sphere._polish(objective, starts_, xatol=1e-12, fatol=1e-14,
                             maxiter=maxiter)
        want = _lock_step_polish(lambda xs: [one_point(x) for x in xs], starts_,
                                 xatol=1e-12, fatol=1e-14, maxiter=maxiter)
        assert len(got) == len(want) == len(starts_)
        for (fun, x), (want_fun, want_x) in zip(got, want):
            assert type(fun) is type(want_fun)
            assert float(fun).hex() == float(want_fun).hex()
            assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()


def assert_polish_matches_one_point(fn, starts_, maxiter):
    """The polish of ``starts_`` on the sphere, as the search runs it, ends
    start by start on the floats of the one-point search."""
    assert_polish_matches_reference(sphere._on_sphere(fn), _on_sphere_one(fn),
                                    starts_, maxiter)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lock_step_polish_matches_one_point_search(data):
    """Parameters are held at 1.0 after the sphere variables, as the search
    holds them."""
    sym = data.draw(symbol_matrices())
    fn = _values(sym, held=True)
    dim = len(sym.signature.derivative_vars)
    starts_ = data.draw(st.lists(starts(dim), min_size=1, max_size=6))
    maxiter = data.draw(st.sampled_from([600, 600, 40, 3, 1]))
    assert_polish_matches_one_point(fn, starts_, maxiter)


def _edge_starts() -> list[np.ndarray]:
    return [np.array([0.0, 0.6, 0.8]),       # a zero coordinate
            np.array([1e-10, 2e-10, 0.0]),   # infinite at all but one vertex
            np.array([3e-10, 1e-10, 2e-10]),  # infinite at every vertex
            *_unit_rows(3, 5, 11)]


def _edge_forms() -> list[Callable[..., np.ndarray]]:
    sig = spatial_signature(3)
    d1, d2, d3 = (Poly.variable(sig.vars, v) for v in sig.vars)
    return [_values(SymbolMatrix(sig, PolyMatrix(sig.vars, entries))) for entries in (
        [[d1 * d1 + d1 * d2 - d3 * d3]],
        [[d1 * d1 + d2 * d2, d1 * d3], [d1 * d3, d3 * d3 - d1 * d2]])]


def test_lock_step_polish_edge_starts():
    """Searches that stop in different rounds, one of them at once, share
    each round's batched calls."""
    for fn in _edge_forms():
        for maxiter in (600, 40, 3, 1):
            assert_polish_matches_one_point(fn, _edge_starts(), maxiter)


def test_edge_starts_search_raises_no_warning(monkeypatch):
    """inf - inf in the convergence test and the infinite values near the
    origin stay silent, as they were with the Python-float simplices: the
    edge starts, as the whole scan, go through the search with every warning
    an error."""
    pts = np.array(_edge_starts())
    monkeypatch.setattr(sphere, "_sphere_points", lambda dim, budget, seed: pts)
    for fn in _edge_forms():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, point = sphere._sphere_minimize(fn, 3, DEFAULT_SEED, len(pts))
        assert np.isfinite(value) and len(point) == 3


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_polish_matches_reference_search(data):
    """Up to 16 runs in 2 to 5 variables, from Sobol starts with zero
    coordinates or near the origin, on real kernels projected to the sphere
    or on row-by-row plateau objectives whose ties exercise the order of
    equal values and the equal-value branches; each run ends on the floats
    of the reference one-point search."""
    maxiter = data.draw(st.sampled_from([1, 3, 40, 600]))
    if data.draw(st.booleans()):
        sym = data.draw(symbol_matrices(params=0, spatial=4).filter(
            lambda m: 2 <= len(var_order(m)) <= 5))
        fn = _values(sym)
        objective, one_point = sphere._on_sphere(fn), _on_sphere_one(fn)
        dim = len(var_order(sym))
    else:
        one_point = data.draw(st.sampled_from(_PLATEAUS))
        objective, dim = _row_by_row(one_point), data.draw(st.integers(2, 5))
    starts_ = data.draw(st.lists(starts(dim), min_size=1, max_size=16))
    assert_polish_matches_reference(objective, one_point, starts_, maxiter)


def _reference_rounds(one_point: Callable[[np.ndarray], float],
                      starts_: Sequence[np.ndarray], maxiter: int
                      ) -> list[dict[int, list[list[float]]]]:
    """Each start's reference one-point search, run alone: for each
    iteration it reaches, the points it asks for in that iteration
    (reflection first, then an expansion or contraction, then the N vertices
    of a shrink), read off the generator's ``iterations`` counter."""
    rounds = []
    for x0 in starts_:
        run, asked = _nelder_mead_steps(x0, 1e-12, 1e-14, maxiter), {}
        ask = next(run)
        try:
            while True:
                it = run.gi_frame.f_locals.get("iterations", 0)
                asked.setdefault(it, []).append(ask)
                ask = run.send([one_point(np.array(x)) for x in ask])
        except StopIteration:
            rounds.append(asked)
    return rounds


def assert_batches_match_rounds(objective, one_point, starts_, maxiter):
    """The batched polish makes, per iteration, one call of 4 x (runs still
    running) rows whose first block holds each such run's reflection, and,
    when runs shrink, one of N x (shrinking runs) rows holding their new
    vertices in run order: a run that has converged is never valued again.
    Returns how many shrink calls were made."""
    calls = []

    def recording(xs):
        calls.append(np.array(xs))
        return objective(xs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the reference's inf - inf
        sphere._polish(recording, starts_, xatol=1e-12, fatol=1e-14, maxiter=maxiter)
        rounds = _reference_rounds(one_point, starts_, maxiter)
    R, N = len(starts_), len(starts_[0])
    # (rows of the call, the rows it starts with)
    want, shrinks = [(R * (N + 1), [x for asked in rounds for x in asked[0][0]])], 0
    for it in range(1, max(max(asked) for asked in rounds) + 1):
        live = [asked[it] for asked in rounds if it in asked]
        want.append((4 * len(live), [ask[0][0] for ask in live]))  # the reflections
        shrink = [x for ask in live for x in ask[-1] if len(ask[-1]) == N]
        if shrink:
            want.append((len(shrink), shrink))
            shrinks += 1
    assert [len(c) for c in calls] == [rows for rows, _ in want]
    for got, (_, first) in zip(calls, want):
        assert got[:len(first)].tobytes() == np.array(first).tobytes()
    return shrinks


def test_polish_batches_each_iteration_once():
    """Runs that stop in different rounds, some at ``maxiter``, and runs
    that shrink (on the plateaus, almost every round): one candidate call per
    iteration over the live runs, one shrink call when any run shrinks."""
    shrinks = 0
    for fn in _edge_forms():
        for maxiter in (600, 40, 3, 1):
            shrinks += assert_batches_match_rounds(sphere._on_sphere(fn), _on_sphere_one(fn),
                                                   _edge_starts(), maxiter)
    for func in _PLATEAUS[1:]:
        for maxiter in (40, 3):
            shrinks += assert_batches_match_rounds(_row_by_row(func), func,
                                                   [*_unit_rows(4, 5, 7), np.ones(4)], maxiter)
    assert shrinks > 0


# ---------------------------------------------------------------------------
# The starts: the best scan values, stably ordered


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1.5, 0.0, -0.0, 0.25, 2.0, 2.0 + 2**-51,
                                 float("inf"), float("-inf"), float("nan")]),
                min_size=1, max_size=40),
       st.integers(1, 20))
def test_least_matches_stable_argsort(values, count):
    """Ties (a small pool of values, 0.0 and -0.0 among them), infinities and
    NaN, with fewer values than starts and more."""
    values = np.array(values)
    want = np.argsort(values, kind="stable")[:count]
    got = sphere._least(values, count)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("dim, budget", [(1, 20_000), (3, 5), (3, 16), (3, 17), (2, 300)])
def test_search_polishes_the_stably_sorted_best_starts(monkeypatch, dim, budget):
    """The search polishes the scan points that a stable argsort of the scan
    values puts first: all of them below 16 (a budget below 16, or the
    two-point scan of one variable, which is not polished)."""
    polished = []
    monkeypatch.setattr(sphere, "_polish",
                        lambda objective, starts_, **kw: polished.append(starts_) or [])
    sig = spatial_signature(dim)
    form = sum((Poly.variable(sig.vars, v) for v in sig.vars), Poly.zero(sig.vars))
    fn = _values(SymbolMatrix(sig, PolyMatrix(sig.vars, [[form * form]])))
    value, point = sphere._sphere_minimize(fn, dim, DEFAULT_SEED, budget)
    pts = sphere._sphere_points(dim, budget, DEFAULT_SEED)
    values = sphere._scan(fn, pts)
    order = np.argsort(values, kind="stable")[:sphere._POLISH_COUNT]
    assert value == min(values) and len(order) == min(budget if dim > 1 else 2, 16)
    if dim == 1:
        assert polished == []
    else:
        starts_, = polished
        assert starts_.tobytes() == pts[order].tobytes()


def test_lame_strong_minimum_is_pinned():
    """The 3-D Lame strong check's symbol at the default seed and budget:
    the floats the one-point search found, before the polish ran in
    lock-step.  The check itself is certified by the symbol's spectrum,
    whose least root mu = 7/5 is the searched minimum."""
    sym = lame(3, Fraction(-13, 10), Fraction(7, 5)).principal_symbol()
    value, point = sphere.eigenvalue_minimum(sym.body, sym.signature.spatial, (),
                                             seed=DEFAULT_SEED, budget=20_000)
    assert value.hex() == "0x1.666666666665bp+0"
    assert [v.hex() for v in point] == [
        "0x1.fc23599f81089p-2", "-0x1.b9932161701bep-5", "0x1.bba81c175eeefp-1"]
    rep = strong_ellipticity_check(lame(3, Fraction(-13, 10), Fraction(7, 5)))
    assert rep.verdict == "certified-symbolic"
    roots, k = ellipticity._spectrum(sym.body, sym.signature.derivative_vars)
    assert (roots, k) == ([GaussianRational.of(Fraction(7, 5)),
                           GaussianRational.of(Fraction(3, 2))], 1)
    assert abs(float(roots[0].re) - value) <= 1e-9


# ---------------------------------------------------------------------------
# Sampling arguments


def _numeric_form() -> OperatorMatrix:
    """-(d1^2 + d1 d2 + d2^2): elliptic, but not certifiable as a |zeta|^2
    power.  It is a quadratic form, so its checks refuse an argument before
    the closed-form route as the search would."""
    sig = spatial_signature(2)
    d1, d2 = (Poly.variable(sig.vars, v) for v in sig.vars)
    return OperatorMatrix.from_entries(sig, [[-(d1 * d1 + d1 * d2 + d2 * d2)]])


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_rejected(budget):
    for check in (petrovskii_check, strong_ellipticity_check):
        with pytest.raises(ValueError, match="budget"):
            check(_numeric_form(), budget=budget)


def test_negative_seed_is_rejected():
    for check in (petrovskii_check, strong_ellipticity_check):
        with pytest.raises(ValueError, match="seed"):
            check(_numeric_form(), seed=-3)


def _quartic_form() -> OperatorMatrix:
    """d1^4 + d1^2 d2^2 + d2^4: elliptic, and neither a |zeta|^2 power nor a
    quadratic form, so its checks scan."""
    sig = spatial_signature(2)
    d1, d2 = (Poly.variable(sig.vars, v) for v in sig.vars)
    return OperatorMatrix.from_entries(sig, [[d1 ** 4 + d1 * d1 * d2 * d2 + d2 ** 4]])


def test_smallest_budget_runs():
    rep = petrovskii_check(_quartic_form(), seed=0, budget=1)
    assert rep.verdict == "numeric-pass" and rep.budget == 1 and rep.seed == 0


def test_budget_beyond_the_sobol_sequence_is_rejected():
    """scipy draws at most 2**30 points; asking for more is an error before
    any point is drawn, not a wrapped index."""
    for check in (petrovskii_check, strong_ellipticity_check):
        with pytest.raises(ValueError, match=r"budget must be at most 2\*\*30"):
            check(_numeric_form(), budget=2**30 + 1)
    with pytest.raises(ValueError, match=r"^n must be"):
        _sobol(2, 2**30 + 1, 0)


def test_budget_beyond_the_coordinate_cap_is_rejected():
    """A search peaks at ~20 bytes per point coordinate, so budget times the
    sphere variables is capped at 2**23 (~160 MB), before any point is
    drawn."""
    for check in (petrovskii_check, strong_ellipticity_check):
        with pytest.raises(ValueError, match=r"at most 2\*\*23 = 8388608 point coordinates, "
                                             r"got 8388610$"):
            check(_numeric_form(), budget=2**22 + 1)


def test_default_budget_passes_the_coordinate_cap_at_every_dimension(monkeypatch):
    """The cap refuses only budgets that could not run: the default budget
    reaches the search at the most sphere variables a ring can have.  The
    search itself is stubbed out; only the argument checks run."""
    searched = []
    monkeypatch.setattr(sphere, "_sphere_minimize",
                        lambda fn, dim, seed, budget: searched.append((dim, budget)))
    names = [f"x{i}" for i in range(_MAX_VARS)]
    sphere._minimize(None, names, 0, DEFAULT_BUDGET)
    assert searched == [(_MAX_VARS, DEFAULT_BUDGET)]
    with pytest.raises(ValueError, match=r"point coordinates"):
        sphere._minimize(None, names, 0, sphere._MAX_COORDINATES // _MAX_VARS + 1)


def test_dimension_beyond_the_direction_table_is_rejected():
    """The bundled table ends at the most variables a ring can have."""
    assert len(POLY) == _MAX_VARS == 255
    assert _sobol(_MAX_VARS, 2, 0).shape == (2, 255)
    with pytest.raises(ValueError, match=r"^dim must be between 1 and 255, got 256"):
        _sobol(_MAX_VARS + 1, 2, 0)
    with pytest.raises(ValueError, match=r"^dim must be"):
        _sobol(0, 2, 0)


# ---------------------------------------------------------------------------
# Import boundary

DE_RHAM = "vars: d1 d2 d3\ncomplex C = de_rham(3)\nmu C 1 scalar 2\n"
QUADRATIC = "vars: d1 d2\noperator Q = [[-d1^2 - d1*d2 - d2^2]]\n"


def test_numpy_and_scipy_load_only_for_numeric_checks(tmp_path):
    """Exact commands load neither numpy nor scipy; numeric checks and the
    bundle run, to the reference bytes, with every import of scipy,
    ``numpy.random`` and ``numpy.ma`` refused, one after another in one
    interpreter."""
    de_rham, quadratic = tmp_path / "de_rham.spec", tmp_path / "quadratic.spec"
    de_rham.write_text(DE_RHAM)
    quadratic.write_text(QUADRATIC)
    loaded = probe(tmp_path,
                   ["verify", "--spec", str(de_rham), "--json", "OUT"],
                   ["parametrix", "--spec", str(de_rham), "--json", "OUT"],
                   ["ellipticity", "--spec", str(quadratic), "--kind", "petrovskii",
                    "--budget", "256", "--json", "OUT"],
                   ["fixtures", "--json", "OUT"])
    assert loaded["codes"] == [0, 0, 0, 0]
    assert loaded["refused"] == []
    # the numeric path loads numpy core and linalg, and no scipy module at all
    assert loaded["heavy"] == [[], [], ["numpy"], ["numpy"]]
    rep = json.loads((tmp_path / "ellipticity.json").read_text())["report"]
    assert rep["verdict"] == "numeric-pass"
    assert (tmp_path / "fixtures.json").read_bytes() == REFERENCE_BUNDLE.read_bytes()
