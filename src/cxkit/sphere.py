"""Numeric minimization over the unit sphere: the fallback of the ellipticity
checks once their symbolic certificate does not apply.

The checks take two numeric routes, in this order, after one argument check
(:func:`check_search`).  A target that is a homogeneous real quadratic form
zeta^T A zeta in the sphere variables, the parameters held at 1.0, takes its
extreme values on the sphere from one ``eigh`` of A (Rayleigh-Ritz;
:func:`quadratic_minimum`): nothing is sampled.  Every other target (a
matrix symbol, a quartic, complex or inhomogeneous coefficients) runs the
search below.

This is the only cxkit module that imports numpy, and
:mod:`cxkit.ellipticity` imports it only on the numeric path, so exact work
(complexes, block operators, parametrices, certified checks, syzygies) never
loads it.  It runs on numpy's core and ``numpy.linalg`` alone.  Nothing here
needs scipy: the Joe-Kuo Sobol direction numbers of the 255 dimensions a
ring can have ship in :mod:`cxkit._sobol_directions`, loaded by the first
scan (~1.5 ms), so a check that takes the closed form never loads them.  Nor
``numpy.random``: the scramble bits, which scipy draws from
``np.random.default_rng(seed)``, come from a port of numpy's SeedSequence
and PCG64 on Python ints (:func:`_scramble_bits`), which
``test_scramble_bits_match_numpy_random`` pins to numpy's draws.  Nor
``numpy.ma``, which ``np.unique`` would load.  ``tests/test_sphere.py`` and
``tests/test_imports.py`` refuse or report all three.

A search holds its sphere points, its scan values and one block's kernel
temporaries at once: its peak grew by 14-19 bytes per point coordinate at
2**19 points of a quadratic in 2 to 4 variables (56 before the points were
built in blocks).  The budget times the sphere variables is capped at
``_MAX_COORDINATES`` = 2**23 (~160 MB).  The default budget of
20 000 points passes it at every dimension a ring can have (255 variables,
5.1M coordinates), so the cap refuses only budgets above the default.

The port draws ``d * 930`` bits at ``d`` sphere variables, which makes a
fresh scan ~0.6 ms per variable slower than with numpy's generator (on one
core of a 2 vCPU machine), while
not importing ``numpy.random`` saves ~16 ms once per process.  A process that
scans once comes out ahead up to ~27 sphere variables and behind above that
(~160 ms behind at 255).

A symbol matrix is compiled into one evaluation kernel.  Each variable is
raised once to each distinct exponent of the matrix, a power table per
point; every distinct monomial is the product of its variables' table
entries, multiplied left to right; each distinct entry then takes its own
dot product of its monomial columns with its coefficients, its terms read
leading-first (``Poly.sorted_terms``), and equal entries share that value.
So a value depends on the symbol, not on the order its entries store their
terms in.  The table's columns for the exponents 0 and 1 are exact (1.0 and
the coordinate); each higher power is a product, x ** e the square of
x ** (e // 2), times x for an odd e (:func:`_raise`), so it depends on x and
e alone, whatever other exponents share the table, and lies within e ulps
of the exact power.  No ``np.power`` is called: its float64 route for
negative bases took ~150 ns per coordinate, where a product takes ~1 ns.
Parameter variables are held at 1.0 by the kernel itself: their table
columns are 1.0 at every exponent.

The scan draws a scrambled Sobol sequence mapped to the sphere through the
inverse normal distribution function, values it ``_SCAN_BLOCK`` (2048) rows
at a time (a row's float does not depend on the block; see :func:`_scan`), and
polishes the best candidates with Nelder-Mead.  Sobol, the inverse normal
and Nelder-Mead are ports that return the floats of
``scipy.stats.qmc.Sobol(scramble=True)``, ``scipy.special.ndtri`` and
scipy's Nelder-Mead bit for bit; the kernel they drive is cxkit's own.  The
points are built ``_SCAN_BLOCK`` rows at a time into the one array kept.

Every check at the default seed and budget scans the same points, so the
last ``_POINTS_CACHED`` scans' points are memoized read-only
(:func:`_sphere_points`, keyed by (dim, budget, seed)): a build costs about
6 ms in 2 variables (on one core of a 2 vCPU machine), and the second
2-variable search of ``cxkit fixtures`` reads the first one's points.
Their powers are not kept: each block of a scan raises its own, as a
one-call table does, and products are cheap enough that a memo of the
columns would save little.  The polish raises its own points on each call.

Of the best 16 scan points, the search polishes one per basin
(:func:`_basins`): a point within 0.1 rad of a better one kept, or of its
antipode, joins that one's group unpolished, since both polishes would end
in one well, or in a well and its antipode, where a homogeneous target
takes the same value.  Every one of the 16 scan values stays a candidate
for the minimum.  In ``cxkit fixtures`` the two symmetric-gradient searches
polish 2 starts each, not 16; the Stokes q = 1 search, whose target is
constant on the sphere, still polishes 16.

The polishes run in lock-step (:func:`_polish`) on one (R, N + 1, N + 1)
array, each vertex followed by its value: a sort is one argsort and one
gather, a step writes one row, and each iteration values the four
candidates of every live run in one batched call, though a run uses one or
two.  Each row must get the float of a one-point call, so the polish
evaluates the kernel with one dot product per row and the speculation moves
no float; the scan keeps its one matrix-vector product per entry, whose
sums round differently in some rows, because its floats pick the
candidates and are reported.  The small decisions (converged, which step,
a row near the origin) are Python bools read through ``tolist``: over at
most 16 runs a numpy mask or reduction costs more to dispatch than its
comparisons.  A least eigenvalue of a Hermitian part with no imaginary
entry is one real LAPACK call (``dsyevd``), of any other one complex call
(``zheevd``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from cxkit.poly import Poly, PolyMatrix

_POLISH_COUNT = 16
# a start within 0.1 rad of a better start, up to sign, lies in its basin
_BASIN_COS = math.cos(0.1)
_POINTS_CACHED = 4  # scan keys whose points are kept (_sphere_points)
_SCAN_BLOCK = 2048  # rows valued per kernel call of the scan (_scan)
# budget x sphere variables: a search peaks at ~20 bytes per point coordinate
_COORDINATE_BITS = 23
_MAX_COORDINATES = 2 ** _COORDINATE_BITS


# ---------------------------------------------------------------------------
# Vectorized evaluation


def _power_table(pts: np.ndarray, high: Sequence[int], params: int = 0) -> np.ndarray:
    """The (M, d + params, 2 + K) table of every coordinate of an (M, d)
    point array, then of ``params`` variables held at 1.0, raised to 0, 1
    and each of the K exponents ``high`` (all at least 2).

    x ** 0 is 1.0 and x ** 1 is x exactly, and a held variable's columns are
    1.0 at every exponent; each higher column is :func:`_raise`'s product."""
    m, d = pts.shape
    table = np.ones((m, d + params, 2 + len(high)))
    table[:, :d, 1] = pts
    raised = {1: pts}
    for k, e in enumerate(high):
        table[:, :d, 2 + k] = _raise(raised, e)
    return table


def _raise(raised: dict[int, np.ndarray], e: int) -> np.ndarray:
    """x ** e by square-and-multiply, x being ``raised[1]``: the square of
    x ** (e // 2), times x when e is odd, each an IEEE product.  The floats
    depend on x and e alone, not on the other powers ``raised`` keeps, so a
    point gets the same value from every table it is in."""
    if e not in raised:
        half = _raise(raised, e // 2)
        square = half * half
        raised[e] = square * raised[1] if e % 2 else square
    return raised[e]


def compile_matrix(m: PolyMatrix, var_order: Sequence[str],
                   params: Sequence[str] = ()) -> Callable[..., np.ndarray]:
    """Return a function mapping an (M, d) point array, columns in
    ``var_order``, to the (M, rows, cols) complex values of ``m`` with each
    variable of ``params`` held at 1.0.  Each entry is read in
    ``Poly.sorted_terms`` order, so the floats depend on the entry's value,
    not on the order it stores its terms in."""
    index = {v: i for i, v in enumerate(m.vars)}
    cols = [index[v] for v in [*var_order, *params]]
    rows: dict[tuple[int, ...], int] = {}  # distinct exponent row -> column
    # distinct (monomial columns, coefficient bytes) -> the entries holding it
    entries: dict[tuple[tuple[int, ...], bytes], list[tuple[int, int]]] = {}
    for i in range(m.rows):
        for j in range(m.cols):
            terms = m[i, j].sorted_terms()
            if terms:
                idx = tuple(rows.setdefault(tuple(exp[c] for c in cols), len(rows))
                            for exp, _ in terms)
                coeffs = np.array([complex(c) for _, c in terms])
                entries.setdefault((idx, coeffs.tobytes()), []).append((i, j))
    e = np.array(list(rows), dtype=np.int64).reshape(len(rows), len(cols))
    pw = np.array(sorted({0, 1}.union(*rows)), dtype=np.int64)
    high = pw[2:].tolist()
    # monomial j's factor for variable v is table entry (v, slot[j, v])
    variable, slot = np.arange(len(cols)), np.searchsorted(pw, e)
    # An entry that uses every row in order (always so for a 1x1 matrix) reads
    # the monomials in place instead of through a gathered copy.
    every = tuple(range(len(rows)))
    plan = [(at, slice(None) if idx == every else np.array(idx, dtype=np.intp),
             np.frombuffer(coeffs, dtype=complex))
            for (idx, coeffs), at in entries.items()]

    def evaluate(pts: np.ndarray, _per_point: bool = False) -> np.ndarray:
        out = np.zeros((len(pts), m.rows, m.cols), dtype=complex)
        if plan:
            table = _power_table(pts, high, len(params))
            # np.prod without its Python-level wrapper: the same reduction
            monomials = np.multiply.reduce(table[:, variable, slot], axis=2)
            # (B, 1, k) stacks take one dot product per row, as one point does
            stack = monomials[:, None, :] if _per_point else monomials
            for at, idx, c in plan:
                value = (stack[..., idx] @ c).reshape(-1)
                for i, j in at:
                    out[:, i, j] = value
        return out

    return evaluate


# ---------------------------------------------------------------------------
# Scrambled Sobol points

_SOBOL_BITS = 30
_MAX_SAMPLES = 2 ** _SOBOL_BITS
# the scramble bits: numpy's SeedSequence and PCG64, on Python ints
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's 32-bit
    words, low first, hashed into a pool of four and mixed, then eight words
    hashed out of the pool, read in pairs (low word first) as four 64-bit
    ones (O'Neill's ``seed_seq_fe``, as numpy implements it)."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _scramble_bits(seed: int, n: int) -> list[int]:
    """The first ``n`` 0/1 draws of ``np.random.default_rng(seed).integers(0,
    2, dtype=np.uint32)``, read as one stream across calls.

    The generator is PCG64 (O'Neill 2014): its 128-bit initial state and
    stream are words 0-1 and 2-3 of :func:`_seed_state`, the first of each
    pair the high half.  Each output is the XSL-RR of the
    stepped state and serves two uint32 draws, its low half first; Lemire's
    (2019) bounded draw over {0, 1} returns the top bit of a uint32.
    ``tests/test_sphere.py`` pins these bits to numpy's."""
    w = _seed_state(seed)
    init, inc = w[0] << 64 | w[1], (w[2] << 64 | w[3]) << 1 & _MASK128 | 1
    # seeding steps from 0, adds the initial state and steps again
    state = (inc + init) * _PCG_MULTIPLIER + inc & _MASK128
    out = []
    for _ in range((n + 1) // 2):
        state = state * _PCG_MULTIPLIER + inc & _MASK128
        x, r = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> r | x << (64 - r)) & _MASK64
        out += (x >> 31 & 1, x >> 63)
    return out[:n]


def _direction_vectors(dim: int) -> np.ndarray:
    """The (dim, 30) uint32 direction vectors of Bratley and Fox (1988),
    column j scaled by 2**(29 - j)."""
    # loaded here, not with the module: a closed-form check never draws a point
    from cxkit._sobol_directions import POLY, VINIT

    bits = _SOBOL_BITS
    v = np.ones((dim, bits), dtype=np.int64)
    for d in range(1, dim):
        p, row = POLY[d], list(VINIT[d])
        m = len(row)
        for j in range(m, bits):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    return (v << np.arange(bits - 1, -1, -1)).astype(np.uint32)


def _sobol_blocks(dim: int, n: int, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """The first ``n`` points of the ``dim``-dimensional Sobol sequence with
    LMS+shift scrambling (Matousek 1998; Owen 2003) seeded by ``seed``, as
    (first row, float64 rows) blocks of ``_SCAN_BLOCK`` rows: the floats of
    ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(n)``, bit
    for bit, each block made as it is read."""
    bits = _SOBOL_BITS
    sv = _direction_vectors(dim)
    # the shift's (dim, 30) bits, then the LMS matrices' (dim, 30, 30)
    draws = np.array(_scramble_bits(seed, dim * bits * (1 + bits)), dtype=np.uint32)
    powers = np.arange(bits, dtype=np.uint32)
    shift = np.dot(draws[:dim * bits].reshape(dim, bits), 1 << powers)
    ltm = np.tril(draws[dim * bits:].reshape(dim, bits, bits))
    ltm[:, range(bits), range(bits)] = 1
    # Bit q of a scrambled vector is the parity of the sum over k of
    # ltm[29 - q, 29 - k] times its bit k: scipy reads each matrix row
    # most-significant bit first and fills the result from the top bit down.
    vector_bits = (sv[:, :, None] >> powers) & 1
    parity = (vector_bits @ ltm[:, ::-1, ::-1].transpose(0, 2, 1)) & 1
    sv = (parity << powers).sum(axis=2, dtype=np.uint32)
    # Gray-code order: point 0 is the shift and point k+1 is point k XOR the
    # direction vector of the lowest zero bit b of k.  ``~k & (k + 1)`` is
    # 2**b, whose binary exponent b + 1 is the row of that vector here, and
    # 0, whose exponent 0 is the shift's row, for k = -1.  Each block
    # starts from the last point of the block before (0 for the first).
    rows = np.vstack([shift, sv.T])
    last = np.zeros(dim, dtype=np.uint32)
    for a in range(0, n, _SCAN_BLOCK):
        k = np.arange(a - 1, min(a + _SCAN_BLOCK, n) - 1)
        steps = rows[np.frexp(~k & (k + 1))[1]]
        steps[0] ^= last
        block = np.bitwise_xor.accumulate(steps, axis=0)
        last = block[-1]
        yield a, block * (1.0 / 2 ** bits)


# ---------------------------------------------------------------------------
# Normal deviates: Cephes ndtri (Moshier), the code scipy.special.ndtri runs

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# |y - 1/2| <= 3/8: x / sqrt(2 pi) = y + y^3 P0(y^2) / Q0(y^2), y centred
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# 2 <= z = sqrt(-2 log y) < 8: x = z - log(z) / z - P1(1/z) / (z Q1(1/z))
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient.  Cephes
    ``p1evl`` is this with a leading 1.0, since ``1.0 * x`` is ``x`` exactly."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse of the standard normal distribution function at each
    entry of ``u``: the floats of ``scipy.special.ndtri``, bit for bit.

    A port of Cephes ``ndtri.c``: the same coefficient tables, Horner order
    and flip of ``y > 1 - exp(-2)`` to ``1 - y``.  Entries must lie in
    [1e-12, 1 - 1e-12], the clip of the Sobol scan, so the tail argument
    ``sqrt(-2 log y)`` stays below 7.44 and the Cephes branch for 8 and
    above (y < exp(-32)) is not ported.  The tail logarithms are taken by
    ``math.log``, the C library's ``log`` that Cephes calls: ``np.log`` may
    use its own SIMD routine, which rounds differently on some inputs.
    """
    u = np.asarray(u, dtype=float)
    flip = u > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - u, u)
    x = np.empty_like(y)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~central
    z = np.sqrt(-2.0 * np.fromiter(map(math.log, y[tail].tolist()), float))
    x0 = z - np.fromiter(map(math.log, z.tolist()), float) / z
    w = 1.0 / z
    xt = x0 - w * _polevl(w, _P1) / _polevl(w, _Q1)
    x[tail] = np.where(flip[tail], xt, -xt)
    return x


# ---------------------------------------------------------------------------
# The search


@functools.lru_cache(maxsize=_POINTS_CACHED)
def _sphere_points(dim: int, budget: int, seed: int) -> np.ndarray:
    """The scan's (budget, dim) points on the unit sphere, read-only, kept
    for the last ``_POINTS_CACHED`` keys: at most that many times
    ``8 * budget * dim`` bytes (2.5 MB at the default budget of 20 000
    points in up to 4 variables).

    The points are drawn, mapped and normalised ``_SCAN_BLOCK`` rows at a
    time into the one array returned, so the build's temporaries do not
    grow with the budget."""
    if dim == 1:
        pts = np.array([[1.0], [-1.0]])
    else:
        pts = np.empty((budget, dim))
        for a, u in _sobol_blocks(dim, budget, seed):
            g = _ndtri(np.clip(u, 1e-12, 1 - 1e-12))
            norms = np.linalg.norm(g, axis=1)
            norms[norms == 0] = 1.0
            np.divide(g, norms[:, None], out=pts[a:a + len(g)])
    pts.flags.writeable = False
    return pts


def _scan(fn: Callable[..., np.ndarray], pts: np.ndarray) -> np.ndarray:
    """``fn(pts)``, valued ``_SCAN_BLOCK`` rows at a time, which bounds the
    kernel's temporaries.  A row's float does not depend on the block, but
    numpy takes a one-row matrix-vector product as a dot product, which sums
    in another order, so a last block of one row joins the block before."""
    cuts = [*range(0, max(len(pts) - 1, 1), _SCAN_BLOCK), len(pts)]
    return np.concatenate([fn(pts[a:b]) for a, b in zip(cuts, cuts[1:])])


def _canonical_point(x: np.ndarray) -> tuple[float, ...]:
    x = x / np.linalg.norm(x)
    for v in x:
        if abs(v) > 1e-12:
            if v < 0:
                x = -x
            break
    return tuple(round(float(v), 12) + 0.0 for v in x)


# Nelder-Mead's four candidates a * centroid - b * worst vertex, with
# scipy's coefficients rho = 1, chi = 2, psi = 1/2: reflection, expansion,
# outside contraction, inside contraction.  scipy forms the last as
# 0.5 * centroid + 0.5 * worst and the first as 2 * centroid - 1 * worst;
# x - (-y) is x + y and 1 * w is w, so the floats are the same.
_REFLECT, _EXPAND, _OUTSIDE, _INSIDE = range(4)
_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_B = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]


def _reorder(state: np.ndarray) -> np.ndarray:
    """Each run's vertices in the order ``np.argsort`` gives their values
    (the last column), as scipy orders them: a row-wise argsort sorts each
    row as a one-row one does, and its order of equal values differs from a
    stable sort's."""
    ind = np.argsort(state[..., -1], axis=1)
    return state[np.arange(len(state))[:, None], ind]


def _polish(objective: Callable[[np.ndarray], np.ndarray],
            starts: Sequence[np.ndarray], xatol: float, fatol: float,
            maxiter: int) -> list[tuple[float, np.ndarray]]:
    """(least value, its vertex) of the Nelder and Mead (1965) simplex search
    from each start, with the coefficients 1, 2, 1/2, 1/2.

    Every floating-point operation of a run is the one, in the order, that
    scipy's ``minimize(method="Nelder-Mead")`` performs without bounds,
    callback or ``maxfev``, so both return the same floats.  Row k of run r
    of the state is vertex k followed by its value.  Each iteration values
    the candidates of every run still running in one call of ``objective``
    (which maps a (B, N) array to its B values and must give a row the float
    it gives that row alone) and the new vertices of the runs that shrink in
    a second.  A run that has converged drops out."""
    x0 = np.array(starts, dtype=float)
    R, N = x0.shape
    state = np.empty((R, N + 1, N + 1))
    state[..., :N] = x0[:, None, :]
    k = np.arange(N)
    state[:, k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    state[..., N] = objective(state[..., :N].reshape(-1, N)).reshape(R, N + 1)
    results: list = [None] * R
    live = list(range(R))

    def finish(rows: Iterable[int]) -> None:
        for r in rows:
            # the values copied, as scipy's np.min reads a contiguous row
            results[live[r]] = (np.min(state[r, :, N].copy()), state[r, 0, :N].copy())

    # inf - inf in the convergence test and overflow at runaway vertices are
    # NaN and inf, as in scipy
    with np.errstate(invalid="ignore", over="ignore"):
        # sorted twice, as scipy does; an argsort of sorted values keeps
        # their order on numpy 2.4, but no numpy promises it
        state = _reorder(_reorder(state))
        for _ in range(1, maxiter):
            # scipy's max(|f[0] - f[1:]|) <= fatol, a NaN failing it, is
            # |f[-1] - f[0]| <= fatol on values sorted NaN last, as rounding
            # is monotone; only runs whose values pass get the vertex test
            f = state[..., N].tolist()
            close = [abs(v[-1] - v[0]) <= fatol for v in f]
            if True in close:
                near = (np.abs(state[:, 1:, :N] - state[:, :1, :N]) <= xatol).reshape(len(f), -1)
                done = [c and d for c, d in zip(close, near.all(axis=1).tolist())]
                if True in done:
                    finish(r for r, d in enumerate(done) if d)
                    keep = [r for r, d in enumerate(done) if not d]
                    state, live, f = state[keep], [live[r] for r in keep], [f[r] for r in keep]
                    if not live:
                        break
            sim = state[..., :N]
            # the centroid of all but the worst vertex: numpy's add.reduce
            # starts from 0.0, as scipy's, and adds the rows in order
            xbar = np.add.reduce(sim[:, :N], axis=1) / N
            cand = np.empty((4, len(live), N + 1))
            np.subtract(_A * xbar, _B * sim[:, -1], out=cand[..., :N])
            cand[..., N] = objective(cand[..., :N].reshape(-1, N)).reshape(4, -1)
            # scipy's branches: expand if fr < f[0], else reflect if fr < f[-2],
            # else contract outside if fr < f[-1] (kept if fc <= fr), else
            # inside (kept if fcc < f[-1]); a contraction not kept shrinks
            step = []
            for fr, fe, fc, fcc, fs in zip(*cand[..., N].tolist(), f):
                if fr < fs[0]:
                    step.append(_EXPAND if fe < fr else _REFLECT)
                elif fr < fs[-2]:
                    step.append(_REFLECT)
                elif fr < fs[-1]:
                    step.append(_OUTSIDE if fc <= fr else None)
                else:
                    step.append(_INSIDE if fcc < fs[-1] else None)
            accept = [r for r, s in enumerate(step) if s is not None]
            state[accept, -1] = cand[[step[r] for r in accept], accept]
            shrink = [r for r, s in enumerate(step) if s is None]
            if shrink:
                # shrink towards the best vertex, sigma = 1/2
                best = state[shrink, :1, :N]
                new = best + 0.5 * (state[shrink, 1:, :N] - best)
                state[shrink, 1:, :N] = new
                state[shrink, 1:, N] = objective(new.reshape(-1, N)).reshape(-1, N)
            state = _reorder(state)
        finish(range(len(live)))
    return results


def _on_sphere(fn: Callable[..., np.ndarray]
               ) -> Callable[[np.ndarray], np.ndarray]:
    """The polish objective: the values of ``fn`` at the projections of the
    rows of a (B, d) array to the sphere, infinite near the origin.

    Row k gets the float a one-point call ``fn(x[None, :] / norm(x))`` gives:
    the norm is the per-row dot product that ``np.linalg.norm`` takes of one
    vector, and ``fn`` evaluates in its per-point layout.  Rows near the
    origin never reach ``fn``."""
    def objective(xs: np.ndarray) -> np.ndarray:
        n = np.sqrt((xs[:, None, :] @ xs[:, :, None])[:, 0, 0])
        # a NaN norm is evaluated, as a one-point call evaluates it
        near = n < 1e-9
        if True not in near.tolist():
            return fn(xs / n[:, None], _per_point=True)
        out = np.full(len(xs), np.inf)
        out[~near] = fn(xs[~near] / n[~near, None], _per_point=True)
        return out

    return objective


def _least(values: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:count]``, sorting only the values
    up to the count-th least and its ties (all of them if that is a NaN,
    which sorts last)."""
    if len(values) <= count:
        return np.argsort(values, kind="stable")
    kth = values[np.argpartition(values, count - 1)[count - 1]]
    at = np.flatnonzero(~(values > kth))
    return at[np.argsort(values[at], kind="stable")[:count]]


def _sphere_minimize(fn: Callable[..., np.ndarray], dim: int,
                     seed: int, budget: int) -> tuple[float, tuple[float, ...]]:
    """Deterministic global-ish minimization of ``fn`` over the unit sphere:
    quasi-random scan, then local polish from the best candidate of each
    basin among the best ``_POLISH_COUNT``."""
    pts = _sphere_points(dim, budget, seed)
    values = _scan(fn, pts)
    order = _least(values, _POLISH_COUNT)
    best = pts[order]
    found = [(float(values[idx]), _canonical_point(x)) for idx, x in zip(order, best)]
    if dim > 1:
        for fun, x in _polish(_on_sphere(fn), best[_basins(best)], xatol=1e-12,
                              fatol=1e-14, maxiter=600):
            if np.isfinite(fun):
                found.append((float(fun), _canonical_point(x)))
    # exact argmin with lexicographic tie-break for determinism
    return min(found)


def _basins(starts: np.ndarray) -> list[int]:
    """The rows of ``starts`` (unit vectors, best first) that the search
    polishes: each row that lies, up to sign, farther than 0.1 rad from
    every better row kept.  A row within it joins that row's group
    unpolished: its polish would end in the same well, or in its antipode,
    where a homogeneous target takes the same value."""
    near = (np.abs(starts @ starts.T) >= _BASIN_COS).tolist()
    kept: list[int] = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    return kept


def check_search(dim: int, seed: int, budget: int) -> None:
    """Refuse an empty sphere (``dim`` 0), and a seed or budget that a
    search of ``dim`` sphere variables could not take.  The ellipticity
    checks call this before either numeric route, so the closed-form route
    refuses what the search would."""
    if dim < 1:
        raise ValueError(f"the unit sphere in {dim} variables is empty: a numeric "
                         "check needs at least 1 sphere variable")
    if budget < 1:
        raise ValueError(f"budget must be at least 1 sample, got {budget}")
    if budget > _MAX_SAMPLES:
        raise ValueError(f"budget must be at most 2**{_SOBOL_BITS} samples, got {budget}")
    if budget * dim > _MAX_COORDINATES:
        raise ValueError(f"budget times the {dim} sphere variables must be "
                         f"at most 2**{_COORDINATE_BITS} = {_MAX_COORDINATES} point coordinates, got "
                         f"{budget * dim}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _minimize(fn, sphere_vars: Sequence[str], seed: int, budget: int
              ) -> tuple[float, tuple[float, ...]]:
    check_search(len(sphere_vars), seed, budget)
    return _sphere_minimize(fn, len(sphere_vars), seed, budget)


def abs_minimum(p: Poly, sphere_vars: Sequence[str], param_vars: Sequence[str],
                *, seed: int, budget: int) -> tuple[float, tuple[float, ...]]:
    """(minimum, argmin) of ``|p|`` over the unit sphere of ``sphere_vars``,
    the parameters held at 1.0."""
    values = compile_matrix(PolyMatrix(p.vars, [[p]]), sphere_vars, param_vars)
    return _minimize(lambda pts, **layout: np.abs(values(pts, **layout)[:, 0, 0]),
                     sphere_vars, seed, budget)


def _least_eigenvalue(mats: np.ndarray) -> np.ndarray:
    """The least eigenvalue of the Hermitian part of each (n, n) matrix of a
    (B, n, n) array.  A part with no imaginary entry goes to the real
    symmetric solver, each matrix on its own, so a matrix's value does not
    depend on the others in its batch."""
    herm = (mats + np.conj(np.swapaxes(mats, 1, 2))) / 2
    real = ~herm.imag.any(axis=(1, 2))
    least = np.empty(len(herm))
    least[real] = np.linalg.eigvalsh(herm[real].real)[:, 0]
    least[~real] = np.linalg.eigvalsh(herm[~real])[:, 0].real
    return least


def eigenvalue_minimum(m: PolyMatrix, sphere_vars: Sequence[str],
                       param_vars: Sequence[str], *, seed: int, budget: int
                       ) -> tuple[float, tuple[float, ...]]:
    """(minimum, argmin) over the unit sphere of the least eigenvalue of the
    Hermitian part of ``m``, the parameters held at 1.0."""
    values = compile_matrix(m, sphere_vars, param_vars)
    return _minimize(lambda pts, **layout: _least_eigenvalue(values(pts, **layout)),
                     sphere_vars, seed, budget)


# ---------------------------------------------------------------------------
# Quadratic forms: the closed-form route


def _form_matrix(p: Poly, sphere_vars: Sequence[str]) -> np.ndarray | None:
    """The symmetric matrix A with p(zeta) = zeta^T A zeta, every variable
    of ``p`` outside ``sphere_vars`` held at 1.0, when p is a homogeneous
    quadratic form with real coefficients in ``sphere_vars``; else None.
    Each entry is summed exactly over the terms and rounded once, so A does
    not depend on the order ``p`` stores its terms in."""
    index = {v: i for i, v in enumerate(p.vars)}
    at = [index[v] for v in sphere_vars]
    sums: dict[tuple[int, ...], Fraction] = {}
    for exp, c in p.terms.items():
        if c.im or sum(exp[i] for i in at) != 2:
            return None
        pair = tuple(k for k, i in enumerate(at) for _ in range(exp[i]))
        sums[pair] = sums.get(pair, 0) + c.re
    a = np.zeros((len(at), len(at)))
    for (i, j), c in sums.items():
        a[i, j] = a[j, i] = float(c if i == j else c / 2)
    return a


def quadratic_minimum(p: Poly, sphere_vars: Sequence[str], *, absolute: bool
                      ) -> tuple[float, tuple[float, ...]] | None:
    """(minimum, argmin) over the unit sphere of ``sphere_vars`` of p, or
    of |p| with ``absolute``, when p is a homogeneous real quadratic form
    zeta^T A zeta with the other variables held at 1.0; else None.

    By Rayleigh-Ritz the extreme values of p on the sphere are the extreme
    eigenvalues of A, at their eigenvectors, from one ``eigh``.  So p has
    minimum lambda_min.  |p| has minimum min |lambda| when A is definite;
    otherwise it is exactly 0.0, at the null-cone point
    sqrt(lambda_max) v_min + sqrt(-lambda_min) v_max (v_min for A = 0)."""
    a = _form_matrix(p, sphere_vars)
    if a is None:
        return None
    w, v = np.linalg.eigh(a)
    lo, hi = float(w[0]), float(w[-1])
    if not absolute or lo > 0:
        return lo + 0.0, _canonical_point(v[:, 0])
    if hi < 0:
        return -hi, _canonical_point(v[:, -1])
    cone = math.sqrt(hi) * v[:, 0] + math.sqrt(-lo) * v[:, -1] if hi > lo else v[:, 0]
    return 0.0, _canonical_point(cone)


__all__ = ["compile_matrix", "abs_minimum", "eigenvalue_minimum", "check_search",
           "quadratic_minimum"]
