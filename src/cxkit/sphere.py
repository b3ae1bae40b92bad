"""Numeric minimization over the unit sphere: the fallback of the ellipticity
checks once their symbolic certificate does not apply.

This is the only cxkit module that imports numpy and scipy, and
:mod:`cxkit.ellipticity` imports it only on the numeric path, so exact work
(complexes, block operators, parametrices, certified checks, syzygies) loads
neither package.

A symbol matrix is compiled into one evaluation kernel: the distinct
exponent rows of all its entries are raised to the points once per call, and
each entry then takes its own dot product of its monomial columns with its
coefficients, in its own term order.  Each entry therefore sums exactly as a
separate per-entry evaluation would, bit for bit.  The scan draws a scrambled
Sobol sequence mapped to the sphere, and the best candidates are polished
with Nelder-Mead.  Parameter variables are held at 1.0.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import optimize
from scipy.special import ndtri
from scipy.stats import qmc

from cxkit.poly import Poly, PolyMatrix

_POLISH_COUNT = 16


# ---------------------------------------------------------------------------
# Vectorized evaluation


def compile_matrix(m: PolyMatrix, var_order: Sequence[str]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """Return a function mapping an (M, d) point array, columns in
    ``var_order``, to the (M, rows, cols) complex values of ``m``."""
    index = {v: i for i, v in enumerate(m.vars)}
    cols = [index[v] for v in var_order]
    rows: dict[tuple[int, ...], int] = {}  # distinct exponent row -> column
    entries = []  # (i, j, monomial columns, coefficients) per nonzero entry
    for i in range(m.rows):
        for j in range(m.cols):
            terms = m[i, j].terms
            if terms:
                idx = [rows.setdefault(tuple(exp[c] for c in cols), len(rows))
                       for exp in terms]
                entries.append((i, j, idx, [complex(c) for c in terms.values()]))
    e = np.array(list(rows), dtype=np.int64).reshape(1, len(rows), len(cols))
    # An entry that uses every row in order (always so for a 1x1 matrix) reads
    # the monomials in place instead of through a gathered copy.
    every = list(range(len(rows)))
    plan = [(i, j, slice(None) if idx == every else np.array(idx, dtype=np.intp),
             np.array(coeffs, dtype=complex))
            for i, j, idx, coeffs in entries]

    def evaluate(pts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(pts), m.rows, m.cols), dtype=complex)
        if plan:
            # np.prod without its Python-level wrapper: the same reduction
            monomials = np.multiply.reduce(pts[:, None, :] ** e, axis=2)
            for i, j, idx, c in plan:
                out[:, i, j] = monomials[:, idx] @ c
        return out

    return evaluate


# ---------------------------------------------------------------------------
# The search


def _sphere_points(dim: int, budget: int, seed: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
        u = sampler.random(budget)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    g = ndtri(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


def _canonical_point(x: np.ndarray) -> tuple[float, ...]:
    x = x / np.linalg.norm(x)
    for v in x:
        if abs(v) > 1e-12:
            if v < 0:
                x = -x
            break
    return tuple(round(float(v), 12) + 0.0 for v in x)


def _with_params(fn, n_params: int):
    """Append parameter columns fixed at 1.0 to sphere points."""
    if n_params == 0:
        return fn

    def wrapped(pts: np.ndarray) -> np.ndarray:
        cols = np.ones((len(pts), n_params))
        return fn(np.hstack([pts, cols]))

    return wrapped


def _sphere_minimize(fn: Callable[[np.ndarray], np.ndarray], dim: int,
                     seed: int, budget: int) -> tuple[float, tuple[float, ...]]:
    """Deterministic global-ish minimization of ``fn`` over the unit sphere:
    quasi-random scan, then local polish from the best candidates."""
    pts = _sphere_points(dim, budget, seed)
    values = fn(pts)
    order = np.argsort(values, kind="stable")
    candidates: list[tuple[float, tuple[float, ...]]] = []
    for idx in order[:_POLISH_COUNT]:
        candidates.append((float(values[idx]), _canonical_point(pts[idx])))
        if dim > 1:
            def objective(x):
                n = np.linalg.norm(x)
                if n < 1e-9:
                    return float("inf")
                return float(fn((x / n)[None, :])[0])

            res = optimize.minimize(objective, pts[idx], method="Nelder-Mead",
                                    options={"xatol": 1e-12, "fatol": 1e-14,
                                             "maxiter": 600})
            if np.isfinite(res.fun):
                candidates.append((float(res.fun), _canonical_point(res.x)))
    # exact argmin with lexicographic tie-break for determinism
    best = min(candidates, key=lambda vp: (vp[0], vp[1]))
    return best


def _minimize(fn, sphere_vars: Sequence[str], param_vars: Sequence[str],
              seed: int, budget: int) -> tuple[float, tuple[float, ...]]:
    if budget < 1:
        raise ValueError(f"budget must be at least 1 sample, got {budget}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _sphere_minimize(_with_params(fn, len(param_vars)), len(sphere_vars),
                            seed, budget)


def abs_minimum(p: Poly, sphere_vars: Sequence[str], param_vars: Sequence[str],
                *, seed: int, budget: int) -> tuple[float, tuple[float, ...]]:
    """(minimum, argmin) of ``|p|`` over the unit sphere of ``sphere_vars``."""
    values = compile_matrix(PolyMatrix(p.vars, [[p]]),
                            list(sphere_vars) + list(param_vars))
    return _minimize(lambda pts: np.abs(values(pts)[:, 0, 0]),
                     sphere_vars, param_vars, seed, budget)


def eigenvalue_minimum(m: PolyMatrix, sphere_vars: Sequence[str],
                       param_vars: Sequence[str], *, seed: int, budget: int
                       ) -> tuple[float, tuple[float, ...]]:
    """(minimum, argmin) over the unit sphere of the least eigenvalue of the
    Hermitian part of ``m``."""
    values = compile_matrix(m, list(sphere_vars) + list(param_vars))

    def min_eig(pts: np.ndarray) -> np.ndarray:
        mats = values(pts)
        mats = (mats + np.conj(np.swapaxes(mats, 1, 2))) / 2
        return np.linalg.eigvalsh(mats)[:, 0].real

    return _minimize(min_eig, sphere_vars, param_vars, seed, budget)
