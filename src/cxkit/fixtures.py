"""Fixture corpus: the paper's reference systems and their reconstruction.

Every display (electromagnetic field system, acoustics, mass-quanta field
system, classical Stokes, ...), every expected Laplacian over the derivative
symbols and every expected value over the symbol variables z1..zn (a
document whose ``vars`` are z1..zn) is spec text in ``corpus/*.spec``, one
document per signature, read by :func:`cxkit.dsl.parse` once per process:
block literals in the block order and sign of :mod:`cxkit.blockops`.  Each
fixture rebuilds the same operators through the package API and checks exact
equality plus the associated identities.  Each fixture function returns a
JSON-friendly report ``{"name", "checks", "ok"}``; ``run_all`` collects them
in a deterministic bundle.
"""

from __future__ import annotations

import os
from functools import cache
from typing import Callable, Sequence

from cxkit import blockops, dsl, ellipticity, symbols, syzygy
from cxkit.complexes import (
    Complex,
    MuSet,
    de_rham_complex,
    dolbeault_complex,
    generalized_laplacian,
    imaginary_de_rham_complex,
    koszul_complex,
    laplacian,
    powered_de_rham_complex,
)
from cxkit.diffop import OperatorMatrix, SymbolMatrix, spatial_signature, tensor_identity
from cxkit.poly import GaussianRational, Poly

I = GaussianRational.i()
_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


@cache
def _spec(name: str) -> dsl.SpecDocument:
    """The corpus document ``corpus/<name>.spec``."""
    with open(os.path.join(_CORPUS, f"{name}.spec"), encoding="utf-8") as fh:
        return dsl.parse(fh.read())


def _scalar(doc: str, name: str) -> Poly:
    """The entry of the 1x1 operator ``name`` of a corpus document."""
    return _spec(doc).operators[name][0, 0]


def _report(name: str, checks: dict[str, bool], extra: dict | None = None) -> dict:
    out = {"name": name, "checks": checks, "ok": all(checks.values())}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Fixtures


def complex_family() -> dict:
    """Every supplied complex composes to zero."""
    checks = {}
    for n in (2, 3, 4, 5):
        checks[f"de-rham-{n}"] = de_rham_complex(n).is_complex()
    for n in (2, 3):
        sig = spatial_signature(n)
        gens = [Poly.variable(sig.vars, v) for v in sig.spatial]
        checks[f"koszul-{n}"] = koszul_complex(gens, sig).is_complex()
    for p in (2, 3):
        checks[f"powered-de-rham-3-p{p}"] = powered_de_rham_complex(3, p).is_complex()
    checks["dolbeault-2"] = dolbeault_complex(2).is_complex()
    checks["symmetric-gradient-plane"] = symmetric_gradient_complex().is_complex()
    checks["planar-flow"] = planar_flow_complex().is_complex()
    return _report("complex-family", checks)


def _scalar_laplacians(c: Complex, s: Poly) -> bool:
    """Is every Laplacian of ``c`` the scalar ``s`` times the identity?"""
    return all(laplacian(c, q) == OperatorMatrix.identity(c.signature, c.rank(q), s)
               for q in range(c.length + 1))


def laplacian_family() -> dict:
    """Exact Laplacian identities for the standard complexes."""
    checks = {}
    for n in (2, 3, 4, 5):
        checks[f"de-rham-{n}"] = _scalar_laplacians(de_rham_complex(n), _scalar(f"r{n}", "hodge"))
    for p in (2, 3):
        checks[f"powered-de-rham-3-p{p}"] = _scalar_laplacians(
            powered_de_rham_complex(3, p), _scalar("r3", f"power{p}"))
    checks["dolbeault-2"] = _scalar_laplacians(dolbeault_complex(2), _scalar("r4", "dolbeault"))
    checks["planar-flow"] = _scalar_laplacians(planar_flow_complex(), _scalar("r3", "hodge"))
    return _report("laplacian-family", checks)


def symmetric_gradient_complex() -> Complex:
    """Plane complex generated by the symmetrized gradient-like operator
    [[d1, 0], [d2, d1], [0, d2]] and its degree-two compatibility operator."""
    return _spec("r2").complexes["SG"]


@cache
def _symmetric_gradient_injectivity() -> ellipticity.EllipticityReport:
    """The injectivity check of the symmetric gradient, whose one numeric
    search both fixtures that report it share."""
    return ellipticity.injectivity_check(symmetric_gradient_complex().op(0))


def symmetric_gradient_plane() -> dict:
    c = symmetric_gradient_complex()
    checks = {"complex": c.is_complex()}
    mu = MuSet.laplace_powers(c, mtilde={0: 1}, mhat={1: 1})
    for q in (0, 1):
        checks[f"weighted-laplacian-{q}"] = (
            generalized_laplacian(c, q, mu) == _spec("r2").operators[f"W{q}"])

    gram = laplacian(c, 0).principal_symbol()
    checks["gram-determinant"] = gram.body.determinant() == _scalar("z2", "gram_det")

    report = _symmetric_gradient_injectivity()
    checks["injectivity-numeric"] = (
        report.verdict == "numeric-pass"
        and report.minimum is not None
        and abs(report.minimum - 0.75) < 1e-6
    )
    return _report("symmetric-gradient-plane", checks,
                   {"ellipticity": report.to_json()})


def planar_flow_complex() -> Complex:
    """3-d complex behind plane-parallel flows: A couples the plane de Rham
    operators with the transverse derivative; B is its compatibility operator."""
    return _spec("r3").complexes["PF"]


def planar_flow() -> dict:
    c = planar_flow_complex()
    checks = {"complex": c.is_complex()}
    for q, k in ((0, 2), (1, 4), (2, 2)):
        checks[f"laplacian-{q}"] = (
            laplacian(c, q) == OperatorMatrix.identity(c.signature, k, _scalar("r3", "hodge"))
        )
    rep = ellipticity.injectivity_check(c.op(0))
    checks["injectivity-certified"] = rep.verdict == "certified-symbolic"
    return _report("planar-flow", checks, {"ellipticity": rep.to_json()})


def _imaginary_field() -> tuple:
    """The field document, its signature and the imaginary de Rham(3)
    complex lifted onto it."""
    field = _spec("field")
    return field, field.signature, imaginary_de_rham_complex(3).lift(field.signature)


def electromagnetic() -> dict:
    """Field equations for the electromagnetic field: the displayed 8x8
    self-adjoint system equals the top-degree Maxwell operator of the
    imaginary de Rham complex, and the wave factorization diagonalizes it."""
    field, sig, c = _imaginary_field()
    cinv = Poly.variable(sig.vars, "cinv")
    b = [cinv.scale(I)] * 4
    built = blockops.maxwell_time(c, 3, b)
    checks = {"display-equals-maxwell": field.operators["electromagnetic"] == built}

    # wave factorization: diagonal d'Alembertians cinv^2 dt^2 - Laplace
    checks["wave-factorization"] = blockops.verify_wave_factorization(c, 3, [cinv] * 4)
    m1 = blockops.maxwell_time(c, 3, [x.scale(-1) for x in b], variant=1)
    checks["wave-diagonal"] = m1 @ built == OperatorMatrix.identity(
        sig, 8, _scalar("field", "dalembert"))
    return _report("electromagnetic", checks)


def acoustics() -> dict:
    """Vortex and vortex-free compressible-flow systems: the 8x8 display is
    -i times the electromagnetic pattern, the 7x7 vortex-free system is its
    leading minor, and the viscous variant is a Stokes-type assembly."""
    field, sig, c = _imaginary_field()
    cinv, mu, dt = (Poly.variable(sig.vars, v) for v in ("cinv", "mu", "dt"))
    m3 = blockops.maxwell_time(c, 3, [cinv.scale(I)] * 4)
    built = m3.scale(-I)
    checks = {"vortex-display": field.operators["vortex"] == built}
    checks["vortex-free-7x7"] = (
        field.operators["vortex_free"] == OperatorMatrix(sig, built.body.block(0, 7, 0, 7)))
    # degree-2 block operator sits inside the top-degree one
    m2 = blockops.maxwell_time(c, 2, [cinv.scale(I)] * 3)
    checks["trailing-minor"] = blockops.trailing_minor(m3, 7) == m2

    real_c = de_rham_complex(3).lift(sig)
    diagonal = []
    for j in range(4):
        steady = generalized_laplacian(
            real_c, j, MuSet.scalar(real_c, mu)).scale(cinv)
        diagonal.append(OperatorMatrix.identity(sig, real_c.rank(j), cinv * dt).scale(I)
                        + steady.scale(I))
    built_viscous = blockops.assemble_stokes(c, 3, diagonal)
    checks["viscous-display"] = field.operators["viscous"] == built_viscous
    return _report("acoustics", checks)


def mass_quanta() -> dict:
    """8-block field system with mass term on the quadrupled imaginary
    de Rham complex: the displayed 16x16 matrix (degree-1 components first)
    equals -i times the degree-1 Stokes-type assembly."""
    field = _spec("field")
    sig = field.signature
    base = de_rham_complex(3).lift(sig)
    c = Complex([tensor_identity(base.op(q), 4).scale(I)
                 for q in range(base.length)])
    d0, d1 = field.operators["D0"], field.operators["D1"]
    checks = {
        "D0-self-adjoint": d0.formal_adjoint() == d0,
        "D1-self-adjoint": d1.formal_adjoint() == d1,
    }
    cinv_dt = Poly.variable(sig.vars, "cinv") * Poly.variable(sig.vars, "dt")
    time0 = OperatorMatrix.identity(sig, 4, cinv_dt).scale(I)
    time1 = OperatorMatrix.identity(sig, 12, cinv_dt).scale(I)
    stokes_block = blockops.assemble_stokes(c, 1, [time0 + d0, time1 + d1])
    checks["display-equals-stokes"] = field.operators["mass_quanta"] == stokes_block.scale(-I)
    return _report("mass-quanta", checks)


def stokes_classical() -> dict:
    """The classical viscous-flow system [[ (dt - mu L) I_3, grad ], [-div, 0]]
    is the parabolic degree-1 Stokes operator with b = (0, 1)."""
    field = _spec("field")
    c = de_rham_complex(3).lift(field.signature)
    mu_set = MuSet.scalar(c, c.op(0).poly("mu"), degrees=[1])
    built = blockops.stokes_time(c, 1, [0, 1], mu_set, kind="parabolic")
    checks = {"display-equals-stokes": field.operators["stokes"] == built}
    plan = ellipticity.dn_weights_stokes(c, 1, mu_set)
    checks["dn-plan"] = plan.s == (2, 1) and plan.t == (0, 1)
    return _report("stokes-classical-3", checks, {"plan": plan.to_json()})


def _viscous_flow(n: int, degrees: Sequence[int] | None = None) -> tuple[Complex, MuSet]:
    """de Rham(n) lifted onto the parameter mu, with the viscosity mu as a
    scalar weight at ``degrees`` (every degree for ``None``)."""
    c = de_rham_complex(n).lift(spatial_signature(n, params=["mu"]))
    return c, MuSet.scalar(c, c.op(0).poly("mu"), degrees=degrees)


def stokes_block_3() -> dict:
    """Degree-3 Stokes operator on the de Rham complex: block layout matches
    the displayed pattern (div / -grad / curl / curl / grad / -div couplings
    around generalized-Laplacian diagonal blocks)."""
    c, mu_set = _viscous_flow(3)
    s3 = blockops.stokes(c, 3, mu_set)
    part = blockops.BlockPartition.for_degree(c, 3)
    grad, div, curl = (_spec("r3").operators[k].lift(c.signature)
                       for k in ("grad", "div", "curl"))
    checks = {}
    expected = {
        (3, 2): div, (2, 3): -grad,
        (2, 1): curl, (1, 2): curl,
        (1, 0): grad, (0, 1): -div,
    }
    for (r, cdeg), op in expected.items():
        got = blockops.block_extract(part, s3, r, cdeg)
        checks[f"coupling-{r}{cdeg}"] = got == op
    for j in range(4):
        got = blockops.block_extract(part, s3, j, j)
        checks[f"diagonal-{j}"] = got == generalized_laplacian(c, j, mu_set)
    checks["self-pattern-zero"] = all(
        blockops.block_extract(part, s3, r, cdeg).is_zero
        for r in range(4) for cdeg in range(4) if abs(r - cdeg) > 1
    )
    return _report("stokes-block-3", checks)


def oseen_symbol() -> dict:
    """Fundamental symbol of the degree-1 viscous-flow operator in R^3 and
    R^2: the exact rational identities behind the Oseen tensor."""
    checks = {}
    extras = {}
    for n in (3, 2):
        c, mu_set = _viscous_flow(n, degrees=[1])
        f, rep = symbols.stokes_fundamental_symbol(c, 1, mu_set)
        checks[f"fundamental-r{n}"] = rep["ok"]
        ev = symbols.verify_evolution_identity(c, 1, mu_set)
        checks[f"evolution-r{n}"] = ev["ok"]
        if n == 3:
            extras["denominator"] = str(f.den)
            extras["evolution_denominator"] = ev["denominator"]
    return _report("oseen-symbol", checks, extras)


def parametrix_family() -> dict:
    """Maxwell symbol parametrices and the symbol factorization."""
    checks = {}
    for name, c in (("de-rham-2", de_rham_complex(2)), ("de-rham-3", de_rham_complex(3)),
                    ("dolbeault-2", dolbeault_complex(2))):
        for side in ("right", "left"):
            try:
                symbols.maxwell_parametrix_symbol(c, None, side)
                checks[f"{name}-{side}"] = True
            except ArithmeticError:
                checks[f"{name}-{side}"] = False
    cp, mu = _viscous_flow(3)
    for q in (1, 2, 3):
        checks[f"factorization-q{q}"] = symbols.verify_symbolic_factorization(
            cp, q, mu)["ok"]
    return _report("parametrix-family", checks)


def dn_weights() -> dict:
    """Weight plans for the standard fixtures."""
    checks = {}
    c3 = de_rham_complex(3)
    p0, p1 = ellipticity.dn_weights_maxwell(c3)
    checks["maxwell-de-rham-3"] = (
        p0.s == (1, 1, 1, 1) and p0.t == (0, 0, 0, 0)
        and p1.s == (1, 1, 1, 1) and p1.t == (0, 0, 0, 0)
    )
    cp, mu_set = _viscous_flow(3, degrees=[1])
    plan1 = ellipticity.dn_weights_stokes(cp, 1)
    plan2 = ellipticity.dn_weights_stokes(cp, 2)
    checks["stokes-q1"] = plan1.s == (2, 1) and plan1.t == (0, 1)
    checks["stokes-q2"] = plan2.s == (2, 1, 2) and plan2.t == (0, 1, 0)

    s1 = blockops.stokes(cp, 1, mu_set)
    part = blockops.BlockPartition.for_degree(cp, 1)
    rep = ellipticity.dn_check(s1, part, ellipticity.dn_weights_stokes(cp, 1, mu_set))
    checks["stokes-q1-dn-elliptic"] = rep.ok
    return _report("dn-weights", checks, {"stokes_q1": rep.to_json()})


def ellipticity_suite() -> dict:
    """Certified and numeric ellipticity verdicts on the corpus."""
    checks = {}
    extras = {}
    c3 = de_rham_complex(3)
    ssig = c3.signature.symbol_signature()
    checks["de-rham-delta-certified"] = all(
        symbols.delta(c3, q) == SymbolMatrix.identity(ssig, c3.rank(q), _scalar("z3", "norm2"))
        for q in range(c3.length + 1))

    rep = _symmetric_gradient_injectivity()
    checks["symmetric-gradient-injective"] = (
        rep.verdict == "numeric-pass" and abs(rep.minimum - 0.75) < 1e-6
    )
    extras["symmetric_gradient"] = rep.to_json()
    sg = symmetric_gradient_complex()
    rep2 = ellipticity.strong_ellipticity_check(
        generalized_laplacian(sg, 1, MuSet.laplace_powers(sg, mtilde={0: 1},
                                                          mhat={1: 1})))
    checks["symmetric-gradient-strong"] = rep2.verdict == "numeric-pass"
    extras["symmetric_gradient_strong"] = rep2.to_json()
    return _report("ellipticity-suite", checks, extras)


def syzygy_suite() -> dict:
    """Compatibility operators agree with the classical ones."""
    checks = {}
    grad = _spec("r3").operators["grad"]
    b = syzygy.compatibility_operator(grad)
    curl = de_rham_complex(3).op(1)
    checks["grad-curl"] = syzygy.module_equivalent(b, curl)
    ops = syzygy.extend_to_complex(grad)
    checks["grad-resolution-ranks"] = (
        [ops[0].cols] + [o.rows for o in ops] == [1, 3, 3, 1]
        and Complex(ops).is_complex()
    )
    sg = symmetric_gradient_complex()
    checks["symmetric-gradient"] = syzygy.module_equivalent(
        syzygy.compatibility_operator(sg.op(0)), sg.op(1))
    pf = planar_flow_complex()
    checks["planar-flow"] = syzygy.module_equivalent(
        syzygy.compatibility_operator(pf.op(0)), pf.op(1))
    return _report("syzygy-suite", checks)


FIXTURES: dict[str, Callable[[], dict]] = {
    "complex-family": complex_family,
    "laplacian-family": laplacian_family,
    "symmetric-gradient-plane": symmetric_gradient_plane,
    "planar-flow": planar_flow,
    "electromagnetic": electromagnetic,
    "acoustics": acoustics,
    "mass-quanta": mass_quanta,
    "stokes-classical": stokes_classical,
    "stokes-block-3": stokes_block_3,
    "oseen-symbol": oseen_symbol,
    "parametrix-family": parametrix_family,
    "dn-weights": dn_weights,
    "ellipticity-suite": ellipticity_suite,
    "syzygy-suite": syzygy_suite,
}


def run_all(names: Sequence[str] | None = None) -> dict:
    reports = []
    for name in sorted(names or FIXTURES):
        reports.append(FIXTURES[name]())
    return {"fixtures": reports, "ok": all(r["ok"] for r in reports)}


__all__ = ["FIXTURES", "run_all"] + [fn.__name__ for fn in FIXTURES.values()]
