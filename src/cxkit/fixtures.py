"""Fixture corpus: hand-entered reference systems and their reconstruction.

Every fixture hand-enters a classical display (electromagnetic field system,
acoustics, mass-quanta field system, classical Stokes, ...) independently of
the block-operator assembly code, rebuilds the same operator through the
package API, and checks exact equality plus the associated identities.  Each
fixture function returns a JSON-friendly report ``{"name", "checks", "ok"}``;
``run_all`` collects them in a deterministic bundle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Callable, Sequence

from cxkit import blockops, ellipticity, symbols, syzygy
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
from cxkit.diffop import (OperatorMatrix, Signature, SymbolMatrix, spatial_signature,
                          tensor_identity)
from cxkit.poly import GaussianRational, Poly, PolyMatrix

I = GaussianRational.i()


# ---------------------------------------------------------------------------
# Display-entry helpers (independent of the block assembly code)


def _var(sig: Signature, name: str) -> Poly:
    return Poly.variable(sig.vars, name)


def _grad(sig: Signature) -> OperatorMatrix:
    return OperatorMatrix.from_entries(
        sig, [[_var(sig, v)] for v in sig.spatial])


def _div(sig: Signature) -> OperatorMatrix:
    return OperatorMatrix.from_entries(
        sig, [[_var(sig, v) for v in sig.spatial]])


def _curl(sig: Signature) -> OperatorMatrix:
    d1, d2, d3 = (_var(sig, v) for v in sig.spatial)
    z = Poly.zero(sig.vars)
    return OperatorMatrix.from_entries(
        sig, [[z, -d3, d2], [d3, z, -d1], [-d2, d1, z]])


def _laplace(sig: Signature) -> Poly:
    total = Poly.zero(sig.vars)
    for v in sig.spatial:
        d = _var(sig, v)
        total = total + d * d
    return total


def _assemble(sig: Signature, rows: Sequence[Sequence[OperatorMatrix]]
              ) -> OperatorMatrix:
    """Glue a matrix of operator blocks into one operator."""
    width = sum(blk.cols for blk in rows[0])
    placed = []
    r0 = 0
    for block_row in rows:
        height = block_row[0].rows
        if (any(blk.rows != height for blk in block_row)
                or sum(blk.cols for blk in block_row) != width):
            raise ValueError("ragged block row")
        starts = accumulate((blk.cols for blk in block_row), initial=0)
        placed += [(blk.body, r0, c0) for blk, c0 in zip(block_row, starts)]
        r0 += height
    return OperatorMatrix(sig, PolyMatrix.place(sig.vars, r0, width, placed))


def _leading_minor(op: OperatorMatrix, size: int) -> OperatorMatrix:
    return OperatorMatrix(op.signature, op.body.block(0, size, 0, size))


def _reverse_blocks(op: OperatorMatrix, ranks: Sequence[int]) -> OperatorMatrix:
    """Permute a block matrix from one block order to the reversed one."""
    n = op.rows
    if sum(ranks) != n or n != op.cols:
        raise ValueError("rank profile does not match the operator")
    spans = [(r0, r0 + k) for r0, k in zip(accumulate(ranks, initial=0), ranks)]
    return OperatorMatrix(op.signature, PolyMatrix.place(op.body.vars, n, n, [
        (op.body.block(r0, r1, c0, c1), n - r1, n - c1)
        for r0, r1 in spans for c0, c1 in spans]))


def _scale_last_row(op: OperatorMatrix, factor) -> OperatorMatrix:
    n, m = op.rows, op.cols
    return OperatorMatrix(op.signature, PolyMatrix.place(op.body.vars, n, m, [
        (op.body.block(0, n - 1, 0, m), 0, 0),
        (op.body.block(n - 1, n, 0, m).scale(factor), n - 1, 0)]))


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
        c = de_rham_complex(n)
        checks[f"de-rham-{n}"] = _scalar_laplacians(c, -_laplace(c.signature))
    for p in (2, 3):
        c = powered_de_rham_complex(3, p)
        power_sum = Poly.zero(c.signature.vars)
        for v in c.signature.spatial:
            power_sum = power_sum + _var(c.signature, v) ** (2 * p)
        checks[f"powered-de-rham-3-p{p}"] = _scalar_laplacians(
            c, power_sum.scale(GaussianRational.of(Fraction((-1) ** p))))
    c = dolbeault_complex(2)
    checks["dolbeault-2"] = _scalar_laplacians(
        c, _laplace(c.signature).scale(GaussianRational.of(Fraction(-1, 4))))
    c = planar_flow_complex()
    checks["planar-flow"] = _scalar_laplacians(c, -_laplace(c.signature))
    return _report("laplacian-family", checks)


def symmetric_gradient_complex() -> Complex:
    """Plane complex generated by the symmetrized gradient-like operator
    [[d1, 0], [d2, d1], [0, d2]] and its degree-two compatibility operator."""
    sig = spatial_signature(2)
    d1, d2 = _var(sig, "d1"), _var(sig, "d2")
    z = Poly.zero(sig.vars)
    a = OperatorMatrix.from_entries(sig, [[d1, z], [d2, d1], [z, d2]])
    b = OperatorMatrix.from_entries(sig, [[d2 * d2, -(d1 * d2), d1 * d1]])
    return Complex([a, b])


@cache
def _symmetric_gradient_injectivity() -> ellipticity.EllipticityReport:
    """The injectivity check of the symmetric gradient, whose one numeric
    search both fixtures that report it share."""
    return ellipticity.injectivity_check(symmetric_gradient_complex().op(0))


def symmetric_gradient_plane() -> dict:
    c = symmetric_gradient_complex()
    sig = c.signature
    d1, d2 = _var(sig, "d1"), _var(sig, "d2")
    lap = _laplace(sig)
    checks = {"complex": c.is_complex()}

    mu = MuSet.laplace_powers(c, mtilde={0: 1}, mhat={1: 1})
    # displayed weighted Laplacian at degree 0: [[L^2, d1 L d2], [d1 L d2, L^2]]
    cross = d1 * lap * d2
    disp0 = OperatorMatrix.from_entries(
        sig, [[lap * lap, cross], [cross, lap * lap]])
    checks["weighted-laplacian-0"] = generalized_laplacian(c, 0, mu) == disp0
    # displayed weighted Laplacian at degree 1
    l2 = lap * lap
    p12 = d1 * d1 * d2 * d2
    disp1 = OperatorMatrix.from_entries(sig, [
        [l2 - p12, d1 ** 3 * d2, p12],
        [d1 ** 3 * d2, l2 + p12, d1 * d2 ** 3],
        [p12, d1 * d2 ** 3, l2 - p12],
    ])
    checks["weighted-laplacian-1"] = generalized_laplacian(c, 1, mu) == disp1

    # det sigma(A*A) = |zeta|^4 - zeta1^2 zeta2^2, exactly
    gram = (c.op(0).formal_adjoint() @ c.op(0)).principal_symbol()
    det = gram.body.determinant()
    ssig = sig.symbol_signature()
    z1, z2 = (Poly.variable(ssig.vars, v) for v in ssig.spatial)
    target = (z1 * z1 + z2 * z2) ** 2 - z1 * z1 * z2 * z2
    checks["gram-determinant"] = det == target

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
    sig = spatial_signature(3)
    d1, d2, d3 = (_var(sig, v) for v in sig.spatial)
    z = Poly.zero(sig.vars)
    a = OperatorMatrix.from_entries(
        sig, [[z, -d3], [d3, z], [-d2, d1], [-d1, -d2]])
    b = OperatorMatrix.from_entries(
        sig, [[d2, -d1, z, -d3], [d1, d2, d3, z]])
    return Complex([a, b])


def planar_flow() -> dict:
    c = planar_flow_complex()
    lap = _laplace(c.signature)
    checks = {"complex": c.is_complex()}
    for q, k in ((0, 2), (1, 4), (2, 2)):
        checks[f"laplacian-{q}"] = (
            laplacian(c, q) == OperatorMatrix.identity(c.signature, k, -lap)
        )
    rep = ellipticity.injectivity_check(c.op(0))
    checks["injectivity-certified"] = rep.verdict == "certified-symbolic"
    return _report("planar-flow", checks, {"ellipticity": rep.to_json()})


def _electromagnetic_display(sig: Signature, cinv: Poly, *, viscous: Poly | None = None
                             ) -> OperatorMatrix:
    """The 8x8 field-system pattern, descending degree (scalar, 3, 3, scalar).

    Diagonal blocks are cinv*d/dt (optionally cinv*(d/dt - mu*Laplace)); the
    off-diagonal couplings are div/grad/curl with the displayed signs.  The
    returned operator carries the overall factor i that makes it self-adjoint.
    """
    dt = _var(sig, sig.time)
    diag_scalar = cinv * dt
    if viscous is not None:
        diag_scalar = cinv * (dt - viscous * _laplace(sig))
    grad, div, curl = _grad(sig), _div(sig), _curl(sig)
    z13, z31 = OperatorMatrix.zero(sig, 1, 3), OperatorMatrix.zero(sig, 3, 1)
    z11, z33 = OperatorMatrix.zero(sig, 1, 1), OperatorMatrix.zero(sig, 3, 3)
    s1 = OperatorMatrix.identity(sig, 1, diag_scalar)
    s3 = OperatorMatrix.identity(sig, 3, diag_scalar)
    return _assemble(sig, [
        [s1, div, z13, z11],
        [grad, s3, curl, z31],
        [z31, -curl, s3, grad],
        [z11, z13, div, s1],
    ]).scale(I)


def electromagnetic() -> dict:
    """Field equations for the electromagnetic field: the displayed 8x8
    self-adjoint system equals the top-degree Maxwell operator of the
    imaginary de Rham complex, and the wave factorization diagonalizes it."""
    c = imaginary_de_rham_complex(3, time=True, params=["cinv"])
    sig = c.signature
    cinv = _var(sig, "cinv")
    display = _electromagnetic_display(sig, cinv)
    built = blockops.maxwell_time(c, 3, [cinv.scale(I)] * 4)
    checks = {"display-equals-maxwell": display == built}

    # wave factorization: diagonal d'Alembertians cinv^2 dt^2 - Laplace
    b = [cinv.scale(I)] * 4
    checks["wave-factorization"] = blockops.verify_wave_factorization(c, 3, [cinv] * 4)
    m1 = blockops.maxwell_time(c, 3, [x.scale(-1) for x in b], variant=1)
    m0 = blockops.maxwell_time(c, 3, b, variant=0)
    product = m1 @ m0
    dt = _var(sig, sig.time)
    dalembert = cinv * cinv * dt * dt - _laplace(sig)
    checks["wave-diagonal"] = product == OperatorMatrix.identity(sig, 8, dalembert)
    return _report("electromagnetic", checks)


def acoustics() -> dict:
    """Vortex-free and vortex compressible-flow systems: the 8x8 display is
    -i times the electromagnetic pattern, the 7x7 vortex-free system is its
    leading minor, and the viscous variant is a Stokes-type assembly."""
    c = imaginary_de_rham_complex(3, time=True, params=["cinv", "mu"])
    sig = c.signature
    cinv = _var(sig, "cinv")
    mu = _var(sig, "mu")
    pattern = _electromagnetic_display(sig, cinv)

    vortex8 = pattern.scale(-I)  # the display without the imaginary factor
    built = blockops.maxwell_time(c, 3, [cinv.scale(I)] * 4).scale(-I)
    checks = {"vortex-display": vortex8 == built}
    checks["vortex-free-7x7"] = (
        _leading_minor(vortex8, 7) == _leading_minor(built, 7)
        and _leading_minor(vortex8, 7).rows == 7
    )
    # degree-2 block operator sits inside the top-degree one
    m2 = blockops.maxwell_time(c, 2, [cinv.scale(I)] * 3)
    m3 = blockops.maxwell_time(c, 3, [cinv.scale(I)] * 4)
    checks["trailing-minor"] = blockops.trailing_minor(m3, 7) == m2

    viscous_display = _electromagnetic_display(sig, cinv, viscous=mu)
    real_c = de_rham_complex(3, time=True, params=["cinv", "mu"])
    dt = _var(sig, sig.time)
    diagonal = []
    for j in range(4):
        steady = generalized_laplacian(
            real_c, j, MuSet.scalar(real_c, mu)).scale(cinv)
        diagonal.append(OperatorMatrix.identity(sig, real_c.rank(j), cinv * dt).scale(I)
                        + steady.scale(I))
    built_viscous = blockops.assemble_stokes(c, 3, diagonal, a=1).scale(1)
    # off-diagonal of the display already carries i through the pattern scale
    checks["viscous-display"] = viscous_display == built_viscous
    return _report("acoustics", checks)


def mass_quanta() -> dict:
    """8-block field system with mass term on the quadrupled imaginary
    de Rham complex: the displayed 16x16 matrix (degree-0 components first)
    equals -i times the degree-1 Stokes-type assembly."""
    base = de_rham_complex(3, time=True, params=["cinv", "M"])
    sig = base.signature
    quad_ops = [tensor_identity(base.op(q), 4, outer=True).scale(I)
                for q in range(base.length)]
    c = Complex(quad_ops)
    cinv, m = _var(sig, "cinv"), _var(sig, "M")
    dt = _var(sig, sig.time)

    z11, z13 = OperatorMatrix.zero(sig, 1, 1), OperatorMatrix.zero(sig, 1, 3)
    z31, z33 = OperatorMatrix.zero(sig, 3, 1), OperatorMatrix.zero(sig, 3, 3)
    m1 = OperatorMatrix.identity(sig, 1, m)
    m3 = OperatorMatrix.identity(sig, 3, m)
    grad, div, curl = _grad(sig), _div(sig), _curl(sig)
    t1 = OperatorMatrix.identity(sig, 1, cinv * dt)
    t3 = OperatorMatrix.identity(sig, 3, cinv * dt)

    display = _assemble(sig, [
        [t1, z11, z11, -m1, div, z13, z13, z13],
        [z11, t1, m1, z11, z13, div, z13, z13],
        [z11, -m1, t1, z11, z13, z13, div, z13],
        [m1, z11, z11, t1, z13, z13, z13, div],
        [grad, z31, z31, z31, t3, -curl, z33, m3],
        [z31, grad, z31, z31, curl, t3, -m3, z33],
        [z31, z31, grad, z31, z33, m3, t3, curl],
        [z31, z31, z31, grad, -m3, z33, -curl, t3],
    ])

    # D_0 and D_1 with the displayed sign pattern (formally self-adjoint)
    d0 = _assemble(sig, [
        [z11, z11, z11, -m1],
        [z11, z11, m1, z11],
        [z11, -m1, z11, z11],
        [m1, z11, z11, z11],
    ]).scale(I)
    d1 = _assemble(sig, [
        [z33, -curl, z33, m3],
        [curl, z33, -m3, z33],
        [z33, m3, z33, curl],
        [-m3, z33, -curl, z33],
    ]).scale(I)
    checks = {
        "D0-self-adjoint": d0.formal_adjoint() == d0,
        "D1-self-adjoint": d1.formal_adjoint() == d1,
    }
    time0 = OperatorMatrix.identity(sig, 4, cinv * dt).scale(I)
    time1 = OperatorMatrix.identity(sig, 12, cinv * dt).scale(I)
    stokes_block = blockops.assemble_stokes(c, 1, [time0 + d0, time1 + d1], a=1)
    rebuilt = _reverse_blocks(stokes_block.scale(-I), (12, 4))
    checks["display-equals-stokes"] = display == rebuilt
    return _report("mass-quanta", checks)


def stokes_classical(n: int = 3) -> dict:
    """The classical viscous-flow system [[ (dt - mu L) I_n, grad ], [div, 0]]
    is the parabolic degree-1 Stokes operator with b = (0, 1), up to the sign
    of the divergence row."""
    c = de_rham_complex(n, time=True, params=["mu"])
    sig = c.signature
    mu = _var(sig, "mu")
    dt = _var(sig, sig.time)
    grad, div = _grad(sig), _div(sig)
    display = _assemble(sig, [
        [OperatorMatrix.identity(sig, n, dt - mu * _laplace(sig)), grad],
        [div, OperatorMatrix.zero(sig, 1, 1)],
    ])
    mu_set = MuSet.scalar(c, mu, degrees=[1])
    built = blockops.stokes_time(c, 1, [0, 1], mu_set, kind="parabolic")
    checks = {"display-equals-stokes": display == _scale_last_row(built, -1)}
    plan = ellipticity.dn_weights_stokes(c, 1, mu_set)
    checks["dn-plan"] = plan.s == (2, 1) and plan.t == (0, 1)
    return _report(f"stokes-classical-{n}", checks, {"plan": plan.to_json()})


def stokes_block_3() -> dict:
    """Degree-3 Stokes operator on the de Rham complex: block layout matches
    the displayed pattern (div / -grad / curl / curl / grad / -div couplings
    around generalized-Laplacian diagonal blocks)."""
    c = de_rham_complex(3, params=["mu"])
    sig = c.signature
    mu = _var(sig, "mu")
    mu_set = MuSet.scalar(c, mu)
    s3 = blockops.stokes(c, 3, mu_set)
    part = blockops.BlockPartition.for_degree(c, 3)
    grad, div, curl = _grad(sig), _div(sig), _curl(sig)
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
        c = de_rham_complex(n, params=["mu"])
        mu_set = MuSet.scalar(c, c.op(0).poly("mu"), degrees=[1])
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
    cp = de_rham_complex(3, params=["mu"])
    mu = MuSet.scalar(cp, cp.op(0).poly("mu"))
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
    cp = de_rham_complex(3, params=["mu"])
    plan1 = ellipticity.dn_weights_stokes(cp, 1)
    plan2 = ellipticity.dn_weights_stokes(cp, 2)
    checks["stokes-q1"] = plan1.s == (2, 1) and plan1.t == (0, 1)
    checks["stokes-q2"] = plan2.s == (2, 1, 2) and plan2.t == (0, 1, 0)

    mu_set = MuSet.scalar(cp, cp.op(0).poly("mu"), degrees=[1])
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
        symbols.delta(c3, q) == SymbolMatrix.identity(ssig, c3.rank(q), _laplace(ssig))
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
    sig3 = spatial_signature(3)
    grad = _grad(sig3)
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
