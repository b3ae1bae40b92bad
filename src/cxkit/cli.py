"""Command-line interface.

``cxkit <command> [--spec FILE] [--json OUT] [command options]``

Commands operate on a spec document (see :mod:`cxkit.dsl`) or on the bundled
fixture corpus.  All reports are emitted as deterministic JSON (sorted keys)
plus a short human-readable summary on stderr; the exit status is 0 only when
every requested verdict passes.  Only ``ellipticity`` takes ``--seed``;
``--budget`` counts Sobol samples for ``ellipticity`` and S-pairs for
``syzygy`` and ``extend``, and no other command takes it.  Each command
imports its own modules when it runs: ``verify`` and ``laplacian`` need only
``dsl`` and ``complexes``.  Only the commands that import ``cxkit.ellipticity``
(``ellipticity``, ``dn-weights`` and ``fixtures``) load ``dataclasses``, and
numpy loads only for a numeric check (``ellipticity`` and ``fixtures``).
"""

from __future__ import annotations

import argparse
import json
import sys

from cxkit import dsl
from cxkit.complexes import Complex, MuSet, check_coherence, generalized_laplacian

# ``ellipticity.DEFAULT_SEED``, ``ellipticity.DEFAULT_BUDGET`` and
# ``syzygy.DEFAULT_PAIR_BUDGET``, written out so that the parser imports
# neither module (``tests/test_cli.py`` pins them to the library's).
_DEFAULT_SEED, _DEFAULT_SAMPLES, _DEFAULT_PAIRS = 20240, 20_000, 10_000


def _op_json(op) -> dict:
    return {
        "rows": op.rows,
        "cols": op.cols,
        "entries": [[str(op[i, j]) for j in range(op.cols)] for i in range(op.rows)],
    }


def _load_doc(args) -> dsl.SpecDocument:
    if not args.spec:
        raise ValueError("this command requires --spec FILE")
    with open(args.spec, "r", encoding="utf-8") as fh:
        return dsl.parse(fh.read())


_SINGULAR = {"complexes": "complex", "operators": "operator"}


def _pick(doc: dsl.SpecDocument, kind: str, name: str | None):
    """The ``--name`` entry of the spec's ``kind`` ("complexes" or
    "operators"), or its only one when no name is given."""
    found = getattr(doc, kind)
    if name is None:
        if len(found) != 1:
            raise ValueError(f"--name required when the spec defines several {kind}")
        name = next(iter(found))
    if name not in found:
        raise ValueError(f"unknown {_SINGULAR[kind]} {name!r}")
    return name, found[name]


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(args) -> dict:
    doc = _load_doc(args)
    reports = []
    for name, cplx in doc.complexes.items():
        entry = {
            "complex": name,
            "compositions": [{"degree": q, "ok": ok} for q, ok in cplx.verify()],
        }
        mu = doc.mu_set(name)
        if mu is not None:
            entry["coherence"] = [
                {"degree": q, "ok": check_coherence(cplx, mu, q)}
                for q in range(cplx.length - 1)
            ]
        entry["ok"] = all(c["ok"] for c in entry["compositions"]) and all(
            c["ok"] for c in entry.get("coherence", []))
        reports.append(entry)
    return {"command": "verify", "complexes": reports,
            "ok": all(r["ok"] for r in reports)}


def cmd_laplacian(args) -> dict:
    doc = _load_doc(args)
    name, cplx = _pick(doc, "complexes", args.name)
    mu = doc.mu_set(name) or MuSet.identity(cplx)
    degrees = [args.degree] if args.degree is not None else range(cplx.length + 1)
    out = []
    for q in degrees:
        op = generalized_laplacian(cplx, q, mu)
        out.append({"degree": q, "operator": _op_json(op)})
    return {"command": "laplacian", "complex": name, "laplacians": out, "ok": True}


def cmd_maxwell(args) -> dict:
    from cxkit import blockops
    doc = _load_doc(args)
    name, cplx = _pick(doc, "complexes", args.name)
    q = args.degree if args.degree is not None else cplx.length
    op = blockops.maxwell(cplx, q, doc.mu_set(name), args.variant)
    return {"command": "maxwell", "complex": name, "degree": q,
            "variant": args.variant, "operator": _op_json(op), "ok": True}


def cmd_stokes(args) -> dict:
    from cxkit import blockops
    doc = _load_doc(args)
    name, cplx = _pick(doc, "complexes", args.name)
    q = args.degree if args.degree is not None else cplx.length
    op = blockops.stokes(cplx, q, doc.mu_set(name))
    return {"command": "stokes", "complex": name, "degree": q,
            "operator": _op_json(op), "ok": True}


def cmd_ellipticity(args) -> dict:
    from cxkit import ellipticity
    doc = _load_doc(args)
    name, op = _pick(doc, "operators", args.name)
    kinds = {
        "petrovskii": ellipticity.petrovskii_check,
        "strong": ellipticity.strong_ellipticity_check,
        "injectivity": ellipticity.injectivity_check,
    }
    check = kinds[args.kind]
    report = check(op, seed=args.seed, budget=args.budget)
    return {"command": "ellipticity", "operator": name, "kind": args.kind,
            "report": report.to_json(), "ok": report.ok}


def cmd_dn_weights(args) -> dict:
    if args.degree is not None and not args.stokes:
        raise ValueError("--degree needs --stokes: the Maxwell plans span every degree")
    from cxkit import ellipticity
    doc = _load_doc(args)
    name, cplx = _pick(doc, "complexes", args.name)
    mu = doc.mu_set(name)
    if args.stokes:
        q = args.degree if args.degree is not None else cplx.length
        plan = ellipticity.dn_weights_stokes(cplx, q, mu)
        return {"command": "dn-weights", "complex": name, "scheme": "stokes",
                "degree": q, "plan": plan.to_json(), "ok": True}
    p0, p1 = ellipticity.dn_weights_maxwell(cplx, mu)
    return {"command": "dn-weights", "complex": name, "scheme": "maxwell",
            "variant0": p0.to_json(), "variant1": p1.to_json(), "ok": True}


def cmd_parametrix(args) -> dict:
    from cxkit import symbols
    doc = _load_doc(args)
    name, cplx = _pick(doc, "complexes", args.name)
    mu = doc.mu_set(name)
    try:
        f = symbols.maxwell_parametrix_symbol(cplx, mu, args.side)
        ok = True
        payload = f.to_json()
    except ArithmeticError as exc:
        ok = False
        payload = {"error": str(exc)}
    return {"command": "parametrix", "complex": name, "side": args.side,
            "symbol": payload, "ok": ok}


def cmd_syzygy(args) -> dict:
    from cxkit import syzygy
    doc = _load_doc(args)
    name, op = _pick(doc, "operators", args.name)
    b = syzygy.compatibility_operator(op, budget=args.budget)
    sound = (b @ op).is_zero if b.rows else True
    return {"command": "syzygy", "operator": name,
            "compatibility": _op_json(b), "composition_zero": sound, "ok": sound}


def cmd_extend(args) -> dict:
    from cxkit import syzygy
    doc = _load_doc(args)
    name, op = _pick(doc, "operators", args.name)
    ops = syzygy.extend_to_complex(op, max_steps=args.max_steps, budget=args.budget)
    cplx = Complex(ops)
    return {
        "command": "extend", "operator": name,
        "ranks": list(cplx.ranks),
        "operators": [_op_json(o) for o in ops],
        "ok": cplx.is_complex(),
    }


def cmd_fixtures(args) -> dict:
    from cxkit import fixtures
    names = [args.suite] if args.suite else None
    if args.suite and args.suite not in fixtures.FIXTURES:
        raise ValueError(
            f"unknown suite {args.suite!r}; available: "
            + ", ".join(sorted(fixtures.FIXTURES)))
    bundle = fixtures.run_all(names)
    bundle["command"] = "fixtures"
    return bundle


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxkit",
        description="symbolic toolkit for block differential operators on complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, spec=True):
        if spec:
            p.add_argument("--spec", help="spec document file")
        p.add_argument("--json", dest="json_out", help="write the JSON report here")
        return p

    common(sub.add_parser("verify", help="complex property and mu coherence"))

    p = common(sub.add_parser("laplacian", help="(generalized) Laplacians"))
    p.add_argument("--name")
    p.add_argument("--degree", type=int)

    p = common(sub.add_parser("maxwell", help="Maxwell block operator"))
    p.add_argument("--name")
    p.add_argument("--degree", type=int)
    p.add_argument("--variant", type=int, default=0, choices=(0, 1))

    p = common(sub.add_parser("stokes", help="Stokes block operator"))
    p.add_argument("--name")
    p.add_argument("--degree", type=int)

    p = common(sub.add_parser("ellipticity", help="ellipticity checks"))
    p.add_argument("--name")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED,
                   help="Sobol scrambling seed of the numeric search")
    p.add_argument("--budget", type=int, default=_DEFAULT_SAMPLES,
                   help="Sobol samples of the numeric search")
    p.add_argument("--kind", default="petrovskii",
                   choices=("petrovskii", "strong", "injectivity"))

    p = common(sub.add_parser("dn-weights", help="weight plans"))
    p.add_argument("--name")
    p.add_argument("--stokes", action="store_true")
    p.add_argument("--degree", type=int)

    p = common(sub.add_parser("parametrix", help="symbol parametrix"))
    p.add_argument("--name")
    p.add_argument("--side", default="right", choices=("right", "left"))

    p = common(sub.add_parser("syzygy", help="compatibility operator"))
    p.add_argument("--name")
    p.add_argument("--budget", type=int, default=_DEFAULT_PAIRS,
                   help="S-pairs Buchberger may process")

    p = common(sub.add_parser("extend", help="extend to a compatibility complex"))
    p.add_argument("--name")
    p.add_argument("--budget", type=int, default=_DEFAULT_PAIRS,
                   help="S-pairs Buchberger may process per step")
    p.add_argument("--max-steps", type=int, default=8,
                   help="compatibility operators to compute at most (at least 1)")

    p = common(sub.add_parser("fixtures", help="run the bundled corpus"), spec=False)
    p.add_argument("--suite", help="run a single named fixture")
    return parser


_COMMANDS = {name[4:].replace("_", "-"): fn
             for name, fn in globals().items() if name.startswith("cmd_")}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        report = {"command": args.command, "error": str(exc), "ok": False}
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    status = "pass" if report.get("ok") else "fail"
    print(f"cxkit {args.command}: {status}", file=sys.stderr)
    return 0 if report.get("ok") else 1


if __name__ == "__main__":
    raise SystemExit(main())
