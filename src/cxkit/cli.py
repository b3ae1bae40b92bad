"""Command-line interface.

``cxkit <command> [--spec FILE] [--json OUT] [command options]``

Commands operate on a spec document (see :mod:`cxkit.dsl`) or on the bundled
fixture corpus.  All reports are emitted as deterministic JSON (sorted keys)
plus a short human-readable summary on stderr; the exit status is 0 only when
every requested verdict passes.  Each command's help and options come from
one table, ``_OPTIONS``, after ``--spec`` (every command but ``fixtures``)
and ``--json``; a spec command reads its document, and the entry ``--name``
picks, through ``_pick``.  Only ``ellipticity`` takes ``--seed``;
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
    return {"rows": op.rows, "cols": op.cols,
            "entries": [[str(op[i, j]) for j in range(op.cols)] for i in range(op.rows)]}


_SINGULAR = {"complexes": "complex", "operators": "operator"}


def _pick(args, kind: str | None = None):
    """``(doc, name, entry)``: the ``--spec`` document and its ``--name``
    entry of ``kind`` ("complexes" or "operators"), or its only one when no
    name is given; with no ``kind``, ``(doc, None, None)``."""
    if not args.spec:
        raise ValueError("this command requires --spec FILE")
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = dsl.parse(fh.read())
    if kind is None:
        return doc, None, None
    found, name = getattr(doc, kind), args.name
    if name is None:
        if not found:
            raise ValueError(f"the spec defines no {_SINGULAR[kind]}")
        if len(found) != 1:
            raise ValueError(f"--name required when the spec defines several {kind}")
        name = next(iter(found))
    if name not in found:
        raise ValueError(f"unknown {_SINGULAR[kind]} {name!r}")
    return doc, name, found[name]


def _degree(args, cplx: Complex) -> int:
    """``--degree``, by default the top degree of ``cplx``."""
    return cplx.length if args.degree is None else args.degree


# ---------------------------------------------------------------------------
# Commands


def cmd_verify(args) -> dict:
    doc = _pick(args)[0]
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
    doc, name, cplx = _pick(args, "complexes")
    mu = doc.mu_set(name) or MuSet.identity(cplx)
    degrees = [args.degree] if args.degree is not None else range(cplx.length + 1)
    out = [{"degree": q, "operator": _op_json(generalized_laplacian(cplx, q, mu))}
           for q in degrees]
    return {"command": "laplacian", "complex": name, "laplacians": out, "ok": True}


def cmd_maxwell(args) -> dict:
    from cxkit import blockops
    doc, name, cplx = _pick(args, "complexes")
    q = _degree(args, cplx)
    op = blockops.maxwell(cplx, q, doc.mu_set(name), args.variant)
    return {"command": "maxwell", "complex": name, "degree": q,
            "variant": args.variant, "operator": _op_json(op), "ok": True}


def cmd_stokes(args) -> dict:
    from cxkit import blockops
    doc, name, cplx = _pick(args, "complexes")
    q = _degree(args, cplx)
    op = blockops.stokes(cplx, q, doc.mu_set(name))
    return {"command": "stokes", "complex": name, "degree": q,
            "operator": _op_json(op), "ok": True}


def cmd_ellipticity(args) -> dict:
    from cxkit import ellipticity
    _, name, op = _pick(args, "operators")
    check = {"petrovskii": ellipticity.petrovskii_check,
             "strong": ellipticity.strong_ellipticity_check,
             "injectivity": ellipticity.injectivity_check}[args.kind]
    report = check(op, seed=args.seed, budget=args.budget)
    return {"command": "ellipticity", "operator": name, "kind": args.kind,
            "report": report.to_json(), "ok": report.ok}


def cmd_dn_weights(args) -> dict:
    if args.degree is not None and not args.stokes:
        raise ValueError("--degree needs --stokes: the Maxwell plans span every degree")
    from cxkit import ellipticity
    doc, name, cplx = _pick(args, "complexes")
    mu = doc.mu_set(name)
    if args.stokes:
        q = _degree(args, cplx)
        plan = ellipticity.dn_weights_stokes(cplx, q, mu)
        return {"command": "dn-weights", "complex": name, "scheme": "stokes",
                "degree": q, "plan": plan.to_json(), "ok": True}
    p0, p1 = ellipticity.dn_weights_maxwell(cplx, mu)
    return {"command": "dn-weights", "complex": name, "scheme": "maxwell",
            "variant0": p0.to_json(), "variant1": p1.to_json(), "ok": True}


def cmd_parametrix(args) -> dict:
    from cxkit import symbols
    doc, name, cplx = _pick(args, "complexes")
    try:
        f = symbols.maxwell_parametrix_symbol(cplx, doc.mu_set(name), args.side)
        ok, payload = True, f.to_json()
    except ArithmeticError as exc:
        ok, payload = False, {"error": str(exc)}
    return {"command": "parametrix", "complex": name, "side": args.side,
            "symbol": payload, "ok": ok}


def cmd_syzygy(args) -> dict:
    from cxkit import syzygy
    _, name, op = _pick(args, "operators")
    b = syzygy.compatibility_operator(op, budget=args.budget)
    sound = (b @ op).is_zero if b.rows else True
    return {"command": "syzygy", "operator": name,
            "compatibility": _op_json(b), "composition_zero": sound, "ok": sound}


def cmd_extend(args) -> dict:
    from cxkit import syzygy
    _, name, op = _pick(args, "operators")
    ops = syzygy.extend_to_complex(op, max_steps=args.max_steps, budget=args.budget)
    cplx = Complex(ops)
    return {"command": "extend", "operator": name, "ranks": list(cplx.ranks),
            "operators": [_op_json(o) for o in ops], "ok": cplx.is_complex()}


def cmd_fixtures(args) -> dict:
    from cxkit import fixtures
    if args.suite and args.suite not in fixtures.FIXTURES:
        raise ValueError(f"unknown suite {args.suite!r}; available: "
                         + ", ".join(sorted(fixtures.FIXTURES)))
    return {**fixtures.run_all([args.suite] if args.suite else None), "command": "fixtures"}


# ---------------------------------------------------------------------------
# Entry point

_NAME = ("--name", {})
_DEGREE = ("--degree", {"type": int})


def _pairs(text: str) -> tuple[str, dict]:
    return "--budget", {"type": int, "default": _DEFAULT_PAIRS, "help": text}


# command -> (help, its options after ``--spec`` and ``--json``), in the
# order ``--help`` lists them; ``cmd_<command>`` runs the command
_OPTIONS = {
    "verify": ("complex property and mu coherence", ()),
    "laplacian": ("(generalized) Laplacians", (_NAME, _DEGREE)),
    "maxwell": ("Maxwell block operator", (
        _NAME, _DEGREE, ("--variant", {"type": int, "default": 0, "choices": (0, 1)}))),
    "stokes": ("Stokes block operator", (_NAME, _DEGREE)),
    "ellipticity": ("ellipticity checks", (
        _NAME,
        ("--seed", {"type": int, "default": _DEFAULT_SEED,
                    "help": "Sobol scrambling seed of the numeric search"}),
        ("--budget", {"type": int, "default": _DEFAULT_SAMPLES,
                      "help": "Sobol samples of the numeric search"}),
        ("--kind", {"default": "petrovskii",
                    "choices": ("petrovskii", "strong", "injectivity")}))),
    "dn-weights": ("weight plans", (_NAME, ("--stokes", {"action": "store_true"}), _DEGREE)),
    "parametrix": ("symbol parametrix", (
        _NAME, ("--side", {"default": "right", "choices": ("right", "left")}))),
    "syzygy": ("compatibility operator", (_NAME, _pairs("S-pairs Buchberger may process"))),
    "extend": ("extend to a compatibility complex", (
        _NAME, _pairs("S-pairs Buchberger may process per step"),
        ("--max-steps", {"type": int, "default": 8,
                         "help": "compatibility operators to compute at most (at least 1)"}))),
    "fixtures": ("run the bundled corpus", (("--suite", {"help": "run a single named fixture"}),)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxkit",
        description="symbolic toolkit for block differential operators on complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _OPTIONS.items():
        p = sub.add_parser(command, help=text)
        if command != "fixtures":
            p.add_argument("--spec", help="spec document file")
        p.add_argument("--json", dest="json_out", help="write the JSON report here")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
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
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    status = "pass" if report.get("ok") else "fail"
    print(f"cxkit {args.command}: {status}", file=sys.stderr)
    return 0 if report.get("ok") else 1


__all__ = ["main"] + [fn.__name__ for fn in _COMMANDS.values()]


if __name__ == "__main__":
    raise SystemExit(main())
