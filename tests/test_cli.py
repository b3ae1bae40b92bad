"""Command-line interface: exit codes, JSON reports, determinism."""

import argparse
import json
import time
from pathlib import Path

import pytest

from cxkit import ellipticity, syzygy
from cxkit.cli import _build_parser, main

from _helpers import cold_start

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

SPEC = """\
vars: d1 d2 d3
params: mu
operator A = [[d1], [d2], [d3]]
complex C = de_rham(3)
mu C 1 scalar mu
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "doc.spec"
    path.write_text(SPEC)
    return str(path)


def test_verify_pass(spec_file, capsys):
    assert main(["verify", "--spec", spec_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["command"] == "verify"


def test_laplacian_json_out(spec_file, tmp_path):
    out = tmp_path / "lap.json"
    assert main(["laplacian", "--spec", spec_file, "--degree", "1",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    # mu is assigned at degree 1 only, so the degree-1 Laplacian is -mu Delta
    assert data["laplacians"][0]["operator"]["entries"][0][0] \
        == "-d1^2*mu - d2^2*mu - d3^2*mu"


def test_maxwell_and_stokes_shapes(spec_file, capsys):
    assert main(["maxwell", "--spec", spec_file]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["operator"]["rows"] == 8
    assert main(["stokes", "--spec", spec_file, "--degree", "1"]) == 0
    s = json.loads(capsys.readouterr().out)
    assert s["operator"]["rows"] == 4


def test_ellipticity_command(spec_file, capsys):
    assert main(["ellipticity", "--spec", spec_file, "--name", "A",
                 "--kind", "injectivity"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["verdict"] in ("certified-symbolic", "numeric-pass")


def test_syzygy_and_extend(spec_file, capsys):
    assert main(["syzygy", "--spec", spec_file]) == 0
    b = json.loads(capsys.readouterr().out)
    assert b["composition_zero"]
    assert main(["extend", "--spec", spec_file]) == 0
    e = json.loads(capsys.readouterr().out)
    assert e["ranks"] == [1, 3, 3, 1]


def test_parametrix_command(spec_file, capsys):
    assert main(["parametrix", "--spec", spec_file, "--side", "left"]) == 0


def test_dn_weights_command(spec_file, capsys):
    assert main(["dn-weights", "--spec", spec_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["variant0"]["s"] == [1, 1, 1, 1]


def test_missing_spec_is_json_error(capsys):
    assert main(["verify", "--spec", "/no/such/file"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False and "error" in rep


def test_parse_error_is_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1\noperator A = [[d1^]]\n")
    assert main(["verify", "--spec", str(bad)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert "line 2" in rep["error"]


def _verify_bytes(spec_file, out, monkeypatch, threads=None):
    if threads is None:
        monkeypatch.delenv("CXKIT_THREADS", raising=False)
    else:
        monkeypatch.setenv("CXKIT_THREADS", threads)
    assert main(["verify", "--spec", spec_file, "--json", str(out)]) == 0
    return out.read_bytes()


def test_threads_env_leaves_report_unchanged(spec_file, tmp_path, monkeypatch):
    """The engine is sequential; no variable selects threads."""
    plain = _verify_bytes(spec_file, tmp_path / "plain.json", monkeypatch)
    assert _verify_bytes(spec_file, tmp_path / "threads.json", monkeypatch,
                         "4") == plain


def test_threads_env_not_an_integer(spec_file, tmp_path, monkeypatch):
    """The variable is not read, so a non-integer value is no error."""
    plain = _verify_bytes(spec_file, tmp_path / "plain.json", monkeypatch)
    assert _verify_bytes(spec_file, tmp_path / "threads.json", monkeypatch,
                         "abc") == plain


def _options(parser: argparse.ArgumentParser) -> dict:
    """The parser's description and each subcommand's help and options, in
    order, as argparse holds them."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {"description": parser.description, "commands": [
        {"command": name, "help": helps[name], "options": [
            {"flags": a.option_strings, "dest": a.dest, "action": type(a).__name__,
             "type": getattr(a.type, "__name__", a.type), "default": a.default,
             "choices": None if a.choices is None else list(a.choices),
             "help": a.help, "metavar": a.metavar, "nargs": a.nargs,
             "const": a.const, "required": a.required}
            for a in p._actions]}
        for name, p in sub.choices.items()]}


def test_options_as_pinned():
    """Every subcommand's flags, types, defaults, choices and help strings,
    captured before the options came from one table."""
    pinned = json.loads((DATA / "cli_options.json").read_text())
    assert _options(_build_parser()) == pinned


@pytest.mark.parametrize("command, budget", [
    ("ellipticity", ellipticity.DEFAULT_BUDGET),
    ("syzygy", syzygy.DEFAULT_PAIR_BUDGET),
    ("extend", syzygy.DEFAULT_PAIR_BUDGET),
])
def test_budget_defaults(command, budget):
    args = _build_parser().parse_args([command])
    assert args.budget == budget
    assert not hasattr(args, "tol")


def test_seed_default():
    assert _build_parser().parse_args(["ellipticity"]).seed == ellipticity.DEFAULT_SEED


@pytest.mark.parametrize("command", ["verify", "laplacian", "maxwell", "stokes",
                                     "dn-weights", "parametrix", "syzygy",
                                     "extend", "fixtures"])
def test_seed_only_where_read(command):
    with pytest.raises(SystemExit):
        _build_parser().parse_args([command, "--seed", "1"])


@pytest.mark.parametrize("command", ["verify", "laplacian", "maxwell", "stokes",
                                     "dn-weights", "parametrix", "fixtures"])
def test_budget_only_where_read(command):
    with pytest.raises(SystemExit):
        _build_parser().parse_args([command, "--budget", "0"])


def _pin_rows() -> list:
    """The rows of the pin table ``cli_pins.txt``, read as CI's shell loop
    reads them: words split on whitespace, ``#`` lines and blank lines
    skipped.  A row's id is its command, the spec named by its file name."""
    rows = []
    for line in (DATA / "cli_pins.txt").read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        pin, status, bar, *args = line.split()
        assert bar == "|", line
        rows.append(pytest.param(pin, int(status), args,
                                 id=" ".join(args).replace("--spec tests/data/", "")))
    return rows


@pytest.mark.parametrize("pin, status, args", _pin_rows())
def test_pinned_report(tmp_path, monkeypatch, pin, status, args):
    """One row of the pin table, run in-process from the repository root
    twice: cold, from ``cold_start``, then warm, reading back what the
    first run kept.  Both runs end with the
    row's exit status and write its pinned bytes."""
    monkeypatch.chdir(ROOT)
    cold_start()
    out = tmp_path / pin
    for run in ("cold", "warm"):
        assert main([*args, "--json", str(out)]) == status, run
        assert out.read_bytes() == (DATA / pin).read_bytes(), run


# A positive definite quadratic in three variables with cross terms, the shape
# of the corpus's ellipticity specs: no symbolic certificate applies, so both
# checks take the closed-form route (the extreme eigenvalues of the form's
# matrix).
QUADRATIC3_SPEC = DATA / "quadratic3.spec"


@pytest.mark.parametrize("kind", ["petrovskii", "strong"])
def test_numeric_ellipticity_report_bytes(tmp_path, kind):
    """The numeric report's floats are pinned: a change to the closed-form
    route that moves any bit of the minimum or its argmin fails here.  Both
    kinds run twice in one process, ``kind`` first: its first report comes
    from ``cold_start``, the others after what the first run kept."""
    out = tmp_path / "report.json"
    other = {"petrovskii": "strong", "strong": "petrovskii"}[kind]
    cold_start()
    for run in (kind, other, kind, other):
        assert main(["ellipticity", "--spec", str(QUADRATIC3_SPEC), "--kind", run,
                     "--json", str(out)]) == 0
        want = DATA / f"ellipticity_quadratic3_{run}.json"
        assert out.read_bytes() == want.read_bytes(), run


def test_zero_pair_budget_is_an_argument_and_a_limit(tmp_path, capsys):
    """Budget 0 is valid: a module with no S-pairs needs none, and grad has
    some, so its limit is what stops it."""
    spec = tmp_path / "d1.spec"
    spec.write_text("vars: d1\noperator D = [[d1]]\n")
    assert main(["syzygy", "--spec", str(spec), "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["compatibility"]["rows"] == 0
    spec.write_text("vars: d1 d2\noperator G = [[d1], [d2]]\n")
    assert main(["syzygy", "--spec", str(spec), "--budget", "0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "syzygy", "error": "S-pair budget of 0 exceeded", "ok": False}


# The error table: each row ends its command with exit status 1 and one JSON
# report {"command": the command, "ok": false, "error": the row's message}.
# A row is an id, the argv ("SPEC" names a file holding the row's spec, SPEC
# unless given; "OUT" a file the report is read from in place of stdout), the
# message and, where a limit now stops work that ran for seconds, a time bound.
def _error(name, argv, error, spec=SPEC, within=float("inf")):
    return pytest.param(spec, argv, error, within, id=name)


QUADRATIC = "vars: d1 d2\noperator Q = [[-d1^2 - d1*d2 - d2^2]]\n"
ODD_WEIGHT_SPEC = "vars: d1 d2 d3\ncomplex C = de_rham(3)\nmu C 1 scalar d1\n"
WIDE_POWER = "operator Q = [[(" + " + ".join(f"d1^{k}" for k in range(65)) + ")^64]]"
MU_LINE = SPEC.count("\n") + 1

ERRORS = [
    # laplacian used to report a 0x0 Laplacian with ok true here
    *[_error(f"{command} degree {degree}", f"{command} --spec SPEC --degree {degree}",
             f"degree {degree} outside 0..3")
      for command in ("laplacian", "maxwell", "stokes") for degree in (7, -1)],
    _error("extend max-steps 0", "extend --spec SPEC --max-steps 0",
           "max_steps must be at least 1, got 0"),
    _error("extend max-steps -1", "extend --spec SPEC --max-steps -1",
           "max_steps must be at least 1, got -1"),
    # grad needs three steps
    _error("extend max-steps 2", "extend --spec SPEC --max-steps 2", "no resolution within 2 steps"),
    # --degree used to be parsed and ignored here, with ok true
    *[_error(f"dn-weights degree {degree}", f"dn-weights --spec SPEC --degree {degree}",
             "--degree needs --stokes: the Maxwell plans span every degree") for degree in (7, 1)],
    *[_error(f"dn-weights stokes degree {degree}",
             f"dn-weights --spec SPEC --stokes --degree {degree}", f"degree {degree} outside 0..3")
      for degree in (7, -1)],
    _error("zero denominator", "verify --spec SPEC", "line 3, column 17: zero denominator",
           "vars: d1\ncomplex C = de_rham(1)\nmu C 1 scalar 1/0\n"),
    # before the limit a power this size took the Petrovskii check past 100 s
    _error("degree limit", "ellipticity --spec SPEC --name Q --kind petrovskii",
           "line 2, column 29: total degree 32768 exceeds 32767",
           "vars: d1 d2\noperator Q = [[((d1^64)^64)^8]]\n"),
    # before the limit cxkit verify on this spec was still multiplying after 8 s
    _error("term count limit", "verify --spec SPEC",
           "line 2, column 32: term count bound 180007425 exceeds 10000",
           "vars: d1 d2 d3\noperator Q = [[((d1+d2+d3)^64)^16]]\n"),
    # before the limit parsing this spec took about 20 s
    _error("coefficient size limit", "verify --spec SPEC",
           "line 2, column 28: coefficient bit length bound 4096 exceeds 1024",
           "vars: d1\noperator Q = [[((1+d1)^64)^64]]\n", within=1.0),
    # before the limit cxkit verify on this spec ran past 15 s while its memory grew
    _error("builder size limit", "verify --spec SPEC",
           "line 2, column 21: n must be at most 8: its largest differential would pass "
           "10000 entries",
           "vars: " + " ".join(f"d{k}" for k in range(1, 25)) + "\ncomplex C = de_rham(24)\n",
           within=1.0),
    # before the limit parsing each spec took about 3 s
    _error("term products wide-power", "verify --spec SPEC",
           "line 2, column 526: term products bound 4198401 exceeds 1000000",
           f"vars: d1\n{WIDE_POWER}\n", within=1.0),
    _error("term products squared-power", "verify --spec SPEC",
           "line 2, column 31: term products bound 4601025 exceeds 1000000",
           "vars: d1 d2\noperator Q = [[((1+d1+d2)^64)^2]]\n", within=1.0),
    *[_error(f"builder {builder}", "verify --spec SPEC --json OUT",
             f"line 2, column {column}: {message}", f"vars: d1 d2 d3\ncomplex C = {builder}\n")
      for builder, column, message in (
          ("power_de_rham(3, 0)", 30, "power must be between 1 and 64"),
          ("power_de_rham(3, 65)", 30, "power must be between 1 and 64"),
          ("de_rham(0)", 21, "n must be at least 1"),
          ("dolbeault(0)", 23, "n must be at least 1"))],
    _error("budget 0", "ellipticity --spec SPEC --budget 0",
           "budget must be at least 1 sample, got 0", QUADRATIC),
    _error("budget -5", "ellipticity --spec SPEC --budget -5",
           "budget must be at least 1 sample, got -5", QUADRATIC),
    _error("seed -3", "ellipticity --spec SPEC --seed -3", "seed must be non-negative, got -3",
           QUADRATIC),
    # rejected before a point is drawn; the search would need ~120 GB
    _error("budget 1000000000", "ellipticity --spec SPEC --budget 1000000000",
           "budget times the 2 sphere variables must be at most 2**23 = 8388608 point "
           "coordinates, got 2000000000", QUADRATIC),
    # no sphere variable and no certificate: these used to end in the Sobol
    # generator's "dim must be between 1 and 255, got 0"
    *[_error(f"empty sphere {kind}", f"ellipticity --spec SPEC --kind {kind}",
             "the unit sphere in 0 variables is empty: a numeric check needs at least "
             "1 sphere variable", spec)
      for kind, spec in (("strong", "vars:\noperator A = [[1, 1], [1, 2]]\n"),
                         ("petrovskii", "vars:\nparams: mu\noperator A = [[mu]]\n"))],
    *[_error(f"{command} budget {budget}", f"{command} --spec SPEC --budget {budget}",
             f"S-pair budget must be non-negative, got {budget}")
      for command in ("syzygy", "extend") for budget in (-1, -5)],
    _error("no complex", "maxwell --spec SPEC", "the spec defines no complex",
           "vars: d1\noperator A = [[d1]]\n"),
    _error("several complexes", "maxwell --spec SPEC",
           "--name required when the spec defines several complexes",
           "vars: d1\ncomplex A = de_rham(1)\ncomplex B = de_rham(1)\n"),
    _error("strong check of zero", "ellipticity --spec SPEC --kind strong",
           "strong ellipticity check is undefined for the zero operator",
           "vars: d1 d2\noperator Z = [[0, 0], [0, 0]]\n"),
    # Python's own digit limit used to end here in an error with no location
    _error("long integer literal", "verify --spec SPEC",
           "line 2, column 19: integer literal of 4301 digits is too long",
           "vars: d1\noperator A = [[d1^" + "7" * 4301 + "]]\n"),
    # the first used to give the unweighted Laplacian, the second an unlocated
    # error, the third to replace the weight of the spec silently
    _error("mu degree 7", "laplacian --spec SPEC --json OUT",
           f"line {MU_LINE}, column 6: mu degree 7 outside 0..3 of C", SPEC + "mu C 7 scalar mu\n"),
    _error("mu kind tensor", "laplacian --spec SPEC --json OUT",
           f"line {MU_LINE}, column 8: unknown mu kind 'tensor'", SPEC + "mu C 2 tensor mu\n"),
    _error("mu degree set twice", "laplacian --spec SPEC --json OUT",
           f"line {MU_LINE}, column 6: mu degree 1 of C already set", SPEC + "mu C 1 scalar 2\n"),
    # both used to report fail: the first with witness (0, 1), the second with
    # determinant z2^2
    _error("repeated var", "ellipticity --spec SPEC",
           "line 1, column 10: name 'd1' already declared", "vars: d1 d1\noperator A = [[d1^2]]\n"),
    _error("repeated time", "ellipticity --spec SPEC", "line 2, column 7: name 'd2' already declared",
           "vars: d1 d2\ntime: d2\noperator A = [[d1^2 + d2^2]]\n"),
    # delta_{1,mu} has order 3 here; the Stokes plan at degree 1 used to floor
    # it to s = (2, 1), t = (0, 1), whose DN symbol is singular
    *[_error(f"odd weight order{args}", f"dn-weights --spec SPEC{args}",
             "weight mu0 at degree 1 has odd order 1", ODD_WEIGHT_SPEC)
      for args in (" --stokes --degree 1", "")],
    # with z1 ellipticity used to report numeric-pass with minimum 0.7929 (0.5
    # with the parameter named p): the parameter and the symbol's z1 were one
    # variable, as in the printed parametrix denominator z1^6*z1^2 + ...
    *[_error(f"{command} parameter {param}", f"{command} --spec SPEC",
             f"line 2, column 9: parameter {param!r} is also a variable of the principal symbol",
             f"vars: d1 d2\nparams: {param}\noperator Q = [[d1^2 + d2^2 - {param}*d1*d2]]\n"
             f"complex C = de_rham(2)\nmu C 1 scalar {param}\n")
      for command in ("ellipticity", "parametrix") for param in ("z1", "z2")],
    _error("unknown suite", "fixtures --suite nope",
           "unknown suite 'nope'; available: acoustics, complex-family, dn-weights, "
           "electromagnetic, ellipticity-suite, laplacian-family, mass-quanta, oseen-symbol, "
           "parametrix-family, planar-flow, stokes-block-3, stokes-classical, "
           "symmetric-gradient-plane, syzygy-suite"),
]


@pytest.mark.parametrize("spec, argv, error, within", ERRORS)
def test_error_report(tmp_path, capsys, spec, argv, error, within):
    path, out = tmp_path / "doc.spec", tmp_path / "report.json"
    path.write_text(spec)
    argv = [{"SPEC": str(path), "OUT": str(out)}.get(a, a) for a in argv.split()]
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < within
    report = out.read_text() if str(out) in argv else capsys.readouterr().out
    assert json.loads(report) == {"command": argv[0], "ok": False, "error": error}


def test_odd_weight_order_stops_only_the_weight_plans(tmp_path):
    spec = tmp_path / "odd.spec"
    spec.write_text(ODD_WEIGHT_SPEC)
    assert main(["verify", "--spec", str(spec)]) == 0
