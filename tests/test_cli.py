"""Command-line interface: exit codes, JSON reports, determinism."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cxkit import ellipticity, sphere, syzygy
from cxkit.cli import _build_parser, main

from _helpers import clear_shared_complexes

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


def _run(args):
    return main(args)


def test_verify_pass(spec_file, capsys):
    assert _run(["verify", "--spec", spec_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["command"] == "verify"


def test_laplacian_json_out(spec_file, tmp_path):
    out = tmp_path / "lap.json"
    assert _run(["laplacian", "--spec", spec_file, "--degree", "1",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    # mu is assigned at degree 1 only, so the degree-1 Laplacian is -mu Delta
    assert data["laplacians"][0]["operator"]["entries"][0][0] \
        == "-d1^2*mu - d2^2*mu - d3^2*mu"


@pytest.mark.parametrize("command", ["laplacian", "maxwell", "stokes"])
@pytest.mark.parametrize("degree", [7, -1])
def test_degree_outside_complex_is_json_error(spec_file, capsys, command, degree):
    """``laplacian`` used to report a 0x0 Laplacian with ok true here."""
    assert _run([command, "--spec", spec_file, "--degree", str(degree)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": command, "ok": False, "error": f"degree {degree} outside 0..3"}


def test_maxwell_and_stokes_shapes(spec_file, capsys):
    assert _run(["maxwell", "--spec", spec_file]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["operator"]["rows"] == 8
    assert _run(["stokes", "--spec", spec_file, "--degree", "1"]) == 0
    s = json.loads(capsys.readouterr().out)
    assert s["operator"]["rows"] == 4


def test_ellipticity_command(spec_file, capsys):
    assert _run(["ellipticity", "--spec", spec_file, "--name", "A",
                 "--kind", "injectivity"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["report"]["verdict"] in ("certified-symbolic", "numeric-pass")


def test_syzygy_and_extend(spec_file, capsys):
    assert _run(["syzygy", "--spec", spec_file]) == 0
    b = json.loads(capsys.readouterr().out)
    assert b["composition_zero"]
    assert _run(["extend", "--spec", spec_file]) == 0
    e = json.loads(capsys.readouterr().out)
    assert e["ranks"] == [1, 3, 3, 1]


@pytest.mark.parametrize("steps, message", [
    ("0", "max_steps must be at least 1, got 0"),
    ("-1", "max_steps must be at least 1, got -1"),
    ("2", "no resolution within 2 steps"),  # grad needs three
])
def test_extend_step_limit_is_json_error(spec_file, capsys, steps, message):
    assert _run(["extend", "--spec", spec_file, "--max-steps", steps]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "extend", "error": message, "ok": False}


def test_parametrix_command(spec_file, capsys):
    assert _run(["parametrix", "--spec", spec_file, "--side", "left"]) == 0


def test_dn_weights_command(spec_file, capsys):
    assert _run(["dn-weights", "--spec", spec_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["variant0"]["s"] == [1, 1, 1, 1]


@pytest.mark.parametrize("degree", [7, 1])
def test_dn_weights_degree_without_stokes_is_json_error(spec_file, capsys, degree):
    """``--degree`` used to be parsed and ignored here, with ok true."""
    assert _run(["dn-weights", "--spec", spec_file, "--degree", str(degree)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "dn-weights", "ok": False,
        "error": "--degree needs --stokes: the Maxwell plans span every degree"}


@pytest.mark.parametrize("degree", [7, -1])
def test_dn_weights_stokes_degree_outside_complex(spec_file, capsys, degree):
    assert _run(["dn-weights", "--spec", spec_file, "--stokes", "--degree", str(degree)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "dn-weights", "ok": False, "error": f"degree {degree} outside 0..3"}


def test_missing_spec_is_json_error(capsys):
    assert _run(["verify", "--spec", "/no/such/file"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is False and "error" in rep


def test_parse_error_is_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1\noperator A = [[d1^]]\n")
    assert _run(["verify", "--spec", str(bad)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert "line 2" in rep["error"]


def test_zero_denominator_is_located_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1\ncomplex C = de_rham(1)\nmu C 1 scalar 1/0\n")
    assert _run(["verify", "--spec", str(bad)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == "line 3, column 17: zero denominator"


def test_degree_limit_is_located_json_error(tmp_path, capsys):
    """Before the limit a power this size took the Petrovskii check past 100 s."""
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1 d2\noperator Q = [[((d1^64)^64)^8]]\n")
    assert _run(["ellipticity", "--spec", str(bad), "--name", "Q",
                 "--kind", "petrovskii"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "ellipticity", "ok": False,
                   "error": "line 2, column 29: total degree 32768 exceeds 32767"}


def test_term_count_limit_is_located_json_error(tmp_path, capsys):
    """Before the limit ``cxkit verify`` on this spec was still multiplying
    after 8 s."""
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1 d2 d3\noperator Q = [[((d1+d2+d3)^64)^16]]\n")
    assert _run(["verify", "--spec", str(bad)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "verify", "ok": False,
                   "error": "line 2, column 32: term count bound 180007425 exceeds 10000"}


def test_coefficient_size_limit_is_located_json_error(tmp_path, capsys):
    """Before the limit parsing this spec took about 20 s."""
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1\noperator Q = [[((1+d1)^64)^64]]\n")
    t0 = time.perf_counter()
    assert _run(["verify", "--spec", str(bad)]) == 1
    assert time.perf_counter() - t0 < 1.0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "verify", "ok": False,
                   "error": "line 2, column 28: coefficient bit length bound 4096 exceeds 1024"}


def test_builder_size_limit_is_located_json_error(tmp_path, capsys):
    """Before the limit ``cxkit verify`` on this spec ran past 15 s while its
    memory grew."""
    bad = tmp_path / "bad.spec"
    names = " ".join(f"d{k}" for k in range(1, 25))
    bad.write_text(f"vars: {names}\ncomplex C = de_rham(24)\n")
    t0 = time.perf_counter()
    assert _run(["verify", "--spec", str(bad)]) == 1
    assert time.perf_counter() - t0 < 1.0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "verify", "ok": False,
                   "error": "line 2, column 21: n must be at most 8: its largest "
                            "differential would pass 10000 entries"}


@pytest.mark.parametrize("builder, column, message", [
    ("power_de_rham(3, 0)", 30, "power must be between 1 and 64"),
    ("power_de_rham(3, 65)", 30, "power must be between 1 and 64"),
    ("de_rham(0)", 21, "n must be at least 1"),
    ("dolbeault(0)", 23, "n must be at least 1"),
])
def test_builder_argument_is_located_json_error(tmp_path, builder, column, message):
    bad = tmp_path / "bad.spec"
    bad.write_text(f"vars: d1 d2 d3\ncomplex C = {builder}\n")
    out = tmp_path / "v.json"
    assert _run(["verify", "--spec", str(bad), "--json", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep == {"command": "verify", "ok": False,
                   "error": f"line 2, column {column}: {message}"}


def _verify_bytes(spec_file, out, monkeypatch, threads=None):
    if threads is None:
        monkeypatch.delenv("CXKIT_THREADS", raising=False)
    else:
        monkeypatch.setenv("CXKIT_THREADS", threads)
    assert _run(["verify", "--spec", spec_file, "--json", str(out)]) == 0
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


QUADRATIC = "vars: d1 d2\noperator Q = [[-d1^2 - d1*d2 - d2^2]]\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "0", "budget must be at least 1 sample, got 0"),
    ("--budget", "-5", "budget must be at least 1 sample, got -5"),
    ("--seed", "-3", "seed must be non-negative, got -3"),
    # rejected before a point is drawn; the search would need ~120 GB
    ("--budget", "1000000000", "budget times the 2 sphere variables must be at most "
                               "2**23 = 8388608 point coordinates, got 2000000000"),
])
def test_bad_sampling_arguments_are_json_errors(tmp_path, capsys, flag, value, message):
    spec = tmp_path / "q.spec"
    spec.write_text(QUADRATIC)
    assert _run(["ellipticity", "--spec", str(spec), flag, value]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "ellipticity", "error": message, "ok": False}


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
    twice: cold, with no shared complex built and no sphere scan memoized,
    then warm, reading back what the first run kept.  Both runs end with the
    row's exit status and write its pinned bytes."""
    monkeypatch.chdir(ROOT)
    clear_shared_complexes()
    sphere._scan_memo.cache_clear()
    out = tmp_path / pin
    for run in ("cold", "warm"):
        assert _run([*args, "--json", str(out)]) == status, run
        assert out.read_bytes() == (DATA / pin).read_bytes(), run


# A positive definite quadratic in three variables with cross terms, the shape
# of the corpus's ellipticity specs: no symbolic certificate applies, so both
# checks run the full numeric search (Sobol scan and 16 Nelder-Mead polishes).
QUADRATIC3_SPEC = DATA / "quadratic3.spec"


@pytest.mark.parametrize("kind", ["petrovskii", "strong"])
def test_numeric_ellipticity_report_bytes(tmp_path, kind):
    """The numeric report's floats are pinned: a change to the scan or the
    polish that moves any bit of the minimum or its argmin fails here.  Both
    kinds run twice in one process, ``kind`` first: its first report comes
    from a cold memo of points and power columns, the others read them
    back."""
    out = tmp_path / "report.json"
    other = {"petrovskii": "strong", "strong": "petrovskii"}[kind]
    sphere._scan_memo.cache_clear()
    for run in (kind, other, kind, other):
        assert _run(["ellipticity", "--spec", str(QUADRATIC3_SPEC), "--kind", run,
                     "--json", str(out)]) == 0
        want = DATA / f"ellipticity_quadratic3_{run}.json"
        assert out.read_bytes() == want.read_bytes(), run


@pytest.mark.parametrize("command", ["syzygy", "extend"])
@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_negative_pair_budget_is_json_error(spec_file, capsys, command, budget):
    assert _run([command, "--spec", spec_file, "--budget", budget]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": command, "error": f"S-pair budget must be non-negative, got {budget}",
                   "ok": False}


def test_zero_pair_budget_is_an_argument_and_a_limit(tmp_path, capsys):
    """Budget 0 is valid: a module with no S-pairs needs none, and grad has
    some, so its limit is what stops it."""
    spec = tmp_path / "d1.spec"
    spec.write_text("vars: d1\noperator D = [[d1]]\n")
    assert _run(["syzygy", "--spec", str(spec), "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["compatibility"]["rows"] == 0
    spec.write_text("vars: d1 d2\noperator G = [[d1], [d2]]\n")
    assert _run(["syzygy", "--spec", str(spec), "--budget", "0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"command": "syzygy", "error": "S-pair budget of 0 exceeded", "ok": False}


@pytest.mark.parametrize("spec, error", [
    ("vars: d1\noperator A = [[d1]]\n", "the spec defines no complex"),
    ("vars: d1\ncomplex A = de_rham(1)\ncomplex B = de_rham(1)\n",
     "--name required when the spec defines several complexes"),
])
def test_pick_names_what_the_spec_lacks(tmp_path, capsys, spec, error):
    path = tmp_path / "doc.spec"
    path.write_text(spec)
    assert _run(["maxwell", "--spec", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"command": "maxwell", "error": error, "ok": False}


def test_strong_check_of_the_zero_operator_is_json_error(tmp_path, capsys):
    path = tmp_path / "zero.spec"
    path.write_text("vars: d1 d2\noperator Z = [[0, 0], [0, 0]]\n")
    assert _run(["ellipticity", "--spec", str(path), "--kind", "strong"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "ellipticity", "ok": False,
        "error": "strong ellipticity check is undefined for the zero operator"}


def test_long_integer_literal_is_located_json_error(tmp_path, capsys):
    """Python's own digit limit used to end here in an error with no
    location."""
    bad = tmp_path / "bad.spec"
    bad.write_text("vars: d1\noperator A = [[d1^" + "7" * 4301 + "]]\n")
    assert _run(["verify", "--spec", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "verify", "ok": False,
        "error": "line 2, column 19: integer literal of 4301 digits is too long"}


def test_fixture_bundle_byte_identical(tmp_path):
    """Two independent subprocess runs must produce identical JSON bytes."""
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "cxkit.cli", "fixtures",
             "--suite", "syzygy-suite", "--json", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("vars, body, message", [
    ("d1", "operator Q = [[(" + " + ".join(f"d1^{k}" for k in range(65)) + ")^64]]",
     "term products bound 4198401 exceeds 1000000"),
    ("d1 d2", "operator Q = [[((1+d1+d2)^64)^2]]",
     "term products bound 4601025 exceeds 1000000"),
], ids=["wide-power", "squared-power"])
def test_term_products_limit_is_located_json_error(tmp_path, capsys, vars, body, message):
    """Before the limit parsing each spec took about 3 s."""
    bad = tmp_path / "bad.spec"
    bad.write_text(f"vars: {vars}\n{body}\n")
    t0 = time.perf_counter()
    assert _run(["verify", "--spec", str(bad)]) == 1
    assert time.perf_counter() - t0 < 1.0
    rep = json.loads(capsys.readouterr().out)
    column = body.rindex("^") + 2
    assert rep == {"command": "verify", "ok": False,
                   "error": f"line 2, column {column}: {message}"}


@pytest.mark.parametrize("statement, column, message", [
    ("mu C 7 scalar mu", 6, "mu degree 7 outside 0..3 of C"),
    ("mu C 2 tensor mu", 8, "unknown mu kind 'tensor'"),
    ("mu C 1 scalar 2", 6, "mu degree 1 of C already set"),
])
def test_mu_statement_is_located_json_error(tmp_path, statement, column, message):
    """The first used to give the unweighted Laplacian, the second an
    unlocated error, the third to replace the weight of the spec silently."""
    bad = tmp_path / "bad.spec"
    bad.write_text(f"{SPEC}{statement}\n")
    out = tmp_path / "lap.json"
    assert _run(["laplacian", "--spec", str(bad), "--json", str(out)]) == 1
    line = SPEC.count("\n") + 1
    assert json.loads(out.read_text()) == {
        "command": "laplacian", "ok": False,
        "error": f"line {line}, column {column}: {message}"}


@pytest.mark.parametrize("spec, error", [
    ("vars: d1 d1\noperator A = [[d1^2]]\n", "line 1, column 10: name 'd1' already declared"),
    ("vars: d1 d2\ntime: d2\noperator A = [[d1^2 + d2^2]]\n",
     "line 2, column 7: name 'd2' already declared"),
])
def test_repeated_name_is_located_json_error(tmp_path, capsys, spec, error):
    """Both used to report ``fail``: the first with witness (0, 1), the
    second with determinant ``z2^2``."""
    bad = tmp_path / "bad.spec"
    bad.write_text(spec)
    assert _run(["ellipticity", "--spec", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "ellipticity", "ok": False, "error": error}


ODD_WEIGHT_SPEC = "vars: d1 d2 d3\ncomplex C = de_rham(3)\nmu C 1 scalar d1\n"


@pytest.mark.parametrize("args", [["--stokes", "--degree", "1"], []])
def test_odd_weight_order_is_json_error(tmp_path, capsys, args):
    """delta_{1,mu} has order 3 here; the Stokes plan at degree 1 used to
    floor it to s = (2, 1), t = (0, 1), whose DN symbol is singular."""
    spec = tmp_path / "odd.spec"
    spec.write_text(ODD_WEIGHT_SPEC)
    assert _run(["dn-weights", "--spec", str(spec), *args]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": "dn-weights", "ok": False,
        "error": "weight mu0 at degree 1 has odd order 1"}
    assert _run(["verify", "--spec", str(spec)]) == 0


@pytest.mark.parametrize("param", ["z1", "z2"])
@pytest.mark.parametrize("command", ["ellipticity", "parametrix"])
def test_parameter_named_like_a_symbol_variable_is_json_error(tmp_path, capsys, command, param):
    """With ``z1`` ``ellipticity`` used to report numeric-pass with minimum
    0.7929 (0.5 with the parameter named ``p``): the parameter and the
    symbol's z1 were one variable, as in the printed ``parametrix``
    denominator ``z1^6*z1^2 + ...``."""
    spec = tmp_path / "clash.spec"
    spec.write_text(f"vars: d1 d2\nparams: {param}\noperator Q = [[d1^2 + d2^2 - {param}*d1*d2]]\n"
                    f"complex C = de_rham(2)\nmu C 1 scalar {param}\n")
    assert _run([command, "--spec", str(spec)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "command": command, "ok": False,
        "error": (f"line 2, column 9: parameter {param!r} is also a variable "
                  "of the principal symbol")}
