"""Each ``cxkit`` command loads only the modules it runs, and every module
uses each name it imports.

The probe, ``probe``, is a fresh interpreter that refuses every import of
scipy, ``numpy.random`` and ``numpy.ma`` (the numeric commands run on
numpy's core and linalg alone), runs one or more commands through
``cxkit.cli.main``, one after another, and then lists the exit status of
each, the imports it refused, the ``cxkit`` modules it has loaded, which of
numpy and scipy (the "heavy" modules) are among them after each command,
which of ``dataclasses`` and ``inspect`` (the exact commands build no
dataclass), and whether sympy, a test-only oracle, is (no command loads
it).  Each command still ends as it does unrefused: the numeric check
passes and the bundle is the reference bundle, byte for byte.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxkit

PROBE = """
import json, sys
refused = []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy" or name in ("numpy.random", "numpy.ma"):
            refused.append(name)
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Refuse())
heavy = lambda: sorted(m for m in ("numpy", "numpy.ma", "numpy.random", "scipy",
                                   "scipy.optimize", "scipy.special", "scipy.stats")
                       if m in sys.modules)
from cxkit.cli import main
out, commands = sys.argv[1], json.loads(sys.argv[2])
codes, seen = [], []
for argv in commands:
    try:
        codes.append(main(argv))
    except SystemExit as exit:  # --help
        codes.append(exit.code)
    seen.append(heavy())
mods = sorted(m for m in sys.modules if m == "cxkit" or m.startswith("cxkit."))
with open(out, "w") as fh:
    json.dump({"codes": codes, "refused": refused, "cxkit": mods, "heavy": seen,
               "stdlib": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules),
               "sympy": sorted(m for m in sys.modules if m.split(".")[0] == "sympy")}, fh)
"""

SPEC = """\
vars: d1 d2 d3
operator Q = [[-3*d1^2 - 2*d1*d2 - 2*d2^2 - 2*d2*d3 - 4*d3^2]]
complex C = de_rham(3)
mu C 1 scalar 2
"""

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_BUNDLE = ROOT / "perfbench" / "reference" / "fixtures.json"
EXACT = {"cxkit", "cxkit.cli", "cxkit.dsl", "cxkit.complexes", "cxkit.diffop", "cxkit.poly",
         "cxkit._record"}
ALL = {"cxkit"} | {f"cxkit.{name}" for name in
                   ("_record", "_sobol_directions", "blockops", "cli", "complexes", "diffop",
                    "dsl", "ellipticity", "fixtures", "poly", "sphere", "symbols", "syzygy")}
# ``cxkit.ellipticity`` alone keeps two dataclasses, ``EllipticityReport`` and
# ``WeightPlan``: the benchmark's self-tests build corrupted reports with
# ``dataclasses.replace``.  Every other command loads neither module.
DATACLASSES = ["dataclasses", "inspect"]


def probe(tmp_path, *commands: list) -> dict:
    """What the probe saw running ``commands``, each an argv in which
    ``SPEC`` stands for a file of ``SPEC`` and ``OUT`` for
    ``<command>.json`` in ``tmp_path``."""
    spec = tmp_path / "doc.spec"
    spec.write_text(SPEC)
    src = str(Path(cxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "loaded.json"
    argvs = [[{"SPEC": str(spec), "OUT": str(tmp_path / f"{argv[0]}.json")}.get(a, a)
              for a in argv] for argv in commands]
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


@pytest.mark.parametrize("argv, modules, numpy", [
    (["--help"], EXACT, False),
    (["verify", "--spec", "SPEC", "--json", "OUT"], EXACT, False),
    (["laplacian", "--spec", "SPEC", "--json", "OUT"], EXACT, False),
    (["parametrix", "--spec", "SPEC", "--json", "OUT"],
     EXACT | {"cxkit.blockops", "cxkit.symbols"}, False),
    (["syzygy", "--spec", "SPEC", "--json", "OUT"],
     EXACT | {"cxkit.syzygy"}, False),
    (["ellipticity", "--spec", "SPEC", "--budget", "64", "--json", "OUT"],
     EXACT | {"cxkit.ellipticity", "cxkit.sphere", "cxkit._sobol_directions"}, True),
    (["ellipticity", "--spec", str(ROOT / "tests" / "data" / "lame3.spec"),
      "--kind", "strong", "--json", "OUT"], EXACT | {"cxkit.ellipticity"}, False),
    (["ellipticity", "--spec", str(ROOT / "tests" / "data" / "maxwell3_weighted.spec"),
      "--name", "M", "--kind", "petrovskii", "--json", "OUT"],
     EXACT | {"cxkit.ellipticity"}, False),
    (["fixtures", "--json", "OUT"], ALL, True),
], ids=["help", "verify", "laplacian", "parametrix", "syzygy", "ellipticity",
        "ellipticity-lame-strong", "ellipticity-maxwell-petrovskii", "fixtures"])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules, numpy):
    """A check the certificate settles, Lame's strong check by its two
    roots or a weighted Maxwell determinant by its one, loads neither
    ``cxkit.sphere`` nor numpy."""
    loaded = probe(tmp_path, argv)
    assert loaded["codes"] == [0]
    assert loaded["refused"] == []
    assert set(loaded["cxkit"]) == modules
    assert loaded["heavy"] == [["numpy"] if numpy else []]
    assert loaded["stdlib"] == (DATACLASSES if "cxkit.ellipticity" in modules else [])
    assert loaded["sympy"] == []
    report = tmp_path / f"{argv[0]}.json"
    if argv[0] == "ellipticity":
        assert json.loads(report.read_text())["report"]["verdict"] == (
            "numeric-pass" if numpy else "certified-symbolic")
    if argv[0] == "fixtures":
        assert report.read_bytes() == REFERENCE_BUNDLE.read_bytes()


def test_every_module_is_listed():
    """``ALL`` is the whole package, so the fixtures case checks everything."""
    package = Path(cxkit.__file__).parent
    assert ALL == {"cxkit"} | {f"cxkit.{p.stem}" for p in package.glob("*.py")
                               if p.stem != "__init__"}


def _unused_imports(path: Path) -> list:
    """The names ``path`` imports and never reads, ``from __future__``
    imports and the names its ``__all__`` lists aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name.partition(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in read]


def test_every_imported_name_is_read():
    modules = sorted((ROOT / "src" / "cxkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [unused for path in modules for unused in _unused_imports(path)] == []
