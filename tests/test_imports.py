"""Each ``cxkit`` command loads only the modules it runs.

Every case is a fresh interpreter that runs one command through
``cxkit.cli.main`` and then lists the ``cxkit`` modules it has loaded, which
of numpy, ``numpy.random`` and ``numpy.ma`` are among them (the numeric
commands run on numpy's core and linalg alone) and which of ``dataclasses``
and ``inspect`` (the exact commands build no dataclass).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cxkit

PROBE = """
import json, sys
from cxkit.cli import main
out, argv = sys.argv[1], sys.argv[2:]
try:
    main(argv)
except SystemExit:  # --help
    pass
mods = sorted(m for m in sys.modules if m == "cxkit" or m.startswith("cxkit."))
with open(out, "w") as fh:
    json.dump({"cxkit": mods, "numpy": sorted(m for m in ("numpy", "numpy.ma", "numpy.random")
                                               if m in sys.modules),
               "stdlib": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}, fh)
"""

SPEC = """\
vars: d1 d2 d3
operator Q = [[-3*d1^2 - 2*d1*d2 - 2*d2^2 - 2*d2*d3 - 4*d3^2]]
complex C = de_rham(3)
"""

EXACT = {"cxkit", "cxkit.cli", "cxkit.dsl", "cxkit.complexes", "cxkit.diffop", "cxkit.poly",
         "cxkit._record"}
ALL = {"cxkit"} | {f"cxkit.{name}" for name in
                   ("_record", "_sobol_directions", "blockops", "cli", "complexes", "diffop",
                    "dsl", "ellipticity", "fixtures", "poly", "sphere", "symbols", "syzygy")}
# ``cxkit.ellipticity`` alone keeps two dataclasses, ``EllipticityReport`` and
# ``WeightPlan``: the benchmark's self-tests build corrupted reports with
# ``dataclasses.replace``.  Every other command loads neither module.
DATACLASSES = ["dataclasses", "inspect"]


def _loaded(tmp_path, *argv: str) -> dict:
    spec = tmp_path / "doc.spec"
    spec.write_text(SPEC)
    src = str(Path(cxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "loaded.json"
    args = [a.replace("SPEC", str(spec)).replace("OUT", str(tmp_path / "report.json"))
            for a in argv]
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *args],
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
    (["fixtures", "--json", "OUT"], ALL, True),
], ids=["help", "verify", "laplacian", "parametrix", "syzygy", "ellipticity", "fixtures"])
def test_each_command_loads_only_its_modules(tmp_path, argv, modules, numpy):
    loaded = _loaded(tmp_path, *argv)
    assert set(loaded["cxkit"]) == modules
    assert loaded["numpy"] == (["numpy"] if numpy else [])
    assert loaded["stdlib"] == (DATACLASSES if "cxkit.ellipticity" in modules else [])


def test_every_module_is_listed():
    """``ALL`` is the whole package, so the fixtures case checks everything."""
    package = Path(cxkit.__file__).parent
    assert ALL == {"cxkit"} | {f"cxkit.{p.stem}" for p in package.glob("*.py")
                               if p.stem != "__init__"}
