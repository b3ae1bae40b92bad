"""Capture the reference outputs the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes ``reference/fixtures.json`` (the bytes of ``cxkit fixtures``) and
``reference/roadmap_syzygy.json`` (the compatibility operator of the
four-generator module, rows in their original order, as exact terms).
Run it only to re-baseline after an intended change of these outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    from cxkit import syzygy
    import workloads

    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "cxkit.cli", "fixtures"],
                          capture_output=True, check=True)
    (out / "fixtures.json").write_bytes(proc.stdout)

    sig, rows = workloads.module_rows("roadmap")
    from cxkit.diffop import OperatorMatrix
    b = syzygy.compatibility_operator(OperatorMatrix.from_entries(sig, rows))
    data = {"vars": list(sig.vars), "rows": [
        [[[list(e), str(c.re), str(c.im)] for e, c in p.sorted_terms()] for p in row]
        for row in b.body.entries]}
    (out / "roadmap_syzygy.json").write_text(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
