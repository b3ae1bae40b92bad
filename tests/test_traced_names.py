"""Every name the benchmark's tracer wraps still exists in cxkit.

``perfbench/tracing.py`` looks each ``TRACED`` name up when a traced run
starts and fails on a missing one; traced runs are not part of this suite,
so a renamed or deleted public function would otherwise break them unseen.
The file is loaded by path: perfbench is not a package on the test path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer, names", sorted(_traced().items()))
def test_traced_names_resolve(layer, names):
    mod = importlib.import_module(f"cxkit.{layer}")
    for qual in names:
        if "." in qual:
            cls_name, meth = qual.split(".")
            assert meth in vars(getattr(mod, cls_name)), qual
        else:
            assert callable(getattr(mod, qual, None)), qual
