"""The benchmark's probes wrap lorad2d entry points by name; each must exist,
so that renaming one fails here rather than in the benchmark.  The
benchmark's own self-test must pass too."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_PROBES = _BENCH / "probes.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_probes", _PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes._SPANS


SPANS = _spans()


@pytest.mark.parametrize("module,cls,attr,span", SPANS,
                         ids=[span for *_, span in SPANS])
def test_probed_attribute_exists(module, cls, attr, span):
    mod = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    else:
        # the probe replaces the class's own attribute, not an inherited one
        assert attr in vars(getattr(mod, cls)), f"{module}.{cls}.{attr}"


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(_BENCH / "run.py"), "--self-test"],
                          cwd=_BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
