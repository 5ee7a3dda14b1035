"""The benchmark's probes wrap lorad2d entry points by name; each must exist,
so that renaming one fails here rather than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PROBES = Path(__file__).resolve().parents[1] / "bench" / "probes.py"


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
