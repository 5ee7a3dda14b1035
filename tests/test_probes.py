"""The benchmark's probes wrap lorad2d entry points by name, and map event
kinds to layers by name; each must exist, so that renaming one fails here
rather than in the benchmark.  The benchmark's own self-test must pass too."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import test_golden
from lorad2d import runner
from lorad2d.engine import Engine

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_PROBES = _BENCH / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("bench_probes", _PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes


PROBES = _probes()
SPANS = PROBES._SPANS
D2D_TIMER_KINDS = {"d2d_start", "d2d_deadline", "d2d_no_reply", "d2d_linger",
                   "d2d_complete"}


@pytest.mark.parametrize("module,cls,attr,span", SPANS,
                         ids=[span for *_, span in SPANS])
def test_probed_attribute_exists(module, cls, attr, span):
    mod = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    else:
        # the probe replaces the class's own attribute, not an inherited one
        assert attr in vars(getattr(mod, cls)), f"{module}.{cls}.{attr}"


def test_every_scheduled_event_kind_maps_to_a_layer(monkeypatch):
    kinds = set()
    schedule = Engine.schedule

    def recording(engine, t_us, fn, data=None, kind="", target=""):
        kinds.add(kind)
        return schedule(engine, t_us, fn, data, kind, target)

    monkeypatch.setattr(Engine, "schedule", recording)
    for name in ("table2_conventional", "table2_d2d", "lossy-d2d", "join-cell"):
        runner.run(test_golden._scenario(name), seed=0, trace=False)
    assert {k for k in kinds if PROBES.layer_of_kind(k) == "other"} == set()
    assert D2D_TIMER_KINDS <= kinds
    assert {PROBES.layer_of_kind(k) for k in D2D_TIMER_KINDS} == {"d2d"}


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, str(_BENCH / "run.py"), "--self-test"],
                          cwd=_BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
