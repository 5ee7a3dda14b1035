"""Outside-in tracing for the lorad2d benchmark.

The simulator is not edited for measurement.  Instead, :class:`Probes`
wraps public entry points of the imported ``lorad2d`` modules at run time
and restores the originals afterwards.  The main probe is
``Engine.schedule``: every callback it receives is wrapped in a span named
after the event ``kind``, so each simulated event is timed under the layer
that handles it.  The other probes time public methods and functions of
each layer, or only count calls where a span would cost more than the work.

Spans (name, start, end, parent) are kept in flat in-memory arrays until a
traced run ends; :meth:`Probes.collect` then derives each span's self time
(its duration minus the part covered by its children) and sums it by name.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# Event kinds handled by the network server; checked before the prefix
# rules because ``join_accept`` and ``d2d_directive`` share prefixes with
# MAC and D2D kinds.
_NETSERVER_KINDS = frozenset(
    {"backhaul", "downlink", "join_accept", "transfer_start", "d2d_directive"})


def layer_of_kind(kind: str) -> str:
    """Layer that executes an engine event of this kind."""
    if kind in ("tx_start", "tx_end"):
        return "medium"
    if kind in _NETSERVER_KINDS:
        return "netserver"
    if kind.startswith(("rx", "uplink_", "join_")):
        return "mac"
    if kind.startswith("d2d_"):
        return "d2d"          # session timers: d2d_start, d2d_no_reply, ...
    return "other"


# (module, class or None, attribute, span name).  The layer is the span
# name up to its first dot.
_SPANS = (
    ("lorad2d.runner", None, "run", "runner.run"),
    ("lorad2d.runner", None, "table2", "runner.table2"),
    ("lorad2d.runner", None, "sweep", "runner.sweep"),
    ("lorad2d.runner", None, "summarize", "runner.summarize"),
    ("lorad2d.engine", "Engine", "run", "engine.run"),
    ("lorad2d.engine", "Medium", "listen", "medium.listen"),
    ("lorad2d.mac", "EndDevice", "on_own_tx_start", "mac.on_own_tx_start"),
    ("lorad2d.mac", "EndDevice", "on_own_tx_end", "mac.on_own_tx_end"),
    ("lorad2d.mac", "EndDevice", "on_frame_decoded", "mac.on_frame_decoded"),
    ("lorad2d.netserver", "Gateway", "on_frame_decoded", "netserver.on_frame_decoded"),
    ("lorad2d.netserver", "Gateway", "on_own_tx_end", "netserver.on_own_tx_end"),
    ("lorad2d.d2d", "D2DSession", "on_frame", "d2d.on_frame"),
    ("lorad2d.d2d", "D2DSession", "on_tx_end", "d2d.on_tx_end"),
    ("lorad2d.energy", "EnergyLedger", "set_state", "energy.set_state"),
    ("lorad2d.energy", "EnergyLedger", "command", "energy.command"),
    ("lorad2d.energy", "EnergyLedger", "finalize", "energy.finalize"),
    ("lorad2d.energy", "EnergyLedger", "usage", "energy.usage"),
    ("lorad2d.energy", None, "fit_profile", "energy.fit_profile"),
    ("lorad2d.regulator", "DutyLedger", "next_allowed_us", "regulator.next_allowed_us"),
    ("lorad2d.regulator", "DutyLedger", "record_transmission", "regulator.record_transmission"),
    ("lorad2d.regulator", "DutyLedger", "audit", "regulator.audit"),
    ("lorad2d.phy", None, "time_on_air", "phy.time_on_air"),
    ("lorad2d.phy", None, "time_on_air_us", "phy.time_on_air_us"),
    ("lorad2d.metrics", None, "build", "metrics.build"),
    ("lorad2d.scenario", None, "load_bundled", "scenario.load_bundled"),
    ("lorad2d.scenario", None, "make_duty_audit", "scenario.make_duty_audit"),
    ("lorad2d.scenario", "Scenario", "from_json", "scenario.from_json"),
    ("lorad2d.scenario", "Scenario", "to_json", "scenario.to_json"),
    ("lorad2d.scenario", "Scenario", "validate", "scenario.validate"),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def function(self, module, attr: str, make) -> None:
        """Replace a module-level function wherever a lorad2d module bound it,
        including modules that imported it by name."""
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "lorad2d":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Probes:
    """Span recorder plus the wrappers that feed it.

    Use as ``install()``, run the traced work inside ``root()``, then
    ``uninstall()`` and ``collect()``.  Between installs the lorad2d
    modules are exactly as imported.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches = Patches()
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.overlap_checks = [0]
        self.rng_labels: set[tuple[int, str]] = set()
        self.scheduled: dict[object, array] = {}
        self.run_until: dict[object, int | None] = {}
        self.queue_peak = [0]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def timed(self, fn, name: str):
        """``fn`` wrapped so each call records one span called ``name``."""
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack)

        def span(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return span

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        from lorad2d import engine, phy

        patches = self._patches
        for module_name, cls_name, attr, span_name in _SPANS:
            module = sys.modules[module_name]
            make = (lambda fn, _n=span_name: self.timed(fn, _n))
            if cls_name is None:
                patches.function(module, attr, make)
            else:
                patches.method(getattr(module, cls_name), attr, make)
        patches.method(engine.Engine, "schedule", self._wrap_schedule)
        patches.method(engine.Engine, "run", self._wrap_run)
        patches.method(engine.RngManager, "stream", self._wrap_stream)
        patches.method(phy.Transmission, "overlaps", self._wrap_overlaps)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap_schedule(self, schedule):
        timed_schedule = self.timed(schedule, "engine.schedule")
        scheduled = self.scheduled
        peak = self.queue_peak
        span_names: dict[str, str] = {}

        def wrapped(engine, t_us, fn, data=None, kind="", target=""):
            stamps = scheduled.get(engine)
            if stamps is None:
                stamps = scheduled[engine] = array("q")
            stamps.append(t_us)
            name = span_names.get(kind)
            if name is None:
                name = span_names[kind] = f"{layer_of_kind(kind)}.{kind or 'unnamed'}"
            ev = timed_schedule(engine, t_us, self.timed(fn, name), data, kind, target)
            depth = len(getattr(engine, "_heap", ()))
            if depth > peak[0]:
                peak[0] = depth
            return ev

        return wrapped

    def _wrap_run(self, run):
        # Engine.run is also listed in _SPANS; this outer layer only notes
        # the horizon so cancelled events can be told from pending ones.
        run_until = self.run_until

        def wrapped(engine, until_us=None):
            run_until[engine] = until_us
            return run(engine, until_us)

        return wrapped

    def _wrap_stream(self, stream):
        labels = self.rng_labels

        def wrapped(manager, label):
            labels.add((id(manager), label))
            return stream(manager, label)

        return wrapped

    def _wrap_overlaps(self, overlaps):
        count = self.overlap_checks

        def wrapped(tx, t0_us, t1_us):
            count[0] += 1
            return overlaps(tx, t0_us, t1_us)

        return wrapped

    # -- one traced unit ----------------------------------------------------

    def root(self, fn, *args):
        """Call ``fn(*args)`` under the root span ``bench.unit``."""
        return self.timed(fn, "bench.unit")(*args)

    def collect(self) -> dict:
        """Per-name self time and call count of the spans recorded since the
        last collect, plus the engine counts; then clear them."""
        n_names = len(self.names)
        # copies, because the arrays are cleared below while still exported
        name = np.frombuffer(self._name, dtype=np.intc).copy()
        parent = np.frombuffer(self._parent, dtype=np.intc).copy()
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=n_names)
        calls = np.bincount(name, minlength=n_names)

        scheduled_due = 0
        for engine, stamps in self.scheduled.items():
            until = self.run_until.get(engine)
            ts = np.frombuffer(stamps, dtype=np.int64)
            scheduled_due += int(ts.size if until is None else np.count_nonzero(ts <= until))
        out = {
            "self_s": {self.names[i]: float(self_s[i]) for i in range(n_names) if calls[i]},
            "calls": {self.names[i]: int(calls[i]) for i in range(n_names) if calls[i]},
            "spans": int(len(name)),
            "overlap_checks": self.overlap_checks[0],
            "rng_streams": len(self.rng_labels),
            "queue_peak": self.queue_peak[0],
            "scheduled_due": scheduled_due,
        }
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._reset_counts()
        return out
