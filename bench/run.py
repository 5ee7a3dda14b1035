#!/usr/bin/env python3
"""Host-cost benchmark for the lorad2d simulator.

Run from the repository root:

    python3 bench/run.py --workload table2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --trace 1
    python3 bench/run.py --self-test

Each workload is a closed loop with one caller in this one process: the next
run starts when the previous one has returned and been checked.  Run ``i``
uses simulation seed ``--seed * 1_000_000 + i``, so the same ``--seed`` gives
the same inputs.  With ``--trace 0`` the end-to-end metrics named in
``BENCHMARK.json`` are measured with no probes installed.  With ``--trace 1``
every seed is run twice, untraced and then traced through ``probes.py``, and
the per-layer metrics come from the traced runs; a traced run whose event
count or summary digest differs from its untraced twin counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report that also carries the metrics BENCHMARK.json cannot
gate (tail latency, failure fraction, Table 2 accuracy, summary digest).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED_STRIDE = 1_000_000
SETUP_REPEATS = 9
DUTY_TOLERANCE = 1e-9          # same slack as scripts/duty_audit.py
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import lorad2d; "
                 "print(time.perf_counter() - t)")


def _load_lorad2d():
    """Import the simulator from this checkout's src/, never from elsewhere."""
    package = SRC / "lorad2d"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: simulator sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import lorad2d
    if Path(lorad2d.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported lorad2d from {lorad2d.__file__}, not {package}")
    return lorad2d


# -- workloads ----------------------------------------------------------------


@dataclasses.dataclass
class Workload:
    name: str
    setup: object             # () -> state; scenario generation and validation
    unit: object              # (state, seed) -> value; the timed program call
    check: object             # (value, results) -> list of problems
    warmup: int               # untimed runs before the timed loop
    fixed_runs: int           # runs always made; digests and counts use these
    time_err: object = None   # (value) -> Table 2 transfer-time error, if any


def _workloads(lorad2d) -> dict[str, Workload]:
    from lorad2d import runner
    from lorad2d.scenario import GatewaySpec, load_bundled, make_duty_audit

    def table2_setup():
        return [load_bundled(name).validate()
                for name in (runner.CONVENTIONAL_SCENARIO, runner.D2D_SCENARIO)]

    def table2_check(doc, results):
        problems = []
        by_name = {r.scenario.name: r.document for r in results}
        conv = by_name.get(runner.CONVENTIONAL_SCENARIO)
        d2d = by_name.get(runner.D2D_SCENARIO)
        if conv is None or d2d is None or len(results) != 2:
            return [f"expected the two Table 2 runs, got {sorted(by_name)}"]
        if not conv["transfers"] or not all(t["complete"] for t in conv["transfers"]):
            problems.append("relayed transfer did not complete")
        sessions = d2d["d2d_sessions"]
        if not sessions:
            problems.append("no D2D session was planned")
        for s in sessions:
            halves = s.get("sessions", {})
            for role in ("initiator", "scanner"):
                if not halves.get(role, {}).get("completed"):
                    problems.append(f"D2D {role} session did not complete")
        for key, cell in doc["time_s"].items():
            if cell["rel_err"] is None:
                problems.append(f"no simulated {key} transfer time")
        return problems

    def duty_setup():
        return make_duty_audit().validate()

    def dense_setup():
        scn = make_duty_audit(num_devices=1000, end_time_s=1800.0)
        return dataclasses.replace(
            scn, name="dense-1000", gateways=[GatewaySpec(eid="gw0", position=(0.0, 0.0))]
        ).validate()

    def no_extra_check(value, results):
        return []

    return {
        "table2": Workload(
            "table2", table2_setup, lambda state, seed: runner.table2(seed),
            table2_check, warmup=10, fixed_runs=20,
            time_err=lambda doc: max(abs(c["rel_err"]) for c in doc["time_s"].values())),
        "duty_audit": Workload(
            "duty_audit", duty_setup,
            lambda scn, seed: runner.sweep(scn, [seed], jobs=1),
            no_extra_check, warmup=1, fixed_runs=3),
        "dense_1000": Workload(
            "dense_1000", dense_setup, lambda scn, seed: runner.run(scn, seed=seed),
            no_extra_check, warmup=0, fixed_runs=1),
    }


# -- one run ------------------------------------------------------------------


class Harness:
    """Runs workload units and checks their outputs.

    Every ``runner.run`` call is captured (a pass-through wrapper installed
    for the whole process), so the checks and the digest see every
    simulation a unit made, including those inside ``table2`` and ``sweep``.
    """

    def __init__(self, lorad2d):
        from probes import Patches

        self.runner = lorad2d.runner
        self.results: list = []
        self._capture = Patches()
        results = self.results

        def capture(run):
            def captured(*args, **kwargs):
                result = run(*args, **kwargs)
                results.append(result)
                return result
            return captured

        self._capture.function(lorad2d.runner, "run", capture)

    def run_unit(self, unit, state, seed: int):
        """Time one unit; return (seconds, captured run results, value).

        The previous unit's simulation is a cyclic object graph; collecting
        it here, untimed, keeps its cost out of this unit's time and its
        memory out of this unit's peak.
        """
        self.results.clear()
        gc.collect()
        t0 = perf_counter()
        value = unit(state, seed)
        elapsed = perf_counter() - t0
        results = list(self.results)
        self.results.clear()
        return elapsed, results, value

    def check(self, wl: Workload, value, results) -> tuple[list[str], list[dict], int]:
        """Output checks shared by all workloads, then the workload's own.
        Returns (problems, summary rows, events executed)."""
        from lorad2d import metrics

        problems, rows, events = [], [], 0
        if not results:
            problems.append("the unit made no simulation run")
        for result in results:
            try:
                metrics.validate(result.document)
            except metrics.MetricsError as exc:
                problems.append(f"invalid metrics document: {exc}")
            row = self.runner.summarize(result)
            # the limit binds only where the scenario enforces it; the Table 2
            # scenarios switch it off on purpose
            if (result.scenario.duty_cycle_enforced
                    and row["duty_max_fraction_of_limit"] > 1.0 + DUTY_TOLERANCE):
                problems.append(f"duty cycle exceeded: {row['duty_max_fraction_of_limit']!r}"
                                f" of the limit at seed {row['seed']}")
            rows.append(row)
            events += result.engine.events_executed
        problems += wl.check(value, results)
        return problems, rows, events


def _digest(rows: list[dict]) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(wl: Workload):
    """Median over repeats of (fresh-interpreter import of lorad2d +
    in-process scenario generation and validation)."""
    totals, state = [], None
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = perf_counter()
        state = wl.setup()
        totals.append(imported + perf_counter() - t0)
    return statistics.median(totals), state


def _tail(times_ms: list[float]):
    """(percentile, value) of the highest percentile, in steps of 0.1, that
    leaves at least ten runs beyond it; None below 20 runs."""
    n = len(times_ms)
    if n < 20:
        return None
    permille = min(999, (1000 * (n - 10)) // n)
    cut = statistics.quantiles(times_ms, n=1000, method="inclusive")
    return permille / 10, cut[permille - 1]


# -- modes --------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rows: list[dict] = []

    def record(self, wl: Workload, problems: list[str], seed: int, label: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"bench: {wl.name} seed {seed}{label}: {p}", file=sys.stderr)

    def crashed(self, wl: Workload, seed: int) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"bench: {wl.name} seed {seed} raised:", file=sys.stderr)
        traceback.print_exc()


def measure_end_to_end(harness: Harness, wl: Workload, state, base: int, seconds: float):
    tally = Tally()
    for _ in range(wl.warmup):
        try:
            _, results, value = harness.run_unit(wl.unit, state, base)
            tally.record(wl, harness.check(wl, value, results)[0], base, " (warm-up)")
            del results, value
        except Exception:
            tally.crashed(wl, base)
    times, events, time_errs = [], 0, []
    begin = perf_counter()
    i = 0
    while i < wl.fixed_runs or perf_counter() - begin < seconds:
        seed = base + i
        i += 1
        try:
            elapsed, results, value = harness.run_unit(wl.unit, state, seed)
            problems, rows, n_events = harness.check(wl, value, results)
        except Exception:
            tally.crashed(wl, seed)
            continue
        tally.record(wl, problems, seed)
        if wl.time_err is not None:
            time_errs.append(wl.time_err(value))
        del results, value      # the next run must not share the heap with this one
        times.append(elapsed)
        events += n_events
        if i <= wl.fixed_runs:
            tally.rows += rows
    return tally, times, events, time_errs


def end_to_end_report(wl, tally, times, events, time_errs, setup_s, base) -> dict:
    times_ms = [t * 1e3 for t in times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "events_per_s": events / sum(times) if times else 0.0,
        "run_ms_p50": statistics.median(times_ms) if times_ms else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    n = len(times_ms)
    print(f"workload {wl.name}: {n} timed runs (+{wl.warmup} warm-up), seeds from {base}, "
          "closed loop, one caller")
    print(f"  events_per_s     {values['events_per_s']:.1f} 1/s  (simulated events per host second)")
    print(f"  run_ms_p50       {values['run_ms_p50']:.4f} ms  (median of {n} runs)")
    tail = _tail(times_ms)
    if tail is None:
        print(f"  run_ms_tail      omitted: {n} runs are too few to leave 10 beyond p50")
    else:
        print(f"  run_ms_tail      {tail[1]:.4f} ms  (p{tail[0]:g} of {n} runs)")
    print(f"  peak_rss_mb      {rss_mb:.1f} MB")
    print(f"  setup_s          {setup_s:.4f} s  (median of {SETUP_REPEATS} set-ups)")
    print(f"  failed_frac      {tally.failed / max(tally.attempted, 1):.6g}"
          f"  ({tally.failed} of {tally.attempted} runs)")
    if time_errs:
        print(f"  table2_time_err  {max(time_errs):.6g}  (largest |relative error| of the two"
              " transfer times vs 225.6 s and 30.2 s)")
    else:
        print("  table2_time_err  n/a  (table2 workload only)")
    print(f"  summary_digest   sha256:{_digest(tally.rows)}  "
          f"({len(tally.rows)} runner.summarize rows of the first {wl.fixed_runs} runs)")
    return values


def _layer_values(stats: dict, results: list) -> dict:
    """Per-layer metrics of one traced unit."""
    self_s, calls = stats["self_s"], stats["calls"]

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def layer_s(layer, skip=()):
        return sum(v for n, v in self_s.items() if n.split(".")[0] == layer and n not in skip)

    executed = sum(r.engine.events_executed for r in results)
    cancelled = stats["scheduled_due"] - executed
    docs = [r.document for r in results]
    dropped = sum(r.engine.counters.get(k, 0) for r in results
                  for k in ("collision", "below_sensitivity", "d2d_frames_lost"))
    decoded = c("mac.on_frame_decoded", "netserver.on_frame_decoded")
    halves = [h for d in docs for s in d["d2d_sessions"] for h in s.get("sessions", {}).values()]
    initiators = [h for h in halves if h["role"] == "initiator"]
    data_sent = sum(h["data_frames_sent"] for h in initiators)
    opens = c("mac.rx1_open", "mac.rx2_open")
    traced_total = sum(self_s.values())
    tx_self = t("medium.tx_start", "medium.tx_end")
    return {
        "engine.loop_self_s": t("engine.run"),
        "engine.schedule_s": t("engine.schedule"),
        "engine.schedule_calls": c("engine.schedule"),
        "engine.cancelled": cancelled,
        "engine.useful_ratio": executed / max(executed + cancelled, 1),
        "engine.queue_peak": stats["queue_peak"],
        "engine.rng_streams": stats["rng_streams"],
        "medium.tx_start_s": t("medium.tx_start"),
        "medium.tx_end_s": t("medium.tx_end"),
        "medium.listen_s": t("medium.listen"),
        "medium.overlap_checks": stats["overlap_checks"],
        "medium.decoded": decoded,
        "medium.dropped": dropped,
        "medium.decode_ratio": decoded / max(decoded + dropped, 1),
        "medium.tx_share": tx_self / traced_total if traced_total else 0.0,
        "mac.s": layer_s("mac"),
        "mac.rx_window_s": t("mac.rx1_open", "mac.rx2_open", "mac.rx1_close", "mac.rx2_close"),
        "mac.uplink_s": t("mac.uplink_timer", "mac.uplink_retry"),
        "mac.rx_close_per_open": c("mac.rx1_close", "mac.rx2_close") / max(opens, 1),
        "mac.duty_deferrals": sum(dev["duty_deferrals"] for d in docs
                                  for dev in d["devices"].values()),
        "regulator.s": layer_s("regulator"),
        "regulator.calls": sum(v for n, v in calls.items() if n.startswith("regulator.")),
        "phy.toa_calls": c("phy.time_on_air"),
        "phy.toa_s": layer_s("phy"),
        "energy.set_state_calls": c("energy.set_state"),
        "energy.ledger_s": layer_s("energy", skip=("energy.fit_profile",)),
        "energy.fit_s": t("energy.fit_profile"),
        "netserver.s": layer_s("netserver"),
        "netserver.downlinks": sum(d["network"]["downlinks_scheduled"] for d in docs),
        "netserver.plan_failures": sum(r.engine.counters.get(k, 0) for r in results
                                       for k in ("d2d_plan_failed", "transfer_failed")),
        "d2d.s": layer_s("d2d"),
        "d2d.frames_sent": sum(h["data_frames_sent"] + h["ack_frames_sent"] for h in halves),
        "d2d.ack_ratio": sum(h["packets_acked"] for h in initiators) / max(data_sent, 1),
        "scenario.s": layer_s("scenario"),
        "metrics.build_s": t("metrics.build"),
        "runner.wire_s": t("runner.run"),
        "trace.spans": stats["spans"],
    }


def _run_pair(harness: Harness, probes, wl: Workload, state, seed: int):
    """One seed untraced, then traced.  Returns (untraced s, traced s,
    per-layer values, problems); problems include any difference between
    the two runs' event counts or summary rows."""
    elapsed_u, results, value = harness.run_unit(wl.unit, state, seed)
    problems, rows_u, events_u = harness.check(wl, value, results)
    del results, value
    probes.install()
    try:
        elapsed_t, results, value = harness.run_unit(
            lambda scn, n: probes.root(wl.unit, scn, n), state, seed)
    finally:
        probes.uninstall()
        stats = probes.collect()
    more, rows_t, events_t = harness.check(wl, value, results)
    problems += more
    if events_t != events_u:
        problems.append(f"tracing changed the event count: {events_u} -> {events_t}")
    if _digest(rows_t) != _digest(rows_u):
        problems.append("tracing changed the summary rows")
    return elapsed_u, elapsed_t, _layer_values(stats, results), problems


def measure_per_layer(harness: Harness, wl: Workload, state, base: int, seconds: float):
    from probes import Probes

    probes = Probes()
    tally = Tally()
    untraced, traced, per_unit = [], [], []
    begin = perf_counter()
    i = 0
    while i < wl.fixed_runs or perf_counter() - begin < seconds:
        seed = base + i
        i += 1
        try:
            elapsed_u, elapsed_t, values, problems = _run_pair(harness, probes, wl, state, seed)
        except Exception:
            tally.crashed(wl, seed)
            continue
        tally.record(wl, problems, seed, " (traced pair)")
        untraced.append(elapsed_u)
        traced.append(elapsed_t)
        per_unit.append(values)
    if not per_unit:
        return tally, {}
    # Times: median over all traced runs.  Counts and ratios: mean over the
    # first fixed_runs runs, so they repeat exactly for a given --seed.
    counted = per_unit[:wl.fixed_runs]
    out = {}
    for key in per_unit[0]:
        if key.endswith("_s"):
            out[key] = statistics.median(v[key] for v in per_unit)
        else:
            out[key] = statistics.fmean(v[key] for v in counted)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    print(f"workload {wl.name}: {len(per_unit)} untraced/traced pairs, seeds from {base}")
    for key, value in out.items():
        print(f"  {key:<26} {value:.6g}")
    return tally, out


def self_test(lorad2d) -> int:
    """Traced and untraced runs of table2 and one duty_audit seed must agree,
    and uninstalling the probes must restore every wrapped attribute."""
    from probes import Probes

    harness = Harness(lorad2d)
    workloads = _workloads(lorad2d)
    probes = Probes()
    engine_cls = lorad2d.engine.Engine

    def wrapped_attrs():
        return (engine_cls.schedule, engine_cls.run, lorad2d.phy.time_on_air,
                lorad2d.runner.summarize, lorad2d.scenario.Scenario.__dict__["from_json"])

    before = wrapped_attrs()
    failures = []
    for name in ("table2", "duty_audit"):
        wl = workloads[name]
        state = wl.setup()
        _, _, values, problems = _run_pair(harness, probes, wl, state, seed=0)
        failures += [f"{name}: {p}" for p in problems]
        if values["engine.schedule_calls"] <= 0 or values["trace.spans"] <= 0:
            failures.append(f"{name}: the probes recorded nothing")
    if any(a is not b for a, b in zip(before, wrapped_attrs())):
        failures.append("uninstall left a wrapped attribute behind")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def run_workload(lorad2d, name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    harness = Harness(lorad2d)
    wl = _workloads(lorad2d)[name]
    base = seed * SEED_STRIDE
    if trace:
        tally, values = measure_per_layer(harness, wl, wl.setup(), base, seconds)
    else:
        setup_s, state = measure_setup(wl)
        tally, times, events, errs = measure_end_to_end(harness, wl, state, base, seconds)
        values = end_to_end_report(wl, tally, times, events, errs, setup_s, base)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    ok = tally.failed == 0 and len(metrics) == len(declared)
    return {"correct": ok, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("table2", "duty_audit", "dense_1000"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("table2", "duty_audit", "dense_1000", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that tracing leaves the simulation unchanged, then exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    lorad2d = _load_lorad2d()
    if args.self_test:
        return self_test(lorad2d)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(lorad2d, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
