"""Wire a scenario into a live simulation and run it.

Also home to the benchmark machinery: the two bundled benchmark scenarios
(`table2_conventional`, `table2_d2d`) replicate a published comparison of a
2400-byte transfer relayed over the network against the same transfer done
device-to-device.  REFERENCE_* hold the published figures; :func:`table2`
re-runs both scenarios and reports each cell next to its reference with the
relative error, beside the power profile it fits so the simulated state
durations price out to the published energy totals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from . import metrics
from .energy import DEFAULT_PROFILE, StateUsage, fit_profile
from .engine import Engine, Medium
from .mac import EndDevice, ReceiveWindows
from .netserver import Gateway, NetworkServer
from .scenario import Scenario, load_bundled

CONVENTIONAL_SCENARIO = "table2_conventional"
D2D_SCENARIO = "table2_d2d"

# Published benchmark figures the bundled scenarios are checked against.
REFERENCE_TIME_S = {"conventional": 225.6, "d2d": 30.2}
REFERENCE_ENERGY_J = {
    "transmitter": 15.696,   # conventional uplink sender, whole run
    "receiver": 9.120,       # conventional downlink receiver, whole run
    "initiator": 0.817,      # D2D sender, session window
    "scanner": 1.494,        # D2D receiver, session window
}
# Which device in which benchmark scenario plays each role.
ROLE_SOURCE = {
    "transmitter": (CONVENTIONAL_SCENARIO, "transmitter"),
    "receiver": (CONVENTIONAL_SCENARIO, "receiver"),
    "initiator": (D2D_SCENARIO, "initiator"),
    "scanner": (D2D_SCENARIO, "scanner"),
}


@dataclass
class RunResult:
    scenario: Scenario
    engine: Engine
    devices: dict[str, EndDevice]
    gateways: dict[str, Gateway]
    ns: NetworkServer
    document: dict = field(default_factory=dict)

    def trace_jsonl(self) -> str:
        return self.engine.trace_jsonl()


def run(scn: Scenario, *, seed: int | None = None, trace: bool = False) -> RunResult:
    """Execute a scenario to its end time and summarize it.

    The seed defaults to the scenario's own.  The scenario-embedded profile,
    else the generic default, prices the energy ledgers in the output
    document: each device over the whole run, and each finished D2D session
    over its own window.
    """
    scn.validate()
    if seed is None:
        seed = scn.seed
    profile = scn.profile if scn.profile is not None else DEFAULT_PROFILE

    engine = Engine(seed=seed, trace=trace)
    medium = Medium(engine, scn.radio, sensitivity_table=scn.sensitivity_dbm)
    windows = ReceiveWindows(scn.rx2_freq_hz, scn.rx2_dr, scn.receive_delay1_s,
                             scn.receive_delay2_s, scn.preamble_detect_symbols)
    bands = scn.effective_bands
    ns = NetworkServer(engine, windows=windows, join_success_prob=scn.join_success_prob)
    gateways = {spec.eid: Gateway(engine, medium, ns, spec,
                                  backhaul_delay_s=scn.backhaul_delay_s, bands=bands,
                                  duty_enforced=scn.duty_cycle_enforced)
                for spec in scn.gateways}
    devices = {spec.eid: EndDevice(engine, medium, spec, windows=windows, bands=bands,
                                   duty_enforced=scn.duty_cycle_enforced)
               for spec in scn.devices}
    for spec in scn.devices:
        ns.register_device(spec)

    for tspec in scn.transfers:
        engine.schedule(round(tspec.at_s * 1e6), ns.start_transfer, tspec,
                        kind="transfer_start", target="ns")
    for dspec in scn.d2d_directives:
        engine.schedule(round(dspec.at_s * 1e6), ns.start_directive, dspec,
                        kind="d2d_directive", target="ns")
    for dev in devices.values():
        dev.start()

    engine.run(until_us=round(scn.end_time_s * 1e6))
    for dev in devices.values():
        dev.ledger.finalize(engine.now_us)

    result = RunResult(scenario=scn, engine=engine, devices=devices,
                       gateways=gateways, ns=ns)
    result.document = metrics.build(engine, scn, profile, devices, gateways, ns)
    return result


# -- benchmark ----------------------------------------------------------------


def benchmark_usages(runs: dict[str, RunResult]) -> dict[str, StateUsage]:
    """Per-role radio state durations over each role's accounting window.

    Conventional roles are costed over the whole run; D2D roles over their
    session window only (setup command to terminal state), which is what the
    published per-session figures cover.
    """
    usages: dict[str, StateUsage] = {}
    for role, (scn_name, eid) in ROLE_SOURCE.items():
        dev = runs[scn_name].devices[eid]
        if scn_name == D2D_SCENARIO:
            if not dev.session_history:
                raise RuntimeError(f"benchmark run finished no session for {eid}")
            usages[role] = dev.session_history[0].usage
        else:
            usages[role] = dev.ledger.usage()
    return usages


def table2(seed: int = 0) -> dict:
    """Run both benchmark scenarios and compare against the published table.

    A profile is calibrated from the same runs first.  The returned document
    carries, for each cell, the simulated value, the reference and the
    relative error, plus the headline ratios, the fitted profile and the
    calibration residuals.
    """
    runs = {name: run(load_bundled(name), seed=seed)
            for name in (CONVENTIONAL_SCENARIO, D2D_SCENARIO)}
    usages = benchmark_usages(runs)
    profile, residuals = fit_profile(usages, REFERENCE_ENERGY_J, name="benchmark-fit")
    transfers = runs[CONVENTIONAL_SCENARIO].document["transfers"]
    sessions = runs[D2D_SCENARIO].document["d2d_sessions"]
    times = {"conventional": transfers[0]["total_transfer_time_s"] if transfers else None,
             "d2d": sessions[0]["session_time_s"] if sessions else None}

    def cell(simulated, reference):
        rel = None if simulated is None else (simulated - reference) / reference
        return {"simulated": simulated, "reference": reference, "rel_err": rel}

    energy = {}
    for role, usage in usages.items():
        energy[role] = cell(usage.energy_j(profile)["total_j"],
                            REFERENCE_ENERGY_J[role])

    doc = {
        "seed": seed,
        "profile": profile.to_dict(),
        "time_s": {k: cell(times[k], REFERENCE_TIME_S[k])
                   for k in ("conventional", "d2d")},
        "energy_j": energy,
        "ratios": {},
        "calibration_residuals": residuals,
    }
    if times["conventional"] is not None and times["d2d"] is not None:
        doc["ratios"]["time_conventional_over_d2d"] = cell(
            times["conventional"] / times["d2d"],
            REFERENCE_TIME_S["conventional"] / REFERENCE_TIME_S["d2d"])
    for num, den in (("transmitter", "initiator"), ("receiver", "scanner")):
        sim_n = energy[num]["simulated"]
        sim_d = energy[den]["simulated"]
        if sim_n is not None and sim_d:
            doc["ratios"][f"energy_{num}_over_{den}"] = cell(
                sim_n / sim_d, REFERENCE_ENERGY_J[num] / REFERENCE_ENERGY_J[den])
    return doc


# -- sweeps -------------------------------------------------------------------


def summarize(result: RunResult) -> dict:
    """One flat row of headline numbers for a finished run."""
    doc = result.document
    net = doc["network"]
    duty_max_fraction = 0.0
    duty_frames = 0
    for dev in doc["devices"].values():
        for band in dev["duty"].values():
            duty_frames += band["frames"]
            if band["frames"]:
                duty_max_fraction = max(duty_max_fraction, band["fraction"] / band["limit"])
    sessions = doc["d2d_sessions"]
    transfers = doc["transfers"]
    return {
        "scenario": doc["scenario"],
        "seed": doc["seed"],
        "end_time_s": doc["end_time_s"],
        "events": net["events_executed"],
        "uplinks_sent": sum(d["uplinks_sent"] for d in doc["devices"].values()),
        "uplinks_delivered": net["uplinks"],
        "collisions": net["collisions"],
        "below_sensitivity": net["below_sensitivity"],
        "downlinks_scheduled": net["downlinks_scheduled"],
        "duty_deferrals": sum(d["duty_deferrals"] for d in doc["devices"].values()),
        "duty_max_fraction_of_limit": duty_max_fraction,
        "duty_frames": duty_frames,
        "transfers_complete": sum(1 for t in transfers if t["complete"]),
        "transfers_total": len(transfers),
        "d2d_sessions_completed": sum(1 for s in sessions if s["completed"]),
        "d2d_sessions_total": len(sessions),
        "d2d_frames_lost": net["d2d_frames_lost"],
        "d2d_plan_failures": net["d2d_plan_failures"],
    }


def _sweep_worker(args: tuple[str, int]) -> dict:
    text, seed = args
    scn = Scenario.from_json(text)
    return summarize(run(scn, seed=seed))


def sweep(scn: Scenario, seeds, jobs: int | None = None) -> list[dict]:
    """Run one scenario under many seeds, each an independent simulation.

    Runs are isolated processes when jobs allows, so a sweep parallelizes
    cleanly; results come back ordered by seed list position.
    """
    text = scn.to_json()
    work = [(text, int(s)) for s in seeds]
    if jobs is not None and jobs <= 1:
        return [_sweep_worker(item) for item in work]
    # imported here: it pulls in multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_worker, work, chunksize=max(1, len(work) // 32)))


def write_csv(rows: list[dict], fh) -> None:
    if not rows:
        return
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
