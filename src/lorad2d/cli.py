"""Command line front end.

Subcommands: ``run`` a scenario file or bundled scenario, ``toa`` for airtime
arithmetic, ``duty`` for the sub-band table and off-time calculator,
``table2`` for the benchmark comparison, ``calibrate`` to print and save the
power profile it fits, ``sweep`` for multi-seed batches (``sweep
duty-audit`` is the regulatory audit: it fails when any run overshoots a
sub-band's duty-cycle limit).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import metrics, phy, regulator, runner
from .scenario import (Scenario, ScenarioError, bundled_names, load_bundled,
                       make_duty_audit)

# Scenarios built in code rather than read from a bundled file.
GENERATED = {"duty-audit": make_duty_audit}

# A run whose busiest sub-band exceeds its duty limit by more than this fails
# the audit.
DUTY_TOLERANCE = 1e-9


def _scenario_names() -> list[str]:
    return bundled_names() + sorted(GENERATED)


def _load_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        return Scenario.load(path)
    if ref in GENERATED:
        return GENERATED[ref]()
    if ref in bundled_names():
        return load_bundled(ref)
    raise ScenarioError("$", f"{ref!r} is neither a file nor a bundled scenario "
                             f"(bundled: {', '.join(_scenario_names())})")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- run -----------------------------------------------------------------


def cmd_run(args) -> int:
    scn = _load_scenario(args.scenario)
    result = runner.run(scn, seed=args.seed, trace=args.trace is not None)
    doc = result.document
    if args.trace is not None:
        _write_or_print(result.trace_jsonl(), args.trace)
    if args.out is not None:
        metrics.save(doc, args.out)
    row = runner.summarize(result)
    print(f"scenario {row['scenario']} seed {row['seed']}: "
          f"{row['events']} events in {row['end_time_s']:g} simulated seconds")
    print(f"  uplinks sent/delivered: {row['uplinks_sent']}/{row['uplinks_delivered']}"
          f"  downlinks: {row['downlinks_scheduled']}  collisions: {row['collisions']}")
    if row["transfers_total"]:
        print(f"  transfers complete: {row['transfers_complete']}/{row['transfers_total']}")
        for tr in doc["transfers"]:
            t = tr["total_transfer_time_s"]
            print(f"    {tr['source']} -> {tr['dest']}: {tr['bytes_delivered']}"
                  f"/{tr['total_bytes']} bytes"
                  + (f" in {t:.6f} s" if t is not None else ""))
    if row["d2d_sessions_total"]:
        print(f"  d2d sessions complete: {row['d2d_sessions_completed']}"
              f"/{row['d2d_sessions_total']}")
        for s in doc["d2d_sessions"]:
            if s.get("error"):
                print(f"    {s['initiator']} -> {s['scanner']}: plan failed: {s['error']}")
            else:
                t = s["session_time_s"]
                print(f"    {s['initiator']} -> {s['scanner']}: "
                      f"{s['bytes_exchanged']} bytes"
                      + (f" in {t:.6f} s" if t is not None else " (incomplete)"))
    if args.out is not None:
        print(f"  metrics written to {args.out}")
    return 0


# -- toa -----------------------------------------------------------------


def cmd_toa(args) -> int:
    payload = args.payload_bytes
    if args.app:
        payload += phy.FRAME_OVERHEAD_BYTES
    if args.dr is None:
        rows = range(8)
    else:
        rows = [args.dr]
    for dr in rows:
        desc = phy.data_rate(dr)
        seconds = phy.time_on_air(dr, payload)
        label = (f"SF{desc.sf}/BW{desc.bandwidth_hz // 1000}k" if desc.is_lora
                 else "GFSK 50 kbps")
        print(f"DR{dr} ({label}): {payload} PHY bytes -> {seconds:.6f} s")
    return 0


# -- duty ----------------------------------------------------------------


def cmd_duty(args) -> int:
    bands = regulator.DEFAULT_BANDS
    if args.freq is None:
        print(f"{'band':<6}{'range':<24}{'duty':>8}{'max ERP':>10}")
        for band in bands:
            rng = f"{band.low_hz / 1e6:.1f}-{band.high_hz / 1e6:.1f} MHz"
            print(f"{band.ident:<6}{rng:<24}{band.duty_cycle_limit:>7.1%}"
                  f"{band.max_erp_dbm:>8.1f}dBm")
        return 0
    band = regulator.classify(args.freq, bands)
    print(f"{args.freq} Hz -> band {band.ident} "
          f"(duty {band.duty_cycle_limit:.1%}, max ERP {band.max_erp_dbm:g} dBm)")
    if args.toa is not None:
        toa_us = round(args.toa * 1e6)
        off_us = regulator.off_time_us(toa_us, band.duty_cycle_limit)
        print(f"after {args.toa:.6f} s on air: stay off {off_us / 1e6:.6f} s "
              f"(next start {(toa_us + off_us) / 1e6:.6f} s after tx start)")
    return 0


# -- table2 --------------------------------------------------------------


def _print_row(label: str, simulated, reference: float, rel_err, width: int = 15) -> None:
    if simulated is None:
        cell = f"      (none)  ref {reference:10.3f}"
    else:
        cell = f"{simulated:12.3f}  ref {reference:10.3f}  err {rel_err:+7.2%}"
    print(f"  {label:<{width}}{cell}")


def _print_residuals(residuals: dict) -> None:
    print("calibration residuals [J]")
    for role, res in residuals.items():
        _print_row(role, res["model_j"], res["target_j"], res["rel_err"])


def cmd_table2(args) -> int:
    doc = runner.table2(seed=args.seed)
    print("time to transfer 2400 bytes [s]")
    for name in ("conventional", "d2d"):
        _print_row(name, **doc["time_s"][name])
    print("energy per role [J]")
    for role in ("transmitter", "receiver", "initiator", "scanner"):
        _print_row(role, **doc["energy_j"][role])
    print("ratios")
    for key, cell in doc["ratios"].items():
        _print_row(key, **cell, width=34)
    _print_residuals(doc["calibration_residuals"])
    if args.out is not None:
        metrics.save(doc, args.out)
        print(f"comparison written to {args.out}")
    return 0


# -- calibrate -----------------------------------------------------------


def cmd_calibrate(args) -> int:
    doc = runner.table2(seed=args.seed)
    profile = doc["profile"]
    print("fitted profile")
    for key in ("p_tx14_w", "p_rx_w", "p_sleep_w", "command_overhead_j"):
        print(f"  {key:<19}{profile[key]:.9f}")
    _print_residuals(doc["calibration_residuals"])
    if args.out is not None:
        metrics.save(profile, args.out)
        print(f"profile written to {args.out}")
    return 0


# -- sweep ---------------------------------------------------------------


def cmd_sweep(args) -> int:
    scn = _load_scenario(args.scenario)
    base = args.seed if args.seed is not None else scn.seed
    seeds = range(base, base + args.seeds)
    rows = runner.sweep(scn, seeds, jobs=args.jobs)
    if args.out is None or args.out == "-":
        runner.write_csv(rows, sys.stdout)
        report = sys.stderr              # keep stdout valid CSV
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            runner.write_csv(rows, fh)
        print(f"{len(rows)} runs written to {args.out}")
        report = sys.stdout
    worst = max((row["duty_max_fraction_of_limit"] for row in rows), default=0.0)
    print(f"worst per-band duty usage: {worst:.6f} of the limit", file=report)
    print(f"uplinks deferred by the duty ledger: "
          f"{sum(row['duty_deferrals'] for row in rows)}", file=report)
    if scn.duty_cycle_enforced and worst > 1.0 + DUTY_TOLERANCE:
        print("error: duty-cycle limit exceeded", file=sys.stderr)
        return 1
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorad2d",
        description="LoRaWAN class A + device-to-device transfer simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_help = ("path to a scenario JSON file, or a bundled name "
                     f"({', '.join(_scenario_names())})")

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help=scenario_help)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--out", default=None, metavar="FILE",
                       help="write the metrics document (JSON) here")
    p_run.add_argument("--trace", default=None, metavar="FILE",
                       help="write line-delimited trace records here")
    p_run.set_defaults(fn=cmd_run)

    p_toa = sub.add_parser("toa", help="frame airtime for a data rate")
    p_toa.add_argument("payload_bytes", type=int)
    p_toa.add_argument("--dr", type=int, default=None,
                       help="data rate index; omit for all of DR0..DR7")
    p_toa.add_argument("--app", action="store_true",
                       help="treat the byte count as application payload "
                            "(adds the frame overhead)")
    p_toa.set_defaults(fn=cmd_toa)

    p_duty = sub.add_parser("duty", help="sub-band table and off-time calculator")
    p_duty.add_argument("--freq", type=int, default=None, metavar="HZ",
                        help="classify this frequency")
    p_duty.add_argument("--toa", type=float, default=None, metavar="S",
                        help="with --freq: off time after this much airtime")
    p_duty.set_defaults(fn=cmd_duty)

    p_t2 = sub.add_parser("table2",
                          help="benchmark comparison against the published figures")
    p_t2.add_argument("--seed", type=int, default=0)
    p_t2.add_argument("--out", default=None, metavar="FILE",
                      help="also write the comparison document (JSON) here")
    p_t2.set_defaults(fn=cmd_table2)

    p_cal = sub.add_parser("calibrate",
                           help="fit the power profile to the published energies")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--out", default=None, metavar="FILE",
                       help="write the fitted profile (JSON) here")
    p_cal.set_defaults(fn=cmd_calibrate)

    p_sweep = sub.add_parser("sweep", help="run a scenario under many seeds")
    p_sweep.add_argument("scenario", help=scenario_help)
    p_sweep.add_argument("--seeds", type=int, required=True, metavar="N",
                         help="number of consecutive seeds to run")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="first seed (default: the scenario's)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: one per core)")
    p_sweep.add_argument("--out", default=None, metavar="FILE",
                         help="write the per-run CSV here instead of stdout")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, metrics.MetricsError, phy.PhyError,
            regulator.RegulatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
