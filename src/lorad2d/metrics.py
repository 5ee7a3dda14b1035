"""Result documents.

A finished run is summarized into a JSON-serializable dict tagged
``metrics/1``: per-device traffic counters and energy breakdowns, per-gateway
stats, network-wide counters, one record per relayed transfer and one per
D2D directive, in firing order.  Time fields are in seconds, energy in joules.
"""

from __future__ import annotations

import json

from .d2d import Role
from .energy import PowerProfile

METRICS_SCHEMA = "metrics/1"

_TOP_KEYS = ("schema", "scenario", "seed", "end_time_s", "profile", "devices",
             "gateways", "network", "transfers", "d2d_sessions")


class MetricsError(ValueError):
    pass


def _energy_block(usage, profile: PowerProfile) -> dict:
    block = usage.energy_j(profile)
    block.update(tx_s=usage.tx_s, rx_s=usage.rx_s, sleep_s=usage.sleep_s,
                 commands=usage.commands)
    return block


def session_record(session, profile: PowerProfile) -> dict:
    rec = {
        "device": session.device.eid,
        "role": session.cmd.role.name.lower(),
        "state": session.state.value,
        "established": session.established,
        "completed": session.completed,
        "fail_reason": session.fail_reason,
        "packets_acked": session.packets_acked,
        "data_frames_sent": session.data_frames_sent,
        "ack_frames_sent": session.ack_frames_sent,
        "ignored_frames": session.ignored_frames,
        "activation_s": session.activation_us / 1e6,
        "terminal_s": None,
        "duration_s": None,
        "first_data_tx_s": (None if session.first_data_tx_us is None
                            else session.first_data_tx_us / 1e6),
    }
    if session.terminal_us is not None:
        rec["terminal_s"] = session.terminal_us / 1e6
        rec["duration_s"] = (session.terminal_us - session.activation_us) / 1e6
        rec["energy"] = _energy_block(session.usage, profile)
    return rec


def _sessions(device) -> list:
    """The device's finished sessions in order, then its running one."""
    if device.session is None:
        return device.session_history
    return [*device.session_history, device.session]


def device_record(device, profile: PowerProfile) -> dict:
    rec = device.snapshot()
    rec["energy"] = _energy_block(device.ledger.usage(), profile)
    rec["sessions"] = [session_record(s, profile) for s in _sessions(device)]
    return rec


def build(engine, scenario, devices: dict, gateways: dict, ns) -> dict:
    profile = scenario.profile
    transfers = []
    for tr in ns.transfers:
        first_tx_s = None if tr.first_uplink_us is None else tr.first_uplink_us / 1e6
        bytes_delivered = sum(b for _, b in tr.deliveries)
        last_delivery_s = tr.deliveries[-1][0] / 1e6 if tr.deliveries else None
        total = None
        if first_tx_s is not None and last_delivery_s is not None:
            total = last_delivery_s - first_tx_s
        transfers.append({
            "source": ns.devices[tr.source_addr].spec.eid,
            "dest": ns.devices[tr.dest_addr].spec.eid,
            "total_bytes": tr.total_bytes,
            "bytes_relayed": tr.bytes_relayed,
            "chunks_relayed": tr.chunks_relayed,
            "bytes_delivered": bytes_delivered,
            "first_tx_s": first_tx_s,
            "last_delivery_s": last_delivery_s,
            "total_transfer_time_s": total,
            "complete": bytes_delivered >= tr.total_bytes,
        })

    d2d_sessions = []
    for plan in ns.plans:
        rec = {
            "initiator": plan.initiator, "scanner": plan.scanner,
            "trigger_s": plan.trigger_us / 1e6,
            "error": plan.error,
            "completed": False,
            "session_time_s": None,
            "bytes_exchanged": 0,
        }
        if plan.error is None:
            init_s = plan.halves.get(Role.INITIATOR)
            scan_s = plan.halves.get(Role.SCANNER)
            rec["sessions"] = {}
            if init_s is not None:
                rec["sessions"]["initiator"] = session_record(init_s, profile)
                if init_s.terminal_us is not None:
                    rec["session_time_s"] = (init_s.terminal_us - plan.trigger_us) / 1e6
                rec["bytes_exchanged"] = init_s.packets_acked * init_s.params.data_payload_bytes
            if scan_s is not None:
                rec["sessions"]["scanner"] = session_record(scan_s, profile)
            rec["completed"] = (init_s is not None and init_s.completed
                                and scan_s is not None and scan_s.completed)
        d2d_sessions.append(rec)

    network = dict(ns.counters)
    network["collisions"] = engine.counters.get("collision", 0)
    network["below_sensitivity"] = engine.counters.get("below_sensitivity", 0)
    network["d2d_frames_lost"] = engine.counters.get("d2d_frames_lost", 0)
    network["d2d_plan_failures"] = engine.counters.get("d2d_plan_failed", 0)
    network["transfer_failures"] = engine.counters.get("transfer_failed", 0)
    network["events_executed"] = engine.events_executed

    device_block = {}
    for eid, dev in devices.items():
        rec = device_record(dev, profile)
        rec["uplinks_delivered"] = ns.by_eid[eid].uplinks
        device_block[eid] = rec

    return {
        "schema": METRICS_SCHEMA,
        "scenario": scenario.name,
        "seed": engine.rng.master_seed,
        "end_time_s": scenario.end_time_s,
        "profile": profile.to_dict(),
        "devices": device_block,
        "gateways": {eid: {**gw.counters, "duty": gw.duty.audit(engine.now_us)}
                     for eid, gw in gateways.items()},
        "network": network,
        "transfers": transfers,
        "d2d_sessions": d2d_sessions,
    }


def validate(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise MetricsError("metrics document must be a JSON object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise MetricsError(f"expected schema {METRICS_SCHEMA!r}, got {doc.get('schema')!r}")
    missing = [k for k in _TOP_KEYS if k not in doc]
    if missing:
        raise MetricsError(f"missing keys: {', '.join(missing)}")
    return doc


def save(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return validate(json.load(fh))
