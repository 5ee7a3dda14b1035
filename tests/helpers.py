"""Hand-wired simulation rigs shared by the unit tests."""

from __future__ import annotations

import dataclasses

from lorad2d import d2d, mac, netserver, phy, regulator
from lorad2d.engine import POLARITY, Engine, Medium
from lorad2d.scenario import load_bundled

CH0 = 868_100_000
CH1 = 868_300_000
CH2 = 868_500_000
RX2_FREQ = 869_525_000
RX2_DR = 0
WINDOWS = mac.ReceiveWindows(RX2_FREQ, RX2_DR)


def make_rig(seed: int = 0, *, trace: bool = True,
             capture_threshold_db: float = 6.0,
             d2d_frame_loss_prob: float = 0.0):
    engine = Engine(seed=seed, trace=trace)
    medium = Medium(engine, phy.PathLossModel(),
                    capture_threshold_db=capture_threshold_db,
                    d2d_frame_loss_prob=d2d_frame_loss_prob)
    return engine, medium


def make_device(engine, medium, *, eid="dev", dev_addr=0x0100_0001,
                position=(0.0, 0.0), period_s=10.0, phase_s=1.0,
                jitter_frac=0.0, dr=0, tx_power_dbm=14, app_payload_bytes=12,
                channels_hz=(CH0,), windows=WINDOWS, bands=regulator.DEFAULT_BANDS,
                duty_enforced=False,
                max_uplinks=None, prejoined=True):
    return mac.EndDevice(
        engine, medium, eid=eid, dev_addr=dev_addr, position=position,
        period_s=period_s, phase_s=phase_s, jitter_frac=jitter_frac, dr=dr,
        tx_power_dbm=tx_power_dbm, app_payload_bytes=app_payload_bytes,
        channels_hz=list(channels_hz), windows=windows, bands=bands,
        duty_enforced=duty_enforced,
        max_uplinks=max_uplinks, prejoined=prejoined)


def make_server(engine, medium, *, gateways=(("gw0", (2000.0, 0.0)),),
                channels_hz=(CH0, CH1), windows=WINDOWS, backhaul_delay_s=0.02,
                gw_duty_enforced=False, join_success_prob=1.0):
    server = netserver.NetworkServer(engine, windows=windows,
                                     join_success_prob=join_success_prob)
    gws = {}
    for eid, position in gateways:
        gws[eid] = netserver.Gateway(engine, medium, server, eid=eid, position=position,
                                     channels_hz=list(channels_hz), tx_power_dbm=14,
                                     backhaul_delay_s=backhaul_delay_s,
                                     bands=regulator.DEFAULT_BANDS,
                                     duty_enforced=gw_duty_enforced)
    return server, gws


def register(server, dev, *, period_s=None):
    server.register_device(netserver.DeviceRecord(
        eid=dev.eid, dev_addr=dev.dev_addr, dr=dev.uplink_dr,
        app_payload_bytes=dev.app_payload_bytes,
        period_s=(period_s if period_s is not None else dev.period_us / 1e6),
        jitter_frac=dev.jitter_frac))


def arm_pair(engine, medium, *, freq_hz=865_000_000, dr=6, power_dbm=14,
             t1_initiator_s=0.0, t1_scanner_s=0.0, t2_s=30.0, params=None,
             distance_m=10.0):
    """Two idle devices with activated sessions, the way a setup downlink
    would leave them.  Returns (initiator_device, scanner_device)."""
    plan = d2d.SessionPlan("init", "scan", engine.now_us,
                           params or d2d.ExchangeParams())
    init_dev = make_device(engine, medium, eid="init", dev_addr=0x11,
                           position=(0.0, 0.0), period_s=1000.0,
                           phase_s=900.0)
    scan_dev = make_device(engine, medium, eid="scan", dev_addr=0x22,
                           position=(distance_m, 0.0), period_s=1000.0,
                           phase_s=900.0)
    for dev, role, t1 in ((init_dev, d2d.Role.INITIATOR, t1_initiator_s),
                          (scan_dev, d2d.Role.SCANNER, t1_scanner_s)):
        peer = scan_dev if dev is init_dev else init_dev
        cmd = d2d.D2DSetupCommand(role=role, freq_hz=freq_hz, dr=dr,
                                  power_dbm=power_dbm, t1_s=t1, t2_s=t2_s,
                                  peer_addr=peer.dev_addr)
        dev.arm_session(cmd, plan)
    return init_dev, scan_dev


def two_directives():
    """table2_d2d plus a second directive, fired at the same time, that swaps
    the roles and exchanges 3 packets; run long enough for both sessions."""
    scn = load_bundled("table2_d2d")
    first = scn.d2d_directives[0]
    second = dataclasses.replace(
        first, initiator=first.scanner, scanner=first.initiator,
        exchange=dataclasses.replace(first.exchange, data_packets=3))
    return dataclasses.replace(scn, name="two-directives", end_time_s=60.0,
                               d2d_directives=[first, second])


def trace_kinds(engine, entity=None):
    return [r["kind"] for r in engine.trace_records
            if entity is None or r["entity"] == entity]


def records(engine, kind, entity=None):
    return [r for r in engine.trace_records if r["kind"] == kind
            and (entity is None or r["entity"] == entity)]


class _Receiver:
    eid = "rx"

    def on_frame_decoded(self, tx):
        pass


def hear(frames, positions, *, freq_hz, dr, window_us):
    """What a receiver at the origin, listening on (freq_hz, dr) from
    window_us[0], makes of ``frames`` when a Medium decides it.

    The receiver listens for the IQ polarity of the frames, which must all
    share one.

    Frames that start before window_us[1] go on the air, and the receiver
    stays open until they have all ended, as a receiver locked to a frame
    does.  Returns ("decoded", source) for the earliest-ending decoded frame,
    else ("collision", None) when an audible frame was lost, else
    ("below_sensitivity", None) when every frame that reached the receiver
    was too weak, else ("none", None).
    """
    engine, medium = make_rig()
    medium.register_position(_Receiver.eid, (0.0, 0.0))
    for eid, position in positions.items():
        medium.register_position(eid, position)
    (polarity,) = {POLARITY[tx.kind] for tx in frames} or {"up"}
    w0, w1 = window_us
    for tx in frames:
        if tx.start_us < w1:
            medium.begin_tx(tx, owner=None)
    engine.schedule(w0, lambda _: medium.listen(_Receiver(), freq_hz, dr, polarity))
    engine.run()
    heard = [r for r in engine.trace_records if r["entity"] == _Receiver.eid
             and r["kind"] in ("decode", "drop")]
    by_source = {tx.source: tx for tx in frames}
    decoded = [by_source[r["source"]] for r in heard if r["kind"] == "decode"]
    if decoded:
        return ("decoded", min(decoded, key=lambda t: (t.end_us, t.start_us, t.source)).source)
    reasons = {r["reason"] for r in heard}
    if "collision" in reasons:
        return ("collision", None)
    return ("below_sensitivity", None) if reasons else ("none", None)
