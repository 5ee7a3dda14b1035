"""Hand-wired simulation rigs shared by the unit tests.

Each rig builds its entities from a scenario spec, with the constructors and
the ``register_device`` call that ``runner.run`` uses."""

from __future__ import annotations

import dataclasses

from lorad2d import d2d, mac, netserver, phy, regulator
from lorad2d.engine import POLARITY, Engine, Medium
from lorad2d.scenario import DeviceSpec, GatewaySpec, load_bundled

CH0 = 868_100_000
CH1 = 868_300_000
CH2 = 868_500_000
RX2_FREQ = 869_525_000
RX2_DR = 0
WINDOWS = mac.ReceiveWindows(RX2_FREQ, RX2_DR, receive_delay1_s=1.0,
                             receive_delay2_s=2.0, preamble_detect_symbols=8)


def make_rig(seed: int = 0, *, trace: bool = True, **radio):
    """An engine and a medium over ``phy.RadioModel(**radio)``."""
    engine = Engine(seed=seed, trace=trace)
    return engine, Medium(engine, phy.RadioModel(**radio))


def make_device(engine, medium, *, windows=WINDOWS, bands=regulator.DEFAULT_BANDS,
                duty_enforced=False, **fields):
    """An end device built from a DeviceSpec of ``fields``; the rig's own
    defaults stand in for the fields left out."""
    fields = {"eid": "dev", "dev_addr": 0x0100_0001, "period_s": 10.0, "phase_s": 1.0,
              "jitter_frac": 0.0, "channels_hz": (CH0,), **fields}
    fields["channels_hz"] = list(fields["channels_hz"])
    return mac.EndDevice(engine, medium, DeviceSpec(**fields), windows=windows,
                         bands=bands, duty_enforced=duty_enforced)


def make_server(engine, medium, *, gateways=(("gw0", (2000.0, 0.0)),),
                channels_hz=(CH0, CH1), windows=WINDOWS, backhaul_delay_s=0.02,
                gw_duty_enforced=False, join_success_prob=1.0):
    server = netserver.NetworkServer(engine, windows=windows,
                                     join_success_prob=join_success_prob)
    gws = {}
    for eid, position in gateways:
        gws[eid] = netserver.Gateway(engine, medium, server,
                                     GatewaySpec(eid, position, list(channels_hz)),
                                     backhaul_delay_s=backhaul_delay_s,
                                     bands=regulator.DEFAULT_BANDS,
                                     duty_enforced=gw_duty_enforced)
    return server, gws


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
