import dataclasses

import pytest

import helpers
from lorad2d import d2d, phy
from lorad2d.mac import JOIN_REQUEST_PHY_BYTES, JoinRequest, LoRaWANUplink
from lorad2d.netserver import DownlinkError, Gateway, NetworkServer
from lorad2d.scenario import D2DDirectiveSpec, DeviceSpec, TransferSpec


def fake_uplink(addr, fcnt, *, start_us=1_000_000, dr=0, app=12):
    return phy.Transmission(
        start_us=start_us, duration_us=phy.time_on_air_us(dr, app + 13),
        freq_hz=helpers.CH0, dr=dr, tx_power_dbm=14, phy_payload_bytes=app + 13,
        source="dev", kind="uplink",
        frame=LoRaWANUplink(addr, fcnt, 1, app))


def record(addr, *, eid=None, dr=0, app=12, period_s=9.6, jitter=0.0, joining=False):
    """The spec the server builds a device's record from; a joining device
    has no address."""
    return DeviceSpec(eid=eid or f"d{addr:x}", dev_addr=None if joining else addr,
                      dr=dr, app_payload_bytes=app, period_s=period_s,
                      jitter_frac=jitter)


def make_server(engine, medium, **kw):
    server, gws = helpers.make_server(engine, medium, **kw)
    return server, list(gws.values())


def test_two_gateways_hear_one_uplink_once():
    engine, medium = helpers.make_rig()
    server, gws = make_server(engine, medium,
                              gateways=(("gw0", (1000.0, 0.0)),
                                        ("gw1", (-1000.0, 0.0))))
    dev = helpers.make_device(engine, medium, period_s=30.0, phase_s=1.0,
                              max_uplinks=1)
    server.register_device(dev.spec)
    dev.start()
    engine.run(until_us=10_000_000)
    assert all(gw.counters["uplinks_decoded"] == 1 for gw in gws)
    assert server.counters["uplinks"] == 1
    assert server.counters["dedup_drops"] == 1
    assert server.by_eid[dev.eid].uplinks == 1


def fake_join_request(eid, dev_nonce, *, start_us, dr=0):
    return phy.Transmission(
        start_us=start_us, duration_us=phy.time_on_air_us(dr, JOIN_REQUEST_PHY_BYTES),
        freq_hz=helpers.CH0, dr=dr, tx_power_dbm=14,
        phy_payload_bytes=JOIN_REQUEST_PHY_BYTES, source=eid, kind="join_request",
        frame=JoinRequest(eid, dev_nonce))


def test_replayed_frame_counter_is_dropped():
    engine, medium = helpers.make_rig()
    server, (gw,) = make_server(engine, medium)
    server.register_device(record(0x10))
    server.on_uplink(fake_uplink(0x10, fcnt=0), gw)
    server.on_uplink(fake_uplink(0x10, fcnt=0, start_us=9_000_000), gw)
    server.on_uplink(fake_uplink(0x10, fcnt=1, start_us=20_000_000), gw)
    assert server.counters["uplinks"] == 2
    assert server.counters["dedup_drops"] == 1
    assert server.by_eid["d10"].uplinks == 2
    # a counter that goes backwards is dropped too, not only an exact repeat
    server.on_uplink(fake_uplink(0x10, fcnt=3, start_us=30_000_000), gw)
    server.on_uplink(fake_uplink(0x10, fcnt=2, start_us=40_000_000), gw)
    assert server.counters["uplinks"] == 3
    assert server.counters["dedup_drops"] == 2
    server.register_device(record(0x20, eid="joiner", joining=True))
    server.on_uplink(fake_join_request("joiner", 2, start_us=50_000_000), gw)
    server.on_uplink(fake_join_request("joiner", 1, start_us=60_000_000), gw)
    assert server.counters["joins_accepted"] == 1
    assert server.counters["dedup_drops"] == 3


def test_unregistered_addresses_are_ignored():
    engine, medium = helpers.make_rig()
    server, (gw,) = make_server(engine, medium)
    server.on_uplink(fake_uplink(0x99, fcnt=0), gw)
    assert server.counters["uplinks"] == 0


def test_downlink_size_gatekeeping():
    engine, medium = helpers.make_rig()
    server, _ = make_server(engine, medium)           # RX2 at DR0: 59 B MAC
    server.register_device(record(0x10, dr=3))        # RX1 at DR3: 123 B MAC
    server.enqueue_downlink(0x10, port=1, app_bytes=110)
    with pytest.raises(DownlinkError):
        server.enqueue_downlink(0x10, port=1, app_bytes=111)
    with pytest.raises(DownlinkError):
        server.enqueue_downlink(0x10, port=1, app_bytes=240)
    with pytest.raises(DownlinkError):
        server.enqueue_downlink(0x77, port=1, app_bytes=5)


def test_transfer_endpoints_must_be_joined():
    engine, medium = helpers.make_rig()
    server, _ = make_server(engine, medium)
    server.register_device(record(0x10))
    server.register_device(record(0x11, joining=True))
    server.start_transfer(TransferSpec("d10", "d11", 1000))
    assert engine.counters["transfer_failed"] == 1
    assert server.transfers == []
    (failure,) = helpers.records(engine, "transfer_failed")
    assert failure["error"] == "transfer endpoints must both be joined"
    server.register_device(record(0x11))
    server.start_transfer(TransferSpec("d10", "d11", 1000))
    assert [tr.total_bytes for tr in server.transfers] == [1000]
    assert engine.counters["transfer_failed"] == 1


def test_transfer_chunks_must_fit_a_receive_window_of_the_destination():
    engine, medium = helpers.make_rig()
    server, _ = make_server(engine, medium)           # RX2 at DR0: 59 B MAC
    server.register_device(record(0x10, eid="src", dr=5, app=200))
    server.register_device(record(0x11, eid="dst", dr=0))
    # a transfer no larger than one DR0 downlink is sent as a single chunk
    for total in (1000, 46, 47):
        server.start_transfer(TransferSpec("src", "dst", total))
    assert [tr.total_bytes for tr in server.transfers] == [46]
    assert engine.counters["transfer_failed"] == 2
    errors = [r["error"] for r in helpers.records(engine, "transfer_failed")]
    assert "200 application bytes" in errors[0]
    assert "47 application bytes" in errors[1]


def test_transfer_relays_uplink_payloads_as_downlinks():
    engine, medium = helpers.make_rig()
    server, (gw,) = make_server(engine, medium)
    src = helpers.make_device(engine, medium, eid="src", dev_addr=0x10,
                              period_s=10.0, phase_s=1.0, dr=0,
                              app_payload_bytes=12, max_uplinks=3)
    dst = helpers.make_device(engine, medium, eid="dst", dev_addr=0x11,
                              position=(10.0, 0.0), period_s=10.0, phase_s=6.0,
                              dr=0, app_payload_bytes=12,
                              channels_hz=(helpers.CH1,))
    for dev in (src, dst):
        server.register_device(dev.spec)
    server.start_transfer(TransferSpec("src", "dst", total_bytes=30))
    src.start()
    dst.start()
    engine.run(until_us=60_000_000)
    tr = server.transfers[0]
    assert tr.bytes_relayed == 30                  # 12 + 12 + 6
    assert tr.chunks_relayed == 3
    assert [b for _, b in dst.app_deliveries] == [12, 12, 6]


def test_gateway_duty_defers_downlinks_until_legal(monkeypatch):
    fcnts = []
    transmit = Gateway.transmit

    def recording(gw, frame, **kw):
        fcnts.append(frame.fcnt)
        return transmit(gw, frame, **kw)

    monkeypatch.setattr(Gateway, "transmit", recording)
    engine, medium = helpers.make_rig()
    server, (gw,) = make_server(engine, medium, gw_duty_enforced=True)
    dev = helpers.make_device(engine, medium, period_s=10.0, phase_s=1.0,
                              dr=0, app_payload_bytes=12)
    server.register_device(dev.spec)
    for _ in range(3):
        server.enqueue_downlink(dev.dev_addr, port=1, app_bytes=46)
    dev.start()
    engine.run(until_us=60_000_000)
    # 46 B at DR0 is ~2.6 s on air: the 1 % uplink band sustains one frame,
    # the 10 % RX2 band roughly one frame every 26 s
    assert dev.counters["downlinks_rw1"] == 1
    assert dev.counters["downlinks_rw2"] == 2
    assert server.counters["downlinks_deferred"] >= 2
    assert len(dev.app_deliveries) == 3
    # FCntDown is fixed when a downlink is queued, in queue order
    assert fcnts == [0, 1, 2]
    assert server.devices[dev.dev_addr].fcnt_down == 3


# -- session planning --------------------------------------------------------


def planning_server():
    engine, medium = helpers.make_rig()
    server, _ = make_server(engine, medium)
    server.register_device(record(0x01, eid="init"))
    server.register_device(record(0x02, eid="scan"))
    return server


DIRECTIVE = D2DDirectiveSpec(0.0, "init", "scan", freq_hz=865_000_000, dr=6,
                             power_dbm=14, t1_initiator_s=15.0, t1_scanner_s=0.0,
                             t2_s=30.0)


def start(server, **overrides):
    """Fire DIRECTIVE, with ``overrides``, and return its plan."""
    server.start_directive(dataclasses.replace(DIRECTIVE, **overrides))
    return server.plans[-1]


def test_plan_produces_mirrored_commands_scanner_first(monkeypatch):
    queued = []
    enqueue = NetworkServer.enqueue_downlink

    def recording(server, addr, *args, **kwargs):
        queued.append(addr)
        return enqueue(server, addr, *args, **kwargs)

    monkeypatch.setattr(NetworkServer, "enqueue_downlink", recording)
    server = planning_server()
    assert start(server).error is None
    assert queued == [0x02, 0x01]
    scan_cmd, init_cmd = (d2d.decode_setup(server.devices[addr].queue[0].payload)
                          for addr in (0x02, 0x01))
    assert scan_cmd.role is d2d.Role.SCANNER
    assert init_cmd.role is d2d.Role.INITIATOR
    assert scan_cmd.peer_addr == 0x01 and init_cmd.peer_addr == 0x02
    assert scan_cmd.t1_s == 0.0 and init_cmd.t1_s == 15.0
    for attr in ("freq_hz", "dr", "power_dbm", "t2_s"):
        assert getattr(scan_cmd, attr) == getattr(init_cmd, attr)


def test_plan_rejects_insufficient_t1_gap():
    server = planning_server()
    # the scanner's setup can land a full reporting period after the
    # initiator's; a 5 s head start cannot bridge that skew
    assert "skew" in start(server, t1_initiator_s=5.0).error
    assert start(server, t1_initiator_s=10.6).error is None   # exactly enough
    assert server.engine.counters["d2d_plan_failed"] == 1


def test_plan_rejects_scanner_window_that_may_lapse():
    server = planning_server()
    plan = start(server, t2_s=20.0)
    assert "close" in plan.error
    assert server.counters["setups_sent"] == 0


def test_directive_participants_must_both_be_joined():
    server = planning_server()
    server.register_device(record(0x03, eid="joining", joining=True))
    plan = start(server, scanner="joining")
    assert plan.error == "session participants must both be joined"
    assert server.counters["setups_sent"] == 0


def test_execute_queues_both_setups():
    server = planning_server()
    server.start_directive(D2DDirectiveSpec(0.0, "init", "scan", freq_hz=865_000_000,
                                            dr=6, t1_initiator_s=15.0, t2_s=30.0))
    (plan,) = server.plans
    assert plan.error is None
    assert server.counters["setups_sent"] == 2
    for addr in (0x01, 0x02):
        queue = server.devices[addr].queue
        assert len(queue) == 1
        assert queue[0].port == d2d.SETUP_PORT
        assert queue[0].plan is plan
        decoded = d2d.decode_setup(queue[0].payload)
        assert decoded.peer_addr != addr


def test_join_heard_by_two_gateways_is_answered_once():
    # Each gateway used to forward its copy to an accept of its own, and the
    # two JoinAccepts collided at the device on every attempt.
    engine, medium = helpers.make_rig()
    server, gws = make_server(engine, medium, gateways=(("gw0", (0.0, 0.0)),
                                                        ("gw1", (1000.0, 0.0))))
    dev = helpers.make_device(engine, medium, dev_addr=None,
                              position=(500.0, 0.0), period_s=60.0, phase_s=0.0,
                              dr=3)
    server.register_device(dev.spec)
    dev.start()
    engine.run(until_us=120_000_000)
    assert all(gw.counters["uplinks_decoded"] >= 1 for gw in gws)
    assert dev.counters["join_attempts"] == 1
    assert dev.dev_addr == 0x0100_0001
    assert server.counters["joins_accepted"] == 1
    assert [r["entity"] for r in helpers.records(engine, "tx_start")
            if r["frame"] == "join_accept"] == ["gw0"]
