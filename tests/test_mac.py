import dataclasses
import random

import numpy as np
import pytest

import helpers
from lorad2d import d2d, mac, phy, regulator
from lorad2d.d2d import ExchangeParams
from lorad2d.engine import Draws
from lorad2d.mac import MacState


def uplink_starts(engine, eid):
    return [r["t_us"] for r in helpers.records(engine, "tx_start", entity=eid)
            if r["frame"] == "uplink"]


def test_unjittered_uplinks_sit_on_the_grid():
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=10.0, phase_s=1.0, dr=5)
    dev.start()
    engine.run(until_us=51_000_000)
    assert uplink_starts(engine, "dev") == [1_000_000 + k * 10_000_000
                                            for k in range(6)]


def test_jitter_is_bounded_and_does_not_accumulate():
    engine, medium = helpers.make_rig(seed=3)
    dev = helpers.make_device(engine, medium, period_s=10.0, phase_s=1.0,
                              jitter_frac=0.05, dr=5)
    dev.start()
    engine.run(until_us=1_000_000_000)
    starts = uplink_starts(engine, "dev")
    assert len(starts) == 100
    offsets = [t - (1_000_000 + k * 10_000_000) for k, t in enumerate(starts)]
    assert all(abs(off) <= 500_000 for off in offsets)
    # late cycles are as tight as early ones: drift would show up here
    assert max(abs(o) for o in offsets[-20:]) <= 500_000
    assert len({o for o in offsets}) > 10    # jitter actually draws


def pcg64(seed):
    return np.random.Generator(np.random.PCG64(seed))


def draws_of(seed):
    return Draws(seed)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1])
def test_draws_are_numpy_pcg64_bit_for_bit(seed):
    # seeding included: the first output already depends on every state bit
    draws = Draws(seed)
    assert [draws._next64() for _ in range(1000)] == \
        np.random.PCG64(seed).random_raw(1000).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_draws_reject_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError):
        Draws(seed)


@pytest.mark.parametrize("j", [0.05, 0.1, 0.3333, 0.5])
def test_jitter_draw_matches_generator_uniform(j):
    # the MAC draws its jitter as -j + 2 * j * random(), which is what
    # Generator.uniform(-j, j) computes; both must read the same stream bit
    # for bit, here interleaved with channel draws as in the uplink cycle
    ref, new = pcg64(12345), draws_of(12345)
    expected, got = [], []
    for _ in range(10_000):
        expected.append(ref.uniform(-j, j))
        got.append(-j + 2 * j * new.random())
        assert ref.integers(0, 3) == new.below(3)
    assert np.array_equal(np.array(expected).view(np.uint64),
                          np.array(got).view(np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1])
def test_device_draws_match_numpy_bit_for_bit(seed):
    # 2**31 + 5 rejects about half of its 32-bit words in numpy's Lemire rule
    bounds = (1, 2, 3, 5, 8, 2**31 + 5)
    ref, draws = pcg64(seed), draws_of(seed)
    pick = random.Random(seed)
    expected, got = [], []
    for _ in range(10_000):
        if pick.random() < 0.5:
            expected.append(ref.random())
            got.append(draws.random())
        else:
            n = pick.choice(bounds)
            value = draws.below(n)
            assert type(value) is int
            assert value == ref.integers(0, n)
    assert np.array_equal(np.array(expected).view(np.uint64),
                          np.array(got).view(np.uint64))
    # both streams stand at the same place afterwards
    assert draws.below(5) == ref.integers(0, 5)
    assert draws.random() == ref.random()


def test_a_bound_of_one_consumes_no_draw():
    fresh, draws = pcg64(99), draws_of(99)
    assert [draws.below(1) for _ in range(100)] == [0] * 100
    assert draws.below(3) == fresh.integers(0, 3)
    # nor does it drop the buffered upper half-word of the last 32-bit draw
    assert draws.below(1) == 0
    assert draws.below(7) == fresh.integers(0, 7)
    assert draws.random() == fresh.random()


def test_uplink_record_keeps_frozen_dataclass_semantics():
    up = mac.LoRaWANUplink(0x0100_0001, 7, 1, 40)
    assert up == mac.LoRaWANUplink(dev_addr=0x0100_0001, fcnt=7, port=1, app_bytes=40)
    assert hash(up) == hash(mac.LoRaWANUplink(0x0100_0001, 7, 1, 40))
    assert up != mac.LoRaWANUplink(0x0100_0001, 8, 1, 40)
    assert up != mac.LoRaWANDownlink(0x0100_0001, 7, 1, 40)
    assert up != (0x0100_0001, 7, 1, 40)
    assert dataclasses.replace(up, fcnt=8).fcnt == 8 and up.fcnt == 7
    assert dataclasses.astuple(up) == (0x0100_0001, 7, 1, 40)
    with pytest.raises(dataclasses.FrozenInstanceError):
        up.fcnt = 9


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_device_draws_reject_bounds_outside_32_bits(n):
    with pytest.raises(ValueError):
        draws_of(1).below(n)


def test_devices_draw_from_private_streams():
    def run_one(extra_device):
        engine, medium = helpers.make_rig(seed=7)
        dev = helpers.make_device(engine, medium, eid="x", period_s=10.0,
                                  phase_s=1.0, jitter_frac=0.05, dr=5)
        dev.start()
        if extra_device:
            other = helpers.make_device(engine, medium, eid="y",
                                        dev_addr=0x0100_0009, period_s=10.0,
                                        phase_s=2.0, jitter_frac=0.05, dr=5,
                                        channels_hz=(helpers.CH1,))
            other.start()
        engine.run(until_us=200_000_000)
        return uplink_starts(engine, "x")

    assert run_one(False) == run_one(True)


def test_channel_choice_is_uniform():
    engine, medium = helpers.make_rig(seed=11, trace=False)
    channels = (helpers.CH0, helpers.CH1, helpers.CH2)
    dev = helpers.make_device(engine, medium, period_s=3.0, phase_s=0.5, dr=5,
                              channels_hz=channels, max_uplinks=10_000)
    counts = dict.fromkeys(channels, 0)
    original = medium.begin_tx

    def counting_begin_tx(tx, owner):
        counts[tx.freq_hz] += 1
        original(tx, owner)

    medium.begin_tx = counting_begin_tx
    dev.start()
    engine.run(until_us=30_001_000_000)
    total = sum(counts.values())
    assert total == 10_000
    for freq in channels:
        assert counts[freq] / total == pytest.approx(1 / 3, abs=0.02)


def test_transmit_is_pure_aloha():
    # two co-channel devices with the same phase: both still transmit
    engine, medium = helpers.make_rig()
    a = helpers.make_device(engine, medium, eid="a", period_s=10.0, phase_s=1.0)
    b = helpers.make_device(engine, medium, eid="b", dev_addr=0x0100_0002,
                            position=(50.0, 0.0), period_s=10.0, phase_s=1.0)
    a.start()
    b.start()
    engine.run(until_us=12_000_000)
    assert len(uplink_starts(engine, "a")) == 2
    assert len(uplink_starts(engine, "b")) == 2
    overlap = set()
    for ta in uplink_starts(engine, "a"):
        for tb in uplink_starts(engine, "b"):
            if ta == tb:
                overlap.add(ta)
    assert overlap                        # they collide rather than defer


def test_duty_enforcement_defers_the_grid():
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=4.8, phase_s=0.0,
                              dr=0, app_payload_bytes=51, duty_enforced=True)
    dev.start()
    engine.run(until_us=600_000_000)
    starts = uplink_starts(engine, "dev")
    assert len(starts) >= 2
    toa = phy.time_on_air_us(0, 64)
    off = regulator.off_time_us(toa, 0.01)
    for earlier, later in zip(starts, starts[1:]):
        assert later >= earlier + toa + off
    assert dev.counters["duty_deferrals"] >= 1
    assert any(r["kind"] == "duty_defer" for r in engine.trace_records)


def test_duty_deferred_join_requests_are_counted():
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, dev_addr=None, prejoined=False,
                              period_s=60.0, phase_s=0.0, dr=0, duty_enforced=True)
    dev.start()
    engine.run(until_us=600_000_000)
    # no gateway answers: each DR0 request buys more off-time than a period
    assert dev.counters["join_attempts"] == 6
    assert dev.counters["duty_deferrals"] == 5
    assert len(helpers.records(engine, "duty_defer", entity="dev")) == 5


def test_rx_windows_follow_the_uplink():
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=10.0, phase_s=1.0,
                              dr=5, max_uplinks=1)
    dev.start()
    engine.run(until_us=10_000_000)
    tx_end = uplink_starts(engine, "dev")[0] + phy.time_on_air_us(5, 25)
    opens = helpers.records(engine, "rx_open", entity="dev")
    assert [r["window"] for r in opens] == [1, 2]
    assert opens[0]["t_us"] == tx_end + 1_000_000
    assert opens[1]["t_us"] == tx_end + 2_000_000
    assert opens[0]["freq_hz"] == helpers.CH0      # RX1 mirrors the uplink
    assert opens[0]["dr"] == 5
    assert opens[1]["freq_hz"] == helpers.RX2_FREQ
    assert opens[1]["dr"] == helpers.RX2_DR


def _rx1_beside(kind, frame=None):
    """A device's first window, opened on CH0 at DR0, with a neighbour's
    frame of ``kind``, carrying ``frame``, on the same channel and rate
    already on the air and outlasting the window.  Returns (engine, device,
    RX1 open time)."""
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=1000.0, phase_s=1.0,
                              dr=0, max_uplinks=1)
    medium.register_position("nb", (500.0, 0.0))
    rx1_at = 1_000_000 + dev._uplink_toa_us + 1_000_000
    medium.begin_tx(phy.Transmission(
        start_us=rx1_at - 100_000, duration_us=1_000_000, freq_hz=helpers.CH0,
        dr=0, tx_power_dbm=14, phy_payload_bytes=25, source="nb", kind=kind, frame=frame),
        owner=None)
    dev.start()
    engine.run(until_us=rx1_at + 5_000_000)
    assert helpers.records(engine, "rx_open", entity="dev")[0]["t_us"] == rx1_at
    return engine, dev, rx1_at


@pytest.mark.parametrize("kind", ["uplink", "join_request", "d2d_data", "d2d_ack"])
def test_receive_window_ignores_uplinks_and_d2d_frames(kind):
    engine, dev, rx1_at = _rx1_beside(kind)
    assert helpers.records(engine, "decode", entity="dev") == []
    assert helpers.records(engine, "drop", entity="dev") == []
    assert dev.counters["ignored_frames"] == 0
    close = helpers.records(engine, "rx_close", entity="dev")[0]
    assert (close["window"], close["t_us"]) == (1, rx1_at + dev.windows.length_us[0])


def test_receive_window_locks_onto_a_downlink():
    # the same set-up with a downlink: the window stays open to its end
    engine, dev, rx1_at = _rx1_beside("downlink")
    assert [r["source"] for r in helpers.records(engine, "decode", entity="dev")] == ["nb"]
    assert dev.counters["ignored_frames"] == 1      # not addressed to dev
    close = helpers.records(engine, "rx_close", entity="dev")[0]
    assert (close["window"], close["t_us"]) == (1, rx1_at + 900_000)


def test_join_accept_for_another_device_leaves_the_window_open():
    engine, dev, rx1_at = _rx1_beside("join_accept", mac.JoinAccept("other", 0x0100_0009))
    assert dev.counters["ignored_frames"] == 1
    assert dev.dev_addr == 0x0100_0001
    assert helpers.records(engine, "join_complete") == []
    # the window runs to the end of the frame and RX2 still opens
    close = helpers.records(engine, "rx_close", entity="dev")[0]
    assert (close["window"], close["t_us"]) == (1, rx1_at + 900_000)
    opens = helpers.records(engine, "rx_open", entity="dev")
    assert [r["window"] for r in opens] == [1, 2]


def test_d2d_listener_ignores_a_co_channel_uplink():
    # the scanner listens from t=0; a neighbour's uplink on the session's
    # channel and rate passes before the initiator's first data frame
    engine, medium = helpers.make_rig()
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=3.0)
    medium.register_position("nb", (5.0, 0.0))
    medium.begin_tx(phy.Transmission(
        start_us=1_000_000, duration_us=500_000, freq_hz=865_000_000, dr=6,
        tx_power_dbm=14, phy_payload_bytes=25, source="nb", kind="uplink"),
        owner=None)
    engine.run(until_us=40_000_000)
    heard = [r["source"] for r in helpers.records(engine, "decode", entity="scan")]
    assert "nb" not in heard and "init" in heard
    assert helpers.records(engine, "drop", entity="scan") == []
    assert scan_dev.counters["ignored_frames"] == 0
    assert scan_dev.session_history[0].completed


def wire_device_and_server(engine, medium, *, dev_kw=None, windows=helpers.WINDOWS):
    dev_kw = dict(dev_kw or {})
    dev_kw.setdefault("position", (0.0, 0.0))
    dev = helpers.make_device(engine, medium, windows=windows, **dev_kw)
    server, gws = helpers.make_server(engine, medium, windows=windows,
                                      gateways=(("gw0", (1000.0, 0.0)),))
    gw = gws["gw0"]
    server.register_device(dev.spec)
    return dev, server, gw


def test_small_downlink_arrives_in_first_window():
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(period_s=30.0, phase_s=1.0, dr=0,
                                    max_uplinks=1))
    server.enqueue_downlink(dev.dev_addr, port=1, app_bytes=12)
    dev.start()
    engine.run(until_us=20_000_000)
    assert dev.counters["downlinks_rw1"] == 1
    assert dev.counters["downlinks_rw2"] == 0
    assert dev.app_deliveries and dev.app_deliveries[0][1] == 12
    rx = helpers.records(engine, "downlink_rx", entity="dev")[0]
    assert rx["window"] == 1


def test_oversized_downlink_falls_back_to_second_window():
    # 110 application bytes never fit the DR0 first window but do fit RX2 at DR3
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, windows=dataclasses.replace(helpers.WINDOWS, rx2_dr=3),
        dev_kw=dict(period_s=30.0, phase_s=1.0, dr=0, max_uplinks=1))
    server.enqueue_downlink(dev.dev_addr, port=1, app_bytes=110)
    dev.start()
    engine.run(until_us=20_000_000)
    assert dev.counters["downlinks_rw1"] == 0
    assert dev.counters["downlinks_rw2"] == 1
    rx = helpers.records(engine, "downlink_rx", entity="dev")[0]
    assert rx["window"] == 2


def test_long_first_window_downlink_suppresses_second_window():
    # a 46 B frame at DR0 lasts ~2.6 s, so reception is still in progress
    # when the second window would open; the device must not tear it down
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(period_s=30.0, phase_s=1.0, dr=0,
                                    max_uplinks=1))
    assert phy.time_on_air_us(0, 46 + 13) > 1_000_000
    server.enqueue_downlink(dev.dev_addr, port=1, app_bytes=46)
    dev.start()
    engine.run(until_us=20_000_000)
    assert dev.counters["downlinks_rw1"] == 1
    opens = helpers.records(engine, "rx_open", entity="dev")
    assert [r["window"] for r in opens] == [1]
    assert dev.mac_state is MacState.SLEEP


def test_uplink_cap_stops_the_device():
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=5.0, phase_s=0.0,
                              dr=5, max_uplinks=47)
    dev.start()
    engine.run(until_us=1_000_000_000)
    assert dev.fcnt_up == 47
    assert len(uplink_starts(engine, "dev")) == 47


def test_join_handshake_assigns_an_address():
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(dev_addr=None, prejoined=False,
                                    period_s=10.0, phase_s=1.0, dr=5))
    dev.start()
    engine.run(until_us=60_000_000)
    assert dev.dev_addr == 0x0100_0001
    assert dev.mac_state is not MacState.NOT_JOINED
    assert dev.counters["join_attempts"] == 1
    kinds = helpers.trace_kinds(engine, entity="dev")
    assert "join_request" in kinds and "join_complete" in kinds
    # the reporting grid restarts one period after the accept
    accept_t = helpers.records(engine, "join_complete", entity="dev")[0]["t_us"]
    first_uplink = uplink_starts(engine, "dev")[0]
    assert first_uplink == accept_t + 10_000_000
    assert server.counters["joins_accepted"] == 1


def test_uplink_cap_counts_uplinks_not_join_requests():
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(dev_addr=None, prejoined=False,
                                    period_s=10.0, phase_s=1.0, dr=5, max_uplinks=2))
    server.join_success_prob = 0.0
    dev.start()
    engine.run(until_us=35_000_000)
    assert dev.counters["join_attempts"] == 4          # at 1, 11, 21 and 31 s
    server.join_success_prob = 1.0
    engine.run(until_us=200_000_000)
    assert dev.counters["join_attempts"] == 5
    assert dev.dev_addr == 0x0100_0001
    assert dev.fcnt_up == 2
    assert len(uplink_starts(engine, "dev")) == 2


def _block_gateway_until_25_s(gw):
    gw.busy_until_us = 25_000_000


def _spend_gateway_duty_until_25_s(gw):
    gw.duty = regulator.DutyLedger(bands=regulator.DEFAULT_BANDS, enforced=True)
    # off until 25 s: 0.25 s in CH0's 1 % sub-band, 2.5 s in RX2's 10 % one
    gw.duty.record_transmission(helpers.CH0, 0, 250_000)
    gw.duty.record_transmission(helpers.RX2_FREQ, 0, 2_500_000)


@pytest.mark.parametrize("block", [_block_gateway_until_25_s, _spend_gateway_duty_until_25_s],
                         ids=["busy", "duty"])
def test_join_accept_without_a_free_window_is_dropped_and_retried(block):
    engine, medium = helpers.make_rig()
    dev, server, gw = wire_device_and_server(
        engine, medium, dev_kw=dict(dev_addr=None, prejoined=False,
                                    period_s=10.0, phase_s=1.0, dr=5))
    block(gw)
    dev.start()
    engine.run(until_us=60_000_000)
    # both windows of the requests at 1, 11 and 21 s open before 25 s
    assert server.counters["joins_dropped"] == 3
    assert server.counters["joins_accepted"] == 1
    assert [r["t_us"] for r in helpers.records(engine, "join_request", entity="dev")] == [
        1_000_000, 11_000_000, 21_000_000, 31_000_000]
    assert dev.dev_addr == 0x0100_0001


def test_join_rejection_keeps_retrying():
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(dev_addr=None, prejoined=False,
                                    period_s=10.0, phase_s=1.0, dr=5))
    server.join_success_prob = 0.0
    dev.start()
    engine.run(until_us=45_000_000)
    assert dev.dev_addr is None
    assert dev.mac_state is MacState.NOT_JOINED
    assert dev.counters["join_attempts"] >= 4
    assert server.counters["joins_dropped"] >= 4


def test_out_of_range_device_never_joins():
    engine, medium = helpers.make_rig()
    dev, server, _ = wire_device_and_server(
        engine, medium, dev_kw=dict(dev_addr=None, prejoined=False,
                                    period_s=10.0, phase_s=1.0, dr=5,
                                    position=(200_000.0, 0.0)))
    dev.start()
    engine.run(until_us=45_000_000)
    assert dev.dev_addr is None
    assert engine.counters.get("below_sensitivity", 0) >= 4
    assert server.counters["joins_accepted"] == 0


def test_duty_cycle_switch_throttles_peer_traffic():
    engine, medium = helpers.make_rig()
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=1.0)
    for dev in (init_dev, scan_dev):
        dev.duty = regulator.DutyLedger(bands=regulator.DEFAULT_BANDS,
                                        enforced=True)
    engine.run(until_us=40_000_000)
    init = init_dev.session_history[0]
    # 240 B at DR6 in a 1 % band: ~7.6 s of silence per data frame, so the
    # 30 s budget cannot carry ten packets
    assert init.state.value == "failed"
    assert init.fail_reason == "session_timeout"
    toa = phy.time_on_air_us(6, 253)
    starts = [r["t_us"] for r in helpers.records(engine, "tx_start", entity="init")]
    for earlier, later in zip(starts, starts[1:]):
        assert later >= earlier + toa + regulator.off_time_us(toa, 0.01)


def _setup_wire(**fields):
    cmd = dict(role=d2d.Role.INITIATOR, freq_hz=865_000_000, dr=6, power_dbm=14,
               t1_s=0.0, t2_s=30.0, peer_addr=0x22)
    return d2d.encode_setup(d2d.D2DSetupCommand(**{**cmd, **fields}))


@pytest.mark.parametrize("payload", [
    _setup_wire()[:5] + bytes([0]) + _setup_wire()[6:],   # 0 dBm, below the radio's range
    _setup_wire(freq_hz=900_000_000),                     # in no sub-band of the device
], ids=["power-0-dbm", "900-mhz"])
def test_setup_a_device_cannot_obey_is_counted_not_run(payload):
    # either would arm a session whose first frame the radio or the regulator refuses
    engine, medium = helpers.make_rig()
    dev = helpers.make_device(engine, medium, period_s=10.0, phase_s=1.0)
    plan = d2d.SessionPlan("dev", "peer", engine.now_us, ExchangeParams())
    dev._handle_setup(mac.LoRaWANDownlink(dev.dev_addr, 0, d2d.SETUP_PORT,
                                          d2d.SETUP_WIRE_BYTES, payload=payload,
                                          plan=plan))
    engine.run(until_us=30_000_000)
    assert dev.counters["malformed_setups"] == 1
    assert len(helpers.records(engine, "setup_rejected", entity="dev")) == 1
    assert dev.session is None and not plan.halves
    assert dev.fcnt_up >= 2   # LoRaWAN carries on
