import dataclasses

import pytest

import helpers
from oracles import exchange_phase_duration_s
from lorad2d import d2d, phy, runner
from lorad2d.d2d import D2DProtocolError, D2DState, ExchangeParams
from lorad2d.engine import DECODED, Medium
from lorad2d.scenario import load_bundled

SMALL = dict(data_packets=2, data_payload_bytes=20, ack_payload_bytes=5)


class LossyMedium(Medium):
    """Drops chosen frames from the peer-to-peer flow, by delivery order."""

    def __init__(self, *args, drop=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.drop = set(drop)
        self.seen = 0

    def capture(self, tx, rivals, dst_eid, window0_us):
        out = super().capture(tx, rivals, dst_eid, window0_us)
        if out == DECODED and tx.kind.startswith("d2d"):
            idx = self.seen
            self.seen += 1
            if idx in self.drop:
                return "below_sensitivity"
        return out


def run_pair(engine, until_s=40.0):
    engine.run(until_us=round(until_s * 1e6))


def test_clean_exchange_completes_with_exact_timing():
    engine, medium = helpers.make_rig()
    init_dev, scan_dev = helpers.arm_pair(engine, medium,
                                          t1_initiator_s=1.0, t1_scanner_s=0.0)
    run_pair(engine)
    init, scan = init_dev.session_history[0], scan_dev.session_history[0]

    for s in (init, scan):
        assert s.state is D2DState.DONE
        assert s.established and s.completed
        assert s.packets_acked == 10
        assert s.consecutive_timeouts == 0
    assert init.data_frames_sent == 10 and init.ack_frames_sent == 0
    assert scan.ack_frames_sent == 10 and scan.data_frames_sent == 0

    # exchange phase: exactly N * (data + turnaround + ack + turnaround)
    nominal_us = round(exchange_phase_duration_s(ExchangeParams(), 6) * 1e6)
    assert init.terminal_us - init.first_data_tx_us == nominal_us
    # the scanner stays on a bit longer, guarding against a lost final ack
    assert scan.terminal_us > init.terminal_us


def test_frames_strictly_alternate():
    engine, medium = helpers.make_rig()
    helpers.arm_pair(engine, medium, t1_initiator_s=1.0, t1_scanner_s=0.0)
    run_pair(engine)
    starts = [(r["entity"], r["frame"]) for r in helpers.records(engine, "tx_start")]
    assert starts == [("init", "d2d_data"), ("scan", "d2d_ack")] * 10


def test_exchange_duration_formula():
    params = ExchangeParams()
    toa_data = phy.time_on_air(6, 240 + 13)
    toa_ack = phy.time_on_air(6, 10 + 13)
    expected = 10 * (toa_data + 0.05 + toa_ack + 0.05)
    assert exchange_phase_duration_s(params, 6) == pytest.approx(expected)
    assert expected == pytest.approx(3.280960, abs=1e-6)


def test_total_loss_exhausts_retry_budget():
    engine, medium = helpers.make_rig(d2d_frame_loss_prob=1.0)
    init_dev, scan_dev = helpers.arm_pair(engine, medium,
                                          t1_initiator_s=1.0, t1_scanner_s=0.0)
    run_pair(engine)
    init, scan = init_dev.session_history[0], scan_dev.session_history[0]

    assert init.state is D2DState.FAILED
    assert init.fail_reason == "retry_budget_exhausted"
    assert init.data_frames_sent == 3        # every attempt unanswered
    assert not init.established

    assert scan.state is D2DState.FAILED
    assert scan.fail_reason == "rendezvous_timeout"
    assert scan.ack_frames_sent == 0
    # the scanner gives up exactly at the T2 deadline
    assert scan.terminal_us == scan.activation_us + 30_000_000
    assert init.terminal_us < scan.terminal_us


def test_sessions_are_time_bounded_under_any_loss():
    for drop_all in (False, True):
        engine, medium = helpers.make_rig(
            d2d_frame_loss_prob=1.0 if drop_all else 0.0)
        init_dev, scan_dev = helpers.arm_pair(engine, medium, t2_s=20.0,
                                              t1_initiator_s=1.0)
        run_pair(engine)
        bound_us = 20_000_000 + phy.time_on_air_us(6, 253) + 1_000_000
        for dev in (init_dev, scan_dev):
            s = dev.session_history[0]
            assert s.terminal_us is not None
            assert s.terminal_us - s.activation_us <= bound_us


def test_lost_data_frame_is_retransmitted():
    engine = helpers.make_rig()[0]
    medium = LossyMedium(engine, phy.RadioModel(), drop={0})
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=1.0,
                                          params=ExchangeParams(**SMALL))
    run_pair(engine)
    init, scan = init_dev.session_history[0], scan_dev.session_history[0]
    assert init.completed and scan.completed
    assert init.data_frames_sent == 3        # one extra attempt for packet 1
    assert scan.ack_frames_sent == 2
    assert init.consecutive_timeouts == 0    # reset once the ack arrived


def test_lost_ack_triggers_duplicate_and_re_ack():
    engine = helpers.make_rig()[0]
    # delivery order: data1 (0), ack1 (1), ...; drop the first ack
    medium = LossyMedium(engine, phy.RadioModel(), drop={1})
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=1.0,
                                          params=ExchangeParams(**SMALL))
    run_pair(engine)
    init, scan = init_dev.session_history[0], scan_dev.session_history[0]
    assert init.completed and scan.completed
    assert init.data_frames_sent == 3        # packet 1 sent twice
    assert scan.ack_frames_sent == 3         # duplicate re-acknowledged
    assert init.packets_acked == 2 and scan.packets_acked == 2


def test_lost_final_ack_recovered_during_linger():
    engine = helpers.make_rig()[0]
    # data1 (0), ack1 (1), data2 (2), ack2 (3): drop the final ack
    medium = LossyMedium(engine, phy.RadioModel(), drop={3})
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=1.0,
                                          params=ExchangeParams(**SMALL))
    run_pair(engine)
    init, scan = init_dev.session_history[0], scan_dev.session_history[0]
    assert init.completed and scan.completed
    assert init.data_frames_sent == 3        # final packet retransmitted
    assert scan.ack_frames_sent == 3         # lingering receiver re-acked it


def test_frames_from_strangers_are_ignored():
    engine, medium = helpers.make_rig()
    init_dev, _ = helpers.arm_pair(engine, medium, t1_initiator_s=1.0)
    engine.run(until_us=3_000_000)           # mid-exchange
    session = init_dev.session
    assert session is not None and session.state is D2DState.EXCHANGE
    before = session.packets_acked
    session.on_frame(d2d.D2DAckFrame(source_addr=0x9999, seq=before + 1,
                                     app_bytes=10))
    assert session.packets_acked == before
    assert session.ignored_frames == 1
    # a stale ack from the right peer is ignored too
    session.on_frame(d2d.D2DAckFrame(source_addr=0x22, seq=99, app_bytes=10))
    assert session.ignored_frames == 2


def test_device_radio_is_reserved_while_suspended():
    engine, medium = helpers.make_rig()
    init_dev, scan_dev = helpers.arm_pair(engine, medium, t1_initiator_s=1.0)
    run_pair(engine)
    for dev in (init_dev, scan_dev):
        session = dev.session_history[0]
        window = (session.activation_us, session.terminal_us)
        for rec in helpers.records(engine, "tx_start", entity=dev.eid):
            if window[0] <= rec["t_us"] < window[1]:
                assert rec["frame"].startswith("d2d")
            else:
                assert not rec["frame"].startswith("d2d")


def test_exchange_params_validation():
    with pytest.raises(D2DProtocolError):
        ExchangeParams(data_packets=0)
    with pytest.raises(D2DProtocolError):
        ExchangeParams(data_payload_bytes=243)   # 243 + 13 > 255
    ExchangeParams(data_payload_bytes=242)       # largest payload that fits


def test_activating_a_running_session_is_rejected():
    engine, medium = helpers.make_rig()
    init_dev, _ = helpers.arm_pair(engine, medium, t1_initiator_s=1.0)
    engine.run(until_us=3_000_000)           # past the start timer
    assert init_dev.session.state is D2DState.EXCHANGE
    with pytest.raises(D2DProtocolError):
        init_dev.session.activate()


def _live_timers(engine, session):
    """Pending engine entries whose callback is a method of ``session``."""
    return [e for e in engine._heap
            if e[2] is not None and getattr(e[2], "__self__", None) is session]


@pytest.mark.parametrize("rig,arm,endings", [
    ({}, dict(t1_initiator_s=1.0), {(True, None)}),
    ({"d2d_frame_loss_prob": 1.0}, dict(t1_initiator_s=1.0),
     {(False, "retry_budget_exhausted"), (False, "rendezvous_timeout")}),
    # ten rounds take 3.3 s, so T2 closes the established exchange
    ({}, dict(t1_initiator_s=1.0, t2_s=2.0), {(False, "session_timeout")}),
], ids=["complete", "retry_and_rendezvous", "session_timeout"])
def test_a_session_holds_at_most_two_timers_and_none_once_finished(rig, arm, endings):
    engine, medium = helpers.make_rig(**rig)
    devices = helpers.arm_pair(engine, medium, **arm)
    most = 0
    while engine._heap and engine._heap[0][0] <= 40_000_000:
        engine.run(until_us=engine._heap[0][0])   # every event at that instant
        for dev in devices:
            if dev.session is not None:
                most = max(most, len(_live_timers(engine, dev.session)))
            for done in dev.session_history:
                assert _live_timers(engine, done) == []
    assert most == 2   # the T2 deadline and one step
    halves = [dev.session_history[0] for dev in devices]
    assert {(s.completed, s.fail_reason) for s in halves} == endings


@pytest.mark.parametrize("end_time_s", [None, 60.0])
def test_no_d2d_frame_goes_out_after_its_session(end_time_s):
    # table2_d2d with the regulator on: the first 240-byte frame buys
    # sub-band g about 20 s of off-time, which pushes the second data frame
    # past T2.  A frame sent anyway would be counted but not yet on the air
    # when the bundled run ends, and on the air after the session when the
    # run lasts 60 s.
    scn = dataclasses.replace(load_bundled("table2_d2d"), duty_cycle_enforced=True)
    if end_time_s is not None:
        scn = dataclasses.replace(scn, end_time_s=end_time_s)
    res = runner.run(scn, seed=0, trace=True)
    for eid in ("initiator", "scanner"):
        finished = helpers.records(res.engine, "d2d_finished", entity=eid)
        late = [r for r in helpers.records(res.engine, "tx_start", entity=eid)
                if r["frame"].startswith("d2d") and finished
                and r["t_us"] >= finished[0]["t_us"]]
        assert late == []
    sent = res.document["d2d_sessions"][0]["sessions"]["initiator"]["data_frames_sent"]
    on_air = [r for r in helpers.records(res.engine, "tx_start", entity="initiator")
              if r["frame"] == "d2d_data"]
    assert sent == len(on_air)
    # the withheld frame leaves a record: the second data frame, due at
    # 27.277 s, could start only at 46.724 s, past T2 at 41.999 s
    withheld = helpers.records(res.engine, "d2d_withheld")
    assert [(r["entity"], r["frame"], r["t_us"], r["start_us"], r["t2_us"])
            for r in withheld] == [
        ("initiator", "d2d_data", 27_277_152, 46_723_856, 41_999_056)]


def test_a_devices_duty_audit_counts_its_d2d_frames():
    # D2D frames go through the device's one duty ledger, as its uplinks do,
    # whether or not the regulator defers them; the bundled pair uplinks on
    # sub-band g1 only, so sub-band g holds its D2D frames alone
    res = runner.run(load_bundled("table2_d2d"), seed=0)
    halves = res.document["d2d_sessions"][0]["sessions"]
    directive = res.scenario.d2d_directives[0]
    params = directive.exchange
    for eid, count, app_bytes in (
            ("initiator", "data_frames_sent", params.data_payload_bytes),
            ("scanner", "ack_frames_sent", params.ack_payload_bytes)):
        frames = halves[eid][count]
        assert frames > 0
        band = res.document["devices"][eid]["duty"]["g"]
        assert band["frames"] == frames
        toa_s = phy.time_on_air_us(directive.dr, app_bytes + phy.FRAME_OVERHEAD_BYTES) / 1e6
        assert band["on_air_s"] == pytest.approx(frames * toa_s)
