import json
import math
import random

import pytest

import helpers
from lorad2d import phy
from lorad2d.engine import (BELOW_SENSITIVITY, COLLISION, DECODED, POLARITY,
                            Engine, Medium, RngManager, SimulationError)


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    order = []
    for name in "abc":
        engine.schedule(1000, lambda _, n=name: order.append(n))
    engine.schedule(500, lambda _: order.append("first"))
    engine.run()
    assert order == ["first", "a", "b", "c"]
    assert engine.events_executed == 4


def test_scheduling_into_the_past_is_an_error():
    engine = Engine()
    engine.schedule(1000, lambda _: engine.schedule(500, lambda _: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_cancelled_events_do_not_fire():
    engine = Engine()
    hits = []
    ev = engine.schedule(1000, lambda _: hits.append(1))
    engine.schedule(2000, lambda _: hits.append(2))
    engine.cancel(ev)
    engine.run()
    assert hits == [2]
    assert engine.now_us == 2000


def test_event_cancelled_at_its_own_instant_does_not_fire():
    engine = Engine()
    hits = []
    engine.schedule(1000, lambda _: engine.cancel(victim))
    victim = engine.schedule(1000, lambda _: hits.append("victim"))
    engine.schedule(1000, lambda _: hits.append("after"))
    engine.run()
    assert hits == ["after"]
    assert engine.events_executed == 2


def test_cancelling_an_event_that_already_ran_is_harmless():
    engine = Engine()
    hits = []
    done = engine.schedule(1000, lambda _: hits.append(1))
    engine.schedule(2000, lambda _: engine.cancel(done))
    engine.schedule(3000, lambda _: hits.append(3))
    engine.run()
    engine.cancel(done)
    assert hits == [1, 3]
    assert engine.events_executed == 3


def test_equal_times_keep_scheduling_order_around_cancelled_events():
    engine = Engine()
    order = []

    def first(_):
        order.append(0)
        # scheduled at the shared instant itself, so it queues behind the rest
        engine.schedule(1000, lambda _: order.append(8))

    entries = [engine.schedule(1000, first)]
    entries += [engine.schedule(1000, lambda _, n=n: order.append(n)) for n in range(1, 8)]
    engine.schedule(500, lambda _: [engine.cancel(entries[i]) for i in (1, 4)])
    engine.run()
    assert order == [0, 2, 3, 5, 6, 7, 8]
    assert engine.events_executed == 8


def test_run_until_advances_the_clock_past_the_last_event():
    engine = Engine()
    engine.schedule(1000, lambda _: None)
    engine.run(until_us=5000)
    assert engine.now_us == 5000
    # events beyond the horizon stay queued
    engine2 = Engine()
    hits = []
    engine2.schedule(9000, lambda _: hits.append(1))
    engine2.run(until_us=5000)
    assert hits == [] and engine2.now_us == 5000
    engine2.run(until_us=10_000)
    assert hits == [1]


def test_named_streams_are_reproducible_and_independent():
    a, b = RngManager(42), RngManager(42)
    assert a.stream("x").random() == b.stream("x").random()
    assert [a.stream("y").below(100) for _ in range(8)] == \
           [b.stream("y").below(100) for _ in range(8)]
    # one consumer draining its stream leaves another untouched
    c, d = RngManager(42), RngManager(42)
    for _ in range(1000):
        c.stream("noisy").random()
    assert c.stream("x").random() == d.stream("x").random()
    # different seeds and different labels decorrelate
    assert RngManager(1).stream("x").random() != RngManager(2).stream("x").random()
    assert RngManager(1).stream("x").random() != RngManager(1).stream("y").random()
    # repeated lookups hand back the same stream mid-sequence
    m = RngManager(0)
    assert m.stream("s") is m.stream("s")


def test_trace_switch_and_record_shape():
    engine = Engine(trace=True)
    engine.schedule(7, lambda _: engine.trace("ping", "unit", value=3))
    engine.run()
    assert engine.trace_records == [
        {"t_us": 7, "entity": "unit", "kind": "ping", "value": 3}]
    silent = Engine(trace=False)
    silent.schedule(7, lambda _: silent.trace("ping", "unit", value=3))
    silent.run()
    assert silent.trace_records == []


# -- reception arbitration ---------------------------------------------------
#
# Each case runs its frames through a Medium, whose capture kernel decides
# every reception; see helpers.hear.

RADIO = phy.RadioModel()
F = 868_100_000


def frame(source, start_us, dur_us, *, dr=0, power=14, freq=F, kind="uplink"):
    return phy.Transmission(start_us=start_us, duration_us=dur_us, freq_hz=freq,
                            dr=dr, tx_power_dbm=power, phy_payload_bytes=20,
                            source=source, kind=kind)


NOTHING = ("none", None)


def decide(transmissions, positions, *, dr=0, window=(0, 10_000_000), freq=F):
    return helpers.hear(transmissions, positions, freq_hz=freq, dr=dr, window_us=window)


def test_lone_frame_in_range_decodes():
    out = decide([frame("a", 1000, 5000)], {"a": (1000.0, 0.0)})
    assert out == (DECODED, "a")


def test_silence_reports_nothing():
    assert decide([], {}) == NOTHING
    # co-channel frame on a different spreading factor is invisible
    out = decide([frame("a", 1000, 5000, dr=3)], {"a": (1000.0, 0.0)})
    assert out == NOTHING
    # outside the listening window too
    out = decide([frame("a", 20_000_000, 5000)], {"a": (1000.0, 0.0)})
    assert out == NOTHING


def test_window_edges_are_half_open():
    pos = {"a": (1000.0, 0.0)}
    assert decide([frame("a", 1000, 4000)], pos, window=(5000, 9000)) == NOTHING
    assert decide([frame("a", 1000, 4001)], pos, window=(5000, 9000)) == (DECODED, "a")
    assert decide([frame("a", 9000, 100)], pos, window=(5000, 9000)) == NOTHING


def test_weak_frame_is_below_sensitivity():
    out = decide([frame("a", 1000, 5000)], {"a": (80_000.0, 0.0)})
    assert out == (BELOW_SENSITIVITY, None)


def test_near_equal_powers_collide():
    txs = [frame("a", 0, 5000, power=14), frame("b", 2000, 5000, power=12)]
    pos = {"a": (1000.0, 0.0), "b": (0.0, 1000.0)}
    assert decide(txs, pos) == (COLLISION, None)


def test_strong_frame_captures_over_weak():
    txs = [frame("a", 0, 5000, power=14), frame("b", 2000, 5000, power=4)]
    pos = {"a": (1000.0, 0.0), "b": (0.0, 1000.0)}
    assert decide(txs, pos) == (DECODED, "a")
    # at the exact threshold the capture still holds
    txs = [frame("a", 0, 5000, power=14), frame("b", 2000, 5000, power=8)]
    assert decide(txs, pos) == (DECODED, "a")


def test_weaker_frame_never_captures():
    txs = [frame("a", 0, 5000, power=4), frame("b", 2000, 5000, power=14)]
    pos = {"a": (1000.0, 0.0), "b": (0.0, 1000.0)}
    assert decide(txs, pos) == (DECODED, "b")


def test_disjoint_frames_decode_earliest_first():
    txs = [frame("late", 6000, 2000), frame("early", 0, 5000)]
    pos = {"late": (1000.0, 0.0), "early": (0.0, 1000.0)}
    assert decide(txs, pos) == (DECODED, "early")


def test_collision_pair_does_not_mask_a_clear_frame():
    txs = [frame("a", 0, 5000, power=14), frame("b", 2000, 5000, power=13),
           frame("c", 8000, 1000, power=14)]
    pos = {"a": (1000.0, 0.0), "b": (0.0, 1000.0), "c": (707.0, 707.0)}
    assert decide(txs, pos) == (DECODED, "c")


def test_rival_below_sensitivity_does_not_collide():
    # b is 3 dB weaker than a but under the DR0 floor, so it cannot interfere
    txs = [frame("a", 0, 5000), frame("b", 2000, 5000)]
    pos = {"a": (5500.0, 0.0), "b": (7000.0, 0.0)}
    assert decide(txs, pos) == (DECODED, "a")


# -- medium bookkeeping ------------------------------------------------------


class _Recorder:
    def __init__(self, eid):
        self.eid = eid
        self.heard = []

    def on_frame_decoded(self, tx):
        self.heard.append(tx.source)

    def on_own_tx_end(self, tx):
        pass


def test_medium_pairs_every_start_with_one_end():
    engine = Engine()
    medium = Medium(engine, RADIO)
    sender = _Recorder("s")
    medium.register_position("s", (0.0, 0.0))
    for k in range(5):
        medium.begin_tx(frame("s", 1000 + 200_000 * k, 5000), owner=sender)
    engine.run()
    kinds = [r["kind"] for r in engine.trace_records]
    assert kinds.count("tx_start") == 5
    assert kinds.count("tx_end") == 5
    starts = [r["t_us"] for r in engine.trace_records if r["kind"] == "tx_start"]
    assert starts == sorted(starts)


def test_listener_opening_mid_frame_is_locked_until_frame_end():
    engine = Engine()
    medium = Medium(engine, RADIO)
    sender, rx = _Recorder("s"), _Recorder("r")
    medium.register_position("s", (1000.0, 0.0))
    medium.register_position("r", (0.0, 0.0))
    medium.begin_tx(frame("s", 1000, 400_000), owner=sender)

    def open_rx(_):
        medium.listen(rx, F, 0, "up")
        assert medium.lock_until_us("r") == 401_000

    engine.schedule(200_000, open_rx)
    engine.run()
    assert rx.heard == ["s"]       # opened mid-preamble is still a reception


F2 = 868_300_000


def _rig(*senders):
    engine = Engine()
    medium = Medium(engine, RADIO)
    rx = _Recorder("r")
    medium.register_position("r", (0.0, 0.0))
    for eid in senders:
        medium.register_position(eid, (1000.0, 0.0))
    return engine, medium, rx


def _locks_at(engine, medium, t_us, seen):
    engine.schedule(t_us, lambda _: seen.append(medium.lock_until_us("r")))


def test_relisten_on_another_channel_moves_the_listener():
    engine, medium, rx = _rig("old", "new")
    medium.listen(rx, F, 0, "up")
    medium.listen(rx, F2, 3, "up")
    medium.begin_tx(frame("old", 1000, 5000), owner=_Recorder("old"))
    medium.begin_tx(frame("new", 100_000, 5000, freq=F2, dr=3), owner=_Recorder("new"))
    locks = []
    _locks_at(engine, medium, 3000, locks)
    _locks_at(engine, medium, 102_000, locks)
    engine.run()
    assert locks == [0, 105_000]
    assert rx.heard == ["new"]


def test_unlisten_removes_the_listener():
    engine, medium, rx = _rig("s")
    medium.listen(rx, F, 0, "up")
    medium.unlisten(rx)
    medium.begin_tx(frame("s", 1000, 5000), owner=_Recorder("s"))
    locks = []
    _locks_at(engine, medium, 3000, locks)
    engine.run()
    assert locks == [0] and rx.heard == []
    assert helpers.trace_kinds(engine, "r") == []


def test_other_channel_or_sf_neither_locks_nor_reaches():
    engine, medium, rx = _rig("f2", "sf9")
    medium.listen(rx, F, 0, "up")
    medium.begin_tx(frame("f2", 1000, 5000, freq=F2), owner=_Recorder("f2"))
    medium.begin_tx(frame("sf9", 1000, 5000, dr=3), owner=_Recorder("sf9"))
    locks = []
    _locks_at(engine, medium, 3000, locks)
    engine.run()
    assert locks == [0] and rx.heard == []
    assert helpers.trace_kinds(engine, "r") == []       # no drop either


@pytest.mark.parametrize("listen_dr,frame_dr", [(5, 6), (6, 5), (5, 5), (6, 6)])
def test_bandwidth_separates_co_sf7_rates(listen_dr, frame_dr):
    # DR5 (SF7/125 kHz) and DR6 (SF7/250 kHz) share a spreading factor but
    # not a bandwidth: a receiver on one neither locks to, decodes nor drops
    # a frame on the other.  Same-rate pairs are the positive control.
    engine, medium, rx = _rig("s")
    medium.listen(rx, F, listen_dr, "up")
    medium.begin_tx(frame("s", 1000, 5000, dr=frame_dr), owner=_Recorder("s"))
    locks = []
    _locks_at(engine, medium, 3000, locks)
    engine.run()
    if listen_dr == frame_dr:
        assert locks == [6000] and rx.heard == ["s"]
    else:
        assert locks == [0] and rx.heard == []
        assert helpers.trace_kinds(engine, "r") == []


def test_data_rate_outside_the_table_is_an_error():
    engine, medium, rx = _rig("s")
    with pytest.raises(phy.PhyError):
        medium.listen(rx, F, 9, "up")
    with pytest.raises(phy.PhyError):
        medium.begin_tx(frame("s", 1000, 5000, dr=9), owner=None)


def test_buckets_hold_only_frames_on_the_air():
    engine, medium, rx = _rig("s")
    keys = [(F, 0), (F2, 0), (F, 3)]
    held = []

    class Sender(_Recorder):
        def on_own_tx_end(self, tx):
            bucket = medium._on_air[(tx.freq_hz, tx.dr, "up")]
            assert all(t is not tx for t, _ in bucket.values())
            held.append(len(bucket))

    # 2 s frames every 1.5 s in each bucket: as one ends, the next is on the air
    for k in range(60):
        freq, dr = keys[k % 3]
        medium.begin_tx(frame("s", 1000 + 500_000 * k, 2_000_000, freq=freq, dr=dr),
                        owner=Sender("s"))
    engine.run()
    assert held == [1] * 57 + [0] * 3
    assert not any(medium._on_air.values())
    for k in range(100):
        freq, dr = keys[k % 3]
        medium.listen(rx, freq, dr, "up")
    assert sum(len(bucket) for bucket in medium._tuned.values()) == 1
    medium.unlisten(rx)
    assert sum(len(bucket) for bucket in medium._tuned.values()) == 0


class _RivalLog(Medium):
    """Records the rivals handed to every capture, by frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rivals = []

    def capture(self, tx, rivals, dst_eid, window0_us):
        self.rivals.append((tx, list(rivals)))
        return super().capture(tx, rivals, dst_eid, window0_us)


def _bucket(tx):
    return tx.freq_hz, tx.dr, POLARITY[tx.kind]


def _frame_set(seed):
    """(frame, begun_late) pairs: fixed same-start and touching frames in one
    bucket, then seeded random frames on a 1 ms grid across several buckets.
    A frame begun late is begun by an event at its own start, so its tx_start
    runs after every tx_end already due then; one begun up front runs first."""
    rng = random.Random(seed)
    fixed = [(1000, 5000, False), (1000, 3000, False),       # same start
             (10_000, 5000, False), (15_000, 5000, False),   # start before end
             (20_000, 5000, True)]                           # end before start
    out = [(frame(f"x{i}", start, dur), late) for i, (start, dur, late) in enumerate(fixed)]
    for i in range(40):
        if rng.random() < 0.6:
            freq, dr, kind = F, 0, "uplink"
        else:
            freq, dr, kind = rng.choice((F, F2)), rng.choice((0, 3)), \
                rng.choice(("uplink", "downlink", "d2d_data"))
        out.append((frame(f"f{i}", 1000 * rng.randrange(1, 40), 1000 * rng.randrange(1, 8),
                          freq=freq, dr=dr, kind=kind), rng.random() < 0.5))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_rivals_are_exactly_the_overlapping_co_bucket_frames(seed):
    engine = Engine()
    medium = _RivalLog(engine, RADIO)
    frames = _frame_set(seed)
    gw = _Recorder("gw")
    gw.channels_hz = [F, F2]
    medium.register_position("gw", (0.0, 0.0))
    medium.listen_gateway(gw)
    for n, key in enumerate(sorted({_bucket(tx) for tx, _ in frames})):
        rx = _Recorder(f"r{n}")
        medium.register_position(rx.eid, (0.0, 0.0))
        medium.listen(rx, *key)
    for k, (tx, late) in enumerate(frames):
        medium.register_position(tx.source, (100.0 * (k + 1), 0.0))
        if late:
            engine.schedule(tx.start_us, lambda _, tx=tx: medium.begin_tx(tx, owner=None))
        else:
            medium.begin_tx(tx, owner=None)
    engine.run()

    by_source = {tx.source: tx for tx, _ in frames}
    assert {tx.source for tx, _ in medium.rivals} == set(by_source)
    for tx, rivals in medium.rivals:
        expected = [t for t in by_source.values() if t is not tx
                    and _bucket(t) == _bucket(tx) and t.overlaps(tx.start_us, tx.end_us)]
        assert sorted(map(id, rivals)) == sorted(map(id, expected)), tx.source
    # both event orders of touching co-bucket frames occurred
    orders = set()
    records = [r for r in engine.trace_records if r["kind"] in ("tx_start", "tx_end")]
    for a, b in zip(records, records[1:]):
        ta, tb = by_source[a["entity"]], by_source[b["entity"]]
        if a["t_us"] == b["t_us"] and _bucket(ta) == _bucket(tb) and a["kind"] != b["kind"]:
            orders.add(a["kind"])
    assert orders == {"tx_start", "tx_end"}


@pytest.mark.parametrize("seed", range(12))
def test_lock_is_the_latest_end_of_the_held_frames_on_the_air(seed):
    # Listeners open, relisten and close on a 1 ms grid, before, during and
    # after seeded frames in several buckets, some of them their own and
    # some below the floor.  Each query, at half past a grid step, must
    # agree with a brute force over the whole frame list.
    rng = random.Random(seed)
    engine = Engine()
    medium = Medium(engine, RADIO)
    receivers = {f"r{n}": (0.0, 300.0 * n) for n in range(3)}
    senders = {f"s{n}": (rng.choice((500.0, 2000.0, 5500.0, 7000.0, 20_000.0)), 0.0)
               for n in range(6)}
    positions = {**receivers, **senders}
    for eid, pos in positions.items():
        medium.register_position(eid, pos)
    frames = []
    for i in range(40):
        freq, dr = rng.choice(((F, 0), (F, 0), (F2, 3), (F2, 0)))
        frames.append(frame(rng.choice([*senders, *receivers]), 1000 * rng.randrange(1, 60),
                            1000 * rng.randrange(1, 12), freq=freq, dr=dr,
                            kind=rng.choice(("downlink", "d2d_data", "uplink"))))
    buckets = [(F, 0, "down"), (F, 0, "d2d"), (F2, 3, "down"), None]   # None: unlisten
    tuned = {eid: [(1000 * t, rng.choice(buckets))
                   for t in sorted(rng.sample(range(70), rng.randrange(1, 8)))]
             for eid in receivers}
    setup = [("tx", tx) for tx in frames]
    setup += [("listen", (eid, t, key)) for eid, steps in tuned.items() for t, key in steps]
    rng.shuffle(setup)

    def retune(step):
        eid, _, key = step
        rx = _Recorder(eid)
        if key is None:
            medium.unlisten(rx)
        else:
            medium.listen(rx, *key)

    for what, item in setup:
        if what == "tx":
            if rng.random() < 0.5:
                engine.schedule(item.start_us,
                                lambda _, tx=item: medium.begin_tx(tx, owner=None))
            else:
                medium.begin_tx(item, owner=None)
        else:
            engine.schedule(item[1], retune, item)
    seen = []
    for t in range(500, 80_000, 1000):
        for eid in receivers:
            engine.schedule(t, lambda _, eid=eid: seen.append(
                (engine.now_us, eid, medium.lock_until_us(eid))))
    engine.run()

    def expected(t_us, eid):
        keys = [key for t, key in tuned[eid] if t < t_us]
        if not keys or keys[-1] is None:
            return 0, []
        key = keys[-1]
        floor = phy.sensitivity(key[1])
        held = [tx for tx in frames if _bucket(tx) == key and tx.source != eid
                and tx.start_us < t_us < tx.end_us
                and tx.tx_power_dbm - RADIO.path_loss_db(
                    max(math.dist(positions[eid], positions[tx.source]), 1e-3)) >= floor]
        return max((tx.end_us for tx in held), default=0), held

    holds = 0
    for t_us, eid, lock in seen:
        want, held = expected(t_us, eid)
        assert (lock > t_us) == bool(held), (t_us, eid)
        if held:
            holds += 1
            assert lock == want, (t_us, eid)
    assert len(seen) == 80 * 3 and holds > 0


def test_delivery_callbacks_retuning_other_listeners():
    # r1 hears the frame first (sorted order) and, from its callback, closes
    # r2 and retunes r3 onto the frame's channel.  Neither is then reached:
    # r2 is gone and r3's window opens only as the frame ends.
    engine, medium, _ = _rig("s")
    r1, r2, r3 = _Recorder("r1"), _Recorder("r2"), _Recorder("r3")
    for rx in (r1, r2, r3):
        medium.register_position(rx.eid, (0.0, 0.0))

    def retune(tx):
        _Recorder.on_frame_decoded(r1, tx)
        medium.unlisten(r2)
        medium.listen(r3, F, 0, "up")

    r1.on_frame_decoded = retune
    medium.listen(r1, F, 0, "up")
    medium.listen(r2, F, 0, "up")
    medium.listen(r3, F2, 0, "up")
    medium.begin_tx(frame("s", 1000, 5000), owner=_Recorder("s"))
    engine.run()
    assert (r1.heard, r2.heard, r3.heard) == (["s"], [], [])
    assert [r["entity"] for r in engine.trace_records
            if r["kind"] in ("decode", "drop")] == ["r1"]


# -- IQ polarity -------------------------------------------------------------


@pytest.mark.parametrize("polarity", ["up", "down", "d2d"])
def test_listener_hears_only_its_polarity(polarity):
    # one frame of every kind on the listener's channel and rate, one after
    # another; each named after its kind
    kinds = list(POLARITY)
    engine, medium, rx = _rig(*kinds)
    medium.listen(rx, F, 0, polarity)
    locked = []
    for k, kind in enumerate(kinds):
        start = 1000 + 1_000_000 * k
        medium.begin_tx(frame(kind, start, 5000, kind=kind), owner=_Recorder(kind))
        engine.schedule(start + 2000, lambda _: locked.append(
            medium.lock_until_us("r") > engine.now_us))
    engine.run()
    mine = [kind for kind in kinds if POLARITY[kind] == polarity]
    assert rx.heard == mine
    assert locked == [POLARITY[kind] == polarity for kind in kinds]
    assert helpers.trace_kinds(engine, "r") == ["decode"] * len(mine)


def test_gateway_hears_only_up_frames():
    # the downlink pair and the D2D pair each overlap at equal power, so a
    # gateway that heard them would count two collisions per pair
    engine, medium, _ = _rig("downlink", "join_accept", "d2d_data", "d2d_ack",
                             "uplink", "join_request")
    gw = _Recorder("gw")
    gw.channels_hz = [F]
    medium.register_position("gw", (0.0, 0.0))
    medium.listen_gateway(gw)
    for source, start in (("downlink", 1000), ("join_accept", 2000),
                          ("d2d_data", 1_000_000), ("d2d_ack", 1_001_000),
                          ("uplink", 2_000_000), ("join_request", 3_000_000)):
        medium.begin_tx(frame(source, start, 5000, kind=source), owner=_Recorder(source))
    engine.run()
    assert gw.heard == ["uplink", "join_request"]
    assert helpers.trace_kinds(engine, "gw") == ["decode", "decode"]
    assert engine.counters == {}


def test_gateway_hears_every_data_rate_on_its_channels_only():
    # one uplink per (channel, DR), one after another; the gateway lacks F3
    F3 = 868_500_000
    engine = Engine()
    medium = Medium(engine, RADIO)
    gw = _Recorder("gw")
    gw.channels_hz = [F, F2]
    medium.register_position("gw", (0.0, 0.0))
    medium.listen_gateway(gw)
    sent = [(freq, dr) for freq in (F, F2, F3) for dr in range(8)]
    for k, (freq, dr) in enumerate(sent):
        eid = f"{freq}/DR{dr}"
        medium.register_position(eid, (100.0, 0.0))
        medium.begin_tx(frame(eid, 1000 + 10_000 * k, 5000, dr=dr, freq=freq), owner=None)
    engine.run()
    assert gw.heard == [f"{freq}/DR{dr}" for freq, dr in sent if freq != F3]
    assert helpers.trace_kinds(engine, "gw") == ["decode"] * 16


def test_kind_without_polarity_is_an_error():
    engine, medium, _ = _rig("s")
    with pytest.raises(SimulationError, match="'join'"):
        medium.begin_tx(frame("s", 1000, 5000, kind="join"), owner=None)
    engine.run()
    assert engine.trace_records == []
