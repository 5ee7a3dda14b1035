"""End-to-end runs: wiring, tracing, seeding, sweeps, and the benchmark table."""

import copy
import dataclasses
import io
import json

import pytest

import helpers
from lorad2d import d2d, metrics, runner
from lorad2d.engine import Medium
from lorad2d.scenario import (DeviceSpec, GatewaySpec, Scenario, ScenarioError,
                              TransferSpec, load_bundled)


def test_run_result_is_fully_wired():
    scn = load_bundled(runner.D2D_SCENARIO)
    res = runner.run(scn, seed=0)
    assert res.scenario is scn
    assert set(res.devices) == {"initiator", "scanner"}
    assert set(res.gateways) == {"gw0"}
    assert res.ns.counters["uplinks"] > 0
    assert len(res.ns.plans) == 1
    assert metrics.validate(res.document) is res.document


def test_seed_argument_overrides_scenario_seed():
    scn = load_bundled(runner.D2D_SCENARIO)
    assert runner.run(scn).document["seed"] == scn.seed
    assert runner.run(scn, seed=7).document["seed"] == 7


def test_trace_flag_controls_jsonl_output():
    scn = load_bundled(runner.D2D_SCENARIO)
    silent = runner.run(scn, seed=0, trace=False)
    assert silent.trace_jsonl() == ""

    res = runner.run(scn, seed=0, trace=True)
    text = res.trace_jsonl()
    lines = text.splitlines()
    assert lines
    starts = ends = 0
    for line in lines:
        rec = json.loads(line)
        assert {"t_us", "entity", "kind"} <= rec.keys()
        starts += rec["kind"] == "tx_start"
        ends += rec["kind"] == "tx_end"
    assert starts == ends > 0


def test_repeated_runs_emit_identical_traces():
    scn = load_bundled(runner.CONVENTIONAL_SCENARIO)
    first = runner.run(scn, seed=3, trace=True).trace_jsonl()
    second = runner.run(scn, seed=3, trace=True).trace_jsonl()
    assert first == second


def test_seed_only_moves_the_random_draws():
    doc = {
        "schema": "scenario/1",
        "name": "jittered",
        "end_time_s": 95.0,
        "devices": [{
            "eid": "dev", "dev_addr": 1, "period_s": 10.0, "phase_s": 1.0,
            "jitter_frac": 0.05,
            "channels_hz": [868_100_000, 868_300_000, 868_500_000],
        }],
        "gateways": [{"eid": "gw0", "position": [2000.0, 0.0]}],
    }
    scn = Scenario.from_json(json.dumps(doc))
    a = runner.run(scn, seed=0, trace=True)
    b = runner.run(scn, seed=1, trace=True)
    # the event skeleton is seed independent; timing and channel picks move
    skel = lambda res: [(r["entity"], r["kind"]) for r in res.engine.trace_records]
    assert skel(a) == skel(b)
    assert a.trace_jsonl() != b.trace_jsonl()


def test_lorawan_stays_suspended_during_session():
    res = runner.run(load_bundled(runner.D2D_SCENARIO), seed=0, trace=True)
    for eid in ("initiator", "scanner"):
        recs = [r for r in res.engine.trace_records if r["entity"] == eid]
        armed_t = next(r["t_us"] for r in recs if r["kind"] == "d2d_armed")
        resume = next(r for r in recs if r["kind"] == "resume")
        for r in recs:
            if r["kind"] == "tx_start" and armed_t <= r["t_us"] < resume["t_us"]:
                assert r["frame"].startswith("d2d_")
        assert resume["next_uplink_us"] > resume["t_us"]


def test_transfer_with_unjoined_endpoint_is_counted_failed():
    scn = copy.deepcopy(load_bundled(runner.CONVENTIONAL_SCENARIO))
    scn.end_time_s = 10.0
    receiver = next(d for d in scn.devices if d.eid == "receiver")
    receiver.prejoined = False
    receiver.dev_addr = None
    scn.transfers[0].at_s = 0.0

    res = runner.run(scn, seed=0, trace=True)
    assert res.engine.counters["transfer_failed"] == 1
    assert res.document["network"]["transfer_failures"] == 1
    assert res.document["transfers"] == []
    failures = [r for r in res.engine.trace_records if r["kind"] == "transfer_failed"]
    assert failures and failures[0]["dest"] == "receiver"


def test_transfer_too_large_for_the_destination_is_counted_failed():
    src = DeviceSpec("src", (200.0, 0.0), dev_addr=0x0300_0001, period_s=20.0,
                     phase_s=1.0, dr=5, app_payload_bytes=200)
    dst = DeviceSpec("dst", (-200.0, 0.0), dev_addr=0x0300_0002, period_s=20.0,
                     phase_s=2.0, dr=0)
    scn = Scenario("oversized-chunks", 60.0, devices=[src, dst],
                   gateways=[GatewaySpec("gw0", (0.0, 0.0))],
                   transfers=[TransferSpec("src", "dst", 1000, at_s=0.0)])

    res = runner.run(scn, seed=0, trace=True)
    assert res.engine.counters["transfer_failed"] == 1
    assert res.document["network"]["transfer_failures"] == 1
    assert res.document["transfers"] == []
    assert res.document["network"]["uplinks"] > 0
    failures = [r for r in res.engine.trace_records if r["kind"] == "transfer_failed"]
    assert failures and failures[0]["dest"] == "dst"
    assert "200 application bytes" in failures[0]["error"]


def test_infeasible_directive_is_logged_not_fatal():
    scn = copy.deepcopy(load_bundled(runner.D2D_SCENARIO))
    scn.d2d_directives[0].t2_s = 20.0

    res = runner.run(scn, seed=0)
    assert res.ns.plans[0].error is not None
    doc = res.document
    assert doc["network"]["d2d_plan_failures"] == 1
    rec = doc["d2d_sessions"][0]
    assert rec["completed"] is False
    assert rec["error"] == res.ns.plans[0].error
    assert "sessions" not in rec
    for dev_rec in doc["devices"].values():
        assert dev_rec["sessions"] == []


def test_each_directive_runs_its_own_exchange():
    doc = runner.run(helpers.two_directives(), seed=0).document
    first, second = doc["d2d_sessions"]
    assert (first["initiator"], second["initiator"]) == ("initiator", "scanner")
    for rec, packets in ((first, 10), (second, 3)):
        assert rec["completed"]
        assert rec["bytes_exchanged"] == packets * 240
        for half in rec["sessions"].values():
            assert half["packets_acked"] == packets


class FirstSetupLost(Medium):
    """Loses the first setup downlink sent to the device named "scanner"."""

    lost = False

    def capture(self, tx, rivals, dst_eid, window0_us):
        out = super().capture(tx, rivals, dst_eid, window0_us)
        if (not self.lost and dst_eid == "scanner" and tx.kind == "downlink"
                and tx.frame.port == d2d.SETUP_PORT):
            self.lost = True
            return "below_sensitivity"
        return out


def test_sessions_pair_with_their_directive_when_a_setup_is_lost(monkeypatch):
    monkeypatch.setattr(runner, "Medium", FirstSetupLost)
    doc = runner.run(helpers.two_directives(), seed=0).document
    first, second = doc["d2d_sessions"]
    # the scanner device never heard the first plan, so only the initiator
    # device ran a half of it, alone
    assert set(first["sessions"]) == {"initiator"}
    assert not first["completed"]
    # the scanner device's only session belongs to the second directive,
    # in which it is the initiator
    assert second["sessions"]["initiator"]["device"] == "scanner"
    assert second["sessions"]["initiator"]["role"] == "initiator"
    assert [s["role"] for s in doc["devices"]["scanner"]["sessions"]] == ["initiator"]


class FirstJoinAcceptLost(Medium):
    """Loses the first JoinAccept sent to the device named "dst"."""

    lost = False

    def capture(self, tx, rivals, dst_eid, window0_us):
        out = super().capture(tx, rivals, dst_eid, window0_us)
        if not self.lost and dst_eid == "dst" and tx.kind == "join_accept":
            self.lost = True
            return "below_sensitivity"
        return out


def test_transfer_opens_to_a_device_whose_join_accept_was_lost(monkeypatch):
    # The server has accepted dst's join and given it an address, so it opens
    # the transfer and holds the chunks until dst rejoins and uplinks.
    monkeypatch.setattr(runner, "Medium", FirstJoinAcceptLost)
    src = DeviceSpec("src", (300.0, 0.0), dev_addr=0x0300_0001, period_s=20.0,
                     phase_s=1.0, dr=3, app_payload_bytes=20)
    dst = DeviceSpec("dst", (-300.0, 0.0), period_s=20.0, phase_s=2.0, dr=3,
                     prejoined=False)
    scn = Scenario("lost-join-accept", 120.0, devices=[src, dst],
                   gateways=[GatewaySpec("gw0", (0.0, 0.0))],
                   transfers=[TransferSpec("src", "dst", 60, at_s=10.0)])

    res = runner.run(scn, seed=0, trace=True)
    assert helpers.records(res.engine, "transfer_failed") == []
    assert res.ns.counters["joins_accepted"] == 2
    (tr,) = res.document["transfers"]
    assert (tr["source"], tr["dest"]) == ("src", "dst")
    assert tr["complete"]
    assert tr["bytes_delivered"] == 60
    assert tr["chunks_relayed"] == 3


def test_a_joining_device_gets_an_address_no_prejoined_device_holds():
    # The server used to hand the joiner the pre-joined device's address:
    # both then shared one record, and the joiner's uplinks, whose FCnt
    # trailed pre's, were dropped as copies.
    pre = DeviceSpec("pre", (300.0, 0.0), dev_addr=0x0100_0001, period_s=30.0,
                     phase_s=5.0, dr=3, app_payload_bytes=20)
    joiner = DeviceSpec("joiner", (-300.0, 0.0), period_s=30.0, phase_s=1.0, dr=3,
                        prejoined=False)
    scn = Scenario("address-collision", 400.0, devices=[pre, joiner],
                   gateways=[GatewaySpec("gw0", (0.0, 0.0))])

    res = runner.run(scn, seed=0)
    assert res.devices["joiner"].dev_addr == 0x0100_0002
    assert sorted(rec.spec.eid for rec in res.ns.devices.values()) == ["joiner", "pre"]
    assert res.ns.counters["dedup_drops"] == 0
    devices = res.document["devices"]
    assert (devices["pre"]["uplinks_delivered"],
            devices["joiner"]["uplinks_delivered"]) == (14, 13)


def test_a_joining_device_cannot_be_given_an_address():
    # The server kept a's scenario address for a's join, but did not reserve
    # it before then: b joined first and got it too, and b's uplinks were
    # then dropped as copies of a's.
    a = DeviceSpec("a", (300.0, 0.0), dev_addr=0x0100_0001, period_s=30.0,
                   phase_s=20.0, dr=3, prejoined=False)
    b = DeviceSpec("b", (-300.0, 0.0), period_s=30.0, phase_s=1.0, dr=3,
                   prejoined=False)
    scn = Scenario("joiner-with-address", 400.0, devices=[a, b],
                   gateways=[GatewaySpec("gw0", (0.0, 0.0))])
    with pytest.raises(ScenarioError, match=r"devices\[0\]\.dev_addr"):
        runner.run(scn, seed=0)

    a.dev_addr = None
    res = runner.run(scn, seed=0)
    assert sorted(rec.spec.eid for rec in res.ns.devices.values()) == ["a", "b"]
    assert res.devices["a"].dev_addr != res.devices["b"].dev_addr
    assert res.ns.counters["dedup_drops"] == 0


def test_receive_window_already_open_when_the_uplink_arrives_is_skipped():
    # A backhaul of 2.5 s brings each uplink to the server after both of its
    # receive windows opened; the server used to place the downlink anyway and
    # crash the run with "transmission starts in the past".
    scn = dataclasses.replace(load_bundled(runner.CONVENTIONAL_SCENARIO), backhaul_delay_s=2.5)
    net = runner.run(scn, seed=0).document["network"]
    assert net["downlinks_scheduled"] == 0
    assert net["downlinks_deferred"] > 0
    joining = Scenario("late-join", 120.0, backhaul_delay_s=2.5,
                       devices=[DeviceSpec("dev", prejoined=False, period_s=60.0, dr=3)],
                       gateways=[GatewaySpec("gw0", (500.0, 0.0))])
    ns = runner.run(joining, seed=0).ns
    assert ns.counters["joins_accepted"] == 0
    assert ns.counters["joins_dropped"] > 0


def test_summarize_produces_one_flat_row():
    res = runner.run(load_bundled(runner.D2D_SCENARIO), seed=0)
    row = runner.summarize(res)
    assert row["scenario"] == "table2_d2d"
    assert row["seed"] == 0
    assert row["d2d_sessions_completed"] == 1
    assert row["d2d_sessions_total"] == 1
    assert row["d2d_plan_failures"] == 0
    assert row["uplinks_sent"] >= row["uplinks_delivered"] > 0
    assert row["duty_max_fraction_of_limit"] >= 0.0
    assert all(not isinstance(v, (dict, list)) for v in row.values())


def test_sweep_serial_and_parallel_agree():
    scn = load_bundled(runner.D2D_SCENARIO)
    seeds = [0, 1, 2]
    serial = runner.sweep(scn, seeds, jobs=1)
    parallel = runner.sweep(scn, seeds, jobs=2)
    assert serial == parallel
    assert [row["seed"] for row in serial] == seeds
    assert all(row["d2d_sessions_completed"] == 1 for row in serial)


def test_write_csv_round_trips_rows():
    rows = [
        {"scenario": "s", "seed": 0, "events": 12},
        {"scenario": "s", "seed": 1, "events": 15},
    ]
    buf = io.StringIO()
    runner.write_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "scenario,seed,events"
    assert lines[1:] == ["s,0,12", "s,1,15"]

    empty = io.StringIO()
    runner.write_csv([], empty)
    assert empty.getvalue() == ""


def test_table2_document_structure():
    doc = runner.table2(seed=0)
    assert set(doc["time_s"]) == {"conventional", "d2d"}
    assert set(doc["energy_j"]) == {"transmitter", "receiver", "initiator", "scanner"}
    for section in (doc["time_s"], doc["energy_j"]):
        for cell in section.values():
            assert set(cell) == {"simulated", "reference", "rel_err"}
            assert cell["rel_err"] == pytest.approx(
                cell["simulated"] / cell["reference"] - 1.0)
    assert set(doc["ratios"]) == {"time_conventional_over_d2d",
                                  "energy_transmitter_over_initiator",
                                  "energy_receiver_over_scanner"}
    # no profile supplied: the run self-calibrates and reports the fit quality
    assert "calibration_residuals" in doc
    for name, ref in runner.REFERENCE_TIME_S.items():
        assert doc["time_s"][name]["reference"] == ref


def test_table2_reads_each_bundled_scenario_once_per_process(monkeypatch):
    calls = []

    def counting_load(name):
        calls.append(name)
        return load_bundled(name)

    monkeypatch.setattr(runner, "load_bundled", counting_load)
    runner._table2_scenarios.cache_clear()
    try:
        for seed in (0, 1, 0):
            runner.table2(seed)
    finally:
        runner._table2_scenarios.cache_clear()
    assert sorted(calls) == sorted([runner.CONVENTIONAL_SCENARIO, runner.D2D_SCENARIO])


def test_table2_leaves_its_shared_scenarios_unchanged():
    # every table2 call runs the same two objects, so a run must not edit them
    runner.table2(0)
    runner.table2(1)
    for name, scn in runner._table2_scenarios():
        assert scn == load_bundled(name)


@pytest.mark.parametrize("seed", [0, 3])
def test_table2_is_the_same_with_a_cold_or_a_warm_cache(seed):
    runner._table2_scenarios.cache_clear()
    cold = runner.table2(seed)
    runner.table2(seed + 1)
    warm = runner.table2(seed)
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
