"""Result document shape, persistence, and content checks."""

import copy
import dataclasses
import json

import pytest

from lorad2d import metrics, runner
from lorad2d.metrics import METRICS_SCHEMA, MetricsError
from lorad2d.scenario import load_bundled


@pytest.fixture(scope="module")
def d2d_result():
    return runner.run(load_bundled(runner.D2D_SCENARIO), seed=0)


@pytest.fixture(scope="module")
def conventional_result():
    return runner.run(load_bundled(runner.CONVENTIONAL_SCENARIO), seed=0)


def test_run_document_passes_validation(d2d_result, conventional_result):
    for res in (d2d_result, conventional_result):
        doc = res.document
        assert metrics.validate(doc) is doc
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["scenario"] == res.scenario.name
        assert doc["seed"] == 0
        assert doc["end_time_s"] == res.scenario.end_time_s


def test_document_is_json_clean(d2d_result):
    doc = d2d_result.document
    assert json.loads(json.dumps(doc)) == doc


def test_save_load_round_trip(tmp_path, d2d_result):
    path = tmp_path / "out.json"
    metrics.save(d2d_result.document, path)
    loaded = metrics.load(path)
    assert loaded == json.loads(json.dumps(d2d_result.document))


def test_validate_rejects_non_document():
    with pytest.raises(MetricsError):
        metrics.validate(["not", "a", "dict"])


def test_validate_rejects_wrong_schema(d2d_result):
    doc = dict(d2d_result.document)
    doc["schema"] = "metrics/999"
    with pytest.raises(MetricsError, match="metrics/1"):
        metrics.validate(doc)


def test_validate_rejects_missing_section(d2d_result):
    doc = dict(d2d_result.document)
    del doc["devices"]
    with pytest.raises(MetricsError, match="devices"):
        metrics.validate(doc)


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "metrics/1"}))
    with pytest.raises(MetricsError):
        metrics.load(path)


def test_device_records_mirror_server_counters(conventional_result):
    res = conventional_result
    for eid, dev in res.devices.items():
        rec = res.document["devices"][eid]
        assert rec["uplinks_delivered"] == res.ns.by_eid[eid].uplinks
        assert rec["dev_addr"] == dev.dev_addr
        assert rec["fcnt_up"] == dev.fcnt_up
        energy = rec["energy"]
        assert energy["total_j"] > 0.0
        assert energy["tx_s"] >= 0.0 and energy["sleep_s"] > 0.0


def test_transfer_record_content(conventional_result):
    doc = conventional_result.document
    assert len(doc["transfers"]) == 1
    tr = doc["transfers"][0]
    assert tr["complete"] is True
    assert tr["bytes_delivered"] >= tr["total_bytes"]
    assert tr["bytes_relayed"] >= tr["total_bytes"]
    assert tr["first_tx_s"] is not None
    assert tr["last_delivery_s"] > tr["first_tx_s"]
    assert tr["total_transfer_time_s"] == pytest.approx(
        tr["last_delivery_s"] - tr["first_tx_s"])


def test_transfer_time_starts_at_the_first_relayed_uplink():
    # The transfer fires at 12.5 s, after the transmitter's first three
    # uplinks have reached the server, so the fourth carries the first chunk.
    scn = load_bundled(runner.CONVENTIONAL_SCENARIO)
    scn = dataclasses.replace(
        scn, transfers=[dataclasses.replace(scn.transfers[0], at_s=12.5)])
    res = runner.run(scn, trace=True)
    starts = [r["t_us"] for r in res.engine.trace_records
              if r["kind"] == "tx_start" and r["entity"] == "transmitter"]
    assert starts[2] < 12_500_000 < starts[3]
    tr = res.document["transfers"][0]
    assert tr["first_tx_s"] == starts[3] / 1e6
    assert tr["total_transfer_time_s"] == tr["last_delivery_s"] - tr["first_tx_s"]


def test_each_transfer_counts_only_its_own_deliveries():
    # A 100-byte second transfer on the Table 2 pair waits for the 2397-byte
    # first one: each uplink goes to the earliest open transfer from its
    # source, and the transmitter sends only what the first one needs.
    scn = load_bundled(runner.CONVENTIONAL_SCENARIO)
    second = dataclasses.replace(scn.transfers[0], total_bytes=100)
    doc = runner.run(dataclasses.replace(scn, transfers=[*scn.transfers, second])).document
    first, extra = doc["transfers"]
    assert (first["bytes_delivered"], first["complete"]) == (2397, True)
    assert (extra["bytes_delivered"], extra["complete"]) == (0, False)
    assert 2397 == doc["devices"]["receiver"]["app_bytes_received"]
    source = next(dev for dev in scn.devices if dev.eid == first["source"])
    sent = doc["devices"][source.eid]["uplinks_sent"] * source.app_payload_bytes
    assert first["bytes_relayed"] + extra["bytes_relayed"] <= sent


def test_d2d_session_record_content(d2d_result):
    doc = d2d_result.document
    assert len(doc["d2d_sessions"]) == 1
    rec = doc["d2d_sessions"][0]
    assert rec["error"] is None
    assert rec["completed"] is True
    assert rec["session_time_s"] > 0.0
    exchange = d2d_result.scenario.d2d_directives[0].exchange
    assert rec["bytes_exchanged"] == exchange.data_packets * exchange.data_payload_bytes

    init = rec["sessions"]["initiator"]
    scan = rec["sessions"]["scanner"]
    assert init["role"] == "initiator" and scan["role"] == "scanner"
    for side in (init, scan):
        assert side["established"] and side["completed"]
        assert side["state"] == "done"
        assert side["terminal_s"] > side["activation_s"]
        assert side["duration_s"] == pytest.approx(
            side["terminal_s"] - side["activation_s"])
    assert init["packets_acked"] == exchange.data_packets
    assert init["data_frames_sent"] == exchange.data_packets
    assert scan["ack_frames_sent"] == exchange.data_packets

    # the same sessions hang off the owning device records
    init_eid, scan_eid = init["device"], scan["device"]
    assert doc["devices"][init_eid]["sessions"][0]["role"] == "initiator"
    assert doc["devices"][scan_eid]["sessions"][0]["role"] == "scanner"


def test_session_and_device_energy_blocks_are_present(d2d_result):
    doc = d2d_result.document
    for half in doc["d2d_sessions"][0]["sessions"].values():
        assert half["energy"]["total_j"] > 0.0
        assert half["energy"]["commands"] > 0
    for rec in doc["devices"].values():
        assert rec["energy"]["total_j"] > 0.0
        for session in rec["sessions"]:
            assert session["energy"]["total_j"] > 0.0


def test_running_session_is_in_the_document():
    scn = copy.deepcopy(load_bundled(runner.D2D_SCENARIO))
    scn.end_time_s = 26.0
    doc = runner.run(scn, seed=0).document
    rec = doc["d2d_sessions"][0]
    assert rec["completed"] is False
    assert set(rec["sessions"]) == {"initiator", "scanner"}
    for half in rec["sessions"].values():
        assert half["state"] in ("scanning", "armed")
        assert half["completed"] is False
        assert half["terminal_s"] is None and half["duration_s"] is None
        assert "energy" not in half
        device = doc["devices"][half["device"]]
        assert device["mac_state"] == "d2d_suspended"
        assert device["sessions"] == [half]


def test_network_section_counters(d2d_result):
    net = d2d_result.document["network"]
    for key in ("collisions", "below_sensitivity", "d2d_frames_lost",
                "d2d_plan_failures", "events_executed"):
        assert key in net
    assert net["events_executed"] > 0
    assert net["d2d_plan_failures"] == 0


def test_gateway_records_include_duty_audit(conventional_result):
    gws = conventional_result.document["gateways"]
    assert gws
    for rec in gws.values():
        assert "duty" in rec and isinstance(rec["duty"], dict)
