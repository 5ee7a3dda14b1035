"""Golden sha256 digests of the trace and the metrics document.

These pin behaviour byte for byte across refactors.  A change that alters
them on purpose updates the digest here and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import pytest

import helpers
from lorad2d import runner
from lorad2d.scenario import (DeviceSpec, GatewaySpec, Scenario, TransferSpec,
                              load_bundled, make_duty_audit)

GOLDEN = [
    ("table2_conventional", 0,
     "e51c52e0c95da59234d526ffcae8b5154b6ce89c2c077d4bdc1e15e1c6398785",
     "d778172208be2070157dbc748ad76b9c31f23c133168a3bded17a85958cc29e7"),
    ("table2_d2d", 0,
     "10e18980f278b033c787bffcc94c3e378ab12b4a57299b20271f5507da53ce2e",
     "fd1cf7498fcaf9b9310df7b571c8c29a2275737bd97fe330693b35630a2daefd"),
    # 50 devices on one ring with no gateway: nothing is sent that an end
    # device can hear, so no frame is decoded or dropped
    ("duty-audit", 0,
     "0dc9c6834dff993fcf127ae5e07f8d35de4f6eb684c46f32299e1f855999d862",
     "2c17ca8c6e49b492284fa2827601d30becec5a42c9e7ee3cdbf50dddeeaa5b8d"),
    ("duty-audit", 1,
     "4cbeb679657288d85bf3a85db83056121e1b130bbc1774cd36bc9e51d41d7622",
     "a4295f089154f3e264a377fe850b325b4491d431a000d27e7a8b47394f0e7e40"),
    ("duty-audit", 2,
     "17a0174f410c7c097b814f7482a93faac35dbe9091b963cb93b8b83d094dd0cf",
     "fab1610f1fa71a10af1283ba0792f22b613bca757d8573bb28680abffe9a4aaa"),
    ("duty-audit", 3,
     "a9a8c75a9fdf38b54426c6c7b18aada782c54a545ff479be87ad9ad1f14f3dbc",
     "d08cc3a7d91b4deeec985a9d26e89605c61ccd8261a9f207eaeaa8257266f76e"),
    ("duty-audit", 4,
     "a439fca4adc45fc11ce96e60cc175930379a4d5d9adc171f862cb3dd52611c8b",
     "60c131d96ea50d84e26d4fec31d72ec2140df653cd5a86c9a2cd74ae754968f7"),
    # 200 devices and one gateway for 30 min: the gateway decodes 114
    # uplinks and loses 1,247 to collisions; no end device hears an uplink
    ("contention-200", 0,
     "a4c49283e6b55ac24fe34edfad17236ed9477c42c2c3b148fe4f3ab36b5ed072",
     "a3d5715319a3a4fc228eebf43b297396390f0f710a6ed3e02f208bdbf74c2fab"),
    # table2_d2d losing 15% of D2D frames: seed 0 retries, re-acks and
    # completes; seed 2 ends in retry_budget_exhausted and session_timeout
    ("lossy-d2d", 0,
     "bc459c70d1745f0e841c47f663065b950115e84dd5aaa18e74812c81c82320e3",
     "1944df8e3f1e5e64cb902ac858f4877a2340caf694899f22107e95e247f0737f"),
    ("lossy-d2d", 2,
     "103b4519c5839a1f134773a2dada4c72a3bc0d496bb32c40c021625b386a0931",
     "6fa3d4eb9650d9945b9a08a21a316342c375c00a9171a1c53cf7a156a3ef4c7c"),
    # 12 over-the-air joins (12 accepted, 5 dropped) beside a relayed
    # transfer through one gateway; end devices hear only its downlinks
    ("join-cell", 0,
     "8fb518febfa375d3c5eae4ce1844d4a54ddf8b634f4fa4ba21e5a968892d4081",
     "73a5936c0bd09fcf3c9206937c6315e7539a009c5c1668a70ad7b7be5cff6601"),
    # table2_d2d plus a swapped-role directive of 3 packets, over 60 s: the
    # first session acks 10 packets on both halves, the second 3
    ("two-directives", 0,
     "948d63bd47870cc955b992f707e2f0041652415936b90e6e8f82265255889258",
     "4844c20f2207c645d225d0ab00869c2fbc7719345d883dda1f992e720009f038"),
]


def _lossy_d2d():
    scn = load_bundled("table2_d2d")
    return dataclasses.replace(
        scn, end_time_s=60.0,
        radio=dataclasses.replace(scn.radio, d2d_frame_loss_prob=0.15))


def _join_cell():
    nodes = [DeviceSpec(f"n{i:02d}", (300.0 * i, 150.0), dr=3,
                        app_payload_bytes=20, period_s=40.0, phase_s=3.0 * i,
                        jitter_frac=0.05, prejoined=False)
             for i in range(12)]
    src = DeviceSpec("src", (500.0, 0.0), dev_addr=0x0300_0001, period_s=20.0,
                     phase_s=1.0, dr=3, app_payload_bytes=100)
    dst = DeviceSpec("dst", (-500.0, 0.0), dev_addr=0x0300_0002, period_s=20.0,
                     phase_s=2.0, dr=3, app_payload_bytes=12)
    return Scenario("join-cell", 900.0, join_success_prob=0.7,
                    devices=[*nodes, src, dst],
                    gateways=[GatewaySpec("gw0", (0.0, 0.0))],
                    transfers=[TransferSpec("src", "dst", 1500, at_s=5.0)])


def _scenario(name):
    if name == "duty-audit":
        return make_duty_audit()
    if name == "contention-200":
        return dataclasses.replace(make_duty_audit(200, 1800.0),
                                   gateways=[GatewaySpec("gw0", (0.0, 0.0))])
    if name == "lossy-d2d":
        return _lossy_d2d()
    if name == "join-cell":
        return _join_cell()
    if name == "two-directives":
        return helpers.two_directives()
    return load_bundled(name)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,seed,trace_digest,doc_digest", GOLDEN,
                         ids=[f"{name}-seed{seed}" for name, seed, *_ in GOLDEN])
def test_trace_and_metrics_digests(name, seed, trace_digest, doc_digest):
    scn = _scenario(name)
    result = runner.run(scn, seed=seed, trace=True)
    assert _sha256(result.trace_jsonl()) == trace_digest
    assert _sha256(json.dumps(result.document, sort_keys=True)) == doc_digest


def test_table2_document_digest():
    # the calibration sums with math.fsum, which rounds once, so the fitted
    # profile's last digits do not depend on how a Python version's
    # built-in sum() adds floats
    assert (_sha256(json.dumps(runner.table2(0), sort_keys=True))
            == "d05a1472bf63813518b8e811a99e3ffee15d4a8940edea27b5c4c2d2b20f5394")


@pytest.mark.parametrize("name", ["table2_conventional", "table2_d2d", "duty-audit",
                                  "join-cell"])
def test_tracing_does_not_change_the_metrics_document(name):
    # the goldens run traced and the benchmark untraced, so this is what
    # shows that skipping the trace calls skips no other work
    untraced, traced = (runner.run(_scenario(name), seed=0, trace=trace)
                        for trace in (False, True))
    assert untraced.engine.trace_records == [] and traced.engine.trace_records
    assert (json.dumps(untraced.document, sort_keys=True)
            == json.dumps(traced.document, sort_keys=True))
    assert untraced.engine.events_executed == traced.engine.events_executed


@pytest.mark.parametrize("name,heard_from", [("contention-200", set()),
                                             ("join-cell", {"gw0"})])
def test_end_devices_hear_only_gateways(name, heard_from):
    # uplinks use normal IQ and receive windows listen for inverted IQ, so
    # every frame an end device decodes or drops is a gateway's downlink;
    # contention-200 sends no downlink at all
    scn = _scenario(name)
    result = runner.run(scn, seed=0, trace=True)
    gateways = {gw.eid for gw in scn.gateways}
    sources = {r["source"] for r in result.engine.trace_records
               if r["kind"] in ("decode", "drop") and r["entity"] not in gateways}
    assert sources == heard_from


@pytest.mark.parametrize("name", ["join-cell", "table2_conventional"])
def test_gateways_transmit_only_into_open_windows(name):
    # the server places each downlink and join-accept by the same receive
    # window rule the device opens its windows by, so every gateway
    # transmission starts at a window open on its channel and rate
    scn = _scenario(name)
    result = runner.run(scn, seed=0, trace=True)
    gateways = {gw.eid for gw in scn.gateways}
    records = result.engine.trace_records
    opens = {(r["t_us"], r["freq_hz"], r["dr"])
             for r in records if r["kind"] == "rx_open"}
    sent = [(r["t_us"], r["freq_hz"], r["dr"])
            for r in records if r["kind"] == "tx_start" and r["entity"] in gateways]
    assert sent
    assert [tx for tx in sent if tx not in opens] == []
