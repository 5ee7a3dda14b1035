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
     "c1b1ccf0a5967cb0b3ee26c95e85f891ad88acd8c39a2cd66233b84840cff0f5"),
    ("table2_d2d", 0,
     "10e18980f278b033c787bffcc94c3e378ab12b4a57299b20271f5507da53ce2e",
     "1d69521c80f7a12fe1850ce74624f786472d999d78872e06c4ec97df0fcab3eb"),
    # 50 devices on one ring with no gateway: nothing is sent that an end
    # device can hear, so no frame is decoded or dropped
    ("duty-audit", 0,
     "0dc9c6834dff993fcf127ae5e07f8d35de4f6eb684c46f32299e1f855999d862",
     "90d22d5083774bfdb85582ec8af94835b3726e0b3dfe8c63389510faadf2a732"),
    ("duty-audit", 1,
     "4cbeb679657288d85bf3a85db83056121e1b130bbc1774cd36bc9e51d41d7622",
     "8acddc52521033e610d223333bf99ef61d84618ecd4ffe6f678556bef5c90d75"),
    ("duty-audit", 2,
     "17a0174f410c7c097b814f7482a93faac35dbe9091b963cb93b8b83d094dd0cf",
     "5eb140a921ca0ce643a23c30c0e1046640cb3e18d27185810826d899b2e33c6d"),
    ("duty-audit", 3,
     "a9a8c75a9fdf38b54426c6c7b18aada782c54a545ff479be87ad9ad1f14f3dbc",
     "f3e5e3083fd9316a0f84ebe4a2adb4e96b3eba789bea20c826d1c3893b9362f4"),
    ("duty-audit", 4,
     "a439fca4adc45fc11ce96e60cc175930379a4d5d9adc171f862cb3dd52611c8b",
     "447c2759de9654d6e3d3d1192e5d796bf29a229765bf19b78701d8b856313be2"),
    # 200 devices and one gateway for 30 min: the gateway decodes 114
    # uplinks and loses 1,247 to collisions; no end device hears an uplink
    ("contention-200", 0,
     "a4c49283e6b55ac24fe34edfad17236ed9477c42c2c3b148fe4f3ab36b5ed072",
     "2538e2f10b691b9a4a7ae0aaf4529f69f36740563f665efc0c887c3bbb20e602"),
    # table2_d2d losing 15% of D2D frames: seed 0 retries, re-acks and
    # completes; seed 2 ends in retry_budget_exhausted and session_timeout
    ("lossy-d2d", 0,
     "bc459c70d1745f0e841c47f663065b950115e84dd5aaa18e74812c81c82320e3",
     "8a39771c6b6bfd60588fac48767c89170111969e8227662ab3fdbf6e402d5851"),
    ("lossy-d2d", 2,
     "103b4519c5839a1f134773a2dada4c72a3bc0d496bb32c40c021625b386a0931",
     "000fbb0f5cb3fffdaa3cb3100bc6c3b5e8271b2774b5c820f20b3bf250ce33ba"),
    # 12 over-the-air joins (12 accepted, 5 dropped) beside a relayed
    # transfer through one gateway; end devices hear only its downlinks
    ("join-cell", 0,
     "8fb518febfa375d3c5eae4ce1844d4a54ddf8b634f4fa4ba21e5a968892d4081",
     "a1999da7cd2604e66bcc4daae4790f34b551f5afe79a7563ca84c31c66af616f"),
    # table2_d2d plus a swapped-role directive of 3 packets, over 60 s: the
    # first session acks 10 packets on both halves, the second 3
    ("two-directives", 0,
     "948d63bd47870cc955b992f707e2f0041652415936b90e6e8f82265255889258",
     "5ea6401b8ac0485174a22fe2817e9aeb6218a1f2893ce2c9b6d7cc85b3890bed"),
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
