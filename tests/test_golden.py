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
    ("duty-audit", 0,
     "d01e9b5a2c7c685f4c586da43360ff4c5f8b74bb6ad77fcd4381eeef990fc5c5",
     "badd7277512b7b5ef7d885c2f2ac6c2e5027807ff972f1f658ef702944b2a6f3"),
    ("duty-audit", 1,
     "49d580029b22f66a0d8766ebb91c3974f1563827432e7ad7b361259da21283ef",
     "d3d8ee0500759bb205b6d71a64ad364226a36411b3495996177fd0ec4100f85f"),
    ("duty-audit", 2,
     "3aae554dd3c660db1a1addebd306862538d4ef34bca8e2d71da7feed3d568586",
     "7e7a87f96b81190278fac41bb348b58bd6229a1f1b012d3c98efb127b45a3cbf"),
    ("duty-audit", 3,
     "5efff3c67ecd07795a6a1856fa1d493316cdb2a14a5683bc19908da4a7a85f73",
     "35480fc2428a19a9df400e2da2c06c7648376c3ac44d0087a8bc46bb85e30569"),
    ("duty-audit", 4,
     "6977ea7cbb68c7376c75fa1d296d2eb3eeb4bf73f66a631f1ff1150e3d7984c9",
     "e39340216c58e99bb04fb528f3791af805202b9072fd8974ee5154ea62ffee84"),
    # 200 devices and one gateway for 30 min: 3,567 collisions, at end
    # devices and at the gateway
    ("contention-200", 0,
     "3f3c0154a02b7c704ab26426fef8bd8d682845610c6f647a31326ebaa667dcef",
     "45b0c06e90641530d97e6559b5505f6cd9db6c25a58c68098b3954c6d9b3f99c"),
    # table2_d2d losing 15% of D2D frames: seed 0 retries, re-acks and
    # completes; seed 2 ends in retry_budget_exhausted and session_timeout
    ("lossy-d2d", 0,
     "bc459c70d1745f0e841c47f663065b950115e84dd5aaa18e74812c81c82320e3",
     "8a39771c6b6bfd60588fac48767c89170111969e8227662ab3fdbf6e402d5851"),
    ("lossy-d2d", 2,
     "103b4519c5839a1f134773a2dada4c72a3bc0d496bb32c40c021625b386a0931",
     "000fbb0f5cb3fffdaa3cb3100bc6c3b5e8271b2774b5c820f20b3bf250ce33ba"),
    # 12 over-the-air joins (12 accepted, 5 dropped) beside a relayed
    # transfer through one gateway
    ("join-cell", 0,
     "dc903e46965e23374f8240d51865b9aa06777a078a4ac3a3af2cb72b2eafb92e",
     "debe5ad12a138acf2fe009f65b30b11d7ab407c629dfbecf45dbd3505ac4975d"),
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
