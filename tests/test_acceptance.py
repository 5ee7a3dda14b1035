"""Acceptance gate: the headline claims this package makes, each pinned to a
tolerance and checked end to end.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured numbers.
"""

import copy
import dataclasses
import itertools
import random
import time

import pytest

import helpers
import oracles
import test_codec
from oracles import exchange_phase_duration_s
from lorad2d import phy, runner
from lorad2d.d2d import decode_setup, encode_setup
from lorad2d.scenario import bundled_names, load_bundled, make_duty_audit

TIME_REF_S = {"conventional": 225.6, "d2d": 30.2}
ENERGY_REF_J = {"transmitter": 15.696, "receiver": 9.120,
                "initiator": 0.817, "scanner": 1.494}
ENERGY_TOL = {"transmitter": 0.02, "receiver": 0.05,
              "initiator": 0.05, "scanner": 0.10}


def _report(n: int, text: str) -> None:
    print(f"\ncriterion {n:2d} PASS: {text}")


@pytest.fixture(scope="module")
def table2_doc():
    return runner.table2(seed=0)


def test_criterion_01_conventional_transfer_time():
    scn = load_bundled("table2_conventional")
    t0 = time.perf_counter()
    res = runner.run(scn, seed=0)
    wall = time.perf_counter() - t0

    transfer = res.document["transfers"][0]
    assert transfer["complete"]
    sim = transfer["total_transfer_time_s"]
    period = scn.devices[0].period_s
    assert abs(sim - TIME_REF_S["conventional"]) <= period
    assert wall < 1.0
    _report(1, f"conventional transfer {sim:.6f} s "
               f"(reference {TIME_REF_S['conventional']} +/- {period}), "
               f"wall {wall:.2f} s")


def test_criterion_02_d2d_session_time_and_exchange_phase():
    scn = load_bundled("table2_d2d")
    res = runner.run(scn, seed=0)
    rec = res.document["d2d_sessions"][0]
    assert rec["completed"]
    sim = rec["session_time_s"]
    assert abs(sim - TIME_REF_S["d2d"]) <= 0.15 * TIME_REF_S["d2d"]

    directive = scn.d2d_directives[0]
    session = res.devices["initiator"].session_history[0]
    measured_us = session.terminal_us - session.first_data_tx_us
    nominal_us = round(exchange_phase_duration_s(directive.exchange,
                                                 directive.dr) * 1e6)
    assert abs(measured_us - nominal_us) <= 1
    _report(2, f"session {sim:.6f} s (reference {TIME_REF_S['d2d']} +/- 15%), "
               f"exchange phase {measured_us} us vs nominal {nominal_us} us")


def test_criterion_03_calibrated_role_energies(table2_doc):
    parts = []
    for role, tol in ENERGY_TOL.items():
        cell = table2_doc["energy_j"][role]
        assert cell["reference"] == ENERGY_REF_J[role]
        assert abs(cell["rel_err"]) <= tol, (role, cell)
        parts.append(f"{role} {cell['simulated']:.3f} J ({cell['rel_err']:+.2%}, "
                     f"tol {tol:.0%})")
    _report(3, "; ".join(parts))


def test_criterion_04_comparison_ratios(table2_doc):
    ratios = table2_doc["ratios"]
    t = ratios["time_conventional_over_d2d"]["simulated"]
    e_tx = ratios["energy_transmitter_over_initiator"]["simulated"]
    e_rx = ratios["energy_receiver_over_scanner"]["simulated"]
    assert t >= 7.0
    assert 6.0 <= e_tx <= 20.0
    assert 6.0 <= e_rx <= 20.0
    _report(4, f"time ratio {t:.2f} (>= 7); energy ratios {e_tx:.2f} and "
               f"{e_rx:.2f} (within [6, 20])")


def test_criterion_05_duty_cycle_audit():
    scn = make_duty_audit()
    assert len(scn.devices) == 50 and scn.end_time_s == 86400.0

    t0 = time.perf_counter()
    timed = runner.run(scn, seed=0)
    wall = time.perf_counter() - t0
    assert wall < 30.0

    rows = [runner.summarize(timed)]
    rows += runner.sweep(scn, range(1, 100), jobs=1)
    assert len(rows) == 100
    worst = max(row["duty_max_fraction_of_limit"] for row in rows)
    assert all(row["duty_frames"] > 0 for row in rows)
    assert worst <= 1.0 + 1e-9
    _report(5, f"100 seeds x 50 devices x 24 h: worst per-band usage "
               f"{worst:.6f} of the limit, seed-0 wall {wall:.2f} s")


def _against_reference(listening_dr, window, txs, positions):
    got = helpers.hear(txs, positions, freq_hz=868_100_000, dr=listening_dr,
                       window_us=window)
    frames = [(tx.source, tx.start_us, tx.end_us, tx.freq_hz,
               oracles.LORA_RATES[tx.dr], tx.tx_power_dbm,
               positions[tx.source]) for tx in txs]
    want = oracles.arbitrate_reference(
        (0.0, 0.0), 868_100_000, oracles.LORA_RATES[listening_dr],
        window, frames, sens_dbm=phy.DEFAULT_SENSITIVITY_DBM[listening_dr])
    return got, want


def test_criterion_06_arbitration_matches_reference():
    freq = 868_100_000
    positions = {"a": (300.0, 0.0), "b": (700.0, 0.0), "c": (1500.0, 0.0)}
    checked = mismatches = 0

    # structured sweep: every start ordering of three frames, at three overlap
    # spacings, across every power assignment from a 4-level grid
    for order in itertools.permutations("abc"):
        for gap_us in (0, 150_000, 500_000):
            for powers in itertools.product((2, 8, 14, 20), repeat=3):
                txs = [phy.Transmission(start_us=i * gap_us, duration_us=400_000,
                                        freq_hz=freq, dr=0, tx_power_dbm=powers[i],
                                        phy_payload_bytes=20, source=src)
                       for i, src in enumerate(order)]
                got, want = _against_reference(0, (0, 10_000_000), txs, positions)
                checked += 1
                mismatches += got != want
    structured = checked

    rng = random.Random(20260814)
    for _ in range(10_000):
        listening_dr = rng.randint(0, 6)
        n = rng.randint(1, 3)
        pos = {}
        txs = []
        for i in range(n):
            src = "xyz"[i]
            pos[src] = (rng.uniform(30.0, 150_000.0), 0.0)
            dr = (rng.choice((5, 6)) if listening_dr in (5, 6) else listening_dr)
            txs.append(phy.Transmission(
                start_us=rng.randrange(0, 2_000_000),
                duration_us=rng.randrange(1_000, 800_000),
                freq_hz=rng.choice((freq, freq, freq, 868_300_000)),
                dr=dr, tx_power_dbm=rng.choice((2, 5, 8, 11, 14, 17, 20)),
                phy_payload_bytes=20, source=src))
        w0 = rng.randrange(0, 1_500_000)
        window = (w0, w0 + rng.randrange(1, 1_500_000))
        got, want = _against_reference(listening_dr, window, txs, pos)
        checked += 1
        mismatches += got != want

    assert mismatches == 0
    _report(6, f"{structured} structured + {checked - structured} randomized "
               f"arbitrations, {mismatches} mismatches")


def test_criterion_07_airtime_grid_is_exact():
    cases = 0
    for dr in range(7):
        for payload in range(256):
            assert phy.time_on_air(dr, payload) == oracles.time_on_air_s(dr, payload)
            cases += 1
    assert cases == 7 * 256
    _report(7, f"{cases} airtime values identical to the reference calculator")


def test_criterion_08_repeated_runs_are_byte_identical():
    counts = {}
    for name in bundled_names():
        traces = {runner.run(load_bundled(name), seed=0, trace=True).trace_jsonl()
                  for _ in range(10)}
        assert len(traces) == 1, name
        counts[name] = 10
    _report(8, "; ".join(f"{name}: {n}/{n} traces identical"
                         for name, n in counts.items()))


def test_criterion_09_setup_command_golden_vectors():
    for cmd, hex_image in test_codec.GOLDEN_VECTORS:
        assert encode_setup(cmd).hex() == hex_image
        assert decode_setup(bytes.fromhex(hex_image)) == cmd
    _report(9, f"{len(test_codec.GOLDEN_VECTORS)} wire images encode and "
               f"decode exactly")


def _completion_probe(loss_prob: float, seeds: int) -> tuple[int, int]:
    scn = copy.deepcopy(load_bundled("table2_d2d"))
    scn.end_time_s = 60.0
    scn.d2d_directives[0].t2_s = 120.0
    scn.radio = dataclasses.replace(scn.radio, d2d_frame_loss_prob=loss_prob)
    established = completed = 0
    for seed in range(seeds):
        res = runner.run(scn, seed=seed)
        session = res.devices["initiator"].session_history[0]
        established += session.established
        completed += session.completed
    return established, completed


def test_criterion_10_completion_statistics_match_model():
    seeds = 1000
    established, completed = _completion_probe(0.0, seeds)
    assert established == completed == seeds

    exchange = load_bundled("table2_d2d").d2d_directives[0].exchange
    p_model = oracles.session_completion_probability(
        0.1, exchange.data_packets, exchange.retry_limit)
    assert p_model == pytest.approx(0.9266366709644288, abs=1e-12)

    _, lossy_completed = _completion_probe(0.1, seeds)
    rate = lossy_completed / seeds
    stderr = (p_model * (1.0 - p_model) / seeds) ** 0.5
    assert abs(rate - p_model) <= 2.0 * stderr
    _report(10, f"ideal channel {completed}/{seeds} complete; at 10% frame "
                f"loss {rate:.4f} vs model {p_model:.4f} "
                f"(band +/- {2 * stderr:.4f})")
