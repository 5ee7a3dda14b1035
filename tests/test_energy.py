from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorad2d import runner
from lorad2d.energy import (DEFAULT_PROFILE, CalibrationError, EnergyLedger,
                            PowerProfile, StateUsage, fit_profile,
                            tx_power_scale, usage_between)


def test_tx_power_scale_anchored_at_14_dbm():
    assert tx_power_scale(14) == 1.0
    assert tx_power_scale(20) == pytest.approx(0.4 + 0.6 * 10 ** 0.6)
    assert tx_power_scale(2) == pytest.approx(0.4 + 0.6 * 10 ** -1.2)
    scales = [tx_power_scale(p) for p in range(2, 21)]
    assert scales == sorted(scales)


def test_profile_pricing_and_round_trip():
    profile = replace(DEFAULT_PROFILE, name="bench", p_tx14_w=0.12, p_rx_w=0.04)
    assert profile.p_tx_w(14) == pytest.approx(0.12)
    assert profile.p_tx_w(20) == pytest.approx(0.12 * tx_power_scale(20))
    assert PowerProfile(**profile.to_dict()) == profile


def test_state_usage_pricing():
    usage = StateUsage(tx_s_by_power={14: 2.0, 20: 1.0}, rx_s=3.0,
                       sleep_s=100.0, commands=4)
    profile = PowerProfile(name="unit", supply_v=3.0, p_tx14_w=0.12, p_rx_w=0.04,
                           p_sleep_w=3e-6, command_overhead_j=0.01)
    parts = usage.energy_j(profile)
    assert parts["tx_j"] == pytest.approx(0.12 * 2 + 0.12 * tx_power_scale(20))
    assert parts["rx_j"] == pytest.approx(0.12)
    assert parts["sleep_j"] == pytest.approx(3e-4)
    assert parts["commands_j"] == pytest.approx(0.04)
    assert parts["total_j"] == pytest.approx(sum(
        parts[k] for k in ("tx_j", "rx_j", "sleep_j", "commands_j")))
    assert usage.tx_s == pytest.approx(3.0)
    assert usage.tx_s + usage.rx_s + usage.sleep_s == pytest.approx(106.0)


# 2 s at tx +14 dBm from 1 s, 2 s of rx from 3 s, sleep otherwise until
# 10 s, and one command at 1.5 s
_STEPS = [(0, "sleep", None), (1_000_000, "tx", 14), (1_500_000, "command", None),
          (3_000_000, "rx", None), (5_000_000, "sleep", None),
          (10_000_000, "end", None)]


def make_ledger(mark_times=()):
    """The ledger of _STEPS, with a mark taken at each of `mark_times` while
    it is built (before any step at the same instant)."""
    ledger = EnergyLedger()
    marks = {}
    pending = sorted(mark_times)
    for t, step, power in _STEPS:
        while pending and pending[0] <= t:
            m = pending.pop(0)
            marks[m] = ledger.mark(m)
        if step == "command":
            ledger.command()
        elif step == "end":
            ledger.finalize(t)
        else:
            ledger.set_state(t, step, power)
    return ledger, marks


def integer_us(usage):
    """A usage's seconds per (state, power) back in integer microseconds."""
    out = Counter({("tx", p): round(s * 1e6) for p, s in usage.tx_s_by_power.items()})
    out.update({("rx", None): round(usage.rx_s * 1e6),
                ("sleep", None): round(usage.sleep_s * 1e6)})
    return +out     # drop zero entries


def test_ledger_accrues_two_seconds_of_tx():
    usage = make_ledger()[0].usage()
    assert usage.tx_s_by_power == {14: 2.0}
    assert usage.rx_s == 2.0
    assert usage.sleep_s == 6.0
    assert usage.commands == 1
    parts = usage.energy_j(DEFAULT_PROFILE)
    assert parts["tx_j"] == pytest.approx(0.24)
    assert parts["rx_j"] == pytest.approx(0.08)


def test_windowed_usage_clips_segments():
    _, marks = make_ledger([0, 2_000_000, 4_000_000])
    mid = usage_between(marks[2_000_000], marks[4_000_000])
    assert mid == StateUsage(tx_s_by_power={14: 1.0}, rx_s=1.0, sleep_s=0.0,
                             commands=0)
    head = usage_between(marks[0], marks[2_000_000])
    assert head == StateUsage(tx_s_by_power={14: 1.0}, sleep_s=1.0, commands=1)


def test_windowed_usage_is_additive():
    ledger, marks = make_ledger([0, 4_200_000, 10_000_000])
    whole = usage_between(marks[0], marks[10_000_000])
    assert whole == ledger.usage()
    left = usage_between(marks[0], marks[4_200_000])
    right = usage_between(marks[4_200_000], marks[10_000_000])
    assert integer_us(left) + integer_us(right) == integer_us(whole)
    assert left.commands + right.commands == whole.commands


def test_energy_grows_monotonically_with_the_window():
    grid = range(0, 10_000_001, 500_000)
    _, marks = make_ledger(grid)
    totals = [usage_between(marks[0], marks[t]).energy_j(DEFAULT_PROFILE)["total_j"]
              for t in grid]
    assert totals[0] == 0.0
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_ledger_validates_inputs():
    ledger = EnergyLedger()
    with pytest.raises(ValueError):
        ledger.set_state(0, "idle")
    ledger.set_state(1000, "tx", 14)
    with pytest.raises(ValueError):
        ledger.set_state(500, "rx")
    with pytest.raises(ValueError):
        ledger.mark(500)


def test_set_state_checks_hold_on_every_call():
    ledger = EnergyLedger()
    ledger.set_state(0, "sleep")
    ledger.set_state(2000, "tx", 14)
    for _ in range(2):
        with pytest.raises(ValueError, match="backwards"):
            ledger.set_state(1999, "sleep")
        with pytest.raises(ValueError, match="unknown radio state"):
            ledger.set_state(3000, "idle")
    # a rejected call changes nothing
    assert ledger.totals_us == {("sleep", None): 2000}
    ledger.set_state(2000, "rx")          # zero-length tx: adds no key
    ledger.set_state(2000, "sleep")       # zero-length rx: adds no key
    ledger.set_state(2500, "sleep")
    assert ledger.totals_us == {("sleep", None): 2500}


@given(durations=st.lists(st.integers(1, 10_000_000), min_size=1, max_size=30),
       tail=st.integers(0, 10_000_000))
def test_state_durations_sum_to_the_lifetime(durations, tail):
    states = [("tx", 14), ("rx", None), ("sleep", None)]
    ledger = EnergyLedger()
    t = 0
    for k, d in enumerate(durations):
        state, power = states[k % 3]
        ledger.set_state(t, state, power)
        t += d
    ledger.finalize(t + tail)
    usage = ledger.usage()
    assert round((usage.tx_s + usage.rx_s + usage.sleep_s) * 1e6) == t + tail


_STATES = st.sampled_from([("tx", 2), ("tx", 14), ("rx", None), ("sleep", None)])


@given(steps=st.lists(st.tuples(_STATES, st.integers(1, 10_000_000),
                                st.integers(0, 3)), min_size=1, max_size=30),
       data=st.data())
def test_mark_to_mark_usages_add_up_to_the_whole_run(steps, data):
    end = sum(d for _, d, _ in steps)
    pending = sorted(data.draw(st.lists(st.integers(0, end), max_size=10)))
    ledger = EnergyLedger()
    marks = [ledger.mark(0)]
    t = 0
    for (state, power), d, commands in steps:
        ledger.set_state(t, state, power)
        for _ in range(commands):
            ledger.command()
        t += d
        while pending and pending[0] <= t:
            marks.append(ledger.mark(pending.pop(0)))
    ledger.finalize(end)
    marks.append(ledger.mark(end))

    whole = ledger.usage()
    assert usage_between(marks[0], marks[-1]) == whole
    pieces = [usage_between(a, b) for a, b in zip(marks, marks[1:])]
    assert sum((integer_us(u) for u in pieces), Counter()) == integer_us(whole)
    assert sum(u.commands for u in pieces) == whole.commands


# -- profile fitting ---------------------------------------------------------


def test_fit_recovers_a_known_profile_exactly():
    true = replace(DEFAULT_PROFILE, p_tx14_w=0.11, p_rx_w=0.039, command_overhead_j=0.027)
    usages = {
        "t": StateUsage(tx_s_by_power={14: 130.0}, sleep_s=100.0),
        "r": StateUsage(rx_s=228.0, sleep_s=2.0, commands=2),
        "i": StateUsage(tx_s_by_power={14: 3.0}, rx_s=4.0, commands=25),
    }
    targets = {role: u.energy_j(true)["total_j"] for role, u in usages.items()}
    fitted, residuals = fit_profile(usages, targets)
    assert fitted.p_tx14_w == pytest.approx(0.11, rel=1e-9)
    assert fitted.p_rx_w == pytest.approx(0.039, rel=1e-9)
    assert fitted.command_overhead_j == pytest.approx(0.027, rel=1e-9)
    for role in usages:
        assert abs(residuals[role]["rel_err"]) < 1e-9


def test_fit_handles_mixed_tx_powers():
    true = replace(DEFAULT_PROFILE, p_tx14_w=0.2, p_rx_w=0.05, command_overhead_j=0.001)
    usages = {
        "a": StateUsage(tx_s_by_power={14: 5.0, 20: 5.0}),
        "b": StateUsage(rx_s=50.0, commands=1),
        "c": StateUsage(tx_s_by_power={2: 10.0}, rx_s=5.0, commands=40),
    }
    targets = {role: u.energy_j(true)["total_j"] for role, u in usages.items()}
    fitted, _ = fit_profile(usages, targets)
    assert fitted.p_tx14_w == pytest.approx(0.2, rel=1e-9)


def test_fit_rejects_bad_role_sets():
    u = StateUsage(tx_s_by_power={14: 1.0}, rx_s=1.0, commands=1)
    with pytest.raises(CalibrationError):
        fit_profile({"a": u, "b": u}, {"a": 1.0, "b": 1.0})
    with pytest.raises(CalibrationError):
        fit_profile({"a": u, "b": u, "c": u}, {"a": 1.0, "b": 1.0, "d": 1.0})


def test_fit_rejects_non_positive_targets():
    usages = {
        "a": StateUsage(tx_s_by_power={14: 1.0}),
        "b": StateUsage(rx_s=1.0),
        "c": StateUsage(tx_s_by_power={14: 1.0}, rx_s=1.0, commands=5),
    }
    with pytest.raises(CalibrationError):
        fit_profile(usages, {"a": 0.0, "b": 0.0, "c": 0.0})
    with pytest.raises(CalibrationError):
        fit_profile(usages, {"a": 1.0, "b": -0.5, "c": 1.0})


def test_fit_rejects_degenerate_systems():
    # nothing ever listens or issues commands: rx and command costs are
    # unobservable, the system cannot be solved for three parameters
    usages = {
        "a": StateUsage(tx_s_by_power={14: 1.0}),
        "b": StateUsage(tx_s_by_power={14: 2.0}),
        "c": StateUsage(tx_s_by_power={14: 3.0}),
    }
    with pytest.raises(CalibrationError):
        fit_profile(usages, {"a": 0.12, "b": 0.24, "c": 0.36})
    # 1e200 s on air overflows the solve, which used to return p_tx14_w NaN
    usages = {
        "a": StateUsage(tx_s_by_power={14: 1e200}, rx_s=10.0, commands=2, sleep_s=100.0),
        "b": StateUsage(tx_s_by_power={14: 2.0}, rx_s=1.0, commands=5, sleep_s=100.0),
        "c": StateUsage(tx_s_by_power={14: 0.5}, rx_s=3.0, commands=1, sleep_s=100.0),
    }
    with pytest.raises(CalibrationError, match="p_tx14_w"):
        fit_profile(usages, {"a": 1.0, "b": 1.0, "c": 1.0})


@pytest.mark.parametrize("tx_rx_commands", [
    # each row is (s on air at +14 dBm, rx_s, commands) for roles a, b, c;
    # the solve used to raise the error named beside it
    [(1.0, 1e308, 2), (2.0, 1.0, 5), (0.5, 3.0, 1)],             # ValueError: -inf + inf
    [(1e280, 1e18, 4), (1e-35, 1e197, 1), (1e-284, 1e-3, 0)],    # ZeroDivisionError
    [(1e65, 1e-168, 3), (1e118, 1e94, 0), (1e154, 1e92, 0)],     # OverflowError in fsum
], ids=["inf-minus-inf", "zero-pivot", "fsum-overflow"])
def test_fit_reports_float_failures_as_calibration_errors(tx_rx_commands):
    usages = {role: StateUsage(tx_s_by_power={14: tx}, rx_s=rx, commands=cmds, sleep_s=100.0)
              for role, (tx, rx, cmds) in zip("abc", tx_rx_commands)}
    with pytest.raises(CalibrationError, match="out of scale"):
        fit_profile(usages, {"a": 1.0, "b": 1.0, "c": 1.0})


def test_fit_matches_numpy_least_squares_on_table2():
    runs = {name: runner.run(runner.load_bundled(name), seed=0)
            for name in (runner.CONVENTIONAL_SCENARIO, runner.D2D_SCENARIO)}
    usages = runner.benchmark_usages(runs)
    targets = runner.REFERENCE_ENERGY_J
    fitted, _ = fit_profile(usages, targets)
    # the same weighted system, solved by numpy
    roles = sorted(usages)
    a = np.array([[sum(tx_power_scale(p) * s for p, s in usages[r].tx_s_by_power.items()),
                   usages[r].rx_s, usages[r].commands] for r in roles])
    b = np.array([targets[r] - DEFAULT_PROFILE.p_sleep_w * usages[r].sleep_s for r in roles])
    w = np.array([1.0 / targets[r] for r in roles])
    expected, _, rank, _ = np.linalg.lstsq(a * w[:, None], b * w, rcond=None)
    assert rank == 3
    got = [fitted.p_tx14_w, fitted.p_rx_w, fitted.command_overhead_j]
    assert got == pytest.approx(expected.tolist(), rel=1e-12, abs=0.0)


def test_fit_rejects_targets_needing_negative_power():
    usages = {
        "a": StateUsage(tx_s_by_power={14: 10.0}),
        "b": StateUsage(rx_s=10.0),
        "c": StateUsage(tx_s_by_power={14: 10.0}, rx_s=10.0, commands=100),
    }
    # roles a and b pin tx and rx; role c's target undercuts their sum, which
    # only a negative per-command energy could explain
    with pytest.raises(CalibrationError):
        fit_profile(usages, {"a": 1.0, "b": 0.4, "c": 1.0})
