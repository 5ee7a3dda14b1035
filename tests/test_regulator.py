import pytest
from hypothesis import given, strategies as st

from lorad2d import regulator
from lorad2d.regulator import (DEFAULT_BANDS, DutyCycleViolation, DutyLedger,
                               RegulatorError, SubBand, classify, off_time_us,
                               validate_bands)


def test_classify_default_plan():
    assert classify(868_100_000).ident == "g1"
    assert classify(868_100_000).duty_cycle_limit == 0.01
    assert classify(869_525_000).ident == "g3"
    assert classify(869_525_000).duty_cycle_limit == 0.10
    assert classify(869_525_000).max_erp_dbm == 27.0
    assert classify(865_000_000).ident == "g"
    assert classify(868_000_000).ident == "g1"    # half-open: g ends here
    assert classify(868_700_000).ident == "g2"


@pytest.mark.parametrize("freq", [864_000_000, 868_650_000, 869_300_000,
                                  869_650_000, 870_000_000])
def test_classify_rejects_uncovered_frequencies(freq):
    with pytest.raises(RegulatorError):
        classify(freq)


def test_off_time_examples():
    assert off_time_us(2_000_000, 0.01) == 198_000_000
    assert off_time_us(1_000_000, 0.10) == 9_000_000
    assert off_time_us(123_456, 1.0) == 0


def test_next_allowed_after_long_frame():
    ledger = DutyLedger(enforced=True)
    ledger.record_transmission(868_100_000, 8_000_000, 2_000_000)
    # frame ends at t=10 s in a 1 % band: silent for 99 * 2 s afterwards
    assert ledger.next_allowed_us(868_100_000, 10_000_000) == 208_000_000


def test_fresh_ledger_allows_immediate_start():
    ledger = DutyLedger(enforced=True)
    assert ledger.next_allowed_us(868_100_000, 12345) == 12345


def test_bands_account_independently():
    ledger = DutyLedger(enforced=True)
    ledger.record_transmission(868_100_000, 0, 1_000_000)
    assert ledger.next_allowed_us(868_100_000, 0) == 100_000_000
    assert ledger.next_allowed_us(869_525_000, 0) == 0
    assert ledger.next_allowed_us(865_100_000, 0) == 0


def test_early_transmission_raises_when_enforced():
    ledger = DutyLedger(enforced=True)
    ledger.record_transmission(868_100_000, 0, 1_000_000)
    with pytest.raises(DutyCycleViolation):
        ledger.record_transmission(868_100_000, 50_000_000, 1_000_000)


def test_unenforced_ledger_still_audits():
    ledger = DutyLedger(enforced=False)
    ledger.record_transmission(868_100_000, 0, 1_000_000)
    assert ledger.next_allowed_us(868_100_000, 5) == 5
    ledger.record_transmission(868_100_000, 2_000_000, 1_000_000)  # no raise
    audit = ledger.audit(10_000_000)
    assert audit["g1"]["frames"] == 2
    assert audit["g1"]["on_air_s"] == pytest.approx(2.0)


def test_audit_reports_zero_for_idle_bands():
    ledger = DutyLedger(enforced=True)
    audit = ledger.audit(1_000_000)
    for ident, row in audit.items():
        assert row["frames"] == 0
        assert row["fraction"] == 0.0
        assert row["limit"] == classify_limit(ident)


def classify_limit(ident):
    return {b.ident: b.duty_cycle_limit for b in DEFAULT_BANDS}[ident]


def test_audit_denominator_covers_committed_off_time():
    ledger = DutyLedger(enforced=True)
    ledger.record_transmission(868_100_000, 0, 1_000_000)
    # horizon shorter than the mandated silence: the window stretches so the
    # fraction lands exactly on the limit rather than above it
    audit = ledger.audit(2_000_000)
    assert audit["g1"]["fraction"] == pytest.approx(0.01)
    # a much longer horizon dilutes the same airtime
    audit = ledger.audit(1_000_000_000)
    assert audit["g1"]["fraction"] == pytest.approx(0.001)


@given(toa_us=st.integers(1, 10_000_000),
       limit=st.sampled_from([0.001, 0.01, 0.062, 0.10, 0.5, 1.0]))
def test_off_time_is_exact_complement(toa_us, limit):
    ledger = DutyLedger(bands=(SubBand("x", 100, 200, limit),), enforced=True)
    ledger.record_transmission(150, 1000, toa_us)
    gap = ledger.accounts["x"].next_allowed_us - (1000 + toa_us)
    assert gap == off_time_us(toa_us, limit)
    # ceil keeps the budget: airtime never exceeds limit * (toa + off)
    assert toa_us <= limit * (toa_us + gap) + limit


@given(toas=st.lists(st.integers(1_000, 3_000_000), min_size=1, max_size=40),
       limit=st.sampled_from([0.001, 0.01, 0.10]))
def test_back_to_back_sends_at_earliest_legal_start_stay_in_budget(toas, limit):
    band = SubBand("x", 100, 200, limit)
    ledger = DutyLedger(bands=(band,), enforced=True)
    now = 0
    for toa in toas:
        start = ledger.next_allowed_us(150, now)
        ledger.record_transmission(150, start, toa)
        now = start + toa
    fraction = ledger.audit(now)["x"]["fraction"]
    assert fraction <= limit * (1 + 1e-9)


def test_subband_validation():
    with pytest.raises(RegulatorError):
        SubBand("bad", 200, 100, 0.01)
    with pytest.raises(RegulatorError):
        SubBand("bad", 100, 200, 0.0)
    with pytest.raises(RegulatorError):
        SubBand("bad", 100, 200, 1.5)


def test_validate_bands_rejects_overlap():
    validate_bands(DEFAULT_BANDS)
    overlapping = (SubBand("a", 100, 200, 0.01), SubBand("b", 150, 300, 0.01))
    with pytest.raises(RegulatorError):
        validate_bands(overlapping)


def test_default_plan_is_consistent():
    validate_bands(DEFAULT_BANDS)
    idents = [b.ident for b in DEFAULT_BANDS]
    assert idents == ["g", "g1", "g2", "g3", "g4"]
    limits = {b.ident: b.duty_cycle_limit for b in DEFAULT_BANDS}
    assert limits == {"g": 0.01, "g1": 0.01, "g2": 0.001, "g3": 0.10, "g4": 0.01}


def test_channels_of_one_sub_band_share_one_off_time_budget():
    ledger = DutyLedger(enforced=True)
    ledger.record_transmission(868_100_000, 0, 1_000_000)
    # 868.3 MHz is in g1 as well: silenced by the 868.1 MHz frame
    assert ledger.next_allowed_us(868_300_000, 0) == 100_000_000
    with pytest.raises(DutyCycleViolation):
        ledger.record_transmission(868_300_000, 50_000_000, 1_000_000)
    ledger.record_transmission(868_300_000, 100_000_000, 1_000_000)
    assert ledger.next_allowed_us(868_100_000, 0) == 200_000_000
    audit = ledger.audit(300_000_000)["g1"]
    assert audit["frames"] == 2 and audit["on_air_s"] == 2.0
    assert list(ledger.accounts) == ["g1"]


@pytest.mark.parametrize("enforced", [True, False])
def test_uncovered_frequency_raises_on_every_call(enforced):
    ledger = DutyLedger(enforced=enforced)
    for _ in range(3):
        with pytest.raises(RegulatorError):
            ledger.record_transmission(869_300_000, 0, 1000)
        if enforced:
            with pytest.raises(RegulatorError):
                ledger.next_allowed_us(869_300_000, 0)
    assert ledger.accounts == {}
