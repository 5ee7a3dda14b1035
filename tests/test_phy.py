import math

import pytest
from hypothesis import given, strategies as st

import oracles
from lorad2d import phy


EXPECTED_RATE_TABLE = {
    # dr: (modulation, sf, bandwidth, nominal bit rate, max MAC payload)
    0: ("lora", 12, 125_000, 250, 59),
    1: ("lora", 11, 125_000, 440, 59),
    2: ("lora", 10, 125_000, 980, 59),
    3: ("lora", 9, 125_000, 1_760, 123),
    4: ("lora", 8, 125_000, 3_125, 230),
    5: ("lora", 7, 125_000, 5_470, 230),
    6: ("lora", 7, 250_000, 11_000, 230),
    7: ("gfsk", None, None, 50_000, 230),
}


def test_data_rate_table():
    assert len(phy.DATA_RATES) == 8
    for dr, (mod, sf, bw, rate, max_mac) in EXPECTED_RATE_TABLE.items():
        desc = phy.data_rate(dr)
        assert desc.index == dr
        assert desc.modulation == mod
        assert desc.sf == sf
        assert desc.bandwidth_hz == bw
        assert desc.nominal_bit_rate_bps == rate
        assert desc.max_mac_payload_bytes == max_mac
        assert desc.max_app_payload_bytes == max_mac - phy.MAC_HEADER_BYTES


@pytest.mark.parametrize("index", [-1, 8, 100])
def test_data_rate_out_of_range(index):
    with pytest.raises(phy.PhyError):
        phy.data_rate(index)


TOA_ANCHORS_US = [
    # (dr, phy payload bytes, expected microseconds)
    (0, 64, 2_793_472),
    (0, 25, 1_482_752),
    (0, 27, 1_646_592),
    (3, 64, 390_144),
    (6, 253, 197_248),
    (6, 23, 30_848),
]


@pytest.mark.parametrize("dr,payload,expected_us", TOA_ANCHORS_US)
def test_time_on_air_anchors(dr, payload, expected_us):
    assert phy.time_on_air_us(dr, payload) == expected_us


@pytest.mark.parametrize("dr", range(7))
@pytest.mark.parametrize("payload", [0, 1, 13, 51, 64, 123, 230, 255])
def test_time_on_air_matches_symbol_counting(dr, payload):
    assert phy.time_on_air(dr, payload) == oracles.time_on_air_s(dr, payload)


def test_minimum_frame_is_preamble_plus_eight_symbols():
    # at SF11/SF12 a zero-byte payload fits in the first symbol block
    for dr in (0, 1):
        assert phy.time_on_air(dr, 0) == (12.25 + 8) * phy.symbol_time(dr)
    # at SF7 the leftover bits need one coded block on top
    assert phy.time_on_air(5, 0) == (12.25 + 13) * phy.symbol_time(5)


def test_airtime_drops_at_every_faster_rate():
    frame = 51 + phy.FRAME_OVERHEAD_BYTES
    for dr in range(5):
        assert phy.time_on_air(dr, frame) > phy.time_on_air(dr + 1, frame)
    assert phy.time_on_air(6, frame) < phy.time_on_air(5, frame)


@given(dr=st.integers(0, 6), payload=st.integers(0, 254))
def test_airtime_never_decreases_with_payload(dr, payload):
    assert phy.time_on_air(dr, payload + 1) >= phy.time_on_air(dr, payload)


@given(payload=st.integers(0, 255))
def test_gfsk_airtime_formula(payload):
    assert phy.time_on_air(7, payload) == (8 * payload + 40) / 50_000


def test_time_on_air_validation():
    with pytest.raises(phy.PhyError):
        phy.time_on_air(0, 256)
    with pytest.raises(phy.PhyError):
        phy.time_on_air(0, -1)
    with pytest.raises(phy.PhyError):
        phy.time_on_air(8, 10)
    with pytest.raises(phy.PhyError):
        phy.symbol_time(7)


def test_sensitivity_defaults():
    floors = phy.RadioModel().sensitivity_dbm
    assert len(floors) == len(phy.DATA_RATES)
    assert floors[0] == -137.0
    assert floors[7] == -110.0
    assert list(floors) == sorted(floors)   # slower rates reach deeper


def test_path_loss_model():
    model = phy.RadioModel()
    assert model.path_loss_db(1000.0) == pytest.approx(127.5)
    assert model.path_loss_db(2000.0) == pytest.approx(127.5 + 29.0 * math.log10(2))
    assert model.path_loss_db(10.0) < model.path_loss_db(100.0)
    with pytest.raises(phy.PhyError):
        model.path_loss_db(0.0)
    with pytest.raises(phy.PhyError):
        model.path_loss_db(-5.0)


def test_radio_model_names_the_setting_out_of_range():
    for field, bad in (("d0_m", 0.0), ("d0_m", -1.0), ("d2d_frame_loss_prob", -0.1),
                       ("d2d_frame_loss_prob", 1.01)):
        with pytest.raises(phy.PhyError) as err:
            phy.RadioModel(**{field: bad})
        assert err.value.field == field
        assert str(err.value).startswith(f"{field}: ")


def test_tx_power_limits():
    assert phy.check_tx_power(2) == 2
    assert phy.check_tx_power(20) == 20
    for bad in (1, 21, -3):
        with pytest.raises(phy.PhyError):
            phy.check_tx_power(bad)


def test_transmission_validation_and_overlap():
    tx = phy.Transmission(start_us=1000, duration_us=500, freq_hz=868_100_000,
                          dr=0, tx_power_dbm=14, phy_payload_bytes=20, source="a")
    assert tx.end_us == 1500
    assert tx.overlaps(0, 1001)
    assert tx.overlaps(1499, 5000)
    assert not tx.overlaps(0, 1000)       # half-open: touching is not overlap
    assert not tx.overlaps(1500, 2000)
    with pytest.raises(phy.PhyError):
        phy.Transmission(start_us=0, duration_us=0, freq_hz=868_100_000,
                         dr=0, tx_power_dbm=14, phy_payload_bytes=1, source="a")
    with pytest.raises(phy.PhyError):
        phy.Transmission(start_us=0, duration_us=10, freq_hz=868_100_000,
                         dr=0, tx_power_dbm=25, phy_payload_bytes=1, source="a")


def test_transmission_stores_its_end_in_a_slot():
    tx = phy.Transmission(start_us=1000, duration_us=500, freq_hz=868_100_000,
                          dr=0, tx_power_dbm=14, phy_payload_bytes=20, source="a")
    assert tx.end_us == tx.start_us + tx.duration_us == 1500
    assert not hasattr(tx, "__dict__")
    assert (tx.kind, tx.frame) == ("uplink", None)
