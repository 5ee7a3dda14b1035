import struct

import pytest
from hypothesis import given, strategies as st

from lorad2d import d2d, phy
from lorad2d.d2d import (D2DCodecError, D2DSetupCommand, Role, decode_setup,
                         encode_setup)


# Known-good wire images, assembled by hand from the layout:
# byte 0 = version << 4 | role << 3, bytes 1-3 = frequency / 100 Hz,
# byte 4 = DR, byte 5 = power, bytes 6-7 / 8-9 = T1 / T2 in deciseconds,
# bytes 10-13 = peer address; all fields big-endian.
GOLDEN_VECTORS = [
    (D2DSetupCommand(Role.INITIATOR, 865_000_000, 6, 14, 15.0, 30.0, 0x0100_0001),
     "1083fd10060e0096012c01000001"),
    (D2DSetupCommand(Role.SCANNER, 865_000_000, 6, 14, 0.0, 30.0, 0x0100_0002),
     "1883fd10060e0000012c01000002"),
    (D2DSetupCommand(Role.SCANNER, 868_300_000, 3, 2, 1.5, 600.0, 0xDEADBEEF),
     "18847df80302000f1770deadbeef"),
]


@pytest.mark.parametrize("cmd,hex_image", GOLDEN_VECTORS)
def test_encode_golden_vectors(cmd, hex_image):
    wire = encode_setup(cmd)
    assert len(wire) == d2d.SETUP_WIRE_BYTES == 14
    assert wire.hex() == hex_image


@pytest.mark.parametrize("cmd,hex_image", GOLDEN_VECTORS)
def test_decode_golden_vectors(cmd, hex_image):
    decoded = decode_setup(bytes.fromhex(hex_image))
    assert decoded == cmd


command_grid = st.builds(
    lambda role, units, dr, power, t1_ds, dt_ds, peer: D2DSetupCommand(
        role=role, freq_hz=units * 100, dr=dr, power_dbm=power,
        t1_s=t1_ds / 10.0, t2_s=(t1_ds + dt_ds) / 10.0, peer_addr=peer),
    role=st.sampled_from([Role.INITIATOR, Role.SCANNER]),
    units=st.integers(0, (1 << 24) - 1),
    dr=st.integers(0, 7),
    power=st.integers(2, 20),
    t1_ds=st.integers(0, 60_000),
    dt_ds=st.integers(1, 5_000),
    peer=st.integers(0, (1 << 32) - 1),
)


@given(cmd=command_grid)
def test_round_trip_on_decisecond_grid(cmd):
    wire = encode_setup(cmd)
    assert decode_setup(wire) == cmd
    assert encode_setup(decode_setup(wire)) == wire


def test_command_window_validation():
    with pytest.raises(D2DCodecError):
        D2DSetupCommand(Role.INITIATOR, 865_000_000, 6, 14, -1.0, 30.0, 1)
    with pytest.raises(D2DCodecError):
        D2DSetupCommand(Role.INITIATOR, 865_000_000, 6, 14, 0.0, 0.0, 1)
    with pytest.raises(D2DCodecError):
        D2DSetupCommand(Role.INITIATOR, 865_000_000, 6, 14, 30.0, 30.0, 1)
    with pytest.raises(D2DCodecError):
        D2DSetupCommand(Role.INITIATOR, 865_000_000, 6, 14, 31.0, 30.0, 1)


def _cmd(**overrides):
    base = dict(role=Role.INITIATOR, freq_hz=865_000_000, dr=6, power_dbm=14,
                t1_s=0.0, t2_s=30.0, peer_addr=1)
    base.update(overrides)
    return D2DSetupCommand(**base)


def test_encode_rejects_unrepresentable_fields():
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(freq_hz=865_000_050))       # not on the 100 Hz grid
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(freq_hz=100 * (1 << 24)))   # 24-bit field overflow
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(dr=8))
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(power_dbm=25))
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(t2_s=7000.0))               # 70000 ds > 16 bits
    with pytest.raises(D2DCodecError):
        encode_setup(_cmd(peer_addr=1 << 32))


def test_decode_rejects_malformed_payloads():
    good = bytearray(encode_setup(_cmd()))
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(good[:13]))
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(good) + b"\x00")
    v2 = good.copy()
    v2[0] = 0x20                                      # version 2
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(v2))
    reserved = good.copy()
    reserved[0] |= 0x05                               # reserved bits set
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(reserved))
    bad_dr = good.copy()
    bad_dr[4] = 9
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(bad_dr))
    bad_power = good.copy()
    bad_power[5] = 0                                  # encode rejects it too
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(bad_power))
    inverted = good.copy()
    inverted[6:8] = (400).to_bytes(2, "big")          # T1 beyond T2
    with pytest.raises(D2DCodecError):
        decode_setup(bytes(inverted))


# Any 14 bytes, with the two valid header bytes (version 1, either role,
# reserved bits clear) drawn often enough to reach the field checks.
any_wire_image = st.builds(
    lambda head, freq, dr, power, t1_ds, t2_ds, peer: struct.pack(
        ">B3sBBHHI", head, freq.to_bytes(3, "big"), dr, power, t1_ds, t2_ds, peer),
    head=st.sampled_from([0x10, 0x18]) | st.integers(0, 255),
    freq=st.integers(0, (1 << 24) - 1),
    dr=st.integers(0, 255),
    power=st.integers(0, 255),
    t1_ds=st.integers(0, (1 << 16) - 1),
    t2_ds=st.integers(0, (1 << 16) - 1),
    peer=st.integers(0, (1 << 32) - 1),
)


@given(wire=any_wire_image)
def test_decode_accepts_only_what_encode_reproduces(wire):
    # a command a device accepts is one the server could have sent: decode
    # runs the same range rules as encode, so nothing it lets through fails
    # later, when the device acts on it
    try:
        cmd = decode_setup(wire)
    except D2DCodecError:
        return
    assert encode_setup(cmd) == wire


def test_setup_fits_every_downlink_data_rate():
    # the command must be deliverable in either receive window at any DR
    for dr in range(8):
        assert (d2d.SETUP_WIRE_BYTES + phy.FRAME_OVERHEAD_BYTES
                <= phy.data_rate(dr).max_mac_payload_bytes)
