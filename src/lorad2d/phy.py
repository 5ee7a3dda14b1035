"""LoRa/GFSK physical layer: data rate table, airtime, sensitivity, link budget.

Airtime follows the usual SX127x symbol-count recipe with one framing for
every frame: 8 preamble symbols, explicit header, CRC on, coding rate 4/5 and
low-data-rate optimization on for SF11/SF12 at 125 kHz.  All data rates are
the EU 868 set, indexed 0..7; DR7 is the FSK rate and gets the simple
bit-per-second treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# PHY payload = application payload + MHDR/addressing/MIC overhead.
FRAME_OVERHEAD_BYTES = 13
# Frame header bytes counted against the per-DR MAC payload cap on uplink.
MAC_HEADER_BYTES = 8

MAX_PHY_PAYLOAD_BYTES = 255


class PhyError(ValueError):
    """Raised for out-of-domain PHY arguments; ``field`` names the setting
    at fault when a settings class raises it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class DataRateDescriptor:
    """One row of the EU 868 data rate table."""

    index: int
    modulation: str          # "lora" or "gfsk"
    sf: int | None           # spreading factor, None for GFSK
    bandwidth_hz: int | None  # None for GFSK
    nominal_bit_rate_bps: int
    max_mac_payload_bytes: int

    @property
    def is_lora(self) -> bool:
        return self.modulation == "lora"

    @property
    def max_app_payload_bytes(self) -> int:
        return self.max_mac_payload_bytes - MAC_HEADER_BYTES


DATA_RATES: tuple[DataRateDescriptor, ...] = (
    DataRateDescriptor(0, "lora", 12, 125_000, 250, 59),
    DataRateDescriptor(1, "lora", 11, 125_000, 440, 59),
    DataRateDescriptor(2, "lora", 10, 125_000, 980, 59),
    DataRateDescriptor(3, "lora", 9, 125_000, 1_760, 123),
    DataRateDescriptor(4, "lora", 8, 125_000, 3_125, 230),
    DataRateDescriptor(5, "lora", 7, 125_000, 5_470, 230),
    DataRateDescriptor(6, "lora", 7, 250_000, 11_000, 230),
    DataRateDescriptor(7, "gfsk", None, None, 50_000, 230),
)

GFSK_BIT_RATE_BPS = 50_000
GFSK_PREAMBLE_SYNC_BITS = 40

# Default receiver sensitivity per DR index, dBm.  Monotone: slower rates decode
# deeper into the noise.  Override per scenario when modelling other hardware.
DEFAULT_SENSITIVITY_DBM: dict[int, float] = {
    0: -137.0,
    1: -134.5,
    2: -132.0,
    3: -129.0,
    4: -126.0,
    5: -124.0,
    6: -121.0,
    7: -110.0,
}

TX_POWER_MIN_DBM = 2
TX_POWER_MAX_DBM = 20


def data_rate(index: int) -> DataRateDescriptor:
    if not 0 <= index <= 7:
        raise PhyError(f"data rate index {index} outside 0..7")
    return DATA_RATES[index]


def time_on_air(dr: int, phy_payload_bytes: int) -> float:
    """Airtime in seconds of a frame with the given PHY payload length."""
    if not 0 <= phy_payload_bytes <= MAX_PHY_PAYLOAD_BYTES:
        raise PhyError(f"payload {phy_payload_bytes} outside 0..{MAX_PHY_PAYLOAD_BYTES}")
    desc = data_rate(dr)
    if not desc.is_lora:
        return (8 * phy_payload_bytes + GFSK_PREAMBLE_SYNC_BITS) / GFSK_BIT_RATE_BPS
    sf, bw = desc.sf, desc.bandwidth_hz
    de = 1 if (sf >= 11 and bw <= 125_000) else 0
    t_sym = (1 << sf) / bw
    # +16 for the CRC; an explicit header subtracts nothing
    numer = 8 * phy_payload_bytes - 4 * sf + 28 + 16
    block = max(0, math.ceil(numer / (4 * (sf - 2 * de))))
    n_payload = 8 + block * 5          # coding rate 4/5
    return (8 + 4.25 + n_payload) * t_sym   # 8 preamble symbols, 4.25 of sync


def time_on_air_us(dr: int, phy_payload_bytes: int) -> int:
    """Airtime rounded to integer microseconds (the engine's clock unit)."""
    return round(time_on_air(dr, phy_payload_bytes) * 1e6)


def symbol_time(dr: int) -> float:
    desc = data_rate(dr)
    if not desc.is_lora:
        raise PhyError("symbol time undefined for GFSK")
    return (1 << desc.sf) / desc.bandwidth_hz


def sensitivity(dr: int, table: dict[int, float] | None = None) -> float:
    """Receiver sensitivity in dBm for a DR index."""
    data_rate(dr)  # range check
    src = DEFAULT_SENSITIVITY_DBM if table is None else table
    return src[dr]


@dataclass(frozen=True)
class RadioModel:
    """A scenario's radio: log-distance path loss calibrated at d0 (defaults:
    127.5 dB at 1 km), the power margin by which a frame captures a
    receiver over a rival, and the chance that a decoded D2D frame is lost
    anyway."""

    pl0_db: float = 127.5
    d0_m: float = 1000.0
    exponent: float = 2.9
    capture_threshold_db: float = 6.0
    d2d_frame_loss_prob: float = 0.0

    def __post_init__(self) -> None:
        if not self.d0_m > 0:
            raise PhyError("must be positive", "d0_m")
        if not 0.0 <= self.d2d_frame_loss_prob <= 1.0:
            raise PhyError("must lie in [0, 1]", "d2d_frame_loss_prob")

    def path_loss_db(self, distance_m: float) -> float:
        if distance_m <= 0:
            raise PhyError("distance must be positive")
        return self.pl0_db + 10.0 * self.exponent * math.log10(distance_m / self.d0_m)


def check_tx_power(power_dbm: int) -> int:
    if not TX_POWER_MIN_DBM <= power_dbm <= TX_POWER_MAX_DBM:
        raise PhyError(f"tx power {power_dbm} dBm outside {TX_POWER_MIN_DBM}..{TX_POWER_MAX_DBM}")
    return power_dbm


class Transmission:
    """A single frame on the air.  Times are integer microseconds; the end
    time is stored at construction, since the medium reads it far more often
    than a frame is made.  ``kind`` is one of uplink, join_request, downlink,
    join_accept, d2d_data and d2d_ack."""

    __slots__ = ("start_us", "duration_us", "end_us", "freq_hz", "dr", "tx_power_dbm",
                 "phy_payload_bytes", "source", "kind", "frame")

    def __init__(self, start_us: int, duration_us: int, freq_hz: int, dr: int,
                 tx_power_dbm: int, phy_payload_bytes: int, source: str,
                 kind: str = "uplink", frame: object | None = None):
        check_tx_power(tx_power_dbm)
        if duration_us <= 0:
            raise PhyError("duration must be positive")
        self.start_us = start_us
        self.duration_us = duration_us
        self.end_us = start_us + duration_us
        self.freq_hz = freq_hz
        self.dr = dr
        self.tx_power_dbm = tx_power_dbm
        self.phy_payload_bytes = phy_payload_bytes
        self.source = source
        self.kind = kind
        self.frame = frame

    def overlaps(self, t0_us: int, t1_us: int) -> bool:
        """True when [start, end) intersects [t0, t1)."""
        return self.start_us < t1_us and t0_us < self.end_us
