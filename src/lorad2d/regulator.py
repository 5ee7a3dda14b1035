"""EU 868 sub-band bookkeeping and per-transmitter duty cycle enforcement.

Each transmitter keeps one ledger per sub-band.  After a transmission of
airtime t ending at t_end the band is silenced until

    t_end + t * (1 / duty_limit - 1)

which is the classic per-transmission off-time rule.  Sub-bands are half-open
frequency intervals [low, high) and must not overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class RegulatorError(ValueError):
    pass


class DutyCycleViolation(RuntimeError):
    """A transmission was recorded before its band's off-time expired."""


@dataclass(frozen=True)
class SubBand:
    ident: str
    low_hz: int
    high_hz: int
    duty_cycle_limit: float      # e.g. 0.01 for 1 %
    max_erp_dbm: float = 14.0

    def __post_init__(self) -> None:
        if self.low_hz >= self.high_hz:
            raise RegulatorError(f"band {self.ident}: empty interval")
        if not 0.0 < self.duty_cycle_limit <= 1.0:
            raise RegulatorError(f"band {self.ident}: duty limit outside (0, 1]")
        if not math.isfinite(self.max_erp_dbm):   # a NaN limit would pass every power
            raise RegulatorError(f"band {self.ident}: max ERP must be finite")

    def contains(self, freq_hz: int) -> bool:
        return self.low_hz <= freq_hz < self.high_hz


# Default EU 868 plan.  g3 is the 10 % band used for the RX2 downlink channel.
DEFAULT_BANDS: tuple[SubBand, ...] = (
    SubBand("g", 865_000_000, 868_000_000, 0.01, 14.0),
    SubBand("g1", 868_000_000, 868_600_000, 0.01, 14.0),
    SubBand("g2", 868_700_000, 869_200_000, 0.001, 14.0),
    SubBand("g3", 869_400_000, 869_650_000, 0.10, 27.0),
    SubBand("g4", 869_700_000, 870_000_000, 0.01, 14.0),
)


def classify(freq_hz: int, bands: tuple[SubBand, ...] = DEFAULT_BANDS) -> SubBand:
    """Return the sub-band containing freq_hz, or raise RegulatorError."""
    for band in bands:
        if band.contains(freq_hz):
            return band
    raise RegulatorError(f"frequency {freq_hz} Hz outside every configured sub-band")


def off_time_us(toa_us: int, duty_cycle_limit: float) -> int:
    """Mandatory silence after a frame of airtime toa_us, in microseconds.

    Rounded up: a fractional microsecond of extra silence keeps the ledger
    strictly inside its budget, rounding down could push it fractionally over.
    """
    return math.ceil(toa_us * (1.0 / duty_cycle_limit - 1.0))


@dataclass(slots=True)
class _BandAccount:
    accumulated_on_air_us: int = 0
    next_allowed_us: int = 0
    frames: int = 0


@dataclass
class DutyLedger:
    """Per-transmitter duty cycle state, one account per sub-band."""

    bands: tuple[SubBand, ...] = DEFAULT_BANDS
    enforced: bool = True
    accounts: dict[str, _BandAccount] = field(default_factory=dict)
    # (sub-band, account) of each frequency seen so far; channels of one
    # sub-band share its account
    _by_freq: dict[int, tuple[SubBand, _BandAccount]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _classify(self, freq_hz: int) -> tuple[SubBand, _BandAccount]:
        band = classify(freq_hz, self.bands)   # raises outside every band
        acct = self.accounts.get(band.ident)
        if acct is None:
            acct = self.accounts[band.ident] = _BandAccount()
        pair = self._by_freq[freq_hz] = (band, acct)
        return pair

    def next_allowed_us(self, freq_hz: int, now_us: int) -> int:
        """Earliest start time >= now_us at which a frame may begin on this band."""
        if not self.enforced:
            return now_us
        allowed = (self._by_freq.get(freq_hz) or self._classify(freq_hz))[1].next_allowed_us
        return allowed if allowed > now_us else now_us

    def record_transmission(self, freq_hz: int, start_us: int, toa_us: int) -> None:
        band, acct = self._by_freq.get(freq_hz) or self._classify(freq_hz)
        if self.enforced and start_us < acct.next_allowed_us:
            raise DutyCycleViolation(
                f"band {band.ident}: transmission at {start_us} us before "
                f"allowed {acct.next_allowed_us} us"
            )
        end = start_us + toa_us
        acct.accumulated_on_air_us += toa_us
        acct.frames += 1
        acct.next_allowed_us = end + off_time_us(toa_us, band.duty_cycle_limit)

    def audit(self, horizon_us: int) -> dict[str, dict[str, float]]:
        """Per-band on-air totals and duty fractions.

        The fraction denominator extends to the end of the final committed
        off-time when that lies beyond the horizon, so a ledger that is
        saturated exactly at its limit reports a fraction of 1.0 * limit
        rather than fractionally above it due to the trailing frame.
        """
        out: dict[str, dict[str, float]] = {}
        for band in self.bands:
            acct = self.accounts.get(band.ident)
            if acct is None or acct.frames == 0:
                out[band.ident] = {
                    "on_air_s": 0.0,
                    "frames": 0,
                    "fraction": 0.0,
                    "limit": band.duty_cycle_limit,
                }
                continue
            window_us = max(horizon_us, acct.next_allowed_us)
            out[band.ident] = {
                "on_air_s": acct.accumulated_on_air_us / 1e6,
                "frames": acct.frames,
                "fraction": acct.accumulated_on_air_us / window_us,
                "limit": band.duty_cycle_limit,
            }
        return out


def validate_bands(bands: tuple[SubBand, ...]) -> None:
    """Reject overlapping sub-band definitions."""
    ordered = sorted(bands, key=lambda b: b.low_hz)
    for a, b in zip(ordered, ordered[1:]):
        if b.low_hz < a.high_hz:
            raise RegulatorError(f"bands {a.ident} and {b.ident} overlap")
