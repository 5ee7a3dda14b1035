"""Independent reference computations the suite checks the package against.

Everything in this module is written from first principles: the airtime
counter packs bits block by block instead of using the closed-form ceiling,
the reception referee enumerates pairwise cases, the D2D exchange phase is
summed from the counted airtimes, and the session-completion probability is
a small recurrence.  Nothing here imports from the package, so an
implementation bug cannot vouch for itself.
"""

from __future__ import annotations

import math

# (spreading factor, bandwidth Hz) per LoRa data rate index 0..6.
LORA_RATES = {
    0: (12, 125_000),
    1: (11, 125_000),
    2: (10, 125_000),
    3: (9, 125_000),
    4: (8, 125_000),
    5: (7, 125_000),
    6: (7, 250_000),
}

FSK_BIT_RATE = 50_000
FSK_EXTRA_BITS = 40           # preamble plus sync word


def payload_symbol_count(sf: int, bandwidth_hz: int, payload_bytes: int,
                         coding_rate: int = 1, crc: bool = True,
                         explicit_header: bool = True) -> int:
    """Count payload symbols by draining a bit budget block by block.

    The mandatory first 8 symbols absorb 4*SF - 28 bits of the header and
    payload (explicit header; 16 CRC bits when enabled).  Every further
    block of (CR + 4) symbols carries 4*(SF - 2*DE) bits, where DE marks
    the low-rate optimization used for SF11/SF12 at 125 kHz.
    """
    de = 1 if (sf >= 11 and bandwidth_hz <= 125_000) else 0
    remaining = 8 * payload_bytes + (16 if crc else 0) + 28 \
        - (0 if explicit_header else 20) - 4 * sf
    symbols = 8
    while remaining > 0:
        symbols += coding_rate + 4
        remaining -= 4 * (sf - 2 * de)
    return symbols


def time_on_air_s(dr: int, phy_payload_bytes: int, preamble_symbols: int = 8) -> float:
    """Frame airtime in seconds for a data rate index, by symbol counting."""
    if dr == 7:
        return (8 * phy_payload_bytes + FSK_EXTRA_BITS) / FSK_BIT_RATE
    sf, bw = LORA_RATES[dr]
    n_payload = payload_symbol_count(sf, bw, phy_payload_bytes)
    symbol_s = (1 << sf) / bw
    return (preamble_symbols + 4.25 + n_payload) * symbol_s


# LoRaWAN bytes around an application payload: MHDR (1), FHDR without
# options (7), FPort (1) and MIC (4).
FRAME_OVERHEAD_BYTES = 13


def exchange_phase_duration_s(params, dr: int) -> float:
    """Nominal duration of the alternating D2D exchange on a clean channel.

    ``params`` carries ``data_packets``, ``data_payload_bytes``,
    ``ack_payload_bytes`` and ``turnaround_s``.  Each of the N rounds costs
    one data frame, one turnaround, one ack and one more turnaround before
    the next data frame (or the completion event).
    """
    data_s = time_on_air_s(dr, params.data_payload_bytes + FRAME_OVERHEAD_BYTES)
    ack_s = time_on_air_s(dr, params.ack_payload_bytes + FRAME_OVERHEAD_BYTES)
    return params.data_packets * (data_s + params.turnaround_s + ack_s + params.turnaround_s)


# -- reception referee -------------------------------------------------------
#
# A frame is a plain tuple: (source, start_us, end_us, freq_hz,
# (sf, bandwidth_hz), tx_power_dbm, (x_m, y_m)).


def _rssi_dbm(frame, rx_position, pl0_db, d0_m, exponent) -> float:
    dx = frame[6][0] - rx_position[0]
    dy = frame[6][1] - rx_position[1]
    distance = math.hypot(dx, dy)
    return frame[5] - (pl0_db + 10.0 * exponent * math.log10(distance / d0_m))


def _share_air(a, b) -> bool:
    return a[1] < b[2] and b[1] < a[2]


def arbitrate_reference(rx_position, listening_freq_hz: int, listening_rate,
                        window_us, frames, *, sens_dbm: float,
                        capture_threshold_db: float = 6.0,
                        pl0_db: float = 127.5, d0_m: float = 1000.0,
                        exponent: float = 2.9):
    """Decide what a tuned receiver hears; returns (kind, source or None).

    Tuned frames share the listening frequency and rate, a (spreading factor,
    bandwidth) pair, and touch the half-open window.  A tuned frame is
    audible when its received power clears the sensitivity floor, which is
    the listening rate's.  An audible frame wins when, against every
    other audible frame it shares air time with, it is stronger by at least
    the capture threshold.  The earliest-ending winner is reported; audible
    frames with no winner are a collision.
    """
    w0, w1 = window_us
    tuned = [f for f in frames
             if f[3] == listening_freq_hz and f[4] == listening_rate
             and f[1] < w1 and w0 < f[2]]
    if not tuned:
        return ("none", None)
    audible = [f for f in tuned
               if _rssi_dbm(f, rx_position, pl0_db, d0_m, exponent) >= sens_dbm]
    if not audible:
        return ("below_sensitivity", None)
    power = {f[0]: _rssi_dbm(f, rx_position, pl0_db, d0_m, exponent)
             for f in audible}
    winners = []
    for f in audible:
        beats_all = True
        for g in audible:
            if g is f or not _share_air(f, g):
                continue
            if power[f[0]] < power[g[0]] + capture_threshold_db:
                beats_all = False
                break
        if beats_all:
            winners.append(f)
    if not winners:
        return ("collision", None)
    first = min(winners, key=lambda f: (f[2], f[1], f[0]))
    return ("decoded", first[0])


# -- session completion ------------------------------------------------------


def session_completion_probability(loss_prob: float, data_packets: int = 10,
                                   retry_limit: int = 3) -> float:
    """Chance an initiator gets every packet acknowledged when each frame is
    lost independently with probability ``loss_prob``.

    One attempt at a packet succeeds when both the data frame and its ack
    survive.  For all but the final packet the receiver keeps listening
    whatever happens, so attempts are independent and a packet goes through
    with 1 - (1-s)^retries where s = (1-p)^2.

    The final packet differs: once the receiver has acknowledged it, it only
    lingers long enough for one duplicate round at a time and goes to sleep
    if the duplicate never arrives.  V(m) is the initiator's winning chance
    with m attempts left while the receiver is lingering (a lost duplicate is
    fatal); N(n) is the chance with n attempts left while the receiver is
    still in its normal listening state.
    """
    p = loss_prob
    s = (1.0 - p) ** 2            # data heard, ack heard
    r = (1.0 - p) * p             # data heard, ack lost
    per_packet = 1.0 - (1.0 - s) ** retry_limit

    linger = [0.0] * (retry_limit + 1)
    for m in range(1, retry_limit + 1):
        linger[m] = s + r * linger[m - 1]
    normal = [0.0] * (retry_limit + 1)
    for n in range(1, retry_limit + 1):
        normal[n] = s + p * normal[n - 1] + r * linger[n - 1]

    return per_packet ** (data_packets - 1) * normal[retry_limit]
