"""Device-to-device link layer: setup command codec and session state machine.

The network server arms a pair of devices with a 14-byte setup command sent on
a dedicated downlink port.  Each device then runs a half of the session state
machine below: the scanner turns its receiver on T1 seconds after it decoded
the command, the initiator starts transmitting after its own T1, and the two
alternate fixed-size data and acknowledgement frames until the data is done,
a retry budget is exhausted, or the T2 session window closes.

Wire format of the setup command (big endian):

    byte  0      version (4 bits) | role (1 bit) | reserved (3 bits, zero)
    bytes 1-3    link frequency in units of 100 Hz
    byte  4      data rate index
    byte  5      transmit power, dBm
    bytes 6-7    T1, tenths of a second, relative to command reception
    bytes 8-9    T2, tenths of a second, session window after reception
    bytes 10-13  peer device address
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from . import phy
from .engine import Engine

SETUP_PORT = 0xDD
SETUP_WIRE_BYTES = 14
WIRE_VERSION = 1

NO_REPLY_GUARD_S = 0.1
DEFAULT_RETRY_LIMIT = 3


class D2DCodecError(ValueError):
    pass


class D2DProtocolError(RuntimeError):
    pass


class Role(IntEnum):
    INITIATOR = 0
    SCANNER = 1


@dataclass(frozen=True)
class D2DSetupCommand:
    role: Role
    freq_hz: int
    dr: int
    power_dbm: int
    t1_s: float
    t2_s: float
    peer_addr: int

    def __post_init__(self) -> None:
        if self.t1_s < 0 or self.t2_s <= 0:
            raise D2DCodecError("T1 must be >= 0 and T2 > 0")
        if self.t1_s >= self.t2_s:
            raise D2DCodecError("T1 must fall inside the T2 session window")


def encode_setup(cmd: D2DSetupCommand) -> bytes:
    if cmd.freq_hz % 100:
        raise D2DCodecError("frequency must be a multiple of 100 Hz")
    freq_units = cmd.freq_hz // 100
    if freq_units >= 1 << 24:
        raise D2DCodecError("frequency field overflow")
    if not 0 <= cmd.dr <= 7:
        raise D2DCodecError(f"data rate {cmd.dr} outside 0..7")
    phy.check_tx_power(cmd.power_dbm)
    t1_ds = round(cmd.t1_s * 10)
    t2_ds = round(cmd.t2_s * 10)
    for name, val in (("t1", t1_ds), ("t2", t2_ds)):
        if not 0 <= val < 1 << 16:
            raise D2DCodecError(f"{name} field overflow")
    if not 0 <= cmd.peer_addr < 1 << 32:
        raise D2DCodecError("peer address outside 32 bits")
    head = (WIRE_VERSION << 4) | (int(cmd.role) << 3)
    return struct.pack(
        ">B3sBBHHI",
        head,
        freq_units.to_bytes(3, "big"),
        cmd.dr,
        cmd.power_dbm,
        t1_ds,
        t2_ds,
        cmd.peer_addr,
    )


def decode_setup(payload: bytes) -> D2DSetupCommand:
    if len(payload) != SETUP_WIRE_BYTES:
        raise D2DCodecError(f"setup command must be {SETUP_WIRE_BYTES} bytes, got {len(payload)}")
    head, freq_raw, dr, power, t1_ds, t2_ds, peer = struct.unpack(">B3sBBHHI", payload)
    version = head >> 4
    if version != WIRE_VERSION:
        raise D2DCodecError(f"unsupported setup version {version}")
    if head & 0x07:
        raise D2DCodecError("reserved bits must be zero")
    role = Role((head >> 3) & 0x01)
    if dr > 7:
        raise D2DCodecError(f"data rate {dr} outside 0..7")
    return D2DSetupCommand(
        role=role,
        freq_hz=int.from_bytes(freq_raw, "big") * 100,
        dr=dr,
        power_dbm=power,
        t1_s=t1_ds / 10.0,
        t2_s=t2_ds / 10.0,
        peer_addr=peer,
    )


@dataclass(frozen=True)
class D2DDataFrame:
    source_addr: int
    seq: int
    app_bytes: int


@dataclass(frozen=True)
class D2DAckFrame:
    source_addr: int
    seq: int
    app_bytes: int


class D2DState(Enum):
    ARMED = "armed"
    SCANNING = "scanning"
    INITIATING = "initiating"
    EXCHANGE = "exchange"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class ExchangeParams:
    """Application-side numbers both peers agreed on out of band.  Each D2D
    directive carries its own, which governs only the session it plans."""

    data_packets: int = 10
    data_payload_bytes: int = 240
    ack_payload_bytes: int = 10
    turnaround_s: float = 0.05
    guard_s: float = NO_REPLY_GUARD_S
    retry_limit: int = DEFAULT_RETRY_LIMIT
    command_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.data_packets < 1:
            raise D2DProtocolError("at least one data packet required")
        for n in (self.data_payload_bytes, self.ack_payload_bytes):
            if not 0 <= n + phy.FRAME_OVERHEAD_BYTES <= phy.MAX_PHY_PAYLOAD_BYTES:
                raise D2DProtocolError("payload does not fit a PHY frame")


@dataclass(frozen=True)
class SessionPlan:
    """One planned session, handed to both devices beside (not inside) their
    setup commands: the id that pairs its halves, and the exchange they run."""

    plan_id: int
    exchange: ExchangeParams


def exchange_phase_duration_s(params: ExchangeParams, dr: int) -> float:
    """Nominal duration of the alternating exchange with a clean channel.

    Each of the N rounds costs one data frame, one turnaround, one ack and one
    more turnaround before the next data frame (or the completion event).
    """
    toa_data = phy.time_on_air(dr, params.data_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
    toa_ack = phy.time_on_air(dr, params.ack_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
    return params.data_packets * (toa_data + params.turnaround_s + toa_ack + params.turnaround_s)


class D2DSession:
    """One device's half of a session.

    The host object (the owning device) supplies the radio and timer
    primitives; the session only sequences them:

        host.now_us() -> int
        host.d2d_transmit(session, frame, power_dbm, freq_hz, dr, at_us)
        host.d2d_listen_on(session) / host.d2d_listen_off(session)
        host.schedule_session_timer(session, at_us, tag) -> engine entry, for Engine.cancel
        host.session_finished(session)
    """

    def __init__(self, cmd: D2DSetupCommand, own_addr: int, activation_us: int,
                 params: ExchangeParams, plan_id: int | None = None):
        self.cmd = cmd
        self.params = params
        self.plan_id = plan_id
        self.own_addr = own_addr
        self.activation_us = activation_us
        self.state = D2DState.ARMED
        self.fail_reason: str | None = None
        self.established = False

        self.packets_acked = 0
        self.data_frames_sent = 0
        self.ack_frames_sent = 0
        self.consecutive_timeouts = 0
        self.ignored_frames = 0

        self.first_data_tx_us: int | None = None
        self.terminal_us: int | None = None
        self.usage = None    # radio StateUsage over the session, set by the host at the end

        self.toa_data_us = phy.time_on_air_us(cmd.dr, params.data_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        self.toa_ack_us = phy.time_on_air_us(cmd.dr, params.ack_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        self.turnaround_us = round(params.turnaround_s * 1e6)
        self.guard_us = round(params.guard_s * 1e6)
        self.latency_us = round(params.command_latency_s * 1e6)
        self.deadline_us = activation_us + round(cmd.t2_s * 1e6)

        self._timers: dict[str, object] = {}     # pending timer event by tag

    # -- lifecycle ---------------------------------------------------------

    def activate(self, host) -> None:
        if self.state is not D2DState.ARMED:
            raise D2DProtocolError(f"activate in state {self.state}")
        self._arm(host, "start", self.activation_us + round(self.cmd.t1_s * 1e6))
        self._arm(host, "deadline", self.deadline_us)

    def on_timer(self, host, tag: str) -> None:
        self._timers.pop(tag, None)
        if self.state in (D2DState.DONE, D2DState.FAILED):
            return
        if tag == "start":
            self._on_start(host)
        elif tag == "deadline":
            self._on_deadline(host)
        elif tag == "no_reply":
            self._on_no_reply(host)
        elif tag in ("linger", "complete"):
            self._finish(host, D2DState.DONE)
        else:
            raise D2DProtocolError(f"unknown session timer {tag}")

    def _on_start(self, host) -> None:
        if self.cmd.role is Role.SCANNER:
            self.state = D2DState.SCANNING
            host.d2d_listen_on(self)
        else:
            self.state = D2DState.INITIATING
            self._transmit_data(host, host.now_us())

    def _on_deadline(self, host) -> None:
        if self.state in (D2DState.SCANNING, D2DState.INITIATING):
            self._fail(host, "rendezvous_timeout")
        else:
            self._fail(host, "session_timeout")

    # -- transmit paths ----------------------------------------------------

    def _transmit_data(self, host, at_us: int) -> None:
        frame = D2DDataFrame(
            source_addr=self.own_addr,
            seq=self.packets_acked + 1,
            app_bytes=self.params.data_payload_bytes,
        )
        self.data_frames_sent += 1
        start = at_us + self.latency_us
        if self.first_data_tx_us is None:
            self.first_data_tx_us = start
        host.d2d_transmit(self, frame, self.cmd.power_dbm, self.cmd.freq_hz, self.cmd.dr, start)

    def _transmit_ack(self, host, seq: int, at_us: int) -> None:
        frame = D2DAckFrame(source_addr=self.own_addr, seq=seq, app_bytes=self.params.ack_payload_bytes)
        self.ack_frames_sent += 1
        host.d2d_transmit(self, frame, self.cmd.power_dbm, self.cmd.freq_hz, self.cmd.dr, at_us + self.latency_us)

    def on_tx_end(self, host, frame) -> None:
        """Radio reports our own frame finished; turn around and listen."""
        if self.state in (D2DState.DONE, D2DState.FAILED):
            return
        now = host.now_us()
        host.d2d_listen_on(self)
        if isinstance(frame, D2DDataFrame):
            window = self.turnaround_us + self.toa_ack_us + self.guard_us
            self._arm(host, "no_reply", now + window)
        elif self.packets_acked == self.params.data_packets:
            # Hold the receiver long enough to re-ack a duplicate of the
            # final data frame, then declare the session done.
            window = self.turnaround_us + self.toa_data_us + self.guard_us
            self._arm(host, "linger", now + window)
        # otherwise just keep listening: the scanner side never retransmits
        # on its own and is bounded by the T2 deadline alone

    # -- receive path ------------------------------------------------------

    def on_frame(self, host, frame) -> None:
        if self.state in (D2DState.DONE, D2DState.FAILED, D2DState.ARMED):
            return
        if getattr(frame, "source_addr", None) != self.cmd.peer_addr:
            self.ignored_frames += 1
            return
        now = host.now_us()
        if self.cmd.role is Role.SCANNER and isinstance(frame, D2DDataFrame):
            self._scanner_on_data(host, frame, now)
        elif self.cmd.role is Role.INITIATOR and isinstance(frame, D2DAckFrame):
            self._initiator_on_ack(host, frame, now)
        else:
            self.ignored_frames += 1

    def _scanner_on_data(self, host, frame: D2DDataFrame, now: int) -> None:
        if frame.seq == self.packets_acked + 1:
            self.packets_acked = frame.seq
        elif frame.seq != self.packets_acked:   # == means our ack was lost; re-ack
            self.ignored_frames += 1
            return
        self.consecutive_timeouts = 0
        self._cancel("linger")
        # the host stops listening as soon as the ack is queued, but the
        # ledger bills the turnaround as receive time up to the ack's start
        if self.state is D2DState.SCANNING:
            self.state = D2DState.EXCHANGE
            self.established = True
        self._transmit_ack(host, frame.seq, now + self.turnaround_us)

    def _initiator_on_ack(self, host, frame: D2DAckFrame, now: int) -> None:
        current = self.packets_acked + 1
        if frame.seq != current:
            self.ignored_frames += 1
            return
        self.consecutive_timeouts = 0
        self._cancel("no_reply")
        if self.state is D2DState.INITIATING:
            self.state = D2DState.EXCHANGE
            self.established = True
        self.packets_acked = current
        if self.packets_acked == self.params.data_packets:
            self._arm(host, "complete", now + self.turnaround_us)
        else:
            self._transmit_data(host, now + self.turnaround_us)

    # -- timeouts ----------------------------------------------------------

    def _on_no_reply(self, host) -> None:
        """Initiator ack timeout: burn one retry, retransmit the data frame."""
        self.consecutive_timeouts += 1
        if self.consecutive_timeouts >= self.params.retry_limit:
            self._fail(host, "retry_budget_exhausted")
            return
        self._transmit_data(host, host.now_us())

    def _arm(self, host, tag: str, at_us: int) -> None:
        """Set timer ``tag``, replacing a pending one; none outlives T2."""
        self._cancel(tag)
        self._timers[tag] = host.schedule_session_timer(self, min(at_us, self.deadline_us), tag)

    def _cancel(self, tag: str) -> None:
        ev = self._timers.pop(tag, None)
        if ev is not None:
            Engine.cancel(ev)

    # -- terminal ----------------------------------------------------------

    def _fail(self, host, reason: str) -> None:
        self.fail_reason = reason
        self._finish(host, D2DState.FAILED)

    def _finish(self, host, state: D2DState) -> None:
        for ev in self._timers.values():
            Engine.cancel(ev)
        self._timers.clear()
        self.state = state
        self.terminal_us = host.now_us()
        host.d2d_listen_off(self)
        host.session_finished(self)

    @property
    def completed(self) -> bool:
        return self.state is D2DState.DONE and self.packets_acked == self.params.data_packets
