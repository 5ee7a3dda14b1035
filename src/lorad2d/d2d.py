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

import math
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from . import phy
from .energy import usage_between
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
        """The one check of every field's range, for loader, encoder and decoder."""
        if not (self.t1_s >= 0 and self.t2_s > 0):   # NaN fails here
            raise D2DCodecError("T1 must be >= 0 and T2 > 0")
        if not self.t1_s < self.t2_s:
            raise D2DCodecError("T1 must fall inside the T2 session window")
        if self.freq_hz % 100:
            raise D2DCodecError("frequency must be a multiple of 100 Hz")
        if not 0 <= self.freq_hz < 100 << 24:
            raise D2DCodecError("frequency field overflow")
        if not 0 <= self.dr <= 7:
            raise D2DCodecError(f"data rate {self.dr} outside 0..7")
        try:
            phy.check_tx_power(self.power_dbm)
        except phy.PhyError as exc:
            raise D2DCodecError(str(exc)) from None
        # T2 bounds T1 too, which lies below it; an infinite T2 has no round()
        if self.t2_s == math.inf or round(self.t2_s * 10) >= 1 << 16:
            raise D2DCodecError("t2 field overflow")
        if not 0 <= self.peer_addr < 1 << 32:
            raise D2DCodecError("peer address outside 32 bits")


def encode_setup(cmd: D2DSetupCommand) -> bytes:
    head = (WIRE_VERSION << 4) | (int(cmd.role) << 3)
    return struct.pack(
        ">B3sBBHHI",
        head,
        (cmd.freq_hz // 100).to_bytes(3, "big"),
        cmd.dr,
        cmd.power_dbm,
        round(cmd.t1_s * 10),
        round(cmd.t2_s * 10),
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
    return D2DSetupCommand(
        role=Role((head >> 3) & 0x01),
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

    def __post_init__(self) -> None:
        if self.data_packets < 1:
            raise D2DProtocolError("at least one data packet required")
        for n in (self.data_payload_bytes, self.ack_payload_bytes):
            if not 0 <= n + phy.FRAME_OVERHEAD_BYTES <= phy.MAX_PHY_PAYLOAD_BYTES:
                raise D2DProtocolError("payload does not fit a PHY frame")
        for name in ("turnaround_s", "guard_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise D2DProtocolError(f"{name} must be non-negative and finite")


@dataclass(eq=False)
class SessionPlan:
    """One D2D directive and its record: the two devices (by eid), when it
    fired, the exchange they run, the planner's error if planning failed,
    and each half, filed under its role when its setup arrives.  The plan
    travels beside (not inside) both setup commands."""

    initiator: str
    scanner: str
    trigger_us: int
    exchange: ExchangeParams
    error: str | None = None
    halves: dict[Role, "D2DSession"] = field(default_factory=dict)


class D2DSession:
    """One device's half of a session, filed in its plan's ``halves``.

    The session drives the device that runs it.  It schedules its own timers
    on the device's engine and keeps at most two: the T2 deadline and one
    step (start, no_reply, linger or complete).  It opens its energy window
    on the device's ledger when it is armed and closes it when it ends.  The
    device lends it the radio: ``d2d_transmit``, which sends no frame that
    cannot start before T2, ``d2d_listen_on``, ``d2d_listen_off`` and
    ``session_finished``.
    """

    def __init__(self, cmd: D2DSetupCommand, device, plan: SessionPlan):
        self.cmd = cmd
        self.device = device
        self.params = params = plan.exchange
        plan.halves[cmd.role] = self
        self.activation_us = device.engine.now_us
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
        self.usage = None    # radio StateUsage over the session, set when it ends
        self._mark = device.ledger.mark(self.activation_us)

        self.toa_data_us = phy.time_on_air_us(cmd.dr, params.data_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        self.toa_ack_us = phy.time_on_air_us(cmd.dr, params.ack_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        self.turnaround_us = round(params.turnaround_s * 1e6)
        self.guard_us = round(params.guard_s * 1e6)
        self.deadline_us = self.activation_us + round(cmd.t2_s * 1e6)

        self._step = None       # engine entry of the pending step timer
        self._deadline = None   # engine entry of the T2 deadline

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> None:
        if self.state is not D2DState.ARMED:
            raise D2DProtocolError(f"activate in state {self.state}")
        self._arm(self._on_start, "d2d_start", self.activation_us + round(self.cmd.t1_s * 1e6))
        self._deadline = self._schedule(self._on_deadline, "d2d_deadline", self.deadline_us)

    def _on_start(self, _) -> None:
        if self.cmd.role is Role.SCANNER:
            self.state = D2DState.SCANNING
            self.device.d2d_listen_on()
        else:
            self.state = D2DState.INITIATING
            self._transmit_data(self.device.engine.now_us)

    def _on_deadline(self, _) -> None:
        if self.state in (D2DState.SCANNING, D2DState.INITIATING):
            self._fail("rendezvous_timeout")
        else:
            self._fail("session_timeout")

    # -- transmit paths ----------------------------------------------------

    def _transmit_data(self, at_us: int) -> None:
        frame = D2DDataFrame(
            source_addr=self.device.dev_addr,
            seq=self.packets_acked + 1,
            app_bytes=self.params.data_payload_bytes,
        )
        start = self.device.d2d_transmit(frame, at_us)
        if start is not None:
            self.data_frames_sent += 1
            if self.first_data_tx_us is None:
                self.first_data_tx_us = start

    def _transmit_ack(self, seq: int, at_us: int) -> None:
        frame = D2DAckFrame(source_addr=self.device.dev_addr, seq=seq,
                            app_bytes=self.params.ack_payload_bytes)
        if self.device.d2d_transmit(frame, at_us) is not None:
            self.ack_frames_sent += 1

    def on_tx_end(self, frame) -> None:
        """Radio reports our own frame finished; turn around and listen."""
        if self.state in (D2DState.DONE, D2DState.FAILED):
            return
        now = self.device.engine.now_us
        self.device.d2d_listen_on()
        if isinstance(frame, D2DDataFrame):
            window = self.turnaround_us + self.toa_ack_us + self.guard_us
            self._arm(self._on_no_reply, "d2d_no_reply", now + window)
        elif self.packets_acked == self.params.data_packets:
            # Hold the receiver long enough to re-ack a duplicate of the
            # final data frame, then declare the session done.
            window = self.turnaround_us + self.toa_data_us + self.guard_us
            self._arm(self._on_done, "d2d_linger", now + window)
        # otherwise just keep listening: the scanner side never retransmits
        # on its own and is bounded by the T2 deadline alone

    # -- receive path ------------------------------------------------------

    def on_frame(self, frame) -> None:
        if self.state in (D2DState.DONE, D2DState.FAILED, D2DState.ARMED):
            return
        if getattr(frame, "source_addr", None) != self.cmd.peer_addr:
            self.ignored_frames += 1
            return
        now = self.device.engine.now_us
        if self.cmd.role is Role.SCANNER and isinstance(frame, D2DDataFrame):
            self._scanner_on_data(frame, now)
        elif self.cmd.role is Role.INITIATOR and isinstance(frame, D2DAckFrame):
            self._initiator_on_ack(frame, now)
        else:
            self.ignored_frames += 1

    def _scanner_on_data(self, frame: D2DDataFrame, now: int) -> None:
        if frame.seq == self.packets_acked + 1:
            self.packets_acked = frame.seq
        elif frame.seq != self.packets_acked:   # == means our ack was lost; re-ack
            self.ignored_frames += 1
            return
        self.consecutive_timeouts = 0
        self._cancel_step()   # a pending linger
        # the device stops listening as soon as the ack is queued, but the
        # ledger bills the turnaround as receive time up to the ack's start
        if self.state is D2DState.SCANNING:
            self.state = D2DState.EXCHANGE
            self.established = True
        self._transmit_ack(frame.seq, now + self.turnaround_us)

    def _initiator_on_ack(self, frame: D2DAckFrame, now: int) -> None:
        current = self.packets_acked + 1
        if frame.seq != current:
            self.ignored_frames += 1
            return
        self.consecutive_timeouts = 0
        self._cancel_step()   # the pending no_reply
        if self.state is D2DState.INITIATING:
            self.state = D2DState.EXCHANGE
            self.established = True
        self.packets_acked = current
        if self.packets_acked == self.params.data_packets:
            self._arm(self._on_done, "d2d_complete", now + self.turnaround_us)
        else:
            self._transmit_data(now + self.turnaround_us)

    # -- timeouts ----------------------------------------------------------

    def _on_no_reply(self, _) -> None:
        """Initiator ack timeout: burn one retry, retransmit the data frame."""
        self.consecutive_timeouts += 1
        if self.consecutive_timeouts >= self.params.retry_limit:
            self._fail("retry_budget_exhausted")
            return
        self._transmit_data(self.device.engine.now_us)

    def _on_done(self, _) -> None:
        self._finish(D2DState.DONE)

    def _schedule(self, fn, kind: str, at_us: int) -> list:
        """Schedule ``fn`` at ``at_us``, clamped to T2 and to now."""
        engine = self.device.engine
        t = max(min(at_us, self.deadline_us), engine.now_us)
        return engine.schedule(t, fn, kind=kind, target=self.device.eid)

    def _arm(self, fn, kind: str, at_us: int) -> None:
        """Make ``fn`` the pending step, replacing the one before it."""
        self._cancel_step()
        self._step = self._schedule(fn, kind, at_us)

    def _cancel_step(self) -> None:
        if self._step is not None:
            Engine.cancel(self._step)
            self._step = None

    # -- terminal ----------------------------------------------------------

    def _fail(self, reason: str) -> None:
        self.fail_reason = reason
        self._finish(D2DState.FAILED)

    def _finish(self, state: D2DState) -> None:
        self._cancel_step()
        Engine.cancel(self._deadline)
        self.state = state
        device = self.device
        self.terminal_us = now = device.engine.now_us
        device.d2d_listen_off()
        self.usage = usage_between(self._mark, device.ledger.mark(now))
        device.session_finished()

    @property
    def completed(self) -> bool:
        return self.state is D2DState.DONE and self.packets_acked == self.params.data_packets
