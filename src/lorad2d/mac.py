"""Class A end device: Aloha uplinks, two receive windows, D2D suspension.

A device cycles uplink -> RX1 -> RX2 -> sleep.  Uplinks follow a nominal grid
(phase + k * period) with a uniform per-uplink start jitter; the grid does not
drift.  A device without an address runs the same cycle with join requests,
and its grid restarts one period after the join-accept.  Channel choice is
uniform over the device's enabled channels and the sub-band duty ledger can
push a start later.  A setup command received on the dedicated port suspends
normal operation and hands the radio to a D2D session; when the session ends
the device resumes the grid without rejoining.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from . import d2d, phy, regulator
from .energy import EnergyLedger

if TYPE_CHECKING:
    from .netserver import TransferState
    from .scenario import DeviceSpec

UPLINK_PORT = 1
JOIN_REQUEST_PHY_BYTES = 23
JOIN_ACCEPT_PHY_BYTES = 17


class MacState(Enum):
    NOT_JOINED = "not_joined"
    SLEEP = "sleep"
    TX = "tx"
    WAIT_RW1 = "wait_rw1"
    RX1 = "rx1"
    WAIT_RW2 = "wait_rw2"
    RX2 = "rx2"
    D2D_SUSPENDED = "d2d_suspended"


_set_attr = object.__setattr__


@dataclass(frozen=True, init=False)
class LoRaWANUplink:
    dev_addr: int
    fcnt: int
    port: int
    app_bytes: int

    def __init__(self, dev_addr: int, fcnt: int, port: int, app_bytes: int):
        # one uplink per class-A cycle: set the four frozen fields in one
        # call, where the generated __init__ makes one call per field
        _set_attr(self, "__dict__", {"dev_addr": dev_addr, "fcnt": fcnt, "port": port,
                                     "app_bytes": app_bytes})


@dataclass(frozen=True)
class LoRaWANDownlink:
    dev_addr: int
    fcnt: int
    port: int
    app_bytes: int
    payload: bytes | None = None
    plan: d2d.SessionPlan | None = None   # out of band, beside a setup payload
    transfer: TransferState | None = None   # out of band: the relayed transfer


@dataclass(frozen=True)
class JoinRequest:
    eid: str
    dev_nonce: int               # distinct per join attempt of this device


@dataclass(frozen=True)
class JoinAccept:
    eid: str
    assigned_addr: int


@dataclass(frozen=True)
class ReceiveWindows:
    """The class A receive-window rule, shared by end devices and the network
    server: RX1 opens on the uplink's channel and data rate one delay after
    the uplink ends, RX2 on a fixed channel and rate after a second delay.
    A window that catches no preamble closes after `length_us[dr]`."""

    rx2_freq_hz: int
    rx2_dr: int
    receive_delay1_s: float
    receive_delay2_s: float
    preamble_detect_symbols: int

    @cached_property
    def _delays_us(self) -> tuple[int, int]:
        return round(self.receive_delay1_s * 1e6), round(self.receive_delay2_s * 1e6)

    @cached_property
    def length_us(self) -> tuple[int, ...]:
        """Unheld window length per LoRa DR (DR0-DR6)."""
        return tuple(round(self.preamble_detect_symbols * phy.symbol_time(dr) * 1e6)
                     for dr in range(7))

    def after(self, uplink: phy.Transmission) -> tuple[tuple, tuple]:
        """RX1 and RX2 after ``uplink``, each as (window, open_us, freq_hz, dr)."""
        rd1, rd2 = self._delays_us
        end = uplink.end_us
        return ((1, end + rd1, uplink.freq_hz, uplink.dr),
                (2, end + rd2, self.rx2_freq_hz, self.rx2_dr))


# MAC state and close-event kind of each receive window
_RX_STATE = {1: MacState.RX1, 2: MacState.RX2}
_RX_CLOSE_KIND = {1: "rx1_close", 2: "rx2_close"}


class EndDevice:
    """One device as its spec provisions it.  The settings read on the
    per-event path are copied to attributes, with times in microseconds."""

    def __init__(self, engine, medium, spec: DeviceSpec, *, windows: ReceiveWindows,
                 bands, duty_enforced: bool):
        self.engine = engine
        self.medium = medium
        self.spec = spec
        self.eid = spec.eid
        self.dev_addr = spec.dev_addr   # a joining device has none until it joins
        self.period_us = round(spec.period_s * 1e6)
        self.phase_us = round(spec.phase_s * 1e6)
        self.jitter_frac = spec.jitter_frac
        self.uplink_dr = spec.dr
        self.tx_power_dbm = phy.check_tx_power(spec.tx_power_dbm)
        self.app_payload_bytes = spec.app_payload_bytes
        self.channels_hz = list(spec.channels_hz)
        self.windows = windows
        self.max_uplinks = spec.max_uplinks
        self.duty = regulator.DutyLedger(bands=bands, enforced=duty_enforced)

        self.mac_state = MacState.SLEEP if spec.prejoined else MacState.NOT_JOINED
        self.fcnt_up = 0
        self.session: d2d.D2DSession | None = None
        self.session_history: list[d2d.D2DSession] = []

        self.ledger = EnergyLedger()
        self.rng = engine.rng.stream(f"dev:{spec.eid}")
        self.counters: dict[str, int] = {
            "downlinks_rw1": 0, "downlinks_rw2": 0, "ignored_frames": 0,
            "malformed_setups": 0, "join_attempts": 0, "duty_deferrals": 0,
        }
        self.app_deliveries: list[tuple[int, int]] = []   # (t_us, bytes)

        self._next_nominal_us = self.phase_us
        self._rx_events: list = []   # engine entries of this cycle's RX opens and closes
        self._rx2_open_us = 0
        self._d2d_listening = False
        self._uplink_phy_bytes = spec.app_payload_bytes + phy.FRAME_OVERHEAD_BYTES
        self._uplink_toa_us = phy.time_on_air_us(spec.dr, self._uplink_phy_bytes)

        medium.register_position(spec.eid, spec.position)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.ledger.set_state(0, "sleep")
        self._schedule_next_uplink()

    # -- uplink cycle ------------------------------------------------------

    def _schedule_next_uplink(self) -> None:
        """Schedule a join request while the device has no address, else an
        uplink unless ``max_uplinks`` are sent, at the next grid slot plus jitter."""
        if self.dev_addr is None:
            fn, kind = self._begin_join, "join_timer"
        elif self.max_uplinks is not None and self.fcnt_up >= self.max_uplinks:
            return
        else:
            fn, kind = self._begin_uplink, "uplink_timer"
        nominal = self._next_nominal_us
        self._next_nominal_us = nominal + self.period_us
        jitter_us = 0
        if self.jitter_frac:
            # what Generator.uniform(-j, j) computes, without its argument handling
            j = self.jitter_frac
            jitter_us = round((-j + 2 * j * self.rng.random()) * self.period_us)
        t = max(nominal + jitter_us, self.engine.now_us)
        self.engine.schedule(t, fn, kind=kind, target=self.eid)

    def _begin_uplink(self, _=None) -> None:
        channel = self.channels_hz[self.rng.below(len(self.channels_hz))]
        frame = LoRaWANUplink(self.dev_addr, self.fcnt_up, UPLINK_PORT, self.app_payload_bytes)
        self._transmit_lorawan(channel, self._uplink_phy_bytes, "uplink", frame,
                               self._uplink_toa_us)
        self.fcnt_up += 1

    def _begin_join(self, _=None) -> None:
        channel = self.channels_hz[self.rng.below(len(self.channels_hz))]
        toa = phy.time_on_air_us(self.uplink_dr, JOIN_REQUEST_PHY_BYTES)
        self.counters["join_attempts"] += 1
        self.engine.trace("join_request", self.eid, freq_hz=channel)
        request = JoinRequest(self.eid, dev_nonce=self.counters["join_attempts"])
        self._transmit_lorawan(channel, JOIN_REQUEST_PHY_BYTES, "join_request", request, toa)

    def _transmit_lorawan(self, freq_hz: int, phy_bytes: int, kind: str, frame,
                          toa_us: int) -> None:
        """Send an uplink or join request now, or once the duty ledger
        allows; a later start is counted and traced as a deferral."""
        now = self.engine.now_us
        start_us = self.duty.next_allowed_us(freq_hz, now)
        if start_us > now:
            self.counters["duty_deferrals"] += 1
            if self.engine.trace_enabled:
                self.engine.trace("duty_defer", self.eid, until_us=start_us, freq_hz=freq_hz)
        self.mac_state = MacState.TX
        self._send(freq_hz, self.uplink_dr, self.tx_power_dbm, phy_bytes, kind, frame,
                   start_us, toa_us)

    def _send(self, freq_hz: int, dr: int, power_dbm: int, phy_bytes: int, kind: str,
              frame, start_us: int, toa_us: int) -> None:
        """Record a frame in the duty ledger and put it on the air."""
        self.duty.record_transmission(freq_hz, start_us, toa_us)
        self.medium.begin_tx(phy.Transmission(
            start_us=start_us, duration_us=toa_us, freq_hz=freq_hz, dr=dr,
            tx_power_dbm=power_dbm, phy_payload_bytes=phy_bytes,
            source=self.eid, kind=kind, frame=frame,
        ), owner=self)

    def on_own_tx_start(self, tx: phy.Transmission) -> None:
        self.ledger.set_state(self.engine.now_us, "tx", tx.tx_power_dbm)

    def on_own_tx_end(self, tx: phy.Transmission) -> None:
        self.ledger.set_state(self.engine.now_us, "sleep")
        if tx.kind.startswith("d2d"):
            if self.session is not None:
                self.session.on_tx_end(tx.frame)
            return
        # class A: two receive windows pegged to the uplink end
        self.mac_state = MacState.WAIT_RW1
        rx1, rx2 = self.windows.after(tx)
        self._rx2_open_us = rx2[1]
        self._rx_events = [
            self.engine.schedule(rx1[1], self._open_rx, rx1, kind="rx1_open", target=self.eid),
            self.engine.schedule(rx2[1], self._open_rx, rx2, kind="rx2_open", target=self.eid),
        ]

    def _open_rx(self, window: tuple) -> None:
        if self.mac_state is MacState.RX1:
            # still receiving in the first window past the second's start;
            # the second window is skipped for this cycle
            return
        which, _, freq, dr = window
        self.mac_state = _RX_STATE[which]
        self.ledger.set_state(self.engine.now_us, "rx")
        self.medium.listen(self, freq, dr, "down")
        if self.engine.trace_enabled:
            self.engine.trace("rx_open", self.eid, window=which, freq_hz=freq, dr=dr)
        close_at = self.engine.now_us + self.windows.length_us[dr]
        ev = self.engine.schedule(close_at, self._close_rx, which,
                                  kind=_RX_CLOSE_KIND[which], target=self.eid)
        self._rx_events.append(ev)

    def _close_rx(self, which: int) -> None:
        lock = self.medium.lock_until_us(self.eid)
        if lock > self.engine.now_us:
            ev = self.engine.schedule(lock, self._close_rx, which,
                                      kind=_RX_CLOSE_KIND[which], target=self.eid)
            self._rx_events.append(ev)
            return
        self.medium.unlisten(self)
        self.ledger.set_state(self.engine.now_us, "sleep")
        if self.engine.trace_enabled:
            self.engine.trace("rx_close", self.eid, window=which)
        # once RX2's open time has come, a reception held the first window
        # past it and RX2 was skipped
        if which == 1 and self.engine.now_us < self._rx2_open_us:
            self.mac_state = MacState.WAIT_RW2
        else:
            self._cycle_complete()

    def _end_rx(self) -> None:
        """Leave the receive window early: drop its opens and closes, and sleep."""
        for ev in self._rx_events:
            self.engine.cancel(ev)
        self._rx_events = []
        self.medium.unlisten(self)
        self.ledger.set_state(self.engine.now_us, "sleep")

    def _cycle_complete(self) -> None:
        """Sleep until the next grid slot, where an unanswered join is retried."""
        self.mac_state = MacState.NOT_JOINED if self.dev_addr is None else MacState.SLEEP
        self._schedule_next_uplink()

    # -- reception ---------------------------------------------------------

    def on_frame_decoded(self, tx: phy.Transmission) -> None:
        frame = tx.frame
        state = self.mac_state
        if state is MacState.D2D_SUSPENDED and tx.kind.startswith("d2d"):
            self.session.on_frame(frame)
        elif state is not MacState.RX1 and state is not MacState.RX2:
            self.counters["ignored_frames"] += 1
        elif isinstance(frame, JoinAccept) and frame.eid == self.eid:
            self._complete_join(frame)
        elif isinstance(frame, LoRaWANDownlink) and frame.dev_addr == self.dev_addr:
            self._on_downlink(frame)
        else:
            self.counters["ignored_frames"] += 1

    def _on_downlink(self, frame: LoRaWANDownlink) -> None:
        window = 1 if self.mac_state is MacState.RX1 else 2
        self.counters[f"downlinks_rw{window}"] += 1
        self._end_rx()
        if self.engine.trace_enabled:
            self.engine.trace("downlink_rx", self.eid, window=window, port=frame.port,
                              bytes=frame.app_bytes)
        if frame.port == d2d.SETUP_PORT:
            self._handle_setup(frame)
        else:
            delivery = (self.engine.now_us, frame.app_bytes)
            self.app_deliveries.append(delivery)
            if frame.transfer is not None:
                frame.transfer.deliveries.append(delivery)
            if self.engine.trace_enabled:
                self.engine.trace("app_delivery", self.eid, bytes=frame.app_bytes)
            self._cycle_complete()

    def _handle_setup(self, frame: LoRaWANDownlink) -> None:
        try:
            cmd = d2d.decode_setup(frame.payload or b"")
            regulator.classify(cmd.freq_hz, self.duty.bands)   # a channel in none of its sub-bands
        except (d2d.D2DCodecError, regulator.RegulatorError) as exc:
            self.counters["malformed_setups"] += 1
            self.engine.trace("setup_rejected", self.eid, error=str(exc))
            self._cycle_complete()
            return
        self.arm_session(cmd, frame.plan)

    def arm_session(self, cmd: d2d.D2DSetupCommand, plan: d2d.SessionPlan) -> None:
        """Suspend LoRaWAN operation and hand the radio to a new session."""
        self.mac_state = MacState.D2D_SUSPENDED
        self.session = d2d.D2DSession(cmd, self, plan)
        self.engine.trace("d2d_armed", self.eid, role=cmd.role.name.lower(),
                          freq_hz=cmd.freq_hz, dr=cmd.dr, t1_ds=round(cmd.t1_s * 10),
                          t2_ds=round(cmd.t2_s * 10), peer=cmd.peer_addr)
        self.session.activate()

    def _complete_join(self, frame: JoinAccept) -> None:
        self.dev_addr = frame.assigned_addr
        self._end_rx()
        self.engine.trace("join_complete", self.eid, dev_addr=frame.assigned_addr)
        self._next_nominal_us = self.engine.now_us + self.period_us
        self._cycle_complete()

    # -- radio for the running D2D session -----------------------------------

    def d2d_transmit(self, frame, at_us: int) -> int | None:
        """Send a frame of the running session at ``at_us``, or later if the
        duty ledger defers it, and return its start.  The frame counts
        against the device's one duty ledger, as its uplinks do.  A frame
        that cannot start before the session's T2 deadline is not sent: it
        is traced as ``d2d_withheld``, records no duty, leaves the radio as
        it is and returns None."""
        session = self.session
        cmd = session.cmd
        kind = "d2d_data" if isinstance(frame, d2d.D2DDataFrame) else "d2d_ack"
        start = self.duty.next_allowed_us(cmd.freq_hz, max(at_us, self.engine.now_us))
        if start >= session.deadline_us:
            self.engine.trace("d2d_withheld", self.eid, frame=kind, start_us=start,
                              t2_us=session.deadline_us)
            return None
        if self._d2d_listening:
            self.medium.unlisten(self)
            self._d2d_listening = False
        self.ledger.command()
        phy_bytes = frame.app_bytes + phy.FRAME_OVERHEAD_BYTES
        self._send(cmd.freq_hz, cmd.dr, cmd.power_dbm, phy_bytes, kind, frame, start,
                   phy.time_on_air_us(cmd.dr, phy_bytes))
        return start

    def d2d_listen_on(self) -> None:
        if self._d2d_listening:
            return
        self._d2d_listening = True
        self.ledger.command()
        self.ledger.set_state(self.engine.now_us, "rx")
        self.medium.listen(self, self.session.cmd.freq_hz, self.session.cmd.dr, "d2d")

    def d2d_listen_off(self) -> None:
        if not self._d2d_listening:
            return
        self._d2d_listening = False
        self.medium.unlisten(self)
        self.ledger.set_state(self.engine.now_us, "sleep")

    def session_finished(self) -> None:
        session = self.session
        self.session_history.append(session)
        self.session = None
        self.engine.trace("d2d_finished", self.eid, state=session.state.value,
                          reason=session.fail_reason or "",
                          packets_acked=session.packets_acked)
        self.mac_state = MacState.SLEEP
        now = self.engine.now_us
        if self._next_nominal_us < now:
            periods = (now - self.phase_us + self.period_us - 1) // self.period_us
            self._next_nominal_us = self.phase_us + periods * self.period_us
        self.engine.trace("resume", self.eid, next_uplink_us=self._next_nominal_us)
        self._schedule_next_uplink()

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "dev_addr": self.dev_addr,
            "mac_state": self.mac_state.value,
            "fcnt_up": self.fcnt_up,
            "uplinks_sent": self.fcnt_up,
            **self.counters,
            "app_bytes_received": sum(b for _, b in self.app_deliveries),
            "duty": self.duty.audit(self.engine.now_us),
        }
