"""Gateway and network server.

The gateway is a dumb pipe: it decodes whatever its channels carry and hands
frames to the server after a fixed backhaul delay.  Downlinks go back out
through a gateway, which can serve one transmission at a time and keeps its
own duty-cycle ledger.

The network server owns addressing, frame-counter deduplication, per-device
downlink queues, relaying of application payloads between devices, and the
planning of D2D sessions.  An uplink or join request heard by several
gateways is handled once, through the first gateway that forwards it; a join
request is answered once, with one JoinAccept.  A queued downlink is placed
into the first receive window of the next uplink where it fits (payload small
enough for the window's data rate, gateway idle, duty budget available),
falling back to the second window, otherwise it stays queued for a later
uplink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import d2d, phy, regulator
from .mac import (JOIN_ACCEPT_PHY_BYTES, JoinAccept, JoinRequest,
                  LoRaWANDownlink, LoRaWANUplink, ReceiveWindows)
from .scenario import DeviceSpec, GatewaySpec


class PlanError(ValueError):
    """A scenario action the server cannot carry out as asked."""


class InfeasiblePlanError(PlanError):
    """Setup delivery timing cannot guarantee the scanner listens first."""


class DownlinkError(ValueError):
    """A queued payload that fits no receive window at any time."""


@dataclass
class DeviceRecord:
    """What the server knows of a device: its provisioning, as its spec, and
    the state the server keeps for it."""

    spec: DeviceSpec
    dev_addr: int | None   # the spec's, or the one assigned at join
    queue: list[LoRaWANDownlink] = field(default_factory=list)   # pending, FIFO
    fcnt_down: int = 0   # FCntDown of the next downlink queued
    fcnt_up: int = 0     # FCnt a new uplink must reach; lower ones are copies
    dev_nonce: int = 0   # DevNonce of the last join request handled
    uplinks: int = 0     # data uplinks handled


@dataclass(eq=False)
class TransferState:
    """One relayed transfer and its record; each downlink that carries a
    chunk of it holds it, and the destination files its deliveries here."""

    source_addr: int
    dest_addr: int
    total_bytes: int
    port: int = 1
    bytes_relayed: int = 0
    chunks_relayed: int = 0
    first_uplink_us: int | None = None   # start of the first relayed uplink
    deliveries: list[tuple[int, int]] = field(default_factory=list)   # (t_us, bytes)


class Gateway:
    def __init__(self, engine, medium, server, spec: GatewaySpec, *,
                 backhaul_delay_s: float, bands, duty_enforced: bool):
        self.engine = engine
        self.medium = medium
        self.eid = spec.eid
        self.channels_hz = frozenset(spec.channels_hz)
        self.tx_power_dbm = spec.tx_power_dbm
        self.backhaul_us = round(backhaul_delay_s * 1e6)
        self.duty = regulator.DutyLedger(bands=bands, enforced=duty_enforced)
        self.busy_until_us = 0
        self.server = server
        self.counters = {"uplinks_decoded": 0, "downlinks_transmitted": 0}
        medium.register_position(spec.eid, spec.position)
        medium.listen_gateway(self)

    def on_frame_decoded(self, tx: phy.Transmission) -> None:
        self.counters["uplinks_decoded"] += 1
        self.engine.schedule(self.engine.now_us + self.backhaul_us,
                             self._forward, tx, kind="backhaul", target=self.eid)

    def _forward(self, tx: phy.Transmission) -> None:
        self.server.on_uplink(tx, self)

    def can_transmit(self, freq_hz: int, start_us: int) -> bool:
        if start_us < self.busy_until_us:
            return False
        return self.duty.next_allowed_us(freq_hz, start_us) <= start_us

    def transmit(self, frame, *, freq_hz: int, dr: int, phy_payload_bytes: int,
                 start_us: int, kind: str) -> phy.Transmission:
        toa = phy.time_on_air_us(dr, phy_payload_bytes)
        self.duty.record_transmission(freq_hz, start_us, toa)
        tx = phy.Transmission(
            start_us=start_us, duration_us=toa, freq_hz=freq_hz, dr=dr,
            tx_power_dbm=self.tx_power_dbm, phy_payload_bytes=phy_payload_bytes,
            source=self.eid, kind=kind, frame=frame,
        )
        self.busy_until_us = tx.end_us
        self.medium.begin_tx(tx, owner=self)
        return tx

    def on_own_tx_end(self, tx: phy.Transmission) -> None:
        self.counters["downlinks_transmitted"] += 1


class NetworkServer:
    def __init__(self, engine, *, windows: ReceiveWindows, join_success_prob: float):
        self.engine = engine
        self.windows = windows
        self.join_success_prob = join_success_prob
        self.devices: dict[int, DeviceRecord] = {}
        self.by_eid: dict[str, DeviceRecord] = {}
        self.transfers: list[TransferState] = []
        self.plans: list[d2d.SessionPlan] = []   # every directive, in firing order
        self.next_dev_addr = 0x0100_0001
        self.rng = engine.rng.stream("netserver")
        self.counters = {
            "uplinks": 0, "dedup_drops": 0, "downlinks_scheduled": 0,
            "downlinks_rw1": 0, "downlinks_rw2": 0, "downlinks_deferred": 0,
            "setups_sent": 0, "joins_accepted": 0, "joins_dropped": 0,
        }

    # -- registration --------------------------------------------------------

    def register_device(self, spec: DeviceSpec) -> None:
        """Know the device; a pre-joined one is also reachable by its address."""
        record = self.by_eid[spec.eid] = DeviceRecord(spec, spec.dev_addr)
        if spec.prejoined:
            self.devices[spec.dev_addr] = record

    def _joined(self, eids: tuple[str, ...], error: str) -> list[DeviceRecord]:
        """The named devices' records; PlanError(error) unless the server
        has accepted each one's join."""
        records = [self.by_eid[eid] for eid in eids]
        if any(r.dev_addr not in self.devices for r in records):
            raise PlanError(error)
        return records

    # -- scenario actions ------------------------------------------------------

    def start_transfer(self, spec) -> None:
        """Open a scenario's relayed transfer, or count and trace its failure."""
        try:
            src, dst = self._joined((spec.source, spec.dest),
                                    "transfer endpoints must both be joined")
            self._check_fits(dst, min(src.spec.app_payload_bytes, spec.total_bytes), PlanError)
        except PlanError as exc:
            self.engine.count("transfer_failed")
            self.engine.trace("transfer_failed", "ns", source=spec.source,
                              dest=spec.dest, error=str(exc))
            return
        self.transfers.append(TransferState(src.dev_addr, dst.dev_addr,
                                            spec.total_bytes, spec.port))

    def start_directive(self, spec) -> None:
        """Plan a scenario directive's session and queue both setups, the
        scanner's first, each carrying its plan.  The plan joins ``plans``
        first, so a failed directive keeps its place there, with the
        planner's message as its error, and is counted and traced.  The
        directive passed ``Scenario.validate``, so its link is sound."""
        plan = d2d.SessionPlan(spec.initiator, spec.scanner, self.engine.now_us,
                               spec.exchange)
        self.plans.append(plan)
        try:
            init, scan = self._joined((spec.initiator, spec.scanner),
                                      "session participants must both be joined")
            self._check_timing(spec, init, scan)
        except PlanError as exc:
            plan.error = str(exc)
            self.engine.count("d2d_plan_failed")
            self.engine.trace("d2d_plan_failed", "ns", initiator=spec.initiator,
                              scanner=spec.scanner, error=plan.error)
            return
        for record, role, t1_s, peer in ((scan, d2d.Role.SCANNER, spec.t1_scanner_s, init),
                                         (init, d2d.Role.INITIATOR, spec.t1_initiator_s, scan)):
            cmd = d2d.D2DSetupCommand(role=role, freq_hz=spec.freq_hz, dr=spec.dr,
                                      power_dbm=spec.power_dbm, t1_s=t1_s,
                                      t2_s=spec.t2_s, peer_addr=peer.dev_addr)
            self.enqueue_downlink(record.dev_addr, d2d.SETUP_PORT, d2d.SETUP_WIRE_BYTES,
                                  payload=d2d.encode_setup(cmd), plan=plan)
            self.counters["setups_sent"] += 1
        self.engine.trace("d2d_planned", "ns", initiator_addr=init.dev_addr,
                          scanner_addr=scan.dev_addr, freq_hz=spec.freq_hz, dr=spec.dr,
                          power_dbm=spec.power_dbm, t1_initiator_s=spec.t1_initiator_s,
                          t1_scanner_s=spec.t1_scanner_s, t2_s=spec.t2_s)

    # -- uplink path -----------------------------------------------------------

    def on_uplink(self, tx: phy.Transmission, gw: Gateway) -> None:
        """Handle each frame once: a device's frames arrive in the order it
        sent them, so a copy from another gateway, or a replay, carries an
        FCnt or DevNonce that does not pass the one on its record."""
        frame = tx.frame
        if isinstance(frame, JoinRequest):
            record = self.by_eid.get(frame.eid)
            if record is None:
                return
            if frame.dev_nonce <= record.dev_nonce:
                self.counters["dedup_drops"] += 1
                return
            record.dev_nonce = frame.dev_nonce
            self._on_join_request(tx, record, gw)
            return
        if not isinstance(frame, LoRaWANUplink) or frame.dev_addr not in self.devices:
            return
        record = self.devices[frame.dev_addr]
        if frame.fcnt < record.fcnt_up:
            self.counters["dedup_drops"] += 1
            return
        record.fcnt_up = frame.fcnt + 1
        record.uplinks += 1
        self.counters["uplinks"] += 1
        self._relay(tx)
        self._try_place_downlink(record, tx, gw)

    def _relay(self, tx: phy.Transmission) -> None:
        """Credit an uplink's payload to the earliest open transfer from its
        source; what that transfer does not need is not relayed."""
        frame = tx.frame
        if frame.app_bytes <= 0:
            return
        for tr in self.transfers:
            if tr.source_addr != frame.dev_addr or tr.bytes_relayed >= tr.total_bytes:
                continue
            if tr.first_uplink_us is None:
                tr.first_uplink_us = tx.start_us
            n = min(frame.app_bytes, tr.total_bytes - tr.bytes_relayed)
            tr.bytes_relayed += n
            tr.chunks_relayed += 1
            self.enqueue_downlink(tr.dest_addr, tr.port, n, transfer=tr)
            return

    # -- downlink path -----------------------------------------------------------

    def enqueue_downlink(self, dev_addr: int, port: int, app_bytes: int,
                         **out_of_band) -> None:
        """Queue a downlink under the device's next FCntDown; ``out_of_band``
        sets its ``payload``, ``plan`` or ``transfer``.  A queue is sent in
        order and nothing leaves it unsent, so FCntDown runs in sending order."""
        if dev_addr not in self.devices:
            raise DownlinkError(f"0x{dev_addr:08x} is not a joined device")
        record = self.devices[dev_addr]
        self._check_fits(record, app_bytes, DownlinkError)
        record.queue.append(LoRaWANDownlink(dev_addr, record.fcnt_down, port, app_bytes,
                                            **out_of_band))
        record.fcnt_down += 1

    @staticmethod
    def _fits(dr: int, phy_bytes: int) -> bool:
        return phy_bytes <= phy.data_rate(dr).max_mac_payload_bytes

    def _check_fits(self, record: DeviceRecord, app_bytes: int, error: type) -> None:
        """Raise `error` unless a downlink of `app_bytes` to `record` fits
        its first or its second receive window."""
        phy_bytes = app_bytes + phy.FRAME_OVERHEAD_BYTES
        rx2_dr, dr = self.windows.rx2_dr, record.spec.dr
        if not self._fits(rx2_dr, phy_bytes) and not self._fits(dr, phy_bytes):
            raise error(
                f"{app_bytes} application bytes fit neither receive window "
                f"(uplink DR{dr}, RX2 DR{rx2_dr})")

    def _send_in_window(self, uplink: phy.Transmission, gw: Gateway, frame,
                        phy_bytes: int, kind: str) -> int | None:
        """Send ``frame`` through ``gw`` in the first receive window after
        ``uplink`` that has not opened yet (a long backhaul can bring the
        uplink in late), whose data rate carries ``phy_bytes`` and in which
        ``gw`` may transmit, the gateway being idle and within its duty
        budget.  Returns that window's number, or None if neither qualifies
        and nothing was sent."""
        now = self.engine.now_us
        for window, start, freq, dr in self.windows.after(uplink):
            if start >= now and self._fits(dr, phy_bytes) and gw.can_transmit(freq, start):
                gw.transmit(frame, freq_hz=freq, dr=dr, phy_payload_bytes=phy_bytes,
                            start_us=start, kind=kind)
                return window
        return None

    def _try_place_downlink(self, record: DeviceRecord, uplink: phy.Transmission,
                            gw: Gateway) -> None:
        if not record.queue:
            return
        frame = record.queue[0]
        window = self._send_in_window(uplink, gw, frame,
                                      frame.app_bytes + phy.FRAME_OVERHEAD_BYTES, "downlink")
        if window is None:
            self.counters["downlinks_deferred"] += 1
            return
        record.queue.pop(0)
        self.counters["downlinks_scheduled"] += 1
        self.counters[f"downlinks_rw{window}"] += 1
        if self.engine.trace_enabled:
            self.engine.trace("downlink_scheduled", "ns", dev_addr=record.dev_addr,
                              window=window, port=frame.port, bytes=frame.app_bytes)

    # -- join ---------------------------------------------------------------

    def _on_join_request(self, tx: phy.Transmission, record: DeviceRecord,
                         gw: Gateway) -> None:
        if self.rng.random() >= self.join_success_prob:
            self.counters["joins_dropped"] += 1
            return
        if record.dev_addr is None:
            while self.next_dev_addr in self.devices:   # held by a pre-joined device
                self.next_dev_addr += 1
            record.dev_addr = self.next_dev_addr
            self.next_dev_addr += 1
        accept = JoinAccept(record.spec.eid, record.dev_addr)
        if self._send_in_window(tx, gw, accept, JOIN_ACCEPT_PHY_BYTES, "join_accept") is None:
            self.counters["joins_dropped"] += 1
            return
        self.devices[record.dev_addr] = record
        self.counters["joins_accepted"] += 1

    # -- D2D planning ------------------------------------------------------------

    def _setup_delivery_s(self, record: DeviceRecord) -> tuple[float, float]:
        """(earliest, latest) trigger-to-setup-delivery, assuming no losses;
        the latest waits a whole jittered period for the uplink."""
        dev = record.spec
        toa_up = phy.time_on_air(dev.dr, dev.app_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        setup_phy = d2d.SETUP_WIRE_BYTES + phy.FRAME_OVERHEAD_BYTES
        rw1 = self.windows.receive_delay1_s + phy.time_on_air(dev.dr, setup_phy)
        rw2 = self.windows.receive_delay2_s + phy.time_on_air(self.windows.rx2_dr, setup_phy)
        wait = dev.period_s * (1.0 + dev.jitter_frac)
        return toa_up + min(rw1, rw2), wait + toa_up + max(rw1, rw2)

    def _check_timing(self, spec, initiator: DeviceRecord, scanner: DeviceRecord) -> None:
        """Raise InfeasiblePlanError when the directive's T1 split cannot
        guarantee that the scanner is listening before the initiator's first
        transmission, or when the scanner's window may close before that
        transmission lands."""
        init_earliest, init_latest = self._setup_delivery_s(initiator)
        scan_earliest, scan_latest = self._setup_delivery_s(scanner)
        gap = spec.t1_initiator_s - spec.t1_scanner_s
        needed = scan_latest - init_earliest
        if gap < needed:
            raise InfeasiblePlanError(
                f"T1 gap {gap:.3f} s cannot cover worst-case setup skew "
                f"{needed:.3f} s; the scanner may still be asleep when the "
                "initiator first transmits")
        data_toa_s = phy.time_on_air(
            spec.dr, spec.exchange.data_payload_bytes + phy.FRAME_OVERHEAD_BYTES)
        latest_first_tx = init_latest + spec.t1_initiator_s + data_toa_s
        earliest_deadline = scan_earliest + spec.t2_s
        if latest_first_tx > earliest_deadline:
            raise InfeasiblePlanError(
                f"scanner window (T2 {spec.t2_s:.1f} s) may close "
                f"{latest_first_tx - earliest_deadline:.3f} s before the "
                "initiator's first frame lands")
