"""Discrete-event core: clock, event queue, seeded RNG streams, radio medium.

The clock is integer microseconds.  Events execute in (time, sequence) order
where sequence is assigned at scheduling time, so equal timestamps resolve in
scheduling order and a (seed, scenario) pair always replays to the identical
trace.  An event is its own heap entry, the list ``[t_us, seq, fn, data]``;
:meth:`Engine.cancel` clears its ``fn`` and the loop drops it when it is
popped.  Randomness is split into named substreams derived from the master
seed with a hash, so adding an entity never perturbs the draws of another.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from heapq import heappop, heappush

from . import phy


class SimulationError(RuntimeError):
    pass


_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(value: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiply) pairs of a SeedSequence hash's first n calls; its
    constant advances the same way whatever the data."""
    pairs = []
    for _ in range(n):
        pairs.append((value, value * mult & _M32))
        value = pairs[-1][1]
    return pairs


def _hashmix(value: int, pair: tuple[int, int]) -> int:
    value = (value ^ pair[0]) * pair[1] & _M32
    return value ^ value >> 16


_MIX_HASH = _hash_constants(0x43b0d7e5, 0x931e8875, 16)
_STATE_HASH = _hash_constants(0x8b51f9dd, 0x58f38ded, 8)
_POOL_TAIL = [_hashmix(0, _MIX_HASH[2]), _hashmix(0, _MIX_HASH[3])]
_MIX_ORDER = [(src, dst, _MIX_HASH[k]) for k, (src, dst) in enumerate(
    ((s, d) for s in range(4) for d in range(4) if s != d), start=4)]


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``, for a seed
    below 2**64: its entropy is always ``[lo32, hi32, 0, 0]``, so the two zero
    words hash to constants and the pool needs no third mixing loop."""
    pool = [_hashmix(seed & _M32, _MIX_HASH[0]), _hashmix(seed >> 32, _MIX_HASH[1]),
            *_POOL_TAIL]
    for src, dst, pair in _MIX_ORDER:
        x = (0xca01f9dd * pool[dst] - 0x4973f715 * _hashmix(pool[src], pair)) & _M32
        pool[dst] = x ^ x >> 16
    halves = [_hashmix(pool[i & 3], pair) for i, pair in enumerate(_STATE_HASH)]
    return [halves[i] | halves[i + 1] << 32 for i in (0, 2, 4, 6)]


class Draws:
    """One PCG64 stream, computed in Python bit for bit as numpy's
    ``PCG64(seed)`` and drawn as its ``Generator.random()`` and
    ``Generator.integers(0, n)`` would.

    The state is a 128-bit LCG, stepped before each output; an output is the
    XSL-RR of the new state.  ``random`` is ``(x >> 11) * 2**-53`` of the next
    64-bit output.  ``below(n)`` is numpy's 32-bit Lemire rule, rejection loop
    included, fed 32 bits at a time: a 64-bit output gives its low half and
    keeps the high half for the next 32-bit draw, which ``random`` does not
    disturb.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} outside 0..2**64-1")
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        self._high: int | None = None  # upper half of a raw output, not yet drawn

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return (x << 64 | x) >> (s >> 122) & _M64   # x rotated right

    def _next32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        x = self._next64()
        self._high = x >> 32
        return x & _M32

    def random(self) -> float:
        # _next64, inlined: this is the hottest draw
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return ((x << 64 | x) >> (s >> 122) + 11 & _M53) * 2.0 ** -53

    def below(self, n: int) -> int:
        """``integers(0, n)`` for 1 <= n <= 2**32; n == 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"bound {n} outside 1..2**32")
        if n == 1:
            return 0
        m = self._next32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = ((1 << 32) - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * n
        return m >> 32


class RngManager:
    """Named, reproducible random substreams below one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: dict[str, Draws] = {}

    def stream(self, label: str) -> Draws:
        draws = self._streams.get(label)
        if draws is None:
            digest = hashlib.sha256(f"{self.master_seed}:{label}".encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
            draws = self._streams[label] = Draws(seed)
        return draws


class Engine:
    """Clock, event queue, RNG streams, counters and trace of one run.

    Each pending event is one heap entry, the list ``[t_us, seq, fn, data]``,
    which :meth:`schedule` pushes and returns as the event's handle.  ``seq``
    is unique and rises with every call, so entries never compare past it
    and equal times run in scheduling order.  :meth:`cancel` sets the
    entry's ``fn`` to None; the entry stays in the heap until its time and
    :meth:`run` then drops it without counting it in ``events_executed``.
    """

    def __init__(self, seed: int = 0, trace: bool = True):
        self.now_us = 0
        self.rng = RngManager(seed)
        self.trace_enabled = trace
        self.trace_records: list[dict] = []
        self.counters: dict[str, int] = {}
        self._heap: list[list] = []
        self._seq = 0
        self.events_executed = 0

    def schedule(self, t_us: int, fn, data=None, kind: str = "", target: str = "") -> list:
        """Call ``fn(data)`` at ``t_us``; return the event's heap entry.

        ``kind`` and ``target`` label the event for observers that wrap this
        method, such as the benchmark probes; they are not stored.
        """
        if t_us < self.now_us:
            raise SimulationError(f"cannot schedule {kind or fn} at {t_us} before now {self.now_us}")
        self._seq = seq = self._seq + 1
        entry = [t_us, seq, fn, data]
        heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        """Stop a scheduled event from running; harmless once it has run."""
        entry[2] = None

    def run(self, until_us: int | None = None) -> None:
        heap = self._heap
        horizon = float("inf") if until_us is None else until_us
        while heap and heap[0][0] <= horizon:
            t_us, _, fn, data = heappop(heap)
            if fn is None:
                continue
            self.now_us = t_us
            self.events_executed += 1
            fn(data)
        if until_us is not None and until_us > self.now_us:
            self.now_us = until_us

    def count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def trace(self, kind: str, entity: str, **fields) -> None:
        if not self.trace_enabled:
            return
        rec = {"t_us": self.now_us, "entity": entity, "kind": kind}
        rec.update(fields)
        self.trace_records.append(rec)

    def trace_jsonl(self) -> str:
        return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in self.trace_records)


# -- radio medium -----------------------------------------------------------


# IQ polarity class of each frame kind.  LoRaWAN sends uplinks and join
# requests with normal IQ and downlinks and join-accepts with inverted IQ, so
# an end device cannot demodulate another device's uplink, nor a gateway a
# downlink.  The paper gives D2D frames no polarity; as a modelling choice
# they form a class of their own, heard by D2D listeners only.
POLARITY = {
    "uplink": "up", "join_request": "up",
    "downlink": "down", "join_accept": "down",
    "d2d_data": "d2d", "d2d_ack": "d2d",
}


DECODED = "decoded"
COLLISION = "collision"
BELOW_SENSITIVITY = "below_sensitivity"


class Medium:
    """Tracks in-flight transmissions and arbitrates receptions.

    Only frames on the same frequency, data rate and IQ polarity class (see
    :data:`POLARITY`) lock or disturb a receiver, so frames and end-device
    listeners are kept in buckets under the key ``(freq_hz, dr, polarity)``.
    Each LoRa data rate is one (spreading factor, bandwidth) pair, so a
    bucket holds one rate and is judged against that rate's sensitivity
    floor.  A frame bucket holds only the frames on the air: a frame joins
    it at its start and leaves it at its end.  A frame's rivals are the
    co-bucket frames that were on the air at some moment during it: when a
    frame starts, it and each frame still on the air add each other.  A
    listener names the polarity it demodulates: receive windows listen for
    ``down``, D2D sessions for ``d2d``.  A gateway is a listener too, filed
    in the ``up`` bucket of every data rate on each of its channels from
    time 0.  Reception is decided at each frame's end by :meth:`capture`,
    once for every listener in the frame's bucket.  Which frames hold a
    listener is read from the frames on the air, by :meth:`lock_until_us`.
    """

    def __init__(self, engine: Engine, radio: phy.RadioModel):
        self.engine = engine
        self.radio = radio
        self._floor_dbm = radio.sensitivity_dbm   # sensitivity floor by data rate index
        self.capture_threshold_db = radio.capture_threshold_db
        self.d2d_frame_loss_prob = radio.d2d_frame_loss_prob
        # frames on the air, as (tx, rivals), keyed by the id of the rival
        # list: begin_tx makes a fresh one per frame
        self._on_air: defaultdict[tuple, dict[int, tuple]] = defaultdict(dict)
        # end device eid -> bucket key; bucket -> {eid: (entity, opened_us)}
        self._listeners: dict[str, tuple] = {}
        self._tuned: defaultdict[tuple, dict[str, tuple]] = defaultdict(dict)
        self._positions: dict[str, tuple[float, float]] = {}
        # path loss to a receiver, by source; one dict per receiver rather
        # than (source, receiver) tuple keys, which would cost a tuple each
        self._pl_cache: dict[str, dict[str, float]] = {}

    def register_position(self, eid: str, position: tuple[float, float]) -> None:
        self._positions[eid] = position
        self._pl_cache.setdefault(eid, {})

    def _rssi(self, tx: phy.Transmission, dst: str) -> float:
        row = self._pl_cache[dst]
        pl = row.get(tx.source)
        if pl is None:
            a = self._positions[tx.source]
            b = self._positions[dst]
            d = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
            pl = row[tx.source] = self.radio.path_loss_db(max(d, 1e-3))
        return tx.tx_power_dbm - pl

    # -- listener management --------------------------------------------

    def listen(self, entity, freq_hz: int, dr: int, polarity: str) -> None:
        """Tune ``entity`` to frames of one polarity class on (freq_hz, dr)."""
        eid = entity.eid
        if not 0 <= dr <= 7:
            phy.data_rate(dr)   # raises PhyError
        key = (freq_hz, dr, polarity)
        prev = self._listeners.get(eid)
        if prev is not None:
            del self._tuned[prev][eid]
        self._listeners[eid] = key
        self._tuned[key][eid] = (entity, self.engine.now_us)

    def unlisten(self, entity) -> None:
        key = self._listeners.pop(entity.eid, None)
        if key is not None:
            del self._tuned[key][entity.eid]

    def lock_until_us(self, eid: str) -> int:
        """Latest end of the frames on the air in listener ``eid``'s bucket,
        above its floor and not its own; 0 if none or not listening."""
        key = self._listeners.get(eid)
        on_air = self._on_air.get(key)
        if not on_air:
            return 0
        floor = self._floor_dbm[key[1]]
        lock = 0
        for tx, _ in on_air.values():
            if tx.end_us > lock and tx.source != eid and self._rssi(tx, eid) >= floor:
                lock = tx.end_us
        return lock

    def listen_gateway(self, gateway) -> None:
        """Hear uplinks at every data rate on each of ``gateway.channels_hz``."""
        for freq_hz in gateway.channels_hz:
            for dr in range(len(phy.DATA_RATES)):
                self._tuned[(freq_hz, dr, "up")][gateway.eid] = (gateway, 0)

    # -- transmission ----------------------------------------------------

    def begin_tx(self, tx: phy.Transmission, owner) -> None:
        if tx.start_us < self.engine.now_us:
            raise SimulationError("transmission starts in the past")
        polarity = POLARITY.get(tx.kind)
        if polarity is None:
            raise SimulationError(f"transmission kind {tx.kind!r} has no IQ polarity")
        dr = tx.dr
        if not 0 <= dr <= 7:
            phy.data_rate(dr)   # raises PhyError
        key = (tx.freq_hz, dr, polarity)
        self.engine.schedule(tx.start_us, self._tx_start, (tx, owner, key, []),
                             kind="tx_start", target=tx.source)

    def _tx_start(self, data) -> None:
        tx, owner, key, rivals = data
        on_air = self._on_air[key]
        # A frame that ends as tx starts, but whose tx_end has not run yet,
        # does not overlap tx: frames hold the air over [start, end).
        for other, other_rivals in on_air.values():
            if other.end_us > tx.start_us:
                other_rivals.append(tx)
                rivals.append(other)
        on_air[id(rivals)] = (tx, rivals)
        engine = self.engine
        if engine.trace_enabled:
            engine.trace("tx_start", tx.source, freq_hz=tx.freq_hz, dr=tx.dr,
                         bytes=tx.phy_payload_bytes, frame=tx.kind, dur_us=tx.duration_us)
        on_start = getattr(owner, "on_own_tx_start", None)
        if on_start is not None:
            on_start(tx)
        engine.schedule(tx.end_us, self._tx_end, data, kind="tx_end", target=tx.source)

    def _tx_end(self, data) -> None:
        tx, owner, key, rivals = data
        if self.engine.trace_enabled:
            self.engine.trace("tx_end", tx.source, frame=tx.kind)
        del self._on_air[key][id(rivals)]
        self._deliver(tx, key, rivals)
        if owner is not None:
            owner.on_own_tx_end(tx)

    # -- reception -------------------------------------------------------

    def capture(self, tx: phy.Transmission, rivals: list[phy.Transmission],
                dst_eid: str, window0_us: int) -> str:
        """Outcome of frame tx at receiver dst_eid, listening since window0_us.

        rivals are the other frames in tx's bucket (same frequency, data rate
        and polarity) that share air with tx, so one sensitivity floor, that
        of tx's data rate, judges them all.  tx is lost below it.  Otherwise
        it collides with any rival that dst_eid did not send, that was still
        on the air after window0_us, that is itself above the floor and that
        tx does not beat by the capture threshold.
        """
        floor = self._floor_dbm[tx.dr]
        r = self._rssi(tx, dst_eid)
        if r < floor:
            return BELOW_SENSITIVITY
        for other in rivals:
            if other.source == dst_eid or other.end_us <= window0_us:
                continue
            r_other = self._rssi(other, dst_eid)
            if r_other >= floor and r < r_other + self.capture_threshold_db:
                return COLLISION
        return DECODED

    def _deliver(self, tx: phy.Transmission, key: tuple, rivals: list[phy.Transmission]) -> None:
        engine = self.engine
        tuned = self._tuned[key]
        # A callback below may close a listener not yet visited, hence the
        # fresh lookup of each (entity, opened_us) in the bucket.  A listener
        # retuned or (re)opened during delivery is either gone from the
        # bucket or opens at now == tx.end_us, so the window check skips it:
        # visiting the bucket as it stood when tx ended loses no receiver.
        for eid in sorted(tuned):
            listener = tuned.get(eid)
            if listener is None or eid == tx.source:
                continue
            entity, opened_us = listener
            if not tx.overlaps(opened_us, engine.now_us + 1):
                continue
            outcome = self.capture(tx, rivals, eid, opened_us)
            if outcome == DECODED and key[2] == "d2d" and self.d2d_frame_loss_prob > 0.0:
                draw = engine.rng.stream(f"d2dloss:{eid}").random()
                if draw < self.d2d_frame_loss_prob:
                    engine.count("d2d_frames_lost")
                    if engine.trace_enabled:
                        engine.trace("drop", eid, reason="d2d_loss", source=tx.source)
                    continue
            self._report(tx, entity, outcome)

    def _report(self, tx: phy.Transmission, receiver, outcome: str) -> None:
        """Trace ``outcome`` at ``receiver``; hand it tx if decoded, else count it."""
        engine = self.engine
        if outcome == DECODED:
            if engine.trace_enabled:
                engine.trace("decode", receiver.eid, source=tx.source, frame=tx.kind,
                             bytes=tx.phy_payload_bytes)
            receiver.on_frame_decoded(tx)
        else:
            engine.count(outcome)
            if engine.trace_enabled:
                engine.trace("drop", receiver.eid, reason=outcome, source=tx.source)
