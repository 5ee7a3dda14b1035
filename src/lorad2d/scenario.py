"""Scenario files: what gets simulated, as plain dataclasses plus JSON.

A scenario document carries the schema tag ``scenario/1``.  Loading is strict:
unknown keys, missing keys or out-of-range values raise ScenarioError with the
offending key path, so a typo in a hand-written file fails loudly instead of
silently running a different experiment.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field
from importlib import resources

from . import d2d, phy, regulator
from .energy import DEFAULT_PROFILE, PowerProfile

SCENARIO_SCHEMA = "scenario/1"

DEFAULT_CHANNELS_HZ = [868_100_000, 868_300_000, 868_500_000]
DEFAULT_RX2_FREQ_HZ = 869_525_000
DEFAULT_RX2_DR = 3
# Positions lie within this distance of the origin on each axis: 10,000 km,
# past any radio link and far inside what a float can square.
MAX_COORDINATE_M = 1e7


class ScenarioError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class DeviceSpec:
    eid: str
    position: tuple[float, float] = (0.0, 0.0)
    dev_addr: int | None = None
    period_s: float = 300.0
    phase_s: float = 0.0
    jitter_frac: float = 0.01
    dr: int = 0
    tx_power_dbm: int = 14
    app_payload_bytes: int = 12
    channels_hz: list[int] = field(default_factory=lambda: list(DEFAULT_CHANNELS_HZ))
    max_uplinks: int | None = None
    prejoined: bool = True


@dataclass
class GatewaySpec:
    eid: str
    position: tuple[float, float] = (0.0, 0.0)
    channels_hz: list[int] = field(default_factory=lambda: list(DEFAULT_CHANNELS_HZ))
    tx_power_dbm: int = 14


@dataclass
class TransferSpec:
    source: str
    dest: str
    total_bytes: int
    at_s: float = 0.0
    port: int = 1


@dataclass
class D2DDirectiveSpec:
    at_s: float
    initiator: str
    scanner: str
    freq_hz: int
    dr: int
    power_dbm: int = 14
    t1_initiator_s: float = 15.0
    t1_scanner_s: float = 0.0
    t2_s: float = 30.0
    exchange: d2d.ExchangeParams = field(default_factory=d2d.ExchangeParams)


@dataclass
class Scenario:
    name: str
    end_time_s: float
    description: str = ""
    seed: int = 0
    rx2_freq_hz: int = DEFAULT_RX2_FREQ_HZ
    rx2_dr: int = DEFAULT_RX2_DR
    receive_delay1_s: float = 1.0
    receive_delay2_s: float = 2.0
    preamble_detect_symbols: int = 8
    backhaul_delay_s: float = 0.05
    duty_cycle_enforced: bool = True
    join_success_prob: float = 1.0
    radio: phy.RadioModel = field(default_factory=phy.RadioModel)
    bands: tuple[regulator.SubBand, ...] = regulator.DEFAULT_BANDS
    profile: PowerProfile = DEFAULT_PROFILE
    devices: list[DeviceSpec] = field(default_factory=list)
    gateways: list[GatewaySpec] = field(default_factory=list)
    transfers: list[TransferSpec] = field(default_factory=list)
    d2d_directives: list[D2DDirectiveSpec] = field(default_factory=list)

    # -- validation -------------------------------------------------------

    def validate(self) -> "Scenario":
        if not self.name:
            raise ScenarioError("name", "must be a non-empty string")
        if not 0 < self.end_time_s < math.inf:
            raise ScenarioError("end_time_s", "must be positive and finite")
        if not self.bands:
            raise ScenarioError("bands", "needs at least one sub-band")
        try:
            regulator.validate_bands(self.bands)
        except regulator.RegulatorError as exc:
            raise ScenarioError("bands", str(exc)) from exc
        self._check_window_dr("rx2_dr", self.rx2_dr)
        self._check_freq("rx2_freq_hz", self.rx2_freq_hz)
        if not 0 < self.receive_delay1_s < math.inf:
            raise ScenarioError("receive_delay1_s", "must be positive and finite")
        if not self.receive_delay1_s < self.receive_delay2_s < math.inf:
            raise ScenarioError("receive_delay2_s", "second window must open after the first")
        if self.preamble_detect_symbols < 1:
            raise ScenarioError("preamble_detect_symbols", "must be at least 1")
        if not 0 <= self.backhaul_delay_s < math.inf:
            raise ScenarioError("backhaul_delay_s", "must be non-negative and finite")
        if not 0.0 <= self.join_success_prob <= 1.0:
            raise ScenarioError("join_success_prob", "must lie in [0, 1]")

        eids: set[str] = set()
        for i, dev in enumerate(self.devices):
            path = f"devices[{i}]"
            self._check_node(path, dev, eids)
            # the engine's clock counts whole microseconds
            if not 1e-6 <= dev.period_s < math.inf:
                raise ScenarioError(f"{path}.period_s",
                                    "must be finite and at least 1 microsecond")
            if not math.isfinite(dev.phase_s):
                raise ScenarioError(f"{path}.phase_s", "must be finite")
            if not 0.0 <= dev.jitter_frac < 0.5:
                raise ScenarioError(f"{path}.jitter_frac", "must lie in [0, 0.5)")
            self._check_window_dr(f"{path}.dr", dev.dr)
            self._check_power(f"{path}.tx_power_dbm", dev.tx_power_dbm)
            limit = phy.data_rate(dev.dr).max_app_payload_bytes
            if not 0 <= dev.app_payload_bytes <= limit:
                raise ScenarioError(
                    f"{path}.app_payload_bytes",
                    f"{dev.app_payload_bytes} exceeds the DR{dev.dr} limit of {limit}")
            self._check_channels(f"{path}.channels_hz", dev.channels_hz)
            if dev.max_uplinks is not None and dev.max_uplinks < 0:
                raise ScenarioError(f"{path}.max_uplinks", "must be non-negative")
            if dev.prejoined != (dev.dev_addr is not None):
                raise ScenarioError(f"{path}.dev_addr", "a pre-joined device needs an address; "
                                    "a joining one is given its address when it joins")
            if dev.dev_addr is not None and not 0 <= dev.dev_addr <= 0xFFFF_FFFF:
                raise ScenarioError(f"{path}.dev_addr", "must lie in 0..2**32-1")
        addrs = [d.dev_addr for d in self.devices if d.dev_addr is not None]
        if len(addrs) != len(set(addrs)):
            raise ScenarioError("devices", "device addresses must be unique")

        for i, gw in enumerate(self.gateways):
            self._check_node(f"gateways[{i}]", gw, eids)
            self._check_channels(f"gateways[{i}].channels_hz", gw.channels_hz)
            self._check_power(f"gateways[{i}].tx_power_dbm", gw.tx_power_dbm)

        device_ids = {d.eid for d in self.devices}
        for i, tr in enumerate(self.transfers):
            path = f"transfers[{i}]"
            for endpoint in ("source", "dest"):
                if getattr(tr, endpoint) not in device_ids:
                    raise ScenarioError(f"{path}.{endpoint}",
                                        f"unknown device {getattr(tr, endpoint)!r}")
            if tr.source == tr.dest:
                raise ScenarioError(f"{path}.dest", "source and dest must differ")
            if not tr.total_bytes > 0:
                raise ScenarioError(f"{path}.total_bytes", "must be positive")
            if not 0 <= tr.at_s < math.inf:
                raise ScenarioError(f"{path}.at_s", "must be non-negative and finite")
            # LoRaWAN FPort 1..223 carries application data
            if not 1 <= tr.port <= 223:
                raise ScenarioError(f"{path}.port", f"{tr.port} outside 1..223")
            if tr.port == d2d.SETUP_PORT:
                raise ScenarioError(f"{path}.port",
                                    f"{tr.port} is the D2D setup command port")

        for i, dd in enumerate(self.d2d_directives):
            path = f"d2d_directives[{i}]"
            for endpoint in ("initiator", "scanner"):
                if getattr(dd, endpoint) not in device_ids:
                    raise ScenarioError(f"{path}.{endpoint}",
                                        f"unknown device {getattr(dd, endpoint)!r}")
            if dd.initiator == dd.scanner:
                raise ScenarioError(f"{path}.scanner", "initiator and scanner must differ")
            if not 0 <= dd.at_s < math.inf:
                raise ScenarioError(f"{path}.at_s", "must be non-negative and finite")
            self._check_freq(f"{path}.freq_hz", dd.freq_hz)
            # a throwaway command per role runs the setup's range rules, the
            # scanner's first
            for role, t1_s in ((d2d.Role.SCANNER, dd.t1_scanner_s),
                               (d2d.Role.INITIATOR, dd.t1_initiator_s)):
                try:
                    d2d.D2DSetupCommand(role=role, freq_hz=dd.freq_hz, dr=dd.dr,
                                        power_dbm=dd.power_dbm, t1_s=t1_s,
                                        t2_s=dd.t2_s, peer_addr=0)
                except d2d.D2DCodecError as exc:
                    raise ScenarioError(path, str(exc)) from exc
        return self

    # Shared by devices and gateways; a device checks its own fields between
    # the two, which sets which of two faults is reported first.

    def _check_node(self, path: str, node, eids: set[str]) -> None:
        """Non-empty unique eid (added to eids) and a position within
        MAX_COORDINATE_M of the origin on each axis."""
        if not node.eid:
            raise ScenarioError(f"{path}.eid", "must be a non-empty string")
        if node.eid in eids:
            raise ScenarioError(f"{path}.eid", f"duplicate id {node.eid!r}")
        eids.add(node.eid)
        if not all(abs(v) <= MAX_COORDINATE_M for v in node.position):
            raise ScenarioError(f"{path}.position",
                                f"each coordinate must lie within {MAX_COORDINATE_M:g} m of 0")

    def _check_channels(self, path: str, channels_hz: list[int]) -> None:
        if not channels_hz:
            raise ScenarioError(path, "needs at least one channel")
        for j, freq in enumerate(channels_hz):
            self._check_freq(f"{path}[{j}]", freq)

    def _check_freq(self, path: str, freq_hz: int) -> None:
        try:
            regulator.classify(freq_hz, self.bands)
        except regulator.RegulatorError as exc:
            raise ScenarioError(path, str(exc)) from exc

    @staticmethod
    def _check_power(path: str, power_dbm: int) -> None:
        try:
            phy.check_tx_power(power_dbm)
        except phy.PhyError as exc:
            raise ScenarioError(path, str(exc)) from exc

    @staticmethod
    def _check_window_dr(path: str, dr: int) -> None:
        """A class A receive window is a count of preamble symbols, which
        this model defines for the LoRa rates DR0..DR6 only."""
        if not 0 <= dr <= 6:
            raise ScenarioError(path, f"DR{dr} has no receive window; use DR0..DR6")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Every setting, blocks as dicts; tuples stay tuples, which JSON writes as lists."""
        return {**asdict(self), "schema": SCENARIO_SCHEMA}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("$", "scenario document must be a JSON object")
        schema = doc.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError("schema", f"expected {SCENARIO_SCHEMA!r}, got {schema!r}")
        top = {key: value for key, value in doc.items() if key != "schema"}
        return _parse(cls, top, "$").validate()

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("$", f"not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


# -- parsing -------------------------------------------------------------
#
# One table-driven reader serves every block of the document.  Each dataclass
# field is a key, required exactly when the field has no default, and its type
# hint picks the conversion.  A bad primitive inside a list or tuple is
# reported at the container's path (``devices[0].position``); a nested
# object gets its own index (``devices[0]``).


def _parse(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ScenarioError(path, "expected an object")
    prefix = "" if path == "$" else f"{path}."
    kwargs = {}
    for name, exact, convert, required in _fields(cls):
        if name in doc:
            value = doc[name]
            kwargs[name] = value if type(value) in exact else convert(value, prefix + name)
        elif required:
            raise ScenarioError(prefix + name, "missing required key")
    try:
        obj = cls(**kwargs)
    except (regulator.RegulatorError, d2d.D2DProtocolError, phy.PhyError) as exc:
        key = getattr(exc, "field", None)   # the setting a PhyError names
        if key:
            raise ScenarioError(prefix + key, exc.reason) from exc
        raise ScenarioError(path, str(exc)) from exc
    if len(kwargs) != len(doc):
        raise ScenarioError(prefix + sorted(k for k in doc if k not in kwargs)[0],
                            "unknown key")
    return obj


_UNIONS = (typing.Union, types.UnionType)


@functools.cache
def _fields(cls) -> tuple:
    """(key, types taken as they are, converter, required) per field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, _exact(hints[f.name]), _converter(hints[f.name]),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls))


def _exact(hint) -> frozenset:
    """Value types that need no conversion or check: the hint's scalars and
    None.  A float is not one of them, since it must be finite."""
    args = typing.get_args(hint) if typing.get_origin(hint) in _UNIONS else (hint,)
    return frozenset(arg for arg in args if arg in (str, int, bool, type(None)))


def _converter(hint):
    origin = typing.get_origin(hint)
    if origin in _UNIONS:
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _converter(inner)   # None itself is taken as it is, see _exact
    if origin in (list, tuple):
        return _sequence(origin, typing.get_args(hint))
    if hasattr(hint, "from_dict"):
        return _self_reading(hint)
    if dataclasses.is_dataclass(hint):
        return functools.partial(_parse, hint)
    return _scalar(hint)


def _scalar(typ):
    def convert(value, path):
        if typ is int and isinstance(value, bool):
            raise ScenarioError(path, "expected an integer, got a boolean")
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if not isinstance(value, typ):
            raise ScenarioError(path, f"expected {typ.__name__}, got {type(value).__name__}")
        if typ is float and not math.isfinite(value):
            raise ScenarioError(path, f"must be a finite number, got {value}")
        return value
    return convert


def _sequence(origin, args):
    """list[T], tuple[T, ...] or a fixed-length tuple[T1, T2, ...]."""
    variadic = origin is list or args[-1] is Ellipsis
    readers = [(_exact(arg), _converter(arg)) for arg in (args[:1] if variadic else args)]
    indexed = dataclasses.is_dataclass(args[0])

    def convert(value, path):
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
        if not variadic and len(value) != len(readers):
            raise ScenarioError(path, f"expected a list of {len(readers)} items")
        items = []
        for i, item in enumerate(value):
            exact, read = readers[0 if variadic else i]
            items.append(item if type(item) in exact
                         else read(item, f"{path}[{i}]" if indexed else path))
        return items if origin is list else tuple(items)
    return convert


def _self_reading(cls):
    """A class that reads its own dict form (PowerProfile); the value types
    are checked here against its type hints."""
    def convert(value, path):
        if not isinstance(value, dict):
            raise ScenarioError(path, "expected an object")
        try:
            for name, exact, check, _ in _fields(cls):
                if name in value and type(value[name]) not in exact:
                    check(value[name], name)
            return cls.from_dict(value)
        except (KeyError, TypeError, ScenarioError) as exc:
            raise ScenarioError(path, f"bad {cls.__name__}: {exc}") from exc
    return convert


# -- bundled scenarios ---------------------------------------------------

def bundled_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> Scenario:
    path = resources.files(__package__) / "scenarios" / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError("$", f"no bundled scenario named {name!r}; "
                                 f"available: {', '.join(bundled_names())}") from None
    return Scenario.from_json(text)


def make_duty_audit(num_devices: int = 50, end_time_s: float = 86_400.0) -> Scenario:
    """A regulatory stress scenario: devices offering more airtime than the
    1% sub-bands allow, so every ledger runs pinned at its budget."""
    devices = []
    for i in range(num_devices):
        angle = 2 * math.pi * i / num_devices
        devices.append(DeviceSpec(
            eid=f"dev{i:03d}",
            dev_addr=0x0200_0000 + i,
            position=(2000.0 * math.cos(angle), 2000.0 * math.sin(angle)),
            period_s=150.0,
            phase_s=150.0 * i / num_devices,
            jitter_frac=0.01,
            dr=0,
            app_payload_bytes=51,
        ))
    return Scenario(
        name="duty-audit",
        description=(f"{num_devices} devices offering one 51-byte uplink every "
                     "150 s at DR0; the duty-cycle gate throttles them to the "
                     "sub-band budgets"),
        end_time_s=end_time_s,
        devices=devices,
    ).validate()
