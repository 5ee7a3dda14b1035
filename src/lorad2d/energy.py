"""Radio energy accounting and power-profile calibration.

A device keeps an :class:`EnergyLedger`: integer microseconds spent in each
radio state (tx at a given power, rx, sleep) plus a count of host-to-radio
commands.  A window, such as one D2D session, is costed from two marks of
those totals (:func:`usage_between`).  Energy in joules is only computed at
the end, by pricing a :class:`StateUsage` with a :class:`PowerProfile`.
Profiles can be written by hand or fitted with :func:`fit_profile` from
measured per-role energy totals.

The TX draw is anchored at +14 dBm and scaled for other powers with a simple
PA model: a fixed fraction of the draw is overhead and the rest follows the
output power in linear units.  The scale is monotone in dBm.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields

_TX_OVERHEAD_FRACTION = 0.4


class CalibrationError(RuntimeError):
    pass


def tx_power_scale(power_dbm: float) -> float:
    """Draw at `power_dbm` relative to the draw at +14 dBm."""
    return _TX_OVERHEAD_FRACTION + (1.0 - _TX_OVERHEAD_FRACTION) * 10.0 ** ((power_dbm - 14.0) / 10.0)


@dataclass(frozen=True)
class PowerProfile:
    name: str = "generic"
    supply_v: float = 3.0
    p_tx14_w: float = 0.12
    p_rx_w: float = 0.04
    p_sleep_w: float = 3e-6
    command_overhead_j: float = 0.0

    def __post_init__(self):
        for name in ("p_tx14_w", "p_rx_w", "p_sleep_w", "command_overhead_j"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 < self.supply_v < math.inf:
            raise ValueError(f"supply_v must be finite and > 0, got {self.supply_v}")

    def p_tx_w(self, power_dbm: float) -> float:
        return self.p_tx14_w * tx_power_scale(power_dbm)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PowerProfile":
        """The inverse of ``to_dict``: every field is required and no other
        key is accepted."""
        names = [f.name for f in fields(cls)]
        for key in data:
            if key not in names:
                raise TypeError(f"unknown key {key!r}")
        for key in names:
            if key not in data:
                raise TypeError(f"missing key {key!r}")
        return cls(**{k: data[k] for k in names})


DEFAULT_PROFILE = PowerProfile()


@dataclass
class StateUsage:
    """Seconds spent in each radio state over some interval, plus commands."""
    tx_s_by_power: dict[int, float] = field(default_factory=dict)
    rx_s: float = 0.0
    sleep_s: float = 0.0
    commands: int = 0

    @property
    def tx_s(self) -> float:
        return math.fsum(self.tx_s_by_power.values())

    def energy_j(self, profile: PowerProfile) -> dict[str, float]:
        tx = math.fsum(profile.p_tx_w(p) * s for p, s in self.tx_s_by_power.items())
        rx = profile.p_rx_w * self.rx_s
        sleep = profile.p_sleep_w * self.sleep_s
        cmd = profile.command_overhead_j * self.commands
        return {"tx_j": tx, "rx_j": rx, "sleep_j": sleep, "commands_j": cmd,
                "total_j": tx + rx + sleep + cmd}


def usage_between(start: tuple, end: tuple) -> StateUsage:
    """Seconds in each state, and commands, from mark `start` to mark `end`
    (see :meth:`EnergyLedger.mark`).

    The integer microseconds of each (state, power) key are differenced and
    converted to seconds once, so usages between consecutive marks add up
    exactly to the usage between the outer two.
    """
    start_us, start_commands = start
    end_us, end_commands = end
    out = StateUsage(commands=end_commands - start_commands)
    for (state, power), us in end_us.items():
        us -= start_us.get((state, power), 0)
        if us == 0:
            continue
        if state == "tx":
            out.tx_s_by_power[power] = us / 1e6
        elif state == "rx":
            out.rx_s = us / 1e6
        else:
            out.sleep_s = us / 1e6
    return out


class EnergyLedger:
    """Integer microseconds per radio state (tx at a given power, rx, sleep)
    and a count of host-to-radio commands.

    :meth:`mark` fixes those totals at an instant; the usage over any window
    is :func:`usage_between` its two marks.
    """

    def __init__(self):
        self._state = "sleep"
        self._power: int | None = None
        self._since_us = 0
        self.totals_us: dict[tuple, int] = {}
        self.commands = 0

    def set_state(self, t_us: int, state: str, power_dbm: int | None = None) -> None:
        if state not in ("tx", "rx", "sleep"):
            raise ValueError(f"unknown radio state {state!r}")
        # _accumulate, inline: this runs several times per class-A cycle
        dt = t_us - self._since_us
        if dt < 0:
            raise ValueError("energy ledger time went backwards")
        if dt:
            key = (self._state, self._power)
            self.totals_us[key] = self.totals_us.get(key, 0) + dt
        self._since_us = t_us
        self._state = state
        self._power = power_dbm if state == "tx" else None

    def command(self) -> None:
        self.commands += 1

    def mark(self, t_us: int) -> tuple[dict[tuple, int], int]:
        """The totals at `t_us`: a copy of the microseconds per (state,
        power), and the command count."""
        self._accumulate(t_us)
        return dict(self.totals_us), self.commands

    def finalize(self, end_us: int) -> None:
        self._accumulate(end_us)

    def _accumulate(self, t_us: int) -> None:
        dt = t_us - self._since_us
        if dt < 0:
            raise ValueError("energy ledger time went backwards")
        if dt:
            key = (self._state, self._power)
            self.totals_us[key] = self.totals_us.get(key, 0) + dt
        self._since_us = t_us

    def usage(self) -> StateUsage:
        """Usage from time 0 to the latest time the ledger was advanced to."""
        return usage_between(({}, 0), (self.totals_us, self.commands))


def _least_squares(a: list[list[float]], b: list[float]) -> list[float] | None:
    """x minimising |a x - b| for an m x n ``a`` with m >= n, by Householder
    QR; None when a pivot of R is at or below numpy ``lstsq``'s default
    rank tolerance, ``eps * max(m, n)`` times the largest pivot."""
    m, n = len(a), len(a[0])
    cols = [[row[j] for row in a] for j in range(n)] + [list(b)]
    for k in range(n):
        column = cols[k]
        norm = math.hypot(*column[k:])
        if norm == 0.0:
            continue
        alpha = -norm if column[k] > 0 else norm   # the sign that avoids cancellation
        v = [column[k] - alpha, *column[k + 1:]]
        vv = math.fsum(x * x for x in v)
        for col in cols[k:]:
            f = 2.0 * math.fsum(x * y for x, y in zip(v, col[k:])) / vv
            for i, x in enumerate(v, start=k):
                col[i] -= f * x
    diag = [abs(cols[k][k]) for k in range(n)]
    if min(diag) <= sys.float_info.epsilon * max(m, n) * max(diag):
        return None
    y, x = cols[n], [0.0] * n
    for k in reversed(range(n)):
        x[k] = (y[k] - math.fsum(cols[j][k] * x[j] for j in range(k + 1, n))) / cols[k][k]
    return x


def fit_profile(usages: dict[str, StateUsage], targets_j: dict[str, float],
                *, name: str = "fitted") -> tuple[PowerProfile, dict[str, dict]]:
    """Fit (p_tx14, p_rx, command overhead) to measured per-role energies.

    Each role contributes one equation: the ledger's state durations priced
    with the unknown parameters must equal the target.  Sleep power and
    supply voltage keep their :class:`PowerProfile` defaults (sleep power is
    far below the resolution of whole-transfer energy totals).  The system
    is solved in a least-squares sense with rows weighted by 1/target
    so relative errors are balanced.  Raises CalibrationError when the fit is
    degenerate or needs a negative power.
    """
    roles = sorted(usages)
    if set(roles) != set(targets_j):
        raise CalibrationError("usages and targets must cover the same roles")
    if len(roles) < 3:
        raise CalibrationError("need at least three roles to fit three parameters")
    bad = [role for role in roles if not targets_j[role] > 0.0]
    if bad:
        raise CalibrationError(
            f"target energies must be positive, got {', '.join(bad)} <= 0")
    rows, rhs, weights = [], [], []
    for role in roles:
        u = usages[role]
        tx_col = math.fsum(tx_power_scale(p) * s for p, s in u.tx_s_by_power.items())
        rows.append([tx_col, u.rx_s, float(u.commands)])
        rhs.append(targets_j[role] - PowerProfile.p_sleep_w * u.sleep_s)
        weights.append(1.0 / targets_j[role])
    solution = _least_squares([[w * x for x in row] for row, w in zip(rows, weights)],
                              [w * y for y, w in zip(rhs, weights)])
    if solution is None:
        raise CalibrationError(
            "calibration system is rank deficient; the scenarios do not "
            "separate tx, rx and command costs")
    p_tx14, p_rx, c_cmd = solution
    if min(p_tx14, p_rx, c_cmd) < -1e-9:
        raise CalibrationError(
            f"fit produced negative parameters (p_tx14={p_tx14:.4g} W, "
            f"p_rx={p_rx:.4g} W, command={c_cmd:.4g} J); the energy model "
            "cannot reproduce these targets")
    try:
        profile = PowerProfile(name=name, p_tx14_w=max(p_tx14, 0.0), p_rx_w=max(p_rx, 0.0),
                               command_overhead_j=max(c_cmd, 0.0))
    except ValueError as exc:
        raise CalibrationError(f"fit produced an unusable profile: {exc}") from exc
    residuals = {}
    for role in roles:
        model = usages[role].energy_j(profile)["total_j"]
        target = targets_j[role]
        residuals[role] = {"model_j": model, "target_j": target,
                           "rel_err": (model - target) / target}
    return profile, residuals
