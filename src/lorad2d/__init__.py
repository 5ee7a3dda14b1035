"""Discrete-event simulator for EU 868 LoRaWAN class A networks with a
network-assisted device-to-device transfer extension.

The package splits into a protocol library (phy, regulator, d2d, mac,
netserver, energy) and the simulation machinery that exercises it (engine,
scenario, runner, metrics, cli).
"""

from . import cli, d2d, energy, engine, mac, metrics, netserver, phy, regulator, runner, scenario
from .d2d import (D2DCodecError, D2DDataFrame, D2DProtocolError, D2DSession,
                  D2DSetupCommand, D2DState, ExchangeParams, Role, decode_setup,
                  encode_setup)
from .energy import (CalibrationError, EnergyLedger, PowerProfile, StateUsage,
                     fit_profile)
from .engine import Engine, Medium, RngManager, SimulationError
from .mac import EndDevice, MacState, ReceiveWindows
from .netserver import (DeviceRecord, DownlinkError, Gateway,
                        InfeasiblePlanError, NetworkServer, PlanError)
from .phy import PhyError, RadioModel, Transmission, data_rate, time_on_air
from .regulator import DutyCycleViolation, DutyLedger, SubBand, classify, off_time_us
from .runner import RunResult, run, summarize, sweep, table2
from .scenario import Scenario, ScenarioError, bundled_names, load_bundled

__version__ = "0.1.0"

__all__ = [
    "cli", "d2d", "energy", "engine", "mac", "metrics", "netserver", "phy",
    "regulator", "runner", "scenario",
    "D2DCodecError", "D2DDataFrame", "D2DProtocolError", "D2DSession",
    "D2DSetupCommand", "D2DState", "ExchangeParams", "Role", "decode_setup",
    "encode_setup",
    "CalibrationError", "EnergyLedger", "PowerProfile", "StateUsage", "fit_profile",
    "Engine", "Medium", "RngManager", "SimulationError",
    "EndDevice", "MacState", "ReceiveWindows",
    "DeviceRecord", "DownlinkError", "Gateway", "InfeasiblePlanError",
    "NetworkServer", "PlanError",
    "PhyError", "RadioModel", "Transmission", "data_rate", "time_on_air",
    "DutyCycleViolation", "DutyLedger", "SubBand", "classify", "off_time_us",
    "RunResult", "run", "summarize", "sweep", "table2",
    "Scenario", "ScenarioError", "bundled_names", "load_bundled",
    "__version__",
]
