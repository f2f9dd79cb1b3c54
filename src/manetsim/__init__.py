"""Packet-level MANET simulator with QoS- and tie-strength-aware source
routing (single-path forwarding over multipath probing), plus the experiment
harness for the w_ts sweep study."""

from .config import RunConfig, load_config, load_config_file
from .engine import Simulator
from .simulation import SimulationRun, run_simulation

__all__ = [
    "RunConfig",
    "SimulationRun",
    "Simulator",
    "load_config",
    "load_config_file",
    "run_simulation",
]

__version__ = "0.1.0"
