"""Analytic simulator of a split single-photon state from a Fabry-Perot cavity.

Closed-form fields for the trapped mode, the released two-pulse state, and
mirror reflection with moving inner discontinuities; plus a deterministic
Monte Carlo harness for delayed-choice detection statistics.
"""

from .experiments import (
    Branch,
    Instrument,
    InstrumentKind,
    OutcomeModel,
    Scenario,
    StatsReport,
    Trials,
    crossing_events,
    run,
)
from .reflection import EnergyLedger, energy_ledger, reflect_field
from .scenario import ScenarioError, parse_scenario, serialize_scenario
from .snapshot import Snapshot, free_snapshot, reflection_snapshot
from .validation import LocatedJump, QuadResult, identity_suite, integrate, locate_jumps
from .wavestate import FieldSample, ModeSpec, boundary_check, eigenmode, split_state

__version__ = "0.1.0"
