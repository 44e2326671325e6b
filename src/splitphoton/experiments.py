"""Delayed-choice measurement scenarios over the split photon state.

A ``Scenario`` puts the source at the origin (pulse initially on
[-a/2, a/2]), an optional ideal mirror at x = +D with D > a, and a set of
photon detectors or electron guns with insertion schedules.  Trials are
sampled under one of two outcome models:

* conventional QM: Born-rule clicks with exact single-photon
  anti-coincidence, via sequential conditional sampling over the ordered
  crossing events;
* "preferred way": a comparator model in which the photon deterministically
  routes itself to the first-inserted reachable detector and always clicks.

Every trial draws from its own random stream derived from
(seed, trial_index), so runs are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import reflection, wavestate
from .wavestate import ModeSpec, Piece

__all__ = [
    "InstrumentKind",
    "OutcomeModel",
    "Branch",
    "Instrument",
    "Scenario",
    "CrossingEvent",
    "TrialOutcome",
    "InstrumentStats",
    "StatsReport",
    "crossing_events",
    "sample_trial",
    "reachable",
    "scatter_positions",
    "window",
    "run",
    "run_trials",
    "aggregate",
]

_MASS_EPS = 1e-15
_TABLE_INTERVALS = 4096  # inverse-CDF table resolution over one pulse length


class InstrumentKind(str, Enum):
    PHOTON_DETECTOR = "photon_detector"
    ELECTRON_GUN = "electron_gun"


class OutcomeModel(str, Enum):
    CONVENTIONAL_QM = "conventional-qm"
    PREFERRED_WAY = "preferred-way"


class Branch(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    LEADING_PULSE = "leading_pulse"
    TRAILING_PULSE = "trailing_pulse"
    NONE = "none"


@dataclass(frozen=True)
class Instrument:
    id: str
    kind: InstrumentKind
    position: float
    insertion_time: float = 0.0
    removal_time: Optional[float] = None
    efficiency: float = 1.0

    def validate(self) -> None:
        removal = () if self.removal_time is None else (self.removal_time,)
        if not all(math.isfinite(v) for v in (self.position, self.insertion_time, *removal)):
            raise ValueError(f"{self.id}: position and times must be finite")
        if self.insertion_time < 0:
            raise ValueError(f"{self.id}: insertion time must be non-negative")
        if self.removal_time is not None and self.removal_time <= self.insertion_time:
            raise ValueError(f"{self.id}: removal time must exceed insertion time")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"{self.id}: efficiency must lie in [0, 1]")


@dataclass
class Scenario:
    mode: ModeSpec = field(default_factory=ModeSpec)
    mirror_distance: Optional[float] = None
    source_blocking: bool = False
    instruments: list[Instrument] = field(default_factory=list)
    model: OutcomeModel = OutcomeModel.CONVENTIONAL_QM
    trials: int = 100_000
    seed: int = 0
    tie_rule: str = "earliest-inserted"

    def validate(self) -> None:
        if self.mirror_distance is not None:
            if not math.isfinite(self.mirror_distance):
                raise ValueError("mirror distance must be finite")
            if self.mirror_distance <= self.mode.a:
                raise ValueError("mirror distance must exceed pulse length")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.tie_rule not in ("earliest-inserted", "closest"):
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")
        ids = [ins.id for ins in self.instruments]
        if len(set(ids)) != len(ids):
            raise ValueError("instrument ids must be distinct")
        positions = [ins.position for ins in self.instruments]
        if len(set(positions)) != len(positions):
            raise ValueError("instrument positions must be distinct")
        for ins in self.instruments:
            ins.validate()
        kinds = {ins.kind for ins in self.instruments}
        if len(kinds) > 1:
            raise ValueError("mixing photon detectors and electron guns is not supported")


@dataclass(frozen=True)
class CrossingEvent:
    instrument: Instrument
    branch: str  # "left" | "right" | "reflected"
    t_start: float
    t_end: float
    mass: float
    frac_lo: float  # pulse-profile CDF bounds of the portion caught
    frac_hi: float
    sweep_t0: float  # moment the pulse's leading edge crosses the instrument


@dataclass(frozen=True)
class TrialOutcome:
    clicked: Optional[str] = None
    click_time: Optional[float] = None
    scatter_position: Optional[float] = None
    resolved_branch: Branch = Branch.NONE
    flag: Optional[str] = None


@dataclass
class InstrumentStats:
    count: int
    rate: float
    ci_lo: float
    ci_hi: float
    click_times: list[float]


@dataclass
class StatsReport:
    trials: int
    per_instrument: dict[str, InstrumentStats]
    none_count: int
    anti_coincidence_violations: int
    undetermined_count: int

    def summary(self) -> str:
        lines = [f"trials: {self.trials}"]
        for name, st in sorted(self.per_instrument.items()):
            lines.append(
                f"  {name}: {st.count} clicks, rate {st.rate:.5f} "
                f"(95% CI [{st.ci_lo:.5f}, {st.ci_hi:.5f}])"
            )
        lines.append(f"no-detection trials: {self.none_count}")
        lines.append(f"anti-coincidence violations: {self.anti_coincidence_violations}")
        if self.undetermined_count:
            lines.append(
                f"model-undetermined trials (comparator tie rule applied): "
                f"{self.undetermined_count}"
            )
        return "\n".join(lines)


def _table(mode: ModeSpec, pieces: tuple[Piece, ...], offset: float
           ) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table (cdf, x) of E^2 + B^2, exact at nodes that split each
    piece of nonzero width evenly; positions are shifted by ``offset``."""
    wide = [p for p in pieces if p.lo < p.hi]
    m = _TABLE_INTERVALS // len(wide)
    nodes = np.concatenate([np.linspace(p.lo, p.hi, m + 1)[:-1] for p in wide] + [[wide[-1].hi]])
    cdf = np.asarray(wavestate.cumulative(pieces, mode.k, nodes))
    return cdf / cdf[-1], offset + nodes


def window(kind: str, *, a: float = 1.0, c: float = 1.0, D: Optional[float] = None,
           L: Optional[float] = None, S: Optional[float] = None) -> tuple[float, float]:
    """Geometry/timing windows of the canonical scenarios.

    kinds: "measurement_region" (spatial strip (D-a, D) swept during
    reflection), "reflection_shots" (shot times during reflection),
    "left_gun_shots" (pulse-overlap times at distance L left of the
    source), "pre_arrival_insertion" (detector insertion times before
    the pulse reaches distance S).  An interval with hi <= lo is empty.
    """
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    if kind == "measurement_region":
        if D is None or D <= a:
            raise ValueError("measurement region requires mirror distance D > a")
        return (D - a, D)
    if kind == "reflection_shots":
        if D is None or D <= a:
            raise ValueError("reflection shots require mirror distance D > a")
        t_d = (2.0 * D + a) / (2.0 * c)
        return (t_d - a / c, t_d)
    if kind == "left_gun_shots":
        if L is None or L <= 0:
            raise ValueError("left gun shots require positive distance L")
        return ((L - a / 2.0) / c, (L + a / 2.0) / c)
    if kind == "pre_arrival_insertion":
        if S is None or S <= 0:
            raise ValueError("pre-arrival insertion requires positive distance S")
        return (0.0, (S - a / 2.0) / c)
    raise ValueError(f"unknown window kind {kind!r}")


def crossing_events(scenario: Scenario) -> list[CrossingEvent]:
    """Ordered pulse-sweep events with per-instrument probability mass.

    Each half-self carries mass 1/2.  The right half-self may sweep a
    detector twice (incident, then reflected); detectors earlier on the
    same branch shadow later ones by the fraction they caught.  Events
    with vanishing mass are dropped.
    """
    scenario.validate()
    mode = scenario.mode
    a, c = mode.a, mode.c
    D = scenario.mirror_distance
    profile = wavestate.pulse_pieces(mode, 0.0, 1)
    whole = wavestate.cumulative(profile, mode.k, a)

    def passed(u: float) -> float:
        """Fraction of one pulse profile within distance u of its leading edge."""
        return wavestate.cumulative(profile, mode.k, u) / whole

    dets = [ins for ins in scenario.instruments if ins.kind is InstrumentKind.PHOTON_DETECTOR]

    sweeps: list[tuple[str, Instrument, float]] = []
    for det in dets:
        p = det.position
        if p < a / 2.0:
            sweeps.append(("left", det, (-p - a / 2.0) / c))
        if p > -a / 2.0 and (D is None or p < D):
            sweeps.append(("right", det, (p - a / 2.0) / c))
        if D is not None and p < D and (not scenario.source_blocking or p > a / 2.0):
            sweeps.append(("reflected", det, (2.0 * D - p - a / 2.0) / c))

    events: list[CrossingEvent] = []
    for chain_branches in (("left",), ("right", "reflected")):
        chain = sorted(
            (sw for sw in sweeps if sw[0] in chain_branches),
            key=lambda sw: (sw[2], sw[1].id),
        )
        remaining = 1.0
        for branch, det, t0 in chain:
            if remaining <= _MASS_EPS:
                break
            f_lo = passed(c * (det.insertion_time - t0))
            f_hi = 1.0 if det.removal_time is None else passed(c * (det.removal_time - t0))
            frac = max(0.0, f_hi - f_lo)
            caught = frac * det.efficiency
            mass = 0.5 * remaining * caught
            if mass > _MASS_EPS:
                events.append(
                    CrossingEvent(
                        instrument=det,
                        branch=branch,
                        t_start=max(det.insertion_time, t0),
                        t_end=min(
                            det.removal_time if det.removal_time is not None else math.inf,
                            t0 + a / c,
                        ),
                        mass=mass,
                        frac_lo=f_lo,
                        frac_hi=f_hi,
                        sweep_t0=t0,
                    )
                )
            remaining *= 1.0 - caught
    events.sort(key=lambda ev: (ev.t_start, ev.instrument.id))
    return events


class _Simulator:
    """Precomputed per-scenario state shared by all trials."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        mode = scenario.mode
        self.mode = mode
        self.guns = [
            ins for ins in scenario.instruments if ins.kind is InstrumentKind.ELECTRON_GUN
        ]
        self.events = crossing_events(scenario) if not self.guns else []
        self._reflection_end = (
            None
            if scenario.mirror_distance is None
            else (scenario.mirror_distance + mode.a / 2.0) / mode.c
        )
        # one pulse profile on [0, a]: click-time table and free-pulse gun tables
        self._profile = wavestate.pulse_pieces(mode, 0.0, 1)
        self._click_cdf, self._click_u = _table(mode, self._profile, 0.0)

        self._gun_by_side: dict[Branch, Instrument] = {}
        for gun in self.guns:
            side = Branch.LEFT if gun.position < 0 else Branch.RIGHT
            if side in self._gun_by_side:
                raise ValueError("at most one electron gun per side is supported")
            self._gun_by_side[side] = gun
        self._gun_tables = {gun.id: self._gun_table(gun) for gun in self.guns}

        # reachable: detectors with crossing mass, guns whose shot overlaps the pulse
        self._first_event: dict[str, CrossingEvent] = {}
        for ev in self.events:
            self._first_event.setdefault(ev.instrument.id, ev)
        if self.guns:
            self.reachable = [g for g in self.guns if self._gun_tables[g.id] is not None]
        else:
            self.reachable = [ev.instrument for ev in self._first_event.values()]
        # the comparator's pick under the tie rule, flagged when the rules disagree
        self._preferred: Optional[Instrument] = None
        self._preferred_flag: Optional[str] = None
        if self.reachable:
            by_insertion = min(self.reachable, key=lambda i: (i.insertion_time, i.id))
            by_distance = min(self.reachable, key=lambda i: (abs(i.position), i.id))
            earliest = scenario.tie_rule == "earliest-inserted"
            self._preferred = by_insertion if earliest else by_distance
            if by_insertion is not by_distance:
                self._preferred_flag = "model-undetermined"

    # -- electron-gun scatter sampling -------------------------------------

    def _gun_table(self, gun: Instrument) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Scatter table of the pulse on the gun's side at its shot time, or None.

        The pieces end at the leading edge of a free pulse, at the mirror during
        reflection; the gun overlaps when within one pulse length behind that end.
        """
        mode = self.mode
        a = mode.a
        ct = mode.c * gun.insertion_time
        D = self.scenario.mirror_distance
        # reflection moment of the right half-self; negative before mirror contact
        s = -1.0 if D is None or gun.position < 0 else ct - (D - a / 2.0)
        pieces = self._profile
        if 0.0 <= s <= a:
            offset, pieces = D, reflection.reflection_pieces(mode, s)
        elif s > a:
            offset = 2.0 * D - ct - a / 2.0  # detached reflected pulse moving left
        elif gun.position < 0:
            offset = -ct - a / 2.0
        else:
            offset = ct - a / 2.0  # incident pulse, source frame
        end = offset + pieces[-1].hi
        if not end - a <= gun.position <= end:
            return None
        return _table(mode, pieces, offset)

    def _scatter(self, gun: Instrument, rng: np.random.Generator,
                 flag: Optional[str] = None) -> TrialOutcome:
        cdf, x = self._gun_tables[gun.id]
        return TrialOutcome(
            clicked=gun.id,
            click_time=gun.insertion_time,
            scatter_position=float(np.interp(rng.random(), cdf, x)),
            resolved_branch=Branch.LEFT if gun.position < 0 else Branch.RIGHT,
            flag=flag,
        )

    # -- per-trial sampling -------------------------------------------------

    def _rng(self, trial_index: int) -> np.random.Generator:
        return np.random.default_rng([self.scenario.seed, trial_index])

    def trial(self, trial_index: int) -> TrialOutcome:
        rng = self._rng(trial_index)
        if self.scenario.model is OutcomeModel.PREFERRED_WAY:
            return self._preferred_trial(rng)
        if self.guns:
            return self._gun_trial(rng)
        return self._qm_trial(rng)

    def _sample_click_time(self, ev: CrossingEvent, rng: np.random.Generator) -> float:
        q = rng.uniform(ev.frac_lo, ev.frac_hi)
        u = float(np.interp(q, self._click_cdf, self._click_u))
        return ev.sweep_t0 + u / self.mode.c

    def _branch_label(self, ev: CrossingEvent) -> Branch:
        if ev.branch == "right":
            return Branch.RIGHT
        if ev.branch == "reflected":
            return Branch.TRAILING_PULSE
        if self._reflection_end is not None and ev.sweep_t0 >= self._reflection_end:
            # post-reflection one-way pair: the left half-self leads
            return Branch.LEADING_PULSE
        return Branch.LEFT

    def _qm_trial(self, rng: np.random.Generator) -> TrialOutcome:
        remaining = 1.0
        for ev in self.events:
            p = min(ev.mass / remaining, 1.0)
            if rng.random() < p:
                return TrialOutcome(
                    clicked=ev.instrument.id,
                    click_time=self._sample_click_time(ev, rng),
                    resolved_branch=self._branch_label(ev),
                )
            remaining -= ev.mass
        return TrialOutcome()

    def _preferred_trial(self, rng: np.random.Generator) -> TrialOutcome:
        chosen = self._preferred
        if chosen is None:
            return TrialOutcome()
        if self.guns:
            return self._scatter(chosen, rng, self._preferred_flag)
        ev = self._first_event[chosen.id]
        return TrialOutcome(
            clicked=chosen.id,
            click_time=self._sample_click_time(ev, rng),
            resolved_branch=self._branch_label(ev),
            flag=self._preferred_flag,
        )

    def _gun_trial(self, rng: np.random.Generator) -> TrialOutcome:
        side = Branch.LEFT if rng.random() < 0.5 else Branch.RIGHT
        gun = self._gun_by_side.get(side)
        if gun is None:
            return TrialOutcome(resolved_branch=side)
        if self._gun_tables[gun.id] is None:
            return TrialOutcome(resolved_branch=side, flag="no-overlap")
        return self._scatter(gun, rng)


def sample_trial(scenario: Scenario, trial_index: int) -> TrialOutcome:
    """One detector trial; deterministic given (scenario, seed, trial_index)."""
    return _Simulator(scenario).trial(trial_index)


def reachable(scenario: Scenario) -> list[Instrument]:
    """Instruments the photon can reach: detectors with crossing mass, guns whose
    shot overlaps the pulse.  The comparator model picks among these."""
    return _Simulator(scenario).reachable


def scatter_positions(scenario: Scenario, gun_id: str, n: int, seed: int = 0) -> np.ndarray:
    """Draw n scatter positions from a gun's instantaneous-density sampler.

    Conditions on the photon being on the gun's side; raises if the gun's
    shot does not overlap the pulse.
    """
    table = _Simulator(scenario)._gun_tables.get(gun_id)
    if table is None:
        raise ValueError(f"gun {gun_id!r} has no pulse overlap at its shot time")
    cdf, x = table
    rng = np.random.default_rng(seed)
    return np.interp(rng.random(n), cdf, x)


def run_trials(scenario: Scenario) -> list[TrialOutcome]:
    """All trial outcomes in trial order; bit-identical across repeat runs."""
    sim = _Simulator(scenario)
    return [sim.trial(i) for i in range(scenario.trials)]


def aggregate(scenario: Scenario, outcomes: list[TrialOutcome]) -> StatsReport:
    z = 1.959963984540054  # two-sided 95% normal quantile
    n = len(outcomes)
    per: dict[str, InstrumentStats] = {}
    for ins in scenario.instruments:
        times = [o.click_time for o in outcomes if o.clicked == ins.id and o.click_time is not None]
        count = sum(1 for o in outcomes if o.clicked == ins.id)
        rate = count / n
        half = z * math.sqrt(max(rate * (1.0 - rate), 0.0) / n)
        per[ins.id] = InstrumentStats(
            count=count,
            rate=rate,
            ci_lo=max(0.0, rate - half),
            ci_hi=min(1.0, rate + half),
            click_times=times,
        )
    none_count = sum(1 for o in outcomes if o.clicked is None)
    undetermined = sum(1 for o in outcomes if o.flag == "model-undetermined")
    return StatsReport(
        trials=n,
        per_instrument=per,
        none_count=none_count,
        anti_coincidence_violations=0,  # single click per trial by construction
        undetermined_count=undetermined,
    )


def run(scenario: Scenario) -> StatsReport:
    """Run all trials and aggregate rates, intervals, and audits."""
    return aggregate(scenario, run_trials(scenario))
