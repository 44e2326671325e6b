"""Delayed-choice measurement scenarios over the split photon state.

A ``Scenario`` puts the source at the origin (pulse initially on
[-a/2, a/2]), an optional ideal mirror at x = +D with D > a, and a set of
photon detectors or electron guns with insertion schedules.
``crossing_events(scenario)`` is the table every trial samples: each
``CrossingEvent`` is one way a trial can end, with its instrument, ``Branch``
label, time window, exact Born-rule mass, the pieces it draws click times or
scatter positions from, and flag.  A detector gets one event per sweep of a
half-self across it (left, right, leading_pulse or trailing_pulse); a gun
scenario gets one event of mass 1/2 per side (left, right), instrument-less
where no gun meets the pulse.  The table is the one answer to when an
instrument meets which part of the photon: the instruments a trial can reach
are those of its events, and a gun's scatter positions are the ``scatter_x``
column of ``run_trials``.  Two outcome models read the table:

* conventional QM: Born-rule clicks with exact single-photon
  anti-coincidence, one event per trial with its mass as probability;
* "preferred way": a comparator model in which the photon deterministically
  routes itself to the first-inserted instrument of the table and always clicks.

Trial ``i`` owns counter block ``i`` of a Philox stream keyed by the seed
(Salmon et al., SC'11): four uniform doubles, the first picking an event and
the second a position on the event's pieces by the inverse CDF of E^2 + B^2.
A run over trials ``[start, stop)`` advances the counter to ``start``, so trial
``i`` is a pure function of (seed, i) whatever the chunking or execution order.
"""

from __future__ import annotations

import dataclasses
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
    "Trials",
    "InstrumentStats",
    "StatsReport",
    "crossing_events",
    "run",
    "run_trials",
    "aggregate",
    "Z_BOUND",
]

_MASS_EPS = 1e-15
# Inverse-CDF table resolution, shared evenly by the wide pieces.  Interpolating
# between nodes h apart errs in u by up to h^2/8 times the density's steepest
# slope, 2k/a per unit mass on a running pulse: the pulse profile (h = a/4096)
# has sup |F(x(u)) - u| = pi n / (4 * 4096^2) ~ 4.68e-8 n, linear in n.  A gun's
# reflection pieces split the intervals at the RW/SW border: up to 4x that as s
# nears 0 or a.
_TABLE_INTERVALS = 4096
_BLOCK = 4  # uniform doubles per trial: one Philox counter block
Z_BOUND = 6.0  # |z| past which a count contradicts its rate: P < 2 exp(-18) ~ 3e-8


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
        # an id must read back from a scenario file as written, and reach the CSV whole
        if (self.id != self.id.strip() or "#" in self.id or "\0" in self.id
                or self.id.splitlines() != [self.id]):
            raise ValueError(f"instrument id {self.id!r} must be non-empty, without '#', "
                             "NUL, line breaks or surrounding whitespace")
        if self.kind is InstrumentKind.ELECTRON_GUN:
            if self.removal_time is not None:
                raise ValueError(f"{self.id}: removal time has no effect on an electron gun")
            if self.efficiency != 1.0:
                raise ValueError(f"{self.id}: efficiency has no effect on an electron gun")
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
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must lie in [0, 2**128), the Philox key range")
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
        sides = [ins.position < 0 for ins in self.instruments
                 if ins.kind is InstrumentKind.ELECTRON_GUN]
        if len(set(sides)) < len(sides):
            raise ValueError("at most one electron gun per side is supported")


@dataclass(frozen=True)
class CrossingEvent:
    """One way a trial can end, with its exact Born-rule ``mass``: a detector
    sweep over [t_start, t_end], or a gun shot at t_start = t_end (no instrument
    when no gun is on the ``branch`` side, or, flagged "no-overlap", when its
    shot misses the pulse).  A trial's uniform u picks the x of ``pieces`` below
    which the fraction ``frac_lo + u (frac_hi - frac_lo)`` of E^2 + B^2 lies; a
    detector clicks at ``origin + x / c`` (``origin``: the moment the pulse's
    leading edge crosses it), a gun scatters at ``origin + x``."""

    instrument: Optional[Instrument]
    branch: Branch
    t_start: float
    t_end: float
    mass: float
    frac_lo: float = 0.0  # pulse-profile CDF bounds of the portion caught
    frac_hi: float = 1.0
    flag: Optional[str] = None
    pieces: tuple[Piece, ...] = ()  # the pulse profile, or a gun's pieces at its shot
    origin: float = 0.0


@dataclass(frozen=True, eq=False)
class Trials:
    """Outcomes of consecutive trials as read-only columns: ``instrument``
    indexes ``ids`` (-1: no click), ``click_time`` and ``scatter_x`` are NaN
    where missing, ``branch`` indexes ``BRANCHES`` and ``flag`` ``FLAGS``;
    ``expected`` is each instrument's exact click probability.  A slice is the
    ``Trials`` of those trials; one trial is a slice of length one."""

    BRANCHES = tuple(Branch)
    FLAGS = (None, "model-undetermined", "no-overlap")
    COLUMNS = ("instrument", "click_time", "scatter_x", "branch", "flag")

    ids: tuple[str, ...]
    expected: tuple[float, ...]
    instrument: np.ndarray
    click_time: np.ndarray
    scatter_x: np.ndarray
    branch: np.ndarray
    flag: np.ndarray

    def __post_init__(self) -> None:
        for name in self.COLUMNS:
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.instrument)

    def __getitem__(self, index: slice) -> Trials:
        if not isinstance(index, slice):
            raise TypeError(f"Trials takes slices, not {type(index).__name__}: "
                            "trial i is trials[i:i + 1]")
        return dataclasses.replace(
            self, **{name: getattr(self, name)[index] for name in self.COLUMNS})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trials):
            return NotImplemented
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in self.COLUMNS)


@dataclass
class InstrumentStats:
    count: int
    rate: float
    ci_lo: float
    ci_hi: float
    expected: float  # exact click probability
    z: float  # signed likelihood-ratio score of the count against ``expected``


@dataclass
class StatsReport:
    trials: int
    per_instrument: dict[str, InstrumentStats]
    none_count: int
    rate_violations: int  # instruments whose count contradicts the exact rate
    undetermined_count: int

    def summary(self) -> str:
        lines = [f"trials: {self.trials}"]
        for name, st in sorted(self.per_instrument.items()):
            lines.append(
                f"  {name}: {st.count} clicks, rate {st.rate:.5f} "
                f"(95% CI [{st.ci_lo:.5f}, {st.ci_hi:.5f}]), exact {st.expected:.5f}, "
                f"z {st.z:+.2f}"
            )
        lines.append(f"no-detection trials: {self.none_count}")
        lines.append(f"rate violations (|z| > {Z_BOUND:g}): {self.rate_violations}")
        if self.undetermined_count:
            lines.append(f"model-undetermined trials (comparator tie rule applied): "
                         f"{self.undetermined_count}")
        return "\n".join(lines)


def _table(mode: ModeSpec, pieces: tuple[Piece, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table (cdf, x) of E^2 + B^2, exact at nodes that split each
    interval between the distinct piece edges evenly."""
    edges = sorted({end for p in pieces for end in (p.lo, p.hi)})
    m = _TABLE_INTERVALS // (len(edges) - 1)
    nodes = np.concatenate([np.linspace(lo, hi, m + 1)[:-1]
                            for lo, hi in zip(edges, edges[1:])] + [edges[-1:]])
    cdf = np.asarray(wavestate.cumulative(pieces, mode.k, nodes))
    return cdf / cdf[-1], nodes


def crossing_events(scenario: Scenario) -> list[CrossingEvent]:
    """The ways a trial can end with their exact masses: one gun event per side,
    LEFT then RIGHT, or detector sweeps by start time.  Each half-self carries
    mass 1/2; the right half-self may sweep a detector twice (incident, then
    reflected), and detectors earlier on the same branch shadow later ones by
    the fraction they caught.  Sweeps with vanishing mass are dropped."""
    scenario.validate()
    mode = scenario.mode
    a, c = mode.a, mode.c
    D = scenario.mirror_distance
    # one pulse profile on [0, a]: sweep fractions, click times, free-pulse scatter
    profile = wavestate.pulse_pieces(mode, 0.0, 1)
    if any(ins.kind is InstrumentKind.ELECTRON_GUN for ins in scenario.instruments):
        return [_gun_event(scenario, side, profile) for side in (Branch.LEFT, Branch.RIGHT)]
    whole = wavestate.cumulative(profile, mode.k, a)

    def passed(u: float) -> float:
        """Fraction of one pulse profile within distance u of its leading edge."""
        return wavestate.cumulative(profile, mode.k, u) / whole

    reflection_end = math.inf if D is None else (D + a / 2.0) / c
    # per half-self: (branch, detector, moment the pulse's leading edge crosses it)
    left: list[tuple[Branch, Instrument, float]] = []
    right: list[tuple[Branch, Instrument, float]] = []
    for det in scenario.instruments:
        p = det.position
        if p < a / 2.0:
            t0 = (-p - a / 2.0) / c
            # after reflection, the left half-self leads the one-way pair
            left.append((Branch.LEADING_PULSE if t0 >= reflection_end else Branch.LEFT, det, t0))
        if p > -a / 2.0 and (D is None or p < D):
            right.append((Branch.RIGHT, det, (p - a / 2.0) / c))
        if D is not None and p < D and (not scenario.source_blocking or p > a / 2.0):
            right.append((Branch.TRAILING_PULSE, det, (2.0 * D - p - a / 2.0) / c))

    events: list[CrossingEvent] = []
    for chain in (left, right):
        remaining = 1.0
        for branch, det, t0 in sorted(chain, key=lambda sw: (sw[2], sw[1].id)):
            if remaining <= _MASS_EPS:
                break
            f_lo = passed(c * (det.insertion_time - t0))
            f_hi = 1.0 if det.removal_time is None else passed(c * (det.removal_time - t0))
            caught = max(0.0, f_hi - f_lo) * det.efficiency
            mass = 0.5 * remaining * caught
            if mass > _MASS_EPS:
                removal = math.inf if det.removal_time is None else det.removal_time
                events.append(CrossingEvent(det, branch, max(det.insertion_time, t0),
                                            min(removal, t0 + a / c), mass, f_lo, f_hi,
                                            pieces=profile, origin=t0))
            remaining *= 1.0 - caught
    events.sort(key=lambda ev: (ev.t_start, ev.instrument.id))
    return events


def _gun_event(scenario: Scenario, side: Branch, profile: tuple[Piece, ...]) -> CrossingEvent:
    """The half-self on ``side`` meets the gun there, if any, with probability 1/2,
    and scatters on that side's pulse pieces at the shot time.  The pieces end at
    the leading edge of a free pulse, at the mirror during reflection; the gun
    overlaps when within one pulse length behind that end."""
    gun = next((ins for ins in scenario.instruments if ins.kind is InstrumentKind.ELECTRON_GUN
                and (ins.position < 0) == (side is Branch.LEFT)), None)  # validate: one a side
    if gun is None:
        return CrossingEvent(None, side, math.inf, math.inf, 0.5)
    mode = scenario.mode
    a = mode.a
    shot = gun.insertion_time
    ct = mode.c * shot
    D = scenario.mirror_distance
    # reflection moment of the right half-self; negative before mirror contact
    s = -1.0 if D is None or gun.position < 0 else ct - (D - a / 2.0)
    pieces = profile
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
        return CrossingEvent(None, side, shot, shot, 0.5, flag="no-overlap")
    return CrossingEvent(gun, side, shot, shot, 0.5, pieces=pieces, origin=offset)


def _comparator(scenario: Scenario, events: list[CrossingEvent]) -> list[CrossingEvent]:
    """The comparator's pick under the tie rule as one certain event, flagged when
    the two tie rules disagree."""
    found = [ev.instrument for ev in events if ev.instrument is not None]
    if not found:
        return []
    by_insertion = min(found, key=lambda i: (i.insertion_time, i.id))
    by_distance = min(found, key=lambda i: (abs(i.position), i.id))
    chosen = by_insertion if scenario.tie_rule == "earliest-inserted" else by_distance
    flag = None if by_insertion is by_distance else "model-undetermined"
    first = next(ev for ev in events if ev.instrument is chosen)
    return [dataclasses.replace(first, mass=1.0, flag=flag)]


def _by_event(pick: np.ndarray, u1: np.ndarray, events: int) -> np.ndarray:
    """The trials ordered by ``pick``, 0 to ``events``, and within each pick
    ascending in ``u1`` to one part in ``buckets`` (4096 or finer up to 7 events).

    The keys pick * buckets + floor(u1 * buckets) fit 15 bits, or past 2**15
    events the key is the pick alone, and numpy sorts keys of 16 bits or fewer
    by radix: no float key is held and no float sort code is mapped.
    """
    buckets = max(1, 2**15 // (events + 1))
    key = np.min_scalar_type((events + 1) * buckets - 1)
    return np.argsort(pick.astype(key) * key.type(buckets) + (u1 * buckets).astype(key),
                      kind="stable")


def _sample(scenario: Scenario, events: list[CrossingEvent], start: int, stop: int) -> Trials:
    """Trials [start, stop); trial i takes the doubles of Philox counter block i."""
    bits = np.random.Philox(key=scenario.seed).advance(start)
    u = np.random.Generator(bits).random((stop - start, _BLOCK))
    pick = np.searchsorted(np.cumsum([ev.mass for ev in events]), u[:, 0], side="right")
    u1 = u[:, 1].copy()  # the one other double a trial reads; the rest of u is freed
    del u
    order = _by_event(pick, u1, len(events))
    bounds = [0] + np.cumsum(np.bincount(pick, minlength=len(events))).tolist()
    # the codes end with the no-click outcome, picked where u0 passes the total mass
    ids = tuple(ins.id for ins in scenario.instruments)
    codes = [(-1 if ev.instrument is None else ids.index(ev.instrument.id),
              Trials.BRANCHES.index(ev.branch), Trials.FLAGS.index(ev.flag))
             for ev in events] + [(-1, Trials.BRANCHES.index(Branch.NONE), 0)]
    instrument, branch, flag = np.array(codes).T[:, pick]
    del pick  # ``order`` and ``bounds`` replace it; freed before the inversion
    click_time, scatter_x = np.full((2, len(order)), np.nan)
    tables = {}  # (cdf, x) of each distinct piece table a trial lands on
    for r, ev in enumerate(events):
        rows = order[bounds[r]:bounds[r + 1]]
        if ev.instrument is None or not len(rows):
            continue
        if ev.pieces not in tables:
            tables[ev.pieces] = _table(scenario.mode, ev.pieces)
        cdf, x = tables[ev.pieces]
        # inverted in ascending order, to a bucket: ``np.interp`` starts each search
        # from the previous query's node, so sorted queries walk the table where
        # random ones pay a mispredicted binary search; each value is the same either way
        fraction = ev.frac_lo + u1[rows] * (ev.frac_hi - ev.frac_lo)
        if ev.instrument.kind is InstrumentKind.ELECTRON_GUN:
            click_time[rows] = ev.t_start
            scatter_x[rows] = np.interp(fraction, cdf, ev.origin + x)
        else:
            click_time[rows] = np.interp(fraction, cdf, ev.origin + x / scenario.mode.c)
    expected = tuple(min(1.0, math.fsum(ev.mass for ev in events if ev.instrument is ins))
                     for ins in scenario.instruments)
    return Trials(ids, expected, instrument, click_time, scatter_x, branch, flag)


def run_trials(scenario: Scenario, start: int = 0, stop: Optional[int] = None) -> Trials:
    """Outcomes of trials [start, stop), by default all ``scenario.trials`` of them;
    a trial's outcome does not depend on the range that samples it."""
    stop = scenario.trials if stop is None else stop
    if not 0 <= start <= stop:
        raise ValueError("trial range must satisfy 0 <= start <= stop")
    events = crossing_events(scenario)
    if scenario.model is OutcomeModel.PREFERRED_WAY:
        events = _comparator(scenario, events)
    return _sample(scenario, events, start, stop)


def _z_score(count: int, n: int, p: float) -> float:
    """Signed root of the binomial likelihood-ratio statistic: ~N(0, 1) for large
    counts, and P(z > t) <= exp(-t^2 / 2) (Chernoff) for any n and p, also at
    n p << 1 where the normal score fails; an impossible count scores infinite."""
    q = count / n

    def term(a: float, b: float) -> float:  # a log(a / b), with 0 log 0 = 0
        return 0.0 if a == 0.0 else math.inf if b == 0.0 else a * math.log(a / b)

    deviance = 2.0 * n * (term(q, p) + term(1.0 - q, 1.0 - p))
    return math.copysign(math.sqrt(max(deviance, 0.0)), q - p)


def aggregate(scenario: Scenario, outcomes: Trials) -> StatsReport:
    """Per-instrument counts, rates with 95% intervals, and the exact-rate audit."""
    z95 = 1.959963984540054  # two-sided 95% normal quantile
    n = len(outcomes)
    if n == 0:
        raise ValueError("cannot aggregate an empty trial range: rates need at least one trial")
    counts = np.bincount(outcomes.instrument + 1, minlength=len(scenario.instruments) + 1)
    per: dict[str, InstrumentStats] = {}
    for k, ins in enumerate(scenario.instruments):
        count, p = int(counts[k + 1]), outcomes.expected[k]
        rate = count / n
        half = z95 * math.sqrt(max(rate * (1.0 - rate), 0.0) / n)
        per[ins.id] = InstrumentStats(count, rate, max(0.0, rate - half), min(1.0, rate + half),
                                      p, _z_score(count, n, p))
    violations = sum(1 for st in per.values() if abs(st.z) > Z_BOUND)
    undetermined = np.count_nonzero(outcomes.flag == Trials.FLAGS.index("model-undetermined"))
    return StatsReport(n, per, int(counts[0]), violations, undetermined)


def run(scenario: Scenario) -> StatsReport:
    """Run all trials and aggregate rates, intervals, and audits."""
    return aggregate(scenario, run_trials(scenario))
