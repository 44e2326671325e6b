import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import ModeSpec
from splitphoton.experiments import (
    Z_BOUND,
    Branch,
    Instrument,
    InstrumentKind,
    OutcomeModel,
    Scenario,
    Trials,
    _by_event,
    _table,
    aggregate,
    crossing_events,
    run,
    run_trials,
)
from splitphoton.reflection import reflection_pieces
from splitphoton.validation import integrate
from splitphoton.wavestate import cumulative, pulse_pieces

MODE = ModeSpec()


def detector(id, position, insertion=0.0, removal=None, efficiency=1.0):
    return Instrument(id, InstrumentKind.PHOTON_DETECTOR, position, insertion, removal, efficiency)


def gun(id, position, shot):
    return Instrument(id, InstrumentKind.ELECTRON_GUN, position, shot)


class TestWindows:
    """When an instrument meets the pulse, read from the event table (a = n = c = 1, D = 5)."""

    @staticmethod
    def _event(instrument, branch):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[instrument])
        return next(ev for ev in crossing_events(sc) if ev.branch is branch)

    def test_reflection_shots(self):
        # reflection lasts from t = D - a/2 = 4.5 to t = D + a/2 = 5.5
        for shot in (4.5, 5.0, 5.5):
            event = self._event(gun("EG", 4.8, shot), Branch.RIGHT)
            assert event.instrument is not None and event.origin == 5.0
            assert event.pieces == reflection_pieces(MODE, shot - 4.5)
        for shot in (4.4, 5.6):  # the incident, then the detached reflected pulse on [3.9, 4.9]
            event = self._event(gun("EG", 4.8, shot), Branch.RIGHT)
            assert event.instrument is not None and event.origin == pytest.approx(3.9)
            assert event.pieces == pulse_pieces(MODE, 0.0, 1)

    def test_left_gun_shots(self):
        # the left pulse lies on [-ct - a/2, -ct + a/2]: it covers x = -3 for 2.5 <= t <= 3.5
        for shot in (2.5, 3.5):
            event = self._event(gun("EGL", -3.0, shot), Branch.LEFT)
            assert event.instrument is not None and event.instrument.id == "EGL"
        for shot in (2.4, 3.6):
            event = self._event(gun("EGL", -3.0, shot), Branch.LEFT)
            assert event.instrument is None and event.flag == "no-overlap"

    def test_pre_arrival(self):
        # the leading edge reaches S = 3 at t = 2.5: inserted by then, the whole pulse is caught
        event = self._event(detector("D1", 3.0, insertion=2.5), Branch.RIGHT)
        assert event.frac_lo == 0.0 and event.mass == 0.5
        assert self._event(detector("D1", 3.0, insertion=2.6), Branch.RIGHT).mass < 0.5

    def test_pre_arrival_empty_inside_source(self):
        # a detector at 0.4 starts inside the initial pulse: even at t = 0 it misses a part
        for branch in (Branch.LEFT, Branch.RIGHT):
            assert self._event(detector("D1", 0.4), branch).frac_lo > 0.0


class TestCrossingEvents:
    def test_single_detector_half_mass(self):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0)])
        events = crossing_events(sc)
        assert events[0].mass == 0.5
        assert events[0].t_start == pytest.approx(2.5)  # (S_d - a/2)/c

    def test_detector_behind_reflected_pulse_sees_nothing(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0, insertion=8.0)]
        )
        assert crossing_events(sc) == []

    def test_partial_insertion_mass(self):
        # oracle: root-find the time at which 40% of the pulse has passed,
        # using quadrature of the profile density only
        p = 3.0

        def passed_fraction(u):
            return integrate(lambda x: 2.0 * np.sin(np.pi * x) ** 2, 0.0, u, tol=1e-12).value

        lo_u, hi_u = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo_u + hi_u)
            if passed_fraction(mid) < 0.4:
                lo_u = mid
            else:
                hi_u = mid
        t_ins = (0.5 * (lo_u + hi_u) + p - 0.5) / 1.0
        sc = Scenario(mode=MODE, instruments=[detector("D1", p, insertion=t_ins)])
        events = crossing_events(sc)
        assert len(events) == 1
        assert events[0].mass == pytest.approx(0.5 * 0.6, abs=1e-8)

    def test_downstream_shadowing(self):
        near = detector("DN", 2.5, insertion=6.0)
        far = detector("DF", 1.5, insertion=6.0)
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[near, far])
        events = crossing_events(sc)
        assert [ev.instrument.id for ev in events] == ["DN"]
        assert events[0].branch is Branch.TRAILING_PULSE

    @pytest.mark.xfail(strict=True, reason="each half-self's later sweeps are scaled by one "
                       "scalar, 1 - caught, whatever part of the profile was caught: B's "
                       "tail half shadows A's head half, giving 0.125 and 0.375")
    def test_no_retroaction_on_disjoint_profile_parts(self):
        # free space: A at 4.0, removed at t = 4.0, catches the head half of the right
        # half-self; B at 2.0, inserted at t = 2.0, catches its tail half
        head = detector("A", 4.0, removal=4.0)
        tail = detector("B", 2.0, insertion=2.0)
        events = crossing_events(Scenario(mode=MODE, instruments=[head, tail]))
        caught = math.fsum(ev.mass for ev in events if ev.instrument is head)
        right = math.fsum(ev.mass for ev in events if ev.branch is Branch.RIGHT)
        assert (caught, right) == pytest.approx((0.25, 0.5))

    def test_efficiency_scales_mass(self):
        sc = Scenario(mode=MODE, instruments=[detector("D1", 3.0, efficiency=0.25)])
        assert crossing_events(sc)[0].mass == pytest.approx(0.125)

    def test_event_ordering(self):
        sc = Scenario(
            mode=MODE,
            mirror_distance=5.0,
            instruments=[detector("DR", 3.0), detector("DL", -2.0)],
        )
        ids = [ev.instrument.id for ev in crossing_events(sc)]
        assert ids[0] == "DL"  # closer, so swept earlier

    def test_source_blocking_drops_return_sweep(self):
        # imperfect detector: sees the incident pass and, attenuated, the return
        leaky = detector("D1", 3.0, efficiency=0.5)
        open_sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[leaky])
        # detector inserted only after the incident sweep has passed
        late = detector("D1", 3.0, insertion=6.0)
        back = Scenario(mode=MODE, mirror_distance=5.0, instruments=[late])
        assert [ev.branch for ev in crossing_events(back)] == [Branch.TRAILING_PULSE]
        blocked = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", -2.0, insertion=8.0)],
            source_blocking=True,
        )
        assert crossing_events(blocked) == []
        assert len(crossing_events(open_sc)) == 2  # incident + reflected sweeps


    def test_gun_scenario_has_one_event_per_side(self):
        # EGL at x = -3 meets the left pulse at t = 3; EGR fires at t = 9, long
        # after the right pulse has passed x = 3
        sc = _stream_scenarios()["guns"]
        left, right = crossing_events(sc)
        assert (left.mass, right.mass) == (0.5, 0.5)
        assert (left.branch, right.branch) == (Branch.LEFT, Branch.RIGHT)
        assert left.instrument.id == "EGL" and left.t_start == left.t_end == 3.0
        assert left.flag is None and left.pieces == pulse_pieces(MODE, 0.0, 1)
        assert left.origin == -3.5  # the left pulse lies on [-3.5, -2.5] at t = 3
        assert right.instrument is None and right.flag == "no-overlap" and right.pieces == ()

    @pytest.mark.parametrize("name", ["detectors", "guns"])
    def test_events_are_plain_values(self, name):
        sc = _stream_scenarios()[name]
        first, again = crossing_events(sc), crossing_events(sc)
        assert first == again and hash(tuple(first)) == hash(tuple(again))
        assert len(set(first + again)) == len(first)
        assert first[0] != dataclasses.replace(first[0], origin=first[0].origin + 1.0)
        assert "pieces=(Piece(" in repr(first[0]) and "array" not in repr(first[0])


class TestSampling:
    def test_anti_coincidence_exact(self):
        sc = Scenario(
            mode=MODE,
            mirror_distance=5.0,
            instruments=[detector("DR", 3.0), detector("DL", -3.0)],
            trials=2000,
            seed=11,
        )
        outcomes = run_trials(sc)
        assert outcomes.ids == ("DR", "DL") and np.all(outcomes.instrument >= 0)
        report = aggregate(sc, outcomes)
        assert report.none_count == 0
        assert report.rate_violations == 0
        assert all(stats.expected == 0.5 for stats in report.per_instrument.values())

    def test_click_time_respects_insertion(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0, insertion=2.9)],
            trials=500, seed=3,
        )
        trials = run_trials(sc)
        assert np.all(trials.click_time[trials.instrument >= 0] >= 2.9 - 1e-6)

    def test_determinism(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0,
            instruments=[detector("DR", 3.0), detector("DL", -3.0)],
            trials=300, seed=99,
        )
        assert run_trials(sc) == run_trials(sc)
        assert run_trials(sc, 17, 18) == run_trials(sc)[17:18]

    def test_clicks_lie_in_their_sweep_at_c_2(self):
        # whole-profile sweeps at c = 2: DR and DL each on the way out and on the way back
        sc = Scenario(mode=ModeSpec(a=0.7, n=3, c=2.0), mirror_distance=4.0,
                      instruments=[detector("DR", 2.0, efficiency=0.5), detector("DL", -1.5)],
                      trials=4000, seed=23)
        sweeps = {(ev.instrument.id, ev.branch): ev for ev in crossing_events(sc)}
        assert len(sweeps) == 4 and all(ev.origin == ev.t_start for ev in sweeps.values())
        trials = run_trials(sc)
        landed = np.zeros(len(trials), dtype=bool)
        for (name, branch), ev in sweeps.items():
            hit = ((trials.instrument == trials.ids.index(name))
                   & (trials.branch == Trials.BRANCHES.index(branch)))
            times = trials.click_time[hit]
            assert hit.any() and np.all((ev.t_start <= times) & (times <= ev.t_end))
            landed |= hit
        assert landed.all()

    def test_preferred_way_always_clicks(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0)],
            model=OutcomeModel.PREFERRED_WAY, trials=400, seed=5,
        )
        report = run(sc)
        assert report.per_instrument["D1"].rate == 1.0

    def test_preferred_way_tie_flagged(self):
        # earliest-inserted and closest disagree -> outcome is flagged
        d_far = detector("DFAR", -8.0, insertion=0.0)
        d_near = detector("DNEAR", 2.0, insertion=1.0)
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[d_far, d_near],
            model=OutcomeModel.PREFERRED_WAY, trials=50, seed=8,
        )
        report = run(sc)
        assert report.undetermined_count == 50
        assert report.per_instrument["DFAR"].rate == 1.0  # earliest-inserted default
        sc.tie_rule = "closest"
        report = run(sc)
        assert report.per_instrument["DNEAR"].rate == 1.0

    def test_branch_labels(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", -8.0)],
            trials=800, seed=21,
        )
        trials = run_trials(sc)
        branches = {Trials.BRANCHES[b] for b in trials.branch[trials.instrument >= 0]}
        assert branches == {Branch.LEADING_PULSE, Branch.TRAILING_PULSE}

    def test_unreachable_detector_never_clicks(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0, insertion=8.0)],
            trials=1000, seed=2,
        )
        assert np.all(run_trials(sc).instrument == -1)

    def test_marginal_rate_converges(self):
        sc = Scenario(mode=MODE, instruments=[detector("D1", 3.0)], trials=40000, seed=13)
        rate = run(sc).per_instrument["D1"].rate
        assert abs(rate - 0.5) < 3.0 * np.sqrt(0.25 / 40000)


def _scatter(scenario):
    """Scatter positions of the scenario's trials that land on its first instrument, a gun."""
    trials = run_trials(scenario)
    return trials.scatter_x[trials.instrument == 0]


class TestElectronGuns:
    def test_single_gun_half_rate(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 4.2, 5.0)],
            trials=40000, seed=31,
        )
        rate = run(sc).per_instrument["EG"].rate
        assert abs(rate - 0.5) < 3.0 * np.sqrt(0.25 / 40000)

    def test_two_guns_full_coverage(self):
        sc = Scenario(
            mode=MODE,
            instruments=[gun("EGL", -3.0, 3.0), gun("EGR", 3.0, 2.8)],
            trials=5000, seed=41,
        )
        outcomes = run_trials(sc)
        assert outcomes.ids == ("EGL", "EGR") and np.all(outcomes.instrument >= 0)
        sides = {(outcomes.ids[k], Trials.BRANCHES[b])
                 for k, b in zip(outcomes.instrument, outcomes.branch)}
        assert sides == {("EGL", Branch.LEFT), ("EGR", Branch.RIGHT)}

    # scenarios/two_guns.txt, a shot during the reflection, a shot that misses its
    # pulse (no-overlap) and a gun on one side only
    @pytest.mark.parametrize("mirror,guns", [
        (None, [gun("EGL", -3.0, 3.0), gun("EGR", 3.0, 2.8)]),
        (5.0, [gun("EGL", -3.0, 3.0), gun("EGM", 4.8, 4.75)]),
        (None, [gun("EGL", -3.0, 3.0), gun("EGR", 3.0, 9.0)]),
        (5.0, [gun("EG", 4.2, 5.0)]),
    ])
    @pytest.mark.parametrize("model", list(OutcomeModel))
    def test_click_time_is_the_shot_time(self, mirror, guns, model):
        # the CSV writer formats one click time per gun on this property
        sc = Scenario(mode=MODE, mirror_distance=mirror, instruments=guns, model=model,
                      trials=5000, seed=23)
        trials = run_trials(sc)
        shots = np.array([ins.insertion_time for ins in guns])
        clicked = trials.instrument >= 0
        assert clicked.any()
        assert np.array_equal(trials.click_time[clicked].view(np.int64),
                              shots[trials.instrument[clicked]].view(np.int64))
        assert np.isnan(trials.click_time[~clicked]).all()

    def test_shot_outside_window_flagged(self):
        sc = Scenario(mode=MODE, instruments=[gun("EG", -3.0, 9.0)], trials=200, seed=1)
        outcomes = run_trials(sc)
        left = outcomes.branch == Trials.BRANCHES.index(Branch.LEFT)
        assert left.any() and np.all(outcomes.flag[left] == Trials.FLAGS.index("no-overlap"))
        assert np.all(outcomes.instrument[left] == -1)

    def test_scatter_positions_within_support(self):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 4.2, 5.0)],
                      trials=10000, seed=7)
        xs = _scatter(sc)
        assert len(xs) > 4500 and xs.min() >= 4.5 - 1e-9 and xs.max() <= 5.0 + 1e-9

    def test_scatter_during_reflection_lies_on_the_pieces(self):
        # shot at t = 4.75, s = 0.25 into the reflection: pieces on [-0.75, 0] from D
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EGM", 4.8, 4.75)],
                      trials=2000, seed=9)
        (event,) = [ev for ev in crossing_events(sc) if ev.instrument is not None]
        assert event.origin == 5.0 and event.pieces == reflection_pieces(MODE, 0.25)
        lo, hi = event.origin + event.pieces[0].lo, event.origin + event.pieces[-1].hi
        xs = _scatter(sc)
        assert len(xs) > 900 and lo <= xs.min() and xs.max() <= hi

    def test_scatter_follows_cos_squared_at_half(self):
        from scipy.stats import chisquare

        # half the trials land on the gun: twice the draws give ~50000 scatters
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 4.2, 5.0)],
                      trials=100_000, seed=3)
        xs = _scatter(sc)
        edges = np.linspace(4.5, 5.0, 26)
        observed, _ = np.histogram(xs, bins=edges)
        # expected from the antiderivative of 4 cos^2(pi (x - 5))
        anti = lambda x: 2.0 * (x - 5.0) + np.sin(2.0 * np.pi * (x - 5.0)) / np.pi
        expected = np.diff([anti(e) for e in edges]) * len(xs)
        assert chisquare(observed, expected).pvalue > 0.01

    def test_shot_before_mirror_contact_is_free_space(self):
        # pulse on [2.5, 3.5] at t = 3, still 1.5 short of the mirror: a gun
        # at x = 1 misses it exactly as it would without a mirror
        shot = gun("EG", 1.0, 3.0)
        mirrored = Scenario(mode=MODE, mirror_distance=5.0, instruments=[shot],
                            trials=200, seed=1)
        free = Scenario(mode=MODE, instruments=[shot], trials=200, seed=1)
        outcomes = run_trials(mirrored)
        assert outcomes == run_trials(free)
        right = outcomes.branch == Trials.BRANCHES.index(Branch.RIGHT)
        assert right.any() and np.all(outcomes.flag[right] == Trials.FLAGS.index("no-overlap"))
        assert np.all(outcomes.instrument[right] == -1)
        assert {ev.instrument for ev in crossing_events(mirrored)} - {None} == set()

    def test_shot_before_mirror_contact_scatters_on_incident_pulse(self):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 3.2, 3.0)],
                      trials=4000, seed=5)
        xs = _scatter(sc)
        assert len(xs) > 1800 and xs.min() >= 2.5 and xs.max() <= 3.5


class TestSamplerTable:
    @pytest.mark.parametrize("n", [1, 16, 200])
    @pytest.mark.parametrize("s, bound", [(None, 5e-8), (0.25, 5e-8), (1e-6, 2e-7)])
    def test_inverse_cdf_error_linear_in_n(self, n, s, bound):
        # s None: the pulse profile; else a gun's reflection pieces at moment s
        mode = ModeSpec(n=n)
        pieces = pulse_pieces(mode, 0.0, 1) if s is None else reflection_pieces(mode, s)
        cdf, x = _table(mode, pieces)
        u = np.linspace(0.0, 1.0, 200_001)
        mass = cumulative(pieces, mode.k, np.interp(u, cdf, x)) / cumulative(pieces, mode.k, x[-1])
        assert np.abs(mass - u).max() <= bound * n


class TestByEvent:
    """``_by_event`` groups the trials by pick exactly, whatever the event count,
    and orders each group by u1 to within one bucket."""

    @pytest.mark.parametrize("events", [0, 1, 3, 7, 2**15 - 2, 2**15 - 1, 2**15, 40_000])
    def test_groups_by_pick_and_orders_by_u1(self, events):
        rng = np.random.default_rng(events)
        pick = rng.integers(0, events, 50_000, endpoint=True)
        u1 = rng.random(50_000)
        order = _by_event(pick, u1, events)
        assert np.array_equal(np.sort(order), np.arange(50_000))
        assert np.all(np.diff(pick[order]) >= 0)
        if events <= 7:
            for r in range(events + 1):
                run = u1[order[pick[order] == r]]
                assert np.all(np.maximum.accumulate(run) - run < 2.0**-12)


def _stream_scenarios():
    """A detector scenario, a gun scenario and a comparator scenario."""
    return {
        "detectors": Scenario(mode=MODE, mirror_distance=5.0,
                              instruments=[detector("DR", 3.0), detector("DL", -8.0)],
                              trials=1100, seed=17),
        "guns": Scenario(mode=MODE, instruments=[gun("EGL", -3.0, 3.0), gun("EGR", 3.0, 9.0)],
                         trials=1100, seed=18),
        "preferred": Scenario(mode=MODE, mirror_distance=5.0,
                              instruments=[detector("DFAR", -8.0), detector("DNEAR", 2.0, 1.0)],
                              model=OutcomeModel.PREFERRED_WAY, trials=1100, seed=19),
    }


class TestCounterStream:
    """Trial i is a pure function of (seed, i): its draws are Philox counter block i."""

    @pytest.mark.parametrize("name", ["detectors", "guns", "preferred"])
    @pytest.mark.parametrize("chunk", [1, 997, None])
    def test_chunks_match_full_run(self, name, chunk):
        sc = _stream_scenarios()[name]
        full = run_trials(sc)
        assert len(full) == sc.trials
        step = chunk or sc.trials
        for lo in range(0, sc.trials, step):
            hi = min(lo + step, sc.trials)
            assert run_trials(sc, lo, hi) == full[lo:hi]

    @pytest.mark.parametrize("name", ["detectors", "guns", "preferred"])
    def test_single_trial_at_block_boundaries(self, name):
        sc = _stream_scenarios()[name]
        full = run_trials(sc)
        for i in (0, 1, sc.trials - 1):
            assert run_trials(sc, i, i + 1) == full[i:i + 1]

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["detectors", "guns", "preferred"]),
           seed=st.integers(0, 2**63), i=st.integers(0, 10**6), before=st.integers(0, 50),
           after=st.integers(1, 50))
    def test_trial_independent_of_range(self, name, seed, i, before, after):
        sc = dataclasses.replace(_stream_scenarios()[name], seed=seed)
        lo = max(0, i - before)
        assert run_trials(sc, lo, i + after)[i - lo:i - lo + 1] == run_trials(sc, i, i + 1)

    def test_bad_range_rejected(self):
        sc = _stream_scenarios()["detectors"]
        with pytest.raises(ValueError, match="trial range"):
            run_trials(sc, 5, 4)
        assert len(run_trials(sc, 7, 7)) == 0


class TestTrialsSequence:
    def test_slices(self):
        sc = _stream_scenarios()["guns"]
        trials = run_trials(sc)
        assert len(trials) == 1100
        assert isinstance(trials[10:20], Trials) and trials[10:20] == run_trials(sc, 10, 20)
        assert trials[-1:] == run_trials(sc, 1099, 1100) and trials[5:6] == run_trials(sc, 5, 6)
        assert len(trials[1100:]) == 0

    def test_integer_index_names_slicing(self):
        trials = run_trials(_stream_scenarios()["guns"])
        for index in (0, -1, 1100, np.int64(5)):
            with pytest.raises(TypeError, match=r"trials\[i:i \+ 1\]"):
                trials[index]
        with pytest.raises(TypeError, match="slices"):
            list(trials)

    def test_columns_read_only(self):
        trials = run_trials(_stream_scenarios()["detectors"])
        with pytest.raises(ValueError):
            trials.click_time[0] = 0.0

    def test_scatter_x_missing_exactly_without_click(self):
        trials = run_trials(_stream_scenarios()["guns"])
        assert np.array_equal(np.isnan(trials.scatter_x), trials.instrument < 0)


class TestRateAudit:
    @pytest.mark.parametrize("name", ["detectors", "guns"])
    def test_expected_is_sum_of_masses(self, name):
        sc = _stream_scenarios()[name]
        report = run(sc)
        masses = {ins.id: 0.0 for ins in sc.instruments}
        for ev in crossing_events(sc):
            if ev.instrument is not None:
                masses[ev.instrument.id] += ev.mass
        assert {k: stats.expected for k, stats in report.per_instrument.items()} == masses
        assert report.rate_violations == 0
        assert all(abs(stats.z) <= Z_BOUND for stats in report.per_instrument.values())

    @pytest.mark.parametrize("name", ["detectors", "guns"])
    def test_reports_are_plain_values(self, name):
        sc = _stream_scenarios()[name]
        assert run(sc) == run(sc)

    def test_certain_rates_must_be_exact(self):
        # far-left detector: p = 1, so one missed click is a violation
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[detector("D1", -8.0)],
                      trials=200, seed=4)
        trials = run_trials(sc)
        assert aggregate(sc, trials).per_instrument["D1"].z == 0.0
        missed = dataclasses.replace(trials, instrument=np.where(np.arange(200) == 3, -1, 0))
        report = aggregate(sc, missed)
        assert report.per_instrument["D1"].z == -np.inf
        assert report.rate_violations == 1

    def test_single_click_at_tiny_rate_is_no_violation(self):
        # mass 5e-7 over 20000 trials: one click has probability ~1% for a correct
        # sampler, though its normal score (1 - 0.01) / sqrt(0.01) = 9.9 passes 6
        sc = Scenario(mode=MODE, instruments=[detector("D1", 3.0, efficiency=1e-6)],
                      trials=20000, seed=6)
        trials = run_trials(sc)
        assert trials.expected[0] == pytest.approx(5e-7)
        one = dataclasses.replace(trials, instrument=np.where(np.arange(20000) == 9, 0, -1))
        report = aggregate(sc, one)
        assert 0.0 < report.per_instrument["D1"].z < Z_BOUND
        assert report.rate_violations == 0

    def test_empty_range_raises(self):
        sc = _stream_scenarios()["detectors"]
        empty = run_trials(sc, 5, 5)  # a legal range with no trials
        with pytest.raises(ValueError, match="empty trial range"):
            aggregate(sc, empty)

    def test_biased_sampler_flagged(self):
        sc = _stream_scenarios()["detectors"]
        trials = run_trials(sc)
        # every trial credited to DR, whose exact rate is 1/2
        biased = dataclasses.replace(trials, instrument=np.zeros(len(trials), dtype=int))
        report = aggregate(sc, biased)
        assert report.rate_violations == 2  # DR far above, DL far below
        assert report.per_instrument["DR"].z > Z_BOUND


class TestScenarioValidation:
    def test_mirror_too_close(self):
        sc = Scenario(mode=MODE, mirror_distance=0.5)
        with pytest.raises(ValueError, match="mirror distance"):
            sc.validate()

    def test_duplicate_positions(self):
        sc = Scenario(mode=MODE, instruments=[detector("A", 3.0), detector("B", 3.0)])
        with pytest.raises(ValueError, match="positions"):
            sc.validate()

    def test_mixed_instrument_kinds(self):
        sc = Scenario(mode=MODE, instruments=[detector("A", 3.0), gun("B", -3.0, 3.0)])
        with pytest.raises(ValueError, match="mixing"):
            sc.validate()

    def test_one_gun_per_side(self):
        sc = Scenario(mode=MODE, instruments=[gun("A", -3.0, 3.0), gun("B", -4.0, 3.0)])
        with pytest.raises(ValueError, match="at most one electron gun per side"):
            sc.validate()
        Scenario(mode=MODE, instruments=[gun("A", -3.0, 3.0), gun("B", 4.0, 3.0)]).validate()

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(mode=MODE, mirror_distance=float("nan")),
            Scenario(mode=MODE, mirror_distance=float("inf")),
            Scenario(mode=MODE, instruments=[detector("A", float("nan"))]),
            Scenario(mode=MODE, instruments=[gun("G", float("inf"), 3.0)]),
            Scenario(mode=MODE, instruments=[detector("A", 3.0, insertion=float("nan"))]),
            Scenario(mode=MODE, instruments=[detector("A", 3.0, insertion=float("inf"))]),
            Scenario(mode=MODE, instruments=[detector("A", 3.0, removal=float("nan"))]),
            Scenario(mode=MODE, instruments=[detector("A", 3.0, removal=float("inf"))]),
        ],
    )
    def test_non_finite_rejected(self, scenario):
        with pytest.raises(ValueError, match="finite"):
            scenario.validate()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            Scenario(mode=MODE, seed=seed).validate()
        Scenario(mode=MODE, seed=2**128 - 1).validate()

    def test_bad_removal(self):
        with pytest.raises(ValueError, match="removal"):
            Scenario(mode=MODE, instruments=[detector("A", 3.0, insertion=2.0, removal=1.0)]).validate()
