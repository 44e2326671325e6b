import numpy as np
import pytest

from splitphoton import ModeSpec
from splitphoton.experiments import (
    Branch,
    Instrument,
    InstrumentKind,
    OutcomeModel,
    Scenario,
    aggregate,
    crossing_events,
    reachable,
    run,
    run_trials,
    sample_trial,
    scatter_positions,
    window,
)
from splitphoton.validation import integrate

MODE = ModeSpec()


def detector(id, position, insertion=0.0, removal=None, efficiency=1.0):
    return Instrument(id, InstrumentKind.PHOTON_DETECTOR, position, insertion, removal, efficiency)


def gun(id, position, shot):
    return Instrument(id, InstrumentKind.ELECTRON_GUN, position, shot)


class TestWindows:
    def test_reflection_shots(self):
        assert window("reflection_shots", a=1.0, c=1.0, D=5.0) == (4.5, 5.5)

    def test_left_gun_shots(self):
        assert window("left_gun_shots", a=1.0, c=1.0, L=3.0) == (2.5, 3.5)

    def test_pre_arrival(self):
        lo, hi = window("pre_arrival_insertion", a=1.0, c=1.0, S=3.0)
        assert (lo, hi) == (0.0, 2.5)

    def test_pre_arrival_empty_inside_source(self):
        lo, hi = window("pre_arrival_insertion", a=1.0, c=1.0, S=0.5)
        assert hi <= lo

    def test_measurement_region(self):
        assert window("measurement_region", a=1.0, c=1.0, D=5.0) == (4.0, 5.0)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            window("reflection_shots", a=1.0, c=1.0, D=0.5)
        with pytest.raises(ValueError):
            window("no_such_window", a=1.0, c=1.0)


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
        assert events[0].branch == "reflected"

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
        assert [ev.branch for ev in crossing_events(back)] == ["reflected"]
        blocked = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", -2.0, insertion=8.0)],
            source_blocking=True,
        )
        assert crossing_events(blocked) == []
        assert len(crossing_events(open_sc)) == 2  # incident + reflected sweeps


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
        assert all(o.clicked in ("DR", "DL") for o in outcomes)
        report = aggregate(sc, outcomes)
        assert report.none_count == 0
        assert report.anti_coincidence_violations == 0

    def test_click_time_respects_insertion(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0, insertion=2.9)],
            trials=500, seed=3,
        )
        for o in run_trials(sc):
            if o.clicked:
                assert o.click_time >= 2.9 - 1e-6

    def test_determinism(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0,
            instruments=[detector("DR", 3.0), detector("DL", -3.0)],
            trials=300, seed=99,
        )
        assert run_trials(sc) == run_trials(sc)
        assert sample_trial(sc, 17) == run_trials(sc)[17]

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
        branches = {o.resolved_branch for o in run_trials(sc) if o.clicked}
        assert branches == {Branch.LEADING_PULSE, Branch.TRAILING_PULSE}

    def test_unreachable_detector_never_clicks(self):
        sc = Scenario(
            mode=MODE, mirror_distance=5.0, instruments=[detector("D1", 3.0, insertion=8.0)],
            trials=1000, seed=2,
        )
        assert all(o.clicked is None for o in run_trials(sc))

    def test_marginal_rate_converges(self):
        sc = Scenario(mode=MODE, instruments=[detector("D1", 3.0)], trials=40000, seed=13)
        rate = run(sc).per_instrument["D1"].rate
        assert abs(rate - 0.5) < 3.0 * np.sqrt(0.25 / 40000)


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
        assert all(o.clicked in ("EGL", "EGR") for o in outcomes)
        sides = {o.clicked: o.resolved_branch for o in outcomes}
        assert sides["EGL"] is Branch.LEFT and sides["EGR"] is Branch.RIGHT

    def test_shot_outside_window_flagged(self):
        sc = Scenario(mode=MODE, instruments=[gun("EG", -3.0, 9.0)], trials=200, seed=1)
        outcomes = run_trials(sc)
        left = [o for o in outcomes if o.resolved_branch is Branch.LEFT]
        assert left and all(o.flag == "no-overlap" and o.clicked is None for o in left)

    def test_scatter_positions_within_support(self):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 4.2, 5.0)])
        xs = scatter_positions(sc, "EG", 5000, seed=7)
        assert xs.min() >= 4.5 - 1e-9 and xs.max() <= 5.0 + 1e-9

    def test_scatter_follows_cos_squared_at_half(self):
        from scipy.stats import chisquare

        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 4.2, 5.0)])
        xs = scatter_positions(sc, "EG", 50000, seed=3)
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
        right = [o for o in outcomes if o.resolved_branch is Branch.RIGHT]
        assert right and all(o.flag == "no-overlap" and o.clicked is None for o in right)
        assert reachable(mirrored) == []
        with pytest.raises(ValueError, match="no pulse overlap"):
            scatter_positions(mirrored, "EG", 10)

    def test_shot_before_mirror_contact_scatters_on_incident_pulse(self):
        sc = Scenario(mode=MODE, mirror_distance=5.0, instruments=[gun("EG", 3.2, 3.0)])
        xs = scatter_positions(sc, "EG", 2000, seed=5)
        assert xs.min() >= 2.5 and xs.max() <= 3.5


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

    def test_bad_removal(self):
        with pytest.raises(ValueError, match="removal"):
            Scenario(mode=MODE, instruments=[detector("A", 3.0, insertion=2.0, removal=1.0)]).validate()
