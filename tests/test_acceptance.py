"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints ``PASS <criterion>`` on success; failures surface through
the usual pytest assertion report.  Tolerances and runtime budgets are
pinned in the constants below.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from splitphoton import ModeSpec, split_state
from splitphoton.experiments import (
    Branch,
    Instrument,
    InstrumentKind,
    OutcomeModel,
    Scenario,
    Trials,
    crossing_events,
    run,
    run_trials,
)
from splitphoton.reflection import domain_edges, energy_ledger, reflect_field
from splitphoton.snapshot import reflection_snapshot
from splitphoton.validation import integrate, locate_jumps
from splitphoton.wavestate import eigenmode

N_TRIALS = 100_000
THREE_SIGMA = 3.0 * np.sqrt(0.25 / N_TRIALS)  # 0.00474 for a fair-coin rate
MC_BUDGET_S = 10.0


def _passed(label: str) -> None:
    print(f"PASS {label}")


def detector(id, position, insertion=0.0):
    return Instrument(id, InstrumentKind.PHOTON_DETECTOR, position, insertion)


def gun(id, position, shot):
    return Instrument(id, InstrumentKind.ELECTRON_GUN, position, shot)


def test_criterion_1_energy_conservation():
    t0 = time.perf_counter()
    s_grid = np.linspace(0.0, 1.0, 1000)
    worst_closed = 0.0
    for n in (1, 2, 3):
        mode = ModeSpec(n=n)
        for s in s_grid:
            led = energy_ledger(mode, s)
            worst_closed = max(worst_closed, abs(led.total / mode.a - 1.0))
    assert worst_closed < 1e-12

    # quadrature oracle on a thinned sub-grid (full cross-check lives in
    # the identity suite; here we keep inside the runtime budget)
    worst_quad = 0.0
    mode = ModeSpec()
    for s in (0.05, 0.25, 0.5, 0.75, 0.95):
        far_edge, border = domain_edges(mode, s)

        def rho(x, _s=s):
            e, b = reflect_field(mode, _s, x)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        q = integrate(rho, far_edge, 0.0, tol=1e-11, breakpoints=[border]).value
        worst_quad = max(worst_quad, abs(mode.a * q - mode.a))
    assert worst_quad < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(
        f"criterion 1: conservation over 1000-point s sweep, n in {{1,2,3}} "
        f"(closed-form {worst_closed:.2e} < 1e-12, oracle {worst_quad:.2e} < 1e-8, "
        f"{elapsed:.2f}s < 1s)"
    )


def test_criterion_2_midpoint_collapse():
    mode = ModeSpec()
    led = energy_ledger(mode, 0.5)
    assert abs(led.e_rw) < 1e-12
    far_edge, border = domain_edges(mode, 0.5)
    assert border - far_edge == 0.0  # the running-wave domain shrinks to a point
    snap = reflection_snapshot(mode, 0.5, n_points=1024)
    e_max = float(np.max(np.abs(snap.E)))
    assert e_max < 1e-12
    _passed(
        f"criterion 2: midpoint collapse (e_rw={led.e_rw:.1e}, point RW domain, "
        f"max|E|={e_max:.1e} < 1e-12 on 1024 points)"
    )


def test_criterion_3_discontinuity_kinematics():
    t0 = time.perf_counter()
    mode = ModeSpec()
    grid = 1024
    cell = mode.a / (grid - 1)
    s_values = np.linspace(0.0, 1.0, 52)[1:-1]
    located = []
    for s in s_values:
        snap = reflection_snapshot(mode, s, n_points=grid)
        far_edge, border = domain_edges(mode, s)
        inner = [
            j
            for j in locate_jumps(snap)[0]
            if abs(j.location - far_edge) > 1.5 * cell and abs(j.location) > 1.5 * cell
        ]
        assert inner, f"no inner jump located at s={s}"
        best = max(inner, key=lambda j: j.score).location
        assert abs(best - border) <= cell
        located.append(best)
    located = np.asarray(located)
    # V-shaped track: away from the mirror until s=a/2, then back
    half = len(located) // 2
    assert np.all(np.diff(located[:half]) < 0)  # receding
    assert np.all(np.diff(located[-half:]) > 0)  # returning
    deepest = min(domain_edges(mode, s)[1] for s in s_values)
    assert located.min() == pytest.approx(deepest, abs=2 * cell)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(
        f"criterion 3: located jump tracks -min(s, a-s) within one cell over 50 "
        f"s values; V-shaped out-and-back ({elapsed:.2f}s < 5s)"
    )


def test_criterion_4_continuity_with_derivative_jump():
    mode = ModeSpec()
    eps = 1e-7
    worst_value_jump = 0.0
    min_slope_jump = np.inf
    for s in np.linspace(0.05, 0.95, 19):
        if abs(s - 0.5) < 1e-9:
            continue
        border = domain_edges(mode, s)[1]
        below = np.array([border - 2 * eps, border - eps])
        above = np.array([border + eps, border + 2 * eps])
        for side in (0, 1):
            lo = reflect_field(mode, s, below)[side]
            hi = reflect_field(mode, s, above)[side]
            value_jump = abs(lo[1] - hi[0])
            slope_jump = abs((hi[1] - hi[0]) / eps - (lo[1] - lo[0]) / eps)
            worst_value_jump = max(worst_value_jump, value_jump)
            min_slope_jump = min(min_slope_jump, slope_jump)
    assert worst_value_jump < 1e-6  # continuity, limited by the 1e-7 probe offset
    # exact statement, via one-sided analytic limits at the border
    for s in (0.2, 0.35, 0.7):
        border = domain_edges(mode, s)[1]
        e_lo, b_lo = reflect_field(mode, s, border - 1e-12)
        e_hi, b_hi = reflect_field(mode, s, border + 1e-12)
        assert abs(e_lo - e_hi) < 1e-11 and abs(b_lo - b_hi) < 1e-11
    assert min_slope_jump > 1.0  # the derivative jump magnitude is 2k*A-scale
    _passed(
        f"criterion 4: fields continuous at every RW/SW border "
        f"(max jump {worst_value_jump:.1e}) with nonzero derivative jump "
        f"(min {min_slope_jump:.2f})"
    )


def test_criterion_5_end_state_identity():
    mode = ModeSpec()
    x = np.linspace(-1.0, 0.0, 1024)
    e_end, b_end = (np.asarray(v) for v in reflect_field(mode, 1.0, x))
    # incident pulse on [-a, 0] heading right: E = B = sin(k(x + a)) / sqrt(a)
    e_inc = np.sin(np.pi * (x + 1.0))
    b_inc = e_inc
    e_res = float(np.max(np.abs(e_end + e_inc)))  # E reversed
    b_res = float(np.max(np.abs(b_end - b_inc)))  # B preserved
    assert e_res < 1e-12 and b_res < 1e-12
    _passed(
        f"criterion 5: end state = incident pulse with E reversed, B preserved "
        f"(residuals {e_res:.1e}, {b_res:.1e} < 1e-12)"
    )


def test_criterion_6_normalization_across_regimes():
    mode = ModeSpec()
    worst = 0.0

    def rho_cavity(x):
        e, b = eigenmode(mode, x, 0.37)
        return np.asarray(e) ** 2 + np.asarray(b) ** 2

    worst = max(worst, abs(integrate(rho_cavity, 0.0, 1.0, tol=1e-11).value - 1.0))

    for t in (0.0, 0.2, 5.0):

        def rho_split(x, _t=t):
            e, b = split_state(mode, x, _t)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        cuts = [-t, 1.0 - t, t, 1.0 + t]
        q = integrate(rho_split, -t, 1.0 + t, tol=1e-11, breakpoints=cuts)
        worst = max(worst, abs(q.value - 1.0))

    for s in (0.1, 0.25, 0.5, 0.9):
        far_edge, border = domain_edges(mode, s)

        def rho_ref(x, _s=s):
            e, b = reflect_field(mode, _s, x)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        q = integrate(rho_ref, far_edge, 0.0, tol=1e-11, breakpoints=[border])
        worst = max(worst, abs(q.value - 1.0))

    assert worst < 1e-8
    _passed(f"criterion 6: normalization in all regimes (worst {worst:.1e} < 1e-8)")


class TestCriterion7MonteCarlo:
    def _timed(self, scenario):
        t0 = time.perf_counter()
        report = run(scenario)
        elapsed = time.perf_counter() - t0
        assert elapsed < MC_BUDGET_S
        return report, elapsed

    def test_single_detector_gap(self):
        base = dict(
            mode=ModeSpec(), mirror_distance=5.0,
            instruments=[detector("DR", 3.0)], trials=N_TRIALS, seed=42,
        )
        qm, t_qm = self._timed(Scenario(**base))
        pw, t_pw = self._timed(Scenario(**base, model=OutcomeModel.PREFERRED_WAY))
        rate_qm = qm.per_instrument["DR"].rate
        assert abs(rate_qm - 0.5) < THREE_SIGMA
        assert pw.per_instrument["DR"].rate == 1.0
        _passed(
            f"criterion 7a: single-detector gap (QM {rate_qm:.4f} = 0.5 +/- "
            f"{THREE_SIGMA:.4f}, comparator 1.0 exactly; {t_qm:.1f}s/{t_pw:.1f}s < 10s)"
        )

    def test_two_detectors_anti_coincidence(self):
        sc = Scenario(
            mode=ModeSpec(), mirror_distance=5.0,
            instruments=[detector("DR", 3.0), detector("DL", -3.0)],
            trials=N_TRIALS, seed=43,
        )
        report, elapsed = self._timed(sc)
        assert report.rate_violations == 0
        assert report.none_count == 0
        assert all(stats.expected == 0.5 for stats in report.per_instrument.values())
        r_r = report.per_instrument["DR"].rate
        r_l = report.per_instrument["DL"].rate
        assert abs(r_r - 0.5) < THREE_SIGMA and abs(r_l - 0.5) < THREE_SIGMA
        _passed(
            f"criterion 7b: two detectors, 0 anti-coincidence violations, rates "
            f"{r_r:.4f}/{r_l:.4f} = 0.5 +/- {THREE_SIGMA:.4f} ({elapsed:.1f}s < 10s)"
        )

    def test_late_insertion_silence(self):
        # detector inserted only after the reflected pulse has passed it
        sc = Scenario(
            mode=ModeSpec(), mirror_distance=5.0,
            instruments=[detector("D1", 3.0, insertion=8.0)],
            trials=N_TRIALS, seed=44,
        )
        report, elapsed = self._timed(sc)
        assert report.per_instrument["D1"].count == 0
        assert report.none_count == N_TRIALS
        _passed(
            f"criterion 7c: late insertion gives exactly zero detections "
            f"({elapsed:.1f}s < 10s)"
        )

    def test_far_left_detector_both_passes(self):
        sc = Scenario(
            mode=ModeSpec(), mirror_distance=5.0,
            instruments=[detector("D1", -8.0)], trials=N_TRIALS, seed=45,
        )
        report, elapsed = self._timed(sc)
        stats = report.per_instrument["D1"]
        assert stats.rate == 1.0  # both half-selves eventually sweep it
        outcomes = run_trials(sc)
        lead = outcomes.click_time[outcomes.branch == Trials.BRANCHES.index(Branch.LEADING_PULSE)]
        trail = outcomes.click_time[outcomes.branch == Trials.BRANCHES.index(Branch.TRAILING_PULSE)]
        frac = len(lead) / N_TRIALS
        assert abs(frac - 0.5) < THREE_SIGMA
        assert max(lead) < min(trail)  # disjoint clusters
        gap = np.mean(trail) - np.mean(lead)
        assert gap == pytest.approx(10.0, abs=0.02)  # 2D/c between the two passes
        _passed(
            f"criterion 7d: far-left detector rate 1.0 exactly, leading fraction "
            f"{frac:.4f} = 0.5 +/- {THREE_SIGMA:.4f}, cluster gap {gap:.3f} ~= 2D/c "
            f"({elapsed:.1f}s < 10s)"
        )

    def test_shadowing_between_detectors(self):
        # both between source and mirror, inserted only for the return pass:
        # the mirror-closer one sweeps first and takes the whole half-self
        sc = Scenario(
            mode=ModeSpec(), mirror_distance=5.0,
            instruments=[detector("DNEAR", 2.5, insertion=6.0),
                         detector("DFAR", 1.5, insertion=6.0)],
            trials=N_TRIALS, seed=46,
        )
        report, elapsed = self._timed(sc)
        near = report.per_instrument["DNEAR"].rate
        far = report.per_instrument["DFAR"].count
        assert far == 0
        assert abs(near - 0.5) < THREE_SIGMA
        _passed(
            f"criterion 7e: only the mirror-closer detector clicks "
            f"(rate {near:.4f} = 0.5 +/- {THREE_SIGMA:.4f}, other 0 exactly; "
            f"{elapsed:.1f}s < 10s)"
        )

    def test_two_guns_insertion_order_invariance(self):
        first = Scenario(
            mode=ModeSpec(),
            instruments=[gun("EGL", -3.0, 3.0), gun("EGR", 3.0, 2.8)],
            trials=N_TRIALS, seed=47,
        )
        swapped = Scenario(
            mode=ModeSpec(),
            instruments=[gun("EGL", -3.0, 3.2), gun("EGR", 3.0, 3.0)],
            trials=N_TRIALS, seed=48,
        )
        r1, t1 = self._timed(first)
        r2, t2 = self._timed(swapped)
        assert r1.none_count == 0 and r2.none_count == 0
        rate = r1.per_instrument["EGL"].rate
        assert abs(rate - 0.5) < THREE_SIGMA
        table = [
            [r1.per_instrument["EGL"].count, r1.per_instrument["EGR"].count],
            [r2.per_instrument["EGL"].count, r2.per_instrument["EGR"].count],
        ]
        p = chi2_contingency(table).pvalue
        assert p > 0.01
        _passed(
            f"criterion 7f: two guns detect every trial, left rate {rate:.4f} = 0.5 "
            f"+/- {THREE_SIGMA:.4f}, insertion-order invariance p={p:.3f} > 0.01 "
            f"({t1:.1f}s/{t2:.1f}s < 10s)"
        )


def test_criterion_8_gun_scatter_statistics():
    # shot timed to s = a/2, where the standing-wave density is pure cos^2
    D = 5.0
    # half the trials land on the gun: twice the draws give ~N_TRIALS scatters
    sc = Scenario(
        mode=ModeSpec(), mirror_distance=D,
        instruments=[gun("EG", 4.2, 5.0)], trials=2 * N_TRIALS, seed=49,
    )
    trials = run_trials(sc)
    xs = trials.scatter_x[trials.instrument == 0]
    edges = np.linspace(D - 0.5, D, 51)
    observed, _ = np.histogram(xs, bins=edges)
    anti = lambda x: 2.0 * (x - D) + np.sin(2.0 * np.pi * (x - D)) / np.pi
    expected = np.diff([anti(e) for e in edges]) * len(xs)
    result = chisquare(observed, expected)
    assert result.pvalue > 0.01
    _passed(
        f"criterion 8: scatter histogram vs cos^2 density, 50 bins, "
        f"p={result.pvalue:.3f} > 0.01"
    )


def test_criterion_9_timing_formulas():
    def event(instrument, branch):
        sc = Scenario(mode=ModeSpec(), mirror_distance=5.0, instruments=[instrument])
        return next(ev for ev in crossing_events(sc) if ev.branch is branch)

    # the reflection ends at (2D + a)/(2c) = 5.5, when the left half-self meets a
    # detector at -(D + a) and starts to lead the one-way pair
    assert event(detector("D", -6.0), Branch.LEADING_PULSE).t_start == 5.5
    assert event(detector("D", -5.99), Branch.LEFT).t_start < 5.5

    # hand substitution: reflection lasts one pulse-transit ending at t_D, shots
    # in [4.5, 5.5] meet the pieces at the mirror
    assert all(event(gun("EG", 4.8, t), Branch.RIGHT).origin == 5.0 for t in (4.5, 5.0, 5.5))
    assert all(event(gun("EG", 4.8, t), Branch.RIGHT).origin != 5.0 for t in (4.4, 5.6))
    # overlap with a gun L = 3 to the left: |t - L/c| <= a/(2c)
    assert all(event(gun("EG", -3.0, t), Branch.LEFT).instrument is not None for t in (2.5, 3.5))
    assert all(event(gun("EG", -3.0, t), Branch.LEFT).flag == "no-overlap" for t in (2.4, 3.6))
    # insertion before the leading edge reaches distance S = 3, t <= 2.5, catches it whole
    assert event(detector("D", 3.0, 2.5), Branch.RIGHT).frac_lo == 0.0
    assert event(detector("D", 3.0, 2.6), Branch.RIGHT).frac_lo > 0.0
    # empty at S = 0.5: a detector at 0.4 starts inside the initial pulse
    assert event(detector("D", 0.4, 0.0), Branch.RIGHT).frac_lo > 0.0
    _passed(
        "criterion 9: timing formulas exact (reflection ends at (2D + a)/(2c) = 5.5; "
        "windows (4.5,5.5), (2.5,3.5), (0,2.5), empty)"
    )
