"""Row-batched oracles against per-s references kept here.

``integrate`` refines every segment of every integral in lock-step rows,
``identity_suite`` and ``energy_ledger`` take all s at once, and ``track``
locates the rows of one stacked snapshot.  Each must give, bit for bit, what
the one-s-at-a-time computation below gives.
"""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import ModeSpec, validation
from splitphoton.cli import _located_inner_jumps
from splitphoton.reflection import domain_edges, energy_ledger, reflect_field, reflection_pieces
from splitphoton.snapshot import Snapshot, reflection_snapshot
from splitphoton.validation import QuadratureError, QuadResult, identity_suite, integrate

from test_validation import _reference_jumps


def _reference_segment(f, lo, hi, tol, max_depth):
    """One segment refined on its own: 8 Simpson panels, doubled per level.

    Running sums over the end, odd and even nodes: each level evaluates only
    its new midpoints, the odd entries of its ``np.linspace`` row, ``ROW_POINTS``
    at a time, and the old odd nodes join the even ones.
    """
    n = 8
    y = np.asarray(f(np.linspace(lo, hi, n + 1)), dtype=float)
    ends, odd, even = y[0] + y[-1], y[1:-1:2].sum(), y[2:-1:2].sum()
    evals = n + 1
    s_prev = (hi - lo) / n / 3.0 * (ends + 4.0 * odd + 2.0 * even)
    value, err = s_prev, np.inf
    if not np.isfinite(s_prev):
        return value, err, evals, False
    for _ in range(max_depth):
        n *= 2
        even += odd
        x = np.linspace(lo, hi, n + 1)[1::2]
        odd = 0.0
        for i in range(0, len(x), validation.ROW_POINTS):
            odd += np.asarray(f(x[i:i + validation.ROW_POINTS]), dtype=float).sum()
        evals += len(x)
        s = (hi - lo) / n / 3.0 * (ends + 4.0 * odd + 2.0 * even)
        err = abs(s - s_prev) / 15.0
        value = s + (s - s_prev) / 15.0
        if err < tol:
            return value, err, evals, True
        if not np.isfinite(s):
            return value, err, evals, False
        s_prev = s
    return value, err, evals, False


def _reference_integrate(f, lo, hi, tol, breakpoints=(), max_depth=validation.MAX_DEPTH):
    """Segments one after another, cut at the distinct breakpoints; returns
    (QuadResult, converged)."""
    if lo == hi:
        return QuadResult(0.0, 0.0, 0), True
    cuts = [lo] + sorted({p for p in breakpoints if lo < p < hi}) + [hi]
    total, err_sum, evals, ok_all = 0.0, 0.0, 0, True
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        value, err, n, ok = _reference_segment(f, seg_lo, seg_hi, tol, max_depth)
        total += value
        err_sum += err
        evals += n
        ok_all = ok_all and ok
    return QuadResult(float(total), float(err_sum), evals), ok_all


def _outcome(f, lo, hi, **kwargs):
    """integrate's result and whether it converged, the error's best estimate if not."""
    try:
        return integrate(f, lo, hi, **kwargs), True
    except QuadratureError as exc:
        return exc.best, False


def _same(a: QuadResult, b: QuadResult) -> bool:
    return (np.array_equal(a.value, b.value, equal_nan=True)
            and np.array_equal(a.est_error, b.est_error, equal_nan=True)
            and a.evaluations == b.evaluations)


INTEGRANDS = {
    "smooth": lambda x: np.sin(3.0 * x) ** 2 + 0.5,
    "kink": lambda x: np.abs(x - 0.3) + x * x,
    "rough": lambda x: np.abs(np.sin(7.0 * x)) ** 0.3,
    "wave": lambda x: np.sin(16.0 * np.pi * x) ** 2,
}


class TestIntegrateRows:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(INTEGRANDS)),
        lo=st.floats(-3.0, 3.0),
        width=st.one_of(st.just(0.0), st.floats(1e-6, 4.0)),
        cuts=st.lists(st.floats(-4.0, 8.0), max_size=4),
        repeat=st.booleans(),
        tol=st.sampled_from([1e-6, 1e-10, 1e-12]),
        max_depth=st.integers(0, 9),
    )
    def test_matches_segment_loop(self, name, lo, width, cuts, repeat, tol, max_depth):
        f = INTEGRANDS[name]
        hi = lo + width
        if repeat and cuts:  # a repeated breakpoint adds no segment
            cuts = cuts + cuts[:1]
        want, want_ok = _reference_integrate(f, lo, hi, tol, cuts, max_depth)
        got, ok = _outcome(f, lo, hi, tol=tol, breakpoints=cuts, max_depth=max_depth)
        assert ok == want_ok and _same(got, want)
        assert isinstance(got.evaluations, int)

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_column_chunks_match_segment_loop(self, monkeypatch, name):
        # at 16 points a row's midpoints come in column chunks from level 2 (32 panels) on
        monkeypatch.setattr(validation, "ROW_POINTS", 16)
        f = INTEGRANDS[name]
        for tol in (1e-6, 1e-12):
            want, want_ok = _reference_integrate(f, -0.7, 1.3, tol, [0.25], max_depth=7)
            got, ok = _outcome(f, -0.7, 1.3, tol=tol, breakpoints=[0.25], max_depth=7)
            assert ok == want_ok and _same(got, want)

    @pytest.mark.parametrize("name", ["smooth", "kink", "wave"])  # "rough" runs to depth 24
    def test_without_breakpoints_at_default_depth(self, name):
        want, want_ok = _reference_integrate(INTEGRANDS[name], -0.7, 1.3, 1e-11)
        got, ok = _outcome(INTEGRANDS[name], -0.7, 1.3, tol=1e-11)
        assert ok == want_ok and _same(got, want)

    @pytest.mark.parametrize("cuts", [
        [0.25],  # shared by every integral
        [[0.25, 0.75], [-0.5, 2.0], [0.5, 0.5], [2.25, 2.25]],  # one list per integral
    ])
    def test_array_limits_match_one_call_per_integral(self, cuts):
        lo = np.array([0.0, -1.0, 0.5, 2.0])
        hi = np.array([1.0, 3.0, 0.5, 2.5])
        w = np.array([1.0, 2.0, 3.0, 40.0])
        res = integrate(lambda x, w: np.sin(w * x) ** 2, lo, hi, tol=1e-11, breakpoints=cuts,
                        args=(w,))
        rows = np.broadcast_to(cuts, lo.shape + np.shape(cuts)[-1:])
        singles = [integrate(lambda x: np.sin(wi * x) ** 2, a, b, tol=1e-11, breakpoints=row)
                   for a, b, wi, row in zip(lo, hi, w, rows)]
        assert res.value.tolist() == [q.value for q in singles]
        assert res.est_error.tolist() == [q.est_error for q in singles]
        assert res.evaluations == sum(q.evaluations for q in singles)

    def test_repeated_breakpoint_costs_what_a_single_one_does(self):
        # a line stops at level 1: two segments of 17 nodes, no zero-width third
        assert integrate(lambda x: x, 0.0, 1.0, breakpoints=[0.5, 0.5]).evaluations == 2 * 17
        f = INTEGRANDS["smooth"]
        once = integrate(f, 0.0, 1.0, tol=1e-11, breakpoints=[0.5])
        for cuts in ([0.5, 0.5], [0.5, 0.5, 0.5]):
            assert _same(integrate(f, 0.0, 1.0, tol=1e-11, breakpoints=cuts), once)

    @pytest.mark.parametrize("cuts", [(), [0.25], np.empty((0, 2))])
    def test_empty_array_limits_give_empty_results(self, cuts):
        res = integrate(lambda x: x, np.array([]), np.array([]), breakpoints=cuts)
        assert res.value.shape == res.est_error.shape == (0,) and res.evaluations == 0

    def test_breakpoints_must_broadcast_against_the_limits(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, np.zeros(3), np.ones(3), breakpoints=[[0.5], [0.5]])

    @pytest.mark.parametrize("points", [None, 64, 1000, 10**6])
    def test_row_blocks_do_not_change_results(self, monkeypatch, points):
        # at 2**14 points a block holds 1820 rows of 9 nodes; 1821 spill into a second
        lo = np.linspace(0.0, 1.0, 1821)
        expect = [integrate(lambda x: np.cos(c * x), c, c + 1.0, tol=1e-9) for c in lo[::60]]
        if points is not None:
            monkeypatch.setattr(validation, "ROW_POINTS", points)
        for rows in (1819, 1820, 1821):
            got = integrate(lambda x, c: np.cos(c * x), lo[:rows], lo[:rows] + 1.0, tol=1e-9,
                            args=(lo[:rows],))
            assert got.value[::60].tolist() == [q.value for q in expect]
            assert got.est_error[::60].tolist() == [q.est_error for q in expect]

    def test_nodes_are_linspace_rows(self):
        # level 0 sees whole 9-node rows, level l only the odd entries of its rows
        seen = []

        def f(x):
            seen.append(x.copy())
            return x ** 4  # no level is exact, and tol -1 is never met

        lo, hi = np.array([-3.0, 0.1, -1e-3]), np.array([1e-17, 0.7, 5.0])
        with pytest.raises(QuadratureError):
            integrate(f, lo, hi, tol=-1.0, max_depth=2)
        assert [x.shape for x in seen] == [(3, 9), (3, 8), (3, 16)]
        for level, x in enumerate(seen):
            for row, a, b in zip(x, lo, hi):
                want = np.linspace(a, b, 8 * 2**level + 1)
                assert np.array_equal(row, want if level == 0 else want[1::2])

    @pytest.mark.parametrize("points", [None, 16, 40])
    def test_each_node_of_the_last_level_is_seen_once(self, monkeypatch, points):
        # at 16 or 40 points a call holds one row, in column chunks from level 2 on
        if points is not None:
            monkeypatch.setattr(validation, "ROW_POINTS", points)
        seen = {i: [] for i in range(3)}

        def f(x, row):
            for xs, i in zip(x, row[:, 0].tolist()):
                seen[i].append(xs.copy())
            return x ** 4

        lo, hi = np.array([-3.0, 0.1, -1e-3]), np.array([1e-17, 0.7, 5.0])
        with pytest.raises(QuadratureError):
            integrate(f, lo, hi, tol=-1.0, max_depth=4, args=(np.arange(3.0),))
        for i, (a, b) in enumerate(zip(lo, hi)):
            assert max(len(xs) for xs in seen[i][1:]) <= validation.ROW_POINTS
            nodes = np.concatenate(seen[i])
            assert np.array_equal(np.sort(nodes), np.linspace(a, b, 8 * 2**4 + 1))

    @pytest.mark.parametrize("depth", range(7))
    def test_a_row_stopping_at_level_l_costs_8_times_2_to_the_l_plus_1(self, depth):
        with pytest.raises(QuadratureError) as exc:
            integrate(np.exp, 0.0, 1.0, tol=-1.0, max_depth=depth)
        assert exc.value.best.evaluations == 8 * 2**depth + 1
        # a cubic is exact from level 0: its first error estimate, at level 1, is 0
        assert integrate(lambda x: x ** 3, 0.0, 2.0, tol=1e-12).evaluations == 8 * 2 + 1

    def test_one_bad_row_ends_alone(self):
        # the node 1/16 first appears on level 1; only the row holding it stops
        def f(x):
            return np.where(x == 0.0625, np.nan, x * x)

        with pytest.raises(QuadratureError, match="not finite") as exc:
            integrate(f, np.array([0.0, 2.0]), np.array([1.0, 3.0]), tol=1e-12)
        best = exc.value.best
        assert np.isnan(best.value[0])
        assert best.value[1] == integrate(f, 2.0, 3.0, tol=1e-12).value
        assert best.evaluations == 9 + 8 + integrate(f, 2.0, 3.0, tol=1e-12).evaluations


class TestIdentitySuiteRows:
    @staticmethod
    def _per_s(mode, s_samples):
        """The identities one s at a time, each integral a scalar call."""
        a = mode.a
        res_sum = res_quad = res_cons = 0.0
        for s in s_samples:
            led = energy_ledger(mode, s)
            res_sum = max(res_sum, abs(led.e_E_sw + led.e_B_sw - led.e_sw))
            res_cons = max(res_cons, abs(led.total / a - 1.0))
            far_edge, border = domain_edges(mode, s)
            e_sq = lambda x, s=s: reflect_field(mode, s, x).E ** 2
            b_sq = lambda x, s=s: reflect_field(mode, s, x).B ** 2
            rho = lambda x, s=s: e_sq(x) + b_sq(x)
            q_rw = a * integrate(rho, far_edge, border, tol=1e-11).value
            q_e = a * integrate(e_sq, border, 0.0, tol=1e-11).value
            q_b = a * integrate(b_sq, border, 0.0, tol=1e-11).value
            res_quad = max(res_quad, abs(q_rw - led.e_rw), abs(q_e - led.e_E_sw),
                           abs(q_b - led.e_B_sw))
        return {"sw_partition": res_sum / a, "ledger_vs_quadrature": res_quad / a,
                "conservation": res_cons}

    @pytest.mark.parametrize("n", [1, 3, 4])
    @pytest.mark.parametrize("a", [0.37, 1.0, 1e3])
    def test_matches_per_s_loop(self, a, n):
        mode = ModeSpec(a=a, n=n)
        s = np.linspace(0.0, a, 11)
        assert identity_suite(mode, s) == self._per_s(mode, s)

    def test_each_key_is_the_max_over_single_s_calls(self):
        mode = ModeSpec(n=2)
        s = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
        whole = identity_suite(mode, s)
        singles = [identity_suite(mode, [v]) for v in s]
        assert whole == {key: max(d[key] for d in singles) for key in whole}

    def test_no_samples(self):
        assert identity_suite(ModeSpec(), []) == {
            "sw_partition": 0.0, "ledger_vs_quadrature": 0.0, "conservation": 0.0}


class TestEnergyLedgerArray:
    @settings(max_examples=40, deadline=None)
    @given(a=st.sampled_from([1e-3, 0.37, 1.0, 13.0, 1e6]), n=st.integers(1, 64),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
    def test_matches_element_wise_calls(self, a, n, fractions):
        mode = ModeSpec(a=a, n=n)
        s = np.minimum(np.array(fractions) * a, a)
        led = energy_ledger(mode, s)
        for i, v in enumerate(s):
            one = energy_ledger(mode, float(v))
            assert (led.e_rw[i], led.e_E_sw[i], led.e_B_sw[i], led.e_sw[i]) == (
                one.e_rw, one.e_E_sw, one.e_B_sw, one.e_sw)

    def test_energy_sweep_matches_element_wise_calls(self):
        # the default ``energy`` sweep; at s = 0.3043 a float ** 2 (libm pow)
        # lands one ulp off the x * x both forms now use
        mode = ModeSpec()
        s = np.linspace(0.0, 1.0, 1000)
        assert energy_ledger(mode, s).e_B_sw.tolist() == [energy_ledger(mode, v).e_B_sw for v in s]

    def test_rejects_any_s_outside(self):
        with pytest.raises(ValueError, match="1.5"):
            energy_ledger(ModeSpec(), np.array([0.0, 0.5, 1.5]))
        with pytest.raises(ValueError):
            energy_ledger(ModeSpec(), np.array([0.5, np.nan]))

    def test_lists_of_s_work_as_arrays(self):
        mode, s = ModeSpec(n=3), [0.1, 0.5, 0.8]
        assert np.array_equal(astuple(energy_ledger(mode, s)),
                              astuple(energy_ledger(mode, np.array(s))))
        (inc, img), (inc0, img0) = reflection_pieces(mode, s), reflection_pieces(mode, np.array(s))
        assert all(np.array_equal(u, v) for u, v in zip(inc + img, inc0 + img0))


def _reference_track(mode, s_values, grid):
    """Each row's own 1-D snapshot through the brute-force locator."""
    cell = mode.a / (grid - 1)
    located = []
    for s in s_values:
        far_edge, border = domain_edges(mode, s)
        keep_far = abs(border - far_edge) <= 1.5 * cell
        candidates = [j for j in _reference_jumps(reflection_snapshot(mode, s, n_points=grid))
                      if (keep_far or abs(j.location - far_edge) > 1.5 * cell)
                      and abs(j.location) > 1.5 * cell]
        located.append(max(candidates, key=lambda j: j.score).location if candidates else np.nan)
    return np.array(located)


class TestTrackRows:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 20), steps=st.integers(1, 40), grid=st.integers(64, 700))
    def test_matches_row_by_row(self, n, steps, grid):
        mode = ModeSpec(n=n)
        s = np.linspace(0.0, mode.a, steps + 2)[1:-1]
        assert np.array_equal(_located_inner_jumps(mode, s, grid),
                              _reference_track(mode, s, grid), equal_nan=True)

    @pytest.mark.parametrize("rows", [15, 16, 17, 33])
    def test_block_edges(self, rows):
        # 2**14 points hold 16 rows of 1024
        assert validation.ROW_POINTS // 1024 == 16
        mode = ModeSpec(n=3)
        s = np.linspace(0.0, 1.0, 35)[1:rows + 1]
        assert np.array_equal(_located_inner_jumps(mode, s, 1024),
                              _reference_track(mode, s, 1024), equal_nan=True)

    def test_rows_are_located_apart(self):
        # row 0's runs end at cell 11 and row 1's start at cell 12, and row 1 is
        # 1e12 times larger: each row keeps its own runs, background and floor
        x = np.linspace(0.0, 1.0, 200)
        y = np.zeros((2, 200))
        y[0, [5, 11]] = 1e-3
        y[1, [14, 120]] = [1e12, 2e12]
        snap = Snapshot(x, y, -y, 2 * y * y)
        rows = validation.locate_jumps(snap)
        for i in range(2):
            one = Snapshot(x, y[i], -y[i], 2 * y[i] * y[i])
            assert rows[i] == _reference_jumps(one) and rows[i]

    def test_stacked_snapshot_rows_match_one_s_snapshots(self):
        mode = ModeSpec(n=4)
        s = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        stacked = reflection_snapshot(mode, s, n_points=257)
        assert stacked.E.shape == (5, 257)
        jumps = validation.locate_jumps(stacked)
        for i, v in enumerate(s):
            one = reflection_snapshot(mode, v, n_points=257)
            assert np.array_equal(stacked.E[i], one.E) and np.array_equal(stacked.B[i], one.B)
            assert jumps[i] == _reference_jumps(one)


@pytest.mark.parametrize("lo, hi, cuts", [(0.0, np.nan, ()), (0.0, np.inf, ()),
                                          (-np.inf, 0.0, ()), (0.0, 1.0, (np.nan,)),
                                          (0.0, 1.0, (0.5, np.inf))])
def test_integrate_rejects_non_finite_limits_and_breakpoints(lo, hi, cuts):
    with pytest.raises(ValueError, match="finite"):
        integrate(lambda x: x, lo, hi, breakpoints=cuts)


def test_integrate_stops_at_a_non_finite_level():
    # once doubled to depth 24, 8 * 2**24 + 1 nodes in all
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0)
    assert exc.value.best.evaluations == 9
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.where(x == 0.0, np.inf, x), -1.0, 1.0)  # inf at the midpoint
    assert exc.value.best.evaluations == 9


def test_integrate_memory_does_not_grow_with_depth():
    # 8 * 2**18 + 1 nodes in all, at most ROW_POINTS of them a call
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as exc:
            integrate(lambda x: np.abs(np.sin(7 * x)) ** 0.3, -0.7, 1.3, tol=1e-11, max_depth=18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.best.evaluations == 8 * 2**18 + 1
    assert peak < 8e6


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 6), m=st.integers(1, 50), n=st.integers(1, 8))
def test_reflect_field_rows_match_one_s_calls(rows, m, n):
    mode = ModeSpec(a=1.0, n=n)
    s = np.linspace(0.0, 1.0, rows + 2)[1:-1][::-1]
    x = np.linspace(-1.2, 0.1, rows * m).reshape(rows, m)
    e, b = reflect_field(mode, s[:, None], x)
    for i in range(rows):
        one = reflect_field(mode, s[i], x[i])
        assert np.array_equal(e[i], one.E) and np.array_equal(b[i], one.B)
