import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import ModeSpec, validation
from splitphoton.reflection import Quantity
from splitphoton.snapshot import reflection_snapshot
from splitphoton.wavestate import eigenmode_pieces, evaluate, split_pieces
from splitphoton.validation import (
    JUMP_THRESHOLD,
    LocatedJump,
    QuadratureError,
    identity_suite,
    integrate,
    locate_jumps,
    norms,
)
from splitphoton.snapshot import Snapshot


def test_integrate_exact_for_cubics():
    # Simpson is exact for cubics, so the very first refinement must agree.
    res = integrate(lambda x: 3.0 * x**3 - x**2 + 2.0, 0.0, 2.0, tol=1e-12)
    exact = 3.0 / 4.0 * 16.0 - 8.0 / 3.0 + 4.0
    assert res.value == pytest.approx(exact, abs=1e-13)
    assert res.est_error == 0.0


def test_integrate_sin_squared():
    res = integrate(lambda x: np.sin(np.pi * x) ** 2, 0.0, 1.0, tol=1e-12)
    assert abs(res.value - 0.5) < 1e-10


def test_integrate_empty_interval():
    res = integrate(lambda x: x, 1.0, 1.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_integrate_rejects_reversed_limits():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_nonconvergence_carries_best_estimate():
    rng_free = lambda x: np.abs(np.sin(50.0 * x)) ** 0.3  # kinky integrand
    with pytest.raises(QuadratureError) as exc:
        integrate(rng_free, 0.0, 1.0, tol=1e-14, max_depth=3)
    assert np.isfinite(exc.value.best.value)


def test_integrate_default_depth_bounds_a_runaway_segment():
    # this integrand meets tol = 1e-11 only at level 24, after 1.3e8 evaluations; the
    # default depth stops its one segment at 8 * 2**20 + 1.  The test suite's
    # converging integrals stop at level 11 or less
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: np.abs(np.sin(7 * x)) ** 0.3, -0.7, 1.3, tol=1e-11)
    assert exc.value.best.evaluations == 8 * 2**validation.MAX_DEPTH + 1 == 8 * 2**20 + 1
    assert np.isfinite(exc.value.best.value)


def test_integrate_breakpoints_restore_accuracy():
    f = lambda x: np.abs(x - 0.3)
    res = integrate(f, 0.0, 1.0, tol=1e-12, breakpoints=[0.3])
    exact = 0.045 + 0.245  # triangle areas on either side of the kink
    assert abs(res.value - exact) < 1e-12


def _per_table(mode, tables):
    """Each table through its own ``integrate`` call with its piece edges as
    breakpoints: the per-table results and whether any call failed."""
    results, failed = [], False
    for pieces in tables:
        def rho(x, pieces=pieces):
            e, b = evaluate(pieces, mode.k, x)
            return e ** 2 + b ** 2

        try:
            results.append(integrate(rho, min(p.lo for p in pieces), max(p.hi for p in pieces),
                                     tol=1e-11, breakpoints={e for p in pieces for e in (p.lo, p.hi)}))
        except QuadratureError as exc:
            results.append(exc.best)
            failed = True
    return results, failed


class TestNorms:
    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-3.0, 6.0), log_c=st.floats(-3.0, 3.0), n=st.integers(1, 64),
           draws=st.lists(st.tuples(st.booleans(), st.floats(0.0, 10.0)), min_size=1, max_size=5))
    def test_matches_one_integrate_call_per_table(self, log_a, log_c, n, draws):
        mode = ModeSpec(a=10.0**log_a, n=n, c=10.0**log_c)
        # t in [0, 10a/c], each table the eigenmode or the split state at t
        tables = [(eigenmode_pieces if eig else split_pieces)(mode, u * mode.a / mode.c)
                  for eig, u in draws]
        expected, failed = _per_table(mode, tables)
        if failed:  # the error's best estimate is one entry per segment
            with pytest.raises(QuadratureError) as exc:
                norms(mode, tables)
            assert exc.value.best.evaluations == sum(q.evaluations for q in expected)
            return
        got = norms(mode, tables)
        assert got.value.tolist() == [float(q.value) for q in expected]
        assert got.est_error.tolist() == [float(q.est_error) for q in expected]
        assert got.evaluations == sum(q.evaluations for q in expected)

    def test_cut_at_inner_edges_in_one_call(self, monkeypatch):
        # at t = 0.2 the pulses [-0.2, 0.8] and [0.2, 1.2] overlap, at t = 5 the gap
        # [-4, 5] between them is a segment too: seven segments, one call
        mode, calls = ModeSpec(), []
        monkeypatch.setattr(validation, "integrate",
                            lambda f, lo, hi, **kw: calls.append((lo, hi)) or integrate(f, lo, hi, **kw))
        tables = [eigenmode_pieces(mode, 0.35), split_pieces(mode, 0.2), split_pieces(mode, 5.0)]
        q = norms(mode, tables)
        assert calls == [([0.0, -0.2, 0.2, 0.8, -5.0, -4.0, 5.0], [1.0, 0.2, 0.8, 1.2, -4.0, 5.0, 6.0])]
        assert np.abs(q.value - 1.0).max() < 1e-12


def test_locate_jumps_on_reflection_snapshot():
    mode = ModeSpec()
    snap = reflection_snapshot(mode, 0.25, n_points=1024)
    locations = sorted({round(j.location, 2) for j in locate_jumps(snap)[0]})
    assert -0.75 in locations  # far edge
    assert -0.25 in locations  # inner discontinuity


def test_locate_jumps_smooth_interior_finds_nothing():
    x = np.linspace(0.1, 0.9, 512)
    e = np.sin(np.pi * x)
    b = np.cos(np.pi * x)
    snap = Snapshot(x, e, b, e * e + b * b)
    assert locate_jumps(snap) == [[]]


def test_locate_jumps_grid_too_coarse():
    x = np.linspace(0.0, 1.0, 32)
    y = np.sin(x)
    snap = Snapshot(x, y, y, 2 * y * y)
    with pytest.raises(ValueError, match="coarse"):
        locate_jumps(snap)


def test_locate_jumps_threshold_robust(monkeypatch):
    # the separation between kink and smooth cells spans orders of magnitude,
    # so any multiplier in [10, 100] gives identical results
    mode = ModeSpec()
    snap = reflection_snapshot(mode, 0.3, n_points=1024)
    assert JUMP_THRESHOLD == 30.0
    baseline = [(j.location, j.quantity) for j in locate_jumps(snap)[0]]
    for factor in (10.0, 50.0, 100.0):
        monkeypatch.setattr(validation, "JUMP_THRESHOLD", factor)
        assert [(j.location, j.quantity) for j in locate_jumps(snap)[0]] == baseline
    monkeypatch.setattr(validation, "JUMP_THRESHOLD", 1e30)  # the locator reads it
    assert locate_jumps(snap) == [[]]


@pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_identity_suite_residuals(s):
    mode = ModeSpec()
    res = identity_suite(mode, [s])
    assert res["sw_partition"] < 1e-12
    assert res["conservation"] < 1e-12
    assert res["ledger_vs_quadrature"] < 1e-8


@pytest.mark.parametrize("a", [1e-3, 1e3, 1e6])
def test_identity_suite_residuals_are_relative_to_a(a):
    # the ledger energies, and their round-off, grow with a; the residuals do not
    mode = ModeSpec(a=a, n=3)
    res = identity_suite(mode, np.linspace(0.0, a, 5))
    assert max(res.values()) < 1e-13


def _reference_jumps(snap, factor=JUMP_THRESHOLD):
    """Brute-force locator: scan the cells one by one, closing a run of flagged
    cells at the first unflagged one and keeping the run's first maximum."""
    found = []
    for y, quantity in ((snap.E, Quantity.DE_DX), (snap.B, Quantity.DB_DX)):
        d2 = np.abs(y[:-2] - 2.0 * y[1:-1] + y[2:])
        floor = 1e-12 * max(float(np.max(np.abs(y))), 1.0)
        threshold = factor * max(float(np.median(d2[1:-1])), floor)
        run = []
        for i in range(len(d2) + 1):
            if i < len(d2) and d2[i] > threshold:
                run.append(i)
            elif run:
                best = run[0]
                for j in run:
                    if d2[j] > d2[best]:
                        best = j
                found.append(LocatedJump(float(snap.x[best + 1]), quantity, float(d2[best])))
                run = []
    return found


@pytest.mark.parametrize("n", [1, 4, 16])
def test_locate_jumps_matches_brute_force_on_track_grids(n):
    mode = ModeSpec(n=n)
    for s in np.linspace(0.0, mode.a, 52)[1:-1]:
        snap = reflection_snapshot(mode, s, n_points=1024)
        assert locate_jumps(snap) == [_reference_jumps(snap)]


def test_locate_jumps_matches_brute_force_on_adjacent_runs():
    # a spike in y at index k flags cells k-2..k: runs {0, 1} and {196, 197} at
    # the ends, {3, 4, 5} and {7, 8, 9} one cell apart, {48..51} all tied
    x = np.linspace(0.0, 1.0, 200)
    e = np.zeros(200)
    e[[1, 5, 9, 50, 51, 198]] = [1.0, 1.0, 2.0, 1.0, 1.0, 3.0]
    snap = Snapshot(x, e, -e, 2 * e * e)
    [jumps] = locate_jumps(snap)
    assert [round(j.location * 199) for j in jumps[:5]] == [1, 5, 9, 49, 198]
    assert jumps == _reference_jumps(snap)
