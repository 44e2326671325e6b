import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitphoton import (
    ModeSpec,
    boundary_check,
    eigenmode,
    split_state,
    wavestate,
)
from splitphoton.experiments import Branch, Instrument, InstrumentKind, Scenario, crossing_events
from splitphoton.reflection import reflection_pieces
from splitphoton.validation import integrate
from splitphoton.wavestate import Piece, cumulative, eigenmode_pieces, evaluate, split_pieces

SQRT2 = np.sqrt(2.0)


class TestModeSpec:
    def test_dispersion_is_exact(self):
        mode = ModeSpec(a=2.5, n=3, c=0.7)
        assert mode.omega / mode.c - mode.k == 0.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(a=0.0), dict(n=0), dict(c=-1.0), dict(n=1.5),
            dict(a=float("nan")), dict(a=float("inf")),
            dict(c=float("nan")), dict(c=float("inf")),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            ModeSpec(**bad)

    @pytest.mark.parametrize("bad", [dict(a=1e-320), dict(a=1e-300, c=1e308), dict(n=10**400)])
    def test_non_finite_wavenumber_or_frequency_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            ModeSpec(**bad)

    def test_smallest_lengths_with_finite_wavenumber_accepted(self):
        mode = ModeSpec(a=1e-300, n=3)
        assert np.isfinite(mode.k) and np.isfinite(mode.omega) and np.isfinite(mode.amplitude)


def _reference_fields(pieces, k, x):
    """(E, B) at one float x, a piece at a time with ``math.sin``: the sum, in
    table order, of the waves whose closed interval holds x, else zero."""
    e = b = 0.0
    for p in pieces:
        if p.lo <= x <= p.hi:
            wave = p.amp * math.sin(k * x + p.phase)
            e += wave
            b += p.direction * wave
    return e, b


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def _piece_table(draw, count):
    """``count`` pieces that may touch, overlap or have zero width."""
    value = st.floats(-3.0, 3.0)
    table = []
    for _ in range(count):
        lo = draw(st.floats(-3.0, 1.0))
        hi = lo + draw(st.just(0.0) | st.floats(0.0, 2.0))
        table.append(Piece(lo, hi, draw(value), draw(value), draw(st.sampled_from([1.0, -1.0]))))
    return tuple(table)


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4), rows=st.integers(1, 3),
           k=st.floats(0.1, 30.0), common=st.lists(st.floats(-6.0, 6.0), max_size=12))
    def test_matches_pointwise_sine_bit_for_bit(self, data, count, rows, k, common):
        tables = [data.draw(_piece_table(count)) for _ in range(rows)]
        # every row also samples its own piece edges, NaN and both infinities
        x = np.array([common + [end for p in t for end in (p.lo, p.hi)]
                      + [math.nan, -math.inf, math.inf] for t in tables])
        expected = np.array([[_reference_fields(t, k, v) for v in row]
                             for t, row in zip(tables, x.tolist())])
        for t, row, want in zip(tables, x, expected):
            e, b = evaluate(t, k, row)
            assert np.array_equal(_bits(e), _bits(want[:, 0]))
            assert np.array_equal(_bits(b), _bits(want[:, 1]))
        # a stack of tables, fields of shape (rows, 1), against x of shape (rows, m)
        stacked = tuple(Piece(*(np.array([[t[j][f]] for t in tables]) for f in range(5)))
                        for j in range(count))
        e, b = evaluate(stacked, k, x)
        assert np.array_equal(_bits(e), _bits(expected[..., 0]))
        assert np.array_equal(_bits(b), _bits(expected[..., 1]))
        for v, want in zip(x[0].tolist(), expected[0]):
            e, b = evaluate(tables[0], k, v)
            assert type(e) is float and type(b) is float
            assert _bits([e, b]).tolist() == _bits(want).tolist()

    def test_zero_width_pieces(self):
        # closed pieces: both neighbours hold their shared edge, and a zero-width
        # piece holds its one point
        pieces = (Piece(0.0, 1.0, 1.0, 0.0, 1.0), Piece(1.0, 1.0, 5.0, 0.0, -1.0),
                  Piece(1.0, 2.0, 3.0, 0.25, 1.0))
        e, b = evaluate(pieces, 1.5, np.array([0.5, 1.0, 2.0, 2.5]))
        waves = [math.sin(1.5), 5.0 * math.sin(1.5), 3.0 * math.sin(1.5 + 0.25)]
        assert e.tolist() == [math.sin(0.75), waves[0] + waves[1] + waves[2],
                              3.0 * math.sin(3.0 + 0.25), 0.0]
        assert b.tolist() == [math.sin(0.75), waves[0] - waves[1] + waves[2],
                              3.0 * math.sin(3.0 + 0.25), 0.0]


class TestEigenmode:
    def test_node_at_walls(self):
        mode = ModeSpec()
        assert eigenmode(mode, 0.0, 0.3).E == 0.0
        assert eigenmode(mode, 1.0, 0.3).E == pytest.approx(0.0, abs=1e-15)

    def test_quarter_period_kills_e(self):
        mode = ModeSpec()
        t = 0.5  # omega*t = pi/2
        x = np.linspace(0.0, 1.0, 101)
        e, b = eigenmode(mode, x, t)
        assert np.max(np.abs(e)) < 1e-12
        assert np.allclose(b, -mode.amplitude * np.cos(np.pi * x), atol=1e-12)

    def test_amplitude_fixed_by_normalization_oracle(self):
        # quadrature pins the peak value at sqrt(2) for a=1
        mode = ModeSpec()

        def rho(x):
            e, b = eigenmode(mode, x, 0.0)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        assert integrate(rho, 0.0, 1.0, tol=1e-12).value == pytest.approx(1.0, abs=1e-10)
        assert eigenmode(mode, 0.5, 0.0).E == pytest.approx(SQRT2, abs=1e-14)
        for t in (0.0, 0.37, 1.1):
            assert cumulative(eigenmode_pieces(mode, t), mode.k, 1.0) == pytest.approx(
                1.0, abs=1e-14)

    def test_zero_outside_cavity(self):
        mode = ModeSpec()
        e, b = eigenmode(mode, np.array([-0.5, 1.5]), 0.2)
        assert np.all(e == 0.0) and np.all(b == 0.0)


class TestBoundaryCheck:
    @pytest.mark.parametrize("a,n", [(1.0, 1), (2.5, 3), (1.0, 4)])
    def test_residuals_vanish(self, a, n):
        e_res, b_res = boundary_check(ModeSpec(a=a, n=n))
        assert e_res < 1e-12 and b_res < 1e-11

    @pytest.mark.parametrize("n", [1, 16, 64, 200])
    def test_round_off_within_scaled_bound(self, n):
        e_res, b_res = boundary_check(ModeSpec(n=n))
        assert max(e_res, b_res) <= 1e-12 * n**2

    def test_reads_the_field_pieces(self, monkeypatch):
        # a cosine-shaped eigenmode breaks E = 0 at the walls, and the check sees it:
        # both waves shifted a quarter wave give E = A cos(kx) cos(wt)
        def shifted(mode, t):
            return tuple(p._replace(phase=p.phase + 0.5 * np.pi)
                         for p in eigenmode_pieces(mode, t))

        monkeypatch.setattr(wavestate, "eigenmode_pieces", shifted)
        e_res, b_res = boundary_check(ModeSpec())
        assert e_res == pytest.approx(2.0 * SQRT2) and b_res == pytest.approx(2.0 * np.pi * SQRT2)

    def test_against_finite_difference(self):
        # independent check of dB/dx at the walls
        mode = ModeSpec(a=1.0, n=4)
        t = 0.11
        h = 1e-6
        for x0, sign in ((0.0, 1), (1.0, -1)):
            b_in = eigenmode(mode, x0 + sign * h, t).B
            b_at = eigenmode(mode, x0, t).B
            # slope should vanish at the wall; the quadratic Taylor term
            # bounds the one-sided difference by ~A k^2 h / 2
            assert abs((b_in - b_at) / (sign * h)) < 2e-4


class TestSplitState:
    def test_t0_matches_eigenmode(self):
        mode = ModeSpec()
        x = np.linspace(-0.2, 1.2, 301)
        e_split, b_split = split_state(mode, x, 0.0)
        e_mode, b_mode = eigenmode(mode, x, 0.0)
        assert np.max(np.abs(np.asarray(e_split) - np.asarray(e_mode))) < 1e-12
        assert np.max(np.abs(np.asarray(b_split))) == 0.0
        assert np.max(np.abs(np.asarray(b_mode))) == 0.0

    def test_separated_right_mover(self):
        mode = ModeSpec()
        e, b = split_state(mode, 1.5, 1.0)
        assert e == pytest.approx(0.5 * SQRT2 * np.sin(np.pi * 0.5), abs=1e-14)
        assert e == pytest.approx(b, abs=1e-15)  # E = c|B| on the right mover

    def test_pulse_sign_relation_after_separation(self):
        mode = ModeSpec()
        t = 2.0
        x_right = np.linspace(2.0, 3.0, 64)
        x_left = np.linspace(-2.0, -1.0, 64)
        e, b = split_state(mode, x_right, t)
        assert np.array_equal(np.asarray(e), np.asarray(b))
        e, b = split_state(mode, x_left, t)
        assert np.array_equal(np.asarray(e), -np.asarray(b))

    def test_zero_outside_support(self):
        mode = ModeSpec()
        t = 0.7
        for x in (-0.71, 1.71, -5.0, 9.0):
            e, b = split_state(mode, x, t)
            assert e == 0.0 and b == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.2, 5.0])
    def test_normalization(self, t):
        mode = ModeSpec()

        def rho(x):
            e, b = split_state(mode, x, t)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        cuts = [-t, 1.0 - t, t, 1.0 + t]
        res = integrate(rho, -t, 1.0 + t, tol=1e-11, breakpoints=cuts)
        assert abs(res.value - 1.0) < 1e-9
        exact = cumulative(split_pieces(mode, t), mode.k, 1.0 + t)
        assert exact == pytest.approx(1.0, abs=1e-14)
        assert abs(res.value - exact) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            split_state(ModeSpec(), 0.5, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            split_pieces(ModeSpec(), t)
        with pytest.raises(ValueError, match="finite"):
            split_state(ModeSpec(), 0.5, t)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 200), a=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3),
           frac=st.floats(0.0, 0.5, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    def test_equals_eigenmode_while_pulses_overlap(self, n, a, c, frac, seed):
        # causality: on [ct, a - ct] neither wall has been felt, so the released
        # state is still the cavity mode; at t = 0 both B vanish, so t must not
        # be a multiple of a half period, where B of either sign is zero
        mode = ModeSpec(a=a, n=n, c=c)
        t = frac * a / c
        assume(abs(n * frac - round(n * frac)) > 0.01)  # omega t / pi = n ct / a
        ct = c * t
        x = np.random.default_rng(seed).uniform(ct, a - ct, 256)
        split, cavity = split_state(mode, x, t), eigenmode(mode, x, t)
        tol = 1e-12 * (1.0 + mode.k * a) * mode.amplitude
        assert np.max(np.abs(split.E - cavity.E)) <= tol
        assert np.max(np.abs(split.B - cavity.B)) <= tol

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(0.0, 4.0), x=st.floats(-6.0, 6.0))
    def test_fields_always_finite(self, t, x):
        e, b = split_state(ModeSpec(), x, t)
        assert np.isfinite(e) and np.isfinite(b)


def _characteristic_residual(pieces_at, k, c, t, tau, x_right, x_left):
    """Largest |(E+B)(x, t+tau) - (E+B)(x - c tau, t)| over x_right and
    |(E-B)(x, t+tau) - (E-B)(x + c tau, t)| over x_left, from ``evaluate`` on
    the tables ``pieces_at(t)`` and ``pieces_at(t + tau)`` only."""
    now, later = pieces_at(t), pieces_at(t + tau)
    (e1, b1), (e0, b0) = evaluate(later, k, x_right), evaluate(now, k, x_right - c * tau)
    right = np.abs((e1 + b1) - (e0 + b0))
    (e1, b1), (e0, b0) = evaluate(later, k, x_left), evaluate(now, k, x_left + c * tau)
    left = np.abs((e1 - b1) - (e0 - b0))
    return max(right.max(), left.max())


class TestCharacteristics:
    """In 1-D vacuum E + B is a function of x - ct and E - B one of x + ct.

    Each regime's tables at t and t + tau must carry both along their
    characteristics wherever the segment meets no wall and no mirror.  tau is
    kept off multiples of a half period, where sin(kx) and cos(kx) both repeat
    up to one common sign and a field of either B sign would pass.
    """

    @pytest.mark.parametrize("regime", ["eigenmode", "split", "reflection"])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), a=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3),
           t_frac=st.floats(0.0, 1.0), tau_frac=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2**32 - 1))
    def test_fields_move_along_characteristics(self, regime, n, a, c, t_frac, tau_frac,
                                               seed):
        mode = ModeSpec(a=a, n=n, c=c)
        rng = np.random.default_rng(seed)
        if regime == "eigenmode":
            # walls at 0 and a: the segment stays inside the cavity
            t, tau = t_frac * a / c, tau_frac * a / c
            shift = c * tau
            assume(shift <= a)  # c * (a / c) can round past a at tau_frac = 1
            x_right, x_left = rng.uniform(shift, a, 256), rng.uniform(0.0, a - shift, 256)
            pieces_at = lambda u: eigenmode_pieces(mode, u)
        elif regime == "split":
            # free space: every x, across the overlap and both pulses
            t, tau = 2.0 * t_frac * a / c, 2.0 * tau_frac * a / c
            reach = a + c * (t + tau)
            x_right = x_left = rng.uniform(-reach, reach, 256)
            pieces_at = lambda u: split_pieces(mode, u)
        else:
            # the pieces are a function of s = ct in [0, a]; the mirror is at 0
            c = 1.0
            t = t_frac * a
            tau = tau_frac * (a - t)
            assume(tau > 0.0 and t + tau <= a)
            x_right, x_left = rng.uniform(-a, 0.0, 256), rng.uniform(-a, -tau, 256)
            pieces_at = lambda u: reflection_pieces(mode, u)
        half_periods = mode.k * c * tau / math.pi
        assume(abs(half_periods - round(half_periods)) > 0.01)
        residual = _characteristic_residual(pieces_at, mode.k, c, t, tau, x_right, x_left)
        x_max = max(np.max(np.abs(x_right)), np.max(np.abs(x_left))) + c * tau
        assert residual <= 1e-15 * (1.0 + mode.k * x_max) * mode.amplitude


class TestPieceTables:
    @pytest.mark.parametrize("regime", ["eigenmode", "split", "reflection"])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), a=st.floats(1e-3, 1e6), t=st.floats(0.0, 1e6),
           frac=st.floats(0.0, 1.0))
    def test_no_two_waves_of_one_direction_overlap(self, regime, n, a, t, frac):
        # ``cumulative`` adds each wave's own 2 E^2: exact only while the waves
        # that overlap run in opposite directions, so their cross terms cancel
        mode = ModeSpec(a=a, n=n)
        if regime == "eigenmode":
            pieces = eigenmode_pieces(mode, t)
        elif regime == "split":
            pieces = split_pieces(mode, t)
        else:
            pieces = reflection_pieces(mode, min(frac * a, a))
        for i, p in enumerate(pieces):
            assert p.direction in (1.0, -1.0)
            for q in pieces[i + 1:]:
                assert p.direction != q.direction or max(p.lo, q.lo) >= min(p.hi, q.hi)


class TestKinematics:
    # the non-locality range: the free split state's support spans 2ct + a
    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(1e-3, 1e3), c=st.floats(1e-2, 1e2), t=st.floats(0.0, 1e3))
    @example(a=1.0, c=1.0, t=0.0)
    @example(a=1.0, c=1.0, t=3.0)
    @example(a=0.5, c=2.0, t=1.0)
    def test_range_growth(self, a, c, t):
        pieces = split_pieces(ModeSpec(a=a, c=c), t)
        span = max(p.hi for p in pieces) - min(p.lo for p in pieces)
        assert span == pytest.approx(2.0 * c * t + a, rel=1e-15, abs=0.0)

    def test_range_matches_field_support(self):
        # measure the support of the sampled state directly
        mode = ModeSpec(a=0.5, c=2.0)
        t = 1.0
        x = np.linspace(-3.0, 3.5, 20001)
        e, b = split_state(mode, x, t)
        occupied = x[(np.asarray(e) != 0.0) | (np.asarray(b) != 0.0)]
        measured = occupied.max() - occupied.min()
        assert measured == pytest.approx(2.0 * mode.c * t + mode.a, abs=1e-3)

    # the maximal range 2D + a: the reflection ends at (2D + a)/(2c), when the
    # left half-self's leading edge reaches -(D + a), and a detector past both
    # sees the photon pass over (2D + a)/c
    @pytest.mark.parametrize(("a", "c", "D", "moment"), [(1.0, 1.0, 5.0, 5.5), (2.0, 0.5, 4.0, 10.0)])
    def test_mirror_timing(self, a, c, D, moment):
        def events(position):
            det = Instrument("D", InstrumentKind.PHOTON_DETECTOR, position)
            return crossing_events(Scenario(ModeSpec(a=a, c=c), D, instruments=[det]))

        first = events(-(D + a))[0]
        assert (first.branch, first.t_start) == (Branch.LEADING_PULSE, moment)
        first = events(-(D + a) + 1e-9)[0]
        assert first.branch is Branch.LEFT and first.t_start < moment
        first, last = events(-(D + a) - 2.0)
        assert (first.branch, last.branch) == (Branch.LEADING_PULSE, Branch.TRAILING_PULSE)
        assert last.t_end - first.t_start == (2.0 * D + a) / c
