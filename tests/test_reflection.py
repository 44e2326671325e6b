import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import ModeSpec
from splitphoton.reflection import (
    JumpKind,
    Quantity,
    discontinuities,
    domain_edges,
    energy_ledger,
    reflect_field,
    reflection_pieces,
)
from splitphoton.validation import integrate
from splitphoton.wavestate import cumulative, derivative, limits

MODE = ModeSpec()
LENGTHS = st.sampled_from([1e-3, 1.0, 1e3])


def _bounds(a, s):
    """The RW and SW domains at s, ((far edge, border), (border, 0))."""
    far, border = domain_edges(ModeSpec(a=a), s)
    return (far, border), (border, 0.0)


def _border(a, s):
    """The RW/SW border, where the inner discontinuities sit: the SW's lower bound."""
    return domain_edges(ModeSpec(a=a), s)[1]


def _density(mode, s, x):
    e, b = reflect_field(mode, s, x)
    return e * e + b * b


def _branch_values(mode, s, x, branch):
    # raw branch formulas, used to probe one-sided limits independently
    k = mode.k
    pref = 1.0 / np.sqrt(mode.a)
    if branch == "sw":
        return (
            pref * -2.0 * np.sin(k * x) * np.cos(k * s),
            pref * 2.0 * np.cos(k * x) * np.sin(k * s),
        )
    if s <= mode.a / 2:
        v = pref * -np.sin(k * (x - s))
        return v, v
    v = pref * np.sin(k * (x + s))
    return -v, v


class TestDomains:
    # the RW/SW intervals: where the incident pulse or its image is alone, and
    # where both are
    def test_first_stage(self):
        rw, sw = _bounds(1.0, 0.25)
        assert rw == (-0.75, -0.25) and sw == (-0.25, 0.0)

    def test_midpoint_rw_is_a_point(self):
        rw, sw = _bounds(1.0, 0.5)
        assert rw == (-0.5, -0.5)
        assert sw == (-0.5, 0.0)

    def test_second_stage(self):
        rw, sw = _bounds(1.0, 0.75)
        assert rw == (-0.75, -0.25) and sw == (-0.25, 0.0)

    def test_degenerate_endpoints(self):
        assert _bounds(1.0, 0.0)[0] == (-1.0, 0.0)
        assert _bounds(1.0, 0.0)[1] == (0.0, 0.0)
        assert _bounds(1.0, 1.0)[0] == (-1.0, 0.0)
        assert _bounds(1.0, 1.0)[1] == (0.0, 0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reflection_pieces(MODE, 1.5)


class TestReflectField:
    def test_first_stage_moment(self):
        # s = a/4: RW holds -sin pi(xi - 1/4); SW holds sqrt2(-sin, cos) shape
        e, b = reflect_field(MODE, 0.25, -0.5)
        assert e == pytest.approx(-np.sin(np.pi * -0.75), abs=1e-14)
        assert b == e
        e_sw, b_sw = reflect_field(MODE, 0.25, -0.125)
        assert e_sw == pytest.approx(np.sqrt(2.0) * -np.sin(np.pi * -0.125), abs=1e-14)
        assert b_sw == pytest.approx(np.sqrt(2.0) * np.cos(np.pi * -0.125), abs=1e-14)

    def test_border_continuity_at_quarter(self):
        e_rw, _ = _branch_values(MODE, 0.25, -0.25, "rw")
        e_sw, _ = _branch_values(MODE, 0.25, -0.25, "sw")
        assert e_rw == pytest.approx(1.0, abs=1e-14)
        assert e_sw == pytest.approx(1.0, abs=1e-14)

    def test_midpoint_pure_magnetic(self):
        x = np.linspace(-0.5, 0.0, 257)
        e, b = reflect_field(MODE, 0.5, x)
        assert np.max(np.abs(e)) < 1e-12
        assert np.allclose(b, 2.0 * np.cos(np.pi * x), atol=1e-12)

    def test_second_stage_moment(self):
        e, b = reflect_field(MODE, 0.75, -0.5)
        assert e == pytest.approx(-np.sin(np.pi * 0.25), abs=1e-14)
        assert b == pytest.approx(np.sin(np.pi * 0.25), abs=1e-14)
        e_sw, b_sw = reflect_field(MODE, 0.75, -0.125)
        assert e_sw == pytest.approx(np.sqrt(2.0) * np.sin(np.pi * -0.125), abs=1e-14)
        assert b_sw == pytest.approx(np.sqrt(2.0) * np.cos(np.pi * -0.125), abs=1e-14)

    def test_zero_past_mirror_and_outside(self):
        e, b = reflect_field(MODE, 0.4, np.array([0.5, 1.0, -0.9, -5.0]))
        assert np.all(np.asarray(e) == 0.0) and np.all(np.asarray(b) == 0.0)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            reflect_field(MODE, -0.1, -0.5)
        with pytest.raises(ValueError):
            reflect_field(MODE, 1.1, -0.5)

    # Tolerances below are in units of the field prefactor 1/sqrt(a).
    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(1e-6, 1.0 - 1e-6), n=st.integers(1, 64), a=LENGTHS)
    def test_continuity_at_rw_sw_border(self, frac, n, a):
        mode = ModeSpec(a=a, n=n)
        s = frac * a
        tol = 1e-12 / np.sqrt(a)
        border = _border(a, s)
        e_rw, b_rw = _branch_values(mode, s, border, "rw")
        e_sw, b_sw = _branch_values(mode, s, border, "sw")
        assert abs(e_rw - e_sw) < tol
        assert abs(b_rw - b_sw) < tol

    @settings(max_examples=40, deadline=None)
    @given(frac=st.floats(1e-6, 1.0 - 1e-6), n=st.integers(1, 64), a=LENGTHS)
    def test_far_edge_continuity(self, frac, n, a):
        mode = ModeSpec(a=a, n=n)
        s = frac * a
        tol = 1e-12 / np.sqrt(a)
        edge = _bounds(a, s)[0][0]
        e_in, b_in = _branch_values(mode, s, edge, "rw")
        assert abs(e_in) < tol and abs(b_in) < tol
        assert reflect_field(mode, s, edge) == pytest.approx((e_in, b_in), abs=tol)

    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(0.0, 1.0), n=st.integers(1, 64), a=LENGTHS)
    def test_matches_branch_formulas(self, frac, n, a):
        mode = ModeSpec(a=a, n=n)
        s = frac * a
        (rw_lo, _), (sw_lo, _) = _bounds(a, s)
        x = np.linspace(-1.1 * a, 0.1 * a, 513)
        in_sw = (x >= sw_lo) & (x <= 0.0)
        in_rw = (x >= rw_lo) & (x < sw_lo)
        e_sw, b_sw = _branch_values(mode, s, x, "sw")
        e_rw, b_rw = _branch_values(mode, s, x, "rw")
        e_ref = np.select([in_sw, in_rw], [e_sw, e_rw], default=0.0)
        b_ref = np.select([in_sw, in_rw], [b_sw, b_rw], default=0.0)
        e, b = reflect_field(mode, s, x)
        tol = 1e-12 / np.sqrt(a)
        assert np.max(np.abs(e - e_ref)) < tol
        assert np.max(np.abs(b - b_ref)) < tol

    @settings(max_examples=100, deadline=None)
    @given(frac=st.floats(0.0, 1.0), n=st.integers(1, 200), a=st.floats(1e-3, 1e6))
    def test_e_vanishes_on_the_mirror(self, frac, n, a):
        # a perfect conductor: the image's E cancels the incident E at x = 0 exactly
        mode = ModeSpec(a=a, n=n)
        assert reflect_field(mode, min(frac * a, a), 0.0).E == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stage_handoff_is_continuous(self, n):
        # crossing s = a/2 switches formulas; the field must not jump
        mode = ModeSpec(n=n)
        x = np.linspace(-1.0, 0.0, 513)
        eps = 1e-9
        e_lo, b_lo = reflect_field(mode, 0.5 - eps, x)
        e_hi, b_hi = reflect_field(mode, 0.5 + eps, x)
        assert np.max(np.abs(np.asarray(e_lo) - np.asarray(e_hi))) < 1e-6
        assert np.max(np.abs(np.asarray(b_lo) - np.asarray(b_hi))) < 1e-6

    def test_end_state_reverses_e_keeps_b(self):
        x = np.linspace(-1.0, 0.0, 1024)
        e0, b0 = reflect_field(MODE, 0.0, x)
        e1, b1 = reflect_field(MODE, 1.0, x)
        assert np.max(np.abs(np.asarray(e1) + np.asarray(e0))) < 1e-12
        assert np.max(np.abs(np.asarray(b1) - np.asarray(b0))) < 1e-12


class TestDensity:
    def test_peak_at_mirror_at_half(self):
        assert _density(MODE, 0.5, 0.0) == pytest.approx(4.0, abs=1e-14)

    def test_untouched_pulse_at_s0(self):
        x = np.linspace(-1.0, 0.0, 129)
        rho = _density(MODE, 0.0, x)
        assert np.allclose(rho, 2.0 * np.sin(np.pi * x) ** 2, atol=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
    def test_unit_probability(self, s):
        lo = _bounds(1.0, s)[0][0] if s <= 0.5 else -s
        cuts = [_border(1.0, s)]
        res = integrate(lambda x: _density(MODE, s, x), lo, 0.0, tol=1e-11,
                        breakpoints=cuts)
        assert abs(res.value - 1.0) < 1e-8


class TestCumulative:
    # n stops at 15: at n = 16 the quadrature oracle itself fails on
    # whole-pulse domains (s near 0 or a), which test_quadrature_aliasing pins.
    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.0, 1.0), n=st.integers(1, 15))
    def test_matches_quadrature(self, s, n):
        mode = ModeSpec(n=n)
        pieces = reflection_pieces(mode, s)
        assert cumulative(pieces, mode.k, 0.0) == pytest.approx(1.0, abs=1e-12)
        for lo, hi in _bounds(1.0, s):  # the RW and SW domains
            exact = cumulative(pieces, mode.k, hi) - cumulative(pieces, mode.k, lo)
            q = integrate(lambda x: _density(mode, s, x), lo, hi, tol=1e-11)
            assert abs(q.value - exact) < 1e-10

    # n = 16 aliases every whole-pulse domain; the n <= 15 cases are the short
    # whole-pulse draws that make test_matches_quadrature flake.
    @pytest.mark.xfail(strict=True, reason="integrate starts with 8 Simpson panels whose "
                       "nodes all fall on zeros of sin^2; two levels agree on a wrong value")
    @pytest.mark.parametrize("s, n", [(0.0, 16), (1e-9, 16), (1.0, 16),
                                      (1e-9, 15), (1e-10, 14), (1e-11, 13)])
    def test_quadrature_aliasing(self, s, n):
        mode = ModeSpec(n=n)
        pieces = reflection_pieces(mode, s)
        for lo, hi in _bounds(1.0, s):
            exact = cumulative(pieces, mode.k, hi) - cumulative(pieces, mode.k, lo)
            q = integrate(lambda x: _density(mode, s, x), lo, hi, tol=1e-11)
            assert abs(q.value - exact) < 1e-10

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_zero_before_support_and_one_after(self, s):
        pieces = reflection_pieces(MODE, s)
        assert cumulative(pieces, MODE.k, -2.0) == 0.0
        assert cumulative(pieces, MODE.k, 1.0) == pytest.approx(1.0, abs=1e-14)


class TestDiscontinuities:
    def test_inner_location_out_and_back(self):
        assert discontinuities(MODE, 0.25)[0].location == -0.25
        assert discontinuities(MODE, 0.75)[0].location == pytest.approx(-0.25)
        assert _border(1.0, 0.01) == -0.01
        assert _border(1.0, 0.99) == pytest.approx(-0.01)

    @pytest.mark.parametrize("s", [np.nan, -0.1, 1.1, np.inf, [0.5, np.nan]])
    def test_inner_location_rejects_s_outside_the_process(self, s):
        with pytest.raises(ValueError, match=r"s must lie in \[0, 1.0\]"):
            _border(1.0, s)

    def test_inner_jump_magnitudes(self):
        # one-sided slope difference is exactly k for either field
        records = discontinuities(MODE, 0.25)
        inner = {r.quantity: r for r in records if r.kind is JumpKind.INNER}
        assert inner[Quantity.DE_DX].jump == pytest.approx(-np.pi, abs=1e-12)
        assert inner[Quantity.DB_DX].jump == pytest.approx(np.pi, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-3, 1e3, 1e6])
    def test_inner_jump_magnitudes_scale_with_a(self, a):
        # the jumps are -+k/sqrt(a) = -+pi a^(-3/2) for n = 1, at any length
        records = discontinuities(ModeSpec(a=a), a / 4)
        inner = {r.quantity: r for r in records if r.kind is JumpKind.INNER}
        scale = np.pi * a ** -1.5
        assert inner[Quantity.DE_DX].jump == pytest.approx(-scale, rel=1e-12, abs=0.0)
        assert inner[Quantity.DB_DX].jump == pytest.approx(scale, rel=1e-12, abs=0.0)

    def test_inner_sides_match_quoted_derivatives(self):
        # at s = a/4 the E-slope is 0 on the RW side and -pi on the SW side
        slopes = derivative(reflection_pieces(MODE, 0.25), MODE.k)
        left, right = limits(slopes, MODE.k, -0.25)
        assert left.E == pytest.approx(0.0, abs=1e-12)
        assert right.E == pytest.approx(-np.pi, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_degenerate_moment_records(self, s, n):
        # zero-width pieces supply no one-sided limit: RW at s = a/2, SW at s in {0, a}
        k = n * np.pi
        de, db, b = Quantity.DE_DX, Quantity.DB_DX, Quantity.B_VALUE
        if s == 0.0:
            slope = -k * np.cos(k)
            expected = [(-1.0, de, slope, JumpKind.EDGE), (-1.0, db, slope, JumpKind.EDGE)]
            mirror = 0.0
        elif s == 1.0:
            expected = [(-1.0, de, -k, JumpKind.EDGE), (-1.0, db, k, JumpKind.EDGE)]
            mirror = 0.0
        else:
            de_jump, db_jump = -2.0 * k * np.cos(k / 2) ** 2, 2.0 * k * np.sin(k / 2) ** 2
            expected = [
                (-0.5, de, de_jump, JumpKind.INNER), (-0.5, db, db_jump, JumpKind.INNER),
                (-0.5, de, de_jump, JumpKind.EDGE), (-0.5, db, db_jump, JumpKind.EDGE),
            ]
            mirror = -2.0 * np.sin(k / 2)
        expected.append((0.0, b, mirror, JumpKind.MIRROR_SURFACE))
        records = discontinuities(ModeSpec(n=n), s)
        assert [(r.location, r.quantity, r.kind) for r in records] == [
            (x, q, kind) for x, q, _, kind in expected
        ]
        for rec, (_, _, jump, _) in zip(records, expected):
            assert rec.jump == pytest.approx(jump, abs=1e-12)

    def test_record_inventory(self):
        records = discontinuities(MODE, 0.3)
        kinds = [r.kind for r in records]
        assert kinds.count(JumpKind.INNER) == 2
        assert kinds.count(JumpKind.EDGE) == 2
        assert kinds.count(JumpKind.MIRROR_SURFACE) == 1
        inner_locs = {r.location for r in records if r.kind is JumpKind.INNER}
        assert inner_locs == {-0.3}

    def test_mirror_surface_b_jump(self):
        rec = [r for r in discontinuities(MODE, 0.25) if r.kind is JumpKind.MIRROR_SURFACE][0]
        assert rec.quantity is Quantity.B_VALUE
        assert abs(rec.jump) == pytest.approx(2.0 * np.sin(np.pi * 0.25), abs=1e-12)

    def test_degenerate_endpoints_have_no_inner(self):
        for s in (0.0, 1.0):
            assert all(r.kind is not JumpKind.INNER for r in discontinuities(MODE, s))

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(1e-3, 1.0 - 1e-3))
    def test_trajectory_symmetry(self, s):
        assert _border(1.0, s) == pytest.approx(
            _border(1.0, 1.0 - s), abs=1e-12
        )


class TestEnergyLedger:
    def test_quarter_values(self):
        led = energy_ledger(MODE, 0.25)
        assert led.e_rw == pytest.approx(0.5, abs=1e-14)
        assert led.e_sw == pytest.approx(0.5, abs=1e-14)
        assert led.e_E_sw == pytest.approx(0.25 - 1.0 / (2.0 * np.pi), abs=1e-14)
        assert led.e_B_sw == pytest.approx(0.25 + 1.0 / (2.0 * np.pi), abs=1e-14)

    def test_rw_dwindles_to_zero_at_half(self):
        assert energy_ledger(MODE, 0.5).e_rw == pytest.approx(0.0, abs=1e-14)

    def test_untouched_at_zero(self):
        led = energy_ledger(MODE, 0.0)
        assert led.e_rw == 1.0 and led.e_sw == 0.0

    def test_rw_matches_quadrature_oracle(self):
        # integrate the RW density independently of the closed form
        s = 0.25
        res = integrate(lambda x: 2.0 * np.sin(np.pi * (x - s)) ** 2, -0.75, -0.25, tol=1e-12)
        assert abs(res.value - energy_ledger(MODE, s).e_rw) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.0, 1.0), n=st.integers(1, 3))
    def test_conservation_and_partition(self, s, n):
        mode = ModeSpec(n=n)
        led = energy_ledger(mode, s)
        assert abs(led.total - 1.0) < 1e-12
        assert abs(led.e_E_sw + led.e_B_sw - led.e_sw) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(0.0, 1.0), n=st.integers(1, 16), a=LENGTHS)
    def test_ledger_equals_piece_integrals(self, frac, n, a):
        # bare convention: a times the exact integral of E^2 + B^2 over each piece
        mode = ModeSpec(a=a, n=n)
        s = frac * a
        pieces = reflection_pieces(mode, s)
        border = domain_edges(mode, s)[1]
        led = energy_ledger(mode, s)
        e_rw = a * cumulative(pieces, mode.k, border)
        e_sw = a * (cumulative(pieces, mode.k, 0.0) - cumulative(pieces, mode.k, border))
        assert abs(e_rw - led.e_rw) < 1e-12 * a
        assert abs(e_sw - led.e_sw) < 1e-12 * a

    def test_stage_formulas_agree_at_half(self):
        for n in (1, 2, 3):
            mode = ModeSpec(n=n)
            a, k = 1.0, mode.k
            s = 0.5
            first = (a - 2 * s + np.sin(4 * k * s) / (2 * k),
                     2 * s - np.sin(4 * k * s) / (2 * k))
            second = (2 * s - a - np.sin(4 * k * s) / (2 * k),
                      2 * (a - s) + np.sin(4 * k * s) / (2 * k))
            assert first == pytest.approx(second, abs=1e-12)
