import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import shortest
from splitphoton.shortest import (WIDTH, g17_digits, g17_slots, int_slots, int_width,
                                  repr_slots, shortest_digits)


def _cells(slots, width=WIDTH) -> list[str]:
    """Each slot's text: the bytes after its leading zeros."""
    assert slots.shape[1:] == (width,)
    return [bytes(row).lstrip(b"\0").decode("ascii") for row in slots]


def _texts(values) -> list[str]:
    return _cells(repr_slots(np.asarray(values, dtype=np.float64)))


def _expected(values) -> list[str]:
    return ["" if math.isnan(v) else repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def _neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def _repr_digits(value: float) -> tuple[str, int]:
    """repr(value)'s significant digits, and the power of ten of the last one."""
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    significant = digits.rstrip("0")
    return significant, int(exponent or 0) - len(fraction) + len(digits) - len(significant)


def _positional_doubles(values) -> np.ndarray:
    """The values with 1e-4 <= |v| < 1e16, the kernel's domain: repr's positional cells."""
    values = np.asarray(values, dtype=np.float64)
    return values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]


class TestShortestDigits:
    """The kernel's digits against repr's, on its domain 1e-4 <= |v| < 1e16."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, dtype=np.float64)
        assert np.all((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16))
        f, k = shortest_digits(values.view(np.uint64))
        for value, digits, power in zip(values.tolist(), f.tolist(), k.tolist()):
            significant = str(digits).rstrip("0")
            got = (significant, power + len(str(digits)) - len(significant))
            assert got == _repr_digits(value), value

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1009, 1076), min_size=1, max_size=32), st.data())
    def test_every_normal_double(self, exponents, data):
        # biased exponents 1009 to 1076 hold 2**-14 <= v < 2**54, around the domain
        fractions = data.draw(st.lists(st.integers(0, 2**52 - 1), min_size=len(exponents),
                                       max_size=len(exponents)))
        bits = [(e << 52) | m for e, m in zip(exponents, fractions)]
        self._check(_positional_doubles(np.array(bits, dtype=np.uint64).view(np.float64)))

    def test_random_normal_doubles(self):
        rng = np.random.default_rng(24)
        bits = (rng.integers(1009, 1077, 20_000, dtype=np.uint64) << np.uint64(52)) | rng.integers(
            0, 2**52, 20_000, dtype=np.uint64)
        self._check(_positional_doubles(bits.view(np.float64)))

    def test_powers_of_two_and_ten(self):
        # a power of two has a rounding interval twice as wide above as below
        self._check(_positional_doubles(_neighbours([2.0**e for e in range(-14, 54)] +
                                                    [10.0**e for e in range(-4, 17)])))

    def test_interval_ends(self):
        # from 2**52 to 2**53 doubles are 1 apart, from 2**53 to 1e16 2 apart with
        # whole-number interval ends v - 1 and v + 1, inside only for an even
        # significand; the half-gap's fraction word is 0 there
        rng = np.random.default_rng(25)
        self._check(np.concatenate([
            2.0**52 + np.arange(-4000, 4000), 2.0**53 + np.arange(-4000, 4000, 2.0),
            9999999999999998.0 - np.arange(0, 8000, 2.0),
            rng.integers(2**52, 10**16, 5000).astype(np.float64),
        ]))


class TestReprSlots:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_every_bit_pattern_formats_as_repr(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _texts(values) == _expected(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
        assert _texts(values) == _expected(values)

    def test_positional_range(self):
        rng = np.random.default_rng(21)
        values = 10.0 ** rng.uniform(-5, 17, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        assert _texts(values) == _expected(values)

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                       5e-324, -5e-324, 2.225073858507201e-308,
                                       2.2250738585072014e-308, 1.7976931348623157e308,
                                       -1.7976931348623157e308, 1.0, -1.0, 0.1, 1.0 / 3.0])
    def test_named_values(self, value):
        assert _texts([value]) == _expected([value])

    def test_powers_of_two(self):
        # significand 2**52 (C_MIN): the spacing below is half that above
        values = _neighbours([2.0**e for e in range(-1074, 1024)])
        values = np.concatenate([values, -values])
        assert _texts(values) == _expected(values)

    def test_powers_of_ten(self):
        values = _neighbours([10.0**e for e in range(-323, 309)])
        values = np.concatenate([values, -values])
        assert _texts(values) == _expected(values)

    @pytest.mark.parametrize("switch", [1e-4, 1e-3, 1e15, 1e16, 1e17])
    def test_form_switches(self, switch):
        # repr is positional for 1e-4 <= |v| < 1e16, exponent form outside
        values = [switch]
        for _ in range(40):
            values = [values[0], *values, values[-1]]
            values[0], values[-1] = np.nextafter(values[0], 0), np.nextafter(values[-1], np.inf)
        values = np.concatenate([values, -np.array(values)])
        assert _texts(values) == _expected(values)

    def test_whole_numbers(self):
        rng = np.random.default_rng(22)
        values = np.concatenate([
            np.arange(-5000, 5000, dtype=np.float64),
            rng.integers(0, 2**53, 5000).astype(np.float64),
            rng.integers(2**53, 2**62, 5000).astype(np.float64),
            2.0**53 + np.arange(-64, 64), 9999999999999998.0 + np.arange(-8, 8, 2.0),
        ])
        assert _texts(values) == _expected(values)

    def test_short_decimals(self):
        rng = np.random.default_rng(23)
        values = [round(v, d) for v, d in zip(rng.uniform(-100, 100, 5000).tolist(),
                                              rng.integers(0, 9, 5000).tolist())]
        assert _texts(values) == _expected(values)

    def test_empty(self):
        assert repr_slots(np.array([])).shape == (0, WIDTH)


def _g17_texts(values) -> list[str]:
    return _cells(g17_slots(np.asarray(values, dtype=np.float64)))


def _g17_expected(values) -> list[str]:
    return ["" if math.isnan(v) else "%.17g" % v
            for v in np.asarray(values, dtype=np.float64).tolist()]


def _carrying_powers_of_ten() -> list[float]:
    """The largest double below each power of ten whose 17-digit rounding carries to it."""
    found = []
    for e in range(-323, 309):
        power = Decimal(10) ** e
        below = float(power)
        if Decimal(below) >= power:
            below = float(np.nextafter(below, 0.0))
        if below > 0 and Decimal(below) * Decimal(10) ** (17 - e) >= 10**17 - Decimal("0.5"):
            found.append(below)
    return found


class TestG17Digits:
    """The kernel's digits and exponents against '%.16e', on its domain 1e-4 <= |v| < 1e17
    (%.17g's positional cells)."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, dtype=np.float64)
        assert np.all((np.abs(values) >= 1e-4) & (np.abs(values) < 1e17))
        digits, x = g17_digits(values)
        for value, d, e in zip(values.tolist(), digits.tolist(), x.tolist()):
            mantissa, exponent = ("%.16e" % value).split("e")
            assert (d, e) == (int(mantissa.lstrip("-").replace(".", "")), int(exponent)), value

    def test_log_uniform(self):
        rng = np.random.default_rng(30)
        values = 10.0 ** rng.uniform(-4, 17, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        self._check(values[np.abs(values) < 1e17])

    def test_powers_of_ten(self):
        values = _neighbours([10.0**e for e in range(-4, 18)])
        self._check(values[(values >= 1e-4) & (values < 1e17)])

    def test_no_positional_cell_carries(self):
        # the kernel has no carry step: every double whose 17 digits round up to
        # the next power of ten is written in exponent form
        carrying = _carrying_powers_of_ten()
        assert 1e-14 in carrying
        assert all(not 1e-5 <= v < 1e17 for v in carrying)


class TestG17Slots:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_every_bit_pattern_formats_as_percent(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)
        assert _g17_texts(values) == _g17_expected(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(31)
        values = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
        assert _g17_texts(values) == _g17_expected(values)

    def test_positional_range(self):
        rng = np.random.default_rng(32)
        values = 10.0 ** rng.uniform(-6, 18, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        assert _g17_texts(values) == _g17_expected(values)

    @pytest.mark.parametrize("value,text", [(0.0, "0"), (-0.0, "-0"), (math.inf, "inf"),
                                            (-math.inf, "-inf"), (math.nan, ""),
                                            (5e-324, "4.9406564584124654e-324"),
                                            (1.0, "1"), (-0.5, "-0.5"),
                                            (0.1, "0.10000000000000001")])
    def test_named_values(self, value, text):
        assert _g17_texts([value]) == [text] == _g17_expected([value])

    @pytest.mark.parametrize("switch", [1e-4, 1e16, 1e17])
    def test_form_switches(self, switch):
        # %.17g is positional for 1e-4 <= |v| < 1e17; 1e16 is the last whole
        # number with a one-digit exponent of the point
        values = [switch]
        for _ in range(40):
            values = [values[0], *values, values[-1]]
            values[0], values[-1] = np.nextafter(values[0], 0), np.nextafter(values[-1], np.inf)
        values = np.concatenate([values, -np.array(values)])
        assert _g17_texts(values) == _g17_expected(values)

    def test_ties_round_half_to_even(self):
        assert _g17_texts([1234567890123456.25, 1234567890123456.75]) == [
            "1234567890123456.2", "1234567890123456.8"]
        # j / 2**(17 - X), j odd, lies halfway between two 17-digit decimals
        rng = np.random.default_rng(33)
        values = []
        for x in range(-4, 16):
            lo, hi = math.ceil(10**x * 2**(17 - x)), min(10**(x + 1) * 2**(17 - x), 2**53)
            values += [math.ldexp(2 * j + 1, x - 17)
                       for j in rng.integers(lo // 2, hi // 2, 500).tolist()]
        assert _g17_texts(values) == _g17_expected(values)

    def test_whole_numbers_around_2_53(self):
        assert _g17_texts([9007199254740993.0]) == ["9007199254740992"]
        values = np.concatenate([2.0**53 + np.arange(-64, 64), 2.0**54 + np.arange(-64, 64, 2),
                                 9999999999999998.0 + np.arange(-8, 8, 2.0),
                                 99999999999999984.0 + np.arange(-64, 64, 16.0)])
        assert _g17_texts(values) == _g17_expected(values)

    def test_powers_of_ten(self):
        values = _neighbours([10.0**e for e in range(-323, 309)])
        values = np.concatenate([values, -values])
        assert _g17_texts(values) == _g17_expected(values)

    def test_carrying_powers_of_ten(self):
        values = _carrying_powers_of_ten()
        assert _g17_texts(values) == _g17_expected(values)

    def test_empty(self):
        assert g17_slots(np.array([])).shape == (0, WIDTH)


@pytest.mark.parametrize("writer,kernel", [(repr_slots, "shortest_digits"),
                                           (g17_slots, "g17_digits")])
class TestKernelInput:
    """Each writer's kernel sees only the cells it lays out, compressed."""

    def test_all_nan_column_makes_no_kernel_call(self, writer, kernel, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel called")
        monkeypatch.setattr(shortest, kernel, fail)
        slots = writer(np.full(3000, np.nan))
        assert slots.shape == (3000, WIDTH) and not slots.any()

    def test_kernel_sees_only_finite_nonzero_cells(self, writer, kernel, monkeypatch):
        seen = []
        real = getattr(shortest, kernel)

        def spy(arg):
            seen.append(len(arg))
            return real(arg)
        monkeypatch.setattr(shortest, kernel, spy)
        values = np.full(3000, np.nan)
        values[::7] = np.linspace(0.5, 2.0, len(values[::7]))
        values[1::7] = 0.0
        values[2::7] = np.inf
        texts = _cells(writer(values))
        assert seen == [len(values[::7])]
        expected = repr if writer is repr_slots else "%.17g".__mod__
        assert texts == ["" if math.isnan(v) else expected(v) for v in values.tolist()]


@pytest.mark.parametrize("writer,kernel,zeros", [(repr_slots, "shortest_digits", ["0.0", "-0.0"]),
                                                 (g17_slots, "g17_digits", ["0", "-0"])])
class TestZeroCells:
    """Zeros get constant slots: neither the digit kernel nor the layout sees them."""

    def test_all_zero_column_makes_no_kernel_call(self, writer, kernel, zeros, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel called")
        monkeypatch.setattr(shortest, kernel, fail)
        monkeypatch.setattr(shortest, "_positional", fail)
        values = np.zeros(3000)
        values[1::3] = -0.0
        assert _cells(writer(values)) == [zeros[0], zeros[1], zeros[0]] * 1000

    def test_zeros_mixed_with_kernel_cells(self, writer, kernel, zeros, monkeypatch):
        seen = []
        for name in (kernel, "_positional"):
            def spy(arg, *rest, real=getattr(shortest, name)):
                seen.append(len(arg))
                return real(arg, *rest)
            monkeypatch.setattr(shortest, name, spy)
        values = np.linspace(-2.0, 2.0, 3000)
        values[::5] = 0.0
        values[1::5] = -0.0
        texts = _cells(writer(values))
        assert seen == [len(values) * 3 // 5] * 2
        assert texts[:2] == zeros
        expected = repr if writer is repr_slots else "%.17g".__mod__
        assert texts == [expected(v) for v in values.tolist()]


def _int_texts(values, width=WIDTH) -> list[str]:
    return _cells(int_slots(np.asarray(values, dtype=np.int64), width), width)


_INT64 = st.integers(-2**63, 2**63 - 1)


class TestIntSlots:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INT64, min_size=1, max_size=64))
    def test_every_int64_formats_as_percent(self, values):
        assert _int_texts(values) == ["%d" % v for v in values]

    def test_named_edges(self):
        values = [0, 2**63 - 1, -2**63]
        for k in range(1, 19):
            values += [10**k - 1, 10**k, 10**k + 1]
        values += [1, 10**18 + 1] + [-v for v in values if v > 0]
        assert _int_texts(values) == ["%d" % v for v in values]

    def test_random_int64(self):
        rng = np.random.default_rng(40)
        values = rng.integers(-2**63, 2**63 - 1, 20_000, endpoint=True)
        values >>= rng.integers(0, 64, 20_000)  # magnitudes of every length
        assert _int_texts(values) == ["%d" % v for v in values.tolist()]

    def test_empty(self):
        assert int_slots(np.array([], dtype=np.int64), WIDTH).shape == (0, WIDTH)

    @pytest.mark.parametrize("width", range(1, WIDTH + 1))
    def test_every_width(self, width):
        """At each width, the values that fit it, from one digit to all of them,
        are those of the 24-column slots with the columns left of the text cut."""
        top = min(10**width - 1, 2**63 - 1)  # the widest magnitude without a sign
        low = -min(10**(width - 1) - 1, 2**63)  # and with one
        rng = np.random.default_rng(width)
        values = [0, 1, 9, top, top // 7, low, low // 3, -1 if width > 1 else 0]
        values += rng.integers(low, top, 200, endpoint=True).tolist()
        values = [v for v in values if len("%d" % v) <= width]
        assert _int_texts(values, width) == ["%d" % v for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INT64, max_size=16))
    def test_int_width_is_the_widest_text(self, values):
        width = int_width(np.array(values, dtype=np.int64))
        assert width == max((len("%d" % v) for v in values), default=0)
        if values:
            assert _int_texts(values, width) == ["%d" % v for v in values]

    @pytest.mark.parametrize("values, width", [([10], 1), ([-1], 1), ([-10], 2),
                                               ([10**8], 8), ([-2**63], 19)])
    def test_too_narrow_raises(self, values, width):
        with pytest.raises(ValueError, match="does not fit"):
            int_slots(np.array(values, dtype=np.int64), width)


class TestZeroPadding:
    """Every writer's slot is zeros, then text that holds no zero byte."""

    @staticmethod
    def _check(slots):
        for row in slots:
            text = bytes(row).lstrip(b"\0")
            assert b"\0" not in text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_INT64, min_size=1, max_size=64))
    def test_int_slots(self, values):
        self._check(int_slots(np.array(values, dtype=np.int64), WIDTH))

    @pytest.mark.parametrize("writer", [repr_slots, g17_slots])
    @settings(max_examples=200, deadline=None)
    @given(patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_float_writers(self, writer, patterns):
        self._check(writer(np.array(patterns, dtype=np.uint64).view(np.float64)))

    @pytest.mark.parametrize("writer", [repr_slots, g17_slots])
    def test_whole_and_mixed_columns(self, writer):
        # a column of positional cells only is laid out in one piece; NaN,
        # exponent-form and positional cells together take the mixed path
        rng = np.random.default_rng(41)
        values = 10.0 ** rng.uniform(-3, 15, 5000) * rng.choice([-1.0, 1.0], 5000)
        self._check(writer(values))
        values *= 10.0 ** rng.integers(-30, 30, 5000)
        values[::11] = np.nan
        self._check(writer(values))
