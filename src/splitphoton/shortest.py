"""Numeric arrays as CSV text: Python ``repr``'s, ``'%.17g' %``'s and ``'%d' %``'s.

Three writers render an array as right-aligned text in fixed-width byte
slots, zeros left of it, byte for byte what Python writes for each value (NaN
is an empty cell): ``repr_slots`` as ``repr``, ``g17_slots`` as ``'%.17g' %``,
``int_slots`` as ``'%d' %``; no text holds a zero byte.  The float writers
find digits with their own kernels, run on the cells they lay out only, and
lay them out through ``_render``, whose one parameter between them is the
form rule.

``repr``'s digits come from a numpy port of Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; the algorithm of the JDK's
``Double.toString`` since JDK 19): for every normal double it finds the
shortest decimal that rounds back to it, the closest to it among those, the
one with an even last digit on a tie, which is the decimal ``repr`` writes.
It needs only 64-bit integer arithmetic and a 617-entry table of 126-bit
powers of ten.

``%.17g``'s digits need no search.  A double is c * 2**e with an integer c,
and in positional form its decimal exponent X lies in [-4, 16], so its 17
digits are c * 5**m * 2**(e + m), m = 16 - X <= 20, rounded half to even.
``g17_digits`` forms c * 5**m exactly as a 128-bit product and shifts it
right with that rounding; the only table is the 21 powers of five.

Every kernel operand is an explicit ``np.uint64``: under numpy 1.x a
``uint64`` mixed with an ``int64`` promotes to ``float64``.

The forms: ``repr`` is positional while the decimal point sits after digit
-3 to 16, with ``.0`` on whole numbers; ``%.17g`` while it sits after digit
-3 to 17, with trailing zeros and a bare point dropped (``1``, ``0``,
``-0``).  Cells in exponent form, subnormals and infinities are rare in the
tables this package writes; they are rendered by ``repr`` or ``%`` one at a
time.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

# slot width: the longest repr, "-2.2250738585072014e-308", has 24 bytes, and
# the longest %.17g, "-2.2250738585072014e-308", as many
WIDTH = 24

_U = np.uint64
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the normal doubles' digit scales
_MASK_63 = _U(2**63 - 1)
_MASK_32 = _U(2**32 - 1)
_ZERO, _ONE, _TWO, _TEN = _U(0), _U(1), _U(2), _U(10)
_S32, _S63 = _U(32), _U(63)
_E16, _E17 = _U(10**16), _U(10**17)


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| < 1_233."""
    return (e * 913_124_641_741) >> 38


@cache
def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """(g1, g0) with g = g1 * 2**63 + g0 = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1.

    Entry k - K_MIN serves decimal exponent k; 2**125 <= g < 2**126.  Computed
    exactly from Python ints at first use, not at import.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 125 - _flog2pow10(-k)
        if k > 0:
            g.append((1 << p) // 10**k + 1)
        elif p >= 0:
            g.append((10**-k << p) + 1)
        else:
            g.append((10**-k >> -p) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=_U)
    g1.flags.writeable = g0.flags.writeable = False
    return g1, g0


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit halves.

    ``b`` is at least as large as ``a``; the products of ``b``'s halves are
    formed in place to hold fewer arrays of its size at once.
    """
    a_lo, a_hi = a & _MASK_32, a >> _S32
    b_lo, b_hi = b & _MASK_32, b >> _S32
    mid = a_lo * b_lo
    mid >>= _S32
    lo_hi = a_lo * b_hi
    b_lo *= a_hi  # hi * lo
    b_hi *= a_hi  # hi * hi
    mid += lo_hi & _MASK_32
    mid += b_lo & _MASK_32
    b_hi += lo_hi >> _S32
    b_hi += b_lo >> _S32
    b_hi += mid >> _S32
    return b_hi


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Round-to-odd of cp * g / 2**127, g = g1 * 2**63 + g0 (the paper's figure 8)."""
    z = g1 * cp
    z >>= _ONE
    z += _mulhi(g0, cp)
    vbp = _mulhi(g1, cp)
    vbp += z >> _S63
    z &= _MASK_63
    z += _MASK_63
    z >>= _S63  # 1 where the bits below the result are not all zero
    vbp |= z
    return vbp


# cb - 2, cb, cb + 2 (mod 2**64), with cb = 4 * the significand
_ENDS = np.array([[2**64 - 2], [0], [2]], dtype=_U)


def shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f (uint64) and exponents k (int64) of normal doubles: repr(v) == f * 10**k.

    ``bits`` holds the doubles' bit patterns as uint64, sign bit ignored.
    10**15 < f < 10**17, and f may end in zeros.  Zeros, subnormals,
    infinities and NaNs give meaningless results.
    """
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    frac = bits & _U(2**52 - 1)
    q = biased - 1075
    irregular = (frac == _ZERO) & (biased > 1)  # 2**e: the spacing below v is half that above
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at an irregular spacing
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g1, g0 = (np.take(table, k - _K_MIN) for table in _g_table())

    # v and the ends of its rounding interval, scaled by 4 * 10**-k, in one pass
    cp = ((frac | _U(2**52)) << _TWO) + _ENDS
    cp[0] += irregular  # 2**e: the lower end is cb - 1
    cp <<= h
    vbl, vb, vbr = _rop(g1, g0, cp)
    out = frac & _ONE  # an odd significand's rounding interval is open

    s = vb >> _TWO  # 2**52 <= s < 10**17
    sp10 = s // _TEN * _TEN  # the shorter candidates sp10 and sp10 + 10
    upin = vbl + out <= sp10 << _TWO
    wpin = ((sp10 + _TEN) << _TWO) + out <= vbr
    uin = vbl + out <= s << _TWO
    win = ((s + _ONE) << _TWO) + out <= vbr
    # at least one of u and w is in, so w is picked where u is out; where both are,
    # the closer to v, the even one on a tie
    mid = (s << _TWO) + _TWO
    pick_w = ~uin | (win & ((vb > mid) | ((vb == mid) & (s & _ONE == _ONE))))
    f = s + pick_w
    np.copyto(f, sp10 + _TEN * wpin, where=upin != wpin)
    return f, k


_POW5 = np.array([5**m for m in range(21)], dtype=_U)  # 5**20 < 2**47


def _scaled(bits: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(|v| * 10**m) and whether it rounds up, half to even, for normal doubles v.

    |v| * 10**m must lie in [10**15, 10**18).  With the significand shifted
    to the top of a word, |v| = c * 2**-r0 (2**63 <= c < 2**64), so
    |v| * 10**m = c * 5**m / 2**r, r = r0 - m: a 111-bit product shifted right
    by r, which the range of |v| * 10**m keeps in [4, 60].
    """
    c = (bits << _U(11)) | _U(2**63)
    p = np.take(_POW5, m)
    lo = c * p  # the low 64 bits of the product
    hi = _mulhi(p, c)
    r = (1086 - ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - m).astype(_U)
    floor = (hi << (_U(64) - r)) | (lo >> r)
    dropped = lo << (_U(64) - r)  # the bits shifted out, at the top of a word
    half = _U(2**63)
    return floor, (dropped > half) | ((dropped == half) & (floor & _ONE == _ONE))


def g17_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d (uint64) and exponents x (int64) with ``'%.16e' % v`` == d * 10**(x - 16).

    For doubles with 1e-5 <= |v| < 1e18.  10**16 <= d < 10**17 wherever
    -4 <= x <= 16, the cells ``%.17g`` writes in positional form; elsewhere x
    is outside that range and d meaningless.
    """
    bits = values.view(_U)
    x = np.floor(np.log10(np.abs(values))).astype(np.int64)  # X, or one off near 10**X
    x = np.clip(x, -4, 16)
    floor, up = _scaled(bits, 16 - x)
    # a floor outside [10**16, 10**17) moves X by one; only those cells are redone
    low, high = floor < _E16, floor >= _E17
    x += high.astype(np.int64) - low
    redo = np.flatnonzero((low | high) & (x >= -4) & (x <= 16))
    if len(redo):
        floor[redo], up[redo] = _scaled(bits[redo], 16 - x[redo])
    # no digits round up to 10**17 where -4 <= X <= 16: that needs a double within
    # 5e-18 relative below 10**(X + 1), and none below 10**-3 ... 10**17 is that close
    # (the doubles that are, such as 1e-14, are written in exponent form)
    return floor + up, x


_LE = np.dtype("<u8")  # a slot is 3 little-endian words: column c is byte c % 8 of word c // 8
# _HIGH[c]: the bytes of columns c to WIDTH - 1 set
_HIGH = np.array([[(2**192 - (1 << 8 * c)) >> 64 * w & (2**64 - 1) for w in range(3)]
                  for c in range(WIDTH + 1)], dtype=_LE)
_ASCII = _U(0x3030_3030_3030_3030)


def _swar8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as the bytes of a little-endian word, first
    digit lowest (digit values, not ASCII): two 4-digit, four 2-digit, eight 1-digit lanes."""
    hi = x // _U(10_000)
    merged = hi | ((x - hi * _U(10_000)) << _S32)
    top = ((merged * _U(10_486)) >> _U(20)) & _U(0x7F_0000_007F)  # lane // 100 below 10**4
    hundreds = ((merged - _U(100) * top) << _U(16)) + top
    tens = ((hundreds * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # lane // 10 below 100
    return tens + ((hundreds - _TEN * tens) << _U(8))


def _positional(digits: np.ndarray, decpt: np.ndarray, negative: np.ndarray,
                min_frac: int) -> np.ndarray:
    """(-1)**negative * 0.d1d2...d17 * 10**decpt in positional form, as right-aligned
    ASCII in a (n, WIDTH) uint8 array with zeros left of the text.

    ``digits`` holds d1..d17 as an integer.  Trailing zeros of the fraction
    are dropped down to ``min_frac`` digits; with none left the point goes too.
    -3 <= decpt and decpt + min_frac <= 17.
    """
    n = len(digits)
    d1 = digits // _E16
    halves = np.empty((n, 2), dtype=_U)  # d2..d9, d10..d17
    np.floor_divide(digits - d1 * _E16, _U(10**8), out=halves[:, 0])
    halves[:, 1] = digits - d1 * _E16 - halves[:, 0] * _U(10**8)
    lanes = _swar8(halves)
    src = np.empty((n, 5), dtype=_LE)  # rows: 16 unused bytes, 7 "0"s, d1..d17
    src[:, 2] = (_ASCII >> _U(8)) | ((d1 + _U(0x30)) << _U(56))
    src[:, 3:] = lanes + _ASCII
    # digits through the last nonzero one: bytes through the highest nonzero byte
    used = (np.frexp(lanes.astype(np.float64))[1] + 7) >> 3
    significant = np.maximum((used[:, 1] > 0) * (used[:, 1] + 9), used[:, 0] + 1)

    # digit i sits at byte 22 + i of its 40-byte source row; the window of WIDTH
    # bytes that ends at digit decpt + frac_len right-aligns the integer and
    # fraction digits, and starts at byte 0 of the row or later
    frac_len = np.maximum(significant - decpt, min_frac)
    point = frac_len > 0
    windows = np.ndarray((max(src.size * 8 - WIDTH + 1, 0),), dtype=f"V{WIDTH}", buffer=src,
                         strides=(1,))
    first = 22 - (WIDTH - 1)  # start of the window of row 0 that would end at digit 0
    starts = np.arange(first, first + 40 * n, 40) + decpt + frac_len
    slots = windows[starts].view(np.uint8).reshape(n, WIDTH)
    # move the integer digits one column left to make room for the point; column
    # 0 never holds a digit and is cleared so that nothing carries across rows.
    # A cell without a point keeps every byte in place and has its point written
    # to column 0, left of its text
    slots[:, 0] = 0
    words = slots.view(_LE).ravel()
    fraction = np.take(_HIGH, (WIDTH - frac_len) * point, axis=0).ravel()
    integer = words & ~fraction
    words &= fraction
    words |= integer >> _U(8)
    words[:-1] |= integer[1:] << _U(56)
    flat = slots.ravel()
    flat[np.arange(0, WIDTH * n, WIDTH) + (WIDTH - 1 - frac_len) * point] = ord(".")
    lengths = np.maximum(decpt, 1) + point + frac_len + negative
    words &= np.take(_HIGH, WIDTH - lengths, axis=0).ravel()
    negative = np.flatnonzero(negative)
    flat[negative * WIDTH + WIDTH - lengths[negative]] = ord("-")
    return slots


def _render(values: np.ndarray, laid: np.ndarray, digits: np.ndarray, decpt: np.ndarray,
            min_frac: int, text: Callable[[float], str]) -> np.ndarray:
    """Slots of a float column.

    A cell where ``laid`` is set is laid out by ``_positional`` from its
    ``digits`` and point position ``decpt``; any other cell is ``text`` of
    its value, or empty for NaN.  Only the laid-out cells reach the layout.
    """
    cells = np.flatnonzero(laid)
    if len(cells) == len(values):
        return _positional(digits, decpt, np.signbit(values), min_frac)
    slots = np.zeros((len(values), WIDTH), dtype=np.uint8)
    if len(cells):
        slots[cells] = _positional(digits[cells], decpt[cells], np.signbit(values[cells]),
                                   min_frac)
    for i in np.flatnonzero(~laid & ~np.isnan(values)).tolist():
        cell = text(float(values[i])).encode()
        slots[i, WIDTH - len(cell):] = np.frombuffer(cell, np.uint8)
    return slots


def repr_slots(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, NaN empty, as zero-padded (n, WIDTH) right-aligned ASCII."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    magnitude = values.view(_U) & _MASK_63
    normal = np.flatnonzero((magnitude >= _U(2**52)) & (magnitude < _U(0x7FF << 52)))
    digits = np.zeros(len(values), dtype=_U)  # zeros are laid out as d1 = 0 before the point
    decpt = np.ones(len(values), dtype=np.int64)
    laid = magnitude == _ZERO
    if len(normal):
        f, k = shortest_digits(magnitude[normal])
        short = f < _E16
        digits[normal] = f + _U(9) * f * short  # d1..d17
        decpt[normal] = k + 17 - short  # repr's value is 0.d1d2...d17 * 10**decpt
        laid[normal] = (decpt[normal] > -4) & (decpt[normal] <= 16)
    return _render(values, laid, digits, decpt, 1, repr)


def g17_slots(values: np.ndarray) -> np.ndarray:
    """``'%.17g' %`` of each float, NaN empty, as zero-padded (n, WIDTH) right-aligned ASCII."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    size = np.abs(values)
    scaled = np.flatnonzero((size >= 1e-5) & (size < 1e18))
    digits = np.zeros(len(values), dtype=_U)
    decpt = np.ones(len(values), dtype=np.int64)
    laid = size == 0.0
    if len(scaled):
        d, x = g17_digits(values[scaled])
        digits[scaled] = d
        decpt[scaled] = x + 1
        laid[scaled] = (x >= -4) & (x <= 16)
    return _render(values, laid, digits, decpt, 0, "%.17g".__mod__)


_POW10 = np.array([10**k for k in range(1, 20)], dtype=_U)  # 10**19 < 2**64


def int_slots(values: np.ndarray) -> np.ndarray:
    """``'%d' %`` of each int as zero-padded (n, WIDTH) right-aligned ASCII."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    negative = values < 0
    magnitude = np.abs(values).view(_U)  # abs(-2**63) wraps to -2**63, 2**63 as uint64
    groups = np.empty((len(values), 3), dtype=_U)  # digits 1-8, 9-16, 17-24 of 24
    np.floor_divide(magnitude, _E16, out=groups[:, 0])
    rest = magnitude - groups[:, 0] * _E16
    np.floor_divide(rest, _U(10**8), out=groups[:, 1])
    groups[:, 2] = rest - groups[:, 1] * _U(10**8)
    words = (_swar8(groups) + _ASCII).astype(_LE, copy=False)
    lengths = np.searchsorted(_POW10, magnitude, side="right") + 1 + negative
    words &= np.take(_HIGH, WIDTH - lengths, axis=0)
    slots = words.view(np.uint8)
    negative = np.flatnonzero(negative)
    slots.ravel()[negative * WIDTH + WIDTH - lengths[negative]] = ord("-")
    return slots
