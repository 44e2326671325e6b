"""Numeric arrays as CSV text: Python ``repr``'s, ``'%.17g' %``'s and ``'%d' %``'s.

Three writers render an array as right-aligned text in fixed-width byte
slots, zeros left of it, byte for byte what Python writes for each value (NaN
is an empty cell): ``repr_slots`` as ``repr``, ``g17_slots`` as ``'%.17g' %``,
``int_slots`` as ``'%d' %``; no text holds a zero byte.  The float writers
find digits with their own kernels, run on the cells they lay out only, and
lay them out through ``_render``, which each calls with its kernel, the top
of its positional range, its form rule and its ``%`` conversion.

Both float kernels start from one exact product.  A double is c * 2**q with
an integer c, so v * 10**m = c * 5**m * 2**(q + m): with c at the top of a
64-bit word it is a 111-bit product shifted right, and ``_scaled`` returns
its floor and the dropped fraction as a 64-bit word.  The only table is the
21 powers of five, m <= 20.

``repr``'s digits: for 1e-4 <= |v| < 1e16 (the cells ``repr`` writes in
positional form) ``shortest_digits`` takes m so that the rounding interval
of V = v * 10**m holds a whole number and is about 1 to 10 wide, as
Schubfach does (R. Giulietti, "The Schubfach way to render doubles", 2020;
the JDK's ``Double.toString`` since JDK 19).  The half-gap to the
neighbouring doubles scaled the same way is 5**m / 2**t, shifts only.  With
V and the interval's ends exact, the choice is Schubfach's: the multiple of
ten in the interval if there is one, else the nearer of floor(V) and
floor(V) + 1 that lies in it, the even one on a tie.  That is the shortest
decimal that rounds back to v, the closest to it among those, and the one
with an even last digit on a tie: the decimal ``repr`` writes.

``%.17g``'s digits need no search: in positional form the decimal exponent
X lies in [-4, 16], so its 17 digits are the product at m = 16 - X, rounded
half to even.

Every kernel operand is an explicit ``np.uint64``: under numpy 1.x a
``uint64`` mixed with an ``int64`` promotes to ``float64``.

The forms: ``repr`` is positional while the decimal point sits after digit
-3 to 16, with ``.0`` on whole numbers; ``%.17g`` while it sits after digit
-3 to 17, with trailing zeros and a bare point dropped (``1``, ``0``,
``-0``).  A writer takes one of three paths per batch.  A batch of
positional cells only goes to the digit kernel and the layout as it is.  A
batch of zeros and NaNs only gets constant slots and makes no kernel call.
Any other batch has its positional cells gathered out for the kernels, its
zeros given constant slots, and its other cells (exponent form, subnormals,
infinities), rare in the tables this package writes, rendered by one ``%``
over all of them (``percent_slots``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["WIDTH", "shortest_digits", "g17_digits", "percent_slots", "repr_slots", "g17_slots",
           "int_width", "int_slots"]

# slot width: the longest repr, "-2.2250738585072014e-308", has 24 bytes, and
# the longest %.17g, "-2.2250738585072014e-308", as many
WIDTH = 24

_U = np.uint64
_MASK_63 = _U(2**63 - 1)
_MASK_32 = _U(2**32 - 1)
_ZERO, _ONE, _TEN = _U(0), _U(1), _U(10)
_S32, _S63 = _U(32), _U(63)
_E16, _E17 = _U(10**16), _U(10**17)


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


_POW5 = np.array([5**m for m in range(21)], dtype=_U)  # 5**20 < 2**47


def _scaled(bits: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(|v| * 10**m) and the fraction it drops, as a 64-bit word, for normal doubles v.

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
    return (hi << (_U(64) - r)) | (lo >> r), lo << (_U(64) - r)


def shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f (uint64) and exponents k (int64) of doubles with 1e-4 <= |v| < 1e16:
    repr(v) == f * 10**k.

    ``bits`` holds the doubles' bit patterns as uint64, sign bit ignored.
    10**15 < f < 10**17, and f may end in zeros.  Other doubles give
    meaningless results.
    """
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    frac = bits & _U(2**52 - 1)
    q = biased - 1075  # v = c * 2**q, 2**52 <= c < 2**53
    irregular = (frac == _ZERO) & (biased > 1)  # 2**e: the spacing below v is half that above
    # m = -floor(log10(2**q)), or -floor(log10(3/4 * 2**q)) at an irregular spacing,
    # in [0, 20] on this domain
    m = -((q * 661_971_961_083 - irregular * 274_743_187_321) >> 41)
    s, fraction = _scaled(bits, m)  # V = v * 10**m = s + fraction / 2**64, s < 2**57

    # the rounding interval is V -/+ H, H = 2**(q - 1) * 10**m = 5**m / 2**t with
    # 0 <= t <= 47 and H < 5 (< 20/3 at a power of two); least and greatest are the
    # outermost whole numbers in it, from integer and fraction words.  The fraction
    # of 5**m / 2**t is shifted in two steps, as a shift by 64 is not 0.  Two
    # refinements never decide on this domain and are left out.  An odd c's interval
    # is open, but an end is a whole number only at t = 0, and then odd, beside the
    # even V.  The gap below a power of two is H / 2, but each in-domain power scales
    # to a whole V that is a multiple of ten or, at 2**53 (H = 1), 2 above one
    p = np.take(_POW5, m)
    t = (1 - q - m).astype(_U)
    gap = (p << _ONE) << (_S63 - t)
    low_fraction = fraction - gap
    least = s - (p >> t) - (low_fraction > fraction) + (low_fraction != _ZERO)
    greatest = s + (p >> t) + (fraction + gap < fraction)

    # the multiple of ten in the interval if there is one (at most one is), sp10 or
    # sp10 + 10; else s or s + 1, whichever is in, and where both are the nearer to V,
    # the even one on a tie
    half = _U(2**63)
    f = s + ((s < least) | ((s < greatest) & ((fraction > half) |
                                               ((fraction == half) & (s & _ONE == _ONE)))))
    sp10 = s // _TEN * _TEN
    np.copyto(f, sp10, where=sp10 >= least)
    sp10 += _TEN
    np.copyto(f, sp10, where=sp10 <= greatest)
    return f, -m


def g17_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d (uint64) and exponents x (int64) with ``'%.16e' % v`` == d * 10**(x - 16),
    for doubles with 1e-4 <= |v| < 1e17: the cells ``%.17g`` writes in positional form.

    On that domain -4 <= x <= 16 and 10**16 <= d < 10**17.  Other doubles give
    meaningless results, or an ``IndexError`` from the table of powers of five.
    """
    bits = values.view(_U)
    x = np.floor(np.log10(np.abs(values))).astype(np.int64)  # X, or one off near 10**X
    x = np.clip(x, -4, 16)  # at the ends of the domain the estimate may leave [-4, 16]
    floor, dropped = _scaled(bits, 16 - x)
    # a floor outside [10**16, 10**17) means x was one off X; only those cells are redone
    low, high = floor < _E16, floor >= _E17
    x += high.astype(np.int64) - low
    redo = np.flatnonzero(low | high)
    if len(redo):
        floor[redo], dropped[redo] = _scaled(bits[redo], 16 - x[redo])
    # rounded half to even.  No digits round up to 10**17 where -4 <= X <= 16: that
    # needs a double within 5e-18 relative below 10**(X + 1), and none below 10**-3 ...
    # 10**17 is that close (the doubles that are, such as 1e-14, are written in
    # exponent form)
    half = _U(2**63)
    return floor + ((dropped > half) | ((dropped == half) & (floor & _ONE == _ONE))), x


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


def percent_slots(values: np.ndarray, conversion: str) -> np.ndarray:
    """``'%' + conversion`` of each float, NaN empty, as zero-padded (n, WIDTH)
    right-aligned ASCII, from one ``%`` over n fields of ``WIDTH`` columns.

    ``conversion`` is ``"r"`` (``repr``) or ``".17g"``.  The fields' space
    padding is zeroed: no such text holds a space.
    """
    text = (f"%{WIDTH}{conversion}" * len(values) % tuple(values.tolist())).replace(" ", "\0")
    slots = np.frombuffer(bytearray(text, "ascii"), np.uint8).reshape(-1, WIDTH)
    slots[np.isnan(values)] = 0
    return slots


def _render(values: np.ndarray, top: float,
            digits: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], min_frac: int,
            conversion: str) -> np.ndarray:
    """Slots of a float column.

    A cell with 1e-4 <= |v| < ``top`` is written in positional form:
    ``digits`` gives its digits d1..d17 as an integer and the decimal
    exponent of d1, and ``_positional`` lays them out.  A batch of such cells
    only goes to both as it is.  In any other batch they are gathered out,
    a zero gets the constant slot of ``'%' + conversion`` of 0.0 or -0.0, and
    the other cells but NaN (empty) are written by one ``percent_slots`` call;
    a batch with no positional cell makes no ``digits`` call.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    size = np.abs(values)
    laid = (size >= 1e-4) & (size < top)
    negative = np.signbit(values)
    if laid.all():
        d, x = digits(values)
        return _positional(d, x + 1, negative, min_frac)
    slots = np.zeros((len(values), WIDTH), dtype=np.uint8)
    cells = np.flatnonzero(laid)
    if len(cells):
        d, x = digits(values[cells])
        slots[cells] = _positional(d, x + 1, negative[cells], min_frac)
    zero = size == 0.0
    slots[zero] = np.where(negative[zero, None], *percent_slots(np.array([-0.0, 0.0]), conversion))
    other = np.flatnonzero(~(laid | zero | np.isnan(values)))
    slots[other] = percent_slots(values[other], conversion)
    return slots


def _repr_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr``'s d1..d17 and the exponent of d1, for 1e-4 <= |v| < 1e16."""
    f, k = shortest_digits(values.view(_U) & _MASK_63)
    short = f < _E16
    return f + _U(9) * f * short, k + 16 - short


def repr_slots(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float, NaN empty, as zero-padded (n, WIDTH) right-aligned ASCII."""
    return _render(values, 1e16, _repr_digits, 1, "r")


def g17_slots(values: np.ndarray) -> np.ndarray:
    """``'%.17g' %`` of each float, NaN empty, as zero-padded (n, WIDTH) right-aligned ASCII."""
    return _render(values, 1e17, g17_digits, 0, ".17g")


_POW10 = np.array([10**k for k in range(1, 20)], dtype=_U)  # 10**19 < 2**64


def _int_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(magnitude, negative, length) of each int64: its ``'%d' %`` text has
    ``length`` characters, a ``-`` among them when ``negative``."""
    negative = values < 0
    magnitude = np.abs(values).view(_U)  # abs(-2**63) wraps to -2**63, 2**63 as uint64
    return magnitude, negative, np.searchsorted(_POW10, magnitude, side="right") + 1 + negative


def int_width(values: np.ndarray) -> int:
    """The characters of the widest ``'%d' %`` text among ``values``, 0 when
    there are none; the widest is that of the least or the greatest value."""
    if not len(values):
        return 0
    ends = np.array([values.min(), values.max()], dtype=np.int64)
    return int(_int_lengths(ends)[2].max())


def int_slots(values: np.ndarray, width: int) -> np.ndarray:
    """``'%d' %`` of each int as zero-padded (n, width) right-aligned ASCII,
    1 <= width <= WIDTH.

    Only the ceil(width / 8) eight-digit words that ``width`` holds are
    formed.  A value whose text is wider than ``width``: ValueError.
    """
    magnitude, negative, lengths = _int_lengths(np.ascontiguousarray(values, dtype=np.int64))
    if len(lengths) and lengths.max() > width:
        raise ValueError(f"an int of {lengths.max()} characters does not fit {width} columns")
    words = -(-width // 8)
    groups = np.empty((len(values), words), dtype=_U)  # 8-digit words, the highest first
    for w in range(words - 1, 0, -1):
        high = magnitude // _U(10**8)
        groups[:, w] = magnitude - high * _U(10**8)
        magnitude = high
    groups[:, 0] = magnitude
    size = 8 * words
    text = (_swar8(groups) + _ASCII).astype(_LE, copy=False)
    # a 24-byte slot's mask is 3 words; its last ``words`` mask the last 8 * words bytes
    text &= np.take(_HIGH[:, 3 - words:], WIDTH - lengths, axis=0)
    slots = text.view(np.uint8)
    negative = np.flatnonzero(negative)
    slots.ravel()[negative * size + size - lengths[negative]] = ord("-")
    return slots[:, size - width:]
