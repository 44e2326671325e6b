"""Analytic state of a single photon released from a Fabry-Perot cavity.

Covers the trapped standing-wave eigenmode, the post-release pair of
counter-propagating length-``a`` pulses, and the kinematic bookkeeping
(non-locality range, mirror timing).  Everything is closed-form.  When an
instrument of a scenario meets which part of the pulse is not worked out
here: ``experiments.crossing_events`` is the one table of those times.

Every field table is a short tuple of ``Piece``s, each one running wave
(B = +E moving right, B = -E moving left) on a closed interval, whose fields
add where pieces overlap: the eigenmode is a right- and a left-mover on [0, a],
the split state the left pulse plus the right pulse.  One evaluator, derivative
rule, one-sided ``limits`` and exact ``cumulative`` integral of E^2 + B^2 serve
them all, here and in ``reflection``.

Units are normalized: lengths in units of the cavity length and times in
units of cavity-length / wave-speed (defaults a=1, c=1).  The amplitude
is fixed so that the integral of E^2 + B^2 over all space is exactly 1,
making E^2 + B^2 a true probability density for the photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "ModeSpec",
    "FieldSample",
    "Piece",
    "RangeReport",
    "evaluate",
    "derivative",
    "limits",
    "cumulative",
    "eigenmode_pieces",
    "pulse_pieces",
    "split_pieces",
    "eigenmode",
    "boundary_check",
    "split_state",
    "nonlocality_range",
    "mirror_timing",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ModeSpec:
    """Cavity geometry and mode index; origin at the cavity's left end."""

    a: float = 1.0
    n: int = 1
    c: float = 1.0

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError("cavity length a must be positive and finite")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("mode index n must be a positive integer")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("wave speed c must be positive and finite")
        k = min(int(self.n), 2**1023) * np.pi / self.a  # self.k, but inf for n >= 2**1023
        if not math.isfinite(self.c * k):  # self.omega; a finite omega implies a finite k
            raise ValueError("wavenumber k = n*pi/a and frequency omega = c*k must be finite")

    @property
    def k(self) -> float:
        """Wavenumber n*pi/a."""
        return self.n * np.pi / self.a

    @property
    def omega(self) -> float:
        """Angular frequency c*k."""
        return self.c * self.k

    @property
    def amplitude(self) -> float:
        """Peak amplitude enforcing unit total probability, sqrt(2/a)."""
        return np.sqrt(2.0 / self.a)


class FieldSample(NamedTuple):
    E: ArrayLike
    B: ArrayLike


class RangeReport(NamedTuple):
    t: float
    S: float
    centers_gap: float


class Piece(NamedTuple):
    """One running wave: E = amp sin(kx + phase) and B = direction * E on [lo, hi].

    direction is +1 for a right-mover and -1 for a left-mover: in 1-D vacuum
    E + B is a function of x - ct and E - B one of x + ct.
    """

    lo: float
    hi: float
    amp: float
    phase: float
    direction: float


def evaluate(pieces: tuple[Piece, ...], k: float, x: ArrayLike) -> FieldSample:
    """Fields of a piece table at x: the sum of the waves whose closed interval
    holds x, zero outside them all.

    ``Piece`` fields of shape (rows, 1) against x of shape (rows, m) give row i
    the table of row i.  Each wave's sinusoid is computed at the points inside
    its piece only, into one scratch array of x's shape that ufuncs write
    through ``where=inside``, and added to E and to direction times B there.
    """
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape)
    b = np.zeros(x.shape)
    wave = np.empty(x.shape)
    for p in pieces:
        inside = (x >= p.lo) & (x <= p.hi)
        np.multiply(x, k, out=wave, where=inside)
        np.add(wave, p.phase, out=wave, where=inside)
        np.sin(wave, out=wave, where=inside)
        np.multiply(wave, p.amp, out=wave, where=inside)
        np.add(e, wave, out=e, where=inside)
        np.multiply(wave, p.direction, out=wave, where=inside)
        np.add(b, wave, out=b, where=inside)
    if e.ndim == 0:
        return FieldSample(float(e), float(b))
    return FieldSample(e, b)


def derivative(pieces: tuple[Piece, ...], k: float) -> tuple[Piece, ...]:
    """Pieces of dE/dx and dB/dx: each wave's amplitude times k, phase plus pi/2."""
    return tuple(p._replace(amp=k * p.amp, phase=p.phase + 0.5 * math.pi) for p in pieces)


def limits(pieces: tuple[Piece, ...], k: float, x: float) -> tuple[FieldSample, FieldSample]:
    """Left and right limits of the fields at x; a zero-width piece supplies neither."""
    left_e = left_b = right_e = right_b = 0.0
    for p in pieces:
        e = p.amp * math.sin(k * x + p.phase)
        if p.lo < x <= p.hi:
            left_e, left_b = left_e + e, left_b + p.direction * e
        if p.lo <= x < p.hi:
            right_e, right_b = right_e + e, right_b + p.direction * e
    return FieldSample(left_e, left_b), FieldSample(right_e, right_b)


def cumulative(pieces: tuple[Piece, ...], k: float, x: ArrayLike) -> ArrayLike:
    """Exact integral of E^2 + B^2 from the start of the pieces up to x.

    Two waves of one direction never overlap in a table, so the cross terms of
    E^2 and B^2 cancel and each wave adds its own 2 E_p^2, by the antiderivative
    amp^2 (x - sin(2(kx + phase)) / (2k)).
    """
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape)
    for p in pieces:
        u = np.clip(x, p.lo, p.hi)
        swing = np.sin(2.0 * (k * u + p.phase)) - math.sin(2.0 * (k * p.lo + p.phase))
        total += p.amp * p.amp * ((u - p.lo) - swing / (2.0 * k))
    if total.ndim == 0:
        return float(total)
    return total


def eigenmode_pieces(mode: ModeSpec, t: float) -> tuple[Piece, Piece]:
    """The trapped eigenmode at time t: waves (A/2) sin(kx -+ wt) moving right
    and left on [0, a], whose sum is the standing wave A cos(wt) sin(kx)."""
    half, wt = 0.5 * mode.amplitude, mode.omega * t
    return Piece(0.0, mode.a, half, -wt, 1.0), Piece(0.0, mode.a, half, wt, -1.0)


def pulse_pieces(mode: ModeSpec, lo: float, direction: int) -> tuple[Piece]:
    """One half-amplitude pulse (A/2) sin(k(x - lo)) on [lo, lo + a].

    B = direction * E: +1 for a right-moving pulse, -1 for a left-moving one.
    """
    return (Piece(lo, lo + mode.a, 0.5 * mode.amplitude, -mode.k * lo, direction),)


def split_pieces(mode: ModeSpec, t: float) -> tuple[Piece, Piece]:
    """Pieces of the split state: pulses on [-ct, a - ct] (left) and [ct, a + ct] (right).

    While the pulses overlap, their sum on [ct, a - ct] is the eigenmode there.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t < 0:
        raise ValueError("time must be non-negative after release")
    ct = mode.c * t
    return pulse_pieces(mode, -ct, -1) + pulse_pieces(mode, ct, 1)


def eigenmode(mode: ModeSpec, x: ArrayLike, t: float) -> FieldSample:
    """Trapped cavity eigenmode; zero outside [0, a].

    E = A sin(kx) cos(wt), B = -A cos(kx) sin(wt) with A = sqrt(2/a), ``eigenmode_pieces``.
    """
    return evaluate(eigenmode_pieces(mode, t), mode.k, x)


def boundary_check(mode: ModeSpec) -> tuple[float, float]:
    """Residuals of the wall conditions, read from the eigenmode's piece table.

    Returns (|E(0+)| + |E(a-)|, |dB/dx(0+)| + |dB/dx(a-)|): the one-sided
    ``limits`` inside the cavity of ``eigenmode_pieces`` and of their
    ``derivative``, each at the instant of its field's maximum (t = 0 for E,
    a quarter period for B).  Both vanish up to round-off in the argument
    kx + phase, which reaches (n + 1) pi at the far wall.
    """
    k, a = mode.k, mode.a
    fields = eigenmode_pieces(mode, 0.0)
    slopes = derivative(eigenmode_pieces(mode, 0.5 * math.pi / mode.omega), k)
    e_res = abs(limits(fields, k, 0.0)[1].E) + abs(limits(fields, k, a)[0].E)
    b_res = abs(limits(slopes, k, 0.0)[1].B) + abs(limits(slopes, k, a)[0].B)
    return e_res, b_res


def split_state(mode: ModeSpec, x: ArrayLike, t: float) -> FieldSample:
    """Post-release split state: two counter-propagating truncated pulses.

    E = (A/2)[g(x - ct) + g(x + ct)], B = (A/2)[g(x - ct) - g(x + ct)]
    with g(u) = sin(ku) on [0, a] and zero elsewhere.  It equals ``eigenmode``
    on [ct, a - ct] (everywhere at t = 0) and stays normalized for all t.
    """
    return evaluate(split_pieces(mode, t), mode.k, x)


def nonlocality_range(a: float, c: float, t: float) -> RangeReport:
    """Distance between the extreme edges of the free split state, 2ct + a."""
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    if t < 0:
        raise ValueError("time must be non-negative")
    gap = 2.0 * c * t
    return RangeReport(t=t, S=gap + a, centers_gap=gap)


def mirror_timing(a: float, c: float, D: float) -> tuple[float, float]:
    """Maximal non-locality range 2D + a and the moment (2D + a)/(2c) it is reached.

    Requires the mirror farther than one pulse length, D > a.
    """
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    if D <= a:
        raise ValueError("mirror distance must exceed pulse length")
    s_max = 2.0 * D + a
    return s_max, s_max / (2.0 * c)

