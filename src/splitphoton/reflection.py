"""Normal-incidence reflection of a single length-a pulse from an ideal mirror.

The mirror sits at x = 0 and the incident pulse arrives from the left; the
field vanishes for x > 0.  The process is parameterized by s, the distance
propagated by the trailing edge since first contact (t = s/c), running from
0 to a.  During the first stage (s <= a/2) a standing-wave region grows
next to the mirror while the trailing part keeps running; in the second
stage (s >= a/2) the running region holds the already-reflected front.

At every s the field is two ``wavestate.Piece``s (``reflection_pieces``):
the running wave on ``domains(a, s).rw``, the standing wave on ``.sw``.

Field values carry the 1/sqrt(a) prefactor so that E^2 + B^2 integrates
to 1 over the instantaneous support.  The energy ledger is reported in
the bare (pre-normalization) convention, where the grand total equals a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .wavestate import FieldSample, ModeSpec, Piece, derivative, evaluate, limits

__all__ = [
    "DomainSplit",
    "Quantity",
    "JumpKind",
    "DiscontinuityRecord",
    "EnergyLedger",
    "reflection_pieces",
    "reflect_field",
    "density",
    "domains",
    "discontinuities",
    "energy_ledger",
    "inner_discontinuity_position",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class DomainSplit:
    """Instantaneous RW/SW intervals; a zero-length interval marks a point."""

    rw: tuple[float, float]
    sw: tuple[float, float]


class Quantity(str, Enum):
    E_VALUE = "E_value"
    B_VALUE = "B_value"
    DE_DX = "dE_dx"
    DB_DX = "dB_dx"


class JumpKind(str, Enum):
    EDGE = "edge"
    INNER = "inner"
    MIRROR_SURFACE = "mirror_surface"


@dataclass(frozen=True)
class DiscontinuityRecord:
    location: float
    quantity: Quantity
    jump: float  # right-side minus left-side limit, prefactor included
    kind: JumpKind


@dataclass(frozen=True)
class EnergyLedger:
    """Domain energies in the bare convention; e_rw + e_sw = a."""

    e_rw: float
    e_E_sw: float
    e_B_sw: float
    e_sw: float

    @property
    def total(self) -> float:
        return self.e_rw + self.e_sw

    def normalized(self) -> "EnergyLedger":
        """Same ledger scaled so the grand total is 1."""
        a = self.total
        return EnergyLedger(self.e_rw / a, self.e_E_sw / a, self.e_B_sw / a, self.e_sw / a)


def _check_s(a: float, s: ArrayLike) -> np.ndarray:
    """s as a float array (0-d for a scalar), once every entry lies in [0, a]."""
    s = np.asarray(s, dtype=float)
    outside = ~((0.0 <= s) & (s <= a))  # NaN too
    if outside.any():
        raise ValueError(f"s must lie in [0, {a}], got {s[outside].flat[0]}")
    return s


def domains(a: float, s: ArrayLike) -> DomainSplit:
    """RW/SW intervals at moment s (arrays for an array of s); degenerate ones are points."""
    if a <= 0:
        raise ValueError("a must be positive")
    s = _check_s(a, s)
    first = s <= a / 2
    inner = np.where(first, -s, s - a)[()]
    return DomainSplit(rw=(np.where(first, -a + s, -s)[()], inner), sw=(inner, 0.0))


def inner_discontinuity_position(a: float, s: ArrayLike) -> ArrayLike:
    """Location of the co-moving inner derivative discontinuities, -min(s, a-s):
    the RW/SW border ``domains(a, s).sw[0]``."""
    return domains(a, s).sw[0]


def reflection_pieces(mode: ModeSpec, s: ArrayLike) -> tuple[Piece, Piece]:
    """Running-wave and standing-wave pieces at moment s, prefactor 1/sqrt(a) included.

    SW: E = -2 sin(kx) cos(ks), B = 2 cos(kx) sin(ks).  RW: E = B = -sin k(x-s)
    in the first stage; E = -sin k(x+s), B = +sin k(x+s) in the second, which
    keeps both fields continuous at the RW/SW border for every mode.  A column
    of s, shape (rows, 1), gives a stack of tables for ``evaluate``.
    """
    a, k = mode.a, mode.k
    pref = 1.0 / math.sqrt(a)
    s = np.asarray(s, dtype=float)
    dom = domains(a, s)  # also rejects s outside [0, a]
    first = s <= a / 2
    ks = k * s
    phase = np.where(first, -ks, ks)[()]
    rw = Piece(dom.rw[0], dom.sw[0], -pref, phase, np.where(first, -pref, pref)[()], phase)
    sw = Piece(dom.sw[0], 0.0, -2.0 * pref * np.cos(ks), 0.0,
               2.0 * pref * np.sin(ks), 0.5 * math.pi)
    return rw, sw


def reflect_field(mode: ModeSpec, s: ArrayLike, x: ArrayLike) -> FieldSample:
    """Instantaneous (E, B) of the reflecting pulse; zero past the mirror.

    A column of s, shape (rows, 1), against x of shape (rows, m) gives row i at s[i].
    """
    return evaluate(reflection_pieces(mode, s), mode.k, x)


def density(mode: ModeSpec, s: float, x: ArrayLike) -> ArrayLike:
    """Probability density E^2 + B^2 of the reflecting pulse."""
    e, b = reflect_field(mode, s, x)
    return e * e + b * b


def discontinuities(mode: ModeSpec, s: float) -> list[DiscontinuityRecord]:
    """All instantaneous discontinuity records at moment s.

    For 0 < s < a there are the two co-located inner derivative jumps at
    -min(s, a-s), derivative kinks at the far (moving) edge, and the
    B-value jump at the mirror surface.  At s in {0, a} only the edge and
    mirror records remain.  Each jump is the right limit minus the left
    limit at a piece endpoint.
    """
    pieces = reflection_pieces(mode, s)
    k = mode.k
    slopes = derivative(pieces, k)
    rw, sw = pieces
    records: list[DiscontinuityRecord] = []

    def slope_jumps(x: float, kind: JumpKind) -> None:
        left, right = limits(slopes, k, x)
        records.append(DiscontinuityRecord(x, Quantity.DE_DX, right.E - left.E, kind))
        records.append(DiscontinuityRecord(x, Quantity.DB_DX, right.B - left.B, kind))

    if 0.0 < s < mode.a:
        slope_jumps(sw.lo, JumpKind.INNER)
    slope_jumps(rw.lo, JumpKind.EDGE)
    # Surface current on the mirror: B jumps from its x -> 0- value to zero.
    left, right = limits(pieces, k, 0.0)
    records.append(DiscontinuityRecord(0.0, Quantity.B_VALUE, right.B - left.B,
                                       JumpKind.MIRROR_SURFACE))
    return records


def energy_ledger(mode: ModeSpec, s: ArrayLike) -> EnergyLedger:
    """Closed-form domain energies at moment s (bare convention, total = a), per s."""
    a, k = mode.a, mode.k
    s = _check_s(a, s)
    sin4 = np.sin(4.0 * k * s) / (2.0 * k)
    sin2 = np.sin(2.0 * k * s) / (2.0 * k)
    cos_ks, sin_ks = np.cos(k * s), np.sin(k * s)
    cos2ks, sin2ks = cos_ks * cos_ks, sin_ks * sin_ks
    first = s <= a / 2
    e_rw = np.where(first, a - 2.0 * s + sin4, 2.0 * s - a - sin4)
    e_e = np.where(first, 2.0 * (s - sin2) * cos2ks, (2.0 * (a - s) + 2.0 * sin2) * cos2ks)
    e_b = np.where(first, 2.0 * (s + sin2) * sin2ks, (2.0 * (a - s) - 2.0 * sin2) * sin2ks)
    e_sw = np.where(first, 2.0 * s - sin4, 2.0 * (a - s) + sin4)
    return EnergyLedger(e_rw=e_rw[()], e_E_sw=e_e[()], e_B_sw=e_b[()], e_sw=e_sw[()])
