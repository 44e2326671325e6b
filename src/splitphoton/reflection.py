"""Normal-incidence reflection of a single length-a pulse from an ideal mirror.

The mirror sits at x = 0 and the incident pulse arrives from the left; the
field vanishes for x > 0.  The process is parameterized by s, the distance
propagated by the trailing edge since first contact (t = s/c), running from
0 to a.  During the first stage (s <= a/2) a standing-wave region grows
next to the mirror while the trailing part keeps running; in the second
stage (s >= a/2) the running region holds the already-reflected front.

At every s the field is the incident pulse, cut at the mirror, plus its mirror
image (``reflection_pieces``); where both are, they add up to the standing wave
(SW), and the rest is one running wave (RW).  ``domain_edges`` gives the far edge
and the RW/SW border -min(s, a - s), where the co-moving inner derivative
discontinuities sit.

Field values carry the 1/sqrt(a) prefactor so that E^2 + B^2 integrates
to 1 over the instantaneous support.  The energy ledger is reported in
the bare (pre-normalization) convention, where the grand total equals a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .wavestate import ArrayLike, FieldSample, ModeSpec, Piece, derivative, evaluate, limits

__all__ = [
    "Quantity",
    "JumpKind",
    "DiscontinuityRecord",
    "EnergyLedger",
    "reflection_pieces",
    "domain_edges",
    "reflect_field",
    "discontinuities",
    "energy_ledger",
]


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


def _check_s(a: float, s: ArrayLike) -> np.ndarray:
    """s as a float array (0-d for a scalar), once every entry lies in [0, a]."""
    s = np.asarray(s, dtype=float)
    outside = ~((0.0 <= s) & (s <= a))  # NaN too
    if outside.any():
        raise ValueError(f"s must lie in [0, {a}], got {s[outside].flat[0]}")
    return s


def reflection_pieces(mode: ModeSpec, s: ArrayLike) -> tuple[Piece, Piece]:
    """The incident pulse and its mirror image at moment s, prefactor 1/sqrt(a) included.

    The incident pulse E = B = -sin k(x - s) has run s past first contact and is
    cut at the mirror, to [s - a, 0].  A perfect conductor at x = 0 adds its image
    E(x) -> -E(-x), B(x) -> B(-x): the part past the mirror, [0, s], folded back
    to [-s, 0] as the left-mover E = -B = -sin k(x + s).  Where both are, the sum
    is the SW, E = -2 sin(kx) cos(ks) and B = 2 cos(kx) sin(ks), so E vanishes at
    the mirror.  A column of s, shape (rows, 1), gives a stack of tables for
    ``evaluate``.
    """
    pref = 1.0 / math.sqrt(mode.a)
    s = _check_s(mode.a, s)[()]
    ks = mode.k * s
    return Piece(s - mode.a, 0.0, -pref, -ks, 1.0), Piece(-s, 0.0, -pref, ks, -1.0)


def domain_edges(mode: ModeSpec, s: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
    """(far edge, RW/SW border) at moment s: the RW is [far, border], the SW [border, 0].

    Both waves end at the mirror, so the SW starts at the larger of their lower
    ends and the RW at the smaller; at s = a/2 the RW is a point, at s in {0, a}
    the SW is.
    """
    incident, image = reflection_pieces(mode, s)
    return np.minimum(incident.lo, image.lo), np.maximum(incident.lo, image.lo)


def reflect_field(mode: ModeSpec, s: ArrayLike, x: ArrayLike) -> FieldSample:
    """Instantaneous (E, B) of the reflecting pulse; zero past the mirror.

    A column of s, shape (rows, 1), against x of shape (rows, m) gives row i at s[i].
    """
    return evaluate(reflection_pieces(mode, s), mode.k, x)


def discontinuities(mode: ModeSpec, s: float) -> list[DiscontinuityRecord]:
    """All instantaneous discontinuity records at moment s.

    For 0 < s < a there are the two co-located inner derivative jumps at
    -min(s, a-s), derivative kinks at the far (moving) edge, and the
    B-value jump at the mirror surface.  At s in {0, a} only the edge and
    mirror records remain.  Each jump is the right limit minus the left
    limit at a piece endpoint.
    """
    pieces = reflection_pieces(mode, s)
    far_edge, border = domain_edges(mode, s)
    k = mode.k
    slopes = derivative(pieces, k)
    records: list[DiscontinuityRecord] = []

    def slope_jumps(x: float, kind: JumpKind) -> None:
        left, right = limits(slopes, k, x)
        records.append(DiscontinuityRecord(x, Quantity.DE_DX, right.E - left.E, kind))
        records.append(DiscontinuityRecord(x, Quantity.DB_DX, right.B - left.B, kind))

    if 0.0 < s < mode.a:
        slope_jumps(border, JumpKind.INNER)
    slope_jumps(far_edge, JumpKind.EDGE)
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
