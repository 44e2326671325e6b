"""Uniform-grid field snapshots for export and discontinuity detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reflection, wavestate
from .wavestate import ModeSpec

__all__ = ["Snapshot", "reflection_snapshot", "free_snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """Sampled (x, E, B, rho) arrays at one moment, or one row of E, B and rho
    per moment over a shared x."""

    x: np.ndarray
    E: np.ndarray
    B: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.E)
        if not (np.shape(self.B) == np.shape(self.rho) == shape and shape[-1:] == (len(self.x),)):
            raise ValueError("snapshot arrays must have equal length")


def reflection_snapshot(mode: ModeSpec, s: float | np.ndarray, n_points: int = 1024) -> Snapshot:
    """Snapshot of the reflecting pulse on [-a, 0]; for an array of s, E, B and
    rho hold a row per s, all from one ``reflect_field`` call."""
    x = np.linspace(-mode.a, 0.0, n_points)
    column = np.asarray(s, dtype=float)[..., None]
    e, b = reflection.reflect_field(mode, column, np.broadcast_to(x, column.shape[:-1] + x.shape))
    return Snapshot(x, e, b, e * e + b * b)


def free_snapshot(mode: ModeSpec, t: float, n_points: int = 1024) -> Snapshot:
    """Snapshot of the free split state over its support [-ct, a + ct]."""
    if not np.isfinite(mode.a + 2 * mode.c * t):
        raise ValueError(f"support [-ct, a + ct] at t = {t!r} has no finite length")
    x = np.linspace(-mode.c * t, mode.a + mode.c * t, n_points)
    e, b = wavestate.split_state(mode, x, t)
    return Snapshot(x, e, b, e * e + b * b)
