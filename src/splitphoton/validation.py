"""Independent numerical oracles: quadrature, jump location, identity checks.

These routines deliberately avoid the closed-form energy expressions in
``reflection`` so that agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import reflection
from .reflection import Quantity
from .snapshot import Snapshot
from .wavestate import ModeSpec

__all__ = [
    "QuadResult",
    "QuadratureError",
    "LocatedJump",
    "integrate",
    "locate_jumps",
    "identity_suite",
]

DEFAULT_TOL = 1e-10
MAX_DEPTH = 24
JUMP_THRESHOLD = 30.0
MIN_GRID = 64


@dataclass(frozen=True)
class QuadResult:
    value: float
    est_error: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised on non-convergence; carries the best estimate found."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class LocatedJump:
    location: float
    quantity: Quantity
    score: float


def _simpson(y: np.ndarray, h: float) -> float:
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _refine_segment(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float, max_depth: int
) -> tuple[float, float, int, bool]:
    n = 8
    x = np.linspace(lo, hi, n + 1)
    y = np.asarray(f(x), dtype=float)
    evals = n + 1
    s_prev = _simpson(y, (hi - lo) / n)
    value, err = s_prev, np.inf
    for _ in range(max_depth):
        n *= 2
        x = np.linspace(lo, hi, n + 1)
        y = np.asarray(f(x), dtype=float)
        evals += n + 1
        s = _simpson(y, (hi - lo) / n)
        # Richardson: Simpson halving gains a factor 16, so the update
        # (s - s_prev)/15 both estimates the error and extrapolates.
        err = abs(s - s_prev) / 15.0
        value = s + (s - s_prev) / 15.0
        if err < tol:
            return value, err, evals, True
        s_prev = s
    return value, err, evals, False


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    breakpoints: Iterable[float] = (),
    max_depth: int = MAX_DEPTH,
) -> QuadResult:
    """Composite Simpson with panel doubling and Richardson control.

    ``f`` must accept an ndarray of abscissae.  Known kinks of the
    integrand should be passed as ``breakpoints`` so each panel stays
    smooth; Simpson's order is only realized on smooth integrands.
    """
    if lo > hi:
        raise ValueError("integration limits must be ordered")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0)
    cuts = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
    total = 0.0
    err_sum = 0.0
    evals = 0
    ok_all = True
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        value, err, n, ok = _refine_segment(f, seg_lo, seg_hi, tol, max_depth)
        total += value
        err_sum += err
        evals += n
        ok_all = ok_all and ok
    result = QuadResult(float(total), float(err_sum), evals)
    if not ok_all:
        raise QuadratureError(
            f"Simpson refinement did not reach tol={tol} within depth {max_depth}", result
        )
    return result


def _jumps_in(x: np.ndarray, y: np.ndarray, quantity: Quantity, factor: float) -> list[LocatedJump]:
    d2 = np.abs(y[:-2] - 2.0 * y[1:-1] + y[2:])  # centered at x[1:-1]
    core = d2[1:-1]  # boundary cells excluded from the noise estimate
    floor = 1e-12 * max(float(np.max(np.abs(y))), 1.0)
    threshold = factor * max(float(np.median(core)), floor)
    flagged = np.flatnonzero(d2 > threshold)
    runs = np.split(flagged, np.flatnonzero(np.diff(flagged) > 1) + 1)  # maximal runs of cells
    best = [run[np.argmax(d2[run])] for run in runs if len(run)]
    return [LocatedJump(float(x[i + 1]), quantity, float(d2[i])) for i in best]


def locate_jumps(snapshot: Snapshot, threshold_factor: float = JUMP_THRESHOLD) -> list[LocatedJump]:
    """Flag grid cells whose centered second difference spikes above the noise.

    A derivative kink makes the second difference O(h) against an O(h^2)
    smooth background, so a scale-free median threshold separates them
    cleanly.  Locations are accurate to one grid cell.
    """
    if len(snapshot.x) < MIN_GRID:
        raise ValueError(f"grid too coarse: need at least {MIN_GRID} points")
    dx = np.diff(snapshot.x)
    if not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshot grid must be uniform")
    jumps = _jumps_in(snapshot.x, snapshot.E, Quantity.DE_DX, threshold_factor)
    jumps += _jumps_in(snapshot.x, snapshot.B, Quantity.DB_DX, threshold_factor)
    return jumps


def identity_suite(mode: ModeSpec, s_samples: Sequence[float]) -> dict[str, float]:
    """Max residuals of the energy identities over the given s values.

    Checks (i) e_E_sw + e_B_sw = e_sw, (ii) each closed-form ledger entry
    against quadrature of the squared fields, (iii) total conservation.
    Every residual is relative to the ledger's total, a: the ledger
    energies grow with a, and so does their round-off.
    """
    a = mode.a
    res_sum = 0.0
    res_quad = 0.0
    res_cons = 0.0
    for s in s_samples:
        led = reflection.energy_ledger(mode, s)
        res_sum = max(res_sum, abs(led.e_E_sw + led.e_B_sw - led.e_sw))
        res_cons = max(res_cons, abs(led.total / a - 1.0))

        dom = reflection.domains(a, s)

        def e_sq(x: np.ndarray, _s=s) -> np.ndarray:
            e, _ = reflection.reflect_field(mode, _s, x)
            return np.asarray(e) ** 2

        def b_sq(x: np.ndarray, _s=s) -> np.ndarray:
            _, b = reflection.reflect_field(mode, _s, x)
            return np.asarray(b) ** 2

        def rho(x: np.ndarray, _s=s) -> np.ndarray:
            e, b = reflection.reflect_field(mode, _s, x)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        # Bare-convention values are a times the integrals of the
        # prefactored squared fields.
        q_rw = a * integrate(rho, dom.rw[0], dom.rw[1], tol=1e-11).value
        q_e = a * integrate(e_sq, dom.sw[0], dom.sw[1], tol=1e-11).value
        q_b = a * integrate(b_sq, dom.sw[0], dom.sw[1], tol=1e-11).value
        res_quad = max(
            res_quad,
            abs(q_rw - led.e_rw),
            abs(q_e - led.e_E_sw),
            abs(q_b - led.e_B_sw),
        )
    return {
        "sw_partition": res_sum / a,
        "ledger_vs_quadrature": res_quad / a,
        "conservation": res_cons,
    }
