"""Independent numerical oracles: quadrature, jump location, identity checks.

These routines deliberately avoid the closed-form energy expressions in
``reflection`` so that agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import reflection, wavestate
from .snapshot import Snapshot
from .wavestate import ArrayLike, ModeSpec, Piece

__all__ = [
    "QuadResult",
    "QuadratureError",
    "Quantity",
    "LocatedJump",
    "integrate",
    "norms",
    "locate_jumps",
    "identity_suite",
]

DEFAULT_TOL = 1e-10
MAX_DEPTH = 20
JUMP_THRESHOLD = 30.0
MIN_GRID = 64
# points per row block: ``integrate`` levels (a row's new nodes in column chunks
# past it) and ``track`` snapshots (one row may hold more) work a block at a
# time, so memory does not grow with rows, nor in ``integrate`` with depth
ROW_POINTS = 2**14


@dataclass(frozen=True)
class QuadResult:
    value: ArrayLike  # arrays, one entry per integral, for array limits
    est_error: ArrayLike
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised on non-convergence; carries the best estimate found."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


class Quantity(str, Enum):
    DE_DX = "dE_dx"
    DB_DX = "dB_dx"


@dataclass(frozen=True)
class LocatedJump:
    location: float
    quantity: Quantity
    score: float


def row_blocks(rows: int, row_points: int) -> Iterator[slice]:
    """Slices over ``rows`` rows of ``row_points`` points: ``ROW_POINTS`` or one row each."""
    step = max(1, ROW_POINTS // max(row_points, 1))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _refine(
    f: Callable[..., np.ndarray], lo: np.ndarray, hi: np.ndarray, args: list[np.ndarray],
    tol: float, max_depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Panel doubling from 8 panels on all rows [lo[i], hi[i]] in lock-step.

    Each row keeps three running sums of f: over its two end nodes, its odd
    interior nodes and its even interior nodes.  Doubling the panels turns the
    odd nodes even, so a level with n panels calls f only on the n/2 new
    midpoints ``np.arange(1, n, 2) * h + lo``: bit for bit the odd-index nodes
    of the level's ``np.linspace`` row, since halving h is exact.  A row that
    stops at level L costs 8 * 2**L + 1 evaluations.  f is called as
    ``f(x, *(arg[rows, None] for arg in args))`` on at most ``ROW_POINTS``
    nodes at a time (``row_blocks`` of rows, or column chunks of one row), and
    the partial sums are added up, so no call grows with depth.  A row stops
    at the first level that meets ``tol``, or unconverged at one whose
    estimate is not finite.  Returns each row's value, error estimate,
    evaluation count and flag.
    """
    def call(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.asarray(f(x, *(arg[rows, None] for arg in args)), dtype=float)

    def midpoint_sums(rows: np.ndarray, n: int) -> np.ndarray:
        """Each row's sum of f over its nodes lo + i (hi - lo)/n, i = 1, 3, ..., n - 1."""
        h = (hi[rows] - lo[rows]) / n
        total = np.zeros(len(rows))
        for block in row_blocks(len(rows), n // 2):
            r = rows[block]
            for first in range(1, n, 2 * ROW_POINTS):
                x = np.arange(first, min(first + 2 * ROW_POINTS, n), 2.0) * h[block, None]
                total[block] += call(x + lo[r, None], r).sum(axis=1)
        return total

    n, every = 8, np.arange(len(lo))
    ends, odd, even = np.empty((3, len(lo)))
    for block in row_blocks(len(lo), n + 1):
        x = np.arange(n + 1.0) * ((hi[block] - lo[block]) / n)[:, None] + lo[block, None]
        x[:, -1] = hi[block]  # np.linspace, row-wise
        y = call(x, every[block])
        ends[block] = y[:, 0] + y[:, -1]
        odd[block] = y[:, 1:-1:2].sum(axis=1)
        even[block] = y[:, 2:-1:2].sum(axis=1)

    def simpson(rows: np.ndarray, n: int) -> np.ndarray:
        """Composite Simpson rule with n panels on each of the rows, from their sums."""
        h = (hi[rows] - lo[rows]) / n
        return h / 3.0 * (ends[rows] + 4.0 * odd[rows] + 2.0 * even[rows])

    s_prev = simpson(every, n)
    evals = np.full(len(lo), n + 1)
    value, err = s_prev.copy(), np.full(len(lo), np.inf)
    converged = np.zeros(len(lo), dtype=bool)
    active = np.flatnonzero(np.isfinite(s_prev))
    for _ in range(max_depth):
        if not active.size:
            break
        n *= 2
        even[active] += odd[active]
        odd[active] = midpoint_sums(active, n)
        evals[active] += n // 2
        s = simpson(active, n)
        # Richardson: Simpson halving gains a factor 16, so the update
        # (s - s_prev)/15 both estimates the error and extrapolates.
        err[active] = np.abs(s - s_prev[active]) / 15.0
        value[active] = s + (s - s_prev[active]) / 15.0
        done = err[active] < tol
        converged[active[done]] = True
        s_prev[active] = s
        active = active[~done & np.isfinite(s)]
    return value, err, evals, converged


def integrate(
    f: Callable[..., np.ndarray],
    lo: ArrayLike,
    hi: ArrayLike,
    tol: float = DEFAULT_TOL,
    breakpoints: Iterable = (),
    max_depth: int = MAX_DEPTH,
    args: Sequence[ArrayLike] = (),
) -> QuadResult:
    """Composite Simpson with panel doubling and Richardson control.

    ``f`` must act element-wise on an array of any shape: it receives the
    nodes of several segments at once, one segment a row, shape (rows, m).
    Known kinks of the integrand should be passed as ``breakpoints`` so each
    panel stays smooth; Simpson's order is only realized on smooth integrands.
    Limits and breakpoints must be finite.

    Array limits ``lo``, ``hi`` are as many integrals, refined together; each
    array in ``args`` (of their shape) reaches ``f`` as a column (rows, 1) of
    its rows' values, ``f(x, *columns)``.  ``breakpoints`` broadcast alike,
    their last axis the cuts: (m,) for all, ``lo.shape + (m,)`` one list per
    integral, each cut at its distinct breakpoints strictly inside it.  The
    result holds each integral's value and error estimate in that shape, and
    the evaluations of them all.

    Each segment starts at 8 panels (9 nodes) and doubles them per level.  A
    level reuses the previous level's nodes and evaluates only its new
    midpoints, so a segment that stops at level L costs 8 * 2**L + 1
    evaluations, each node once; f sees at most ``ROW_POINTS`` nodes a call.
    ``QuadratureError``, carrying that result, is raised if any segment misses
    ``tol`` within ``max_depth`` levels, or stops at a level whose estimate is
    not finite.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    cuts = np.array([*breakpoints], dtype=float)  # sets and generators too
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.isfinite(cuts).all()):
        raise ValueError("integration limits and breakpoints must be finite")
    if (lo > hi).any():
        raise ValueError("integration limits must be ordered")
    cuts = np.broadcast_to(cuts, lo.shape + cuts.shape[-1:]).reshape(lo.size, cuts.shape[-1])
    # one row per segment: integral i is cut at its distinct breakpoints strictly inside it
    owner, seg_lo, seg_hi = [], [], []
    for i, (a, b, row) in enumerate(zip(lo.ravel().tolist(), hi.ravel().tolist(), cuts.tolist())):
        if a < b:
            edges = [a, *sorted({p for p in row if a < p < b}), b]
            owner += [i] * (len(edges) - 1)
            seg_lo += edges[:-1]
            seg_hi += edges[1:]
    owner = np.array(owner, dtype=np.intp)
    columns = [np.broadcast_to(np.asarray(arg, dtype=float), lo.shape).ravel()[owner]
               for arg in args]
    value, err, evals, converged = _refine(f, np.array(seg_lo, dtype=float),
                                           np.array(seg_hi, dtype=float), columns, tol, max_depth)
    # bincount adds each integral's segments in order, from 0.0, as a running sum would
    total = np.bincount(owner, value, minlength=lo.size).reshape(lo.shape)[()]
    err_sum = np.bincount(owner, err, minlength=lo.size).reshape(lo.shape)[()]
    result = QuadResult(total, err_sum, int(evals.sum()))
    if not converged.all():
        raise QuadratureError(
            f"Simpson refinement did not reach tol={tol} within depth {max_depth}"
            + ("" if np.isfinite(value).all() else " (a level's estimate was not finite)"),
            result,
        )
    return result


def norms(mode: ModeSpec, tables: Sequence[tuple[Piece, ...]]) -> QuadResult:
    """Each piece table's integral of E^2 + B^2 over its support, to ``tol=1e-11``.

    One ``integrate`` call, a table an integral: its support the limits, its
    piece edges the breakpoints, its ``Piece`` fields the ``args`` columns that
    ``wavestate.evaluate`` reads (as many pieces in each table).  Results are
    bit for bit one call per table's; a ``QuadratureError`` carries one entry
    per table.
    """
    width = len(Piece._fields)

    def rho(x: np.ndarray, *fields: np.ndarray) -> np.ndarray:
        pieces = tuple(Piece(*fields[j:j + width]) for j in range(0, len(fields), width))
        e, b = wavestate.evaluate(pieces, mode.k, x)
        return e ** 2 + b ** 2

    edges = [[e for p in t for e in (p.lo, p.hi)] for t in tables]
    columns = np.array([[field for p in t for field in p] for t in tables], dtype=float).T
    return integrate(rho, [min(e) for e in edges], [max(e) for e in edges], tol=1e-11,
                     breakpoints=edges, args=columns)


def _jumps_in(x: np.ndarray, y: np.ndarray, quantity: Quantity) -> list[list[LocatedJump]]:
    """The jumps of each row of y (rows, m) on the grid x, one list per row."""
    d2 = np.abs(y[:, :-2] - 2.0 * y[:, 1:-1] + y[:, 2:])  # centered at x[1:-1]
    core = d2[:, 1:-1]  # boundary cells excluded from the noise estimate
    floor = 1e-12 * np.maximum(np.max(np.abs(y), axis=1), 1.0)
    threshold = JUMP_THRESHOLD * np.maximum(np.median(core, axis=1), floor)
    row, cell = np.nonzero(d2 > threshold[:, None])  # row-major: runs stay contiguous
    score = d2[row, cell]
    start = np.ones(len(cell), dtype=bool)  # first cell of each maximal run
    start[1:] = (row[1:] != row[:-1]) | (cell[1:] != cell[:-1] + 1)
    run = np.cumsum(start)
    # each run's first highest cell: lexsort is stable, so ties keep cell order
    order = np.lexsort((-score, run))
    best = order[np.diff(run[order], prepend=0) > 0]
    jumps: list[list[LocatedJump]] = [[] for _ in range(len(y))]
    for r, i in zip(row[best].tolist(), cell[best].tolist()):
        jumps[r].append(LocatedJump(float(x[i + 1]), quantity, float(d2[r, i])))
    return jumps


def locate_jumps(snapshot: Snapshot) -> list[list[LocatedJump]]:
    """Flag grid cells whose centered second difference spikes above the noise.

    A derivative kink makes the second difference O(h) against an O(h^2)
    smooth background, so a scale-free median threshold separates them
    cleanly.  Locations are accurate to one grid cell.  E and B are rows on
    the grid x, shape (rows, m), or one row, shape (m,); the result holds one
    list of jumps per row, each row judged against its own background.
    """
    if len(snapshot.x) < MIN_GRID:
        raise ValueError(f"grid too coarse: need at least {MIN_GRID} points")
    dx = np.diff(snapshot.x)
    if not np.allclose(dx, dx[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshot grid must be uniform")
    e_rows = _jumps_in(snapshot.x, np.atleast_2d(snapshot.E), Quantity.DE_DX)
    b_rows = _jumps_in(snapshot.x, np.atleast_2d(snapshot.B), Quantity.DB_DX)
    return [e + b for e, b in zip(e_rows, b_rows)]


def identity_suite(mode: ModeSpec, s_samples: Sequence[float]) -> dict[str, float]:
    """Max residuals of the energy identities over the given s values.

    Checks (i) e_E_sw + e_B_sw = e_sw, (ii) each closed-form ledger entry
    against quadrature of the squared fields, (iii) total conservation.
    Every residual is relative to the ledger's total, a: the ledger
    energies grow with a, and so does their round-off.  The ledger takes all
    s at once, and each quadrature family is one ``integrate`` call with a
    row per s.
    """
    a = mode.a
    s = np.asarray(s_samples, dtype=float)
    led = reflection.energy_ledger(mode, s)
    far_edge, border = reflection.domain_edges(mode, s)

    def e_sq(x: np.ndarray, s_col: np.ndarray) -> np.ndarray:
        return reflection.reflect_field(mode, s_col, x).E ** 2

    def b_sq(x: np.ndarray, s_col: np.ndarray) -> np.ndarray:
        return reflection.reflect_field(mode, s_col, x).B ** 2

    def rho(x: np.ndarray, s_col: np.ndarray) -> np.ndarray:
        e, b = reflection.reflect_field(mode, s_col, x)
        return e ** 2 + b ** 2

    # Bare-convention values are a times the integrals of the
    # prefactored squared fields.
    q_rw = a * integrate(rho, far_edge, border, tol=1e-11, args=(s,)).value
    q_e = a * integrate(e_sq, border, 0.0, tol=1e-11, args=(s,)).value
    q_b = a * integrate(b_sq, border, 0.0, tol=1e-11, args=(s,)).value

    def worst(*residuals: np.ndarray) -> float:
        return float(max(np.max(np.abs(r), initial=0.0) for r in residuals))

    return {
        "sw_partition": worst(led.e_E_sw + led.e_B_sw - led.e_sw) / a,
        "ledger_vs_quadrature": worst(q_rw - led.e_rw, q_e - led.e_E_sw, q_b - led.e_B_sw) / a,
        "conservation": worst(led.total / a - 1.0),
    }
