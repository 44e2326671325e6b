"""Command-line front end: snapshots, energy sweeps, jump tracks, experiments.

Subcommands: snapshot | energy | track | dce | check.  All numeric CSV
output uses shortest round-trip decimals (Python ``repr``) by default;
``--digits17`` switches to fixed 17-significant-digit rendering.  Every
command writes its CSV through ``_write_csv``, a batch of rows at a time.
Each column gets a slot width once per table, from the column itself: the
widest int's text, sign included, 24 bytes for floats (0 for a column of NaNs
only), the longest quoted label.  Each column of a batch becomes slots of
that width holding right-aligned cell text with zeros left of it; dropping
every zero byte of the slots and the separator columns yields the batch's
rows.  Float slots come from one of ``shortest``'s two vectorised writers,
``repr_slots`` (``repr``'s digits) or, under ``--digits17``, ``g17_slots``
(``%.17g``'s), or from one ``%`` over a small batch; int slots from
``shortest.int_slots``; label slots from a gather of pre-quoted labels, one
whole record a cell.  ``dce`` passes a float column that the instrument code
determines bit for bit (a gun's click time is its shot time) as labels: each
code's value is formatted once, by ``repr`` or ``%.17g``, and gathered, the
same bytes the float writers give.  A float column right of a laid-out float
column copies that column's slot wherever the two cells' bit patterns agree
with the sign bit masked, and fixes the sign (NaN stays empty), in a batch
where at least half the cells match: a snapshot's B is ±E wherever one running
wave covers the cell.  The writer observes this from the data; no option
selects it.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation or a
quadrature that does not converge, 141 when stdout is closed early (as by
``| head``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import experiments, reflection, shortest, validation, wavestate
from .scenario import ScenarioError, load_scenario
from .snapshot import free_snapshot, reflection_snapshot
from .wavestate import ModeSpec

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_USAGE", "EXIT_INVARIANT", "EXIT_BROKEN_PIPE"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, as a shell reports it
# CSV rows per batch: each column of a batch becomes zero-padded text slots in one
# buffer, its row the sum of the column widths plus separators (100 bytes for a
# 4-column snapshot, 50 for a 20000-trial two-detector ``dce``), compacted through a
# nonzero mask made per batch, and the vectorised float writer holds ~350 bytes a
# value while it runs.  A float writer call costs ~0.13-0.17 ms on 16 snapshot cells,
# ~0.35-0.5 ms on 2048 and ~0.55-0.6 ms on 4096 (2-core x86), so much of its cost is
# fixed: 4096 rows take a 1e5-point snapshot from 196 calls to 100 and its wall time
# down by ~20%, for ~0.3 MB more peak RSS in the field-grid benchmark; 8192 rows
# were no faster there and added ~1.7 MB
_CSV_CHUNK = 4096
# below this many cells a float column is formatted by ``shortest.percent_slots``,
# one ``%`` over ``%24r`` or ``%24.17g`` fields: a vectorised writer's fixed cost
# of ~0.12-0.17 ms outweighs ``%``'s ~0.7 us (``%r``) or ~0.5 us (``%.17g``) a
# cell, as in the 50-row ``track`` tables.  On a 2-core x86 host the crossover is near 260-320
# cells for ``repr_slots`` and 320-440 for ``g17_slots``; one threshold serves
# both, costing either at most ~0.04 ms on a batch beside it
_REPR_KERNEL_MIN = 320
_MAGNITUDE = np.uint64(2**63 - 1)  # all bits of a double but the sign


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _quote(label: str) -> str:
    """A label as one CSV cell, quoted as ``csv.QUOTE_MINIMAL`` quotes it.

    A label holding a comma or a double quote is wrapped in double quotes,
    with each inner double quote doubled.  Labels hold no line breaks:
    instrument ids are validated without them.
    """
    if "," in label or '"' in label:
        return '"' + label.replace('"', '""') + '"'
    return label


def _width(column) -> int:
    """A column's slot width: a label table's width; an int column's widest
    text, sign included (``shortest.int_width``); 0 for a float column of NaNs
    only, ``shortest.WIDTH`` for any other."""
    if isinstance(column, tuple):
        return column[0].shape[1]
    if column.dtype.kind == "f":
        return 0 if np.isnan(column).all() else shortest.WIDTH
    return shortest.int_width(column)


def _slots(column, lo: int, width: int, digits17: bool) -> np.ndarray:
    """Cells ``lo`` to ``lo + _CSV_CHUNK`` of one column as (n, width) right-aligned
    text slots, zeros left of each cell's text.

    Labels are gathered from their table, ints come from ``shortest.int_slots``,
    floats from ``shortest.g17_slots`` under ``digits17`` and ``repr_slots``
    otherwise, or below ``_REPR_KERNEL_MIN`` cells from one ``%`` over the
    batch, ``shortest.percent_slots``.  A NaN is an empty cell.
    """
    if isinstance(column, tuple):
        table, codes = column
        records = table.view(f"V{width}")[:, 0]  # one record a label
        return records[codes[lo:lo + _CSV_CHUNK]].view(np.uint8).reshape(-1, width)
    values = column[lo:lo + _CSV_CHUNK]
    if values.dtype.kind != "f":
        return shortest.int_slots(values, width)
    return _float_slots(values, digits17)


def _float_slots(values: np.ndarray, digits17: bool) -> np.ndarray:
    """Floats as (n, ``shortest.WIDTH``) slots: ``g17_slots`` under ``digits17``,
    else ``repr_slots``, or below ``_REPR_KERNEL_MIN`` cells ``percent_slots``."""
    if len(values) >= _REPR_KERNEL_MIN:
        return shortest.g17_slots(values) if digits17 else shortest.repr_slots(values)
    return shortest.percent_slots(values, ".17g" if digits17 else "r")


def _reuse_left(slots: np.ndarray, values: np.ndarray, left: np.ndarray,
                left_values: np.ndarray, digits17: bool) -> None:
    """Fill ``slots`` with the text of ``values``, copying ``left``, the slots of
    the float column to the left, wherever the two cells share a magnitude.

    Magnitudes match where the bit patterns agree with the sign bit masked.
    Those cells copy the left cell's text and, where the sign bits differ and
    the value is not NaN (a NaN stays empty), either drop its leading ``-`` or
    gain one left of it: ``repr`` and ``%.17g`` of -v are ``-`` and the text of
    v, and an unsigned text of at most 23 bytes leaves a slot's column 0 free.
    The other cells go through ``_float_slots``.  Where fewer than half the
    cells match, all of them do: copying every slot and scattering the rest
    then costs more than the digits it saves (on a 2-core x86 the two break
    even at ~50% matching cells in batches of 50 and 1000 rows, ~20% in one
    of 4096).
    """
    bits, left_bits = values.view(np.uint64), left_values.view(np.uint64)
    same = (bits & _MAGNITUDE) == (left_bits & _MAGNITUDE)
    if 2 * np.count_nonzero(same) < len(values):
        slots[...] = _float_slots(values, digits17)
        return
    slots[...] = left
    rest = np.flatnonzero(~same)
    if len(rest):
        slots[rest] = _float_slots(values[rest], digits17)
    flip = np.flatnonzero(same & (np.signbit(values) != np.signbit(left_values))
                          & ~np.isnan(values))
    if len(flip):
        first = (slots[flip] != 0).argmax(axis=1)  # the first byte of each text
        negative = np.signbit(values[flip])
        slots[flip, first - negative] = np.where(negative, ord("-"), 0)


def _label_table(labels, codes):
    """A label column as (right-aligned quoted labels with zeros left of them, one
    row each, codes)."""
    cells = [_quote(label).encode("utf-8") for label in labels]
    width = max(map(len, cells), default=0)
    table = np.frombuffer(b"".join(cell.rjust(width, b"\0") for cell in cells), np.uint8)
    return table.reshape(len(cells), width), np.asarray(codes)


def _write_csv(path: Optional[str], header: list[str], columns: list, digits17: bool) -> None:
    """Write equal-length columns under ``header``, one batch of rows at a time.

    A column is a float or int array, or a ``(labels, codes)`` pair whose
    cell i is ``labels[codes[i]]`` (a code of -1 picks the last label).
    Floats are shortest round-trip decimals (Python ``repr``), or 17
    significant digits (``%.17g``) under ``digits17``; NaN is an empty cell.
    For tables of two or more columns the bytes are those ``csv.writer``
    writes with ``lineterminator="\\n"``.

    Each column gets a slot width once per table (``_width``), so a row holds
    only as many bytes as its columns can need.  Each column of a batch
    becomes zero-padded right-aligned text slots (``_slots``) in its block of
    one buffer, followed by a ``,`` or newline column; a column of width 0
    leaves its block empty.  No text holds a zero byte, so dropping the zeros
    leaves the rows.  A float column whose left neighbour is a float column
    of nonzero width is filled by ``_reuse_left``: a cell whose bit pattern
    with the sign bit masked equals the left cell's copies the left slot, with
    a ``-`` dropped or put in where the signs differ (never on NaN, which
    stays empty), and only the other cells are formatted, when at least half
    the batch's cells match.  No option selects this; a table whose cells
    rarely match pays one comparison a column pair and batch.
    """
    columns = [_label_table(*col) if isinstance(col, tuple) else col for col in columns]
    rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    widths = [_width(col) for col in columns]
    ends = np.cumsum([width + 1 for width in widths])
    text = np.empty((min(rows, _CSV_CHUNK), ends[-1]), dtype=np.uint8)
    text[:, ends - 1] = ord(",")
    text[:, -1] = ord("\n")
    stream, close = _open_out(path)
    try:
        stream.write(",".join(header) + "\n")
        for lo in range(0, rows, _CSV_CHUNK):
            n = min(rows - lo, _CSV_CHUNK)
            left = None  # the previous column's slots and values when it is a laid-out float one
            for col, end, width in zip(columns, ends.tolist(), widths):
                slots = text[:n, end - 1 - width:end - 1]
                floats = bool(width) and not isinstance(col, tuple) and col.dtype == np.float64
                if floats and left is not None:
                    _reuse_left(slots, col[lo:lo + n], *left, digits17)
                elif width:
                    slots[...] = _slots(col, lo, width, digits17)
                left = (slots, col[lo:lo + n]) if floats else None
            stream.write(str(text[:n][text[:n] != 0], "utf-8"))
    finally:
        if close:
            stream.close()


def _mode_from_args(args) -> ModeSpec:
    return ModeSpec(a=args.a, n=args.n, c=args.c)


def cmd_snapshot(args) -> int:
    mode = _mode_from_args(args)
    if (args.s is None) == (args.t is None):
        print("snapshot: exactly one of --s or --t is required", file=sys.stderr)
        return EXIT_USAGE
    if args.s is not None:
        snap = reflection_snapshot(mode, args.s, n_points=args.grid)
    else:
        snap = free_snapshot(mode, args.t, n_points=args.grid)
    columns = [np.asarray(v, dtype=float) for v in (snap.x, snap.E, snap.B, snap.rho)]
    _write_csv(args.out, ["x", "E", "B", "rho"], columns, args.digits17)
    return EXIT_OK


def cmd_energy(args) -> int:
    mode = _mode_from_args(args)
    s_values = np.linspace(0.0, mode.a, args.steps)
    led = reflection.energy_ledger(mode, s_values)
    _write_csv(args.out, ["s", "e_rw", "e_E_sw", "e_B_sw", "e_sw", "total"],
               [s_values, led.e_rw, led.e_E_sw, led.e_B_sw, led.e_sw, led.total / mode.a],
               args.digits17)
    return EXIT_OK


def _located_inner_jumps(mode: ModeSpec, s_values: np.ndarray, grid: int) -> np.ndarray:
    """The located inner jump at each s, NaN where none was found; the rows of
    each ``validation.row_blocks`` slice share one snapshot and one locator call."""
    cell = mode.a / (grid - 1)
    far_edge, border = reflection.domain_edges(mode, s_values)
    # near s = a/2 the inner jump sits on the far edge: keep that edge's candidates
    keep_far = np.abs(border - far_edge) <= 1.5 * cell
    located = np.full(len(s_values), np.nan)
    for block in validation.row_blocks(len(s_values), grid):
        snap = reflection_snapshot(mode, s_values[block], n_points=grid)
        for i, jumps in enumerate(validation.locate_jumps(snap), start=block.start):
            candidates = [j for j in jumps
                          if (keep_far[i] or abs(j.location - far_edge[i]) > 1.5 * cell)
                          and abs(j.location) > 1.5 * cell]
            if candidates:
                located[i] = max(candidates, key=lambda j: j.score).location
    return located


def cmd_track(args) -> int:
    mode = _mode_from_args(args)
    if args.grid < validation.MIN_GRID:
        raise ValueError(f"grid too coarse: need at least {validation.MIN_GRID} points")
    s_values = np.linspace(0.0, mode.a, args.steps + 2)[1:-1]
    x_analytic = reflection.domain_edges(mode, s_values)[1]  # the RW/SW border
    x_located = _located_inner_jumps(mode, s_values, args.grid)
    residual = np.abs(x_located - x_analytic)
    _write_csv(args.out, ["s", "x_D_analytic", "x_D_located", "residual"],
               [s_values, x_analytic, x_located, residual], args.digits17)
    cell = mode.a / (args.grid - 1)
    return EXIT_OK if np.all(residual <= cell) else EXIT_INVARIANT


def cmd_dce(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.model is not None:
        scenario.model = experiments.OutcomeModel(args.model)
    if args.seed is not None:
        scenario.seed = args.seed
    if args.trials is not None:
        scenario.trials = args.trials
    scenario.validate()

    trials = experiments.run_trials(scenario)
    report = experiments.aggregate(scenario, trials)

    # instrument -1 (no click) picks the trailing ""
    names = [ins.id for ins in scenario.instruments] + [""]
    # a gun trial clicks at its gun's shot time: where the instrument code fixes
    # click_time, bit for bit (-0.0 and 0.0 never share a cell), each code's time is
    # formatted once and gathered like a label, the bytes the float writer would write;
    # a detector's click times vary, so detector runs go straight to the float writer
    click_time = trials.click_time
    if any(ins.kind is experiments.InstrumentKind.ELECTRON_GUN for ins in scenario.instruments):
        table = np.full(len(names), np.nan)
        table[trials.instrument] = click_time
        if np.array_equal(table[trials.instrument].view(np.int64), click_time.view(np.int64)):
            form = "%.17g".__mod__ if args.digits17 else repr
            click_time = (["" if math.isnan(t) else form(t) for t in table.tolist()],
                          trials.instrument)
    columns = [np.arange(len(trials)), (names, trials.instrument), click_time,
               trials.scatter_x, ([b.value for b in trials.BRANCHES], trials.branch)]
    _write_csv(args.out, ["trial", "instrument", "click_time", "scatter_x", "branch"], columns,
               args.digits17)

    print(report.summary())
    if scenario.model is experiments.OutcomeModel.PREFERRED_WAY:
        print("note: outcomes sampled under the comparator 'preferred way' model")
        return EXIT_OK

    # exact-rate audit: every count must agree with its instrument's exact rate
    for name, stats in report.per_instrument.items():
        if abs(stats.z) > experiments.Z_BOUND:
            print(f"invariant violation: {name} clicked {stats.count} of {report.trials} "
                  f"times, exact rate {stats.expected!r} (z {stats.z:+.2f})", file=sys.stderr)
    return EXIT_INVARIANT if report.rate_violations else EXIT_OK


def _wall_tolerances(mode: ModeSpec) -> tuple[float, float]:
    """Bounds on ``wavestate.boundary_check``'s E and dB/dx residuals.

    Each residual is the round-off of sin(kx + phase) at a zero, about
    |argument| * eps, times the field's scale.  The argument reaches (n + 1) pi
    at the far wall, and dB/dx carries a further factor k = n pi / a, so at
    fixed a the residuals grow as n (n + 1) / 2 <= n^2 times their n = 1
    values.  The amplitude is 1 / sqrt(a): E scales as a^-1/2 and dB/dx as
    a^-3/2.  Both bounds are 1e-12 at a = 1, n = 1.

    ValueError where a bound is no positive finite double (at n = 1, a below
    ~8e-206 or above ~5e207; float * and / give inf or 0, never raise), or is
    not below its field's own scale, sqrt(2/a) for E and k sqrt(2/a) for
    dB/dx: such a bound would pass a residual as large as the field.  The E
    bound meets its scale first, where n^2 = sqrt(2) * 1e12 for any a (up to
    rounding): at a = 1, n = 1189207 passes and 1189208 does not.
    """
    e_tol = 1e-12 * (float(mode.n) * float(mode.n)) / math.sqrt(mode.a)
    bounds = (e_tol, e_tol / mode.a)
    e_scale = math.sqrt(2.0 / mode.a)
    if not all(0.0 < bound < scale < math.inf
               for bound, scale in zip(bounds, (e_scale, mode.k * e_scale))):
        raise ValueError(f"a = {mode.a!r}, n = {mode.n} is outside the wall check's range: "
                         "its bounds must be positive finite doubles below the scales of "
                         "E and dB/dx")
    return bounds


def cmd_check(args) -> int:
    """Print one OK/FAIL line per identity; exit 2 if any fails.

    The cavity normalization and the split-state normalizations at t = 0,
    0.2 a/c and 5 a/c are one ``validation.norms`` call, a single quadrature:
    where it does not converge, only the wall line precedes the ``error:`` line.
    """
    mode = _mode_from_args(args)
    failures = 0

    def report(name: str, residual: float, tol: float) -> None:
        nonlocal failures
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"{'OK  ' if ok else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.1e})")

    # the line shows whichever of E and dB/dx is nearer its bound
    (e_tol, b_tol), (e_res, b_res) = _wall_tolerances(mode), wavestate.boundary_check(mode)
    report("cavity wall conditions (E, dB/dx)",
           *max((e_res, e_tol), (b_res, b_tol), key=lambda pair: pair[0] / pair[1]))

    times = (0.0, 0.2 * mode.a / mode.c, 5.0 * mode.a / mode.c)
    q = validation.norms(mode, [wavestate.eigenmode_pieces(mode, 0.35 * mode.a / mode.c),
                                *(wavestate.split_pieces(mode, t) for t in times)])
    cavity, *split = np.abs(q.value - 1.0)
    report("cavity normalization", cavity, 1e-8)
    for t, residual in zip(times, split):
        report(f"split-state normalization at t={t:g}", residual, 1e-8)

    suite = validation.identity_suite(mode, np.linspace(0.0, mode.a, 21))
    report("SW energy partition", suite["sw_partition"], 1e-12)
    report("energy ledger vs quadrature", suite["ledger_vs_quadrature"], 1e-8)
    report("reflection energy conservation", suite["conservation"], 1e-12)

    return EXIT_INVARIANT if failures else EXIT_OK


def _count(text: str) -> int:
    """A count option's value, a non-negative integer; argparse names the option
    in the message of the error this raises."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_mode_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=1.0, help="cavity/pulse length")
    parser.add_argument("--n", type=int, default=1, help="mode index")
    parser.add_argument("--c", type=float, default=1.0, help="wave speed")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    parser.add_argument("--digits17", action="store_true", help="fixed 17-significant-digit output")


@cache  # built once per process: saves repeated in-process ``main`` calls, not a one-shot CLI run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitphoton",
        description="Analytic split-photon simulator: fields, reflection, delayed-choice runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snapshot", help="sample E, B, rho on a uniform grid")
    _add_mode_args(p)
    p.add_argument("--s", type=float, default=None, help="reflection moment in [0, a]")
    p.add_argument("--t", type=float, default=None, help="free-propagation time")
    p.add_argument("--grid", type=_count, default=1024)
    _add_output_args(p)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("energy", help="energy ledger sweep over s")
    _add_mode_args(p)
    p.add_argument("--steps", type=_count, default=1000)
    _add_output_args(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("track", help="inner-discontinuity track: closed form vs locator")
    _add_mode_args(p)
    p.add_argument("--steps", type=_count, default=50)
    p.add_argument("--grid", type=int, default=1024)
    _add_output_args(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("dce", help="run a delayed-choice scenario file")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--model", choices=[m.value for m in experiments.OutcomeModel], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_dce)

    p = sub.add_parser("check", help="run the analytic self-consistency checks")
    _add_mode_args(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point stdout at devnull so that
        # the interpreter's flush at exit raises nothing, and exit as if killed
        # by SIGPIPE, with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except validation.QuadratureError as exc:  # an oracle that did not converge
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
