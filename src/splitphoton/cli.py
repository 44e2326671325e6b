"""Command-line front end: snapshots, energy sweeps, jump tracks, experiments.

Subcommands: snapshot | energy | track | dce | check.  All numeric CSV
output uses shortest round-trip decimals (Python ``repr``) by default;
``--digits17`` switches to fixed 17-significant-digit rendering.  Every
command writes its CSV through ``_write_csv``, which formats a batch of
rows one column at a time: one ``%`` over a per-cell template for a
number column, and a gather of pre-quoted labels for a label column.

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from . import experiments, reflection, validation, wavestate
from .scenario import ScenarioError, load_scenario
from .snapshot import free_snapshot, reflection_snapshot
from .wavestate import ModeSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
# CSV rows per batch, each column of a batch formatted by one ``%``: enough for
# per-batch costs to vanish, few enough that the text held stays small (4096-row
# batches raised the peak RSS of ``snapshot --grid 100000`` from ~42 to ~48 MB)
_CSV_CHUNK = 1024


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


def _cells(column, lo: int, float_format: str) -> list[str]:
    """Cells ``lo`` to ``lo + _CSV_CHUNK`` of one column as CSV text.

    A number column is formatted by one ``%`` over a template of one
    conversion per cell, applied to Python numbers (``tolist``; under numpy 2
    ``%r`` of an ``np.float64`` is ``np.float64(...)``).  A NaN in a float
    column is a missing value and its cell is blanked by index.  A label
    column is gathered from its quoted labels by code.
    """
    if isinstance(column, tuple):
        quoted, codes = column
        return quoted[codes[lo:lo + _CSV_CHUNK]].tolist()
    values = column[lo:lo + _CSV_CHUNK]
    is_float = values.dtype.kind == "f"
    template = "\n".join((float_format if is_float else "%d",) * len(values))
    cells = (template % tuple(values.tolist())).split("\n")
    if is_float:
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
    return cells


def _write_csv(path: Optional[str], header: list[str], columns: list, digits17: bool) -> None:
    """Write equal-length columns under ``header``, one batch of rows at a time.

    A column is a float or int array, or a ``(labels, codes)`` pair whose
    cell i is ``labels[codes[i]]`` (a code of -1 picks the last label).
    Floats are shortest round-trip decimals (Python ``repr``), or 17
    significant digits (``%.17g``) under ``digits17``; NaN is an empty cell.
    For tables of two or more columns the bytes are those ``csv.writer``
    writes with ``lineterminator="\\n"``.
    """
    float_format = "%.17g" if digits17 else "%r"
    columns = [
        (np.array([_quote(label) for label in col[0]], dtype=object), np.asarray(col[1]))
        if isinstance(col, tuple) else col
        for col in columns
    ]
    stream, close = _open_out(path)
    try:
        stream.write(",".join(header) + "\n")
        rows = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
        for lo in range(0, rows, _CSV_CHUNK):
            cells = [_cells(col, lo, float_format) for col in columns]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
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
    ledgers = [reflection.energy_ledger(mode, s) for s in s_values]
    table = np.array(
        [(led.e_rw, led.e_E_sw, led.e_B_sw, led.e_sw, led.total / mode.a) for led in ledgers],
        dtype=float,
    ).reshape(-1, 5)
    _write_csv(args.out, ["s", "e_rw", "e_E_sw", "e_B_sw", "e_sw", "total"],
               [s_values, *table.T], args.digits17)
    return EXIT_OK


def _located_inner_jump(mode: ModeSpec, s: float, grid: int) -> Optional[float]:
    snap = reflection_snapshot(mode, s, n_points=grid)
    cell = mode.a / (grid - 1)
    far_edge = reflection.domains(mode.a, s).rw[0]
    candidates = [
        j
        for j in validation.locate_jumps(snap)
        if abs(j.location - far_edge) > 1.5 * cell and abs(j.location) > 1.5 * cell
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda j: j.score).location


def cmd_track(args) -> int:
    mode = _mode_from_args(args)
    s_values = np.linspace(0.0, mode.a, args.steps + 2)[1:-1]
    x_analytic = np.array(
        [reflection.inner_discontinuity_position(mode.a, s) for s in s_values]
    )
    x_located = np.array([_located_inner_jump(mode, s, args.grid) for s in s_values],
                         dtype=float)  # NaN where no jump was located
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
    columns = [np.arange(len(trials)), (names, trials.instrument), trials.click_time,
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


def cmd_check(args) -> int:
    mode = _mode_from_args(args)
    failures = 0

    def report(name: str, residual: float, tol: float) -> None:
        nonlocal failures
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"{'OK  ' if ok else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.1e})")

    # the residuals are round-off in sin(kx + phase) at arguments up to (n + 1) pi,
    # times k for dB/dx: n (n + 1) / 2 <= n^2 times those at n = 1, bound 1e-12
    e_res, b_res = wavestate.boundary_check(mode)
    report("cavity wall conditions (E, dB/dx)", max(e_res, b_res), 1e-12 * mode.n ** 2)

    def cavity_rho(x: np.ndarray) -> np.ndarray:
        e, b = wavestate.eigenmode(mode, x, 0.35 * mode.a / mode.c)
        return np.asarray(e) ** 2 + np.asarray(b) ** 2

    q = validation.integrate(cavity_rho, 0.0, mode.a, tol=1e-11)
    report("cavity normalization", abs(q.value - 1.0), 1e-8)

    for t in (0.0, 0.2 * mode.a / mode.c, 5.0 * mode.a / mode.c):
        pieces = wavestate.split_pieces(mode, t)
        cuts = {end for p in pieces for end in (p.lo, p.hi)}

        def split_rho(x: np.ndarray, _t=t) -> np.ndarray:
            e, b = wavestate.split_state(mode, x, _t)
            return np.asarray(e) ** 2 + np.asarray(b) ** 2

        q = validation.integrate(split_rho, pieces[0].lo, pieces[-1].hi, tol=1e-11,
                                 breakpoints=cuts)
        report(f"split-state normalization at t={t:g}", abs(q.value - 1.0), 1e-8)

    suite = validation.identity_suite(mode, np.linspace(0.0, mode.a, 21))
    report("SW energy partition", suite["sw_partition"], 1e-12)
    report("energy ledger vs quadrature", suite["ledger_vs_quadrature"], 1e-8)
    report("reflection energy conservation", suite["conservation"], 1e-12)

    return EXIT_INVARIANT if failures else EXIT_OK


def _add_mode_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=1.0, help="cavity/pulse length")
    parser.add_argument("--n", type=int, default=1, help="mode index")
    parser.add_argument("--c", type=float, default=1.0, help="wave speed")


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
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--digits17", action="store_true", help="fixed 17-significant-digit output")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("energy", help="energy ledger sweep over s")
    _add_mode_args(p)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.add_argument("--digits17", action="store_true")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("track", help="inner-discontinuity track: closed form vs locator")
    _add_mode_args(p)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.add_argument("--digits17", action="store_true")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("dce", help="run a delayed-choice scenario file")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--model", choices=[m.value for m in experiments.OutcomeModel], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default=None, help="per-trial CSV path (default stdout)")
    p.add_argument("--digits17", action="store_true")
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
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
