"""splitphoton benchmark: CLI workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py                                  # every workload, human report
    python3 bench/run.py --workload dce-mix --seed 3 --seconds 30 --trace 0

With ``--workload`` the run measures one workload and prints, last, one JSON
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, each workload runs in its own fresh interpreter in turn.

Load is a closed loop with one client: one process, one thread, each
operation started only after the previous one has finished.  Operations
run in passes; each pass runs the workload's operation list once, in an
order drawn from the seed, and passes repeat until ``--seconds`` of
measuring have gone by.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import workloads
from spans import Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")

SETUP_SAMPLES = 15
# Nominal time of reference_kernel(): the unit every gated timing is scaled to.
REF_KERNEL_S = 0.005
# Timed passes at the least, after the untimed warm-up pass.
MIN_PASSES = 2
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import splitphoton.cli\n"
    "splitphoton.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# End-to-end metrics: every workload reports every one of them (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "work_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op2_p50_s": ("s", "lower"),
}

# Per-layer metrics from the traced run, per traced pass (unit).
_SELF = [
    "cli.main", "scenario.load_scenario", "snapshot.reflection_snapshot",
    "snapshot.free_snapshot", "experiments.run_trials", "experiments.aggregate",
    "experiments.crossing_events", "reflection.reflect_field", "reflection.energy_ledger",
    "wavestate.split_state", "wavestate.eigenmode", "validation.integrate",
    "validation.identity_suite", "validation.locate_jumps",
]
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF},
    "experiments.run_trials.us_per_trial": "us",
    "experiments.crossing_events.calls": "count",
    "reflection.reflect_field.calls": "count",
    "reflection.reflect_field.points": "count",
    "reflection.energy_ledger.calls": "count",
    "wavestate.split_state.points": "count",
    "wavestate.eigenmode.points": "count",
    "validation.integrate.calls": "count",
    "validation.integrate.evaluations": "count",
    "validation.locate_jumps.found_ratio": "ratio",
    "cli.rows_emitted": "count",
    "cli.bytes_emitted": "B",
    "trace.overhead_s": "s",
}


@dataclass
class OpResult:
    op: workloads.Op
    pass_index: int  # -1 for the untimed warm-up pass
    traced: bool
    latency: float  # seconds as measured
    kernel_s: float  # reference_kernel() time around the operation
    rc: Optional[int]  # None when main raised
    rows: int
    bytes: int
    found: int
    error: Optional[str]  # output check failure or exception, if any

    @property
    def scaled(self) -> float:
        """Latency scaled to the host speed at which reference_kernel() takes REF_KERNEL_S."""
        return self.latency * REF_KERNEL_S / self.kernel_s

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.error is not None

    @property
    def unexpected(self) -> bool:
        return self.error is not None or (self.rc != 0 and not self.op.expected_failure)


def p50(xs: list[float]) -> float:
    return statistics.median(xs)


def p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


_KERNEL_X = np.linspace(0.0, 1.0, 8192)


def reference_kernel() -> float:
    """Time a fixed piece of work that uses no splitphoton code (~5 ms).

    A mix of numpy transcendental functions, float formatting and an
    interpreted loop, like the program's own work.  The shared host's speed
    drifts by tens of percent over minutes; the operations slow down and
    speed up with this kernel, so dividing by it takes the drift out.
    """
    start = time.perf_counter()
    y = np.sin(_KERNEL_X * 7.3) * np.exp(-_KERNEL_X)
    ",".join([repr(v) for v in y[:2000].tolist()])
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - start


def check_checkout() -> None:
    """The benchmark measures the package in this checkout and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "splitphoton", "cli.py")):
        _fail(f"no splitphoton sources under {SRC}")
    if not os.path.isdir(SCENARIOS):
        _fail(f"no scenario directory {SCENARIOS}")


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple[float, float]:
    """Median over fresh interpreters of a cold ``import splitphoton.cli`` + parser.

    Returns the median scaled to the reference speed and the median as measured.
    """
    raw, scaled = [], []
    before = reference_kernel()
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"cold import failed: {proc.stderr.strip()}")
        after = reference_kernel()
        raw.append(float(proc.stdout.strip()))
        scaled.append(raw[-1] * REF_KERNEL_S * 2.0 / (before + after))
        before = after
    return p50(scaled), p50(raw)


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                                   "HEAD"], capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    hashes = {}
    for name in sorted(os.listdir(SCENARIOS)):
        with open(os.path.join(SCENARIOS, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
        "scenario_sha256": hashes,
    }


def run_op(cli, op, pass_index: int, traced: bool,
           kernel_before: float) -> tuple[OpResult, float]:
    """Run and time one operation, time the kernel after it, then check its output."""
    gc.collect()
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(list(op.argv))  # looked up on the module, so tracing sees it
        except Exception as exc:  # an operation that raises is a failed operation
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    kernel_after = reference_kernel()
    rows = found = size = 0
    if error is None and (op.out is None or os.path.exists(op.out)):
        try:
            rows, error, found = op.verify(op.out)
        except (OSError, ValueError, IndexError) as exc:
            error = f"unreadable output: {exc}"
        size = os.path.getsize(op.out) if op.out else 0
    elif error is None:
        error = "no output written"
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    return OpResult(op, pass_index, traced, latency, (kernel_before + kernel_after) / 2.0, rc,
                    rows, size, found, error), kernel_after


def run_passes(cli, ops: list, seed: int, seconds: float, trace: bool, tracer=None) -> list:
    """Closed loop: whole passes, one op at a time, within ``seconds``.

    An untimed warm-up pass runs first; its outputs are checked like any
    other.  Then at least two timed passes run.  A further pass starts only
    if a pass as long as the last one would still end within ``seconds``.
    With ``trace`` the timed passes alternate untraced and traced, starting
    untraced.
    """
    order = random.Random(seed)
    results: list[OpResult] = []
    kernel = reference_kernel()
    for op in ops:
        result, kernel = run_op(cli, op, -1, False, kernel)
        results.append(result)
    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = trace and pass_index % 2 == 1
        batch = ops[:]
        order.shuffle(batch)
        pass_start = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in batch:
                result, kernel = run_op(cli, op, pass_index, traced, kernel)
                results.append(result)
        pass_index += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds and pass_index >= MIN_PASSES:
            return results


def timed(results: list, traced: bool = False) -> list:
    return [r for r in results if r.pass_index >= 0 and r.traced == traced]


def op_medians(results: list, scaled: bool = True) -> list[tuple]:
    """(op, median latency, median rows) per operation, in first-seen order."""
    by_label: dict[str, list[OpResult]] = {}
    for r in results:
        by_label.setdefault(r.op.label, []).append(r)
    return [(rs[0].op, p50([r.scaled if scaled else r.latency for r in rs]),
             p50([r.rows for r in rs]))
            for rs in by_label.values()]


def pass_wall(results: list, scaled: bool = True) -> float:
    """Time of one typical pass: the sum over operations of their median latency."""
    return sum(latency for _, latency, _ in op_medians(results, scaled))


def end_to_end(results: list, setup: tuple[float, float], workload) -> tuple[dict, dict]:
    """The gated metrics, and the same numbers under this workload's own names.

    Timings use only the untraced timed passes, so neither warm-up nor
    tracing reaches them.  Each operation's latency is the median over its
    samples; throughputs are work per second of those medians.  Gated
    timings are scaled to the reference speed (``OpResult.scaled``); the
    report also prints them as measured.
    """
    failed_ratio = sum(r.failed for r in results) / len(results)
    results = timed(results)
    medians = op_medians(results)
    wall = pass_wall(results)
    emitting = [(latency, rows) for op, latency, rows in medians if op.out]
    by_group = {g: [r.scaled for r in results if r.op.group == g] for g in ("op", "op2")}
    # A group mixes operations of different cost; the median over all its
    # samples falls in the gap between them and jumps, so the gated p50 is
    # the median over the group's operations of each one's median latency.
    typical = {g: p50([lat for op, lat, _ in medians if op.group == g]) for g in by_group}
    metrics = {
        "setup_s": setup[0],
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows_per_s": sum(rows for _, rows in emitting) / sum(lat for lat, _ in emitting),
        "work_per_s": sum(op.work for op, _, _ in medians) / wall,
        "op_p50_s": typical["op"],
        "op2_p50_s": typical["op2"],
    }
    named = {
        "setup_as_measured_s": (setup[1], "s", None),
        "wall_as_measured_s": (pass_wall(results, scaled=False), "s", None),
        "reference_kernel_s": (p50([r.kernel_s for r in results]), "s", len(results)),
        "ops_failed_ratio": (failed_ratio, "ratio", None),
        workload.work_name: (metrics["work_per_s"], "1/s", None),
    }
    for group, base in workload.group_names.items():
        n = len(by_group[group])
        named[f"{base}_p50_s"] = (typical[group], "s", n)
        named[f"{base}_p90_s"] = (p90(by_group[group]), "s", n)
    dce = [r.scaled for r in results if r.op.command == "dce"]
    if dce:
        named["dce_op_p50_s"] = (p50(dce), "s", len(dce))
    return metrics, named


def per_layer(results: list, tracer) -> dict:
    traced = timed(results, traced=True)
    passes = len({r.pass_index for r in traced})
    selfs = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {f"{name}.self_s": selfs.get(name, 0.0) / passes for name in _SELF}
    trials = counts.get("experiments.run_trials.trials", 0.0)
    metrics["experiments.run_trials.us_per_trial"] = (
        1e6 * selfs.get("experiments.run_trials", 0.0) / trials if trials else 0.0
    )
    for name in PER_LAYER:
        if name.endswith((".calls", ".points", ".evaluations")):
            metrics[name] = counts.get(name, 0.0) / passes
    tracks = [r for r in traced if r.op.command == "track"]
    metrics["validation.locate_jumps.found_ratio"] = (
        sum(r.found for r in tracks) / sum(r.rows for r in tracks) if tracks else 0.0
    )
    metrics["cli.rows_emitted"] = sum(r.rows for r in traced) / passes
    metrics["cli.bytes_emitted"] = sum(r.bytes for r in traced) / passes
    metrics["trace.overhead_s"] = (pass_wall(traced, scaled=False)
                                   - pass_wall(timed(results), scaled=False))
    return metrics


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            build_kwargs: Optional[dict] = None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One workload run in this interpreter; returns the result record."""
    check_checkout()
    setup = measure_setup(setup_samples)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import splitphoton.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "splitphoton"):
        _fail(f"imported splitphoton from {cli.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[workload_name]
    tmp = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        ops = workload.build(ROOT, tmp, seed, **(build_kwargs or {}))
        tracer = Tracer()
        results = run_passes(cli, ops, seed, seconds, trace, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics, named = end_to_end(results, setup, workload)
    unexpected = [r for r in results if r.unexpected]
    record = {
        "workload": workload_name,
        "env": environment(seed),
        "named": named,
        "passes": len({r.pass_index for r in results if r.pass_index >= 0}),
        "failures": sorted({f"{r.op.label}: {r.error or f'exit {r.rc}'}"
                            for r in results if r.failed}),
        "result": {
            "correct": not unexpected,
            "attempted": len(results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                name: {"value": value, "unit": (PER_LAYER[name] if trace else END_TO_END[name][0])}
                for name, value in (per_layer(results, tracer) if trace else metrics).items()
            },
        },
    }
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    result = record["result"]
    print(f"== {name}: {result['attempted']} ops in {record['passes']} passes, "
          f"{result['failed']} failed, correct={result['correct']}")
    for line in record["failures"]:
        print(f"   failed: {line}")
    print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric} = {entry['value']!r} {entry['unit']}")
    for metric, (value, unit, n) in record["named"].items():
        samples = f" (n={n})" if n is not None else ""
        print(f"   {metric} = {value!r} {unit}{samples}")


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    status = 0
    combined = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), default=None,
                        help="one workload (default: all of them, each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    check_checkout()
    if args.workload is None:
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
