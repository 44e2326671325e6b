"""Tests of the benchmark itself: span arithmetic, restoration, metric coverage.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

import run
import workloads
from spans import BOUNDARIES, Span, Tracer, self_times

sys.path.insert(0, run.SRC)

SMOKE = {
    "dce-mix": {"trials": 500},
    "field-grid": {"grid": 2000},
    "oracles": {"steps": 10, "grid": 512, "energy_steps": 50},
}


def _originals():
    return {
        (b.module, b.attr): getattr(importlib.import_module(b.module), b.attr)
        for b in BOUNDARIES
    }


def test_self_time_of_nested_spans():
    spans = [
        Span("main", 0.0, 10.0, -1),
        Span("load", 1.0, 4.0, 0),
        Span("integrate", 2.0, 3.0, 1),
        Span("integrate", 5.0, 6.5, 0),
        Span("main", 20.0, 22.0, -1),
    ]
    got = self_times(spans)
    assert got["main"] == pytest.approx((10.0 - 3.0 - 1.5) + 2.0)
    assert got["load"] == pytest.approx(3.0 - 1.0)
    assert got["integrate"] == pytest.approx(1.0 + 1.5)
    assert sum(got.values()) == pytest.approx(10.0 + 2.0)


def test_tracer_records_parents_and_counts():
    tracer = Tracer()
    from splitphoton import reflection, validation
    from splitphoton.wavestate import ModeSpec

    with tracer.installed():
        validation.identity_suite(ModeSpec(), [0.3])
    names = {sp.name for sp in tracer.spans}
    assert {"validation.identity_suite", "validation.integrate",
            "reflection.reflect_field", "reflection.energy_ledger"} <= names
    roots = [sp for sp in tracer.spans if sp.parent == -1]
    assert [sp.name for sp in roots] == ["validation.identity_suite"]
    for sp in tracer.spans:
        if sp.name == "reflection.reflect_field":
            assert tracer.spans[sp.parent].name == "validation.integrate"
    assert tracer.counts["validation.integrate.calls"] == 3
    assert tracer.counts["validation.integrate.evaluations"] > 0
    assert reflection.reflect_field is _originals()[("splitphoton.reflection", "reflect_field")]


def test_latencies_scaled_by_kernel_and_grouped_by_operation():
    def result(label, group, latency, kernel_s, pass_index=0):
        out, rows = (f"{label}.csv", 10) if label == "c" else (None, 0)
        op = workloads.Op(label, "check", group, (), out, 1, workloads._exit_code_only)
        return run.OpResult(op, pass_index, False, latency, kernel_s, 0, rows, 0, 0, None)

    k = run.REF_KERNEL_S
    results = [
        result("warm-up", "op", 9.0, k, pass_index=-1),
        *(result("a", "op", 1.0, k) for _ in range(3)),
        *(result("b", "op", 3.0, 2 * k) for _ in range(3)),  # host at half speed
        *(result("c", "op2", 4.0, k) for _ in range(2)),
    ]
    workload = workloads.Workload("w", "ops_per_s", {"op": "x", "op2": "y"}, None)
    metrics, named = run.end_to_end(results, (0.1, 0.2), workload)
    # b scales to 1.5 s; the group's p50 is the median of a's and b's medians
    assert metrics["op_p50_s"] == pytest.approx((1.0 + 1.5) / 2)
    assert metrics["op2_p50_s"] == pytest.approx(4.0)
    assert metrics["wall_s"] == pytest.approx(1.0 + 1.5 + 4.0)
    assert named["wall_as_measured_s"][0] == pytest.approx(1.0 + 3.0 + 4.0)
    assert metrics["work_per_s"] == pytest.approx(3 / 6.5)
    assert metrics["rows_per_s"] == pytest.approx(10 / 4.0)
    assert named["ops_failed_ratio"][0] == 0.0


def test_wrapped_attributes_restored_after_error():
    before = _originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    before = _originals()
    for trace in (False, True):
        record = run.measure(name, 3, 0.0, trace, SMOKE[name], setup_samples=1)
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], record["failures"]
        expected = run.PER_LAYER if trace else {k: v[0] for k, v in run.END_TO_END.items()}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        json.dumps(result)
        assert _originals() == before
    w = workloads.WORKLOADS[name]
    named = record["named"]
    assert w.work_name in named and "ops_failed_ratio" in named
    for base in w.group_names.values():
        assert named[f"{base}_p50_s"][2] >= 1 and f"{base}_p90_s" in named
    if name == "dce-mix":
        assert "dce_op_p50_s" in named
        assert result["metrics"]["experiments.run_trials.us_per_trial"]["value"] > 0
    if name == "oracles":
        assert result["metrics"]["validation.integrate.evaluations"]["value"] > 0


def test_known_defects_are_the_only_failures():
    record = run.measure("oracles", 0, 0.0, False, SMOKE["oracles"], setup_samples=1)
    failed = {line.split(":")[0] for line in record["failures"]}
    assert failed == {"check --n 16", "track --n 16"}
    assert record["named"]["ops_failed_ratio"][0] == 2 / 7
    assert record["result"]["failed"] * 7 == record["result"]["attempted"] * 2


def test_dce_check_rejects_a_wrong_rate(tmp_path):
    verify = workloads._dce_verifier(1000, {"DL": 0.5, "DR": 0.5}, "DL", preferred=False)
    path = tmp_path / "out.csv"
    rows = [f"{i},{'DL' if i < 600 else 'DR'},1.0,,left" for i in range(1000)]
    path.write_text("trial,instrument,click_time,scatter_x,branch\n" + "\n".join(rows) + "\n")
    assert "z=" in verify(str(path)).error
    rows = [f"{i},{'DL' if i % 2 else 'DR'},1.0,,left" for i in range(1000)]
    path.write_text("trial,instrument,click_time,scatter_x,branch\n" + "\n".join(rows) + "\n")
    assert verify(str(path)).error is None
    path.write_text("trial,instrument,click_time,scatter_x,branch\n" + "\n".join(rows[:-1]))
    assert "trials + 1" in verify(str(path)).error


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
