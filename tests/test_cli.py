import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitphoton import cli, experiments, shortest, validation
from splitphoton import ModeSpec, boundary_check
from splitphoton.wavestate import eigenmode, split_pieces, split_state
from splitphoton.scenario import load_scenario
from splitphoton.snapshot import free_snapshot, reflection_snapshot
from splitphoton.cli import (_CSV_CHUNK, _REPR_KERNEL_MIN, _wall_tolerances, _write_csv,
                             build_parser, main)

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

SCENARIO = """\
[mirror]
D = 5.0

[detector]
id = DR
position = 3.0

[detector]
id = DL
position = -3.0

[run]
trials = 400
seed = 7
"""


# gun files beside scenarios/two_guns.txt: a shot during the reflection, a shot
# that misses its pulse (no-overlap) and a gun on one side only
GUN_FILES = {
    "gun_reflection": "[mirror]\nD = 5.0\n\n"
                      "[electron_gun]\nid = EGL\nposition = -3.0\ninsertion = 3.0\n\n"
                      "[electron_gun]\nid = EGM\nposition = 4.8\ninsertion = 4.75\n",
    "gun_no_overlap": "[electron_gun]\nid = EGL\nposition = -3.0\ninsertion = 3.0\n\n"
                      "[electron_gun]\nid = EGR\nposition = 3.0\ninsertion = 9.0\n",
    "gun_one_side": "[mirror]\nD = 5.0\n\n"
                    "[electron_gun]\nid = EG\nposition = 4.2\ninsertion = 5.0\n",
}


def _scenario_path(tmp_path, name):
    """A file of ``scenarios/`` or of ``GUN_FILES``, by name."""
    if name not in GUN_FILES:
        return os.path.join(SCENARIOS, f"{name}.txt")
    path = tmp_path / f"{name}.txt"
    path.write_text(GUN_FILES[name])
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "two_detectors.txt"
    path.write_text(SCENARIO)
    return str(path)


def _reference_csv(path, header, columns, digits17):
    """Reference writer: ``csv.writer`` over Python values.

    Floats are rendered by ``repr`` (csv's own ``str``), or by
    ``format(v, ".17g")`` under ``digits17``; NaN is None, an empty field.
    """
    def values(col):
        if isinstance(col, tuple):
            labels, codes = col
            return [labels[c] for c in codes.tolist()]
        if col.dtype.kind != "f":
            return col.tolist()
        return [None if math.isnan(v) else format(v, ".17g") if digits17 else v
                for v in col.tolist()]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*[values(col) for col in columns]))


_SPECIAL_FLOATS = [math.nan, math.copysign(math.nan, -1.0), 0.0, -0.0, math.inf, -math.inf,
                   5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-308, 1.7976931348623157e308,
                   -1e308, 0.1, 1.0 / 3.0]


def _mirrored(left, rng, changed):
    """``left`` with the sign bit of each cell flipped or kept at random (a NaN's
    too), then a share ``changed`` of the cells changed: half of those drawn anew
    from ``_SPECIAL_FLOATS``, half moved one ulp up, unlike their left cell in
    the last bit only."""
    flips = rng.integers(0, 2, len(left)).astype(np.uint64) << np.uint64(63)
    column = (left.view(np.uint64) ^ flips).view(np.float64)
    pick = rng.random(len(left))
    redraw, nudge = pick < changed / 2, (pick >= changed / 2) & (pick < changed)
    column[redraw] = np.array(_SPECIAL_FLOATS)[rng.integers(0, len(_SPECIAL_FLOATS),
                                                            redraw.sum())]
    with np.errstate(over="ignore"):  # the greatest double moves up to inf
        column[nudge] = np.nextafter(column[nudge], np.inf)
    return column


@st.composite
def _tables(draw):
    """Header and columns of float, int and label kinds, drawn from small pools; a
    float column right of another may be drawn as that one's cells, each of
    either sign, some of them changed (``_mirrored``)."""
    rows = draw(st.sampled_from([0, 1, 1023, 1024, 1025]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "label"]), min_size=2, max_size=5))
    columns = []
    for kind in kinds:
        left_float = columns and not isinstance(columns[-1], tuple) and columns[-1].dtype.kind == "f"
        if kind == "float" and left_float and draw(st.booleans()):
            columns.append(_mirrored(columns[-1], rng, draw(st.sampled_from([0.0, 0.05, 0.5]))))
        elif kind == "float":
            pool = _SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=8))
            columns.append(np.array(pool)[rng.integers(0, len(pool), rows)])
        elif kind == "int":
            pool = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
            columns.append(np.array(pool, dtype=np.int64)[rng.integers(0, len(pool), rows)])
        else:
            label = st.text(st.sampled_from('ab ,"x'), max_size=6)
            labels = draw(st.lists(label, min_size=1, max_size=5)) + [""]
            columns.append((labels, rng.integers(-1, len(labels), rows)))
    return [f"c{i}" for i in range(len(columns))], columns


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(table=_tables(), digits17=st.booleans())
    def test_bytes_match_csv_writer(self, table, digits17):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = os.path.join(tmp, "ours.csv"), os.path.join(tmp, "ref.csv")
            _write_csv(ours, header, columns, digits17)
            _reference_csv(ref, header, columns, digits17)
            with open(ours, "rb") as a, open(ref, "rb") as b:
                assert a.read() == b.read()

    # 399..401 sit around the earlier 400-cell vectorised-writer threshold, above
    # it now; 2047..2049 around the earlier 2048-row batch size, inside one batch now
    @pytest.mark.parametrize("rows", [_REPR_KERNEL_MIN - 1, _REPR_KERNEL_MIN, _REPR_KERNEL_MIN + 1,
                                      399, 400, 401, 2047, 2048, 2049,
                                      _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1,
                                      2 * _CSV_CHUNK + 1])
    @pytest.mark.parametrize("digits17", [False, True])
    def test_batch_edges(self, tmp_path, rows, digits17):
        rng = np.random.default_rng(rows)
        floats = rng.normal(size=rows) * 10.0 ** rng.integers(-6, 18, rows)
        floats[rng.integers(0, rows, 50)] = np.nan
        # the column right of x holds x's cells, each of either sign, 10% of them
        # changed: copies, sign flips, and leftover cells that go to ``percent_slots``
        # in a batch of fewer than 3200 rows and to a kernel in a batch of 4096
        columns = [np.arange(rows), (["a", 'b,"c"', ""], rng.integers(-1, 3, rows)), floats,
                   _mirrored(floats, rng, 0.1), rng.uniform(0, 1, rows)]
        header = ["i", "label", "x", "mirrored", "y"]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_csv(str(ours), header, columns, digits17)
        _reference_csv(str(ref), header, columns, digits17)
        assert ours.read_bytes() == ref.read_bytes()


    def _matches_reference(self, tmp_path, header, columns, digits17=False):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        _write_csv(str(ours), header, columns, digits17)
        _reference_csv(str(ref), header, columns, digits17)
        assert ours.read_bytes() == ref.read_bytes()

    # an int column's width is the digit count of its widest magnitude, plus one
    # with a minus sign: tops around each power of ten, positive only, beside a
    # negative and as the widest magnitude of a negative
    @pytest.mark.parametrize("top", [10**k + d for k in range(1, 19) for d in (-1, 0, 1)])
    @pytest.mark.parametrize("sign", ["positive", "small negative", "widest negative"])
    def test_int_widths(self, tmp_path, top, sign):
        rows = 600
        ints = np.arange(rows, dtype=np.int64) * (top // rows)
        ints[[0, 17, -1]] = {"positive": [top, 0, 1], "small negative": [top, -1, 7],
                             "widest negative": [-top, 0, top - 1]}[sign]
        labels = (["a", "bc"], np.arange(rows) % 2)
        self._matches_reference(tmp_path, ["i", "x", "label"],
                                [ints, np.linspace(-1.0, 1.0, rows), labels])

    @pytest.mark.parametrize("rows", [1, 9, 10, 11, _CSV_CHUNK + 1])
    def test_int_extremes(self, tmp_path, rows):
        ints = np.zeros(rows, dtype=np.int64)
        ints[0] = -2**63
        ints[-1] = 2**63 - 1 if rows > 1 else ints[-1]
        self._matches_reference(tmp_path, ["i", "j"], [ints, np.arange(rows)])
        self._matches_reference(tmp_path, ["i", "j"], [np.arange(rows) - rows // 2, ints])

    @pytest.mark.parametrize("rows", [0, 1, _REPR_KERNEL_MIN + 1, _CSV_CHUNK + 1])
    def test_all_nan_float_column(self, tmp_path, rows):
        nan = np.full(rows, np.nan)
        # alone: csv.writer quotes a row of one empty field, this writer leaves it empty
        out = tmp_path / "alone.csv"
        _write_csv(str(out), ["x"], [nan], False)
        assert out.read_bytes() == b"x\n" + b"\n" * rows
        rng = np.random.default_rng(rows)
        floats, ints = rng.normal(size=rows), np.arange(rows)
        labels = (["a", ""], rng.integers(-1, 2, rows))
        for columns in ([nan, floats], [floats, nan], [ints, nan, nan, labels],
                        [nan, labels, nan], [labels, nan, ints]):
            for digits17 in (False, True):
                header = [f"c{i}" for i in range(len(columns))]
                self._matches_reference(tmp_path, header, columns, digits17)

    @pytest.mark.parametrize("rows", [1, 11, _CSV_CHUNK + 1])
    def test_empty_labels(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        blank = ([""], rng.integers(-1, 1, rows))
        for columns in ([blank, np.arange(rows)], [rng.normal(size=rows), blank],
                        [np.arange(rows), blank, blank, rng.normal(size=rows)]):
            header = [f"c{i}" for i in range(len(columns))]
            self._matches_reference(tmp_path, header, columns)


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [["snapshot", "--s", "0.25", "--grid", "100000"],
                                      ["dce", os.path.join(SCENARIOS, "two_detectors.txt"),
                                       "--trials", "1000"],
                                      ["check"]])
    def test_closed_stdout_exits_141_silently(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        # stdout block-buffered, as in a shell pipeline, so that writes also fail at flushes
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        try:
            proc = subprocess.run([sys.executable, "-m", "splitphoton.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestSnapshot:
    def test_header_and_shape(self, tmp_path):
        out = tmp_path / "snap.csv"
        assert main(["snapshot", "--s", "0.25", "--grid", "128", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,E,B,rho"
        assert len(lines) == 129

    # B copies E's text, with its sign fixed, wherever |B| == |E| bit for bit: the
    # hand-off moments, the left-moving pulse's sign flips, the benchmark's moments
    # and long zero stretches.  4097 rows are one full batch and one of a single row;
    # the cells B formats itself number above _REPR_KERNEL_MIN in the first batch at
    # --s 0.1 to 0.75 and --t 0.4, and one or none in the second
    @pytest.mark.parametrize("moment", [("--s", s) for s in ("0", "0.1", "0.25", "0.5", "0.75", "1")]
                             + [("--t", t) for t in ("0", "0.4", "5")])
    @pytest.mark.parametrize("digits17", [False, True])
    def test_bytes_match_csv_writer(self, tmp_path, moment, digits17):
        option, value = moment
        mode = ModeSpec(a=1.0, n=1, c=1.0)
        snapshot = reflection_snapshot if option == "--s" else free_snapshot
        snap = snapshot(mode, float(value), n_points=4097)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        assert main(["snapshot", option, value, "--grid", "4097", "--out", str(ours)]
                    + ["--digits17"] * digits17) == 0
        _reference_csv(str(ref), ["x", "E", "B", "rho"],
                       [np.asarray(v, dtype=float) for v in (snap.x, snap.E, snap.B, snap.rho)],
                       digits17)
        assert ours.read_bytes() == ref.read_bytes()

    def test_rho_column_consistent(self, tmp_path):
        out = tmp_path / "snap.csv"
        main(["snapshot", "--t", "0.4", "--grid", "256", "--out", str(out)])
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert np.allclose(data["rho"], data["E"] ** 2 + data["B"] ** 2, atol=1e-15)

    def test_requires_exactly_one_of_s_t(self, capsys):
        assert main(["snapshot"]) == 1
        assert main(["snapshot", "--s", "0.2", "--t", "0.3"]) == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "inf", "1e308"])
    def test_non_finite_support_exits_one(self, tmp_path, capsys, t):
        # at t = 1e308 the support's length a + 2ct overflows
        out = tmp_path / "snap.csv"
        assert main(["snapshot", "--t", t, "--grid", "3", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_digits17_formatting(self, tmp_path):
        out = tmp_path / "snap.csv"
        main(["snapshot", "--s", "0.5", "--grid", "128", "--out", str(out), "--digits17"])
        row = out.read_text().splitlines()[70].split(",")
        e_text = row[1]
        mantissa = e_text.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) == 17
        assert float(e_text) == pytest.approx(float(row[1]))  # parses back


class TestEnergy:
    def test_header_and_conservation(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert main(["energy", "--steps", "101", "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert list(data.dtype.names) == ["s", "e_rw", "e_E_sw", "e_B_sw", "e_sw", "total"]
        assert np.allclose(data["total"], 1.0, atol=1e-12)
        assert np.allclose(data["e_rw"] + data["e_sw"], 1.0, atol=1e-12)


    @pytest.mark.parametrize("argv", [["energy", "--a", "1e-320", "--steps", "2"],
                                      ["check", "--a", "1e-320"]])
    def test_non_finite_wavenumber_exits_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "wavenumber" in captured.err and captured.out == ""


class TestTrack:
    def test_locator_matches_closed_form(self, tmp_path):
        out = tmp_path / "track.csv"
        assert main(["track", "--steps", "20", "--grid", "1024", "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert list(data.dtype.names) == ["s", "x_D_analytic", "x_D_located", "residual"]
        cell = 1.0 / 1023
        assert np.all(data["residual"] <= cell + 1e-15)

        # at n = 16 the fixed jump threshold misses some steps: in such a row the
        # located and the residual cells are both empty
        out16 = tmp_path / "track16.csv"
        main(["track", "--n", "16", "--out", str(out16)])
        text = out16.read_text()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert "nan" not in text and any(row[2] == "" for row in rows)
        assert all((row[2] == "") == (row[3] == "") for row in rows)


    @pytest.mark.parametrize("n", ["1", "2", "8"])
    @pytest.mark.parametrize("steps", ["7", "9"])
    def test_odd_steps_locate_the_middle_row(self, tmp_path, steps, n):
        # an odd --steps puts s = a/2, where the inner jump meets the far edge, on the middle row
        out = tmp_path / "t.csv"
        assert main(["track", "--n", n, "--steps", steps, "--out", str(out)]) == 0
        middle = out.read_text().splitlines()[1 + int(steps) // 2].split(",")
        assert float(middle[0]) == 0.5 and middle[2] != ""

    def test_grid_too_coarse_exits_one(self, tmp_path, capsys):
        # grid 1 used to divide by zero for the cell width
        for grid in ("1", "63"):
            assert main(["track", "--grid", grid, "--out", str(tmp_path / "t.csv")]) == 1
            assert "grid too coarse" in capsys.readouterr().err

    def test_rows_past_one_block(self, tmp_path):
        # 100 rows of 4096 points take 25 snapshot blocks
        out = tmp_path / "track.csv"
        assert main(["track", "--steps", "100", "--grid", "4096", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 101


class TestDce:
    def test_csv_header_and_rows(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "trials.csv"
        assert main(["dce", scenario_file, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,instrument,click_time,scatter_x,branch"
        assert len(lines) == 401
        assert "trials: 400" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["dce", scenario_file, "--out", str(out1)])
        main(["dce", scenario_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["dce", scenario_file, "--out", str(out1)])
        main(["dce", scenario_file, "--seed", "8", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_model_override(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "pw.csv"
        code = main(["dce", scenario_file, "--model", "preferred-way", "--trials", "50",
                     "--out", str(out)])
        assert code == 0
        assert "comparator" in capsys.readouterr().out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[detector]\nposition = wide\n")
        assert main(["dce", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,line",
        [("[mode]\na = inf\n", 2), ("[mirror]\nD = nan\n", 2),
         ("[detector]\nposition = nan\n", 2)],
    )
    def test_non_finite_value_reports_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["dce", str(bad)]) == 1
        assert f"error: line {line}: " in capsys.readouterr().err

    def test_rate_audit_exits_two_on_violation(self, tmp_path, scenario_file, capsys,
                                               monkeypatch):
        run_trials = experiments.run_trials

        def biased(scenario):  # credits every trial to the first detector
            trials = run_trials(scenario)
            return dataclasses.replace(trials, instrument=np.zeros(len(trials), dtype=int))

        monkeypatch.setattr(experiments, "run_trials", biased)
        assert main(["dce", scenario_file, "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: DR clicked 400 of 400" in err
        assert "invariant violation: DL clicked 0 of 400" in err
        assert main(["dce", scenario_file, "--model", "preferred-way",
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_summary_reports_exact_rates(self, tmp_path, scenario_file, capsys):
        assert main(["dce", scenario_file, "--out", str(tmp_path / "t.csv")]) == 0
        out = capsys.readouterr().out
        assert "exact 0.50000" in out and "rate violations (|z| > 6): 0" in out
        assert "anti-coincidence" not in out

    def test_missing_values_are_empty_fields(self, tmp_path, scenario_file):
        out = tmp_path / "late.csv"
        path = os.path.join(SCENARIOS, "late_insertion.txt")
        assert main(["dce", path, "--trials", "3", "--out", str(out), "--digits17"]) == 0
        assert out.read_text().splitlines()[1:] == ["0,,,,none", "1,,,,none", "2,,,,none"]
        assert main(["dce", scenario_file, "--out", str(out), "--digits17"]) == 0
        for row in out.read_text().splitlines()[1:]:
            trial, instrument, click_time, scatter_x, branch = row.split(",")
            assert instrument in ("DR", "DL") and scatter_x == ""
            assert click_time == format(float(click_time), ".17g")

    def test_label_quoting_reads_back(self, tmp_path):
        path = tmp_path / "quoted.txt"
        path.write_text('[detector]\nid = D,"R" 1\nposition = 3.0\nefficiency = 0.5\n'
                        '[run]\ntrials = 200\nseed = 3\n')
        out = tmp_path / "quoted.csv"
        assert main(["dce", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        assert '"D,""R"" 1"' in text
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 200 and all(len(row) == 5 for row in rows)
        assert {row[1] for row in rows} == {'D,"R" 1', ""}
        lines = text.splitlines()[1:]
        for line, row in zip(lines, rows):  # a trial with no click has an empty, unquoted cell
            assert (row[1] == "") == line.startswith(f"{row[0]},,")

    @pytest.mark.parametrize("name", ["two_detectors", "far_left_detector", "late_insertion",
                                      "two_guns"])
    @pytest.mark.parametrize("model", [m.value for m in experiments.OutcomeModel])
    @pytest.mark.parametrize("trials", [10, 11, 1001])  # 10 -> 11 widens the trial column
    def test_out_matches_reference_writer(self, tmp_path, name, model, trials):
        path = os.path.join(SCENARIOS, f"{name}.txt")
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["dce", path, "--model", model, "--trials", str(trials),
                         "--out", str(out)]) in (0, 2)
        sc = load_scenario(path)
        sc.model, sc.trials = experiments.OutcomeModel(model), trials
        run = experiments.run_trials(sc)
        names = [ins.id for ins in sc.instruments] + [""]
        _reference_csv(str(ref), ["trial", "instrument", "click_time", "scatter_x", "branch"],
                       [np.arange(trials), (names, run.instrument), run.click_time,
                        run.scatter_x, ([b.value for b in run.BRANCHES], run.branch)], False)
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["dce", str(tmp_path / "nope.txt")]) == 1

    @pytest.mark.parametrize("model", ["conventional-qm", "preferred-way"])
    def test_silence_audit_counts_guns_as_reachable(self, tmp_path, model, capsys):
        out = tmp_path / "guns.csv"
        path = os.path.join(SCENARIOS, "two_guns.txt")
        code = main(["dce", path, "--model", model, "--trials", "300", "--out", str(out)])
        assert code == 0
        assert "invariant violation" not in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["conventional-qm", "preferred-way"])
    def test_unreachable_detector_stays_silent(self, tmp_path, model, capsys):
        out = tmp_path / "late.csv"
        path = os.path.join(SCENARIOS, "late_insertion.txt")
        code = main(["dce", path, "--model", model, "--trials", "300", "--out", str(out)])
        assert code == 0
        assert "D1: 0 clicks" in capsys.readouterr().out
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 300 and all(row.split(",")[1] == "" for row in rows)


class TestDceClickTimeLabels:
    """``dce`` writes a click_time that the instrument code determines as labels,
    with the bytes the float writer gives the raw column."""

    @staticmethod
    def _record_runs(patch):
        """Patch ``experiments.run_trials`` to keep each ``Trials`` it returns, in the
        list this returns."""
        runs, run_trials = [], experiments.run_trials

        def recorded(scenario):
            runs.append(run_trials(scenario))
            return runs[-1]

        patch.setattr(experiments, "run_trials", recorded)
        return runs

    def _stdout(self, monkeypatch, argv, raw_click_time=False):
        """``main``'s exit code and stdout, CSV and summary; with ``raw_click_time``
        the writer gets the trials' float click_time column instead."""
        out = io.StringIO()
        with monkeypatch.context() as patch:
            if raw_click_time:
                runs = self._record_runs(patch)

                def raw(path, header, columns, digits17):
                    _write_csv(path, header, [*columns[:2], runs[-1].click_time, *columns[3:]],
                               digits17)

                patch.setattr(cli, "_write_csv", raw)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["dce", *argv])
        return code, out.getvalue()

    @pytest.mark.parametrize("name", ["two_detectors", "far_left_detector", "late_insertion",
                                      "two_guns", *GUN_FILES])
    @pytest.mark.parametrize("model", [m.value for m in experiments.OutcomeModel])
    @pytest.mark.parametrize("digits", [[], ["--digits17"]])
    @pytest.mark.parametrize("trials", [1, 7, _CSV_CHUNK, _CSV_CHUNK + 1, 20000])
    def test_bytes_match_the_float_writer(self, tmp_path, monkeypatch, name, model, digits,
                                          trials):
        argv = [_scenario_path(tmp_path, name), "--model", model, "--trials", str(trials),
                *digits]
        code, text = self._stdout(monkeypatch, argv)
        assert code in (0, 2) and text.startswith("trial,instrument,click_time,")
        assert (code, text) == self._stdout(monkeypatch, argv, raw_click_time=True)

    def test_signed_zeros_of_one_code_keep_their_signs(self, monkeypatch):
        # both zeros under one code: compared by value, they would share one cell
        run_trials = experiments.run_trials

        def signed_zeros(scenario):
            trials = run_trials(scenario)
            zeros = np.where(np.arange(len(trials)) % 2, -0.0, 0.0)
            return dataclasses.replace(
                trials, click_time=np.where(trials.instrument >= 0, zeros, np.nan))

        monkeypatch.setattr(experiments, "run_trials", signed_zeros)
        argv = [os.path.join(SCENARIOS, "two_guns.txt"), "--trials", "1000"]
        code, text = self._stdout(monkeypatch, argv)
        assert ",-0.0," in text and ",0.0," in text
        assert (code, text) == self._stdout(monkeypatch, argv, raw_click_time=True)

    @pytest.mark.parametrize("name,gun", [("two_guns", True), ("gun_reflection", True),
                                          ("gun_no_overlap", True), ("two_detectors", False),
                                          ("far_left_detector", False)])
    @pytest.mark.parametrize("trials", [100, 5000])  # ``percent_slots``, then the kernels
    @pytest.mark.parametrize("digits", [[], ["--digits17"]])
    def test_float_writer_sees_click_times_only_on_detector_files(
            self, tmp_path, monkeypatch, name, gun, trials, digits):
        runs, cells = self._record_runs(monkeypatch), []

        def recording(writer):
            def write(values, *args):
                cells.append(values)
                return writer(values, *args)
            return write

        for writer in ("repr_slots", "g17_slots", "percent_slots"):
            monkeypatch.setattr(shortest, writer, recording(getattr(shortest, writer)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["dce", _scenario_path(tmp_path, name), "--trials", str(trials),
                         "--out", str(tmp_path / "out.csv"), *digits]) == 0
        (click_time,) = [run.click_time for run in runs]
        shared = [np.shares_memory(values, click_time) for values in cells]
        if gun:  # scatter_x still goes through the float writer, click_time never
            assert shared and not any(shared)
        else:
            assert any(shared)


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("OK") >= 6

    def test_higher_mode(self, capsys):
        assert main(["check", "--n", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_wall_conditions_hold_at_n64(self, capsys):
        main(["check", "--n", "64"])  # the quadrature lines may still fail at n = 64
        wall = capsys.readouterr().out.splitlines()[0]
        assert wall.startswith("OK   cavity wall conditions")

    def test_wall_conditions_hold_at_small_a(self, capsys):
        main(["check", "--a", "0.001"])
        wall = capsys.readouterr().out.splitlines()[0]
        assert wall.startswith("OK   cavity wall conditions")

    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-3.0, 6.0), n=st.integers(1, 200))
    def test_wall_tolerances_scale_with_a_and_n(self, log_a, n):
        mode = ModeSpec(a=10.0**log_a, n=n)
        (e_res, b_res), (e_tol, b_tol) = boundary_check(mode), _wall_tolerances(mode)
        assert e_res <= e_tol and b_res <= b_tol

    @settings(max_examples=30, deadline=None)
    @given(log_a=st.floats(-3.0, 6.0), n=st.integers(1, 12), log_c=st.floats(-3.0, 3.0))
    def test_all_checks_pass_over_a(self, log_a, n, log_c):
        # the energy lines are relative to the ledger's total, a; c moves the split-state times
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", "--a", repr(10.0**log_a), "--n", str(n), "--c", repr(10.0**log_c)])
        assert code == 0 and "FAIL" not in out.getvalue()

    @staticmethod
    def _per_table_lines(mode):
        """The normalization lines, each integral its own call through its own closure."""
        def line(name, q):
            residual = abs(q.value - 1.0)
            return f"{'OK  ' if residual <= 1e-8 else 'FAIL'} {name}: residual {residual:.3e} (tol 1.0e-08)"

        def cavity_rho(x):
            e, b = eigenmode(mode, x, 0.35 * mode.a / mode.c)
            return e ** 2 + b ** 2

        lines = [line("cavity normalization", validation.integrate(cavity_rho, 0.0, mode.a, tol=1e-11))]
        for t in (0.0, 0.2 * mode.a / mode.c, 5.0 * mode.a / mode.c):
            pieces = split_pieces(mode, t)

            def split_rho(x, t=t):
                e, b = split_state(mode, x, t)
                return e ** 2 + b ** 2

            q = validation.integrate(split_rho, pieces[0].lo, pieces[-1].hi, tol=1e-11,
                                     breakpoints={end for p in pieces for end in (p.lo, p.hi)})
            lines.append(line(f"split-state normalization at t={t:g}", q))
        return lines

    @pytest.mark.parametrize("c", [0.5, 2.0])
    @pytest.mark.parametrize("a", [1e-3, 0.37, 1e6])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_normalization_lines_match_per_table_calls(self, capsys, n, a, c):
        main(["check", "--n", str(n), "--a", repr(a), "--c", repr(c)])
        lines = capsys.readouterr().out.splitlines()[1:5]
        assert lines == self._per_table_lines(ModeSpec(a=a, n=n, c=c))
        # the aliased Simpson start fails n = 16 and 64 (ROADMAP item 3)
        assert any(line.startswith("FAIL") for line in lines) == (n >= 16)

    def test_energy_lines_hold_at_large_a(self, capsys):
        assert main(["check", "--a", "1e6", "--n", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_wall_tolerance_is_unchanged_at_unit_length(self):
        assert _wall_tolerances(ModeSpec(n=7)) == (1e-12 * 49, 1e-12 * 49)

    @pytest.mark.parametrize("argv", [["--a", "1e300"], ["--a", "1e-300"], ["--a", "1e-210"],
                                      ["--a", "1e210"], ["--n", str(10**200)]])
    def test_outside_the_wall_range_exits_one(self, capsys, argv):
        # a ** 1.5 overflowed at 1e300 and underflowed to a ZeroDivisionError at
        # 1e-300; an int n ** 2 past the float range could not be converted
        assert main(["check", *argv]) == 1
        captured = capsys.readouterr()
        assert "outside the wall check's range" in captured.err and captured.out == ""

    def test_wall_tolerances_stay_below_the_field_scale(self):
        # the E bound 1e-12 n^2 meets E's scale sqrt(2) between these two n at a = 1
        e_tol, b_tol = _wall_tolerances(ModeSpec(n=1189207))
        assert e_tol < math.sqrt(2.0) and b_tol < ModeSpec(n=1189207).k * math.sqrt(2.0)
        with pytest.raises(ValueError, match="outside the wall check's range"):
            _wall_tolerances(ModeSpec(n=1189208))

    def test_wall_line_refuses_a_bound_past_the_field(self, capsys):
        # the bound 1e28 used to pass a residual of 1.75e20 with an OK line
        assert main(["check", "--n", "100000000000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "outside the wall check's range" in line

    @settings(max_examples=60, deadline=None)
    @given(log_a=st.floats(-205.0, 207.0))
    def test_wall_tolerances_are_positive_and_finite_inside_the_range(self, log_a):
        e_tol, b_tol = _wall_tolerances(ModeSpec(a=10.0**log_a))
        assert 0.0 < e_tol < math.inf and 0.0 < b_tol < math.inf

    def test_edges_of_a_run_without_a_traceback(self):
        for a in ("1e300", "1e-300"):
            proc = subprocess.run([sys.executable, "-m", "splitphoton.cli", "check", "--a", a],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": os.path.join(
                                      os.path.dirname(__file__), os.pardir, "src")})
            assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr

    def test_unconverged_quadrature_exits_two_with_one_error_line(self, capsys, monkeypatch):
        def diverges(*args, **kwargs):
            raise validation.QuadratureError("did not converge", validation.QuadResult(0.0, 1.0, 9))

        monkeypatch.setattr(validation, "integrate", diverges)
        assert main(["check"]) == 2
        err = capsys.readouterr().err
        assert err == "error: did not converge\n"


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv, flag", [(["energy", "--steps", "-3"], "--steps"),
                                            (["track", "--steps", "-3"], "--steps"),
                                            (["snapshot", "--s", "0.2", "--grid", "-1"], "--grid"),
                                            (["energy", "--steps", "2.5"], "--steps")])
    def test_negative_count_names_its_option(self, capsys, argv, flag):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"argument {flag}: expected a non-negative integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["energy", "--steps", "0"], ["track", "--steps", "0"],
                                      ["snapshot", "--s", "0.2", "--grid", "0"]])
    def test_zero_count_writes_the_header_only(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_keep_their_own_arguments(self, tmp_path, capsys):
        # one parser serves every call: no option value may leak into the next call
        def lines(argv):
            out = tmp_path / "out.csv"
            assert main([*argv, "--out", str(out)]) == 0
            return out.read_text().splitlines()

        assert len(lines(["energy", "--steps", "3"])) == 4
        assert len(lines(["energy"])) == 1001
        assert lines(["snapshot", "--s", "0.25", "--grid", "5"])[1].startswith("-1.0,")
        assert len(lines(["snapshot", "--t", "0.4"])) == 1025  # no --s from the call before
        assert len(lines(["track", "--steps", "6"])) == 7
        capsys.readouterr()
        assert main(["check", "--n", "4"]) == 0
        report = capsys.readouterr().out.splitlines()
        assert len(report) == 8 and all(line.startswith("OK") for line in report)
        assert len(lines(["energy", "--steps", "2", "--digits17"])) == 3
