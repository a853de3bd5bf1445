import collections
import json
import math
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from conftest import CONSTRUCTED_2D, TFIT
from test_cma import force_processes
import rtbm.cli as cli
import rtbm.density
import rtbm.errors
import rtbm.model
from rtbm.cli import build_parser, conditional_mse, run_command
from rtbm.density import condition_on, log_pdf_many
from rtbm.fit import FitConfig
from rtbm.model import RtbmParams, load_model, save_model, validate
from rtbm.theta import Lattice


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(RtbmParams(**TFIT), path)
    return path


def read_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


class TestConditionalMse:
    def test_identical_inputs(self):
        vals = np.linspace(0, 1, 11)
        assert conditional_mse(vals, vals) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(0)
        ref = rng.random(100)
        assert conditional_mse(ref, ref + 0.25) == pytest.approx(0.25 ** 2,
                                                                 rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            conditional_mse([1.0, 2.0], [1.0])


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run_command(["not-a-command"]) == 2
        assert run_command(["density", "--model"]) == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "d.csv", "--nh", "1"],
        ["sample", "--model", "m.json", "--count", "5"],
        ["student", "sample", "--mu", "0", "--sigma", "1", "--nu", "6", "--count", "5"]],
        ids=["fit", "sample", "student-sample"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_command(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert ("argument --seed: expected a non-negative integer, got '-1'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_file_is_1(self, tmp_path, capsys):
        code = run_command(["density", "--model", str(tmp_path / "nope.json"),
                            "--grid", "-1:1:5", "--out",
                            str(tmp_path / "o.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/x.csv", "taken"],
                             ids=["missing-directory", "directory-at-path"])
    def test_unwritable_out_names_it(self, where, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        out = tmp_path / where
        assert run_command(["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4",
                            "--nu", "6", "--count", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err
        assert list(tmp_path.rglob("tmp*.tmp")) == []

    def test_invalid_model_is_1(self, tmp_path, capsys):
        bad = RtbmParams(t=[[-1.0]], q=[[1.0]], w=[[0.0]], bv=[0.0], bh=[0.0])
        path = tmp_path / "bad.json"
        save_model(bad, path)
        code = run_command(["sample", "--model", str(path), "--count", "10",
                            "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "not positive definite" in capsys.readouterr().err

    def test_overflowing_model_is_1_and_named(self, tmp_path, capsys):
        big = RtbmParams(t=[[1.0]], q=[[1.0]], w=[[1e200]], bv=[0.0], bh=[0.0])
        path = tmp_path / "big_w.json"
        save_model(big, path)
        code = run_command(["sample", "--model", str(path), "--count", "10",
                            "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"model {path} is invalid: Q - W^T T^-1 W is not finite" in err

    def test_overflowing_density_point_is_1_and_named(self, tmp_path, capsys):
        big = RtbmParams(t=[[1.0]], q=[[1e301]], w=[[1e150]], bv=[0.0], bh=[0.0])
        path = tmp_path / "big_q.json"
        save_model(big, path)
        points = tmp_path / "points.csv"
        points.write_text("0.5\n1e200\n")
        code = run_command(["density", "--model", str(path), "--points-csv",
                            str(points), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "W^T v + bh is not finite" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", [["density", "--grid", "-1:1:3,-1:1:3"],
                                         ["sample", "--count", "1"]])
    def test_theta_tolerance_flag_is_a_usage_error(self, model_path, tmp_path,
                                                   capsys, command):
        out = tmp_path / "o.csv"
        code = run_command(command[:1] + ["--model", str(model_path), "--out", str(out),
                                          "--theta-eps", "1e-6"] + command[1:])
        assert code == 2
        assert "unrecognized arguments: --theta-eps 1e-6" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_normalizer_is_1_and_named(self, tmp_path, capsys):
        # the child of d = 1e200 has bh = 5e199, so its normalizer is +inf
        parent = RtbmParams(t=np.eye(2), q=[[1.0]], w=[[0.5], [0.5]], bv=[0.0, 0.0],
                            bh=[0.0])
        path = tmp_path / "child.json"
        save_model(condition_on(parent, [1], [1e200])[0], path)
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(["density", "--model", str(path), "--grid", "-1:1:3",
                                "--out", str(out)])
        assert code == 1
        assert f"model {path}: the normalizer log theta(bh - W^T T^-1 bv" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_shift_is_minus_inf_without_warning(self, tmp_path, capsys):
        # u = v + T^-1 bv overflows at this point; the quadratic form is +inf
        far = RtbmParams(t=[[1.0, 0.5], [0.5, 1.0]], q=[[1.0]], w=[[0.0], [0.0]],
                         bv=[1e308, 0.0], bh=[0.0])
        path = tmp_path / "far.json"
        save_model(far, path)
        points = tmp_path / "points.csv"
        points.write_text("1.7e308,1.7e308\n")
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(["density", "--model", str(path), "--points-csv",
                                str(points), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        row = read_csv(out)[0]
        assert row[2] == 0.0 and row[3] == -math.inf

    def test_far_density_point_is_zero_without_warning(self, tmp_path, capsys):
        # u^T T u / 2 and log theta(W^T v + bh | Q) both overflow at v = 1e200
        path = tmp_path / "m.json"
        path.write_text('{"nv":1,"nh":1,"T":[[1.0]],"Q":[[1.0]],"W":[[0.5]],'
                        '"bv":[0.0],"bh":[0.0]}')
        points = tmp_path / "points.csv"
        points.write_text("1e200\n")
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(["density", "--model", str(path), "--points-csv",
                                str(points), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        row = read_csv(out)[0]
        assert row[1] == 0.0 and row[2] == -math.inf

    def test_success_is_0(self, model_path, tmp_path):
        assert run_command(["density", "--model", str(model_path),
                            "--grid", "-2:2:9,-2:2:9",
                            "--out", str(tmp_path / "g.csv")]) == 0


class TestDensityCommand:
    def test_grid_csv_layout(self, model_path, tmp_path):
        out = tmp_path / "g.csv"
        run_command(["density", "--model", str(model_path),
                     "--grid", "-1:1:3,-1:1:3", "--out", str(out)])
        rows = read_csv(out)
        assert rows.shape == (9, 4)  # x1, x2, density, log-density
        params = load_model(model_path)
        expected = log_pdf_many(params, rows[:, :2])
        np.testing.assert_allclose(rows[:, 3], expected, atol=1e-12, rtol=0)
        np.testing.assert_allclose(rows[:, 2], np.exp(expected), rtol=1e-12)

    def test_points_csv_with_column_selection(self, model_path, tmp_path):
        pts = tmp_path / "pts.csv"
        data = np.array([[9.0, 0.1, -0.2], [9.0, 0.5, 0.7], [9.0, -1.0, 0.0]])
        np.savetxt(pts, data, delimiter=",")
        out = tmp_path / "d.csv"
        assert run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--points-cols", "1,2",
                            "--out", str(out)]) == 0
        rows = read_csv(out)
        np.testing.assert_allclose(rows[:, :2], data[:, 1:], rtol=0)

    @pytest.mark.parametrize("command", ["density", "student conditional"])
    @pytest.mark.parametrize("points", [["--grid", "-1:1:3,-1:1:3"], []])
    def test_points_cols_without_points_csv_is_named(self, model_path, tmp_path, capsys,
                                                     command, points):
        out = tmp_path / "d.csv"
        source = (["--model", str(model_path)] if command == "density" else
                  ["--mu", "0,0,0", "--sigma", "1,0,0,0,1,0,0,0,1", "--nu", "6",
                   "--on", "0=1"])
        assert run_command([*command.split(), *source, *points,
                            "--points-cols", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--points-cols" in err and "--points-csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("points, message", [
        (["--grid", "-1:1:3,-1:1:3", "--points-csv", "pts.csv"],
         "give either --grid or --points-csv, not both"),
        ([], "one of --grid or --points-csv is required")], ids=["both", "neither"])
    def test_one_source_of_points_is_required(self, model_path, tmp_path, capsys,
                                              points, message):
        out = tmp_path / "d.csv"
        assert run_command(["density", "--model", str(model_path), *points,
                            "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_grid_dimension_mismatch(self, model_path, tmp_path, capsys):
        assert run_command(["density", "--model", str(model_path),
                            "--grid", "-1:1:5", "--out",
                            str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command", ["density", "student conditional"])
    def test_width_mismatch_names_both_widths(self, model_path, tmp_path, capsys,
                                              command):
        # two columns for a 2-D model's one-coordinate child, or for the
        # one-coordinate conditional t
        child = tmp_path / "child.json"
        save_model(condition_on(load_model(model_path), [0], [-2.0])[0], child)
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.5\n0.1,0.2\n")
        out = tmp_path / "d.csv"
        argv = {"density": ["density", "--model", str(child)],
                "student conditional": ["student", "conditional", "--mu", "0,0",
                                        "--sigma", "2,-1,-1,4", "--nu", "6",
                                        "--on", "0=-2"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(argv + ["--points-csv", str(pts), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: points have width 2, expected 1\n"
        assert not out.exists()


class TestCsvOutput:
    """The CSV writer's bytes are np.savetxt's with fmt="%.17g"."""

    @pytest.mark.parametrize("rows", [
        np.array([[np.inf, -np.inf, np.nan], [-0.0, 5e-324, 1.0 / 3.0]]),
        np.array([[2.5e-308, -1.7976931348623157e308, 0.1, -7.0]]),
        np.array([[1.0], [-0.0], [np.nan], [2.2250738585072014e-308]]),
        np.arange(2 * (cli.CSV_BLOCK_ROWS + 3), dtype=float).reshape(-1, 2) / 7.0 - 5.0,
    ], ids=["special-values", "one-row", "one-column", "past-one-block"])
    def test_bytes_match_savetxt(self, tmp_path, rows):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli._write_csv(ours, rows)
        np.savetxt(theirs, rows, delimiter=",", fmt="%.17g")
        assert ours.read_bytes() == theirs.read_bytes()


def count_forks(monkeypatch):
    """A list that gets one entry per ``os.fork`` call made from now on."""
    forks, fork = [], os.fork
    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


BLOCK = cli.CSV_BLOCK_ROWS


class TestCsvOnThePool:
    """An output longer than one block is made on every CPU, with the bytes
    it has on one."""

    @pytest.mark.parametrize("processes", [1, 3])
    @pytest.mark.parametrize("count", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_bytes_match_savetxt(self, monkeypatch, tmp_path, processes, count):
        force_processes(monkeypatch, processes)
        forks = count_forks(monkeypatch)
        rows = np.random.default_rng(count).standard_normal((count, 3)) * 10.0 ** np.arange(
            -150, 150, 100)
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli._write_csv(ours, rows)
        np.savetxt(theirs, rows, delimiter=",", fmt="%.17g")
        assert ours.read_bytes() == theirs.read_bytes()
        assert len(forks) == (processes - 1 if count > BLOCK else 0)

    @pytest.mark.parametrize("argv", [
        ["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4", "--nu", "6",
         "--count", "5000"],
        ["student", "conditional", "--mu", "0,0", "--sigma", "2,-1,-1,4", "--nu", "6",
         "--on", "0=1", "--grid", f"-5:5:{BLOCK}"],
        ["density", "--grid", "-3:3:128,-3:3:128"],
        ["sample", "--count", str(BLOCK)]],
        ids=["student-sample", "student-conditional", "density", "sample"])
    def test_one_block_forks_nothing(self, monkeypatch, model_path, tmp_path, argv):
        forks = count_forks(monkeypatch)
        if argv[0] != "student":
            argv = argv[:1] + ["--model", str(model_path)] + argv[1:]
        assert run_command(argv + ["--out", str(tmp_path / "o.csv")]) == 0
        assert read_csv(tmp_path / "o.csv").shape[0] <= BLOCK
        assert forks == []

    @pytest.mark.parametrize("model", [TFIT, CONSTRUCTED_2D], ids=["tfit", "constructed-2d"])
    @pytest.mark.parametrize("command", [["density", "--grid", "-3:3:130,-3:3:131"],
                                         ["sample", "--count", "40000", "--seed", "3"]],
                             ids=["density", "sample"])
    def test_same_bytes_on_one_process_and_on_several(self, monkeypatch, tmp_path,
                                                      model, command):
        path = tmp_path / "model.json"
        save_model(RtbmParams(**model), path)
        outputs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"{processes}.csv"
            assert run_command(command[:1] + ["--model", str(path), "--out", str(out)]
                               + command[1:]) == 0
            outputs.append(out.read_bytes())
        assert read_csv(tmp_path / "1.csv").shape[0] > BLOCK
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("command", [
        ["sample", "--count", "40000"],
        ["conditional", "--on", "0=-2", "--grid", "-10:10:40001"]], ids=["sample", "conditional"])
    def test_student_same_bytes_on_one_process_and_on_several(self, monkeypatch, tmp_path,
                                                              command):
        outputs = []
        for processes in (1, 2):
            force_processes(monkeypatch, processes)
            out = tmp_path / f"{processes}.csv"
            assert run_command(["student", command[0], "--mu", "0,0", "--sigma", "2,-1,-1,4",
                                "--nu", "6", "--out", str(out)] + command[1:]) == 0
            outputs.append(out.read_bytes())
        assert read_csv(tmp_path / "1.csv").shape[0] > BLOCK
        assert outputs[1] == outputs[0]

    def test_density_sums_the_normalizer_once(self, monkeypatch, tmp_path):
        # each process that makes blocks sums the normalizer (one batch-1 sum)
        # when it first reads it, and keeps it on the model for its other blocks
        path = tmp_path / "child.json"
        save_model(condition_on(RtbmParams(**TFIT), [0], [-2.0])[0], path)
        log = tmp_path / "sums.txt"
        real = rtbm.density._log_theta_rows

        def logged(z, *args, **kwargs):
            with open(log, "a") as fh:      # appended to by every process
                fh.write(f"{os.getpid()} {z.shape[1]}\n")
            return real(z, *args, **kwargs)

        monkeypatch.setattr(rtbm.density, "_log_theta_rows", logged)
        monkeypatch.setattr(rtbm.model, "_log_theta_rows", logged)
        outputs = []
        for processes in (2, 1):
            force_processes(monkeypatch, processes)
            log.write_text("")
            out = tmp_path / f"{processes}.csv"
            assert run_command(["density", "--model", str(path), "--grid", "-10:10:40001",
                                "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
            sums = [line.split() for line in log.read_text().splitlines()]
            counts = collections.Counter(pid for pid, batch in sums if batch == "1")
            assert counts and max(counts.values()) == 1
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_overflow_names_the_whole_input(self, monkeypatch, tmp_path, capsys, processes):
        # W^T v + bh overflows at the points 1e200, the first in the fifth block
        big = RtbmParams(t=[[1.0]], q=[[1e301]], w=[[1e150]], bv=[0.0], bh=[0.0])
        path = tmp_path / "big_q.json"
        save_model(big, path)
        pts = np.full((3 * BLOCK + 5, 1), 0.5)
        pts[[4 * cli.CSV_ITEM_ROWS + 7, 3 * BLOCK, 3 * BLOCK + 4]] = 1e200
        points = tmp_path / "points.csv"
        np.savetxt(points, pts, delimiter=",")
        force_processes(monkeypatch, processes)
        out = tmp_path / "d.csv"
        code = run_command(["density", "--model", str(path), "--points-csv", str(points),
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: model {path}: W^T v + bh is not finite (overflow) at 3 point(s), "
            f"first at index {4 * cli.CSV_ITEM_ROWS + 7}\n")
        assert set(tmp_path.iterdir()) == {path, points}

    @pytest.mark.parametrize("processes", [1, 2])
    def test_truncation_counts_the_whole_input(self, monkeypatch, tmp_path, capsys,
                                               processes):
        # the normalizer's Schur matrix diag(1e-4, 1e-4, 1, 1) sums, but no form of
        # Q = diag(1e-4, 1e-4, 1e4, 1e4) can be certified under the work cap
        w = np.zeros((2, 4))
        w[0, 2] = w[1, 3] = math.sqrt(1e4 - 1.0)
        path = tmp_path / "wide_q.json"
        save_model(RtbmParams(t=np.eye(2), q=np.diag([1e-4, 1e-4, 1e4, 1e4]), w=w,
                              bv=[0.0, 0.0], bh=np.zeros(4)), path)
        force_processes(monkeypatch, processes)
        out = tmp_path / "d.csv"
        code = run_command(["density", "--model", str(path), "--grid", "-1:1:129,-1:1:128",
                            "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: model {path}: 16512 of 16512 lattice sums not "
                              "converged: eps=1e-12 needs up to ")
        assert not out.exists()

    @pytest.mark.parametrize("error", [
        rtbm.errors.RtbmError("a model error"),
        rtbm.errors.ThetaTruncationError("3 of 5 lattice sums not converged"),
        rtbm.errors.NotPositiveDefiniteError("T is not positive definite", lambda: -0.5),
        rtbm.errors.InsufficientSamplesError("too few"),
        rtbm.errors.FitError("no fit")], ids=lambda e: type(e).__name__)
    def test_a_blocks_error_reaches_the_caller_as_itself(self, monkeypatch, tmp_path,
                                                         error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        force_processes(monkeypatch, 2)
        caller = os.getpid()
        claimed = tmp_path / "claimed"

        def rows(part):
            if os.getpid() != caller:
                claimed.touch()
                raise error
            deadline = time.monotonic() + 60    # until the worker has claimed a block
            while not claimed.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return np.zeros((part.stop - part.start, 1))
        out = tmp_path / "out" / "o.csv"
        out.parent.mkdir()
        with pytest.raises(type(error)) as raised:
            cli._write_csv(out, rows, 2 * BLOCK)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert list(out.parent.iterdir()) == []


class TestGridBounds:
    @pytest.mark.parametrize("command", ["density", "student conditional"])
    @pytest.mark.parametrize("component", ["0:inf:3", "-inf:0:3", "-1e308:1e308:3"])
    def test_non_finite_bounds_are_named(self, model_path, tmp_path, capsys,
                                         command, component):
        # -1e308:1e308 has finite bounds, but hi - lo overflows
        out = tmp_path / "d.csv"
        argv = {"density": ["density", "--model", str(model_path),
                            f"--grid={component},0:1:2"],
                "student conditional": ["student", "conditional", "--mu", "0,0",
                                        "--sigma", "2,-1,-1,4", "--nu", "6",
                                        "--on", "0=1", f"--grid={component}"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(argv + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad grid component {component!r}: lo, hi and hi - lo "
            f"must be finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("component", ["1:0:5", "0:1:1"])
    def test_empty_range_or_one_node_is_named(self, model_path, tmp_path, capsys,
                                              component):
        out = tmp_path / "d.csv"
        assert run_command(["density", "--model", str(model_path),
                            f"--grid={component},0:1:2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad grid component {component!r}: need lo < hi, nodes >= 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["density", "student conditional"])
    def test_grid_is_checked_before_it_is_meshed(self, model_path, tmp_path, capsys,
                                                 command):
        import tracemalloc

        # two dimensions of 10^4 nodes for one coordinate: 10^8 two-coordinate
        # rows (1.6 GB) if meshed
        child = tmp_path / "child.json"
        save_model(condition_on(load_model(model_path), [0], [-2.0])[0], child)
        out = tmp_path / "d.csv"
        argv = {"density": ["density", "--model", str(child)],
                "student conditional": ["student", "conditional", "--mu", "0,0",
                                        "--sigma", "2,-1,-1,4", "--nu", "6",
                                        "--on", "0=-2"]}[command]
        tracemalloc.start()
        try:
            code = run_command(argv + ["--grid", "-1:1:10000,-1:1:10000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == "error: --grid has 2 dimension(s), expected 1\n"
        assert peak < 16 * 2**20
        assert not out.exists()

    def test_grid_past_the_point_cap_is_named(self, model_path, tmp_path, capsys):
        out = tmp_path / "d.csv"
        nodes = math.isqrt(cli.GRID_POINT_CAP) + 1
        code = run_command(["density", "--model", str(model_path), "--out", str(out),
                            "--grid", f"-1:1:{nodes},-1:1:{nodes}"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --grid has {nodes * nodes} points, above the cap of "
            f"{cli.GRID_POINT_CAP}\n")
        assert not out.exists()


class TestConditionalCommand:
    def test_matches_in_process_conditioning(self, model_path, tmp_path):
        child_path = tmp_path / "child.json"
        assert run_command(["conditional", "--model", str(model_path),
                            "--on", "0=-2", "--out", str(child_path)]) == 0
        out = tmp_path / "child_density.csv"
        assert run_command(["density", "--model", str(child_path),
                            "--grid", "-10:10:401", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows.shape == (401, 3)
        child, _ = condition_on(RtbmParams(**TFIT), [0], [-2.0])
        expected = log_pdf_many(child, rows[:, :1])
        np.testing.assert_allclose(rows[:, 2], expected, atol=1e-12, rtol=0)

    def test_child_model_round_trips(self, model_path, tmp_path):
        child_path = tmp_path / "child.json"
        run_command(["conditional", "--model", str(model_path),
                     "--on", "1=0.5", "--out", str(child_path)])
        child = load_model(child_path)
        assert validate(child).valid
        direct, _ = condition_on(RtbmParams(**TFIT), [1], [0.5])
        for name in ("t", "q", "w", "bv", "bh"):
            np.testing.assert_array_equal(getattr(child, name),
                                          getattr(direct, name))

    def test_bad_on_syntax(self, model_path, tmp_path):
        assert run_command(["conditional", "--model", str(model_path),
                            "--on", "0:-2", "--out",
                            str(tmp_path / "c.json")]) == 1

    def test_model_is_validated_once(self, model_path, tmp_path, monkeypatch):
        import rtbm.density
        reports = []

        def counted(params):
            reports.append(params)
            return validate(params)

        # the command checks the model it loads, condition_on the parent it conditions
        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(rtbm.density, "validate", counted)
        assert run_command(["conditional", "--model", str(model_path),
                            "--on", "0=-2", "--out", str(tmp_path / "c.json")]) == 0
        assert len(reports) == 1


class TestSampleCommand:
    def test_seeded_and_deterministic(self, model_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        meta = tmp_path / "meta.json"
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "200", "--seed", "3", "--out", str(a),
                            "--meta", str(meta)]) == 0
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "200", "--seed", "3", "--out", str(b)]) == 0
        np.testing.assert_array_equal(read_csv(a), read_csv(b))
        doc = json.loads(meta.read_text())
        assert doc["seed"] == 3 and "PCG64" in doc["rng"]

    def test_environment_is_ignored(self, model_path, tmp_path, monkeypatch):
        # flags are the only source of a setting; these values are not even ints
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "50", "--seed", "0", "--out", str(a)]) == 0
        for var, value in [("RTBM_SEED", "abc"), ("RTBM_RESTARTS", "x"),
                           ("RTBM_MAX_EVALS", "1e3")]:
            monkeypatch.setenv(var, value)
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "50", "--out", str(b)]) == 0
        np.testing.assert_array_equal(read_csv(a), read_csv(b))

    def test_unallocatable_count_is_1(self, model_path, tmp_path, capsys,
                                      monkeypatch):
        # with the cap out of the way, 1e15 draws need petabytes, so the
        # first allocation fails on any host
        monkeypatch.setattr(cli, "DRAW_VALUE_CAP", 1 << 62)
        out = tmp_path / "s.csv"
        code = run_command(["sample", "--model", str(model_path), "--count",
                            "1000000000000000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


def _sample_argv(command, model_path):
    """The argv of a two-coordinate sample command, before --count and --out."""
    return {"sample": ["sample", "--model", str(model_path)],
            "student sample": ["student", "sample", "--mu", "0,0",
                               "--sigma", "2,-1,-1,4", "--nu", "6"]}[command]


class TestDrawBound:
    @pytest.mark.parametrize("command", ["sample", "student sample"])
    def test_count_is_checked_before_anything_is_drawn(self, model_path, tmp_path,
                                                       capsys, command):
        import tracemalloc

        # 10^15 two-coordinate draws: 16 PB of values if drawn
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            code = run_command(_sample_argv(command, model_path)
                               + ["--count", "1000000000000000", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --count 1000000000000000 draws 2000000000000000 values, "
            f"above the cap of {cli.DRAW_VALUE_CAP}\n")
        assert peak < 16 * 2**20
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "student sample"])
    def test_cap_bounds_count_times_width(self, model_path, tmp_path, capsys,
                                          monkeypatch, command):
        # two coordinates per draw: 5 draws fill a cap of 10 values, 6 pass it
        monkeypatch.setattr(cli, "DRAW_VALUE_CAP", 10)
        out = tmp_path / "s.csv"
        argv = _sample_argv(command, model_path)
        assert run_command(argv + ["--count", "5", "--out", str(out)]) == 0
        assert read_csv(out).shape == (5, 2)
        out.unlink()
        assert run_command(argv + ["--count", "6", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --count 6 draws 12 values, above the cap of 10\n")
        assert not out.exists()


class TestMseCommand:
    def test_model_against_itself_is_zero(self, model_path, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run_command(["density", "--model", str(model_path),
                     "--grid", "-3:3:25,-3:3:25", "--out", str(out)])
        assert run_command(["mse", "--ref", str(out), "--cand", str(out)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_density_column_flag_is_a_usage_error(self, capsys):
        code = run_command(["mse", "--ref", "ref.csv", "--cand", "cand.csv",
                            "--density-col", "1"])
        assert code == 2
        assert "unrecognized arguments: --density-col 1" in capsys.readouterr().err


class TestStudentCommands:
    def test_sample_shape_and_seed(self, tmp_path):
        out = tmp_path / "t.csv"
        args = ["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4",
                "--nu", "6", "--count", "100", "--seed", "5", "--out", str(out)]
        assert run_command(args) == 0
        first = read_csv(out)
        assert first.shape == (100, 2)
        run_command(args)
        np.testing.assert_array_equal(first, read_csv(out))

    def test_conditional_density_file(self, tmp_path):
        out = tmp_path / "ref.csv"
        assert run_command(["student", "conditional", "--mu", "0,0",
                            "--sigma", "2,-1,-1,4", "--nu", "6",
                            "--on", "0=-2", "--grid", "-10:10:101",
                            "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows.shape == (101, 3)
        # conditional at x1=-2 is a t with loc 1, scale^2 4, df 7: check mode
        peak = rows[np.argmax(rows[:, 1]), 0]
        assert peak == pytest.approx(1.0, abs=0.2)
        xs = rows[:, 0]
        assert np.trapezoid(rows[:, 1], xs) == pytest.approx(1.0, abs=1e-2)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv, message", [
        (["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4", "--nu", "nan",
          "--count", "5"], "nu must be finite and positive, got nan"),
        (["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1,4", "--nu", "inf",
          "--count", "5"], "nu must be finite and positive, got inf"),
        (["student", "sample", "--mu", "nan,0", "--sigma", "2,-1,-1,4", "--nu", "6",
          "--count", "5"], "mu contains non-finite entries"),
        (["student", "conditional", "--mu", "0,0", "--sigma", "2,-1,-1,nan",
          "--nu", "6", "--on", "0=1", "--grid", "-1:1:5"],
         "sigma contains non-finite entries"),
        (["student", "conditional", "--mu", "0,0", "--sigma", "2,-1,-1,4",
          "--nu", "6", "--on", "0=nan", "--grid", "-1:1:5"],
         "conditioning value at index 0 is not finite"),
        # the conditional's scale overflows: it is refused when it is built
        (["student", "conditional", "--mu", "0,0", "--sigma", "2,-1,-1,4",
          "--nu", "6", "--on", "0=1e200", "--grid", "-1:1:5"],
         "sigma contains non-finite entries"),
    ])
    def test_is_1_and_named(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_command(argv + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_conditioning_value_is_named(self, model_path, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run_command(["conditional", "--model", str(model_path),
                            "--on", "1=0.5,0=-inf", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: conditioning value at index 0 is not finite\n")
        assert not out.exists()


class TestNonFiniteData:
    def test_fit_rejects_nan_row(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1.0,2.0\nnan,1.0\n0.5,0.1\n")
        code = run_command(["fit", "--data", str(data), "--nh", "1",
                            "--restarts", "1", "--max-evals", "8",
                            "--out", str(tmp_path / "fm.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(data) in err and "row 2" in err
        assert not (tmp_path / "fm.json").exists()

    def test_density_rejects_inf_point(self, model_path, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.5\n0.1,inf\n")
        out = tmp_path / "d.csv"
        code = run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(pts) in err and "row 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["x", "nan"])
    def test_bad_cell_names_its_row_from_one(self, model_path, tmp_path, capsys, cell):
        # a cell that is not a number and a NaN are reported by different
        # checks, which count rows alike
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0.0,0.5\n0.1,{cell}\n")
        out = tmp_path / "d.csv"
        assert run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(pts) in err and "row 2" in err and "row 1" not in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.1,x", "0.1,nan", "0.1"],
                             ids=["cell", "nan", "ragged"])
    def test_bad_row_names_its_line(self, model_path, tmp_path, capsys, row):
        # np.loadtxt skips the comment and the blank line, and counts this row as its 2nd
        pts = tmp_path / "pts.csv"
        pts.write_text(f"# c\n0.0,0.5\n\n{row}\n")
        out = tmp_path / "d.csv"
        assert run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(pts) in err and "row 4" in err and "row 2" not in err
        assert not out.exists()

    def test_unused_column_is_not_checked(self, model_path, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.5,nan\n0.1,0.2,nan\n")
        assert run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--points-cols", "0,1",
                            "--out", str(tmp_path / "d.csv")]) == 0

    @pytest.mark.parametrize("command", ["fit", "density"])
    def test_empty_csv_is_a_named_data_error(self, model_path, tmp_path, capsys,
                                             command):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        argv = {"fit": ["fit", "--data", str(empty), "--nh", "1"],
                "density": ["density", "--model", str(model_path),
                            "--points-csv", str(empty)]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # loadtxt warns on an empty file
            code = run_command(argv + ["--out", str(out)])
        assert code == 1
        assert f"error: {empty}: no data rows" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommand:
    @pytest.mark.slow
    def test_fit_writes_model_trace_meta(self, tmp_path):
        rng = np.random.default_rng(2)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.standard_normal((400, 1)), delimiter=",")
        out = tmp_path / "fit.json"
        code = run_command(["fit", "--data", str(data_path), "--nh", "1",
                            "--seed", "7", "--restarts", "2",
                            "--max-evals", "400", "--out", str(out)])
        assert code == 0
        params = load_model(out)
        assert validate(params).valid
        trace = read_csv(tmp_path / "fit.json.trace.csv")
        assert trace.shape[1] == 2
        meta = json.loads((tmp_path / "fit.json.meta.json").read_text())
        assert meta["config"]["seed"] == 7
        assert sorted(meta["config"]) == ["lattice", "max_evals", "n_h", "restarts",
                                          "seed"]
        assert math.isfinite(meta["nll"])

    def test_defaults_are_the_fit_config_defaults(self):
        args = build_parser().parse_args(["fit", "--data", "d.csv", "--nh", "2",
                                          "--out", "m.json"])
        config = FitConfig(n_h=2)
        assert (args.seed, args.restarts, args.max_evals) == (
            config.seed, config.restarts, config.max_evals)
        assert Lattice(args.lattice) is config.lattice

    def test_defaults_do_not_leak_between_invocations(self, tmp_path):
        # run_command parses with one parser for the whole process
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.random.default_rng(2).standard_normal((50, 1)),
                   delimiter=",")
        seeds = []
        for extra in (["--seed", "5"], []):
            out = tmp_path / f"fit{len(seeds)}.json"
            assert run_command(["fit", "--data", str(data_path), "--nh", "1",
                                "--restarts", "1", "--max-evals", "8",
                                "--out", str(out), *extra]) == 0
            meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
            seeds.append(meta["config"]["seed"])
        assert seeds == [5, FitConfig.seed]

    def test_wall_time_does_not_follow_the_clock(self, tmp_path, monkeypatch):
        # the wall clock is set back an hour while the fit runs
        import time
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.random.default_rng(2).standard_normal((50, 1)),
                   delimiter=",")
        clock, shift, fit = time.time, [0.0], cli.fit_density

        def fit_while_the_clock_is_set_back(*args):
            result = fit(*args)
            shift[0] = 3600.0
            return result

        monkeypatch.setattr(time, "time", lambda: clock() - shift[0])
        monkeypatch.setattr(cli, "fit_density", fit_while_the_clock_is_set_back)
        out = tmp_path / "fit.json"
        assert run_command(["fit", "--data", str(data_path), "--nh", "1", "--restarts", "1",
                            "--max-evals", "8", "--out", str(out)]) == 0
        meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
        assert meta["wall_time_s"] >= 0

    @pytest.mark.parametrize("flag", [["--population", "8"], ["--sigma0", "0.5"],
                                      ["--standardize"], ["--theta-eps", "1e-6"]])
    def test_fixed_tuning_flags_are_usage_errors(self, tmp_path, capsys, flag):
        data = tmp_path / "data.csv"
        data.write_text("1.0,2.0\n0.5,0.1\n")
        # a small budget, so that a flag that is accepted fails fast
        code = run_command(["fit", "--data", str(data), "--nh", "1", "--restarts", "1",
                            "--max-evals", "8", "--out", str(tmp_path / "fm.json")] + flag)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "fm.json").exists()



ILL_TYPED_T = {"nv": 1, "nh": 1, "T": "x", "Q": [[1]], "W": [[0]], "bv": [0], "bh": [0]}


class TestMalformedModelFile:
    @pytest.mark.parametrize("doc, field", [({"nv": 2, "nh": 1}, "missing field 'T'"),
                                            ([1, 2], "JSON object"),
                                            (ILL_TYPED_T, "field 'T' is not")])
    def test_is_data_error_naming_file_and_field(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_command(["density", "--model", str(path), "--grid", "-1:1:3",
                            "--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    @pytest.mark.parametrize("field, entries, message", [
        ("W", [1, 2, 3], "W has 3 entries, expected 2"),
        ("bv", [0, 0, 0], "bv has 3 entries, expected 2")])
    def test_wrong_length_names_field(self, tmp_path, capsys, field, entries, message):
        doc = {"nv": 2, "nh": 1, "T": [[1, 0], [0, 1]], "Q": [[4]], "W": [[0], [0]],
               "bv": [0, 0], "bh": [0], field: entries}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run_command(["density", "--model", str(path), "--grid", "-1:1:3",
                            "--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    @pytest.mark.parametrize("content, reason", [
        (b"0.1,0.2\n0.3,0.4\n", "Extra data: line 1 column 4 (char 3)"),
        (b'{"nv": \xff}', "'utf-8' codec can't decode byte 0xff in position 7"),
    ], ids=["csv", "not-utf-8"])
    def test_unparsable_file_is_named(self, tmp_path, capsys, content, reason):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        out = tmp_path / "d.csv"
        code = run_command(["density", "--model", str(path), "--grid", "-1:1:3,-1:1:3",
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: model {path}: {reason}")
        assert not out.exists()

    def test_load_model_raises_rtbm_error(self, tmp_path):
        from rtbm.errors import RtbmError
        path = tmp_path / "bad.json"
        path.write_text('{"nv": 2, "nh": 1}')
        with pytest.raises(RtbmError, match="missing field 'T'"):
            load_model(path)


class TestMalformedInputsAreNamed:
    @pytest.mark.parametrize("command", ["density", "fit", "mse-ref", "mse-cand"])
    def test_non_numeric_csv_cell(self, model_path, tmp_path, capsys, command):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("0.1,0.2\n0.3,0.4\n")
        bad.write_text("0.1,0.2\n0.3,x\n")
        out = tmp_path / "out.csv"
        argv = {"density": ["density", "--model", str(model_path), "--points-csv", str(bad),
                            "--out", str(out)],
                "fit": ["fit", "--data", str(bad), "--nh", "1", "--out", str(out)],
                "mse-ref": ["mse", "--ref", str(bad), "--cand", str(good)],
                "mse-cand": ["mse", "--ref", str(good), "--cand", str(bad)]}[command]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        # the rest of the message is numpy's
        assert err.startswith(f"error: {bad}: ") and "'x'" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["density", "--points-csv", "{pts}", "--points-cols", "a"],
         "bad --points-cols item 'a': not an integer"),
        (["density", "--points-csv", "{pts}", "--points-cols", "0,"],
         "bad --points-cols item '': not an integer"),
        (["conditional", "--on", "x=1"], "bad conditioning component 'x=1': not an integer"),
        (["conditional", "--on", "0=a"], "bad conditioning component '0=a': not a number"),
        (["conditional", "--on", "0:-2"], "bad conditioning component '0:-2': want idx=value"),
        (["density", "--grid", "a:1:3,0:1:3"], "bad grid component 'a:1:3': not a number"),
        (["density", "--grid", "-1:1:2.5"], "bad grid component '-1:1:2.5': not an integer"),
        (["density", "--grid", "-1:1"], "bad grid component '-1:1': want lo:hi:nodes"),
        (["student", "sample", "--mu", "0,a", "--sigma", "2,-1,-1,4", "--nu", "6",
          "--count", "5"], "bad --mu item 'a': not a number"),
        (["student", "sample", "--mu", "0,0", "--sigma", "2,-1,b,4", "--nu", "6",
          "--count", "5"], "bad --sigma item 'b': not a number"),
        (["student", "sample", "--mu", "0,0", "--sigma", "2,-1,-1", "--nu", "6",
          "--count", "5"], "--sigma: expected 4 row-major entries, got 3"),
    ], ids=["points-cols", "points-cols-empty", "on-index", "on-value", "on-syntax",
            "grid-bound", "grid-nodes", "grid-syntax", "mu", "sigma", "sigma-count"])
    def test_bad_flag_item(self, model_path, tmp_path, capsys, flags, message):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.1,0.2\n0.3,0.4\n")
        out = tmp_path / "out.csv"
        argv = [flag.format(pts=pts) for flag in flags]
        if argv[0] != "student":
            argv[1:1] = ["--model", str(model_path)]
        assert run_command(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestIndicesOutOfRange:
    def test_points_column(self, model_path, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.5\n0.1,0.2\n")
        code = run_command(["density", "--model", str(model_path),
                            "--points-csv", str(pts), "--points-cols", "0,7",
                            "--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(pts) in err and "column 7" in err

    def test_mse_density_column(self, tmp_path, capsys):
        # mse compares the second-to-last column, which a 1-column CSV lacks
        one = tmp_path / "one.csv"
        one.write_text("0.1\n0.2\n")
        code = run_command(["mse", "--ref", str(one), "--cand", str(one)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(one) in err and "column -2" in err

    def test_student_conditioned_index(self, tmp_path, capsys):
        code = run_command(["student", "conditional", "--mu", "0,0",
                            "--sigma", "2,-1,-1,4", "--nu", "6", "--on", "7=1",
                            "--grid", "-1:1:5", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "conditioned indices must be in [0, 2)" in capsys.readouterr().err
