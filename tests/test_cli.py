import json
import math
import warnings

import numpy as np
import pytest

from conftest import TFIT
from rtbm.cli import conditional_mse, run_command
from rtbm.density import condition_on, log_pdf_many
from rtbm.model import RtbmParams, load_model, save_model, validate


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

    def test_missing_file_is_1(self, tmp_path, capsys):
        code = run_command(["density", "--model", str(tmp_path / "nope.json"),
                            "--grid", "-1:1:5", "--out",
                            str(tmp_path / "o.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

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

    def test_grid_dimension_mismatch(self, model_path, tmp_path, capsys):
        assert run_command(["density", "--model", str(model_path),
                            "--grid", "-1:1:5", "--out",
                            str(tmp_path / "x.csv")]) == 1


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


class TestMseCommand:
    def test_model_against_itself_is_zero(self, model_path, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run_command(["density", "--model", str(model_path),
                     "--grid", "-3:3:25,-3:3:25", "--out", str(out)])
        assert run_command(["mse", "--ref", str(out), "--cand", str(out)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0


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


class TestEnvOverrides:
    def test_seed_from_environment(self, model_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RTBM_SEED", "77")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        # argv seed omitted: both runs must use the env seed and agree
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "50", "--out", str(a)]) == 0
        assert run_command(["sample", "--model", str(model_path), "--count",
                            "50", "--out", str(b)]) == 0
        np.testing.assert_array_equal(read_csv(a), read_csv(b))

    @pytest.mark.parametrize("var, value", [("RTBM_SEED", "abc"),
                                            ("RTBM_MAX_EVALS", "1e3")])
    def test_malformed_environment_is_usage_error(self, model_path, tmp_path,
                                                  monkeypatch, capsys, var, value):
        monkeypatch.setenv(var, value)
        code = run_command(["sample", "--model", str(model_path), "--count",
                            "1", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{var}={value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_flag_beats_environment(self, model_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RTBM_SEED", "77")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_command(["sample", "--model", str(model_path), "--count", "50",
                     "--seed", "78", "--out", str(a)])
        monkeypatch.delenv("RTBM_SEED")
        run_command(["sample", "--model", str(model_path), "--count", "50",
                     "--seed", "78", "--out", str(b)])
        np.testing.assert_array_equal(read_csv(a), read_csv(b))


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

    def test_load_model_raises_rtbm_error(self, tmp_path):
        from rtbm.errors import RtbmError
        path = tmp_path / "bad.json"
        path.write_text('{"nv": 2, "nh": 1}')
        with pytest.raises(RtbmError, match="missing field 'T'"):
            load_model(path)


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

    def test_mse_density_column(self, model_path, tmp_path, capsys):
        out = tmp_path / "g.csv"
        run_command(["density", "--model", str(model_path),
                     "--grid", "-1:1:3,-1:1:3", "--out", str(out)])
        code = run_command(["mse", "--ref", str(out), "--cand", str(out),
                            "--density-col", "9"])
        assert code == 1
        err = capsys.readouterr().err
        assert str(out) in err and "column 9" in err

    def test_student_conditioned_index(self, tmp_path, capsys):
        code = run_command(["student", "conditional", "--mu", "0,0",
                            "--sigma", "2,-1,-1,4", "--nu", "6", "--on", "7=1",
                            "--grid", "-1:1:5", "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "conditioned indices must be in [0, 2)" in capsys.readouterr().err
