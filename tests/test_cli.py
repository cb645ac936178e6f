import dataclasses
import io
import json
import math

import numpy as np
import pytest

from schattenmc.cli import main
from schattenmc.data import GrayImage, gen_synthetic, write_pgm
from schattenmc.palm import SolveFailure
from schattenmc.sparse_obs import SparseObservations

from conftest import philox

ML_LINES = "\n".join(
    f"{u}::{i}::{v}"
    for u, i, v in [
        (1, 10, 4.0), (1, 11, 3.0), (1, 12, 5.0), (2, 10, 2.0), (2, 11, 4.5),
        (2, 13, 3.0), (3, 11, 1.0), (3, 12, 4.0), (3, 13, 2.5), (4, 10, 3.5),
        (4, 12, 2.0), (4, 13, 4.0), (5, 10, 1.5), (5, 11, 2.0), (5, 12, 3.0),
        (6, 11, 4.0), (6, 13, 5.0), (6, 10, 2.5), (7, 12, 1.0), (7, 13, 3.5),
    ]
) + "\n"


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def fail_solve(obs, cfg):
    raise SolveFailure("boom", [2.0, 1.0])


def with_input(tmp_path, argv):
    """``argv`` plus a valid ``--input`` file for the commands that read one."""
    if argv[0] == "complete":
        path = tmp_path / "ratings.dat"
        path.write_text(ML_LINES)
    elif argv[0] == "image":
        path = tmp_path / "input.pgm"
        with open(path, "wb") as fh:
            write_pgm(GrayImage(np.full((8, 8), 100, dtype=np.uint8)), fh)
    else:
        return argv
    return [*argv, "--input", str(path)]


def strip_timing_csv(text):
    lines = text.strip().splitlines()
    return "\n".join(",".join(ln.split(",")[:-1]) for ln in lines)


def strip_timing_json(payload):
    payload = json.loads(json.dumps(payload))
    payload.get("manifest", {}).pop("wall_time_s", None)
    payload.get("manifest", {}).pop("timestamp_utc", None)
    return payload


class TestSynth:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "synth", "--m", "20", "--n", "20", "--rank", "2", "--sr", "0.5",
                "--nf", "0.0", "--lambda", "0.01", "--runs", "2", "--seed", "7",
                "--max-iters", "200", "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "runs.csv")
        assert header == [
            "run", "seed", "iterations", "converged", "final_objective", "rse", "wall_ms",
        ]
        assert len(rows) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["manifest"]["schema"] == "schatten-mc/1"
        assert summary["runs_completed"] == 2
        assert summary["rse_mean"] is not None

    def test_default_d_is_125_percent_of_rank(self, tmp_path):
        out = tmp_path / "d"
        rc = main(
            [
                "synth", "--m", "12", "--n", "12", "--rank", "5", "--sr", "0.9",
                "--runs", "1", "--max-iters", "5", "--lambda", "0.01",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["d"] == 6
        assert summary["manifest"]["config"]["rank"] == 5

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a"
        args = [
            "synth", "--m", "15", "--n", "15", "--rank", "2", "--sr", "0.6",
            "--lambda", "0.05", "--runs", "2", "--seed", "3", "--max-iters", "100",
            "--out", str(out),
        ]
        assert main(args) == 0
        body1 = strip_timing_csv((out / "runs.csv").read_text())
        s1 = strip_timing_json(json.loads((out / "summary.json").read_text()))
        assert main(args) == 0
        body2 = strip_timing_csv((out / "runs.csv").read_text())
        s2 = strip_timing_json(json.loads((out / "summary.json").read_text()))
        assert body1 == body2
        assert s1 == s2

    def test_numerical_failure_keeps_partial_outputs(self, tmp_path, monkeypatch, capsys):
        import schattenmc.cli as cli_mod
        from schattenmc.linalg import NumericalError

        real_solve = cli_mod.solve
        calls = {"n": 0}

        def flaky(obs, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericalError("synthetic breakdown")
            return real_solve(obs, cfg)

        monkeypatch.setattr(cli_mod, "solve", flaky)
        out = tmp_path / "partial"
        rc = main(
            [
                "synth", "--m", "12", "--n", "12", "--rank", "2", "--sr", "0.5",
                "--lambda", "0.1", "--runs", "3", "--seed", "1",
                "--max-iters", "50", "--out", str(out),
            ]
        )
        assert rc == 3
        _, rows = read_csv_rows(out / "runs.csv")
        assert len(rows) == 1  # the completed run survives
        summary = json.loads((out / "summary.json").read_text())
        assert "error" in summary
        assert "numerical failure" in capsys.readouterr().err

    def test_solve_failure_keeps_partial_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("schattenmc.cli.solve", fail_solve)
        out = tmp_path / "fail"
        rc = main(["synth", "--m", "12", "--n", "12", "--rank", "2", "--out", str(out)])
        assert rc == 3
        assert "boom" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "run 0: boom"
        assert summary["objective_trace"] == [2.0, 1.0]
        assert summary["runs_completed"] == 0
        assert summary["manifest"]["wall_time_s"] > 0.0

    def test_eigh_failure_exits_3_with_partial_trace(self, tmp_path, monkeypatch, capsys):
        # the loop's shrinkage runs on LAPACK eigh; its third call fails,
        # inside the first run's third step
        original, calls = np.linalg.eigh, {"n": 0}

        def flaky(a, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", flaky)
        out = tmp_path / "fail"
        rc = main(["synth", "--m", "12", "--n", "12", "--rank", "2", "--out", str(out)])
        assert rc == 3
        assert "eigh did not converge" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert "eigh did not converge" in summary["error"]
        assert len(summary["objective_trace"]) == 3
        assert summary["runs_completed"] == 0

    @pytest.mark.parametrize("reg", ["fn", "bin"])
    def test_loss_overflow_exits_3(self, tmp_path, monkeypatch, capsys, reg):
        # gen_synthetic(30, 30, 3, 0.1, 0.5, 1) with every value x 1e160: the
        # blocks stay finite, but the start's squared residual norm overflows
        def huge(*args):
            inst = gen_synthetic(30, 30, 3, 0.1, 0.5, 1)
            o = inst.observations
            big = SparseObservations(o.m, o.n, o.row_idx, o.col_idx, o.values * 1e160)
            return dataclasses.replace(inst, observations=big)

        monkeypatch.setattr("schattenmc.cli.gen_synthetic", huge)
        out = tmp_path / "huge"
        rc = main(
            ["synth", "--m", "30", "--n", "30", "--rank", "3", "--nf", "0.1", "--sr", "0.5",
             "--d", "3", "--lambda", "1", "--reg", reg, "--out", str(out)]
        )
        assert rc == 3
        assert "numerical failure: run 0: objective is non-finite" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective_trace"] == []
        assert summary["runs_completed"] == 0


class TestComplete:
    def test_fixture_run(self, tmp_path):
        data = tmp_path / "ratings.dat"
        data.write_text(ML_LINES)
        out = tmp_path / "out"
        rc = main(
            [
                "complete", "--input", str(data), "--train-frac", "0.7",
                "--d", "2", "--lambda", "0.5", "--seed", "5",
                "--max-iters", "300", "--out", str(out),
            ]
        )
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["manifest"]["schema"] == "schatten-mc/1"
        assert rep["dims"] == {"users": 7, "items": 4}
        assert rep["train_size"] == 14
        assert rep["test_size"] == 6
        assert rep["rmse"] >= 0.0
        assert len(rep["objective_trace"]) == rep["iterations"] + 1
        assert 0 <= rep["restarts"] <= rep["iterations"] - 1
        assert np.all(np.diff(rep["objective_trace"]) <= 1e-12)
        assert set(rep["optimality"]) >= {"q_spectral", "duality_gap", "c2", "c2_lower"}
        assert set(rep["bound_terms"]) >= {"beta", "c2", "c2_lower", "sample_term"}
        assert rep["bound_terms"]["beta"] == 5.0

    @pytest.mark.parametrize("reg, passes", [("fn", 0), ("bin", 1)])
    def test_bound_terms_reuse_fn_diagnostics(self, tmp_path, monkeypatch, reg, passes):
        # an FN run's bound terms read the solve's optimality report; a BiN
        # run makes the FN optimality pass of its own
        import schattenmc.metrics as metrics_mod

        calls = []
        real = metrics_mod.optimality_residual

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(metrics_mod, "optimality_residual", counted)
        data = tmp_path / "ratings.dat"
        data.write_text(ML_LINES)
        out = tmp_path / "out"
        rc = main(
            ["complete", "--input", str(data), "--train-frac", "0.7", "--d", "2",
             "--reg", reg, "--lambda", "0.5", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        assert len(calls) == passes
        rep = json.loads((out / "report.json").read_text())
        if reg == "fn":
            for key in ("c2", "c2_lower", "degenerate"):
                assert rep["bound_terms"][key] == rep["optimality"][key]

    def test_wrong_format_parse_error(self, tmp_path, capsys):
        data = tmp_path / "r.dat"
        data.write_text(ML_LINES)
        out = tmp_path / "o"
        rc = main(["complete", "--input", str(data), "--format", "csv", "--out", str(out)])
        assert rc == 2
        assert "line" in capsys.readouterr().err
        assert not out.exists()

    def test_id_outside_int64_parse_error(self, tmp_path, capsys):
        data = tmp_path / "r.dat"
        data.write_text("1::99999999999999999999::3\n")
        rc = main(["complete", "--input", str(data), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tail",
        # "" keeps the C reader's path; the C reader rejects a whitespace-only
        # last line on reaching it, so the line loop reads the file after a rewind
        ["", " \n"],
        ids=["table-reader", "rejected-then-line-loop"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, tail):
        reports = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            data = tmp_path / f"{name}.dat"
            data.write_text(prefix + ML_LINES + tail, encoding="utf-8")
            out = tmp_path / name
            rc = main(
                ["complete", "--input", str(data), "--train-frac", "0.7", "--d", "2",
                 "--lambda", "0.5", "--seed", "5", "--max-iters", "50", "--out", str(out)]
            )
            assert rc == 0
            rep = json.loads((out / "report.json").read_text())
            del rep["manifest"]
            reports.append(rep)
        assert reports[1] == reports[0]
        assert reports[1]["dims"] == {"users": 7, "items": 4}

    def test_missing_input(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["complete", "--input", str(tmp_path / "absent.dat"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "huge.dat"
        data.write_text(ML_LINES.replace("\n", "e300\n"))  # every rating x 1e300
        out = tmp_path / "out"
        rc = main(
            ["complete", "--input", str(data), "--train-frac", "0.7", "--d", "2",
             "--lambda", "1", "--out", str(out)]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())
        assert "non-finite" in rep["error"]
        assert rep["manifest"]["wall_time_s"] > 0.0


class TestImage:
    def low_rank_image(self, seed=11, size=24):
        rng = philox(seed)
        a = rng.standard_normal((size, 2))
        b = rng.standard_normal((size, 2))
        x = a @ b.T
        x = (x - x.min()) / (x.max() - x.min()) * 255.0
        return GrayImage(np.rint(x).astype(np.uint8))

    def write_image(self, tmp_path, img):
        path = tmp_path / "input.pgm"
        with open(path, "wb") as fh:
            write_pgm(img, fh)
        return path

    def test_near_lossless_refit(self, tmp_path):
        img = self.low_rank_image()
        path = self.write_image(tmp_path, img)
        out = tmp_path / "out"
        rc = main(
            [
                "image", "--input", str(path), "--corrupt-frac", "0",
                "--d", "4", "--lambda", "1e-9", "--max-iters", "400",
                "--epsilon", "1e-7", "--out", str(out),
            ]
        )
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["psnr_recovered_infinite"] or rep["psnr_recovered_db"] >= 60.0
        assert 0 <= rep["restarts"] <= rep["iterations"] - 1
        assert (out / "recovered.pgm").exists()
        assert (out / "degraded.pgm").exists()

    def test_missing_input_io_error(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["image", "--input", str(tmp_path / "no.pgm"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_seeded_reproducible_output(self, tmp_path):
        img = self.low_rank_image(seed=13)
        path = self.write_image(tmp_path, img)
        args = [
            "image", "--input", str(path), "--corrupt-frac", "0.3", "--d", "3",
            "--lambda", "0.1", "--max-iters", "150", "--seed", "9",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "recovered.pgm").read_bytes() == (out2 / "recovered.pgm").read_bytes()
        assert (out1 / "degraded.pgm").read_bytes() == (out2 / "degraded.pgm").read_bytes()

    def test_solve_failure_writes_report(self, tmp_path, monkeypatch, capsys):
        path = self.write_image(tmp_path, self.low_rank_image(seed=17))
        monkeypatch.setattr("schattenmc.cli.solve", fail_solve)
        out = tmp_path / "out"
        rc = main(["image", "--input", str(path), "--d", "3", "--out", str(out)])
        assert rc == 3
        assert "numerical failure: boom" in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())
        assert rep["error"] == "boom"
        assert rep["objective_trace"] == [2.0, 1.0]
        assert rep["manifest"]["wall_time_s"] > 0.0
        assert (out / "degraded.pgm").exists()


class TestVerify:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--trials", "5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert len(payload["properties"]) == 9
        assert json.loads(out.read_text()) == payload

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", "0"])
        assert err.value.code == 2

    def test_tolerance_injection_fails(self, capsys, monkeypatch):
        import schattenmc.verify as verify_mod

        monkeypatch.setattr(verify_mod, "_TOLERANCES", dict.fromkeys(verify_mod._TOLERANCES, 0.0))
        rc = main(["verify", "--trials", "3", "--seed", "1"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is False


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synth", "--sr", "0"], "--sr"),
        (["synth", "--sr", "1.5"], "--sr"),
        (["synth", "--nf", "-1"], "--nf"),
        (["synth", "--nf", "nan"], "--nf"),
        (["synth", "--lambda", "inf"], "--lambda"),
        (["synth", "--lambda", "nan"], "--lambda"),
        (["synth", "--epsilon", "0"], "--epsilon"),
        (["synth", "--epsilon", "nan"], "--epsilon"),
        (["synth", "--m", "4", "--n", "6", "--rank", "5"], "--rank"),
        (["complete", "--train-frac", "1"], "--train-frac"),
        (["image", "--corrupt-frac", "1"], "--corrupt-frac"),
        (["image", "--noise-sigma", "nan"], "--noise-sigma"),
    ],
    ids=[
        "sr-0", "sr-1.5", "nf-negative", "nf-nan", "lambda-inf", "lambda-nan",
        "epsilon-0", "epsilon-nan", "rank-above-dims", "train-frac-1",
        "corrupt-frac-1", "noise-sigma-nan",
    ],
)
def test_flag_rule_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(with_input(tmp_path, [*argv, "--max-iters", "5", "--out", str(out)]))
    assert err.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_flag_rule_message(capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--sr", "0", "--out", "unused"])
    assert "argument --sr: must be in (0, 1], got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, kind", [(["--m", "x"], "int"), (["--sr", "x"], "float")], ids=["int", "float"]
)
def test_unparsable_flag_names_its_type(capsys, argv, kind):
    with pytest.raises(SystemExit) as err:
        main(["synth", *argv, "--out", "unused"])
    assert err.value.code == 2
    assert f"argument {argv[0]}: invalid {kind} value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "complete", "image", "verify"])
def test_negative_seed_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(with_input(tmp_path, [command, "--seed", "-1", "--out", str(out)]))
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
