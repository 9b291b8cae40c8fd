"""End-to-end CLI tests: subcommands, config precedence, exit codes,
byte determinism."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sfofr
from sfofr import cli, simgen
from sfofr.cli import build_parser, main, resolve_config
from sfofr.pipeline import FIT_OPTIONS, resolve_fit_options

# Directory holding the imported package, absolute, so that the child process
# finds the same package from whatever working directory it runs in (a
# relative PYTHONPATH entry such as "src" does not resolve from tmp_path).
_PACKAGE_ROOT = str(Path(sfofr.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "sfofr", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated dataset shared by the fit/predict/moran tests."""
    out = tmp_path_factory.mktemp("sim")
    result = run_cli(
        [
            "simulate", "--n", "30", "--alpha", "0.5", "--grid-size", "41",
            "--seed", "42", "--out", str(out),
        ],
        cwd=out,
    )
    assert result.returncode == 0, result.stderr
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        for name in ("y.csv", "x.csv", "w.csv", "truth.json", "manifest.json"):
            assert (sim_dir / name).exists()

    def test_seed_required(self, tmp_path):
        result = run_cli(["simulate", "--n", "10", "--out", str(tmp_path)], cwd=tmp_path)
        assert result.returncode == 1
        assert "--seed" in result.stderr

    def test_byte_determinism(self, tmp_path):
        args = ["simulate", "--n", "12", "--alpha", "0.3", "--grid-size", "41",
                "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(a)], cwd=tmp_path).returncode == 0
        assert run_cli(args + ["--out", str(b)], cwd=tmp_path).returncode == 0
        for name in ("y.csv", "x.csv", "w.csv", "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_truth_manifest_fields(self, sim_dir):
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["alpha"] == 0.5
        assert truth["seed"] == 42
        assert len(truth["grid"]) == 41
        assert len(truth["rho_surface"]) == 41


class TestWeightsCommand:
    def test_lattice_weights(self, tmp_path):
        result = run_cli(
            ["weights", "--kind", "inverse", "--n", "5", "--out", str(tmp_path)],
            cwd=tmp_path,
        )
        assert result.returncode == 0
        rows = (tmp_path / "weights.csv").read_text().strip().splitlines()
        assert len(rows) == 5

    def test_knn_from_coords(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text(
            "id,lat,lon\na,0,0\nb,0,1\nc,0,2\nd,0,3.5\n"
        )
        result = run_cli(
            [
                "weights", "--kind", "knn", "--coords", str(coords),
                "--knn-h", "2", "--out", str(tmp_path / "knn"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0
        mat = np.array(
            [
                [float(v) for v in line.split(",")]
                for line in (tmp_path / "knn" / "weights.csv").read_text().strip().splitlines()
            ]
        )
        assert np.all(mat.sum(axis=1) == 1.0)

    def test_knn_rejects_non_finite_coordinate(self, tmp_path):
        coords = tmp_path / "coords.csv"
        coords.write_text("id,lat,lon\na,0,0\nb,nan,1\nc,0,2\nd,0,3.5\n")
        result = run_cli(
            [
                "weights", "--kind", "knn", "--coords", str(coords),
                "--knn-h", "2", "--out", str(tmp_path / "knn"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "coords.csv:3: coordinates must be finite" in result.stderr

    def test_triplet_format(self, tmp_path):
        result = run_cli(
            [
                "weights", "--kind", "exponential", "--n", "4",
                "--weights-format", "triplet", "--out", str(tmp_path),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0
        first = (tmp_path / "weights.csv").read_text().splitlines()[0]
        assert first == "i,j,w"


class TestFitPredict:
    @pytest.fixture(scope="class")
    def fit_dir(self, sim_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        result = run_cli(
            [
                "fit", "--y", str(sim_dir / "y.csv"), "--x", str(sim_dir / "x.csv"),
                "--w", str(sim_dir / "w.csv"), "--num-basis", "10",
                "--dump-fpca", "--out", str(out),
            ],
            cwd=sim_dir,
        )
        assert result.returncode == 0, result.stderr
        return out

    def test_bundle_files(self, fit_dir):
        for name in (
            "manifest.json", "fitted.csv", "rho.csv", "b.csv", "chi_y.csv",
            "scores_y.csv", "rho_surface.csv", "fpca_y.json", "fpca_x.json",
        ):
            assert (fit_dir / name).exists()

    def test_manifest_outputs_are_the_bundle_files(self, fit_dir):
        outputs = json.loads((fit_dir / "manifest.json").read_text())["outputs"]
        assert sorted(outputs + ["manifest.json"]) == sorted(p.name for p in fit_dir.iterdir())

    def test_manifest_echoes_config(self, fit_dir):
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert manifest["resolved_config"]["num_basis"] == 10
        assert manifest["command"] == "fit"

    def test_predict_training_reproduces_fitted_bytes(self, sim_dir, fit_dir, tmp_path):
        out = tmp_path / "pred"
        result = run_cli(
            [
                "predict", "--bundle", str(fit_dir),
                "--x-new", str(sim_dir / "x.csv"),
                "--w-new", str(sim_dir / "w.csv"), "--out", str(out),
            ],
            cwd=sim_dir,
        )
        assert result.returncode == 0, result.stderr
        assert (out / "predictions.csv").read_bytes() == (
            fit_dir / "fitted.csv"
        ).read_bytes()

    def test_manifest_without_required_key_is_data_error(self, sim_dir, fit_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(fit_dir, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        del manifest["convergence"]["tolerance"]
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        code = main(
            [
                "predict", "--bundle", str(bundle), "--x-new", str(sim_dir / "x.csv"),
                "--w-new", str(sim_dir / "w.csv"), "--out", str(tmp_path / "pred"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bundle}: manifest.json lacks key 'tolerance'" in err
        assert not (tmp_path / "pred").exists()

    def test_rerun_from_echoed_config_identical(self, sim_dir, fit_dir, tmp_path):
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        cfg = dict(manifest["resolved_config"])
        cfg["out"] = str(tmp_path / "refit")
        cfg_path = tmp_path / "refit.json"
        cfg_path.write_text(json.dumps(cfg))
        result = run_cli(["fit", "--config", str(cfg_path)], cwd=sim_dir)
        assert result.returncode == 0, result.stderr
        for name in ("rho.csv", "b.csv", "fitted.csv"):
            assert (tmp_path / "refit" / name).read_bytes() == (
                fit_dir / name
            ).read_bytes()

    def test_warnings_print_as_one_line_each(self, tmp_path):
        # run as `python -m sfofr`, a warning's location would read <frozen runpy>
        sim = tmp_path / "sim"
        result = run_cli(
            [
                "simulate", "--n", "60", "--alpha", "0.5", "--grid-size", "41",
                "--seed", "42", "--out", str(sim),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        args = ["fit", *(f"--{k}={sim / k}.csv" for k in "yxw"), "--msar-max-iter", "1"]
        result = run_cli([*args, "--out", str(tmp_path / "fit")], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "warning: score-space fit did not converge: max_iter reached\n" in result.stderr
        assert all(line.startswith("warning: ") for line in result.stderr.splitlines())
        assert "<frozen" not in result.stderr
        with warnings.catch_warnings():  # the filters still decide
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="did not converge"):
                main([*args, "--out", str(tmp_path / "strict")])


class TestMoran:
    def test_moran_output(self, sim_dir, tmp_path):
        out = tmp_path / "moran"
        result = run_cli(
            [
                "moran", "--y", str(sim_dir / "y.csv"), "--w", str(sim_dir / "w.csv"),
                "--num-basis", "10", "--out", str(out),
            ],
            cwd=sim_dir,
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "moran.csv").read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 42  # header + 41 grid points
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(np.isfinite(values))

    def test_constant_curves_exit_1_naming_zero_variance(self, sim_dir, tmp_path, capsys):
        # curves all equal to 0.1 keep a centering residue that is_centered refuses
        grid = np.linspace(0, 1, 41)
        flat = sfofr.FunctionalDataset(grid=grid, values=np.full((30, 41), 0.1))
        sfofr.io.write_curves_csv(tmp_path / "flat.csv", flat)
        argv = ["moran", "--y", str(tmp_path / "flat.csv"), "--w", str(sim_dir / "w.csv")]
        assert main([*argv, "--out", str(tmp_path / "moran")]) == 1
        err = capsys.readouterr().err
        assert "zero variance" in err and "do not vary across units" in err
        assert not (tmp_path / "moran" / "moran.csv").exists()


class TestMcBench:
    def test_small_benchmark(self, tmp_path):
        out = tmp_path / "bench"
        result = run_cli(
            [
                "mc-bench", "--n-train", "40", "--n-test", "30", "--alpha", "0.5",
                "--grid-size", "41", "--reps", "2", "--seed", "3",
                "--threads", "1", "--out", str(out),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "replication,method,ise_beta,ise_rho,mse,mspe"
        assert len(lines) == 1 + 2 * 2  # two reps x two methods
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_replications"] == 2
        assert summary["sfofr"]["mspe"]["mean"] >= 0
        assert summary["fpc"]["ise_rho"]["mean"] is None


class TestConfigHandling:
    def test_cli_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "alpha": 0.2, "seed": 5}))
        out = tmp_path / "o1"
        result = run_cli(
            [
                "simulate", "--config", str(cfg), "--alpha", "0.7",
                "--grid-size", "41", "--out", str(out),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["alpha"] == 0.7  # flag wins
        assert manifest["resolved_config"]["n"] == 8  # config fills the rest

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "seed": 5, "bogus_option": 1}))
        result = run_cli(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "bogus_option" in result.stderr


class TestExitCodes:
    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,0.1,0.2\nu0,1\n")
        w = tmp_path / "w.csv"
        w.write_text("0,1\n1,0\n")
        result = run_cli(
            ["moran", "--y", str(bad), "--w", str(w), "--out", str(tmp_path / "o")],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "bad.csv:2: expected 3 fields, got 2" in result.stderr

    def test_dimension_mismatch_is_data_error(self, sim_dir, tmp_path):
        w_small = tmp_path / "w3.csv"
        w_small.write_text("0,0.5,0.5\n0.5,0,0.5\n0.5,0.5,0\n")
        result = run_cli(
            [
                "moran", "--y", str(sim_dir / "y.csv"), "--w", str(w_small),
                "--out", str(tmp_path / "o"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "coefficient rows must match weight matrix size" in result.stderr

    def test_non_finite_weight_is_data_error(self, sim_dir, tmp_path):
        rows = (sim_dir / "w.csv").read_text().splitlines()
        rows[1] = "nan" + rows[1][rows[1].index(","):]
        w_nan = tmp_path / "w_nan.csv"
        w_nan.write_text("\n".join(rows) + "\n")
        result = run_cli(
            [
                "fit", "--y", str(sim_dir / "y.csv"), "--x", str(sim_dir / "x.csv"),
                "--w", str(w_nan), "--out", str(tmp_path / "o"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert f"error: {w_nan}: weight matrix has non-finite entries" in result.stderr

    def test_nan_grid_point_is_data_error(self, sim_dir, tmp_path):
        rows = (sim_dir / "y.csv").read_text().splitlines()
        header = rows[0].split(",")
        header[5] = "nan"
        y_nan = tmp_path / "y_nan.csv"
        y_nan.write_text("\n".join([",".join(header), *rows[1:]]) + "\n")
        result = run_cli(
            [
                "fit", "--y", str(y_nan), "--x", str(sim_dir / "x.csv"),
                "--w", str(sim_dir / "w.csv"), "--out", str(tmp_path / "o"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert f"error: {y_nan}: grid points must be finite; point 4 is nan" in result.stderr
        assert "Traceback" not in result.stderr

    def test_ragged_weights_is_data_error(self, sim_dir, tmp_path):
        rows = (sim_dir / "w.csv").read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0]
        w_ragged = tmp_path / "w_ragged.csv"
        w_ragged.write_text("\n".join(rows) + "\n")
        result = run_cli(
            [
                "fit", "--y", str(sim_dir / "y.csv"), "--x", str(sim_dir / "x.csv"),
                "--w", str(w_ragged), "--out", str(tmp_path / "o"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 1
        assert "error: " in result.stderr
        assert "w_ragged.csv:3: expected 30 fields, got 29" in result.stderr

    def test_constant_response_fit_exits_1_naming_zero_variance(self, sim_dir, tmp_path, capsys):
        flat = sfofr.FunctionalDataset(grid=np.linspace(0, 1, 41), values=np.full((30, 41), 0.1))
        sfofr.io.write_curves_csv(tmp_path / "flat.csv", flat)
        argv = ["fit", "--y", str(tmp_path / "flat.csv"), "--x", str(sim_dir / "x.csv"),
                "--w", str(sim_dir / "w.csv"), "--out", str(tmp_path / "fit")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "zero variance: response curves do not vary across units" in err
        assert not (tmp_path / "fit" / "manifest.json").exists()

    def test_numerical_failure_is_exit_two(self, tmp_path):
        # grid confined to [0, 0.3]: basis functions supported on the right
        # part of [0, 1] vanish at every sample, so with ridge 0 the smoothing
        # normal equations are singular
        grid = np.linspace(0, 0.3, 12)
        y = tmp_path / "y.csv"
        rows = ["t," + ",".join(str(t) for t in grid)]
        rows.append("u0," + ",".join("1.0" for _ in grid))
        rows.append("u1," + ",".join("2.0" for _ in grid))
        y.write_text("\n".join(rows) + "\n")
        w = tmp_path / "w.csv"
        w.write_text("0,1\n1,0\n")
        result = run_cli(
            [
                "moran", "--y", str(y), "--w", str(w),
                "--num-basis", "10", "--degree", "3", "--ridge", "0",
                "--out", str(tmp_path / "o"),
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "ridge" in result.stderr

    def test_unknown_subcommand_is_data_error(self, tmp_path):
        result = run_cli(["frobnicate"], cwd=tmp_path)
        assert result.returncode == 1
        assert "invalid choice: 'frobnicate'" in result.stderr


class TestOptionTable:
    @staticmethod
    def subparsers():
        (action,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        return action.choices

    def test_flags_are_the_resolved_keys(self):
        for command, sub in self.subparsers().items():
            flags = {
                opt for a in sub._actions for opt in a.option_strings
                if opt not in ("-h", "--help", "--config")
            }
            cfg = resolve_config(command, sub.parse_args([]))
            assert {"--" + k.replace("_", "-") for k in cfg} == flags, command

    def test_seed_and_threads_only_where_read(self):
        for command, sub in self.subparsers().items():
            flags = {opt for a in sub._actions for opt in a.option_strings}
            assert ("--seed" in flags) == (command in ("simulate", "mc-bench")), command
            assert ("--threads" in flags) == (command == "mc-bench"), command

    @pytest.mark.parametrize(
        "args", [["fit", "--seed", "1"], ["predict", "--threads", "2"]]
    )
    def test_dropped_flags_rejected(self, args, tmp_path):
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == 1
        assert f"unrecognized arguments: {args[1]}" in result.stderr

    def test_dropped_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 2}))
        result = run_cli(["fit", "--config", str(cfg)], cwd=tmp_path)
        assert result.returncode == 1
        assert "unknown config keys for fit: ['threads']" in result.stderr

    @pytest.mark.parametrize(
        "content, named",
        [
            ('{"ridge": "x"}', "--ridge must be a JSON number"),
            ('{"num_basis": "abc"}', "--num-basis must be a JSON integer"),
            ('{"msar_max_iter": 2.5}', "--msar-max-iter must be a JSON integer"),
            ('{"degree": true}', "--degree must be a JSON integer"),
            ('{"dump_fpca": "yes"}', "--dump-fpca must be a JSON boolean"),
            ('{"weights_format": "csv"}', "--weights-format must be one of"),
            ('{"y": 3}', "--y must be a JSON string"),
            ("5", "cfg.json must hold a JSON object"),
            ("null", "cfg.json must hold a JSON object"),
        ],
    )
    def test_config_values_checked_like_flags(self, content, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_fit_defaults_are_the_pipeline_defaults(self):
        cfg = resolve_config("fit", build_parser().parse_args(["fit"]))
        defaults = resolve_fit_options(None)
        assert {k: cfg[k] for k in defaults} == defaults

    def test_fit_help_lists_one_flag_per_fit_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        help_text = capsys.readouterr().out
        for key in FIT_OPTIONS:
            flag = "--" + key.replace("_", "-")
            assert len(re.findall(rf"^  {flag} ", help_text, re.M)) == 1, flag

    def test_fit_options_from_config_reach_the_bundle(self, sim_dir, tmp_path):
        options = {
            "num_basis": 12, "degree": 2, "ridge": 1e-6, "var_threshold": 0.9,
            "msar_max_iter": 300,
        }
        assert options.keys() == FIT_OPTIONS.keys()
        assert all(options[k] != v for k, v in FIT_OPTIONS.items())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options))
        out = tmp_path / "fit"
        code = main([
            "fit", "--y", str(sim_dir / "y.csv"), "--x", str(sim_dir / "x.csv"),
            "--w", str(sim_dir / "w.csv"), "--config", str(cfg), "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"] == options


class TestCommandTable:
    """What ``main`` does for every command: check the required options,
    call the handler and write the manifest of the files it returns."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["fit"], "--y, --x, --w"),
            (["predict"], "--bundle, --x-new, --w-new"),
            (["moran"], "--y, --w"),
            (["simulate"], "--seed"),
            (["mc-bench"], "--seed"),
            (["weights"], "--n"),
            (["weights", "--kind", "knn"], "--coords, --knn-h"),
        ],
    )
    def test_missing_required_options_named(self, argv, flags, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: missing required option(s): {flags}\n"
        assert not out.exists()
        # required-ness is declared on the option; weights' depends on --kind
        _, _, options = cli._COMMANDS[argv[0]]
        declared = [flag for flag, default, _ in options if default is cli._REQUIRED]
        assert declared == ([] if argv[0] == "weights" else flags.split(", "))

    def test_required_options_from_config_file(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: str(sim_dir / f"{k}.csv") for k in "yxw"}))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--num-basis", "10", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["w"] == str(sim_dir / "w.csv")
        assert (out / "fitted.csv").exists()

    @pytest.fixture(scope="class")
    def bundle(self, sim_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("bundle")
        args = [f"--{k}={sim_dir / k}.csv" for k in "yxw"]
        assert main(["fit", *args, "--num-basis", "10", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "12", "--grid-size", "41", "--seed", "4"],
            ["weights", "--kind", "inverse", "--n", "6"],
            ["weights", "--kind", "exponential", "--n", "6", "--weights-format", "triplet"],
            ["predict", "--bundle", "{bundle}", "--x-new", "{sim}/x.csv", "--w-new", "{sim}/w.csv"],
            ["moran", "--y", "{sim}/y.csv", "--w", "{sim}/w.csv", "--num-basis", "10"],
            [
                "mc-bench", "--n-train", "40", "--n-test", "30", "--grid-size", "41",
                "--reps", "1", "--seed", "3", "--threads", "1",
            ],
        ],
        ids=["simulate", "weights-dense", "weights-triplet", "predict", "moran", "mc-bench"],
    )
    def test_manifest_outputs_are_the_written_files(self, argv, sim_dir, bundle, tmp_path):
        out = tmp_path / "o"
        argv = [a.format(bundle=bundle, sim=sim_dir) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # mc-bench's fits may stop early
            assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert sorted(manifest["outputs"] + ["manifest.json"]) == sorted(
            p.name for p in out.iterdir()
        )


class TestRangeChecks:
    def test_nan_ridge_is_data_error(self, sim_dir, tmp_path):
        args = [f"--{k}={sim_dir / k}.csv" for k in "yxw"]
        result = run_cli(["fit", *args, "--ridge", "nan", "--out", str(tmp_path / "o")], cwd=tmp_path)
        assert result.returncode == 1
        assert "error: response smoothing: ridge must be finite and >= 0, got nan" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "content, extra, named",
        [
            ('{"ridge": NaN}', [], "ridge must be finite and >= 0, got nan"),
            ('{"ridge": Infinity}', [], "ridge must be finite and >= 0, got inf"),
            ("{}", ["--msar-max-iter", "-5"], "max_iter must be an integer >= 0, got -5"),
        ],
    )
    def test_fit_values_out_of_range_are_data_errors(
        self, content, extra, named, sim_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        args = [f"--{k}={sim_dir / k}.csv" for k in "yxw"]
        out = tmp_path / "o"
        assert main(["fit", *args, "--config", str(cfg), *extra, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--num-basis", "2", "basis construction: num_basis must be an integer >= 4, got 2"),
            ("--degree", "0", "basis construction: degree must be an integer >= 1, got 0"),
            ("--ridge", "-1", "response smoothing: ridge must be finite and >= 0, got -1.0"),
            (
                "--var-threshold", "1.5",
                "predictor decomposition: var_threshold must be in (0, 1], got 1.5",
            ),
            (
                "--msar-max-iter", "-5",
                "score-space estimation: msar_max_iter must be an integer >= 0, got -5",
            ),
        ],
    )
    def test_bad_fit_option_fails_before_any_file_is_read(
        self, flag, value, named, tmp_path, capsys
    ):
        args = [f"--{k}={tmp_path / 'absent'}.csv" for k in "yxw"]
        out = tmp_path / "o"
        assert main(["fit", *args, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_mc_bench_threads_below_one_rejected(self, threads, monkeypatch, tmp_path, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the benchmark started work")

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(simgen, "run_replication", no_work)
        out = tmp_path / "o"
        assert main(["mc-bench", "--seed", "1", "--threads", threads, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: threads must be an integer >= 1, got {threads}\n"
        )
        assert not out.exists()


class TestStartup:
    def test_import_leaves_out_scipy_interpolate(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
        )
        probe = "import sys, sfofr.cli; print(sorted(m for m in sys.modules if 'interpolate' in m))"
        result = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
