"""The four benchmark workloads.

Each workload has a set-up that builds its inputs from the seed, a fixed
cycle of op arguments, the op itself (one-call path, timed), the checks of
its outputs, and a traced op that makes the same calls under spans and also
returns the one-call path's outputs and time for comparison.
"""

from __future__ import annotations

import filecmp
import math
import shutil
import time
from pathlib import Path

import numpy as np

import reference as ref
import traced
from sfofr import cli
from sfofr.fdbasis import FunctionalDataset
from sfofr.pipeline import fit_sfofr, fitted_values, predict
from sfofr.simgen import SimConfig, gen_predictors, gen_response, run_replication
from sfofr.spatial import GeoCoordinates, SpatialWeights, knn_weights

GRID_SIZE = 101


def _same_results(a: dict, b: dict) -> list:
    errors = []
    for method in a:
        for key, va in a[method].items():
            vb = b[method][key]
            if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                errors.append(f"traced {method}.{key} {vb!r} != one-call {va!r}")
    return errors


def _check_fit_outputs(tr_fit, fitted, pred, scores, w_train, w_test, what) -> list:
    """Fitted values and predictions against independent reduced-form solves."""
    params = tr_fit.msar_fit.params
    phi = tr_fit.response_decomp.eigenfunctions(tr_fit.y_grid)
    errors = ref.check_prediction(
        fitted.values, tr_fit.predictor_decomp.scores, params.rho, params.b,
        w_train.matrix, phi, tr_fit.y_mean, f"{what} fitted values",
    )
    errors += ref.check_prediction(
        pred.values, scores, params.rho, params.b, w_test.matrix, phi, tr_fit.y_mean,
        f"{what} predictions",
    )
    return errors


class MonteCarlo:
    """One op is ``simgen.run_replication`` on a criterion design.

    Every run covers whole cycles of the same replication indices, so every
    run does the same work; the seed only rotates where the cycle starts.
    """

    def __init__(self, name, alpha, weight_kind, design_seed, pool, strong):
        self.name = name
        self.pool = list(pool)
        self.strong = strong
        self.design = dict(
            n_train=250, n_test=1000, alpha=alpha, weight_kind=weight_kind, seed=design_seed
        )

    def setup(self, seed, workdir):
        cfg = SimConfig(**self.design)
        start = seed % len(self.pool)
        return {"cfg": cfg, "cycle": self.pool[start:] + self.pool[:start]}

    def cycle(self, state):
        return state["cycle"]

    def run(self, state, idx):
        return run_replication(state["cfg"], idx)

    def check(self, state, idx, res):
        errors = []
        for method in ("sfofr", "fpc"):
            for key, value in res[method].items():
                if method == "fpc" and key == "ise_rho":
                    if not math.isnan(value):
                        errors.append(f"rep {idx}: baseline ise_rho {value!r} is not NaN")
                elif not (math.isfinite(value) and value > 0):
                    errors.append(f"rep {idx}: {method}.{key} = {value!r} is not finite and positive")
        if self.strong and not res["sfofr"]["mspe"] < res["fpc"]["mspe"]:
            errors.append(
                f"rep {idx}: spatial MSPE {res['sfofr']['mspe']!r} not below "
                f"baseline MSPE {res['fpc']['mspe']!r}"
            )
        return errors

    def traced(self, state, idx, tr):
        cfg = state["cfg"]
        t0 = time.perf_counter()
        plain = run_replication(cfg, idx)
        plain_s = time.perf_counter() - t0
        with tr.op():
            res, extras = traced.run_replication(tr, cfg, idx)
        return (res, extras), plain, plain_s

    def check_traced(self, state, idx, out, plain):
        res, extras = out
        cfg = state["cfg"]
        errors = self.check(state, idx, res) + _same_results(plain, res)
        sfofr, fpc = extras["sfofr"], extras["fpc"]
        errors += ref.check_ise(res["sfofr"], cfg.grid, cfg.alpha, sfofr["beta_hat"], sfofr["rho_hat"])
        errors += ref.check_ise(res["fpc"], cfg.grid, cfg.alpha, fpc["beta_hat"])
        errors += ref.check_rho(sfofr["fit"].msar_fit.params.rho, f"rep {idx}")
        for method, part in (("sfofr", sfofr), ("fpc", fpc)):
            errors += _check_fit_outputs(
                part["fit"], part["fitted"], part["pred"], part["scores"],
                part["fit"].weights, extras["w_test"], f"rep {idx} {method}",
            )
        return errors


class KnnLarge:
    """One op: KNN weights on the training coordinates, fit, fitted values,
    KNN weights on the test coordinates, predict.

    The coordinates are fixed by COORD_SEED whatever the run's seed; the seed
    draws the curves. The benchmark's own KD-tree neighbour sets give the
    weight matrix that generates the responses and the reference the
    program's weights are checked against.
    """

    name = "knn-large"
    N = 5570  # Brazilian municipalities
    H = 5
    ALPHA = 0.5
    COORD_SEED = 20200226
    LAT = (-33.75, 5.27)  # Brazil's latitude/longitude box, degrees
    LON = (-73.99, -34.79)

    def setup(self, seed, workdir):
        crng = np.random.default_rng(self.COORD_SEED)
        rng = np.random.default_rng(seed)
        grid = np.arange(1, GRID_SIZE + 1) / GRID_SIZE
        state = {}
        for part in ("train", "test"):
            lat = crng.uniform(*self.LAT, self.N)
            lon = crng.uniform(*self.LON, self.N)
            sets = ref.knn_sets(lat, lon, self.H)
            state[part] = dict(
                lat=lat, lon=lon, sets=sets, coords=GeoCoordinates(lat=lat, lon=lon),
                x=gen_predictors(self.N, grid, rng),
            )
        w_gen = SpatialWeights(matrix=ref.knn_matrix(state["train"]["sets"]), normalized=True, kind="knn")
        state["train"]["y"] = gen_response(state["train"]["x"], w_gen, self.ALPHA, rng)
        return state

    def cycle(self, state):
        return [0]

    def run(self, state, _):
        train, test = state["train"], state["test"]
        w_train = knn_weights(train["coords"], self.H)
        fit = fit_sfofr(train["y"], train["x"], w_train)
        fitted = fitted_values(fit)
        w_test = knn_weights(test["coords"], self.H)
        pred = predict(fit, test["x"], w_test)
        return dict(w_train=w_train, fit=fit, fitted=fitted, w_test=w_test, pred=pred)

    def check(self, state, _, out):
        errors = []
        for part in ("train", "test"):
            s = state[part]
            errors += ref.check_knn(out[f"w_{part}"].matrix, s["sets"], s["lat"], s["lon"], f"W_{part}")
        errors += ref.check_rho(out["fit"].msar_fit.params.rho, "knn fit")
        for key in ("fitted", "pred"):
            if not np.all(np.isfinite(out[key].values)):
                errors.append(f"{key} has non-finite values")
        return errors

    def traced(self, state, _, tr):
        train, test = state["train"], state["test"]
        with tr.op() as root:
            w_train = tr.call_peak(
                "spatial.weights_s", "knn_weights", "spatial.weights_peak_mb",
                knn_weights, train["coords"], self.H,
            )
            fit = traced.fit_sfofr(tr, train["y"], train["x"], w_train)
            fitted = traced.fitted_values(tr, fit)
            w_test = tr.call_peak(
                "spatial.weights_s", "knn_weights", "spatial.weights_peak_mb",
                knn_weights, test["coords"], self.H,
            )
            pred, scores = traced.predict(tr, fit, test["x"], w_test)
        # The one-call replay reuses the traced op's weight matrices, whose
        # spectral radius the library caches: the leaf calls knn_weights and
        # spectral_radius are not repeated, and their span times stand in.
        leaves = sum(
            r["end"] - r["start"] for r in tr.spans
            if r["op"] == root["op"] and r["label"] in ("knn_weights", "spectral_radius")
        )
        t0 = time.perf_counter()
        fit1 = fit_sfofr(train["y"], train["x"], w_train)
        plain = dict(
            w_train=w_train, fit=fit1, fitted=fitted_values(fit1), w_test=w_test,
            pred=predict(fit1, test["x"], w_test),
        )
        plain_s = time.perf_counter() - t0 + leaves
        out = dict(w_train=w_train, fit=fit, fitted=fitted, w_test=w_test, pred=pred, scores=scores)
        return out, plain, plain_s

    def check_traced(self, state, arg, out, plain):
        errors = self.check(state, arg, out)
        for key in ("fitted", "pred"):
            errors += ref.check_equal(out[key].values, plain[key].values, f"traced {key} vs one-call")
        errors += _check_fit_outputs(
            out["fit"], out["fitted"], out["pred"], out["scores"],
            out["w_train"], out["w_test"], "knn",
        )
        return errors


class CliRoundTrip:
    """One op: ``sfofr fit`` then ``sfofr predict``, in-process via cli.main.

    Set-up writes train and test sets with ``sfofr simulate`` and computes
    the in-process fitted values and predictions on the same inputs. The
    sets come from DATA_SEED whatever the run's seed: the op's cost depends
    on the data through the fit (seeds 302 and 303 of an earlier version
    differed by 14% in paired ops), so seed-dependent sets would spread the
    runs' medians by that much.
    """

    name = "cli-roundtrip"
    N = 500
    ALPHA = "0.5"
    DATA_SEED = 0

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        seeds = np.random.SeedSequence(self.DATA_SEED).generate_state(2)
        for part, s in zip(("train", "test"), seeds):
            argv = [
                "simulate", "--n", str(self.N), "--alpha", self.ALPHA,
                "--weight-kind", "inverse", "--seed", str(int(s)), "--out", str(workdir / part),
            ]
            if cli.main(argv) != 0:
                raise RuntimeError(f"sfofr {' '.join(argv)} failed")
        data = {}
        for part in ("train", "test"):
            d = workdir / part
            grid = ref.read_grid(d / "x.csv")
            data[part] = dict(
                x=FunctionalDataset(grid=grid, values=ref.read_curves(d / "x.csv")),
                y=FunctionalDataset(grid=grid, values=ref.read_curves(d / "y.csv")),
                w=SpatialWeights(matrix=ref.read_dense(d / "w.csv"), kind="custom"),
            )
        fit = fit_sfofr(data["train"]["y"], data["train"]["x"], data["train"]["w"])
        return {
            "dir": workdir,
            "fitted": fitted_values(fit).values,
            "pred": predict(fit, data["test"]["x"], data["test"]["w"]).values,
            "n_ops": 0,
        }

    def cycle(self, state):
        return [0]

    def _argv(self, state, out):
        d = state["dir"]
        fit_argv = [
            "fit", "--y", str(d / "train" / "y.csv"), "--x", str(d / "train" / "x.csv"),
            "--w", str(d / "train" / "w.csv"), "--out", str(out / "fit"),
        ]
        predict_argv = [
            "predict", "--bundle", str(out / "fit"), "--x-new", str(d / "test" / "x.csv"),
            "--w-new", str(d / "test" / "w.csv"), "--out", str(out / "predict"),
        ]
        return fit_argv, predict_argv

    def _fresh_dir(self, state):
        state["n_ops"] += 1
        return state["dir"] / f"op{state['n_ops']}"

    def run(self, state, _):
        out = self._fresh_dir(state)
        fit_argv, predict_argv = self._argv(state, out)
        codes = (cli.main(fit_argv), cli.main(predict_argv))
        return {"codes": codes, "out": out}

    def check(self, state, _, res):
        out = res["out"]
        if res["codes"] != (0, 0):
            errors = [f"exit codes {res['codes']} != (0, 0)"]
        else:
            errors = ref.check_equal(ref.read_curves(out / "fit" / "fitted.csv"), state["fitted"], "fitted.csv")
            errors += ref.check_equal(
                ref.read_curves(out / "predict" / "predictions.csv"), state["pred"], "predictions.csv"
            )
        shutil.rmtree(out, ignore_errors=True)
        return errors

    def traced(self, state, _, tr):
        t0 = time.perf_counter()
        plain = self.run(state, None)
        plain_s = time.perf_counter() - t0
        out = self._fresh_dir(state)
        fit_argv, predict_argv = self._argv(state, out)
        with tr.op():
            _, fitted = traced.cli_fit(tr, fit_argv)
            fit, pred, scores, w_new = traced.cli_predict(tr, predict_argv)
        return dict(out=out, fitted=fitted, fit=fit, pred=pred, scores=scores, w_new=w_new), plain, plain_s

    def check_traced(self, state, arg, out, plain):
        a, b = plain["out"], out["out"]
        errors = []
        for sub in ("fit", "predict"):
            names = sorted(p.name for p in (a / sub).iterdir())
            if names != sorted(p.name for p in (b / sub).iterdir()):
                errors.append(f"{sub}: traced and one-call outputs list different files")
                continue
            for name in names:
                if name != "manifest.json" and not filecmp.cmp(a / sub / name, b / sub / name, shallow=False):
                    errors.append(f"{sub}/{name}: traced output differs from one-call output")
        errors += self.check(state, arg, plain)
        errors += ref.check_equal(out["fitted"].values, state["fitted"], "traced fitted values")
        errors += ref.check_equal(out["pred"].values, state["pred"], "traced predictions")
        fit = out["fit"]  # as loaded from the bundle by the predict command
        params = fit.msar_fit.params
        errors += ref.check_prediction(
            out["pred"].values, out["scores"], params.rho, params.b, out["w_new"].matrix,
            fit.response_decomp.eigenfunctions(fit.y_grid), fit.y_mean, "cli predictions",
        )
        errors += ref.check_rho(params.rho, "cli fit")
        shutil.rmtree(b, ignore_errors=True)
        return errors


WORKLOADS = {
    "mc-strong": MonteCarlo("mc-strong", 0.9, "exponential", 90210, range(3), strong=True),
    "mc-weak": MonteCarlo("mc-weak", 0.1, "inverse", 11235, range(16), strong=False),
    "knn-large": KnnLarge(),
    "cli-roundtrip": CliRoundTrip(),
}
