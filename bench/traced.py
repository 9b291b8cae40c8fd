"""The library's composite entry points, re-made call by call under spans.

``run_replication``, ``fit_sfofr``, ``fitted_values``, ``predict`` and the
CLI's ``fit`` and ``predict`` commands each hide calls into several modules.
The functions here make the same public calls in the same order, each inside
a span whose metric names the module (see ``tracer.Tracer``), and return what
the one-call path returns plus the intermediate values the checks need. The
benchmark checks that they reach the same outputs as the one-call path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sfofr import cli
from sfofr import io as sio
from sfofr.fdbasis import BasisCoefficients, FunctionalDataset, center, make_bspline_basis, smooth_curves
from sfofr.fpca import fit_fpc, fit_sfpc, project, reconstruct
from sfofr.msar import MsarData, fit_msar, reduced_form_solve
from sfofr.pipeline import (
    DEFAULT_DEGREE,
    DEFAULT_NUM_BASIS,
    DEFAULT_RIDGE,
    DEFAULT_VAR_THRESHOLD,
    SfofrFit,
    SurfaceEstimate,
    fit_fofr_fpc,
    ise_surface,
    mse_curves,
    reconstruct_beta,
    reconstruct_rho,
    represent_response,
)
from sfofr.simgen import gen_predictors, gen_response, replication_rng, true_beta, true_rho

FD = "fdbasis.self_s"
FPCA = "fpca.self_s"
PIPE = "pipeline.self_s"
BASE = "pipeline.baseline_s"
SIM = "simgen.self_s"

# fit_sfofr's documented defaults (options=None)
OPTIONS = {
    "num_basis": DEFAULT_NUM_BASIS,
    "degree": DEFAULT_DEGREE,
    "ridge": DEFAULT_RIDGE,
    "var_threshold": DEFAULT_VAR_THRESHOLD,
    "msar_tol": None,
    "msar_max_iter": 500,
}


# --- pipeline ----------------------------------------------------------------


def _center_and_smooth(tr, data, basis, ridge):
    centered, mean_curve = tr.call(FD, "center", center, data)
    coeffs = tr.call(FD, "smooth_curves", smooth_curves, centered, basis, ridge)
    pair = tr.call(
        FD, "FunctionalDataset", FunctionalDataset,
        grid=data.grid, values=np.vstack([mean_curve, mean_curve]),
    )
    mean_coef = tr.call(FD, "smooth_curves", smooth_curves, pair, basis, ridge).coef[0]
    coeffs = tr.call(
        FD, "BasisCoefficients", BasisCoefficients,
        coef=coeffs.coef, basis=basis, mean_coeff=mean_coef, residual_rms=coeffs.residual_rms,
    )
    return coeffs, mean_curve


def fit_sfofr(tr, y_data, x_data, weights) -> SfofrFit:
    """``pipeline.fit_sfofr(y_data, x_data, weights)`` with default options."""
    opts = dict(OPTIONS)
    basis = tr.call(FD, "make_bspline_basis", make_bspline_basis, opts["num_basis"], opts["degree"])
    y_coeffs, y_mean = _center_and_smooth(tr, y_data, basis, opts["ridge"])
    x_coeffs, x_mean = _center_and_smooth(tr, x_data, basis, opts["ridge"])
    y_decomp = tr.call(
        FPCA, "fit_sfpc", fit_sfpc, y_coeffs, weights, variance_threshold=opts["var_threshold"]
    )
    x_decomp = tr.call(
        FPCA, "fit_fpc", fit_fpc, x_coeffs, variance_threshold=opts["var_threshold"]
    )
    data = tr.call(
        "msar.self_s", "MsarData", MsarData,
        ymat=y_decomp.scores, xmat=x_decomp.scores, weights=weights,
    )
    msar = tr.call(
        "msar.fit_s", "fit_msar", fit_msar, data,
        tol=opts["msar_tol"], max_iter=opts["msar_max_iter"],
    )
    tr.count("msar.iterations", msar.iterations + msar.warm_iterations)
    tr.count("msar.unconverged", 0 if msar.converged else 1)
    return tr.call(
        PIPE, "SfofrFit", SfofrFit,
        response_decomp=y_decomp, predictor_decomp=x_decomp, msar_fit=msar,
        y_mean=y_mean, x_mean=x_mean, y_grid=y_data.grid, x_grid=x_data.grid,
        weights=weights, options=opts,
    )


def _from_scores(tr, fit, scores, weights, ids, metric):
    """Body of the library's reduced-form prediction from predictor scores."""
    with tr.span(metric, "predict_from_scores"):
        c = scores @ fit.msar_fit.params.b
        tr.call("spatial.rho_w_s", "spectral_radius", weights.spectral_radius)
        m_hat = tr.call(
            "msar.reduced_form_s", "reduced_form_solve",
            reduced_form_solve, fit.msar_fit.params.rho, weights, c,
        )
        curves = tr.call(FPCA, "reconstruct", reconstruct, m_hat, fit.response_decomp, fit.y_grid)
        curves = curves + fit.y_mean
        return tr.call(FD, "FunctionalDataset", FunctionalDataset, grid=fit.y_grid, values=curves, ids=ids)


def fitted_values(tr, fit, metric=PIPE):
    """``pipeline.fitted_values(fit)``."""
    return _from_scores(tr, fit, fit.predictor_decomp.scores, fit.weights, None, metric)


def predict(tr, fit, x_new, weights_new, metric=PIPE):
    """``pipeline.predict(fit, x_new, weights_new)``; also returns the scores."""
    with tr.span(metric, "predict"):
        if x_new.grid.size != fit.x_grid.size or not np.allclose(
            x_new.grid, fit.x_grid, rtol=0, atol=1e-12
        ):
            raise ValueError("new predictor grid differs from the training grid")
        if weights_new.n != x_new.n:
            raise ValueError("weight matrix size must match the number of new units")
        centered = tr.call(
            FD, "FunctionalDataset", FunctionalDataset,
            grid=x_new.grid, values=x_new.values - fit.x_mean,
        )
        coeffs = tr.call(
            FD, "smooth_curves", smooth_curves, centered, fit.x_basis,
            fit.options.get("ridge", DEFAULT_RIDGE),
        )
        scores = tr.call(FPCA, "project", project, coeffs, fit.predictor_decomp)
        return _from_scores(tr, fit, scores, weights_new, x_new.ids, metric), scores


# --- Monte Carlo replication -------------------------------------------------


def run_replication(tr, cfg, replication_index: int):
    """``simgen.run_replication(cfg, replication_index)``.

    Returns (results, extras); ``extras`` holds both fits, their fitted
    values and predictions, the test scores and both weight matrices.
    """
    if cfg.fit_options is not None:
        raise ValueError("the traced replication covers fit_options=None only")
    rng = tr.call(SIM, "replication_rng", replication_rng, cfg.seed, replication_index)
    grid = cfg.grid
    gen = dict(
        noise_sd=cfg.noise_sd, neumann_tol=cfg.neumann_tol,
        neumann_max_terms=cfg.neumann_max_terms, smooth_noise=cfg.smooth_noise,
    )
    data = {}
    for part, n in (("train", cfg.n_train), ("test", cfg.n_test)):
        w = tr.call_peak("spatial.weights_s", "make_weights", "spatial.weights_peak_mb", cfg.make_weights, n)
        x = tr.call(SIM, "gen_predictors", gen_predictors, n, grid, rng)
        y = tr.call("simgen.gen_response_s", "gen_response", gen_response, x, w, cfg.alpha, rng, **gen)
        data[part] = (w, x, y)
    w_train, x_train, y_train = data["train"]
    w_test, x_test, y_test = data["test"]

    with tr.span(SIM, "true_surfaces"):
        beta_truth = SurfaceEstimate(
            ugrid=grid, tgrid=grid, values=true_beta(grid[:, None], grid[None, :]), kind="beta",
        )
        rho_truth = SurfaceEstimate(
            ugrid=grid, tgrid=grid,
            values=true_rho(grid[:, None], grid[None, :], cfg.alpha), kind="rho",
        )

    extras = {"w_train": w_train, "w_test": w_test}
    results = {}
    for method, metric in (("sfofr", PIPE), ("fpc", BASE)):
        with tr.span(metric, "baseline" if method == "fpc" else "spatial_model"):
            if method == "sfofr":
                fit = fit_sfofr(tr, y_train, x_train, w_train)
            else:
                fit = tr.call(
                    metric, "fit_fofr_fpc", fit_fofr_fpc, y_train, x_train, options=cfg.fit_options
                )
            beta_hat = tr.call(metric, "reconstruct_beta", reconstruct_beta, fit, grid, grid)
            out = {"ise_beta": tr.call(metric, "ise_surface", ise_surface, beta_hat, beta_truth)}
            rho_hat = None
            if method == "sfofr":
                rho_hat = tr.call(metric, "reconstruct_rho", reconstruct_rho, fit, grid, grid)
                out["ise_rho"] = tr.call(metric, "ise_surface", ise_surface, rho_hat, rho_truth)
            else:
                out["ise_rho"] = float("nan")
            fitted = fitted_values(tr, fit, metric)
            rep = tr.call(metric, "represent_response", represent_response, fit, y_train)
            out["mse"] = tr.call(metric, "mse_curves", mse_curves, fitted, rep)
            pred, scores = predict(tr, fit, x_test, w_test, metric)
            rep = tr.call(metric, "represent_response", represent_response, fit, y_test)
            out["mspe"] = tr.call(metric, "mse_curves", mse_curves, pred, rep)
        results[method] = out
        extras[method] = dict(
            fit=fit, fitted=fitted, pred=pred, scores=scores, beta_hat=beta_hat.values,
            rho_hat=None if rho_hat is None else rho_hat.values,
        )
    return results, extras


# --- CLI ---------------------------------------------------------------------


def _io(tr, metric, label, fn, *args, **kwargs):
    """An io call under a span, adding its read/written bytes to the counters."""
    before = read_io_counters()
    out = tr.call(metric, label, fn, *args, **kwargs)
    after = read_io_counters()
    if before is not None and after is not None:
        tr.count("io.bytes_read", after[0] - before[0] - before[2])
        tr.count("io.bytes_written", after[1] - before[1])
    return out


def read_io_counters():
    """(rchar, wchar, bytes this read returned) of this process, or None.

    The kernel counts a read of /proc/self/io after rendering it, so the next
    reading includes this one's length, which callers subtract.
    """
    try:
        with open("/proc/self/io", "rb") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = dict(line.split(b":") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


def cli_fit(tr, argv):
    """``cli.main(argv)`` for the ``fit`` command, call by call."""
    with tr.span("cli.self_s", "main fit"):
        args = cli.build_parser().parse_args(argv)
        cfg = cli.resolve_config(args.command, args)
        out = Path(cfg["out"])
        y = _io(tr, "io.self_s", "read_curves_csv", sio.read_curves_csv, cfg["y"])
        x = _io(tr, "io.self_s", "read_curves_csv", sio.read_curves_csv, cfg["x"])
        weights = _io(
            tr, "io.weights_read_s", "read_weights_csv", sio.read_weights_csv,
            cfg["w"], layout=cfg["weights_format"],
        )
        options = {k: cfg[k] for k in ("num_basis", "degree", "ridge", "var_threshold", "msar_max_iter")}
        if any(options[k] != OPTIONS[k] for k in options):
            raise ValueError("the traced fit covers the default options only")
        fit = fit_sfofr(tr, y, x, weights)
        fitted = fitted_values(tr, fit)
        _io(
            tr, "io.self_s", "write_curves_csv", sio.write_curves_csv, out / "fitted.csv",
            FunctionalDataset(grid=fitted.grid, values=fitted.values, ids=y.ids),
        )
        outputs = [
            "fitted.csv", "chi_y.csv", "chi_x.csv", "scores_y.csv", "scores_x.csv",
            "rho.csv", "b.csv", "prec_chol.csv", "y_mean.csv", "x_mean.csv",
            "w_train.csv", "rho_surface.csv", "beta_surface.csv",
        ]
        if cfg["dump_fpca"]:
            raise ValueError("the traced fit does not cover --dump-fpca")
        _io(
            tr, "io.bundle_save_s", "save_fit_bundle", sio.save_fit_bundle, fit, out,
            extra_manifest={"command": "fit", "resolved_config": cfg, "outputs": sorted(outputs)},
        )
        return fit, fitted


def cli_predict(tr, argv):
    """``cli.main(argv)`` for the ``predict`` command, call by call."""
    with tr.span("cli.self_s", "main predict"):
        args = cli.build_parser().parse_args(argv)
        cfg = cli.resolve_config(args.command, args)
        out = Path(cfg["out"])
        fit = _io(tr, "io.bundle_load_s", "load_fit_bundle", sio.load_fit_bundle, cfg["bundle"])
        x_new = _io(tr, "io.self_s", "read_curves_csv", sio.read_curves_csv, cfg["x_new"])
        w_new = _io(
            tr, "io.weights_read_s", "read_weights_csv", sio.read_weights_csv,
            cfg["w_new"], layout=cfg["weights_format"],
        )
        pred, scores = predict(tr, fit, x_new, w_new)
        _io(tr, "io.self_s", "write_curves_csv", sio.write_curves_csv, out / "predictions.csv", pred)
        _io(
            tr, "io.self_s", "write_json", sio.write_json, out / "manifest.json",
            {"command": "predict", "resolved_config": cfg, "outputs": ["predictions.csv"]},
        )
        return fit, pred, scores, w_new
