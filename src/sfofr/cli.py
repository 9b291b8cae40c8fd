"""Command-line front end.

Subcommands: simulate | weights | fit | predict | moran | mc-bench.

Every option can come from three places with fixed precedence: an explicit
command-line flag beats the JSON config file (--config), which beats the
built-in default. Unknown config keys are rejected. Each run writes a
manifest echoing its fully resolved configuration, so a run can be reproduced
from its outputs alone. Exit codes: 0 success, 1 data error, 2 numerical
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .exceptions import DataError, NumericalError, ParameterError
from .fdbasis import FunctionalDataset, center, make_bspline_basis, smooth_curves
from .pipeline import fit_sfofr, fitted_values, predict
from .simgen import SimConfig, generate, run_benchmark, summarize_benchmark
from .spatial import (
    exponential_weights,
    functional_morans_i,
    inverse_distance_weights,
    knn_weights,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as data errors (exit code 1)."""

    def error(self, message):
        raise ParameterError(message)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file with option defaults")
    sub.add_argument("--seed", type=int, help="random seed (simulate/mc-bench)")
    sub.add_argument("--threads", type=int, help="parallel workers for mc-bench")
    sub.add_argument("--out", help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="sfofr", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate one synthetic dataset")
    sim.add_argument("--n", type=int, help="number of spatial units")
    sim.add_argument("--alpha", type=float, help="spatial dependence strength in (0,1)")
    sim.add_argument("--weight-kind", choices=["inverse", "exponential"])
    sim.add_argument("--decay", type=float, help="exponential weight decay d")
    sim.add_argument("--grid-size", type=int)
    sim.add_argument("--noise-sd", type=float)
    sim.add_argument("--smooth-noise", action="store_true", default=None)
    _add_common(sim)

    wts = subs.add_parser("weights", help="build a spatial weight matrix")
    wts.add_argument("--kind", choices=["inverse", "exponential", "knn"])
    wts.add_argument("--n", type=int, help="lattice size (inverse/exponential)")
    wts.add_argument("--decay", type=float)
    wts.add_argument("--coords", help="id,lat,lon CSV (knn)")
    wts.add_argument("--knn-h", type=int, help="number of nearest neighbors")
    wts.add_argument("--weights-format", choices=["dense", "triplet"])
    _add_common(wts)

    fit = subs.add_parser("fit", help="fit the spatial model, write a fit bundle")
    fit.add_argument("--y", help="response curve CSV")
    fit.add_argument("--x", help="predictor curve CSV")
    fit.add_argument("--w", help="weights CSV")
    fit.add_argument("--weights-format", choices=["dense", "triplet"])
    fit.add_argument("--num-basis", type=int)
    fit.add_argument("--degree", type=int)
    fit.add_argument("--ridge", type=float)
    fit.add_argument("--var-threshold", type=float)
    fit.add_argument("--msar-max-iter", type=int)
    fit.add_argument("--dump-fpca", action="store_true", default=None)
    _add_common(fit)

    prd = subs.add_parser("predict", help="predict new curves from a fit bundle")
    prd.add_argument("--bundle", help="fit bundle directory")
    prd.add_argument("--x-new", help="new predictor curve CSV")
    prd.add_argument("--w-new", help="new weights CSV")
    prd.add_argument("--weights-format", choices=["dense", "triplet"])
    _add_common(prd)

    mor = subs.add_parser("moran", help="functional Moran's I of a curve set")
    mor.add_argument("--y", help="curve CSV")
    mor.add_argument("--w", help="weights CSV")
    mor.add_argument("--weights-format", choices=["dense", "triplet"])
    mor.add_argument("--num-basis", type=int)
    mor.add_argument("--degree", type=int)
    mor.add_argument("--ridge", type=float)
    _add_common(mor)

    mcb = subs.add_parser("mc-bench", help="Monte Carlo benchmark of both methods")
    mcb.add_argument("--n-train", type=int)
    mcb.add_argument("--n-test", type=int)
    mcb.add_argument("--alpha", type=float)
    mcb.add_argument("--weight-kind", choices=["inverse", "exponential"])
    mcb.add_argument("--decay", type=float)
    mcb.add_argument("--grid-size", type=int)
    mcb.add_argument("--noise-sd", type=float)
    mcb.add_argument("--reps", type=int, help="number of replications")
    _add_common(mcb)
    return parser


_DEFAULTS = {
    "simulate": {
        "n": 100, "alpha": 0.5, "weight_kind": "exponential", "decay": 0.5,
        "grid_size": 101, "noise_sd": 1.0, "smooth_noise": False,
        "seed": None, "threads": None, "out": "sfofr-out",
    },
    "weights": {
        "kind": "exponential", "n": None, "decay": 0.5, "coords": None,
        "knn_h": None, "weights_format": "dense",
        "seed": None, "threads": None, "out": "sfofr-out",
    },
    "fit": {
        "y": None, "x": None, "w": None, "weights_format": "dense",
        "num_basis": 20, "degree": 3, "ridge": 1e-8, "var_threshold": 0.95,
        "msar_max_iter": 500, "dump_fpca": False,
        "seed": None, "threads": None, "out": "sfofr-out",
    },
    "predict": {
        "bundle": None, "x_new": None, "w_new": None, "weights_format": "dense",
        "seed": None, "threads": None, "out": "sfofr-out",
    },
    "moran": {
        "y": None, "w": None, "weights_format": "dense",
        "num_basis": 20, "degree": 3, "ridge": 1e-8,
        "seed": None, "threads": None, "out": "sfofr-out",
    },
    "mc-bench": {
        "n_train": 100, "n_test": 200, "alpha": 0.5,
        "weight_kind": "exponential", "decay": 0.5, "grid_size": 101,
        "noise_sd": 1.0, "reps": 10,
        "seed": None, "threads": None, "out": "sfofr-out",
    },
}


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit CLI flags."""
    resolved = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        file_cfg = sio.read_json(args.config)
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise ParameterError(
                f"unknown config keys for {command}: {sorted(unknown)}"
            )
        resolved.update(file_cfg)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(cfg: dict, keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ParameterError(
            "missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing)
        )


def _write_manifest(out: Path, command: str, cfg: dict, outputs: list):
    sio.write_json(
        out / "manifest.json",
        {"command": command, "resolved_config": cfg, "outputs": sorted(outputs)},
    )


def _read_weights(cfg: dict, key: str):
    return sio.read_weights_csv(cfg[key], layout=cfg.get("weights_format", "dense"))


# --- subcommands --------------------------------------------------------------


def cmd_simulate(cfg: dict) -> int:
    _require(cfg, ["seed", "n", "alpha"])
    out = Path(cfg["out"])
    sim_cfg = SimConfig(
        n_train=cfg["n"], n_test=max(2, cfg["n"]), alpha=cfg["alpha"],
        weight_kind=cfg["weight_kind"], decay=cfg["decay"],
        grid_size=cfg["grid_size"], noise_sd=cfg["noise_sd"],
        seed=cfg["seed"], smooth_noise=cfg["smooth_noise"],
    )
    truth = generate(sim_cfg)
    sio.write_curves_csv(out / "y.csv", truth.y_data)
    sio.write_curves_csv(out / "x.csv", truth.x_data)
    sio.write_weights_csv(out / "w.csv", truth.weights, layout="dense")
    sio.write_json(
        out / "truth.json",
        {
            "alpha": cfg["alpha"],
            "seed": cfg["seed"],
            "weight_kind": cfg["weight_kind"],
            "n": cfg["n"],
            "grid": [float(t) for t in truth.x_data.grid],
            "beta_surface": truth.beta_surface.values.tolist(),
            "rho_surface": truth.rho_surface.values.tolist(),
        },
    )
    _write_manifest(out, "simulate", cfg, ["y.csv", "x.csv", "w.csv", "truth.json"])
    return 0


def cmd_weights(cfg: dict) -> int:
    out = Path(cfg["out"])
    if cfg["kind"] == "knn":
        _require(cfg, ["coords", "knn_h"])
        _, coords = sio.read_coords_csv(cfg["coords"])
        weights = knn_weights(coords, cfg["knn_h"])
    else:
        _require(cfg, ["n"])
        if cfg["kind"] == "inverse":
            weights = inverse_distance_weights(cfg["n"])
        else:
            weights = exponential_weights(cfg["n"], cfg["decay"])
    sio.write_weights_csv(out / "weights.csv", weights, layout=cfg["weights_format"])
    _write_manifest(out, "weights", cfg, ["weights.csv"])
    return 0


def cmd_fit(cfg: dict) -> int:
    _require(cfg, ["y", "x", "w"])
    out = Path(cfg["out"])
    y = sio.read_curves_csv(cfg["y"])
    x = sio.read_curves_csv(cfg["x"])
    weights = _read_weights(cfg, "w")
    fit = fit_sfofr(
        y, x, weights,
        options={
            "num_basis": cfg["num_basis"],
            "degree": cfg["degree"],
            "ridge": cfg["ridge"],
            "var_threshold": cfg["var_threshold"],
            "msar_max_iter": cfg["msar_max_iter"],
        },
    )
    fitted = fitted_values(fit)
    sio.write_curves_csv(
        out / "fitted.csv",
        FunctionalDataset(grid=fitted.grid, values=fitted.values, ids=y.ids),
    )
    outputs = [
        "fitted.csv", "chi_y.csv", "chi_x.csv", "scores_y.csv", "scores_x.csv",
        "rho.csv", "b.csv", "prec_chol.csv", "y_mean.csv", "x_mean.csv",
        "w_train.csv", "rho_surface.csv", "beta_surface.csv",
    ]
    if cfg["dump_fpca"]:
        for name, decomp, chi_csv, scores_csv in (
            ("fpca_y.json", fit.response_decomp, "chi_y.csv", "scores_y.csv"),
            ("fpca_x.json", fit.predictor_decomp, "chi_x.csv", "scores_x.csv"),
        ):
            meta = sio.decomp_meta(decomp)
            sio.write_json(out / name, {**meta, "chi_csv": chi_csv, "scores_csv": scores_csv})
            outputs.append(name)
    sio.save_fit_bundle(
        fit, out,
        extra_manifest={
            "command": "fit",
            "resolved_config": cfg,
            "outputs": sorted(outputs),
        },
    )
    return 0


def cmd_predict(cfg: dict) -> int:
    _require(cfg, ["bundle", "x_new", "w_new"])
    out = Path(cfg["out"])
    fit = sio.load_fit_bundle(cfg["bundle"])
    x_new = sio.read_curves_csv(cfg["x_new"])
    w_new = _read_weights(cfg, "w_new")
    pred = predict(fit, x_new, w_new)
    sio.write_curves_csv(out / "predictions.csv", pred)
    _write_manifest(out, "predict", cfg, ["predictions.csv"])
    return 0


def cmd_moran(cfg: dict) -> int:
    _require(cfg, ["y", "w"])
    out = Path(cfg["out"])
    y = sio.read_curves_csv(cfg["y"])
    weights = _read_weights(cfg, "w")
    basis = make_bspline_basis(cfg["num_basis"], cfg["degree"])
    centered, _ = center(y)
    coeffs = smooth_curves(centered, basis, cfg["ridge"])
    values = functional_morans_i(coeffs, weights, y.grid)
    sio.write_moran_csv(out / "moran.csv", y.grid, values)
    _write_manifest(out, "moran", cfg, ["moran.csv"])
    return 0


def cmd_mc_bench(cfg: dict) -> int:
    _require(cfg, ["seed", "reps"])
    out = Path(cfg["out"])
    threads = cfg["threads"] or os.cpu_count() or 1
    sim_cfg = SimConfig(
        n_train=cfg["n_train"], n_test=cfg["n_test"], alpha=cfg["alpha"],
        weight_kind=cfg["weight_kind"], decay=cfg["decay"],
        grid_size=cfg["grid_size"], noise_sd=cfg["noise_sd"], seed=cfg["seed"],
    )
    results = run_benchmark(sim_cfg, cfg["reps"], threads=threads)
    lines = ["replication,method,ise_beta,ise_rho,mse,mspe"]
    for idx, rep in enumerate(results):
        for method in ("sfofr", "fpc"):
            m = rep[method]
            ise_rho = "" if np.isnan(m["ise_rho"]) else sio.fmt(m["ise_rho"])
            lines.append(
                f"{idx},{method},{sio.fmt(m['ise_beta'])},{ise_rho},"
                f"{sio.fmt(m['mse'])},{sio.fmt(m['mspe'])}"
            )
    sio.atomic_write_text(out / "results.csv", "\n".join(lines) + "\n")
    summary = summarize_benchmark(results)
    summary["config"] = cfg
    sio.write_json(out / "summary.json", summary)
    _write_manifest(out, "mc-bench", cfg, ["results.csv", "summary.json"])
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "weights": cmd_weights,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "moran": cmd_moran,
    "mc-bench": cmd_mc_bench,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.command, args)
        return _HANDLERS[args.command](cfg)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
