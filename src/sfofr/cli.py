"""Command-line front end.

Subcommands: simulate | weights | fit | predict | moran | mc-bench.

Every option can come from three places with fixed precedence: an explicit
command-line flag beats the JSON config file (--config), which beats the
built-in default. Unknown config keys are rejected. Each run writes a
manifest echoing its fully resolved configuration, so a run can be reproduced
from its outputs alone. Exit codes: 0 success, 1 data error, 2 numerical
error.

Each command is one ``_COMMANDS`` entry: its handler, help and options, a
required option marked by the default ``_REQUIRED``. ``main`` resolves the
configuration, rejects a run that lacks any required option by naming them
all, and calls the handler with the configuration and the output directory.
The handler returns the names of the files it wrote, and ``main`` writes
their manifest; ``fit`` returns None, as the fit bundle holds its manifest.
(``--help`` shows the paragraphs above this one.)
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io as sio
from .exceptions import DataError, NumericalError, ParameterError
from .fdbasis import FunctionalDataset, center, make_bspline_basis, smooth_curves
from .pipeline import FIT_OPTIONS, fit_sfofr, fitted_values, predict
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


_REQUIRED = object()  # the default of an option that every run must set; it resolves to None


def _option(flag: str, default=None, **kwargs) -> tuple:
    """One option: its flag, its default (or ``_REQUIRED``), and its argparse keywords."""
    return flag, default, kwargs


_OUT = _option("--out", "sfofr-out", help="output directory")
_SEED = _option("--seed", _REQUIRED, type=int, help="random seed")
_ALPHA = _option("--alpha", 0.5, type=float, help="spatial dependence strength in (0,1)")
_WEIGHT_KIND = _option("--weight-kind", SimConfig.weight_kind, choices=["inverse", "exponential"])
_DECAY = _option("--decay", SimConfig.decay, type=float, help="exponential weight decay d")
_GRID_SIZE = _option("--grid-size", SimConfig.grid_size, type=int)
_NOISE_SD = _option("--noise-sd", SimConfig.noise_sd, type=float)
_DESIGN = (_ALPHA, _WEIGHT_KIND, _DECAY, _GRID_SIZE, _NOISE_SD)
_WEIGHTS_FORMAT = _option("--weights-format", "dense", choices=["dense", "triplet"])
# One flag per fit option, typed by its default; moran smooths as fit does
_FIT = {
    key: _option("--" + key.replace("_", "-"), default, type=type(default))
    for key, default in FIT_OPTIONS.items()
}


def _require(cfg: dict, flags):
    missing = [flag for flag in flags if cfg[flag[2:].replace("-", "_")] is None]
    if missing:
        raise ParameterError("missing required option(s): " + ", ".join(missing))


def _manifest(command: str, cfg: dict, outputs: list) -> dict:
    return {"command": command, "resolved_config": cfg, "outputs": sorted(outputs)}


def _sim_config(cfg: dict, **sizes) -> SimConfig:
    """The SimConfig whose fields the resolved options name, plus ``sizes``."""
    names = {f.name for f in dataclasses.fields(SimConfig)}
    return SimConfig(**{k: v for k, v in cfg.items() if k in names}, **sizes)


def _read_weights(cfg: dict, key: str):
    return sio.read_weights_csv(cfg[key], layout=cfg["weights_format"])


# --- subcommands: each writes into ``out`` and returns the names it wrote ------


def cmd_simulate(cfg: dict, out: Path) -> list:
    truth = generate(_sim_config(cfg, n_train=cfg["n"], n_test=max(2, cfg["n"])))
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
    return ["y.csv", "x.csv", "w.csv", "truth.json"]


def cmd_weights(cfg: dict, out: Path) -> list:
    if cfg["kind"] == "knn":
        _require(cfg, ["--coords", "--knn-h"])
        _, coords = sio.read_coords_csv(cfg["coords"])
        weights = knn_weights(coords, cfg["knn_h"])
    else:
        _require(cfg, ["--n"])
        if cfg["kind"] == "inverse":
            weights = inverse_distance_weights(cfg["n"])
        else:
            weights = exponential_weights(cfg["n"], cfg["decay"])
    sio.write_weights_csv(out / "weights.csv", weights, layout=cfg["weights_format"])
    return ["weights.csv"]


def cmd_fit(cfg: dict, out: Path) -> None:
    y = sio.read_curves_csv(cfg["y"])
    x = sio.read_curves_csv(cfg["x"])
    weights = _read_weights(cfg, "w")
    fit = fit_sfofr(y, x, weights, options={k: cfg[k] for k in FIT_OPTIONS})
    fitted = fitted_values(fit)
    sio.write_curves_csv(
        out / "fitted.csv",
        FunctionalDataset(grid=fitted.grid, values=fitted.values, ids=y.ids),
    )
    outputs = ["fitted.csv", *sio.BUNDLE_FILES]
    if cfg["dump_fpca"]:
        file_of = {paths[0]: name for name, paths in sio.BUNDLE_MATRICES.items()}
        for side, part in (("y", "response_decomp"), ("x", "predictor_decomp")):
            files = {f"{key}_csv": file_of[f"{part}.{key}"] for key in ("chi", "scores")}
            meta = {**sio.decomp_meta(getattr(fit, part)), **files}
            sio.write_json(out / f"fpca_{side}.json", meta)
            outputs.append(f"fpca_{side}.json")
    sio.save_fit_bundle(fit, out, extra_manifest=_manifest("fit", cfg, outputs))


def cmd_predict(cfg: dict, out: Path) -> list:
    fit = sio.load_fit_bundle(cfg["bundle"])
    x_new = sio.read_curves_csv(cfg["x_new"])
    w_new = _read_weights(cfg, "w_new")
    pred = predict(fit, x_new, w_new)
    sio.write_curves_csv(out / "predictions.csv", pred)
    return ["predictions.csv"]


def cmd_moran(cfg: dict, out: Path) -> list:
    y = sio.read_curves_csv(cfg["y"])
    weights = _read_weights(cfg, "w")
    basis = make_bspline_basis(cfg["num_basis"], cfg["degree"])
    centered, _ = center(y)
    coeffs = smooth_curves(centered, basis, cfg["ridge"])
    values = functional_morans_i(coeffs, weights, y.grid)
    sio.write_moran_csv(out / "moran.csv", y.grid, values)
    return ["moran.csv"]


def cmd_mc_bench(cfg: dict, out: Path) -> list:
    threads = (os.cpu_count() or 1) if cfg["threads"] is None else cfg["threads"]
    results = run_benchmark(_sim_config(cfg), cfg["reps"], threads=threads)
    lines = ["replication,method,ise_beta,ise_rho,mse,mspe"]
    for idx, rep in enumerate(results):
        for method in ("sfofr", "fpc"):
            m = rep[method]
            ise_rho = "" if np.isnan(m["ise_rho"]) else sio.fmt(m["ise_rho"])
            lines.append(
                f"{idx},{method},{sio.fmt(m['ise_beta'])},{ise_rho},"
                f"{sio.fmt(m['mse'])},{sio.fmt(m['mspe'])}"
            )
    sio.write_lines(out / "results.csv", lines)
    summary = summarize_benchmark(results)
    summary["config"] = cfg
    sio.write_json(out / "summary.json", summary)
    return ["results.csv", "summary.json"]


# Each command's handler, help and options, each option declared once:
# build_parser adds them as flags and resolve_config takes their defaults.
# Every command also takes --config.
_COMMANDS = {
    "simulate": (cmd_simulate, "generate one synthetic dataset", (
        _option("--n", 100, type=int, help="number of spatial units"),
        *_DESIGN,
        _option("--smooth-noise", SimConfig.smooth_noise, action="store_true"),
        _SEED, _OUT,
    )),
    "weights": (cmd_weights, "build a spatial weight matrix", (
        _option("--kind", "exponential", choices=["inverse", "exponential", "knn"]),
        _option("--n", type=int, help="lattice size (inverse/exponential)"),
        _DECAY,
        _option("--coords", help="id,lat,lon CSV (knn)"),
        _option("--knn-h", type=int, help="number of nearest neighbors"),
        _WEIGHTS_FORMAT, _OUT,
    )),
    "fit": (cmd_fit, "fit the spatial model, write a fit bundle", (
        _option("--y", _REQUIRED, help="response curve CSV"),
        _option("--x", _REQUIRED, help="predictor curve CSV"),
        _option("--w", _REQUIRED, help="weights CSV"),
        _WEIGHTS_FORMAT, *_FIT.values(),
        _option("--dump-fpca", False, action="store_true"),
        _OUT,
    )),
    "predict": (cmd_predict, "predict new curves from a fit bundle", (
        _option("--bundle", _REQUIRED, help="fit bundle directory"),
        _option("--x-new", _REQUIRED, help="new predictor curve CSV"),
        _option("--w-new", _REQUIRED, help="new weights CSV"),
        _WEIGHTS_FORMAT, _OUT,
    )),
    "moran": (cmd_moran, "functional Moran's I of a curve set", (
        _option("--y", _REQUIRED, help="curve CSV"),
        _option("--w", _REQUIRED, help="weights CSV"),
        _WEIGHTS_FORMAT, *(_FIT[k] for k in ("num_basis", "degree", "ridge")), _OUT,
    )),
    "mc-bench": (cmd_mc_bench, "Monte Carlo benchmark of both methods", (
        _option("--n-train", 100, type=int),
        _option("--n-test", 200, type=int),
        *_DESIGN,
        _option("--reps", 10, type=int, help="number of replications"),
        _SEED,
        _option("--threads", type=int, help="parallel workers (default: all cores)"),
        _OUT,
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sfofr", description=__doc__.rpartition("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag, _, kwargs in options:
            # no parser default, so an absent flag leaves the config file's value
            sub.add_argument(flag, default=None, **kwargs)
        sub.add_argument("--config", help="JSON config file with option defaults")
    return parser


def _check_file_value(flag: str, default, kwargs: dict, value):
    """Check a config-file value against its flag's type and choices; a
    store_true flag takes a JSON boolean, and null is allowed where the
    default is unset."""
    if value is None and default in (None, _REQUIRED):
        return
    kind = bool if kwargs.get("action") == "store_true" else kwargs.get("type", str)
    sio.check_json_type(value, kind, f"config value for {flag}")
    if value not in kwargs.get("choices", [value]):
        raise ParameterError(
            f"config value for {flag} must be one of {kwargs['choices']}, got {value!r}"
        )


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit CLI flags. A config-file value
    passes the checks of its flag's type and choices. A required option left
    unset resolves to None; ``main`` rejects it."""
    options = {option[0][2:].replace("-", "_"): option for option in _COMMANDS[command][2]}
    resolved = {k: None if d is _REQUIRED else d for k, (_, d, _) in options.items()}
    if getattr(args, "config", None):
        file_cfg = sio.read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise ParameterError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_file_value(*options[key], value)
        resolved.update(file_cfg)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def main(argv=None) -> int:
    with warnings.catch_warnings():  # a warning the filters show is one stderr line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            handler, _, options = _COMMANDS[args.command]
            cfg = resolve_config(args.command, args)
            _require(cfg, [flag for flag, default, _ in options if default is _REQUIRED])
            out = Path(cfg["out"])
            outputs = handler(cfg, out)
            if outputs is not None:
                sio.write_json(out / "manifest.json", _manifest(args.command, cfg, outputs))
            return 0
        except DataError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
