"""Stable file formats: curve CSVs, weight CSVs, surfaces, and fit bundles.

All numeric text is written with 17 significant digits, which round-trips
IEEE doubles bit-exactly. Files are written atomically (temp file in the
target directory, then rename) so a crashed run never leaves a partial file.

Formats
-------
Curve CSV      : header row ``t,<t_1>,...,<t_T>`` with the grid, then one row
                 ``<id>,<v_1>,...,<v_T>`` per curve.
Weights CSV    : either ``dense`` (n header-less rows of n values) or
                 ``triplet`` (``i,j,w`` rows with 0-based indices).
Coordinates CSV: header ``id,lat,lon``.
Surface CSV    : tidy triples with header ``u,t,value``.
Moran CSV      : tidy pairs with header ``t,value``.
Fit bundle     : a directory holding manifest.json plus CSV matrices for the
                 eigenfunction coefficients, scores, rho, B, the precision
                 factor, mean curves, the training weights, and both fitted
                 surfaces on a 101 x 101 grid. The training weights are
                 written in the triplet layout when stored as CSR, else
                 dense (manifest key ``weights_layout``, dense when absent);
                 a lattice W's balance vector goes to w_balance.csv.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .exceptions import DataError, ParameterError
from .fdbasis import FunctionalDataset, make_bspline_basis
from .fpca import FpcDecomposition
from .msar import MsarFit, MsarParams, spectral_radius
from .pipeline import (
    SfofrFit,
    SurfaceEstimate,
    contraction_diagnostic,
    reconstruct_beta,
    reconstruct_rho,
)
from .spatial import SPARSE_THRESHOLD, SpatialWeights, _with_balance

BUNDLE_FORMAT = "sfofr-fit-bundle"
BUNDLE_VERSION = 1


def fmt(x: float) -> str:
    """17-significant-digit decimal text; bit-exact for IEEE doubles."""
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str):
    """Write text via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{path}:{line_no}: cannot parse number {token!r}") from None


# --- curve CSV ---------------------------------------------------------------


def write_curves_csv(path, data: FunctionalDataset):
    ids = data.ids if data.ids is not None else tuple(str(i) for i in range(data.n))
    lines = ["t," + ",".join(fmt(t) for t in data.grid)]
    for uid, row in zip(ids, data.values):
        lines.append(str(uid) + "," + ",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_curves_csv(path) -> FunctionalDataset:
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty curve file")
    header = lines[0].split(",")
    if header[0].strip() != "t":
        raise DataError(f"{path}:1: curve files must start with a 't' header row")
    grid = [_parse_float(tok, path, 1) for tok in header[1:]]
    ids, rows = [], []
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(grid) + 1:
            raise DataError(
                f"{path}:{no}: expected {len(grid) + 1} fields, got {len(parts)}"
            )
        ids.append(parts[0])
        rows.append([_parse_float(tok, path, no) for tok in parts[1:]])
    return FunctionalDataset(grid=np.array(grid), values=np.array(rows), ids=ids)


def _read_lines(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return [ln for ln in text.splitlines() if ln.strip()]


# --- weights CSV -------------------------------------------------------------


def write_weights_csv(path, weights: SpatialWeights, layout: str = "dense"):
    if layout == "dense":
        mat = weights.toarray()
        lines = [",".join(fmt(v) for v in row) for row in mat]
    elif layout == "triplet":
        coo = sp.coo_array(weights.matrix)  # row-major, nonzeros only
        lines = ["i,j,w"] + [
            f"{i},{j},{fmt(w)}" for i, j, w in zip(coo.row, coo.col, coo.data)
        ]
    else:
        raise ParameterError(f"unknown weights layout {layout!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_weights_csv(path, layout: str = "dense") -> SpatialWeights:
    lines = _read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty weights file")
    if layout == "dense":
        rows = []
        for no, line in enumerate(lines, start=1):
            rows.append([_parse_float(tok, path, no) for tok in line.split(",")])
        mat = np.array(rows)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DataError(f"{path}: dense weights must form a square matrix")
    elif layout == "triplet":
        if lines[0].replace(" ", "") != "i,j,w":
            raise DataError(f"{path}:1: triplet weights need an 'i,j,w' header")
        entries = []
        for no, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}:{no}: expected 3 fields")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{no}: indices must be integers") from None
            if i < 0 or j < 0:
                raise DataError(f"{path}:{no}: indices must be nonnegative")
            entries.append((i, j, _parse_float(parts[2], path, no)))
        if not entries:
            raise DataError(f"{path}: triplet weights file has no entries")
        rows, cols, vals = (np.array(v) for v in zip(*entries))
        n = int(max(rows.max(), cols.max())) + 1
        # a repeated (i, j) keeps its last value, as the file reads
        key = rows * n + cols
        _, first_rev = np.unique(key[::-1], return_index=True)
        keep = key.size - 1 - first_rev
        coo = sp.coo_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
        coo.eliminate_zeros()
        mat = coo.toarray() if n < SPARSE_THRESHOLD else sp.csr_array(coo)
    else:
        raise ParameterError(f"unknown weights layout {layout!r}")
    sums = np.asarray(mat.sum(axis=1)).ravel()
    normalized = bool(np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0)))
    return SpatialWeights(matrix=mat, normalized=normalized, kind="custom")


# --- coordinates CSV ---------------------------------------------------------


def read_coords_csv(path):
    """Read ``id,lat,lon`` rows; returns (ids, GeoCoordinates)."""
    from .spatial import GeoCoordinates

    lines = _read_lines(path)
    if not lines or lines[0].replace(" ", "").lower() != "id,lat,lon":
        raise DataError(f"{path}:1: coordinate files need an 'id,lat,lon' header")
    ids, lat, lon = [], [], []
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{no}: expected 3 fields")
        ids.append(parts[0])
        lat.append(_parse_float(parts[1], path, no))
        lon.append(_parse_float(parts[2], path, no))
    return ids, GeoCoordinates(lat=np.array(lat), lon=np.array(lon))


# --- tidy outputs ------------------------------------------------------------


def write_surface_csv(path, surface: SurfaceEstimate):
    lines = ["u,t,value"]
    for a, u in enumerate(surface.ugrid):
        for b, t in enumerate(surface.tgrid):
            lines.append(f"{fmt(u)},{fmt(t)},{fmt(surface.values[a, b])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_moran_csv(path, tgrid, values):
    lines = ["t,value"]
    for t, v in zip(tgrid, values):
        lines.append(f"{fmt(t)},{fmt(v)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- plain matrix CSV (header-less) ------------------------------------------


def write_matrix_csv(path, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    lines = [",".join(fmt(v) for v in row) for row in mat]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    lines = _read_lines(path)
    return np.array(
        [[_parse_float(tok, path, no) for tok in line.split(",")]
         for no, line in enumerate(lines, start=1)]
    )


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read JSON {path}: {exc}") from exc


# --- fit bundle --------------------------------------------------------------


def save_fit_bundle(fit: SfofrFit, directory, extra_manifest: dict | None = None):
    """Serialize a fitted model to a directory; returns the manifest dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    surface_grid = np.linspace(0.0, 1.0, 101)
    rho_surface = reconstruct_rho(fit, surface_grid, surface_grid)
    beta_surface = reconstruct_beta(fit, surface_grid, surface_grid)

    write_matrix_csv(directory / "chi_y.csv", fit.response_decomp.chi)
    write_matrix_csv(directory / "chi_x.csv", fit.predictor_decomp.chi)
    write_matrix_csv(directory / "scores_y.csv", fit.response_decomp.scores)
    write_matrix_csv(directory / "scores_x.csv", fit.predictor_decomp.scores)
    write_matrix_csv(directory / "rho.csv", fit.msar_fit.params.rho)
    write_matrix_csv(directory / "b.csv", fit.msar_fit.params.b)
    write_matrix_csv(directory / "prec_chol.csv", fit.msar_fit.params.prec_chol)
    write_matrix_csv(directory / "y_mean.csv", np.vstack([fit.y_grid, fit.y_mean]))
    write_matrix_csv(directory / "x_mean.csv", np.vstack([fit.x_grid, fit.x_mean]))
    w_layout = "triplet" if sp.issparse(fit.weights.matrix) else "dense"
    write_weights_csv(directory / "w_train.csv", fit.weights, layout=w_layout)
    balance = getattr(fit.weights, "_balance", None)
    if balance is not None:
        write_matrix_csv(directory / "w_balance.csv", balance)
    write_surface_csv(directory / "rho_surface.csv", rho_surface)
    write_surface_csv(directory / "beta_surface.csv", beta_surface)

    msar = fit.msar_fit
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "dims": {
            "n": fit.response_decomp.scores.shape[0],
            "k_y": fit.k_y,
            "k_x": fit.k_x,
            "num_basis": fit.y_basis.num_basis,
            "degree": fit.y_basis.degree,
        },
        "options": dict(fit.options),
        "weights_normalized": bool(fit.weights.normalized),
        "weights_kind": fit.weights.kind,
        "weights_layout": w_layout,
        "weights_balanced": balance is not None,
        "response_decomposition": decomp_meta(fit.response_decomp),
        "predictor_decomposition": decomp_meta(fit.predictor_decomp),
        "convergence": {
            "objective": msar.objective,
            "grad_norm": msar.grad_norm,
            "iterations": msar.iterations,
            "warm_iterations": msar.warm_iterations,
            "converged": msar.converged,
            "tolerance": msar.tolerance,
            "message": msar.message,
            "objective_trace": list(msar.objective_trace),
            "spectral_radius_trace": list(msar.spectral_radius_trace),
        },
        "diagnostics": {
            "rho_spectral_radius": spectral_radius(msar.params.rho),
            "contraction": contraction_diagnostic(rho_surface, fit.weights),
        },
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    write_json(directory / "manifest.json", manifest)
    return manifest


def decomp_meta(decomp: FpcDecomposition) -> dict:
    """Eigenvalues and variance shares of a decomposition, as JSON values."""
    return {
        "kind": decomp.kind,
        "eigenvalues": [float(v) for v in decomp.eigenvalues],
        "variance_explained": [float(v) for v in decomp.variance_explained],
        "total_variance": float(decomp.total_variance),
    }


def load_fit_bundle(directory) -> SfofrFit:
    """Rebuild a fitted model from a bundle directory."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise DataError(f"{directory}: not a {BUNDLE_FORMAT} directory")
    dims = manifest["dims"]
    basis = make_bspline_basis(dims["num_basis"], dims["degree"])

    def load_decomp(meta, chi_file, scores_file):
        return FpcDecomposition(
            kind=meta["kind"],
            chi=read_matrix_csv(directory / chi_file),
            eigenvalues=np.array(meta["eigenvalues"]),
            scores=read_matrix_csv(directory / scores_file),
            basis=basis,
            variance_explained=np.array(meta["variance_explained"]),
            total_variance=meta["total_variance"],
        )

    response = load_decomp(
        manifest["response_decomposition"], "chi_y.csv", "scores_y.csv"
    )
    predictor = load_decomp(
        manifest["predictor_decomposition"], "chi_x.csv", "scores_x.csv"
    )
    conv = manifest["convergence"]
    params = MsarParams(
        rho=read_matrix_csv(directory / "rho.csv"),
        b=read_matrix_csv(directory / "b.csv"),
        prec_chol=read_matrix_csv(directory / "prec_chol.csv"),
    )
    msar = MsarFit(
        params=params,
        objective=conv["objective"],
        grad_norm=conv["grad_norm"],
        iterations=conv["iterations"],
        converged=conv["converged"],
        objective_trace=tuple(conv["objective_trace"]),
        tolerance=conv["tolerance"],
        warm_iterations=conv.get("warm_iterations", 0),
        message=conv.get("message", ""),
        spectral_radius_trace=tuple(conv.get("spectral_radius_trace", ())),
    )
    y_mean = read_matrix_csv(directory / "y_mean.csv")
    x_mean = read_matrix_csv(directory / "x_mean.csv")
    weights = read_weights_csv(
        directory / "w_train.csv", layout=manifest.get("weights_layout", "dense")
    )
    if manifest.get("weights_kind"):
        weights = replace(weights, kind=manifest["weights_kind"])
    if manifest.get("weights_balanced"):
        weights = _with_balance(weights, read_matrix_csv(directory / "w_balance.csv"))
    return SfofrFit(
        response_decomp=response,
        predictor_decomp=predictor,
        msar_fit=msar,
        y_mean=y_mean[1],
        x_mean=x_mean[1],
        y_grid=y_mean[0],
        x_grid=x_mean[0],
        weights=weights,
        options=manifest.get("options", {}),
    )
