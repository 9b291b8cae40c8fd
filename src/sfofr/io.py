"""Stable file formats: curve CSVs, weight CSVs, surfaces, and fit bundles.

All numeric text is written with 17 significant digits, which round-trips
IEEE doubles bit-exactly; the one binary file, a fit bundle's w_train.npy,
holds the doubles themselves. Files are written atomically (temp file in the
target directory, then rename) so a crashed run never leaves a partial file.
Numbers are parsed by numpy's reader, so Python-only spellings such as
``1_000`` are rejected. Every reader error names its file: a malformed line
with its physical line number, blank lines included; data the object it builds
rejects (a decreasing grid, a negative weight) with the object's error type.

Formats
-------
Curve CSV      : header row ``t,<t_1>,...,<t_T>`` with the grid, then one row
                 ``<id>,<v_1>,...,<v_T>`` per curve; ids hold no comma or line break.
Weights CSV    : either ``dense`` (n header-less rows of n values) or
                 ``triplet`` (``i,j,w`` rows with 0-based indices, ending
                 with ``n-1,n-1,0`` when unit n-1 has none, so n survives).
                 Either reads back stored as CSR or dense by W's density.
Coordinates CSV: header ``id,lat,lon``.
Surface CSV    : tidy triples with header ``u,t,value``.
Moran CSV      : tidy pairs with header ``t,value``.
Fit bundle     : a directory holding manifest.json, the nine CSV matrices
                 ``BUNDLE_MATRICES`` maps to fit fields, and both fitted
                 surfaces on a 101 x 101 grid. Version 2 stores the training
                 W as w_train.npy: one ``np.save`` (no pickle) of its nonzero
                 (i, j, w) triplets in row-major order, as a 1-D
                 int64/int64/float64 record array, with n taken from the
                 manifest's ``dims.n``; the file's bytes depend on W alone.
                 W's ``balance`` field, when set (lattice W), goes to
                 w_balance.csv. Only version 2 loads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields, replace
from functools import partial, reduce
from operator import attrgetter, getitem
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .exceptions import DataError, ParameterError
from .fdbasis import FunctionalDataset, make_bspline_basis
from .fpca import FpcDecomposition
from .msar import MsarFit, MsarParams, spectral_radius
from .pipeline import (
    FIT_OPTIONS,
    SfofrFit,
    SurfaceEstimate,
    contraction_diagnostic,
    reconstruct_beta,
    reconstruct_rho,
    warn_if_unconverged,
)
from .spatial import GeoCoordinates, SpatialWeights, _rows_sum_to_one

BUNDLE_FORMAT = "sfofr-fit-bundle"
BUNDLE_VERSION = 2


def fmt(x: float) -> str:
    """17-significant-digit decimal text; bit-exact for IEEE doubles."""
    return f"{float(x):.17g}"


def atomic_write(path, data: str | np.ndarray):
    """Write text, or an array in ``.npy`` form (no pickle), via a temp file
    in the same directory, then rename.

    An array goes straight from its buffer to the file, with no bytes copy.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as handle:
            if isinstance(data, str):
                handle.write(data)
            else:
                np.save(handle, data, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build(path, cls, **kwargs):
    """``cls(**kwargs)``, with a validation error's message prefixed by the
    path of the file the fields came from; the exception type is kept."""
    try:
        return cls(**kwargs)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_float(token: str, path, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{path}:{line_no}: cannot parse number {token!r}") from None


# --- numeric codec -----------------------------------------------------------
#
# Every numeric reader and writer handles a whole matrix at a time: numpy
# parses all rows in one call, and one %-format string per row shape writes
# them. "%.17g" gives the same text as fmt().

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _format_rows(mat) -> list[str]:
    """CSV lines of a 2-D array, all values "%.17g"."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    row_format = ",".join(["%.17g"] * mat.shape[1])
    return [row_format % tuple(row) for row in mat.tolist()]


def _triplets(weights: SpatialWeights) -> np.ndarray:
    """W's nonzero (i, j, w) triplets in row-major order, as one ``_TRIPLET``
    record array: the triplet CSV's rows and a bundle's w_train.npy."""
    coo = sp.coo_array(weights.matrix)
    coo.sum_duplicates()  # sorts by row, then column
    coo.eliminate_zeros()
    rec = np.empty(coo.nnz, dtype=_TRIPLET)
    rec["i"], rec["j"], rec["w"] = coo.row, coo.col, coo.data
    return rec


def _write_csv(path, lines):
    atomic_write(path, "\n".join(lines) + "\n")


def _read_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a file, each with its physical (1-based) number."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]


def _parse_numeric(path, numbered, width=None, first_col: int = 0, dtype=float):
    """Parse ``(line_no, line)`` rows of ``width`` comma-separated fields (by
    default the first row's count), from column ``first_col`` on, in one
    ``np.loadtxt`` call; no rows give an empty 2-D array.

    Field counts are checked line by line first, so a ragged row is named by
    its physical line. Only when numpy rejects a value are the lines walked
    again with Python's parsers to name the first bad line; a value that only
    numpy rejects (``1_000``) is named by the first line numpy rejects alone.
    """
    if width is None:
        width = numbered[0][1].count(",") + 1 if numbered else 0
    if not numbered:
        return np.empty((0, width - first_col), dtype)
    for no, line in numbered:
        got = line.count(",") + 1
        if got != width:
            raise DataError(f"{path}:{no}: expected {width} fields, got {got}")

    kwargs = dict(
        delimiter=",", comments=None, ndmin=2, dtype=dtype, usecols=range(first_col, width)
    )
    try:
        return np.loadtxt([line for _, line in numbered], **kwargs)
    except ValueError as exc:
        _raise_first_bad_field(path, numbered, first_col, np.dtype(dtype))
        for no, line in numbered:
            try:
                np.loadtxt([line], **kwargs)
            except ValueError as line_exc:
                # numpy's "at row 0, column c" counts within this one line
                reason = str(line_exc).partition(" at row ")[0]
                raise DataError(f"{path}:{no}: {reason}") from None
        raise DataError(f"{path}: {exc}") from None


def _raise_first_bad_field(path, numbered, first_col: int, dtype: np.dtype):
    """Raise DataError at the first field Python's parser rejects (``int`` for
    the integer fields of a structured ``dtype``); return if there is none."""
    kinds = [dtype[name].kind for name in dtype.names] if dtype.names else ()
    for no, line in numbered:
        for col, token in enumerate(line.split(",")[first_col:]):
            if col < len(kinds) and kinds[col] == "i":
                try:
                    int(token)
                except ValueError:
                    raise DataError(f"{path}:{no}: indices must be integers") from None
            else:
                _parse_float(token, path, no)


# --- curve CSV ---------------------------------------------------------------


def write_curves_csv(path, data: FunctionalDataset):
    """Raises ParameterError for an id read_curves_csv could not read back:
    one holding a comma or a line break."""
    ids = data.ids if data.ids is not None else tuple(str(i) for i in range(data.n))
    bad = next((u for u in ids if any(c in u for c in ",\n\r")), None)
    if bad is not None:
        raise ParameterError(f"curve id {bad!r} holds a comma or a line break")
    lines = _format_rows(np.vstack([data.grid, data.values]))
    _write_csv(path, [f"{label},{line}" for label, line in zip(["t", *ids], lines)])


def read_curves_csv(path) -> FunctionalDataset:
    numbered = _read_lines(path)
    if not numbered:
        raise DataError(f"{path}: empty curve file")
    no, header = numbered[0]
    if header.split(",")[0].strip() != "t":
        raise DataError(f"{path}:{no}: curve files must start with a 't' header row")
    mat = _parse_numeric(path, numbered, first_col=1)
    ids = [line.split(",", 1)[0] for _, line in numbered[1:]]
    return _build(path, FunctionalDataset, grid=mat[0], values=mat[1:], ids=ids)


# --- weights CSV -------------------------------------------------------------


def write_weights_csv(path, weights: SpatialWeights, layout: str = "dense"):
    if layout == "dense":
        lines = _format_rows(weights.toarray())
    elif layout == "triplet":
        rec = _triplets(weights)
        lines = ["i,j,w"] + ["%d,%d,%.17g" % row for row in rec.tolist()]
        last = weights.n - 1  # the reader sizes W by the largest index
        if last not in rec["i"] and last not in rec["j"]:
            lines.append(f"{last},{last},0")
    else:
        raise ParameterError(f"unknown weights layout {layout!r}")
    _write_csv(path, lines)


def read_weights_csv(path, layout: str = "dense") -> SpatialWeights:
    numbered = _read_lines(path)
    if not numbered:
        raise DataError(f"{path}: empty weights file")
    if layout == "dense":
        mat = _parse_numeric(path, numbered)
        if mat.shape[0] != mat.shape[1]:
            raise DataError(f"{path}: dense weights must form a square matrix")
    elif layout == "triplet":
        no, header = numbered[0]
        if header.replace(" ", "") != "i,j,w":
            raise DataError(f"{path}:{no}: triplet weights need an 'i,j,w' header")
        rows = numbered[1:]
        if not rows:
            raise DataError(f"{path}: triplet weights file has no entries")
        rec = _parse_numeric(path, rows, 3, dtype=_TRIPLET).ravel()
        negative = np.flatnonzero((rec["i"] < 0) | (rec["j"] < 0))
        if negative.size:
            raise DataError(f"{path}:{rows[negative[0]][0]}: indices must be nonnegative")
        # a repeated (i, j) keeps its last value, as the file reads
        ij = np.column_stack([rec["i"], rec["j"]])[::-1]
        ij, first = np.unique(ij, axis=0, return_index=True)
        n = int(ij.max()) + 1
        values = rec["w"][::-1][first]
        # CSR, as _read_weights_npy builds: counting a COO's nonzeros sorts it
        mat = sp.csr_array((values, (ij[:, 0], ij[:, 1])), shape=(n, n))
        mat.eliminate_zeros()
    else:
        raise ParameterError(f"unknown weights layout {layout!r}")
    return _build(path, SpatialWeights, matrix=mat, normalized=_rows_sum_to_one(mat))


# --- coordinates CSV ---------------------------------------------------------


def read_coords_csv(path):
    """Read ``id,lat,lon`` rows; returns (ids, GeoCoordinates)."""
    numbered = _read_lines(path)
    no, header = numbered[0] if numbered else (1, "")
    if header.replace(" ", "").lower() != "id,lat,lon":
        raise DataError(f"{path}:{no}: coordinate files need an 'id,lat,lon' header")
    rows = numbered[1:]
    latlon = _parse_numeric(path, rows, 3, first_col=1)
    bad = np.flatnonzero(~np.isfinite(latlon).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{rows[bad[0]][0]}: coordinates must be finite")
    ids = [line.split(",", 1)[0] for _, line in rows]
    return ids, _build(path, GeoCoordinates, lat=latlon[:, 0], lon=latlon[:, 1])


# --- tidy outputs ------------------------------------------------------------


def write_surface_csv(path, surface: SurfaceEstimate):
    t_text = ["%.17g," % t for t in surface.tgrid.tolist()]  # each grid value formatted once
    lines = ["u,t,value"]
    for u, row in zip(surface.ugrid.tolist(), surface.values.tolist()):
        u_text = "%.17g," % u
        lines += [u_text + t + "%.17g" % v for t, v in zip(t_text, row)]
    _write_csv(path, lines)


def write_moran_csv(path, tgrid, values):
    _write_csv(path, ["t,value"] + _format_rows(np.column_stack([tgrid, values])))


# --- plain matrix CSV (header-less) ------------------------------------------


def write_matrix_csv(path, mat):
    _write_csv(path, _format_rows(mat))


def read_matrix_csv(path) -> np.ndarray:
    return _parse_numeric(path, _read_lines(path))


def write_json(path, payload: dict):
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read JSON {path}: {exc}") from exc


_JSON_NAMES = {
    dict: "object", list: "array", bool: "boolean", str: "string", int: "integer", float: "number"
}


def check_json_type(value, kind: type, what: str):
    """Raise DataError, naming ``what``, unless the JSON-parsed ``value`` has
    the JSON type of ``kind``: true and false are no integers, and an integer
    is a number."""
    if isinstance(value, bool):
        ok = kind is bool
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise DataError(f"{what} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")


# --- bundle weights (binary) -------------------------------------------------


def _read_weights_npy(path, n: int, normalized: bool, kind: str) -> SpatialWeights:
    """Read the n x n W that ``save_fit_bundle`` saved as ``_triplets``; stored
    as CSR or dense by W's density, as when it was built."""
    try:
        rec = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"cannot read weights {path}: {exc}") from None
    if not isinstance(rec, np.ndarray) or rec.dtype != _TRIPLET or rec.ndim != 1:
        raise DataError(f"{path}: expected a 1-D (i, j, w) record array")
    i, j, w = (np.ascontiguousarray(rec[name]) for name in _TRIPLET.names)
    del rec  # hold at most two copies of W at a time
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
    if bad.size:
        k = bad[0]
        raise DataError(f"{path}: entry {k} index ({i[k]}, {j[k]}) outside 0..{n - 1}")
    # CSR from triplets, not COO: counting a COO's nonzeros first sorts it
    mat = sp.csr_array((w, (i, j)), shape=(n, n))
    return _build(path, SpatialWeights, matrix=mat, normalized=normalized, kind=kind)


# --- fit bundle --------------------------------------------------------------

# The nine matrix files of a fit bundle, each with the fit field it holds; a
# mean file holds its grid and its mean curve as two rows.
BUNDLE_MATRICES = {
    "chi_y.csv": ("response_decomp.chi",),
    "chi_x.csv": ("predictor_decomp.chi",),
    "scores_y.csv": ("response_decomp.scores",),
    "scores_x.csv": ("predictor_decomp.scores",),
    "rho.csv": ("msar_fit.params.rho",),
    "b.csv": ("msar_fit.params.b",),
    "prec_chol.csv": ("msar_fit.params.prec_chol",),
    "y_mean.csv": ("y_grid", "y_mean"),
    "x_mean.csv": ("x_grid", "x_mean"),
}
# Every file of a bundle but manifest.json; w_balance.csv joins them when W
# has a balance vector.
BUNDLE_FILES = (*BUNDLE_MATRICES, "w_train.npy", "rho_surface.csv", "beta_surface.csv")
# The manifest's convergence block holds every MsarFit field but params.
_CONVERGENCE = tuple(f for f in fields(MsarFit) if f.name != "params")
# The JSON type of each manifest value the loader reads, by key path; JSON
# holds MsarFit's tuple fields (the traces) as lists. Of the options, predict
# reads only the ridge; the others stay untyped, so extra keys still load
_FIELD_TYPES = {"float": float, "int": int, "bool": bool, "str": str, "tuple": list}
_MANIFEST_TYPES = {
    "dims": dict, "options": dict, "convergence": dict, "response_decomposition": dict,
    "predictor_decomposition": dict, "weights_normalized": bool, "weights_balanced": bool,
    "weights_kind": str, "options.ridge": float,
    **{f"dims.{k}": int for k in ("n", "k_y", "k_x", "num_basis", "degree")},
    **{f"{side}_decomposition.{k}": kind for side in ("response", "predictor") for k, kind in (
        ("kind", str), ("eigenvalues", list), ("variance_explained", list),
        ("total_variance", float))},
    **{f"convergence.{f.name}": _FIELD_TYPES[f.type] for f in _CONVERGENCE},
}


def save_fit_bundle(fit: SfofrFit, directory, extra_manifest: dict | None = None):
    """Serialize a fitted model to a directory; returns the manifest dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    surface_grid = np.linspace(0.0, 1.0, 101)
    rho_surface = reconstruct_rho(fit, surface_grid, surface_grid)
    beta_surface = reconstruct_beta(fit, surface_grid, surface_grid)

    for name, paths in BUNDLE_MATRICES.items():
        write_matrix_csv(directory / name, np.vstack([attrgetter(p)(fit) for p in paths]))
    atomic_write(directory / "w_train.npy", _triplets(fit.weights))  # bytes depend on W alone
    balance = fit.weights.balance
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
        # the ridge predict uses, which the loader requires, also for a fit built by hand
        "options": {"ridge": FIT_OPTIONS["ridge"], **fit.options},
        "weights_normalized": bool(fit.weights.normalized),
        "weights_kind": fit.weights.kind,
        "weights_balanced": balance is not None,
        "response_decomposition": decomp_meta(fit.response_decomp),
        "predictor_decomposition": decomp_meta(fit.predictor_decomp),
        "convergence": {f.name: getattr(msar, f.name) for f in _CONVERGENCE},
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
    """Rebuild a fitted model from a version-2 bundle directory.

    A manifest that is not a JSON object, lacks a required key, holds a value
    of the wrong JSON type (``_MANIFEST_TYPES``) or has dims that disagree
    with the stored matrices raises DataError. Warns, as ``fit_sfofr`` does,
    when the saved score-space fit did not converge."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
        raise DataError(f"{directory}: not a {BUNDLE_FORMAT} directory")
    version = manifest.get("version")
    if version != BUNDLE_VERSION:
        raise DataError(f"{directory}: unsupported {BUNDLE_FORMAT} version {version!r}")
    try:
        for key, kind in _MANIFEST_TYPES.items():
            value = reduce(getitem, key.split("."), manifest)
            check_json_type(value, kind, f"{directory}: manifest.json key {key!r}")
        fit = _read_bundle(directory, manifest)
    except KeyError as exc:
        raise DataError(f"{directory}: manifest.json lacks key {exc.args[0]!r}") from None
    return warn_if_unconverged(fit)


def _read_bundle(directory: Path, manifest: dict) -> SfofrFit:
    arrays = {}  # arrays["msar_fit.params"]["rho"] and so on; part "" is the fit
    for name, paths in BUNDLE_MATRICES.items():
        mat = read_matrix_csv(directory / name)
        for path, value in zip(paths, mat if len(paths) > 1 else [mat]):
            part, _, field = path.rpartition(".")
            arrays.setdefault(part, {})[field] = value
    dims, conv = manifest["dims"], manifest["convergence"]
    y, x = arrays["response_decomp"], arrays["predictor_decomp"]
    stored = {  # scores are n x k, chi is num_basis x k
        "n": {y["scores"].shape[0], x["scores"].shape[0]},
        "k_y": {y["scores"].shape[1], y["chi"].shape[1]},
        "k_x": {x["scores"].shape[1], x["chi"].shape[1]},
        "num_basis": {y["chi"].shape[0], x["chi"].shape[0]},
    }
    for key, sizes in stored.items():
        if sizes != {dims[key]}:
            raise DataError(f"{directory}: manifest.json key 'dims.{key}' is {dims[key]}, "
                            f"but the stored matrices have {sorted(sizes)}")
    basis = make_bspline_basis(dims["num_basis"], dims["degree"])
    decomps = {}
    for side in ("response", "predictor"):
        meta = manifest[f"{side}_decomposition"]
        decomps[f"{side}_decomp"] = FpcDecomposition(
            **arrays[f"{side}_decomp"],
            basis=basis,
            kind=meta["kind"],
            eigenvalues=np.array(meta["eigenvalues"]),
            variance_explained=np.array(meta["variance_explained"]),
            total_variance=meta["total_variance"],
        )
    conv = {f.name: conv[f.name] for f in _CONVERGENCE}
    # JSON holds the tuple-valued fields (the traces) as lists
    conv = {k: tuple(v) if isinstance(v, list) else v for k, v in conv.items()}
    msar = MsarFit(params=MsarParams(**arrays["msar_fit.params"]), **conv)
    weights = _read_weights_npy(
        directory / "w_train.npy",
        dims["n"],
        normalized=manifest["weights_normalized"],
        kind=manifest["weights_kind"],
    )
    if manifest["weights_balanced"]:
        path = directory / "w_balance.csv"
        weights = _build(path, partial(replace, weights), balance=read_matrix_csv(path))
    options = manifest["options"]
    return SfofrFit(**decomps, msar_fit=msar, weights=weights, options=options, **arrays[""])
