"""Stable file formats: curve CSVs, weight CSVs, surfaces, and fit bundles.

All numeric text is written with 17 significant digits, which round-trips
IEEE doubles bit-exactly; the one binary file, a fit bundle's w_train.npy,
holds the doubles themselves. Files are written atomically (temp file in the
target directory, then rename) so a crashed run never leaves a partial file.
Numbers are parsed by numpy's reader, so Python-only spellings such as
``1_000`` are rejected. Lines are split by Python's text reader: a line ends
at a line feed, a carriage return or the pair, and at no other Unicode break.
Every reader error names its file: a malformed line with its physical line
number, blank lines included; data the object it builds rejects (a decreasing
grid, a negative weight) with the object's error type.

No CSV reader or writer holds a whole file's text. Writers format and write
one band of rows at a time, a sparse W's dense layout included, and readers
stream the lines into numpy; so a dense W at n = 2000 (an 87 MiB file) is
written with a few MiB of ``tracemalloc`` peak and read with little more than
W's own 30.5 MiB.

Formats
-------
Curve CSV      : header row ``t,<t_1>,...,<t_T>`` with the grid, then one row
                 ``<id>,<v_1>,...,<v_T>`` per curve; ids hold no comma, line
                 feed or carriage return.
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
                 manifest's ``dims.n``; the file's bytes depend on W alone
                 (written as the header, then one band of rows at a time).
                 W's ``balance`` field, when set (lattice W), goes to
                 w_balance.csv. Only version 2 loads.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields, replace
from functools import partial, reduce
from io import BytesIO
from itertools import chain, islice
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
from .spatial import GeoCoordinates, SpatialWeights, _bands, _count_nonzero, _rows_sum_to_one

BUNDLE_FORMAT = "sfofr-fit-bundle"
BUNDLE_VERSION = 2


def fmt(x: float) -> str:
    """17-significant-digit decimal text; bit-exact for IEEE doubles."""
    return f"{float(x):.17g}"


def atomic_write(path, data):
    """Write ``data`` via a temp file in the same directory, then rename.

    ``data`` is text, or an iterable of chunks that are all text or all
    bytes-like (such as arrays); each chunk goes to the file in one write as
    it comes, so the whole file is never held at once. The file gets the mode
    ``open(path, "w")`` gives a new file: 0o666 less the umask.
    """
    chunks = iter([data] if isinstance(data, str) else data)
    first = next(chunks, "")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    umask = os.umask(0o077)  # Python reads the umask only by setting it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w" if isinstance(first, str) else "wb") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            handle.write(first)
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_lines(path, lines):
    """Write text ``lines``, each ended by a newline."""
    atomic_write(path, (f"{line}\n" for line in lines))


def _build(path, cls, **kwargs):
    """``cls(**kwargs)``, with a validation error's message prefixed by the
    path of the file the fields came from; the exception type is kept."""
    try:
        return cls(**kwargs)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# --- numeric codec -----------------------------------------------------------
#
# Every numeric reader and writer works in bounded row bands, so no file's
# whole text is ever held. A writer formats about _TEXT_BAND values at a time,
# one %-format string per row shape ("%.17g" gives the same text as fmt()),
# and hands each band's text to atomic_write. A reader streams the file's
# lines, read by Python's text reader in batches of about _READ_BYTES
# characters, into one np.loadtxt call, checking field counts as they pass;
# it walks the file again only to name a line in an error.

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_TEXT_BAND = 1 << 15  # values per band of text written, about 0.6 MB of it
_READ_BYTES = 1 << 18  # characters of text read at a time


def _format_rows(mat, labels=None):
    """CSV text of the rows of a 2-D array or CSR matrix, all values "%.17g",
    each row led by its label when ``labels`` is given; one chunk per band of
    rows, a CSR band densified on its own."""
    row = ",".join(["%.17g"] * mat.shape[1])
    if labels is not None:
        row = "%s," + row
    for band in _bands(*mat.shape, _TEXT_BAND):
        block = mat[band]
        rows = (block.toarray() if sp.issparse(block) else block).tolist()
        if labels is not None:
            rows = [(label, *values) for label, values in zip(labels[band], rows)]
        yield "\n".join([row % tuple(values) for values in rows]) + "\n"


def _write_rows(path, mat):
    """A header-less CSV of ``mat``'s rows; with no rows, one empty line."""
    atomic_write(path, _format_rows(mat) if mat.shape[0] else "\n")


def _triplets(weights: SpatialWeights):
    """W's nonzero (i, j, w) triplets in row-major order, as one ``_TRIPLET``
    record array per band of rows: the triplet CSV's rows and a bundle's
    w_train.npy. Repeated entries are summed and zeros dropped."""
    mat, n = weights.matrix, weights.n
    per_row = mat.nnz // max(n, 1) if sp.issparse(mat) else n  # entries, at most or on average
    for band in _bands(n, 3 * per_row, _TEXT_BAND):  # three values a triplet
        coo = sp.coo_array(mat[band])
        coo.sum_duplicates()  # sorts by row, then column
        coo.eliminate_zeros()
        rec = np.empty(coo.nnz, dtype=_TRIPLET)
        rec["i"], rec["j"], rec["w"] = coo.row + band.start, coo.col, coo.data
        yield rec


def _open(path):
    try:
        return open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _batches(handle):
    """The non-blank lines of an open text file, newlines kept, a list of
    about _READ_BYTES characters at a time, so numpy takes them with no
    Python call a line. Lines are Python's universal newlines: one ends at a
    line feed, a carriage return or the pair, and at no other break."""
    while lines := handle.readlines(_READ_BYTES):
        if lines := [line for line in lines if line.strip()]:
            yield lines


def _line(path, row: int = 0):
    """``(line_no, line)`` of non-blank line ``row`` (0-based), numbered from
    1 with blank lines counted, as ``_batches`` splits them; None if the file
    has no such line."""
    with _open(path) as handle:
        numbered = ((no, line) for no, line in enumerate(handle, 1) if line.strip())
        return next(islice(numbered, row, None), None)


def _checked(path, batches, width: int, done: int, ids: list | None = None):
    """Each of the line ``batches``, which follow the file's first ``done``
    non-blank lines, checked to hold ``width`` fields a line, the first
    ragged line named by walking the file again; the first field of each line
    goes to ``ids`` when given."""
    for lines in batches:
        commas = [line.count(",") for line in lines]
        if commas.count(width - 1) != len(commas):
            k = next(k for k, c in enumerate(commas) if c != width - 1)
            no = _line(path, done + k)[0]
            raise DataError(f"{path}:{no}: expected {width} fields, got {commas[k] + 1}")
        if ids is not None:
            ids += [line.split(",", 1)[0] for line in lines]
        done += len(lines)
        yield lines


def _parse_numeric(path, skip=0, width=None, first_col=0, dtype=float, ids=None, head=None):
    """Parse the non-blank lines of a file after its first ``skip`` (0 or 1):
    rows of ``width`` comma-separated fields (by default the first row's
    count), from column ``first_col`` on, streamed through one ``np.loadtxt``
    call; no rows give an empty 2-D array. ``ids``, a list when given,
    collects each row's first field. ``head``, when given, is called with the
    file's first non-blank line (None if it has none) before any line is
    parsed, so a reader checks its header from the one pass over the file.

    Field counts are checked as the lines stream past, so a ragged row is
    named by its physical line. When numpy rejects a value, the rest of the
    stream is still checked for field counts, so a ragged row anywhere is
    named first; then the line of numpy's row is named, with the message of
    Python's parsers where they reject it too (``int`` for the integer
    fields of a structured ``dtype``) and numpy's own otherwise (``1_000``).
    """
    with _open(path) as handle:
        batches = _batches(handle)
        first = next(batches, [])
        if head is not None:
            head(first[0].rstrip("\n") if first else None)
        lines = filter(None, chain([first[skip:]], batches))
        top = next(lines, None)
        if width is None:
            width = top[0].count(",") + 1 if top else 0
        if top is None:
            return np.empty((0, width - first_col), dtype)
        checked = _checked(path, chain([top], lines), width, skip, ids)
        try:
            return np.loadtxt(
                chain.from_iterable(checked), delimiter=",", comments=None, ndmin=2,
                dtype=dtype, usecols=range(first_col, width),
            )
        except DataError:
            raise
        except ValueError as exc:
            error = exc
        for _ in checked:
            pass
    # numpy names the 0-based row of the lines it was given
    reason, _, where = str(error).partition(" at row ")
    if not where:
        raise DataError(f"{path}: {error}") from None
    no, line = _line(path, skip + int(where.partition(",")[0]))
    kinds = [field[0].kind for field in (np.dtype(dtype).fields or {}).values()]
    for col, token in enumerate(line.rstrip("\n").split(",")[first_col:]):
        integer = col < len(kinds) and kinds[col] == "i"
        try:
            (int if integer else float)(token)
        except ValueError:
            reason = "indices must be integers" if integer else f"cannot parse number {token!r}"
            break
    raise DataError(f"{path}:{no}: {reason}") from None


# --- curve CSV ---------------------------------------------------------------


def write_curves_csv(path, data: FunctionalDataset):
    """Raises ParameterError for an id read_curves_csv could not read back:
    one holding a comma, a line feed or a carriage return. Other Unicode
    breaks (form feed, U+2028 and the like) stay inside the id's line."""
    ids = data.ids if data.ids is not None else tuple(str(i) for i in range(data.n))
    bad = next((u for u in ids if any(c in u for c in ",\n\r")), None)
    if bad is not None:
        raise ParameterError(f"curve id {bad!r} holds a comma or a line break")
    grid = _format_rows(data.grid[None, :], ["t"])
    atomic_write(path, chain(grid, _format_rows(data.values, ids)))


def read_curves_csv(path) -> FunctionalDataset:
    def check(header):
        if header is None:
            raise DataError(f"{path}: empty curve file")
        if header.split(",")[0].strip() != "t":
            no = _line(path)[0]
            raise DataError(f"{path}:{no}: curve files must start with a 't' header row")

    ids = []
    mat = _parse_numeric(path, first_col=1, ids=ids, head=check)
    return _build(path, FunctionalDataset, grid=mat[0], values=mat[1:], ids=ids[1:])


# --- weights CSV -------------------------------------------------------------


def _triplet_text(weights: SpatialWeights):
    """A triplet weights CSV, one chunk per band of W's rows."""
    yield "i,j,w\n"
    last, named = weights.n - 1, False  # the reader sizes W by the largest index
    for rec in filter(len, _triplets(weights)):  # a band of zeros writes nothing
        named = named or last in rec["i"] or last in rec["j"]
        yield "\n".join(["%d,%d,%.17g" % row for row in rec.tolist()]) + "\n"
    if not named:
        yield f"{last},{last},0\n"


def write_weights_csv(path, weights: SpatialWeights, layout: str = "dense"):
    if layout == "dense":
        _write_rows(path, weights.matrix)
    elif layout == "triplet":
        atomic_write(path, _triplet_text(weights))
    else:
        raise ParameterError(f"unknown weights layout {layout!r}")


def read_weights_csv(path, layout: str = "dense") -> SpatialWeights:
    def check(header):
        if header is None:
            raise DataError(f"{path}: empty weights file")
        if layout == "triplet" and header.replace(" ", "") != "i,j,w":
            no = _line(path)[0]
            raise DataError(f"{path}:{no}: triplet weights need an 'i,j,w' header")

    if layout == "dense":
        mat = _parse_numeric(path, head=check)
        if mat.shape[0] != mat.shape[1]:
            raise DataError(f"{path}: dense weights must form a square matrix")
    elif layout == "triplet":
        rec = _parse_numeric(path, 1, 3, dtype=_TRIPLET, head=check).ravel()
        if not rec.size:
            raise DataError(f"{path}: triplet weights file has no entries")
        negative = np.flatnonzero((rec["i"] < 0) | (rec["j"] < 0))
        if negative.size:
            no = _line(path, negative[0] + 1)[0]
            raise DataError(f"{path}:{no}: indices must be nonnegative")
        n = int(max(rec["i"].max(), rec["j"].max())) + 1
        # a repeated (i, j) keeps its last value, as the file reads
        keys, first = np.unique((rec["i"] * n + rec["j"])[::-1], return_index=True)
        values = rec["w"][::-1][first]
        # CSR, as _read_weights_npy builds: counting a COO's nonzeros sorts it
        mat = sp.csr_array((values, np.divmod(keys, n)), shape=(n, n))
        mat.eliminate_zeros()
    else:
        if _line(path) is None:  # an empty file is named first, as for a known layout
            check(None)
        raise ParameterError(f"unknown weights layout {layout!r}")
    return _build(path, SpatialWeights, matrix=mat, normalized=_rows_sum_to_one(mat))


# --- coordinates CSV ---------------------------------------------------------


def read_coords_csv(path):
    """Read ``id,lat,lon`` rows; returns (ids, GeoCoordinates)."""
    def check(header):
        if (header or "").replace(" ", "").lower() != "id,lat,lon":
            no = _line(path)[0] if header else 1
            raise DataError(f"{path}:{no}: coordinate files need an 'id,lat,lon' header")

    ids = []
    latlon = _parse_numeric(path, 1, 3, first_col=1, ids=ids, head=check)
    bad = np.flatnonzero(~np.isfinite(latlon).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{_line(path, bad[0] + 1)[0]}: coordinates must be finite")
    return ids, _build(path, GeoCoordinates, lat=latlon[:, 0], lon=latlon[:, 1])


# --- tidy outputs ------------------------------------------------------------


def _surface_text(surface: SurfaceEstimate):
    """A surface CSV, one chunk per band of u rows."""
    yield "u,t,value\n"
    t_text = ["%.17g," % t for t in surface.tgrid.tolist()]  # each grid value formatted once
    for band in _bands(len(surface.ugrid), len(t_text), _TEXT_BAND):
        lines = []
        for u, row in zip(surface.ugrid[band].tolist(), surface.values[band].tolist()):
            u_text = "%.17g," % u
            lines += [u_text + t + "%.17g" % v for t, v in zip(t_text, row)]
        yield "\n".join(lines) + "\n"


def write_surface_csv(path, surface: SurfaceEstimate):
    atomic_write(path, _surface_text(surface))


def write_moran_csv(path, tgrid, values):
    rows = _format_rows(np.column_stack([tgrid, values]))
    atomic_write(path, chain(["t,value\n"], rows))


# --- plain matrix CSV (header-less) ------------------------------------------


def write_matrix_csv(path, mat):
    _write_rows(path, np.atleast_2d(np.asarray(mat, dtype=float)))


def read_matrix_csv(path) -> np.ndarray:
    return _parse_numeric(path)


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


def _write_triplets_npy(path, weights: SpatialWeights):
    """Write the bytes ``np.save`` gives for all of W's ``_triplets`` as one
    record array (they depend on W alone): the ``.npy`` header, then each
    band's records."""
    count = _count_nonzero(weights.matrix)
    header = BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(_TRIPLET), "fortran_order": False, "shape": (count,)
    })
    atomic_write(path, chain([header.getvalue()], _triplets(weights)))


def _read_weights_npy(path, n: int, normalized: bool, kind: str) -> SpatialWeights:
    """Read the n x n W that ``_write_triplets_npy`` saved; stored
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
    _write_triplets_npy(directory / "w_train.npy", fit.weights)
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
