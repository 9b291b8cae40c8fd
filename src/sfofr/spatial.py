"""Spatial weight matrices and Moran autocorrelation statistics.

Weight matrices are nonnegative with an exactly zero diagonal and are usually
row-normalized so each row with at least one neighbor sums to one. Three
constructions are provided: inverse distance 1/(1+|i-i'|), exponential decay
exp(-d|i-i'|), and K-nearest-neighbor weights from great-circle (Haversine)
distances. Moran's I comes in the scalar flavor x'Wx / x'x (on centered x)
and the functional flavor evaluated pointwise along curves.

Both lattice kernels K are symmetric, so W = D^-1 K declares the row sums d
of K as its ``balance`` field (d_i w_ij = d_j w_ji) and is similar to the
symmetric D^{1/2} W D^{-1/2}, whose cached ``eigh`` diagonalizes W; such a
W is read-only, so the cache cannot go stale. As K depends on |i - j| only,
W is unchanged by the reversal i -> n-1-i, and a fold splits that ``eigh``
into two half-size ones (Cantoni and Butler 1976).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DataError,
    ParameterError,
    PreconditionError,
    UndefinedStatisticError,
)
from .fdbasis import BasisCoefficients, _read_only, evaluate_basis

EARTH_RADIUS_KM = 6371.0

# W is stored in CSR form when at most this share of its n^2 entries is
# nonzero, and dense otherwise: near that density one complex shifted solve
# (I - tW)x = b costs the same either way, and KNN W lies far below it.
_CSR_MAX_DENSITY = 0.1


@dataclass(frozen=True)
class SpatialWeights:
    """n x n spatial weight matrix with finite nonnegative entries and zero diagonal.

    ``balance``, when given, is W's balance vector d: positive, with
    d_i w_ij = d_j w_ji. It gives W a spectral form and makes W read-only.
    """

    matrix: np.ndarray | sp.csr_array
    normalized: bool = False
    kind: str = "custom"
    balance: np.ndarray | None = None

    def __post_init__(self):
        mat = self.matrix
        if sp.issparse(mat):
            nnz = mat.count_nonzero()
        else:
            mat = np.asarray(mat, dtype=float)
            if mat.ndim != 2:
                raise ParameterError("weight matrix must be 2-D")
            nnz = np.count_nonzero(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ParameterError("weight matrix must be square")
        if nnz <= _CSR_MAX_DENSITY * mat.shape[0] ** 2:
            mat = sp.csr_array(mat, dtype=float)
        elif sp.issparse(mat):
            mat = mat.toarray().astype(float, copy=False)
        object.__setattr__(self, "matrix", mat)
        data = mat.data if sp.issparse(mat) else mat
        if not np.all(np.isfinite(data)):
            raise DataError("weight matrix has non-finite entries")
        if data.size and np.min(data) < 0:
            raise DataError("weight matrix has negative entries")
        diag = mat.diagonal()
        if np.any(diag != 0):
            raise DataError("weight matrix diagonal must be exactly zero")
        if self.normalized:
            sums = self.row_sums()
            bad = np.abs(sums - 1.0) > 1e-12
            bad &= sums != 0.0
            if np.any(bad):
                raise DataError("normalized=True but some nonzero row sums differ from 1")
        if self.balance is not None:
            d = np.asarray(self.balance, dtype=float).ravel()
            if d.shape != (self.n,) or not np.all(d > 0):
                raise DataError("balance vector must hold one positive entry per unit")
            # K = D W must be symmetric, else the spectral form solves in the wrong basis
            k = sp.diags_array(d) @ mat if sp.issparse(mat) else mat * d[:, None]
            if abs(k - k.T).max() > 1e-12 * k.max():
                raise DataError("balance vector does not satisfy d_i w_ij = d_j w_ji")
            for a in (mat.data, mat.indices, mat.indptr) if sp.issparse(mat) else (mat,):
                _read_only(a)
            object.__setattr__(self, "balance", _read_only(d))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray() if sp.issparse(self.matrix) else np.array(self.matrix)

    # --- linear-algebra helpers used by the estimation core ---

    def matmul(self, m: np.ndarray) -> np.ndarray:
        """W @ m."""
        return np.asarray(self.matrix @ m)

    def rmatmul(self, m: np.ndarray) -> np.ndarray:
        """W' @ m."""
        return np.asarray(self.matrix.T @ m)

    def diag_wtw(self) -> np.ndarray:
        """Diagonal of W'W, i.e. squared column norms."""
        return np.asarray((self.matrix * self.matrix).sum(axis=0)).ravel()

    def spectral_radius(self) -> float:
        """Upper bound on rho(W): ||W||_inf, the maximum row sum (W is nonnegative).

        rho(W) <= ||W||_inf, with equality whenever all row sums agree. A
        row-normalized W without isolated units therefore has rho(W) = 1
        exactly; for other W the bound is conservative. A W with a balance
        vector is read-only, so its bound is kept after the first call.
        """
        bound = self.__dict__.get("_row_sum_bound")
        if bound is None:
            bound = float(np.max(self.row_sums())) if self.n else 0.0
            if self.balance is not None:
                self.__dict__["_row_sum_bound"] = bound
        return bound

    @cached_property
    def _spectrum(self):
        """(lambda, blocks, sqrt(d)) with W = P diag(lambda) P^-1 and P = D^{-1/2} Q,
        Q the eigenvectors of sym = D^{1/2} W D^{-1/2}; None without a balance
        vector. ``blocks`` is (Q,), or (Q+, Q-) with Q = T' diag(Q+, Q-) for
        the fold T (``_fold``) when sym equals sym[::-1, ::-1] bit for bit."""
        if self.balance is None:
            return None
        root = np.sqrt(self.balance)
        sym = self.toarray()
        sym *= root[:, None]
        sym /= root[None, :]
        if np.array_equal(sym, sym[::-1, ::-1]):
            even, odd = _fold(sym)
            pairs = np.linalg.eigh(_fold(even.T)[0]), np.linalg.eigh(_fold(odd.T)[1])
        else:
            pairs = (np.linalg.eigh(sym),)
        lam = _read_only(np.concatenate([p[0] for p in pairs]))
        return lam, tuple(_read_only(p[1]) for p in pairs), _read_only(root)

    def _to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """P^-1 m = diag(blocks)' T D^{1/2} m (see ``_spectrum``)."""
        _, blocks, root = self._spectrum
        parts = _fold(root[:, None] * m) if len(blocks) == 2 else (root[:, None] * m,)
        return np.concatenate([q.T @ x for q, x in zip(blocks, parts)])

    def _from_eigenbasis(self, y: np.ndarray) -> np.ndarray:
        """P y = D^{-1/2} T' diag(blocks) y (see ``_spectrum``)."""
        _, blocks, root = self._spectrum
        parts = [q @ x for q, x in zip(blocks, np.split(y, [len(blocks[0])]))]
        return (_unfold(*parts) if len(blocks) == 2 else parts[0]) / root[:, None]


def _fold(x: np.ndarray):
    """T x for the orthogonal fold T of the row reversal J, as its even part
    ((x_top + J x_bot) / sqrt 2, then x's middle row when n is odd) and its
    odd part (x_top - J x_bot) / sqrt 2."""
    m = len(x) // 2
    top, bot = x[:m], x[::-1][:m]
    even = np.concatenate([(top + bot) * np.sqrt(0.5), x[m : len(x) - m]])
    return even, (top - bot) * np.sqrt(0.5)


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """T' (even, odd), the inverse of ``_fold``."""
    m = len(odd)
    top, bot = (even[:m] + odd) * np.sqrt(0.5), (even[:m] - odd) * np.sqrt(0.5)
    return np.concatenate([top, even[m:], bot[::-1]])


@dataclass(frozen=True)
class GeoCoordinates:
    """Latitude/longitude pairs in degrees."""

    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self):
        lat = np.atleast_1d(np.asarray(self.lat, dtype=float))
        lon = np.atleast_1d(np.asarray(self.lon, dtype=float))
        if lat.shape != lon.shape or lat.ndim != 1:
            raise ParameterError("lat and lon must be 1-D arrays of equal length")
        bad = np.flatnonzero(~(np.isfinite(lat) & np.isfinite(lon)))
        if bad.size:
            k = bad[0]
            raise ParameterError(
                f"coordinates must be finite; unit {k} has lat={lat[k]}, lon={lon[k]}"
            )
        if np.any(np.abs(lat) > 90):
            raise ParameterError("latitudes must lie in [-90, 90]")
        if np.any(np.abs(lon) > 180):
            raise ParameterError("longitudes must lie in [-180, 180]")
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)

    @property
    def n(self) -> int:
        return self.lat.size


def _lattice_weights(n: int, kernel, kind: str) -> SpatialWeights:
    """W = D^-1 K for the symmetric K = kernel(|i - j|); W's balance d is K's row
    sums averaged with their mirror images, so W == W[::-1, ::-1] exactly."""
    if int(n) != n or n < 2:
        raise ParameterError("n must be an integer >= 2")
    idx = np.arange(int(n))
    values = kernel(np.abs(idx[:, None] - idx[None, :]).astype(float))
    np.fill_diagonal(values, 0.0)
    sums = values.sum(axis=1)
    balance = (sums + sums[::-1]) / 2  # mirrored rows may differ in the last bit
    values /= balance[:, None]
    np.fill_diagonal(values, 0.0)  # keep the diagonal exactly zero
    return SpatialWeights(matrix=values, normalized=True, kind=kind, balance=balance)


def inverse_distance_weights(n: int) -> SpatialWeights:
    """Row-normalized weights w[i, j] = 1 / (1 + |i - j|) on a 1-D lattice."""
    return _lattice_weights(n, lambda dist: 1.0 / (1.0 + dist), "inverse_distance")


def exponential_weights(n: int, d: float = 0.5) -> SpatialWeights:
    """Row-normalized weights w[i, j] = exp(-d |i - j|) with decay rate d > 0."""
    if not d > 0:
        raise ParameterError("decay parameter d must be > 0")
    return _lattice_weights(n, lambda dist: np.exp(-d * dist), "exponential")


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray | float:
    """Great-circle distance in km between coordinate pairs given in degrees.

    Uses a = sin^2(du/2) + cos(u1) cos(u2) sin^2(dv/2) and
    d = 2 R atan2(sqrt(a), sqrt(1 - a)) with R = 6371 km.
    """
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2))
    a = (
        np.sin((lat2 - lat1) / 2) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2
    )
    a = np.clip(a, 0.0, 1.0)
    c = 2 * np.arctan2(np.sqrt(a), np.sqrt(1 - a))
    out = EARTH_RADIUS_KM * c
    return float(out) if np.ndim(out) == 0 else out


def knn_weights(coords: GeoCoordinates, h: int) -> SpatialWeights:
    """K-nearest-neighbor weights: w[i, j] = 1/h if j is among the h nearest
    units to i by Haversine distance, else 0. Distance ties are broken by the
    lower unit index so the construction is deterministic.
    """
    n = coords.n
    if int(h) != h or not 1 <= h <= n - 1:
        raise ParameterError("h must be an integer with 1 <= h <= n - 1")
    h = int(h)
    dist = haversine_km(
        coords.lat[:, None], coords.lon[:, None], coords.lat[None, :], coords.lon[None, :]
    )
    np.fill_diagonal(dist, np.inf)
    rows = np.repeat(np.arange(n), h)
    cols = np.empty(n * h, dtype=np.int64)
    order_idx = np.arange(n)
    for i in range(n):
        # lexsort: primary key distance, secondary key index (lower index wins ties)
        neighbors = np.lexsort((order_idx, dist[i]))[:h]
        cols[i * h : (i + 1) * h] = neighbors
    mat = sp.csr_array((np.full(n * h, 1.0 / h), (rows, cols)), shape=(n, n))
    return SpatialWeights(matrix=mat, normalized=True, kind="knn")


def row_normalize(weights: SpatialWeights) -> SpatialWeights:
    """Scale each nonzero row to sum to one; all-zero rows are kept and warned about."""
    sums = weights.row_sums()
    zero_rows = sums == 0
    if np.any(zero_rows):
        warnings.warn(
            f"{int(zero_rows.sum())} isolated unit(s) with no neighbors; "
            "their rows stay zero",
            stacklevel=2,
        )
    scale = np.where(zero_rows, 1.0, sums)[:, None]
    return SpatialWeights(matrix=weights.matrix / scale, normalized=True, kind=weights.kind)


def morans_i(x, weights: SpatialWeights) -> float:
    """Moran's I statistic x_c' W x_c / x_c' x_c of the mean-centered values."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != weights.n:
        raise ParameterError("value vector length must match weight matrix size")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom < 1e-14 * max(1.0, float(x @ x)):
        raise UndefinedStatisticError("Moran's I is undefined for constant values")
    return float(xc @ weights.matmul(xc)) / denom


def functional_morans_i(
    coeffs: BasisCoefficients, weights: SpatialWeights, tgrid
) -> np.ndarray:
    """Functional Moran's I along tgrid for curves given by centered coefficients.

    At each t the statistic is (g(t)' A' W A g(t)) / (g(t)' A' A g(t)) with A the
    coefficient matrix and g the basis vector, i.e. the scalar Moran's I of the
    curve values at t.
    """
    if not coeffs.is_centered():
        raise PreconditionError("coefficients must be centered (column means zero)")
    if coeffs.n != weights.n:
        raise ParameterError("coefficient rows must match weight matrix size")
    tgrid = np.atleast_1d(np.asarray(tgrid, dtype=float))
    phi = evaluate_basis(coeffs.basis, tgrid)
    vals = coeffs.coef @ phi.T  # n x |tgrid| curve values at each t
    num = np.einsum("ij,ij->j", vals, weights.matmul(vals))
    den = np.einsum("ij,ij->j", vals, vals)
    bad = den < 1e-14
    if np.any(bad):
        raise UndefinedStatisticError(
            "functional Moran's I undefined (zero variance) at t = "
            + ", ".join(f"{t:g}" for t in tgrid[bad][:10])
        )
    return num / den
