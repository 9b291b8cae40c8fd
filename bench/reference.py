"""Independent computations the benchmark checks the library's outputs against.

Nothing here calls the library's numerical code: the true surfaces, the
trapezoid rule, the reduced-form solve, the neighbour search and the CSV
parsing are written out again with plain numpy/scipy. Each ``check_*``
function returns a list of failure messages; an empty list means the check
passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

EARTH_RADIUS_KM = 6371.0
IOTA = 1e-3  # the estimator promises |lambda_1(rho_hat)| < 1 - IOTA
PRED_RTOL = 1e-9  # reduced-form solves agree to rounding; a 1e-6 error must show
ISE_RTOL = 1e-9


# --- true surfaces and quadrature ----------------------------------------------


def trapezoid(grid: np.ndarray) -> np.ndarray:
    h = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def beta_true(s, t):
    return 2.0 + s + t + 0.5 * np.sin(2.0 * math.pi * s * t)


def rho_true(u, t, alpha):
    return alpha * (1.0 + u * t) / (1.0 + np.abs(u - t))


def ise(est: np.ndarray, truth: np.ndarray, ugrid, tgrid) -> float:
    diff = est - truth
    return float(trapezoid(ugrid) @ (diff * diff) @ trapezoid(tgrid))


def check_ise(results: dict, grid, alpha, beta_hat: np.ndarray, rho_hat=None) -> list:
    """Program ISE values against this module's quadrature and true surfaces."""
    s, t = grid[:, None], grid[None, :]
    want = {"ise_beta": ise(beta_hat, beta_true(s, t), grid, grid)}
    if rho_hat is not None:
        want["ise_rho"] = ise(rho_hat, rho_true(s, t, alpha), grid, grid)
    return [
        f"{key}: program {results[key]!r} != reference {value!r}"
        for key, value in want.items()
        if not abs(results[key] - value) <= ISE_RTOL * max(abs(value), 1e-12)
    ]


# --- reduced form ------------------------------------------------------------


def reduced_form(rho: np.ndarray, w, xb: np.ndarray) -> np.ndarray:
    """Solve (I - rho' (x) W) vec M = vec(XB) as one linear system."""
    n, k = xb.shape
    if sp.issparse(w):
        a = sp.identity(n * k, format="csc") - sp.kron(rho.T, w, format="csc")
        vec = spla.spsolve(a, xb.ravel(order="F"))
    else:
        a = np.eye(n * k) - np.kron(rho.T, np.asarray(w))
        vec = np.linalg.solve(a, xb.ravel(order="F"))
    return vec.reshape(n, k, order="F")


def check_prediction(curves, scores, rho, b, w, phi, mean_curve, what: str) -> list:
    """Predicted curves against an independent reduced-form solve.

    ``scores`` are the predictor scores X, ``phi`` the response eigenfunctions
    on the grid (T x K) and ``mean_curve`` the training response mean.
    """
    m = reduced_form(rho, w, scores @ b)
    want = m @ phi.T + mean_curve
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(np.asarray(curves) - want)))
    if not err <= PRED_RTOL * scale:
        return [f"{what}: max |prediction - reference solve| = {err:.3g}"]
    return []


def check_rho(rho: np.ndarray, what: str) -> list:
    radius = float(np.max(np.abs(np.linalg.eigvals(rho))))
    if not radius < 1 - IOTA:
        return [f"{what}: spectral radius of rho_hat {radius!r} >= 1 - {IOTA}"]
    return []


# --- neighbours --------------------------------------------------------------


def haversine(lat1, lon1, lat2, lon2):
    p1, l1, p2, l2 = (np.radians(v) for v in (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def knn_sets(lat: np.ndarray, lon: np.ndarray, h: int) -> np.ndarray:
    """Indices (n x h) of each unit's h nearest other units.

    A KD-tree on unit-sphere points: chord length is monotone in great-circle
    distance, so the neighbour sets are those of the Haversine distance.
    """
    p, lam = np.radians(lat), np.radians(lon)
    xyz = np.column_stack([np.cos(p) * np.cos(lam), np.cos(p) * np.sin(lam), np.sin(p)])
    _, idx = cKDTree(xyz).query(xyz, k=h + 1)
    own = idx == np.arange(lat.size)[:, None]
    # drop each unit itself (normally column 0, unless a duplicate point ties)
    keep = np.where(own.any(axis=1)[:, None], ~own, np.arange(h + 1) < h)
    return idx[keep].reshape(lat.size, h)


def knn_matrix(sets: np.ndarray) -> sp.csr_array:
    n, h = sets.shape
    rows = np.repeat(np.arange(n), h)
    return sp.csr_array((np.full(n * h, 1.0 / h), (rows, sets.ravel())), shape=(n, n))


def check_knn(w, sets: np.ndarray, lat: np.ndarray, lon: np.ndarray, what: str) -> list:
    """A KNN weight matrix against reference neighbour sets.

    Rows whose neighbour sets differ pass only when the differing units lie
    at exactly the same distance (a tie the program breaks by index).
    """
    n, h = sets.shape
    errors = []
    w = sp.csr_array(w)
    sums = np.asarray(w.sum(axis=1)).ravel()
    if not np.all(np.abs(sums - 1.0) <= 1e-12):
        errors.append(f"{what}: {int(np.sum(np.abs(sums - 1.0) > 1e-12))} rows do not sum to 1")
    counts = np.diff(w.indptr)
    if not np.all(counts == h) or not np.allclose(w.data, 1.0 / h, rtol=0, atol=1e-15):
        return errors + [f"{what}: rows do not hold exactly {h} weights of 1/{h}"]
    got = np.sort(w.indices.reshape(n, h), axis=1)
    want = np.sort(sets, axis=1)
    for i in np.flatnonzero(np.any(got != want, axis=1)):
        d_got = np.sort(haversine(lat[i], lon[i], lat[got[i]], lon[got[i]]))
        d_want = np.sort(haversine(lat[i], lon[i], lat[want[i]], lon[want[i]]))
        if not np.array_equal(d_got, d_want):
            errors.append(f"{what}: row {i} neighbours {got[i].tolist()} != {want[i].tolist()}")
            if len(errors) >= 5:
                break
    return errors


# --- files -------------------------------------------------------------------


def read_curves(path) -> np.ndarray:
    """Values of a curve CSV (header row of grid points, then id,v_1..v_T)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def read_grid(path) -> np.ndarray:
    with open(path) as handle:
        return np.array([float(v) for v in handle.readline().split(",")[1:]])


def read_dense(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_equal(got: np.ndarray, want: np.ndarray, what: str) -> list:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(got, want):
        bad = int(np.sum(got != want))
        return [f"{what}: {bad} values differ, max {np.max(np.abs(got - want)):.3g}"]
    return []
