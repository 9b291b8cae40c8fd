"""Simulation-study data generator and Monte Carlo harness.

Predictors are finite Fourier series with k^{-3/2} coefficient decay; the
response solves the model identity Y = W Y R + G exactly, where G collects the
regression integral of the predictor plus noise and R is the rho surface
weighted by the trapezoid rule. That identity is a reduced form of the same
kind the fitted model predicts through, and gen_response solves it with the
same SpatialWeights.solve_lag, in R's real eigenbasis (the eigenvalue route of
Ord 1975, on both sides). The result is certified by its residual
max|Y - W Y R - G|, taken with W's own matrix (``weights.matmul``). The
check reads none of what the solve computed from W (its eigenvectors,
eigenvalues or D^{1/2}); on a lattice W both share only the orthogonal fold
T, and a fault planted in T still fails the check (tests/test_simgen.py,
test_certificate_catches_a_faulty_shared_fold). SimConfig.make_weights
hands out one shared, read-only weight matrix per (kind, decay, n), so every
replication reuses its eigendecomposition; R's is computed once per
(grid, alpha).

True surfaces:
    beta(s, t) = 2 + s + t + 0.5 sin(2 pi s t)
    rho(u, t)  = alpha (1 + u t) / (1 + |u - t|)

run_replication generates disjoint train/test sets (each with its own weight
matrix of the same kind), compares the spatial model with the non-spatial FPC
baseline on them through pipeline.compare_fits, which shares every step the
two fits have in common, and adds the ISE of both surfaces to its in-sample
MSE and out-of-sample MSPE. Replications draw from independent streams keyed
by (seed, replication_index), so any subset of replications is reproducible.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .exceptions import GenerationError, ParameterError, _check_count, _check_finite
from .fdbasis import FunctionalDataset, _read_only, evaluate_basis, make_bspline_basis
from .fdbasis import smooth_curves, trapezoid_weights
from .pipeline import SurfaceEstimate, compare_fits, ise_surface, reconstruct_beta, reconstruct_rho
from .pipeline import warn_at_caller
from .spatial import SpatialWeights, exponential_weights, inverse_distance_weights

N_FOURIER_PAIRS = 10


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulated scenario.

    ``neumann_tol`` bounds the certified residual of the generated responses
    (see gen_response); ``neumann_max_terms`` is accepted and unused.
    """

    n_train: int
    n_test: int
    alpha: float
    weight_kind: str = "exponential"
    decay: float = 0.5
    grid_size: int = 101
    noise_sd: float = 1.0
    seed: int = 0
    neumann_tol: float = 0.001
    neumann_max_terms: int = 10_000
    smooth_noise: bool = False
    fit_options: dict | None = field(default=None)

    def __post_init__(self):
        for name, low in (("n_train", 2), ("n_test", 2), ("grid_size", 4)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), low))
        if not 0 < self.alpha < 1:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.weight_kind not in ("inverse", "exponential"):
            raise ParameterError("weight_kind must be 'inverse' or 'exponential'")
        for name in ("decay", "noise_sd", "neumann_tol"):
            _check_finite(name, getattr(self, name), positive=name == "decay")

    @property
    def grid(self) -> np.ndarray:
        """Sampling points r / grid_size for r = 1..grid_size."""
        g = self.grid_size
        return np.arange(1, g + 1) / g

    def make_weights(self, n: int) -> SpatialWeights:
        """The shared, read-only lattice weight matrix of this kind for n units."""
        return _shared_weights(self.weight_kind, self.decay, n)


@functools.lru_cache(maxsize=4)
def _shared_weights(kind: str, decay: float, n: int) -> SpatialWeights:
    if kind == "inverse":
        return inverse_distance_weights(n)
    return exponential_weights(n, decay)


@dataclass(frozen=True)
class SimTruth:
    """One generated scenario: true surfaces, data, and the weight matrix."""

    config: SimConfig
    beta_surface: SurfaceEstimate
    rho_surface: SurfaceEstimate
    x_data: FunctionalDataset
    y_data: FunctionalDataset
    weights: SpatialWeights


def true_beta(s, t):
    """Regression coefficient surface 2 + s + t + 0.5 sin(2 pi s t)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = 2.0 + s + t + 0.5 * np.sin(2.0 * np.pi * s * t)
    return float(out) if np.ndim(out) == 0 else out


def true_rho(u, t, alpha: float):
    """Spatial autocorrelation surface alpha (1 + u t) / (1 + |u - t|)."""
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    out = alpha * (1.0 + u * t) / (1.0 + np.abs(u - t))
    return float(out) if np.ndim(out) == 0 else out


def gen_predictors(n: int, grid: np.ndarray, rng) -> FunctionalDataset:
    """Draw n Fourier predictors with independent standard normal amplitudes.

    x_i(s) = sum_{k=1}^{10} k^{-3/2} (nu1_ik sqrt(2) cos(k pi s)
                                      + nu2_ik sqrt(2) sin(k pi s)).
    """
    grid = np.asarray(grid, dtype=float)
    k = np.arange(1, N_FOURIER_PAIRS + 1)
    nu1 = rng.standard_normal((n, N_FOURIER_PAIRS))
    nu2 = rng.standard_normal((n, N_FOURIER_PAIRS))
    cos_part = math.sqrt(2.0) * np.cos(np.pi * np.outer(k, grid))
    sin_part = math.sqrt(2.0) * np.sin(np.pi * np.outer(k, grid))
    scale = k ** -1.5
    values = (nu1 * scale) @ cos_part + (nu2 * scale) @ sin_part
    return FunctionalDataset(grid=grid, values=values)


def _noise(n: int, grid: np.ndarray, sd: float, smooth: bool, rng) -> np.ndarray:
    eps = sd * rng.standard_normal((n, grid.size))
    if not smooth:
        return eps
    # smooth-noise option: project the white noise onto a cubic spline basis
    basis = make_bspline_basis(min(20, grid.size), 3)
    coeffs = smooth_curves(FunctionalDataset(grid=grid, values=eps), basis)
    return coeffs.coef @ evaluate_basis(basis, grid).T


@functools.lru_cache(maxsize=4)
def _grid_operators(grid_bytes: bytes, alpha: float) -> tuple:
    """The read-only quantities that depend on the grid and alpha only: the
    trapezoid weights D_w, beta and K = rho on the grid, R = D_w K, and R's
    real eigen-triple (diag mu, S, S^-1)."""
    grid = np.frombuffer(grid_bytes)
    w_quad = trapezoid_weights(grid)
    kernel = true_rho(grid[:, None], grid[None, :], alpha)
    root = np.sqrt(w_quad)  # D_w^{1/2}
    mu, v = np.linalg.eigh(root[:, None] * kernel * root[None, :])
    beta_mat = true_beta(grid[:, None], grid[None, :])
    rho_quad = w_quad[:, None] * kernel
    out = (w_quad, beta_mat, kernel, rho_quad, np.diag(mu), root[:, None] * v, v.T / root)
    return tuple(map(_read_only, out))


def gen_response(
    x_data: FunctionalDataset,
    weights: SpatialWeights,
    alpha: float,
    rng,
    noise_sd: float = 1.0,
    neumann_tol: float = 0.001,
    neumann_max_terms: int = 10_000,
    smooth_noise: bool = False,
) -> FunctionalDataset:
    """Generate responses that solve the model identity Y = W Y R + G.

    G_i(t) = int x_i(s) beta(s, t) ds + eps_i(t) (trapezoid quadrature, i.i.d.
    N(0, noise_sd^2) noise per grid point) and R = D_w K on the grid, with
    D_w the trapezoid weights and K = rho(s, t) symmetric. One ``eigh`` of
    D_w^{1/2} K D_w^{1/2} = V diag(mu) V' gives R = S diag(mu) S^-1 with
    S = D_w^{1/2} V and S^-1 = V' D_w^{-1/2}, all real, which
    ``weights.solve_lag`` takes as R's triangular form (it raises
    DivergenceError when the system diverges). The result is certified
    directly, with W's own matrix (``weights.matmul``, which on a lattice W
    shares the fold T with the solve but none of its eigenvectors,
    eigenvalues or D^{1/2}): GenerationError is raised unless
    max|Y - W Y R - G| <= ``neumann_tol``.
    ``neumann_max_terms`` is accepted for compatibility and unused.
    """
    if not 0 <= alpha < 1:
        raise ParameterError("alpha must lie in [0, 1)")
    grid = x_data.grid
    w_quad, beta_mat, _, rho_quad, diag_mu, s, s_inv = _grid_operators(grid.tobytes(), alpha)
    g = (x_data.values * w_quad) @ beta_mat
    g += _noise(x_data.n, grid, noise_sd, smooth_noise, rng)
    y = weights.solve_lag(diag_mu, s, s_inv, g)
    r = weights.matmul(y) @ rho_quad  # then -(Y - W Y R - G), negated exactly
    r -= y
    r += g
    residual = float(np.max(np.abs(r)))
    if not residual <= neumann_tol:
        raise GenerationError(
            f"generated responses miss the model identity by {residual:.3g} "
            f"> {neumann_tol:g}"
        )
    return FunctionalDataset(grid=grid, values=y, ids=x_data.ids)


def _draw(cfg: SimConfig, n: int, rng):
    """Weights, predictors and responses of one n-unit data set."""
    weights = cfg.make_weights(n)
    x_data = gen_predictors(n, cfg.grid, rng)
    y_data = gen_response(
        x_data, weights, cfg.alpha, rng, noise_sd=cfg.noise_sd,
        neumann_tol=cfg.neumann_tol, smooth_noise=cfg.smooth_noise,
    )
    return weights, x_data, y_data


def _true_surfaces(cfg: SimConfig):
    """The true beta and rho surfaces on the configuration's grid."""
    grid = cfg.grid
    _, beta_mat, kernel, *_ = _grid_operators(grid.tobytes(), cfg.alpha)
    return (
        SurfaceEstimate(ugrid=grid, tgrid=grid, values=beta_mat, kind="beta"),
        SurfaceEstimate(ugrid=grid, tgrid=grid, values=kernel, kind="rho"),
    )


def generate(cfg: SimConfig, n: int | None = None, rng=None) -> SimTruth:
    """Generate one dataset (default size n_train) with its truth surfaces."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    weights, x_data, y_data = _draw(cfg, cfg.n_train if n is None else n, rng)
    beta_surface, rho_surface = _true_surfaces(cfg)
    return SimTruth(
        config=cfg,
        beta_surface=beta_surface,
        rho_surface=rho_surface,
        x_data=x_data,
        y_data=y_data,
        weights=weights,
    )


def replication_rng(seed: int, replication_index: int):
    """Independent stream for one replication, keyed by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, replication_index)))


def run_replication(cfg: SimConfig, replication_index: int = 0) -> dict:
    """One Monte Carlo replication: draw disjoint train and test sets, compare
    both methods on them (``compare_fits``), and add each surface's ISE.

    Returns {"sfofr": {...}, "fpc": {...}} where each inner dict holds
    ise_beta, ise_rho (nan for the baseline), and compare_fits' mse and mspe,
    which compare predictions with the observed response as each method's
    own decomposition represents it. The results equal those of the public
    calls made apart, bit for bit.
    """
    rng = replication_rng(cfg.seed, replication_index)
    grid = cfg.grid
    w_train, x_train, y_train = _draw(cfg, cfg.n_train, rng)
    w_test, x_test, y_test = _draw(cfg, cfg.n_test, rng)
    beta_truth, rho_truth = _true_surfaces(cfg)
    compared = compare_fits(y_train, x_train, w_train, y_test, x_test, w_test, cfg.fit_options)
    results = {}
    for method, scored in compared.items():
        fit = scored["fit"]
        rho_hat = reconstruct_rho(fit, grid, grid) if method == "sfofr" else None
        results[method] = {
            "ise_beta": ise_surface(reconstruct_beta(fit, grid, grid), beta_truth),
            "ise_rho": float("nan") if rho_hat is None else ise_surface(rho_hat, rho_truth),
            "mse": scored["mse"],
            "mspe": scored["mspe"],
        }
    return results


def _replication_worker(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the parent's filters decide
        result = run_replication(*args)
    return result, [(str(w.message), w.category) for w in caught]


def run_benchmark(cfg: SimConfig, n_replications: int, threads: int = 1) -> list:
    """Run seeded replications, in parallel over at most one worker process
    per replication when ``threads`` > 1; results are ordered by replication
    index and independent of the worker count. Warnings name the caller's
    line either way: workers record theirs, re-issued here in replication order."""
    n_replications = _check_count("n_replications", n_replications, 1)
    threads = _check_count("threads", threads, 1)
    if threads <= 1:
        return [run_replication(cfg, i) for i in range(n_replications)]
    # the pool forks all max_workers processes at the first submit
    with ProcessPoolExecutor(max_workers=min(threads, n_replications)) as pool:
        done = list(pool.map(_replication_worker, [(cfg, i) for i in range(n_replications)]))
    for message, category in (w for _, caught in done for w in caught):
        warn_at_caller(message, category)
    return [result for result, _ in done]


def summarize_benchmark(results: list) -> dict:
    """Means and standard errors per method and metric, table style."""
    summary = {}
    for method in ("sfofr", "fpc"):
        summary[method] = {}
        for metric in ("ise_beta", "ise_rho", "mse", "mspe"):
            vals = np.array([r[method][metric] for r in results], dtype=float)
            if np.all(np.isnan(vals)):
                summary[method][metric] = {"mean": None, "se": None}
                continue
            mean = float(np.mean(vals))
            se = (
                float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                if len(vals) > 1
                else 0.0
            )
            summary[method][metric] = {"mean": mean, "se": se}
    summary["n_replications"] = len(results)
    return summary
