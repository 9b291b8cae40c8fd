"""End-to-end spatial function-on-function regression.

Fitting proceeds in four stages: center both curve sets, smooth them onto a
B-spline basis, decompose (spatial FPCA on the response, classical FPCA on the
predictor, each truncated at a variance threshold), and estimate the induced
multivariate spatial autoregression on the score matrices. The fitted score-
space matrices map back to bivariate surfaces through the eigenfunctions:
rho(u, t) = phi(u)' rho_hat phi(t) and beta(s, t) = psi(s)' beta_hat phi(t).

Fitted values and out-of-sample predictions both solve the reduced form
M - W M rho = X B with the error scores at their zero mean; predictions use
the test set's own weight matrix. compare_fits fits this model and the
non-spatial FPC baseline from one front end, and scores both.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    ParameterError,
    SfofrError,
    UndefinedStatisticError,
)
from .fdbasis import (
    BasisCoefficients,
    BSplineBasis,
    FunctionalDataset,
    _check_grid,
    center,
    make_bspline_basis,
    smooth_curves,
    trapezoid_weights,
)
from .fpca import FpcDecomposition, fit_fpc, fit_sfpc, project, reconstruct
from .msar import (
    MsarData,
    MsarFit,
    MsarParams,
    fit_msar,
    reduced_form_solve,
)
from .spatial import SpatialWeights

# Source files under this directory are the package's own frames
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class SurfaceEstimate:
    """A bivariate surface sampled on a rectangular grid in [0, 1]^2.

    ``ugrid`` is the first-axis grid (u for a rho surface, s for a beta
    surface); ``values[a, b]`` is the surface at (ugrid[a], tgrid[b]). Each
    grid holds at least 2 finite, strictly increasing points in [0, 1].
    """

    ugrid: np.ndarray
    tgrid: np.ndarray
    values: np.ndarray
    kind: str = "rho"

    def __post_init__(self):
        ugrid, tgrid = _check_grid(self.ugrid, 2), _check_grid(self.tgrid, 2)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "ugrid", ugrid)
        object.__setattr__(self, "tgrid", tgrid)
        object.__setattr__(self, "values", values)
        if values.shape != (ugrid.size, tgrid.size):
            raise ParameterError("surface values do not match the grids")
        if not np.all(np.isfinite(values)):
            raise ParameterError("surface contains non-finite values")
        if self.kind not in ("rho", "beta"):
            raise ParameterError("kind must be 'rho' or 'beta'")


@dataclass(frozen=True)
class SfofrFit:
    """A fitted spatial function-on-function regression."""

    response_decomp: FpcDecomposition
    predictor_decomp: FpcDecomposition
    msar_fit: MsarFit
    y_mean: np.ndarray
    x_mean: np.ndarray
    y_grid: np.ndarray
    x_grid: np.ndarray
    weights: SpatialWeights
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.msar_fit.params.k_y != self.response_decomp.n_components:
            raise ParameterError("rho dimension does not match response components")
        if self.msar_fit.params.k_x != self.predictor_decomp.n_components:
            raise ParameterError("B rows do not match predictor components")

    @property
    def k_y(self) -> int:
        return self.response_decomp.n_components

    @property
    def k_x(self) -> int:
        return self.predictor_decomp.n_components

    @property
    def y_basis(self) -> BSplineBasis:
        return self.response_decomp.basis

    @property
    def x_basis(self) -> BSplineBasis:
        return self.predictor_decomp.basis


def warn_at_caller(message: str, category=UserWarning):
    """Warn naming the first calling line outside the sfofr package, so the
    warning points at the caller's own line whichever public function (fit_sfofr,
    compare_fits, run_replication, run_benchmark, load_fit_bundle) led here."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def warn_if_unconverged(fit: SfofrFit) -> SfofrFit:
    """Warn at the caller's line when the score-space fit did not converge;
    returns ``fit``."""
    if not fit.msar_fit.converged:
        warn_at_caller(f"score-space fit did not converge: {fit.msar_fit.message}")
    return fit


def _staged(stage: str, fn, *args, **kwargs):
    """Run one pipeline stage, labeling any package error with the stage name."""
    try:
        return fn(*args, **kwargs)
    except SfofrError as exc:
        raise type(exc)(f"{stage}: {exc}") from exc


# The fit options and their defaults, read by both fits and the CLI's fit command
FIT_OPTIONS = {
    "num_basis": 20,
    "degree": 3,
    "ridge": 1e-8,
    "var_threshold": 0.95,
    "msar_max_iter": 500,
}
DEFAULT_NUM_BASIS = FIT_OPTIONS["num_basis"]
DEFAULT_DEGREE = FIT_OPTIONS["degree"]
DEFAULT_RIDGE = FIT_OPTIONS["ridge"]
DEFAULT_VAR_THRESHOLD = FIT_OPTIONS["var_threshold"]


def _resolve_options(options: dict | None) -> dict:
    options = options or {}
    unknown = set(options) - set(FIT_OPTIONS)
    if unknown:
        raise ParameterError(f"unknown fit options: {sorted(unknown)}")
    return {**FIT_OPTIONS, **{k: v for k, v in options.items() if v is not None}}


def _front_end(y_data: FunctionalDataset, x_data: FunctionalDataset, options: dict | None):
    """The stages both fits share: resolve the options, build the basis,
    center and smooth both curve sets, and decompose the predictor.

    Returns the response's basis coefficients and the SfofrFit fields that
    both fits fill alike.
    """
    opts = _resolve_options(options)
    if y_data.n != x_data.n:
        raise ParameterError("response and predictor must have the same n")
    basis = _staged(
        "basis construction", make_bspline_basis, opts["num_basis"], opts["degree"]
    )
    y_centered, y_mean = center(y_data)
    x_centered, x_mean = center(x_data)
    y_coeffs = _staged("response smoothing", smooth_curves, y_centered, basis, opts["ridge"])
    x_coeffs = _staged("predictor smoothing", smooth_curves, x_centered, basis, opts["ridge"])
    x_decomp = _staged(
        "predictor decomposition", fit_fpc, x_coeffs, variance_threshold=opts["var_threshold"]
    )
    return y_coeffs, dict(
        predictor_decomp=x_decomp,
        y_mean=y_mean,
        x_mean=x_mean,
        y_grid=y_data.grid,
        x_grid=x_data.grid,
        options=opts,
    )


def fit_sfofr(
    y_data: FunctionalDataset,
    x_data: FunctionalDataset,
    weights: SpatialWeights,
    options: dict | None = None,
) -> SfofrFit:
    """Fit the full spatial model: SFPC response, FPC predictor, MSAR scores.

    ``options`` overrides any of the fit options; ``FIT_OPTIONS`` names them
    and holds their defaults.
    """
    return warn_if_unconverged(_fit_spatial(*_front_end(y_data, x_data, options), weights))


def _fit_spatial(y_coeffs, shared: dict, weights: SpatialWeights) -> SfofrFit:
    """fit_sfofr after ``_front_end``: response SFPCA, then the score-space fit."""
    if weights.n != y_coeffs.n:
        raise ParameterError("weight matrix size must match the number of units")
    opts = shared["options"]
    y_decomp = _staged(
        "response decomposition", fit_sfpc, y_coeffs, weights,
        variance_threshold=opts["var_threshold"],
    )
    msar_data = MsarData(
        ymat=y_decomp.scores, xmat=shared["predictor_decomp"].scores, weights=weights
    )
    msar = _staged(
        "score-space estimation", fit_msar, msar_data, max_iter=opts["msar_max_iter"]
    )
    return SfofrFit(response_decomp=y_decomp, msar_fit=msar, weights=weights, **shared)


def fit_fofr_fpc(
    y_data: FunctionalDataset,
    x_data: FunctionalDataset,
    options: dict | None = None,
) -> SfofrFit:
    """Non-spatial baseline: classical FPC on both sides, rho forced to zero,
    B from per-column least squares of response scores on predictor scores."""
    return _fit_baseline(*_front_end(y_data, x_data, options))


def _fit_baseline(y_coeffs, shared: dict) -> SfofrFit:
    """fit_fofr_fpc after ``_front_end``: response FPCA, then least squares."""
    y_decomp = _staged(
        "response decomposition", fit_fpc, y_coeffs,
        variance_threshold=shared["options"]["var_threshold"],
    )
    x_scores = shared["predictor_decomp"].scores
    b_hat, *_ = np.linalg.lstsq(x_scores, y_decomp.scores, rcond=None)
    zero_w = SpatialWeights(matrix=sp.csr_array((y_coeffs.n, y_coeffs.n)))
    params = MsarParams(
        rho=np.zeros((y_decomp.n_components, y_decomp.n_components)),
        b=b_hat,
        prec_chol=np.eye(y_decomp.n_components),
    )
    # Q at rho = 0, Omega_e = I and W = 0 is the plain residual sum of squares
    resid = y_decomp.scores - x_scores @ b_hat
    msar = MsarFit(
        params=params,
        objective=float(np.sum(resid**2)),
        grad_norm=float("nan"),
        iterations=0,
        converged=True,
        objective_trace=(),
        tolerance=float("nan"),
        message="baseline: rho fixed at zero, B by least squares",
    )
    return SfofrFit(response_decomp=y_decomp, msar_fit=msar, weights=zero_w, **shared)


# --- surfaces ---------------------------------------------------------------


def _surface(fit: SfofrFit, left: FpcDecomposition, middle, ugrid, tgrid, kind):
    """left(u)' middle phi(t), phi the response eigenfunctions; 101-point grids by default."""
    ugrid = np.linspace(0, 1, 101) if ugrid is None else np.asarray(ugrid, dtype=float)
    tgrid = np.linspace(0, 1, 101) if tgrid is None else np.asarray(tgrid, dtype=float)
    phi_t = fit.response_decomp.eigenfunctions(tgrid)
    values = left.eigenfunctions(ugrid) @ middle @ phi_t.T
    return SurfaceEstimate(ugrid=ugrid, tgrid=tgrid, values=values, kind=kind)


def reconstruct_rho(fit: SfofrFit, ugrid=None, tgrid=None) -> SurfaceEstimate:
    """Spatial autocorrelation surface rho(u, t) = phi(u)' rho_hat phi(t)."""
    return _surface(fit, fit.response_decomp, fit.msar_fit.params.rho, ugrid, tgrid, "rho")


def reconstruct_beta(fit: SfofrFit, sgrid=None, tgrid=None) -> SurfaceEstimate:
    """Regression coefficient surface beta(s, t) = psi(s)' B_hat phi(t)."""
    return _surface(fit, fit.predictor_decomp, fit.msar_fit.params.b, sgrid, tgrid, "beta")


# --- fitted values and prediction -------------------------------------------


def _curves(fit: SfofrFit, y_scores: np.ndarray, ids=None) -> FunctionalDataset:
    """Response curves from response scores, with the training mean re-added."""
    curves = reconstruct(y_scores, fit.response_decomp, fit.y_grid) + fit.y_mean
    return FunctionalDataset(grid=fit.y_grid, values=curves, ids=ids)


def _predict_from_scores(
    fit: SfofrFit, x_scores: np.ndarray, weights: SpatialWeights, ids=None
) -> FunctionalDataset:
    c = x_scores @ fit.msar_fit.params.b
    return _curves(fit, reduced_form_solve(fit.msar_fit.params.rho, weights, c), ids)


def fitted_values(fit: SfofrFit) -> FunctionalDataset:
    """In-sample fitted curves from the reduced form with zero error scores."""
    return _predict_from_scores(fit, fit.predictor_decomp.scores, fit.weights)


def _smooth(fit: SfofrFit, data: FunctionalDataset, mean, basis) -> BasisCoefficients:
    """Center curves by a training mean and smooth them with the fit's ridge."""
    centered = FunctionalDataset(grid=data.grid, values=data.values - mean)
    return smooth_curves(centered, basis, fit.options.get("ridge", FIT_OPTIONS["ridge"]))


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two sample grids have the same points, to 1e-12."""
    return a.size == b.size and bool(np.max(np.abs(a - b), initial=0.0) <= 1e-12)


def _new_scores(fit: SfofrFit, x_new: FunctionalDataset, weights_new: SpatialWeights):
    """``predict``'s checks, then the scores of new predictor curves."""
    if not _same_grid(x_new.grid, fit.x_grid):
        raise ParameterError("new predictor grid differs from the training grid")
    if weights_new.n != x_new.n:
        raise ParameterError("weight matrix size must match the number of new units")
    return project(_smooth(fit, x_new, fit.x_mean, fit.x_basis), fit.predictor_decomp)


def predict(
    fit: SfofrFit, x_new: FunctionalDataset, weights_new: SpatialWeights
) -> FunctionalDataset:
    """Out-of-sample prediction using the test set's own weight matrix."""
    scores = _new_scores(fit, x_new, weights_new)
    return _predict_from_scores(fit, scores, weights_new, ids=x_new.ids)


def _response_coeffs(fit: SfofrFit, y_data: FunctionalDataset) -> BasisCoefficients:
    """``represent_response``'s check, then the smoothed, centered curves."""
    if not _same_grid(y_data.grid, fit.y_grid):
        raise ParameterError("response grid differs from the training grid")
    return _smooth(fit, y_data, fit.y_mean, fit.y_basis)


def _represent(fit: SfofrFit, y_coeffs: BasisCoefficients, ids=None) -> FunctionalDataset:
    """Smoothed, centered response curves projected onto the fit's retained
    components, reconstructed, with the training mean re-added."""
    return _curves(fit, project(y_coeffs, fit.response_decomp), ids)


def represent_response(fit: SfofrFit, y_data: FunctionalDataset) -> FunctionalDataset:
    """The fitted decomposition's view of observed response curves: smooth,
    project onto the retained components, reconstruct, and re-add the mean.

    This is the functional object the model actually predicts; evaluation
    metrics compare predictions against it.
    """
    return _represent(fit, _response_coeffs(fit, y_data), y_data.ids)


# --- diagnostics and metrics -------------------------------------------------


def contraction_diagnostic(rho_surface: SurfaceEstimate, weights: SpatialWeights) -> dict:
    """Invertibility diagnostics for the spatial operator.

    Reports the kernel sup norm, the L1 operator bound sup_t int |rho(u, t)| du
    (trapezoid), and ||W||_inf, together with two flags: the strict condition
    sup|rho| * ||W||_inf < 1 and the weaker L1 condition bound * ||W||_inf < 1.
    Only warns on failure, at the caller's line; generation and estimation may still be stable.
    """
    wu = trapezoid_weights(rho_surface.ugrid)
    sup_kernel = float(np.max(np.abs(rho_surface.values)))
    l1_bound = float(np.max(wu @ np.abs(rho_surface.values)))
    w_inf = weights.spectral_radius()
    strict_ok = sup_kernel * w_inf < 1
    weak_ok = l1_bound * w_inf < 1
    if not strict_ok and not weak_ok:
        warn_at_caller(
            f"both contraction conditions fail (sup {sup_kernel:.3g}, "
            f"L1 bound {l1_bound:.3g}, ||W||_inf {w_inf:.3g})"
        )
    return {
        "sup_kernel": sup_kernel,
        "l1_operator_bound": l1_bound,
        "w_inf": w_inf,
        "strict_condition_ok": strict_ok,
        "weak_condition_ok": weak_ok,
    }


def ise_surface(est: SurfaceEstimate, truth: SurfaceEstimate) -> float:
    """Integrated squared error between two surfaces on matching grids."""
    if not (_same_grid(est.ugrid, truth.ugrid) and _same_grid(est.tgrid, truth.tgrid)):
        raise ParameterError("surfaces must share identical grids")
    wu = trapezoid_weights(est.ugrid)
    wt = trapezoid_weights(est.tgrid)
    diff = est.values - truth.values
    return float(wu @ (diff * diff) @ wt)


def mse_curves(pred: FunctionalDataset, obs: FunctionalDataset) -> float:
    """Mean over units of the trapezoid integral of squared curve error.

    The same computation on held-out curves is the mean squared prediction
    error (MSPE).
    """
    if pred.n != obs.n or not _same_grid(pred.grid, obs.grid):
        raise ParameterError("datasets must share the grid and number of units")
    w = trapezoid_weights(pred.grid)
    diff = pred.values - obs.values
    return float(np.mean((diff * diff) @ w))


def r_squared(pred: FunctionalDataset, obs: FunctionalDataset) -> float:
    """Functional coefficient of determination.

    1 - sum_i int (obs_i - pred_i)^2 dt / sum_i int (obs_i - obs_mean)^2 dt;
    on held-out data this is the out-of-sample R^2. Always <= 1.
    """
    if pred.n != obs.n or not _same_grid(pred.grid, obs.grid):
        raise ParameterError("datasets must share the grid and number of units")
    w = trapezoid_weights(obs.grid)
    resid = obs.values - pred.values
    spread = obs.values - obs.values.mean(axis=0)
    denom = float(np.sum((spread * spread) @ w))
    if denom <= 1e-14 * float(np.sum(obs.values**2 @ w)):
        raise UndefinedStatisticError(
            "observed curves have no variation around their mean curve"
        )
    return 1.0 - float(np.sum((resid * resid) @ w)) / denom


# --- the two-fit comparison --------------------------------------------------


def compare_fits(
    y_train: FunctionalDataset, x_train: FunctionalDataset, weights: SpatialWeights,
    y_test: FunctionalDataset, x_test: FunctionalDataset, weights_test: SpatialWeights,
    options: dict | None = None,
) -> dict:
    """Fit the spatial model and the FPC baseline on the same training data.

    Returns {"sfofr": {...}, "fpc": {...}}, each holding the method's fit, its
    in-sample mse and its out-of-sample mspe, both against the response as the
    method's own decomposition represents it. The fits share one front end,
    and the test scores and smoothed test responses are computed once; every
    result equals, bit for bit, that of the public calls made apart.
    """
    y_coeffs, shared = _front_end(y_train, x_train, options)
    spatial = warn_if_unconverged(_fit_spatial(y_coeffs, shared, weights))
    baseline = _fit_baseline(y_coeffs, shared)
    x_scores = _new_scores(spatial, x_test, weights_test)
    y_test_coeffs = _response_coeffs(spatial, y_test)
    return {
        method: {
            "fit": fit,
            "mse": mse_curves(fitted_values(fit), _represent(fit, y_coeffs)),
            "mspe": mse_curves(
                _predict_from_scores(fit, x_scores, weights_test), _represent(fit, y_test_coeffs)
            ),
        }
        for method, fit in (("sfofr", spatial), ("fpc", baseline))
    }
