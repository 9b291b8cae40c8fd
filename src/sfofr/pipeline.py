"""End-to-end spatial function-on-function regression.

Fitting proceeds in four stages: center both curve sets, smooth them onto a
B-spline basis, decompose (spatial FPCA on the response, classical FPCA on the
predictor, each truncated at a variance threshold), and estimate the induced
multivariate spatial autoregression on the score matrices. The fitted score-
space matrices map back to bivariate surfaces through the eigenfunctions:
rho(u, t) = phi(u)' rho_hat phi(t) and beta(s, t) = psi(s)' beta_hat phi(t).

Fitted values and out-of-sample predictions both solve the reduced form
M - W M rho = X B with the error scores at their zero mean; predictions use
the test set's own weight matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ParameterError,
    SfofrError,
    UndefinedStatisticError,
)
from .fdbasis import (
    BasisCoefficients,
    BSplineBasis,
    FunctionalDataset,
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
    objective,
    reduced_form_solve,
)
from .spatial import SpatialWeights


@dataclass(frozen=True)
class SurfaceEstimate:
    """A bivariate surface sampled on a rectangular grid in [0, 1]^2.

    ``ugrid`` is the first-axis grid (u for a rho surface, s for a beta
    surface); ``values[a, b]`` is the surface at (ugrid[a], tgrid[b]).
    """

    ugrid: np.ndarray
    tgrid: np.ndarray
    values: np.ndarray
    kind: str = "rho"

    def __post_init__(self):
        ugrid = np.asarray(self.ugrid, dtype=float)
        tgrid = np.asarray(self.tgrid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "ugrid", ugrid)
        object.__setattr__(self, "tgrid", tgrid)
        object.__setattr__(self, "values", values)
        for g in (ugrid, tgrid):
            if g.ndim != 1 or g.size < 2 or g.min() < 0 or g.max() > 1:
                raise ParameterError("surface grids must be 1-D within [0, 1]")
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
        if not self.msar_fit.converged:
            warnings.warn(
                f"score-space fit did not converge: {self.msar_fit.message}",
                stacklevel=3,
            )

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


def _staged(stage: str, fn, *args, **kwargs):
    """Run one pipeline stage, labeling any package error with the stage name."""
    try:
        return fn(*args, **kwargs)
    except SfofrError as exc:
        raise type(exc)(f"{stage}: {exc}") from exc


DEFAULT_NUM_BASIS = 20
DEFAULT_DEGREE = 3
DEFAULT_RIDGE = 1e-8
DEFAULT_VAR_THRESHOLD = 0.95


def _resolve_options(options: dict | None) -> dict:
    opts = {
        "num_basis": DEFAULT_NUM_BASIS,
        "degree": DEFAULT_DEGREE,
        "ridge": DEFAULT_RIDGE,
        "var_threshold": DEFAULT_VAR_THRESHOLD,
        "msar_tol": None,
        "msar_max_iter": 500,
    }
    if options:
        unknown = set(options) - set(opts)
        if unknown:
            raise ParameterError(f"unknown fit options: {sorted(unknown)}")
        opts.update({k: v for k, v in options.items() if v is not None})
    return opts


def _center_and_smooth(data: FunctionalDataset, basis: BSplineBasis, ridge: float):
    centered, mean_curve = center(data)
    coeffs = smooth_curves(centered, basis, ridge)
    pair = FunctionalDataset(grid=data.grid, values=np.vstack([mean_curve, mean_curve]))
    coeffs = BasisCoefficients(
        coef=coeffs.coef,
        basis=basis,
        mean_coeff=smooth_curves(pair, basis, ridge).coef[0],
        residual_rms=coeffs.residual_rms,
    )
    return coeffs, mean_curve


def fit_sfofr(
    y_data: FunctionalDataset,
    x_data: FunctionalDataset,
    weights: SpatialWeights,
    options: dict | None = None,
) -> SfofrFit:
    """Fit the full spatial model: SFPC response, FPC predictor, MSAR scores.

    Options (all overridable): num_basis=20, degree=3, ridge=1e-8,
    var_threshold=0.95, msar_tol=None, msar_max_iter=500.
    """
    opts = _resolve_options(options)
    if y_data.n != x_data.n:
        raise ParameterError("response and predictor must have the same n")
    if weights.n != y_data.n:
        raise ParameterError("weight matrix size must match the number of units")
    basis = _staged(
        "basis construction", make_bspline_basis, opts["num_basis"], opts["degree"]
    )
    y_coeffs, y_mean = _staged("response smoothing", _center_and_smooth, y_data, basis, opts["ridge"])
    x_coeffs, x_mean = _staged("predictor smoothing", _center_and_smooth, x_data, basis, opts["ridge"])
    y_decomp = _staged(
        "response decomposition",
        fit_sfpc,
        y_coeffs,
        weights,
        variance_threshold=opts["var_threshold"],
    )
    x_decomp = _staged(
        "predictor decomposition",
        fit_fpc,
        x_coeffs,
        variance_threshold=opts["var_threshold"],
    )
    msar_data = MsarData(ymat=y_decomp.scores, xmat=x_decomp.scores, weights=weights)
    msar = _staged(
        "score-space estimation",
        fit_msar,
        msar_data,
        tol=opts["msar_tol"],
        max_iter=opts["msar_max_iter"],
    )
    return SfofrFit(
        response_decomp=y_decomp,
        predictor_decomp=x_decomp,
        msar_fit=msar,
        y_mean=y_mean,
        x_mean=x_mean,
        y_grid=y_data.grid,
        x_grid=x_data.grid,
        weights=weights,
        options=opts,
    )


def fit_fofr_fpc(
    y_data: FunctionalDataset,
    x_data: FunctionalDataset,
    options: dict | None = None,
) -> SfofrFit:
    """Non-spatial baseline: classical FPC on both sides, rho forced to zero,
    B from per-column least squares of response scores on predictor scores."""
    opts = _resolve_options(options)
    if y_data.n != x_data.n:
        raise ParameterError("response and predictor must have the same n")
    basis = _staged(
        "basis construction", make_bspline_basis, opts["num_basis"], opts["degree"]
    )
    y_coeffs, y_mean = _staged("response smoothing", _center_and_smooth, y_data, basis, opts["ridge"])
    x_coeffs, x_mean = _staged("predictor smoothing", _center_and_smooth, x_data, basis, opts["ridge"])
    y_decomp = _staged(
        "response decomposition", fit_fpc, y_coeffs, variance_threshold=opts["var_threshold"]
    )
    x_decomp = _staged(
        "predictor decomposition", fit_fpc, x_coeffs, variance_threshold=opts["var_threshold"]
    )
    b_hat, *_ = np.linalg.lstsq(x_decomp.scores, y_decomp.scores, rcond=None)
    zero_w = SpatialWeights(
        matrix=np.zeros((y_data.n, y_data.n)), normalized=False, kind="custom"
    )
    params = MsarParams(
        rho=np.zeros((y_decomp.n_components, y_decomp.n_components)),
        b=b_hat,
        prec_chol=np.eye(y_decomp.n_components),
    )
    msar_data = MsarData(ymat=y_decomp.scores, xmat=x_decomp.scores, weights=zero_w)
    msar = MsarFit(
        params=params,
        objective=objective(params, msar_data),
        grad_norm=float("nan"),
        iterations=0,
        converged=True,
        objective_trace=(),
        tolerance=float("nan"),
        message="baseline: rho fixed at zero, B by least squares",
    )
    return SfofrFit(
        response_decomp=y_decomp,
        predictor_decomp=x_decomp,
        msar_fit=msar,
        y_mean=y_mean,
        x_mean=x_mean,
        y_grid=y_data.grid,
        x_grid=x_data.grid,
        weights=zero_w,
        options=opts,
    )


# --- surfaces ---------------------------------------------------------------


def reconstruct_rho(fit: SfofrFit, ugrid=None, tgrid=None) -> SurfaceEstimate:
    """Spatial autocorrelation surface rho(u, t) = phi(u)' rho_hat phi(t)."""
    ugrid = np.linspace(0, 1, 101) if ugrid is None else np.asarray(ugrid, dtype=float)
    tgrid = np.linspace(0, 1, 101) if tgrid is None else np.asarray(tgrid, dtype=float)
    phi_u = fit.response_decomp.eigenfunctions(ugrid)
    phi_t = fit.response_decomp.eigenfunctions(tgrid)
    values = phi_u @ fit.msar_fit.params.rho @ phi_t.T
    return SurfaceEstimate(ugrid=ugrid, tgrid=tgrid, values=values, kind="rho")


def reconstruct_beta(fit: SfofrFit, sgrid=None, tgrid=None) -> SurfaceEstimate:
    """Regression coefficient surface beta(s, t) = psi(s)' B_hat phi(t)."""
    sgrid = np.linspace(0, 1, 101) if sgrid is None else np.asarray(sgrid, dtype=float)
    tgrid = np.linspace(0, 1, 101) if tgrid is None else np.asarray(tgrid, dtype=float)
    psi_s = fit.predictor_decomp.eigenfunctions(sgrid)
    phi_t = fit.response_decomp.eigenfunctions(tgrid)
    values = psi_s @ fit.msar_fit.params.b @ phi_t.T
    return SurfaceEstimate(ugrid=sgrid, tgrid=tgrid, values=values, kind="beta")


def project_surface(surface: SurfaceEstimate, fit: SfofrFit) -> np.ndarray:
    """Project a surface back onto the fitted eigenfunction tensor basis.

    Round-trip companion of reconstruct_rho / reconstruct_beta: recovers the
    score-space coefficient matrix by trapezoid double quadrature.
    """
    wu = trapezoid_weights(surface.ugrid)
    wt = trapezoid_weights(surface.tgrid)
    left = (
        fit.response_decomp if surface.kind == "rho" else fit.predictor_decomp
    ).eigenfunctions(surface.ugrid)
    right = fit.response_decomp.eigenfunctions(surface.tgrid)
    return (left * wu[:, None]).T @ surface.values @ (right * wt[:, None])


# --- fitted values and prediction -------------------------------------------


def _predict_from_scores(
    fit: SfofrFit, x_scores: np.ndarray, weights: SpatialWeights, ids=None
) -> FunctionalDataset:
    c = x_scores @ fit.msar_fit.params.b
    m_hat = reduced_form_solve(fit.msar_fit.params.rho, weights, c)
    curves = reconstruct(m_hat, fit.response_decomp, fit.y_grid) + fit.y_mean
    return FunctionalDataset(grid=fit.y_grid, values=curves, ids=ids)


def fitted_values(fit: SfofrFit) -> FunctionalDataset:
    """In-sample fitted curves from the reduced form with zero error scores."""
    return _predict_from_scores(fit, fit.predictor_decomp.scores, fit.weights)


def predict(
    fit: SfofrFit, x_new: FunctionalDataset, weights_new: SpatialWeights
) -> FunctionalDataset:
    """Out-of-sample prediction using the test set's own weight matrix."""
    if x_new.grid.size != fit.x_grid.size or not np.allclose(
        x_new.grid, fit.x_grid, rtol=0, atol=1e-12
    ):
        raise ParameterError("new predictor grid differs from the training grid")
    if weights_new.n != x_new.n:
        raise ParameterError("weight matrix size must match the number of new units")
    centered = FunctionalDataset(grid=x_new.grid, values=x_new.values - fit.x_mean)
    coeffs = smooth_curves(centered, fit.x_basis, fit.options.get("ridge", DEFAULT_RIDGE))
    scores = project(coeffs, fit.predictor_decomp)
    return _predict_from_scores(fit, scores, weights_new, ids=x_new.ids)


def represent_response(fit: SfofrFit, y_data: FunctionalDataset) -> FunctionalDataset:
    """The fitted decomposition's view of observed response curves: smooth,
    project onto the retained components, reconstruct, and re-add the mean.

    This is the functional object the model actually predicts; evaluation
    metrics compare predictions against it.
    """
    if y_data.grid.size != fit.y_grid.size or not np.allclose(
        y_data.grid, fit.y_grid, rtol=0, atol=1e-12
    ):
        raise ParameterError("response grid differs from the training grid")
    centered = FunctionalDataset(grid=y_data.grid, values=y_data.values - fit.y_mean)
    coeffs = smooth_curves(centered, fit.y_basis, fit.options.get("ridge", DEFAULT_RIDGE))
    scores = project(coeffs, fit.response_decomp)
    curves = reconstruct(scores, fit.response_decomp, fit.y_grid) + fit.y_mean
    return FunctionalDataset(grid=fit.y_grid, values=curves, ids=y_data.ids)


# --- diagnostics and metrics -------------------------------------------------


def contraction_diagnostic(rho_surface: SurfaceEstimate, weights: SpatialWeights) -> dict:
    """Invertibility diagnostics for the spatial operator.

    Reports the kernel sup norm, the L1 operator bound sup_t int |rho(u, t)| du
    (trapezoid), and ||W||_inf, together with two flags: the strict condition
    sup|rho| * ||W||_inf < 1 and the weaker L1 condition bound * ||W||_inf < 1.
    Only warns on failure; generation and estimation may still be stable.
    """
    wu = trapezoid_weights(rho_surface.ugrid)
    sup_kernel = float(np.max(np.abs(rho_surface.values)))
    l1_bound = float(np.max(wu @ np.abs(rho_surface.values)))
    w_inf = weights.inf_norm()
    strict_ok = sup_kernel * w_inf < 1
    weak_ok = l1_bound * w_inf < 1
    if not strict_ok and not weak_ok:
        warnings.warn(
            f"both contraction conditions fail (sup {sup_kernel:.3g}, "
            f"L1 bound {l1_bound:.3g}, ||W||_inf {w_inf:.3g})",
            stacklevel=2,
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
    if est.values.shape != truth.values.shape or not (
        np.allclose(est.ugrid, truth.ugrid, rtol=0, atol=1e-12)
        and np.allclose(est.tgrid, truth.tgrid, rtol=0, atol=1e-12)
    ):
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
    if pred.n != obs.n or pred.grid.size != obs.grid.size or not np.allclose(
        pred.grid, obs.grid, rtol=0, atol=1e-12
    ):
        raise ParameterError("datasets must share the grid and number of units")
    w = trapezoid_weights(pred.grid)
    diff = pred.values - obs.values
    return float(np.mean((diff * diff) @ w))


def r_squared(pred: FunctionalDataset, obs: FunctionalDataset) -> float:
    """Functional coefficient of determination.

    1 - sum_i int (obs_i - pred_i)^2 dt / sum_i int (obs_i - obs_mean)^2 dt;
    on held-out data this is the out-of-sample R^2. Always <= 1.
    """
    if pred.n != obs.n or pred.grid.size != obs.grid.size or not np.allclose(
        pred.grid, obs.grid, rtol=0, atol=1e-12
    ):
        raise ParameterError("datasets must share the grid and number of units")
    w = trapezoid_weights(obs.grid)
    resid = obs.values - pred.values
    spread = obs.values - obs.values.mean(axis=0)
    denom = float(np.sum((spread * spread) @ w))
    if denom <= 1e-14 * max(1.0, float(np.sum(obs.values**2 @ w))):
        raise UndefinedStatisticError(
            "observed curves have no variation around their mean curve"
        )
    return 1.0 - float(np.sum((resid * resid) @ w)) / denom
