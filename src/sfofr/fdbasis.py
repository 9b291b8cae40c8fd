"""B-spline representation of discretized curves.

A curve sampled at grid points in [0, 1] is expanded as x(t) = sum_l a_l g_l(t)
on a clamped (open) uniform B-spline basis g_1..g_L. The Gram matrix
Gamma[i, j] = int_0^1 g_i g_j is computed by Gauss-Legendre quadrature, which is
exact for the piecewise-polynomial product degree, so inner products of
expanded functions reduce to coefficient-space bilinear forms a' Gamma b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import DomainError, ParameterError, SingularityError, _check_count, _check_finite


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Quadrature weights of the composite trapezoid rule on an increasing grid."""
    grid = np.asarray(grid, dtype=float)
    w = np.zeros(grid.shape[0])
    d = np.diff(grid)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


def _check_grid(grid, min_points: int) -> np.ndarray:
    """``grid`` as a float array when it holds at least ``min_points`` finite,
    strictly increasing points in [0, 1]; anything else raises a ``DataError``."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_points:
        raise ParameterError(f"grid must be 1-D with at least {min_points} points")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise DomainError(f"grid points must be finite; point {bad[0]} is {grid[bad[0]]}")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise DomainError("grid must lie within [0, 1]")
    if np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class FunctionalDataset:
    """n curves observed on a shared grid in [0, 1].

    Parameters
    ----------
    grid : (T,) strictly increasing sample points in [0, 1], T >= 4.
    values : (n, T) matrix, row i holds curve i; all entries finite, n >= 2.
    ids : optional sequence of n unit labels.
    """

    grid: np.ndarray
    values: np.ndarray
    ids: tuple | None = None

    def __post_init__(self):
        grid = _check_grid(self.grid, 4)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != grid.size:
            raise ParameterError(
                f"values must be n x {grid.size}, got shape {values.shape}"
            )
        if values.shape[0] < 2:
            raise ParameterError("a dataset needs at least 2 curves")
        if not np.all(np.isfinite(values)):
            raise ParameterError("values contain non-finite entries")
        if self.ids is not None:
            ids = tuple(str(u) for u in self.ids)
            if len(ids) != values.shape[0]:
                raise ParameterError("ids length does not match number of curves")
            object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped uniform B-spline basis on [0, 1] with precomputed Gram matrix."""

    degree: int
    num_basis: int
    knots: np.ndarray
    gram: np.ndarray

    @property
    def gram_sqrt(self) -> np.ndarray:
        """Symmetric square root of the Gram matrix (eigenvalues floored at 1e-12)."""
        return self._gram_roots[0]

    @property
    def gram_inv_sqrt(self) -> np.ndarray:
        return self._gram_roots[1]

    @cached_property
    def _gram_roots(self):
        w, v = np.linalg.eigh(self.gram)
        w = np.maximum(w, 1e-12)
        return _read_only((v * np.sqrt(w)) @ v.T), _read_only((v / np.sqrt(w)) @ v.T)


@dataclass(frozen=True)
class BasisCoefficients:
    """Expansion coefficients of n curves on a shared basis.

    ``coef`` is the n x L matrix A with x_i(t) = sum_l A[i, l] g_l(t);
    ``mean_coeff`` may hold the coefficients of a mean function removed
    before smoothing; it is all zero unless the caller passes it, and the
    pipeline does not (it keeps mean curves on the sampling grid).
    ``residual_rms`` may hold the per-curve root-mean-square smoothing
    residual; it is all zero unless the caller passes it, and
    ``smooth_curves`` does not (``smoothing_residual_rms`` computes it).
    """

    coef: np.ndarray
    basis: BSplineBasis
    mean_coeff: np.ndarray = field(default=None)  # type: ignore[assignment]
    residual_rms: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        coef = np.atleast_2d(np.asarray(self.coef, dtype=float))
        object.__setattr__(self, "coef", coef)
        if coef.shape[1] != self.basis.num_basis:
            raise ParameterError("coefficient columns must match basis size")
        if self.mean_coeff is None:
            object.__setattr__(self, "mean_coeff", np.zeros(self.basis.num_basis))
        else:
            mc = np.asarray(self.mean_coeff, dtype=float)
            if mc.shape != (self.basis.num_basis,):
                raise ParameterError("mean_coeff must have length num_basis")
            object.__setattr__(self, "mean_coeff", mc)
        if self.residual_rms is None:
            object.__setattr__(self, "residual_rms", np.zeros(coef.shape[0]))

    @property
    def n(self) -> int:
        return self.coef.shape[0]

    def is_centered(self) -> bool:
        scale = np.max(np.abs(self.coef), initial=0.0)
        return bool(np.max(np.abs(self.coef.mean(axis=0))) <= 1e-8 * scale)


def make_bspline_basis(num_basis: int, degree: int = 3) -> BSplineBasis:
    """Construct a clamped uniform B-spline basis of ``num_basis`` functions.

    Interior knots are equally spaced in (0, 1); boundary knots are repeated
    degree + 1 times so the first/last basis function interpolates at 0/1.
    The Gram matrix uses Gauss-Legendre with degree + 1 nodes per knot span,
    exact for the degree-2*degree polynomial products. Bases are cached per
    (num_basis, degree), with read-only knots, Gram matrix and Gram roots.
    """
    degree = _check_count("degree", degree, 1)
    return _bspline_basis(_check_count("num_basis", num_basis, degree + 1), degree)


@lru_cache(maxsize=4)
def _bspline_basis(num_basis: int, degree: int) -> BSplineBasis:
    interior = np.linspace(0.0, 1.0, num_basis - degree + 1)[1:-1]
    knots = np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )
    gram = _gram_gauss_legendre(knots, degree)
    gram = (gram + gram.T) / 2  # enforce exact symmetry
    return BSplineBasis(
        degree=degree, num_basis=num_basis, knots=_read_only(knots), gram=_read_only(gram)
    )


def _gram_gauss_legendre(knots: np.ndarray, degree: int) -> np.ndarray:
    """One design-matrix call at the Gauss-Legendre nodes of every knot span;
    the per-span products are then summed span by span."""
    nodes, weights = np.polynomial.legendre.leggauss(degree + 1)
    spans = np.unique(knots)
    half = (spans[1:] - spans[:-1])[:, None] / 2
    x = half * nodes + (spans[:-1] + spans[1:])[:, None] / 2
    phi = _design_matrix(knots, degree, x.ravel()).reshape(*x.shape, -1)
    return sum(phi_s.T @ (w_s[:, None] * phi_s) for phi_s, w_s in zip(phi, half * weights))


def _design_matrix(knots: np.ndarray, degree: int, points: np.ndarray) -> np.ndarray:
    """Dense B-spline design matrix by the Cox-de Boor recurrence, vectorized
    over points in the order of scipy's ``BSpline.design_matrix``, whose
    output it reproduces bit for bit."""
    x = np.asarray(points, dtype=float)
    num_basis = knots.size - degree - 1
    # span l with knots[l] <= x < knots[l + 1]; the right end joins the last span
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, degree, num_basis - 1)
    h = np.zeros((x.size, degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            right, left = knots[span + m], knots[span + m - j]
            w = prev[:, m - 1] / (right - left)
            h[:, m - 1] += w * (right - x)
            h[:, m] = w * (x - left)
    out = np.zeros((x.size, num_basis))
    np.put_along_axis(out, span[:, None] - degree + np.arange(degree + 1), h, axis=1)
    return out


def evaluate_basis(basis: BSplineBasis, points) -> np.ndarray:
    """Evaluate all basis functions at ``points`` in [0, 1].

    Returns a read-only |points| x L matrix whose rows sum to one (partition
    of unity), cached per (knots, degree, points).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        off = pts[(pts < 0.0) | (pts > 1.0)][0]
        raise DomainError(f"evaluation point {off!r} outside [0, 1]")
    knots = np.asarray(basis.knots, dtype=float)
    return _cached_design_matrix(knots.tobytes(), basis.degree, pts.tobytes())


@lru_cache(maxsize=4)
def _cached_design_matrix(knots: bytes, degree: int, points: bytes) -> np.ndarray:
    return _read_only(_design_matrix(np.frombuffer(knots), degree, np.frombuffer(points)))


def smooth_curves(
    data: FunctionalDataset, basis: BSplineBasis, ridge: float = 1e-8
) -> BasisCoefficients:
    """Least-squares fit of every curve onto the basis.

    Each row of the result minimizes ||values_i - Phi a||^2 + ridge * ||a||^2
    where Phi is the basis design matrix on the data grid. All curves share
    one Cholesky factorization of Phi' Phi + ridge I. The smoothing residual
    is left to ``smoothing_residual_rms``.
    """
    _check_finite("ridge", ridge)
    if basis.num_basis > data.n_points:
        raise ParameterError(
            f"basis size {basis.num_basis} exceeds grid length {data.n_points}"
        )
    phi = evaluate_basis(basis, data.grid)
    normal = phi.T @ phi + ridge * np.eye(basis.num_basis)
    try:
        factor = cho_factor(normal)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "design matrix is rank deficient; pass ridge > 0 to regularize"
        ) from exc
    coef = cho_solve(factor, phi.T @ data.values.T).T
    return BasisCoefficients(coef=coef, basis=basis)


def smoothing_residual_rms(data: FunctionalDataset, coeffs: BasisCoefficients) -> np.ndarray:
    """Per-curve root-mean-square residual of ``coeffs`` against ``data`` on
    the data grid: sqrt(mean_j (values_ij - (A Phi')_ij)^2)."""
    resid = data.values - coeffs.coef @ evaluate_basis(coeffs.basis, data.grid).T
    return np.sqrt(np.mean(resid**2, axis=1))


def center(data: FunctionalDataset):
    """Remove the cross-sectional mean curve.

    Returns the centered dataset and the mean curve (length T) so it can be
    added back when reconstructing predictions.
    """
    if data.n < 2:
        raise ParameterError("centering needs at least 2 curves")
    mean_curve = data.values.mean(axis=0)
    centered = FunctionalDataset(
        grid=data.grid, values=data.values - mean_curve, ids=data.ids
    )
    return centered, mean_curve
