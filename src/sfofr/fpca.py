"""Classical and spatial functional principal components.

Everything happens in basis-coefficient space. With coefficient matrix A
(n x L) and basis Gram matrix Gamma, set D = A Gamma^{1/2}. Classical FPCA is
the eigen-decomposition of n^{-1} D'D; the spatial variant replaces D'D with
D' Ws D where Ws = (W + W')/2 is the symmetrized weight matrix. Symmetrizing
leaves every criterion value v'D'WDv unchanged (quadratic-form identity) while
guaranteeing real eigenpairs. Eigenvectors u map back to coefficient space as
chi = Gamma^{-1/2} u, so the eigenfunctions eta(t) = chi' g(t) are orthonormal
in L2, and scores are exact L2 inner products: xi = A Gamma chi.

Spatial eigenvalues equal Var(score) * MoranI(score) and may be negative;
components are therefore ranked by absolute eigenvalue, and explained-variance
shares always use sample score variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, PreconditionError
from .fdbasis import BasisCoefficients, BSplineBasis, evaluate_basis
from .spatial import SpatialWeights


@dataclass(frozen=True)
class FpcDecomposition:
    """A fitted (spatial) functional principal component decomposition.

    chi : L x K eigenfunction coefficients (column k spans component k).
    eigenvalues : length K; variances for the classical kind, variance times
        Moran's I for the spatial kind (possibly negative).
    scores : n x K projections of the training curves.
    variance_explained : length K shares of total score variance.
    total_variance : total variance of the training curves in L2.
    """

    kind: str
    chi: np.ndarray
    eigenvalues: np.ndarray
    scores: np.ndarray
    basis: BSplineBasis
    variance_explained: np.ndarray
    total_variance: float

    def __post_init__(self):
        if self.kind not in ("classical", "spatial"):
            raise ParameterError("kind must be 'classical' or 'spatial'")

    @property
    def n_components(self) -> int:
        return self.chi.shape[1]

    def truncate(self, k: int) -> "FpcDecomposition":
        """Keep the leading k components."""
        if not 1 <= k <= self.n_components:
            raise ParameterError(f"k must be in [1, {self.n_components}]")
        return FpcDecomposition(
            kind=self.kind,
            chi=self.chi[:, :k],
            eigenvalues=self.eigenvalues[:k],
            scores=self.scores[:, :k],
            basis=self.basis,
            variance_explained=self.variance_explained[:k],
            total_variance=self.total_variance,
        )

    def eigenfunctions(self, tgrid) -> np.ndarray:
        """Evaluate the component functions on tgrid (|tgrid| x K)."""
        return evaluate_basis(self.basis, tgrid) @ self.chi


def _require_centered(coeffs: BasisCoefficients):
    if not coeffs.is_centered():
        raise PreconditionError(
            "coefficients must be centered; run fdbasis.center before smoothing"
        )


def _fix_signs(chi: np.ndarray) -> np.ndarray:
    """Flip component signs so the first non-negligible coefficient is positive."""
    out = chi.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > 1e-10 * max(1.0, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def _eig_in_d_space(coeffs: BasisCoefficients, weights: SpatialWeights | None):
    """Eigen-decompose n^{-1} Gamma^{1/2} A' [Ws] A Gamma^{1/2}; return full spectrum."""
    a = coeffs.coef
    n = a.shape[0]
    gh = coeffs.basis.gram_sqrt
    d = a @ gh
    if weights is None:
        m = d.T @ d / n
    else:
        wd = (weights.matmul(d) + weights.rmatmul(d)) / 2  # Ws @ D without forming Ws
        m = d.T @ wd / n
    m = (m + m.T) / 2
    eigvals, eigvecs = np.linalg.eigh(m)
    total_variance = float(np.sum(d * d) / n)
    return eigvals, eigvecs, total_variance


def _canonicalize_degenerate(eigvals, eigvecs, cov):
    """Resolve degenerate eigenspaces of the spatial criterion matrix.

    Within an eigenspace the eigenvector basis is arbitrary; rotating it to
    diagonalize the plain score covariance makes the decomposition
    deterministic and lets the spatial variant degrade exactly to classical
    FPCA when the criterion matrix vanishes (e.g. an all-zero W).

    Returns group-representative eigenvalues (for ordering) and per-component
    score variances alongside the rotated eigenvectors.
    """
    n_vec = eigvals.size
    tol = 1e-10 * max(1.0, float(np.max(np.abs(eigvals))) if n_vec else 1.0)
    rep = eigvals.copy()
    vecs = eigvecs.copy()
    start = 0
    while start < n_vec:
        stop = start + 1
        while stop < n_vec and eigvals[stop] - eigvals[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            cg = block.T @ cov @ block
            cg = (cg + cg.T) / 2
            w_g, v_g = np.linalg.eigh(cg)
            vecs[:, start:stop] = block @ v_g[:, ::-1]  # descending variance
            rep[start:stop] = eigvals[start:stop].mean()
        start = stop
    variances = np.einsum("ij,jk,ik->k", vecs, cov, vecs)
    return rep, vecs, variances


def _assemble(coeffs, weights, k, kind) -> FpcDecomposition:
    eigvals, eigvecs, total = _eig_in_d_space(coeffs, weights)
    if kind == "classical":
        order = np.argsort(eigvals)[::-1]
    else:
        n = coeffs.n
        d = coeffs.coef @ coeffs.basis.gram_sqrt
        cov = d.T @ d / n
        rep, eigvecs, variances = _canonicalize_degenerate(eigvals, eigvecs, cov)
        # primary key |criterion eigenvalue|, variance breaks exact ties
        order = np.lexsort((-variances, -np.abs(rep)))
    eigvals = eigvals[order][:k]
    u = eigvecs[:, order][:, :k]
    chi = _fix_signs(coeffs.basis.gram_inv_sqrt @ u)
    scores = coeffs.coef @ coeffs.basis.gram @ chi
    score_var = np.mean(scores**2, axis=0)
    shares = score_var / total if total > 0 else np.zeros_like(score_var)
    return FpcDecomposition(
        kind=kind,
        chi=chi,
        eigenvalues=eigvals,
        scores=scores,
        basis=coeffs.basis,
        variance_explained=shares,
        total_variance=total,
    )


def _resolve_k(coeffs: BasisCoefficients, k) -> int:
    k_max = min(coeffs.n - 1, coeffs.basis.num_basis)
    if k is None:
        return k_max
    if int(k) != k or not 1 <= k <= k_max:
        raise ParameterError(f"number of components must be in [1, {k_max}]")
    return int(k)


def fit_fpc(
    coeffs: BasisCoefficients,
    n_components: int | None = None,
    variance_threshold: float | None = None,
) -> FpcDecomposition:
    """Classical FPCA of centered coefficients.

    Pass either an explicit component count or a variance threshold in (0, 1];
    with a threshold the decomposition is truncated at the smallest K whose
    cumulative score-variance share reaches it.
    """
    _require_centered(coeffs)
    if variance_threshold is not None and n_components is not None:
        raise ParameterError("give n_components or variance_threshold, not both")
    k = _resolve_k(coeffs, n_components)
    decomp = _assemble(coeffs, None, k, "classical")
    if variance_threshold is not None:
        decomp = decomp.truncate(choose_k(decomp, variance_threshold))
    return decomp


def fit_sfpc(
    coeffs: BasisCoefficients,
    weights: SpatialWeights,
    n_components: int | None = None,
    variance_threshold: float | None = None,
) -> FpcDecomposition:
    """Spatial FPCA: components maximizing score variance times Moran's I."""
    _require_centered(coeffs)
    if weights.n != coeffs.n:
        raise ParameterError(
            f"weight matrix size {weights.n} does not match {coeffs.n} curves"
        )
    if variance_threshold is not None and n_components is not None:
        raise ParameterError("give n_components or variance_threshold, not both")
    k = _resolve_k(coeffs, n_components)
    decomp = _assemble(coeffs, weights, k, "spatial")
    if variance_threshold is not None:
        decomp = decomp.truncate(choose_k(decomp, variance_threshold))
    return decomp


def choose_k(decomp: FpcDecomposition, threshold: float) -> int:
    """Smallest K whose cumulative score-variance share reaches ``threshold``."""
    if not 0 < threshold <= 1:
        raise ParameterError("threshold must be in (0, 1]")
    cum = np.cumsum(decomp.variance_explained)
    idx = np.searchsorted(cum, threshold - 1e-12)
    return int(min(idx, decomp.n_components - 1) + 1)


def project(coeffs: BasisCoefficients, decomp: FpcDecomposition) -> np.ndarray:
    """Exact L2 projections of curves onto the components: scores = A Gamma chi."""
    a, b = coeffs.basis, decomp.basis
    same_shape = a.degree == b.degree and a.num_basis == b.num_basis
    if not (same_shape and np.array_equal(a.knots, b.knots)):
        raise ParameterError("coefficients use a different basis than the decomposition")
    return coeffs.coef @ decomp.basis.gram @ decomp.chi


def reconstruct(scores: np.ndarray, decomp: FpcDecomposition, tgrid) -> np.ndarray:
    """Curve values sum_k scores[i, k] eta_k(t) on tgrid."""
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.shape[1] != decomp.n_components:
        raise ParameterError(
            f"scores have {scores.shape[1]} columns, expected {decomp.n_components}"
        )
    return scores @ decomp.eigenfunctions(tgrid).T
