"""Classical and spatial functional principal components.

Everything happens in basis-coefficient space. With coefficient matrix A
(n x L) and basis Gram matrix Gamma, set D = A Gamma^{1/2}. Classical FPCA is
the eigen-decomposition of n^{-1} D'D; the spatial variant replaces D'D with
D' Ws D where Ws = (W + W')/2 is the symmetrized weight matrix. Symmetrizing
leaves every criterion value v'D'WDv unchanged (quadratic-form identity) while
guaranteeing real eigenpairs. Eigenvectors u map back to coefficient space as
chi = Gamma^{-1/2} u, so the eigenfunctions eta(t) = chi' g(t) are orthonormal
in L2, and scores are exact L2 inner products: xi = A Gamma chi.

One routine serves both kinds, and W enters only through the criterion
matrix (n^{-1} D'D without W, n^{-1} D' Ws D with it); centering checks,
eigen-solve, tie-breaking, ordering, signs, scores and truncation are shared,
so spatial FPCA with an all-zero W is classical FPCA.

Spatial eigenvalues equal Var(score) * MoranI(score) and may be negative;
components are therefore ranked by absolute eigenvalue (ties broken by score
variance), and explained-variance shares always use sample score variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError, PreconditionError, _check_count
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
        k = _check_count("k", k, 1, self.n_components)
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


def _fix_signs(chi: np.ndarray) -> np.ndarray:
    """Flip component signs so the first non-negligible coefficient is positive."""
    out = chi.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > 1e-10 * max(1.0, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def _canonicalize_degenerate(eigvals, eigvecs, cov):
    """Resolve degenerate eigenspaces of the criterion matrix (either kind).

    Within an eigenspace the eigenvector basis is arbitrary; rotating it to
    diagonalize the plain score covariance makes the decomposition
    deterministic and lets the spatial variant degrade exactly to classical
    FPCA when the criterion matrix vanishes (e.g. an all-zero W). For the
    classical kind the criterion matrix is cov itself, so only eigenvalues
    tied within the tolerance (such as the null space of rank-deficient data)
    are rotated.

    Returns group-representative eigenvalues (for ordering) and per-component
    score variances u_k' cov u_k alongside the rotated eigenvectors.
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
            _, v_g = np.linalg.eigh(cg)
            vecs[:, start:stop] = block @ v_g[:, ::-1]  # descending variance
            rep[start:stop] = eigvals[start:stop].mean()
        start = stop
    variances = np.einsum("ik,ij,jk->k", vecs, cov, vecs)
    return rep, vecs, variances


def _decompose(coeffs, weights, variance_threshold) -> FpcDecomposition:
    """FPCA of centered coefficients, spatial when ``weights`` is given."""
    if not coeffs.is_centered():
        raise PreconditionError(
            "coefficients must be centered; run fdbasis.center before smoothing"
        )
    if coeffs.n < 2:
        raise ParameterError("FPCA needs at least 2 curves")
    if weights is not None and weights.n != coeffs.n:
        raise ParameterError(
            f"weight matrix size {weights.n} does not match {coeffs.n} curves"
        )
    n, basis = coeffs.n, coeffs.basis
    d = coeffs.coef @ basis.gram_sqrt
    cov = d.T @ d / n
    crit = cov
    if weights is not None:  # the only place W enters: D' Ws D / n, without forming Ws
        crit = d.T @ ((weights.matmul(d) + weights.rmatmul(d)) / 2) / n
    eigvals, eigvecs = np.linalg.eigh((crit + crit.T) / 2)
    rep, eigvecs, variances = _canonicalize_degenerate(eigvals, eigvecs, cov)
    # primary key |criterion eigenvalue|, variance breaks exact ties
    order = np.lexsort((-variances, -np.abs(rep)))[: min(n - 1, basis.num_basis)]
    chi = _fix_signs(basis.gram_inv_sqrt @ eigvecs[:, order])
    scores = coeffs.coef @ basis.gram @ chi
    total = float(np.sum(d * d) / n)
    shares = np.mean(scores**2, axis=0) / total if total > 0 else np.zeros(chi.shape[1])
    decomp = FpcDecomposition(
        kind="classical" if weights is None else "spatial",
        chi=chi,
        eigenvalues=eigvals[order],
        scores=scores,
        basis=basis,
        variance_explained=shares,
        total_variance=total,
    )
    if variance_threshold is not None:
        decomp = decomp.truncate(choose_k(decomp, variance_threshold))
    return decomp


def fit_fpc(
    coeffs: BasisCoefficients, *, variance_threshold: float | None = None
) -> FpcDecomposition:
    """Classical FPCA of n centered curves on L basis functions.

    K is chosen one way: the decomposition keeps all min(n - 1, L) components,
    or, given a ``variance_threshold`` in (0, 1], the smallest K whose
    cumulative score-variance share reaches it (``choose_k``). Any other K
    comes from ``.truncate(k)``.
    """
    return _decompose(coeffs, None, variance_threshold)


def fit_sfpc(
    coeffs: BasisCoefficients,
    weights: SpatialWeights,
    *,
    variance_threshold: float | None = None,
) -> FpcDecomposition:
    """Spatial FPCA (score variance times Moran's I); K is chosen as in ``fit_fpc``."""
    return _decompose(coeffs, weights, variance_threshold)


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
