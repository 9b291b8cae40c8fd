"""Tests for classical and spatial functional principal components."""

import numpy as np
import pytest
import scipy.linalg

from sfofr import (
    BasisCoefficients,
    ParameterError,
    PreconditionError,
    SpatialWeights,
    center,
    choose_k,
    evaluate_basis,
    exponential_weights,
    fit_fpc,
    fit_sfpc,
    make_bspline_basis,
    morans_i,
    project,
    reconstruct,
    smooth_curves,
    trapezoid_weights,
)


@pytest.fixture(scope="module")
def basis():
    return make_bspline_basis(8, 3)


def centered_coeffs(coef, basis):
    coef = coef - coef.mean(axis=0)
    return BasisCoefficients(coef=coef, basis=basis)


def dense_oracle(coef, basis, w_mat=None):
    """Brute-force decomposition with scipy's matrix square root."""
    n = coef.shape[0]
    gram_half = scipy.linalg.sqrtm(basis.gram).real
    d = coef @ gram_half
    middle = d.T @ d / n if w_mat is None else d.T @ ((w_mat + w_mat.T) / 2) @ d / n
    eigvals, eigvecs = np.linalg.eigh((middle + middle.T) / 2)
    order = np.argsort(eigvals)[::-1] if w_mat is None else np.argsort(-np.abs(eigvals))
    eigvals = eigvals[order]
    chi = np.linalg.solve(gram_half, eigvecs[:, order])
    scores = coef @ basis.gram @ chi
    return eigvals, chi, scores


class TestFitFpc:
    def test_requires_centered(self, basis):
        coef = np.ones((6, 8)) + np.arange(6)[:, None]
        with pytest.raises(PreconditionError):
            fit_fpc(BasisCoefficients(coef=coef, basis=basis))

    def test_rank_one_data(self, basis):
        rng = np.random.default_rng(3)
        f_coef = rng.standard_normal(8)
        mult = rng.standard_normal(15)
        coeffs = centered_coeffs(np.outer(mult, f_coef), basis)
        decomp = fit_fpc(coeffs)
        assert decomp.eigenvalues[0] > 1e-6
        np.testing.assert_allclose(decomp.eigenvalues[1:], 0.0, atol=1e-10)
        # leading eigenfunction is +/- f / ||f||_L2
        norm = np.sqrt(f_coef @ basis.gram @ f_coef)
        unit = f_coef / norm
        lead = decomp.chi[:, 0]
        sign = np.sign(unit @ basis.gram @ lead)
        np.testing.assert_allclose(lead, sign * unit, atol=1e-8)

    def test_full_rank_reconstruction(self, basis):
        rng = np.random.default_rng(4)
        coeffs = centered_coeffs(rng.standard_normal((20, 8)), basis)
        decomp = fit_fpc(coeffs)
        grid = np.linspace(0, 1, 73)
        recon = reconstruct(decomp.scores, decomp, grid)
        smoothed = coeffs.coef @ evaluate_basis(basis, grid).T
        np.testing.assert_allclose(recon, smoothed, atol=1e-8)

    def test_eigenvalues_match_dense_oracle(self, basis):
        rng = np.random.default_rng(5)
        coeffs = centered_coeffs(rng.standard_normal((20, 8)), basis)
        decomp = fit_fpc(coeffs)
        ev_oracle, chi_oracle, _ = dense_oracle(coeffs.coef, basis)
        np.testing.assert_allclose(decomp.eigenvalues, ev_oracle, atol=1e-8)
        for k in range(decomp.n_components):
            a, b = decomp.chi[:, k], chi_oracle[:, k]
            sign = np.sign(a @ basis.gram @ b)
            np.testing.assert_allclose(a, sign * b, atol=1e-7)

    def test_eigenvalues_match_kernel_quadrature_oracle(self, basis):
        # independent path: discretize the empirical covariance kernel of the
        # smoothed curves on a fine grid and eigen-solve the integral operator
        rng = np.random.default_rng(6)
        coeffs = centered_coeffs(rng.standard_normal((20, 8)), basis)
        decomp = fit_fpc(coeffs)
        grid = np.linspace(0, 1, 2001)
        curves = coeffs.coef @ evaluate_basis(basis, grid).T
        kernel = curves.T @ curves / coeffs.n
        w = trapezoid_weights(grid)
        sym = np.sqrt(w)[:, None] * kernel * np.sqrt(w)[None, :]
        ev = np.sort(np.linalg.eigvalsh(sym))[::-1][:8]
        np.testing.assert_allclose(decomp.eigenvalues, ev, atol=2e-6)

    def test_score_variances_equal_eigenvalues(self, basis):
        rng = np.random.default_rng(7)
        coeffs = centered_coeffs(rng.standard_normal((25, 8)), basis)
        decomp = fit_fpc(coeffs)
        np.testing.assert_allclose(
            np.mean(decomp.scores**2, axis=0), decomp.eigenvalues, atol=1e-8
        )

    def test_score_covariance_diagonal(self, basis):
        rng = np.random.default_rng(8)
        coeffs = centered_coeffs(rng.standard_normal((30, 8)), basis)
        decomp = fit_fpc(coeffs)
        cov = decomp.scores.T @ decomp.scores / coeffs.n
        np.testing.assert_allclose(cov, np.diag(decomp.eigenvalues), atol=1e-8)

    def test_orthonormality_in_gram_metric_and_quadrature(self, basis):
        rng = np.random.default_rng(9)
        coeffs = centered_coeffs(rng.standard_normal((15, 8)), basis)
        decomp = fit_fpc(coeffs)
        k = decomp.n_components
        gram_inner = decomp.chi.T @ basis.gram @ decomp.chi
        np.testing.assert_allclose(gram_inner, np.eye(k), atol=1e-8)
        # trapezoid needs ~1e5 points for its own error to sit below 1e-6
        grid = np.linspace(0, 1, 100_001)
        funcs = decomp.eigenfunctions(grid)
        w = trapezoid_weights(grid)
        quad_inner = funcs.T @ (w[:, None] * funcs)
        np.testing.assert_allclose(quad_inner, np.eye(k), atol=1e-6)

    def test_sign_convention(self, basis):
        rng = np.random.default_rng(10)
        coeffs = centered_coeffs(rng.standard_normal((12, 8)), basis)
        for decomp in (fit_fpc(coeffs), fit_sfpc(coeffs, exponential_weights(12, 0.5))):
            for k in range(decomp.n_components):
                col = decomp.chi[:, k]
                nz = np.nonzero(np.abs(col) > 1e-10 * np.abs(col).max())[0]
                assert col[nz[0]] > 0

    def test_k_too_large_rejected(self, basis):
        rng = np.random.default_rng(11)
        coeffs = centered_coeffs(rng.standard_normal((5, 8)), basis)
        with pytest.raises(ParameterError):
            fit_fpc(coeffs).truncate(6)  # > n - 1

    @pytest.mark.parametrize("k", [2.5, np.nan, 0])
    def test_truncate_needs_a_whole_k_in_range(self, basis, k):
        coeffs = centered_coeffs(np.random.default_rng(11).standard_normal((5, 8)), basis)
        with pytest.raises(ParameterError, match=r"k must be an integer in \[1, 4\]"):
            fit_fpc(coeffs).truncate(k)

    def test_all_components_unless_a_threshold_is_given(self, basis):
        coeffs = centered_coeffs(np.random.default_rng(11).standard_normal((5, 8)), basis)
        assert fit_fpc(coeffs).n_components == 4  # min(n - 1, L)
        assert fit_fpc(coeffs).truncate(2.0).n_components == 2
        with pytest.raises(ParameterError, match="at least 2 curves"):  # min(n - 1, L) = 0
            fit_fpc(BasisCoefficients(coef=np.zeros((1, 8)), basis=basis))
        with pytest.raises(TypeError):  # a threshold is keyword-only
            fit_fpc(coeffs, 0.9)
        with pytest.raises(TypeError):
            fit_sfpc(coeffs, exponential_weights(5, 0.5), 2)


class TestFitSfpc:
    def test_identity_weights_rejected_at_construction(self):
        from sfofr import DataError

        with pytest.raises(DataError):
            SpatialWeights(matrix=np.eye(4))

    def test_ring_graph_matches_dense_oracle(self, basis):
        rng = np.random.default_rng(12)
        ring = np.array(
            [
                [0, 0.5, 0, 0.5],
                [0.5, 0, 0.5, 0],
                [0, 0.5, 0, 0.5],
                [0.5, 0, 0.5, 0.0],
            ]
        )
        w = SpatialWeights(matrix=ring, normalized=True)
        # rank-two data
        coef = np.outer(rng.standard_normal(4), rng.standard_normal(8))
        coef += np.outer(rng.standard_normal(4), rng.standard_normal(8))
        coeffs = centered_coeffs(coef, basis)
        decomp = fit_sfpc(coeffs, w).truncate(3)
        ev_oracle, chi_oracle, _ = dense_oracle(coeffs.coef, basis, ring)
        np.testing.assert_allclose(decomp.eigenvalues, ev_oracle[:3], atol=1e-8)
        # rank-two data: eigenvectors are only identified (up to sign) on the
        # two well-separated nonzero eigenvalues; the null space is arbitrary
        for k in range(3):
            if abs(decomp.eigenvalues[k]) < 1e-8:
                continue
            a, b = decomp.chi[:, k], chi_oracle[:, k]
            sign = np.sign(a @ basis.gram @ b)
            np.testing.assert_allclose(a, sign * b, atol=1e-7)

    def test_larger_instance_matches_dense_oracle(self, basis):
        rng = np.random.default_rng(13)
        w = exponential_weights(10, 0.5)
        coeffs = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_sfpc(coeffs, w)
        ev_oracle, _, _ = dense_oracle(coeffs.coef, basis, w.toarray())
        np.testing.assert_allclose(
            decomp.eigenvalues, ev_oracle[: decomp.n_components], atol=1e-8
        )

    def test_leading_criterion_is_maximal(self, basis):
        # random-direction search cannot beat the leading component by > 1e-3
        rng = np.random.default_rng(14)
        w = exponential_weights(15, 0.5)
        coeffs = centered_coeffs(rng.standard_normal((15, 8)), basis)
        decomp = fit_sfpc(coeffs, w)
        d = coeffs.coef @ scipy.linalg.sqrtm(basis.gram).real
        w_mat = w.toarray()
        top = np.abs(decomp.eigenvalues[0])
        best = 0.0
        for _ in range(2000):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            val = abs(v @ d.T @ w_mat @ d @ v) / coeffs.n
            best = max(best, val)
        assert best <= top + 1e-3

    def test_criterion_identity_variance_times_moran(self, basis):
        rng = np.random.default_rng(15)
        w = exponential_weights(12, 0.5)
        coeffs = centered_coeffs(rng.standard_normal((12, 8)), basis)
        decomp = fit_sfpc(coeffs, w)
        for k in range(decomp.n_components):
            s = decomp.scores[:, k]
            var = np.mean(s**2)
            crit = var * morans_i(s, w)
            assert crit == pytest.approx(decomp.eigenvalues[k], abs=1e-8)

    def test_dimension_mismatch_rejected(self, basis):
        rng = np.random.default_rng(16)
        coeffs = centered_coeffs(rng.standard_normal((12, 8)), basis)
        with pytest.raises(ParameterError):
            fit_sfpc(coeffs, exponential_weights(9, 0.5))

    def test_spatial_total_variance_matches_classical(self, basis):
        rng = np.random.default_rng(17)
        coeffs = centered_coeffs(rng.standard_normal((14, 8)), basis)
        classical = fit_fpc(coeffs)
        spatial = fit_sfpc(coeffs, exponential_weights(14, 0.5))
        assert classical.total_variance == pytest.approx(spatial.total_variance)
        # all-component score variances account for all of the variance
        assert np.sum(np.mean(spatial.scores**2, axis=0)) == pytest.approx(
            spatial.total_variance, rel=1e-10
        )

    def test_zero_weights_reduce_to_classical(self, basis):
        # an all-zero W makes every criterion eigenvalue tie, so the score
        # variance tie-break alone must reproduce the classical ordering
        rng = np.random.default_rng(3)
        coeffs = centered_coeffs(rng.standard_normal((14, 8)), basis)
        w0 = SpatialWeights(matrix=np.zeros((14, 14)))
        for threshold in (0.5, 0.9, 0.99):
            classical = fit_fpc(coeffs, variance_threshold=threshold)
            spatial = fit_sfpc(coeffs, w0, variance_threshold=threshold)
            assert spatial.kind == "spatial"
            assert spatial.n_components == classical.n_components
            for field in ("chi", "scores", "variance_explained"):
                np.testing.assert_allclose(
                    getattr(spatial, field), getattr(classical, field), rtol=0, atol=1e-12
                )


class TestChooseK:
    def test_single_component(self, basis):
        rng = np.random.default_rng(18)
        coeffs = centered_coeffs(np.outer(rng.standard_normal(10), np.ones(8)), basis)
        decomp = fit_fpc(coeffs)
        for threshold in (0.01, 0.5, 0.95, 1.0):
            assert choose_k(decomp, threshold) == 1

    def test_equal_variances_need_all(self):
        # four orthonormal-score components with equal variance: ceil rule
        basis = make_bspline_basis(5, 1)
        from sfofr.fpca import FpcDecomposition

        decomp = FpcDecomposition(
            kind="classical",
            chi=np.eye(5)[:, :4],
            eigenvalues=np.full(4, 2.0),
            scores=np.zeros((6, 4)),
            basis=basis,
            variance_explained=np.full(4, 0.25),
            total_variance=8.0,
        )
        assert choose_k(decomp, 0.95) == 4
        assert choose_k(decomp, 0.75) == 3
        assert choose_k(decomp, 0.5) == 2

    def test_matches_brute_force_shares(self, basis):
        rng = np.random.default_rng(19)
        coeffs = centered_coeffs(rng.standard_normal((30, 8)), basis)
        decomp = fit_fpc(coeffs)
        threshold = 0.95
        k = choose_k(decomp, threshold)
        shares = np.mean(decomp.scores**2, axis=0) / decomp.total_variance
        cum = np.cumsum(shares)
        brute = int(np.argmax(cum >= threshold - 1e-12)) + 1
        assert k == brute

    def test_monotone_in_threshold(self, basis):
        rng = np.random.default_rng(20)
        coeffs = centered_coeffs(rng.standard_normal((30, 8)), basis)
        for decomp in (fit_fpc(coeffs), fit_sfpc(coeffs, exponential_weights(30, 0.5))):
            ks = [choose_k(decomp, thr) for thr in (0.5, 0.8, 0.9, 0.95, 0.99, 1.0)]
            assert ks == sorted(ks)


class TestProjectReconstruct:
    def test_project_training_reproduces_scores_exactly(self, basis):
        rng = np.random.default_rng(21)
        coeffs = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_fpc(coeffs)
        np.testing.assert_array_equal(project(coeffs, decomp), decomp.scores)

    def test_zero_function_zero_scores(self, basis):
        coeffs = BasisCoefficients(coef=np.zeros((3, 8)), basis=basis)
        rng = np.random.default_rng(22)
        train = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_fpc(train)
        np.testing.assert_allclose(project(coeffs, decomp), 0.0)

    def test_eigenfunction_projects_to_unit_vector(self, basis):
        rng = np.random.default_rng(23)
        train = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_fpc(train).truncate(4)
        eta2 = BasisCoefficients(coef=decomp.chi[:, 1][None, :], basis=basis)
        scores = project(eta2, decomp)
        np.testing.assert_allclose(scores[0], np.eye(4)[1], atol=1e-8)

    def test_basis_mismatch_rejected(self, basis):
        rng = np.random.default_rng(24)
        train = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_fpc(train)
        other = make_bspline_basis(9, 3)
        coeffs = BasisCoefficients(coef=np.zeros((2, 9)), basis=other)
        with pytest.raises(ParameterError):
            project(coeffs, decomp)

    def test_zero_scores_zero_curves(self, basis):
        rng = np.random.default_rng(25)
        train = centered_coeffs(rng.standard_normal((10, 8)), basis)
        decomp = fit_fpc(train).truncate(3)
        out = reconstruct(np.zeros((4, 3)), decomp, np.linspace(0, 1, 11))
        np.testing.assert_allclose(out, 0.0)

    def test_truncation_error_equals_dropped_variance(self):
        # simulated smooth curves: L2 reconstruction error after truncation
        # equals the summed variances of the dropped components (within 5%)
        from sfofr import gen_predictors

        rng = np.random.default_rng(26)
        grid = np.linspace(0, 1, 101)
        data = gen_predictors(200, grid, rng)
        basis = make_bspline_basis(20, 3)
        centered, _ = center(data)
        coeffs = smooth_curves(centered, basis)
        decomp = fit_fpc(coeffs)
        k = 4
        truncated = decomp.truncate(k)
        fine = np.linspace(0, 1, 4001)
        w = trapezoid_weights(fine)
        recon = reconstruct(truncated.scores, truncated, fine)
        smoothed = coeffs.coef @ evaluate_basis(basis, fine).T
        err = np.mean(((smoothed - recon) ** 2) @ w)
        dropped = float(np.sum(decomp.eigenvalues[k:]))
        assert err == pytest.approx(dropped, rel=0.05)
