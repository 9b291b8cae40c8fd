"""Tests for B-spline bases, Gram matrices, smoothing, and centering."""

import numpy as np
import pytest

from sfofr import (
    BasisCoefficients,
    DomainError,
    FunctionalDataset,
    ParameterError,
    SingularityError,
    center,
    evaluate_basis,
    make_bspline_basis,
    smooth_curves,
    smoothing_residual_rms,
    trapezoid_weights,
)


def gram_trapezoid_oracle(basis, n_points=100_001):
    """Brute-force Gram matrix by high-resolution trapezoid quadrature.

    The trapezoid rule's own error is O(h^2); 1e4 points leave ~3.5e-8 of
    discretization error on cubic products, so the grid is densified until the
    oracle itself is well below the 1e-8 comparison tolerance.
    """
    grid = np.linspace(0.0, 1.0, n_points)
    phi = evaluate_basis(basis, grid)
    w = trapezoid_weights(grid)
    return phi.T @ (w[:, None] * phi)


class TestMakeBasis:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            make_bspline_basis(10, 0)
        with pytest.raises(ParameterError):
            make_bspline_basis(3, 3)
        with pytest.raises(ParameterError):
            make_bspline_basis(10, -1)

    @pytest.mark.parametrize(
        "num_basis, degree, named",
        [
            (np.nan, 3, "num_basis must be an integer >= 4, got nan"),
            (8, np.inf, "degree must be an integer >= 1, got inf"),
            (8.5, 3, "num_basis must be an integer >= 4, got 8.5"),
            ("8", 3, "num_basis must be an integer >= 4, got '8'"),
        ],
    )
    def test_rejects_sizes_that_are_not_whole_numbers(self, num_basis, degree, named):
        with pytest.raises(ParameterError, match=named):
            make_bspline_basis(num_basis, degree)

    def test_integral_float_sizes_give_the_int_basis(self):
        assert make_bspline_basis(8.0, 3.0) is make_bspline_basis(8, 3)

    def test_degree_one_gram_analytic(self):
        # two hat functions 1 - t and t on [0, 1]:
        # int (1-t)^2 = 1/3, int t(1-t) = 1/6, int t^2 = 1/3
        basis = make_bspline_basis(2, 1)
        expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        np.testing.assert_allclose(basis.gram, expected, atol=1e-14)

    def test_halved_support_gram_analytic(self):
        # three hats with knots {0, 1/2, 1}: diagonal (1/6, 1/3, 1/6),
        # neighbor overlap h/6 = 1/12 for half-width h = 1/2
        basis = make_bspline_basis(3, 1)
        expected = np.array(
            [
                [1 / 6, 1 / 12, 0.0],
                [1 / 12, 1 / 3, 1 / 12],
                [0.0, 1 / 12, 1 / 6],
            ]
        )
        np.testing.assert_allclose(basis.gram, expected, atol=1e-14)

    @pytest.mark.parametrize("num_basis,degree", [(10, 3), (5, 2), (20, 3), (7, 4)])
    def test_gram_matches_quadrature_oracle(self, num_basis, degree):
        basis = make_bspline_basis(num_basis, degree)
        oracle = gram_trapezoid_oracle(basis)
        assert np.max(np.abs(basis.gram - oracle)) < 1e-8

    def test_gram_exactly_symmetric(self):
        basis = make_bspline_basis(12, 3)
        assert np.max(np.abs(basis.gram - basis.gram.T)) == 0.0

    @pytest.mark.parametrize("num_basis,degree", [(4, 2), (10, 3), (25, 3)])
    def test_gram_positive_definite(self, num_basis, degree):
        basis = make_bspline_basis(num_basis, degree)
        assert np.linalg.eigvalsh(basis.gram).min() > 0

    def test_gram_bandwidth(self):
        # basis functions i, j with |i - j| > degree have disjoint supports
        basis = make_bspline_basis(10, 3)
        for i in range(10):
            for j in range(10):
                if abs(i - j) > 3:
                    assert basis.gram[i, j] == 0.0


class TestEvaluateBasis:
    def test_clamped_endpoints(self):
        basis = make_bspline_basis(8, 3)
        at0 = evaluate_basis(basis, [0.0])[0]
        at1 = evaluate_basis(basis, [1.0])[0]
        np.testing.assert_allclose(at0, np.eye(8)[0], atol=1e-14)
        np.testing.assert_allclose(at1, np.eye(8)[-1], atol=1e-14)

    def test_partition_of_unity(self):
        basis = make_bspline_basis(20, 3)
        grid = np.linspace(0, 1, 101)
        rows = evaluate_basis(basis, grid)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)
        assert abs(evaluate_basis(basis, [0.37]).sum() - 1.0) < 1e-10

    def test_nonnegative(self):
        basis = make_bspline_basis(15, 3)
        rows = evaluate_basis(basis, np.linspace(0, 1, 200))
        assert rows.min() >= 0

    def test_rejects_outside_domain(self):
        basis = make_bspline_basis(8, 3)
        with pytest.raises(DomainError):
            evaluate_basis(basis, [-0.1])
        with pytest.raises(DomainError):
            evaluate_basis(basis, [0.5, 1.2])


def _gauss_legendre_nodes(basis):
    """The Gram matrix's quadrature nodes: degree + 1 per knot span."""
    nodes, _ = np.polynomial.legendre.leggauss(basis.degree + 1)
    spans = np.unique(basis.knots)
    half = (spans[1:] - spans[:-1])[:, None] / 2
    return (half * nodes + (spans[:-1] + spans[1:])[:, None] / 2).ravel()


class TestDesignMatrix:
    """The Cox-de Boor design matrix against scipy's BSpline as the oracle."""

    @pytest.mark.parametrize(
        "num_basis,degree", [(20, 3), (8, 3), (12, 2), (30, 5), (4, 3), (5, 1), (10, 4)]
    )
    def test_bit_identical_to_scipy(self, num_basis, degree):
        from scipy.interpolate import BSpline

        basis = make_bspline_basis(num_basis, degree)
        point_sets = [
            np.arange(1, 102) / 101,
            np.linspace(0.0, 1.0, 1001),
            np.array([0.0, 0.5, 1.0]),
            _gauss_legendre_nodes(basis),
            np.random.default_rng(num_basis * 10 + degree).uniform(0.0, 1.0, 500),
        ]
        for points in point_sets:
            ours = evaluate_basis(basis, points)
            oracle = BSpline.design_matrix(points, basis.knots, degree).toarray()
            assert ours.shape == oracle.shape
            assert ours.tobytes() == oracle.tobytes()


class TestDesignMatrixCache:
    GRID = np.arange(1, 102) / 101

    def test_read_only_and_equal_to_uncached(self):
        from sfofr.fdbasis import _design_matrix

        basis = make_bspline_basis(20, 3)
        phi = evaluate_basis(basis, self.GRID)
        assert phi.tobytes() == _design_matrix(basis.knots, 3, self.GRID).tobytes()
        assert evaluate_basis(basis, list(self.GRID)) is phi
        with pytest.raises(ValueError, match="read-only"):
            phi[0, 0] = 1.0

    def test_bases_and_grids_do_not_collide(self):
        from sfofr.fdbasis import _design_matrix

        other_grid = np.linspace(0.0, 1.0, 101)
        cases = [(20, 3, self.GRID), (12, 3, self.GRID), (20, 2, self.GRID), (20, 3, other_grid)]
        bases = [(make_bspline_basis(num_basis, degree), grid) for num_basis, degree, grid in cases]
        for basis, grid in bases:
            evaluate_basis(basis, grid)
        for basis, grid in bases:
            expected = _design_matrix(basis.knots, basis.degree, grid)
            assert evaluate_basis(basis, grid).tobytes() == expected.tobytes()


    def test_basis_cached_read_only_and_equal_to_uncached(self):
        from sfofr.fdbasis import _bspline_basis

        basis = make_bspline_basis(20, 3)
        assert make_bspline_basis(20.0, 3) is basis
        fresh = _bspline_basis.__wrapped__(20, 3)
        assert basis.gram.tobytes() == fresh.gram.tobytes()
        assert basis.gram_sqrt.tobytes() == fresh.gram_sqrt.tobytes()
        for a in (basis.knots, basis.gram, basis.gram_sqrt, basis.gram_inv_sqrt):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestSmoothCurves:
    def test_recovers_in_span_curves(self):
        rng = np.random.default_rng(11)
        basis = make_bspline_basis(10, 3)
        coef_true = rng.standard_normal((5, 10))
        grid = np.linspace(0, 1, 60)
        values = coef_true @ evaluate_basis(basis, grid).T
        data = FunctionalDataset(grid=grid, values=values)
        coeffs = smooth_curves(data, basis, ridge=0.0)
        np.testing.assert_allclose(coeffs.coef, coef_true, atol=1e-8)

    def test_constant_curve_reproduced(self):
        basis = make_bspline_basis(12, 3)
        grid = np.linspace(0, 1, 40)
        data = FunctionalDataset(grid=grid, values=np.full((2, 40), 3.5))
        coeffs = smooth_curves(data, basis, ridge=0.0)
        recon = coeffs.coef @ evaluate_basis(basis, grid).T
        np.testing.assert_allclose(recon, 3.5, atol=1e-10)

    def test_noisy_sine_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0, 1, 101)
        noise_sd = 0.3
        values = np.sin(2 * np.pi * grid) + noise_sd * rng.standard_normal((4, 101))
        data = FunctionalDataset(grid=grid, values=values)
        basis = make_bspline_basis(15, 3)
        coeffs = smooth_curves(data, basis, ridge=0.0)
        rms = smoothing_residual_rms(data, coeffs)
        # the residual keeps most of the noise: about (1 - L/T) of its variance
        assert np.all(rms < noise_sd)
        assert np.all(rms > 0.8 * noise_sd * np.sqrt(1 - basis.num_basis / grid.size))
        # oracle: direct normal-equation solve
        phi = evaluate_basis(basis, grid)
        oracle = np.linalg.solve(phi.T @ phi, phi.T @ values.T).T
        np.testing.assert_allclose(coeffs.coef, oracle, atol=1e-8)

    def test_residual_rms_reported(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, 50)
        data = FunctionalDataset(grid=grid, values=rng.standard_normal((3, 50)))
        basis = make_bspline_basis(8, 3)
        coeffs = smooth_curves(data, basis)
        recon = coeffs.coef @ evaluate_basis(basis, grid).T
        rms = np.sqrt(np.mean((data.values - recon) ** 2, axis=1))
        np.testing.assert_allclose(smoothing_residual_rms(data, coeffs), rms, rtol=1e-12)
        # smoothing leaves the stored field at its default, as it does mean_coeff
        assert np.all(coeffs.residual_rms == 0)

    def test_singular_design_raises_with_advice(self):
        # all samples in [0, 0.3]: right-side basis functions vanish everywhere
        grid = np.linspace(0, 0.3, 12)
        data = FunctionalDataset(grid=grid, values=np.ones((2, 12)))
        basis = make_bspline_basis(10, 3)
        with pytest.raises(SingularityError, match="ridge"):
            smooth_curves(data, basis, ridge=0.0)
        smooth_curves(data, basis, ridge=1e-8)  # regularized fit succeeds

    def test_basis_larger_than_grid_rejected(self):
        grid = np.linspace(0, 1, 10)
        data = FunctionalDataset(grid=grid, values=np.zeros((2, 10)))
        with pytest.raises(ParameterError):
            smooth_curves(data, make_bspline_basis(20, 3))

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1e-8, "1e-8", None, np.array([1e-8])])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        data = FunctionalDataset(grid=np.linspace(0, 1, 30), values=np.ones((2, 30)))
        with pytest.raises(ParameterError, match="ridge must be finite and >= 0"):
            smooth_curves(data, make_bspline_basis(10, 3), ridge=ridge)


class TestCenter:
    def test_antisymmetric_pair_unchanged(self):
        grid = np.linspace(0, 1, 20)
        f = np.sin(np.pi * grid)
        data = FunctionalDataset(grid=grid, values=np.vstack([f, -f]))
        centered, mean_curve = center(data)
        np.testing.assert_allclose(mean_curve, 0.0, atol=1e-15)
        np.testing.assert_allclose(centered.values, data.values, atol=1e-15)

    def test_identical_pair_zeroed(self):
        grid = np.linspace(0, 1, 20)
        f = np.cos(np.pi * grid)
        data = FunctionalDataset(grid=grid, values=np.vstack([f, f]))
        centered, mean_curve = center(data)
        np.testing.assert_allclose(centered.values, 0.0, atol=1e-15)
        np.testing.assert_allclose(mean_curve, f, atol=1e-15)

    def test_random_column_means_vanish(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(0, 1, 30)
        data = FunctionalDataset(grid=grid, values=rng.standard_normal((5, 30)) + 2.0)
        centered, mean_curve = center(data)
        # oracle: recompute column means directly
        assert np.max(np.abs(centered.values.mean(axis=0))) < 1e-12
        np.testing.assert_allclose(mean_curve, data.values.mean(axis=0), rtol=1e-15)


class TestFunctionalDataset:
    def test_invariants_enforced(self):
        good_grid = np.linspace(0, 1, 10)
        with pytest.raises(ParameterError):
            FunctionalDataset(grid=good_grid[::-1], values=np.zeros((2, 10)))
        with pytest.raises(DomainError):
            FunctionalDataset(grid=good_grid + 0.5, values=np.zeros((2, 10)))
        with pytest.raises(ParameterError):
            FunctionalDataset(grid=good_grid, values=np.zeros((1, 10)))
        with pytest.raises(ParameterError):
            FunctionalDataset(grid=np.array([0.0, 0.5, 1.0]), values=np.zeros((2, 3)))
        bad = np.zeros((2, 10))
        bad[0, 3] = np.nan
        with pytest.raises(ParameterError):
            FunctionalDataset(grid=good_grid, values=bad)
        with pytest.raises(ParameterError):
            FunctionalDataset(grid=good_grid, values=np.zeros((2, 10)), ids=["a"])

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_grid_point_rejected(self, where):
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        grid[where] = np.nan
        with pytest.raises(DomainError, match=f"point {where} is nan"):
            FunctionalDataset(grid=grid, values=np.zeros((2, 5)))

    def test_reconstruction_bound_by_reported_residual(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0, 1, 80)
        data = FunctionalDataset(grid=grid, values=rng.standard_normal((6, 80)))
        basis = make_bspline_basis(12, 3)
        coeffs = smooth_curves(data, basis, ridge=0.0)
        rms = smoothing_residual_rms(data, coeffs)
        # least squares: any other coefficients reconstruct each curve worse
        for _ in range(5):
            moved = BasisCoefficients(
                coef=coeffs.coef + 1e-3 * rng.standard_normal(coeffs.coef.shape), basis=basis
            )
            assert np.all(rms < smoothing_residual_rms(data, moved))
