"""Tests for the end-to-end pipeline: surfaces, prediction, metrics."""

import dataclasses
import math

import numpy as np
import pytest

from sfofr import (
    BasisCoefficients,
    DomainError,
    FunctionalDataset,
    MsarFit,
    MsarParams,
    ParameterError,
    SpatialWeights,
    SurfaceEstimate,
    UndefinedStatisticError,
    compare_fits,
    contraction_diagnostic,
    evaluate_basis,
    exponential_weights,
    fit_fofr_fpc,
    fit_fpc,
    fit_sfofr,
    fit_sfpc,
    fitted_values,
    gen_predictors,
    gen_response,
    ise_surface,
    make_bspline_basis,
    mse_curves,
    predict,
    r_squared,
    reconstruct_beta,
    reconstruct_rho,
    reduced_form_solve,
    represent_response,
    spectral_radius,
    trapezoid_weights,
    true_rho,
)
from sfofr.fpca import reconstruct
from sfofr.pipeline import SfofrFit


def gauss_legendre_grid(basis):
    """Per-span Gauss-Legendre nodes/weights, exact for eigenfunction products."""
    spans = np.unique(basis.knots)
    nodes, weights = np.polynomial.legendre.leggauss(basis.degree + 1)
    xs, ws = [], []
    for a, b in zip(spans[:-1], spans[1:]):
        xs.append((b - a) / 2 * nodes + (a + b) / 2)
        ws.append((b - a) / 2 * weights)
    return np.concatenate(xs), np.concatenate(ws)


@pytest.fixture(scope="module")
def toy_fit():
    """Hand-assembled fit with 2 response and 3 predictor components."""
    rng = np.random.default_rng(42)
    basis = make_bspline_basis(8, 3)
    n = 12
    coef_y = rng.standard_normal((n, 8))
    coef_y -= coef_y.mean(axis=0)
    coef_x = rng.standard_normal((n, 8))
    coef_x -= coef_x.mean(axis=0)
    weights = exponential_weights(n, 0.5)
    y_decomp = fit_sfpc(BasisCoefficients(coef=coef_y, basis=basis), weights).truncate(2)
    x_decomp = fit_fpc(BasisCoefficients(coef=coef_x, basis=basis)).truncate(3)
    params = MsarParams(
        rho=np.array([[0.3, 0.1], [-0.05, 0.2]]),
        b=rng.standard_normal((3, 2)),
        prec_chol=np.eye(2),
    )
    msar = MsarFit(
        params=params, objective=0.0, grad_norm=0.0, iterations=1,
        converged=True, objective_trace=(), tolerance=1e-8,
    )
    grid = np.linspace(0, 1, 31)
    return SfofrFit(
        response_decomp=y_decomp,
        predictor_decomp=x_decomp,
        msar_fit=msar,
        y_mean=np.sin(np.pi * grid),
        x_mean=np.zeros(31),
        y_grid=grid,
        x_grid=grid,
        weights=weights,
        options={"ridge": 1e-8},
    )


def with_params(fit, rho, b):
    k_y = fit.k_y
    params = MsarParams(rho=rho, b=b, prec_chol=np.eye(k_y))
    msar = dataclasses.replace(fit.msar_fit, params=params)
    return dataclasses.replace(fit, msar_fit=msar)


class TestSurfaces:
    def test_zero_matrices_give_zero_surfaces(self, toy_fit):
        fit = with_params(toy_fit, np.zeros((2, 2)), np.zeros((3, 2)))
        assert np.all(reconstruct_rho(fit).values == 0)
        assert np.all(reconstruct_beta(fit).values == 0)

    def test_identity_rho_diagonal_integrals(self, toy_fit):
        # int int rho(u,t) phi_k(u) phi_k(t) du dt = 1 for rho = I
        fit = with_params(toy_fit, np.eye(2) * 0.5, np.zeros((3, 2)))
        nodes, weights = gauss_legendre_grid(fit.y_basis)
        surface = reconstruct_rho(fit, nodes, nodes)
        funcs = fit.response_decomp.eigenfunctions(nodes)
        for k in range(2):
            val = (funcs[:, k] * weights) @ surface.values @ (funcs[:, k] * weights)
            assert val == pytest.approx(0.5, abs=1e-10)

    def test_rank_one_beta_surface(self, toy_fit):
        b = np.zeros((3, 2))
        b[0, 0] = 1.0
        fit = with_params(toy_fit, np.zeros((2, 2)), b)
        grid = np.linspace(0, 1, 41)
        surface = reconstruct_beta(fit, grid, grid)
        psi1 = fit.predictor_decomp.eigenfunctions(grid)[:, 0]
        phi1 = fit.response_decomp.eigenfunctions(grid)[:, 0]
        np.testing.assert_allclose(surface.values, np.outer(psi1, phi1), atol=1e-12)

    def test_round_trip_projection_recovers_matrices(self, toy_fit):
        # Gauss-Legendre sampling makes the projection quadrature exact
        nodes, weights = gauss_legendre_grid(toy_fit.y_basis)
        rho_surface = reconstruct_rho(toy_fit, nodes, nodes)
        beta_surface = reconstruct_beta(toy_fit, nodes, nodes)
        funcs_y = toy_fit.response_decomp.eigenfunctions(nodes)
        funcs_x = toy_fit.predictor_decomp.eigenfunctions(nodes)
        rho_back = (funcs_y * weights[:, None]).T @ rho_surface.values @ (
            funcs_y * weights[:, None]
        )
        beta_back = (funcs_x * weights[:, None]).T @ beta_surface.values @ (
            funcs_y * weights[:, None]
        )
        np.testing.assert_allclose(rho_back, toy_fit.msar_fit.params.rho, atol=1e-8)
        np.testing.assert_allclose(beta_back, toy_fit.msar_fit.params.b, atol=1e-8)


class TestFittedAndPredict:
    def test_zero_model_returns_mean(self, toy_fit):
        fit = with_params(toy_fit, np.zeros((2, 2)), np.zeros((3, 2)))
        fitted = fitted_values(fit)
        np.testing.assert_allclose(
            fitted.values, np.tile(fit.y_mean, (12, 1)), atol=1e-12
        )

    def test_predict_training_equals_fitted_exactly(self):
        rng = np.random.default_rng(7)
        grid = np.arange(1, 42) / 41
        n = 40
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.5, rng, noise_sd=0.5)
        fit = fit_sfofr(y, x, w, options={"num_basis": 12})
        fitted = fitted_values(fit)
        pred = predict(fit, x, w)
        np.testing.assert_array_equal(fitted.values, pred.values)

    def test_zero_weights_reduce_to_nonspatial_prediction(self, toy_fit):
        rng = np.random.default_rng(8)
        fit = toy_fit
        n_new = 6
        grid = fit.x_grid
        # in-span curves so smoothing is exact
        coef = rng.standard_normal((n_new, 8))
        values = coef @ evaluate_basis(fit.x_basis, grid).T
        x_new = FunctionalDataset(grid=grid, values=values)
        w0 = SpatialWeights(matrix=np.zeros((n_new, n_new)))
        pred = predict(fit, x_new, w0)
        # oracle: project, multiply by B, reconstruct, add mean
        from sfofr.fpca import project
        from sfofr import smooth_curves

        coeffs = smooth_curves(x_new, fit.x_basis, 1e-8)
        scores = project(coeffs, fit.predictor_decomp)
        manual = reconstruct(
            scores @ fit.msar_fit.params.b, fit.response_decomp, fit.y_grid
        ) + fit.y_mean
        np.testing.assert_allclose(pred.values, manual, atol=1e-10)

    def test_fitted_values_solve_matches_dense_oracle(self, toy_fit):
        rho = toy_fit.msar_fit.params.rho
        scores = toy_fit.predictor_decomp.scores @ toy_fit.msar_fit.params.b
        n, k_y = scores.shape
        s = np.eye(n * k_y) - np.kron(rho.T, toy_fit.weights.toarray())
        expected = np.linalg.solve(s, scores.ravel(order="F")).reshape(
            n, k_y, order="F"
        )
        np.testing.assert_allclose(
            reduced_form_solve(rho, toy_fit.weights, scores), expected, atol=1e-8
        )

    def test_closed_loop_noiseless_recovery(self, toy_fit):
        # response generated exactly from the score-space model with zero
        # error scores: refitting end to end reproduces the observations.
        # The weight matrix must be doubly stochastic so the synthetic scores
        # stay exactly mean-centered (1'W = 1'), keeping the centered refit
        # consistent with the generating model.
        grid = toy_fit.y_grid
        n = 12
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i - 1) % n] = 0.5
            ring[i, (i + 1) % n] = 0.5
        w_ring = SpatialWeights(matrix=ring, normalized=True)
        fit = dataclasses.replace(toy_fit, weights=w_ring)
        x_values = (
            fit.predictor_decomp.scores
            @ fit.predictor_decomp.eigenfunctions(grid).T
        )
        x_data = FunctionalDataset(grid=grid, values=x_values)
        y_synth = fitted_values(fit)
        fit2 = fit_sfofr(
            y_synth, x_data, w_ring,
            options={"num_basis": 8, "var_threshold": 0.999999},
        )
        refitted = fitted_values(fit2)
        assert mse_curves(refitted, y_synth) <= 1e-4

    def test_grid_mismatch_rejected(self, toy_fit):
        x_new = FunctionalDataset(
            grid=np.linspace(0, 1, 17), values=np.zeros((3, 17))
        )
        with pytest.raises(ParameterError):
            predict(toy_fit, x_new, SpatialWeights(matrix=np.zeros((3, 3))))

    def test_stage_labels_on_component_errors(self):
        rng = np.random.default_rng(30)
        grid = np.linspace(0, 1, 12)  # too few points for a 20-function basis
        y = FunctionalDataset(grid=grid, values=rng.standard_normal((8, 12)))
        x = FunctionalDataset(grid=grid, values=rng.standard_normal((8, 12)))
        w = exponential_weights(8, 0.5)
        with pytest.raises(ParameterError, match="response smoothing"):
            fit_sfofr(y, x, w)


class TestContractionDiagnostic:
    @staticmethod
    def surface(alpha, m=2001):
        grid = np.linspace(0, 1, m)
        return SurfaceEstimate(
            ugrid=grid, tgrid=grid,
            values=true_rho(grid[:, None], grid[None, :], alpha), kind="rho",
        )

    def test_weak_dependence_strict_condition_holds(self):
        w = exponential_weights(20, 0.5)
        diag = contraction_diagnostic(self.surface(0.1), w)
        assert diag["sup_kernel"] == pytest.approx(0.2, abs=1e-12)
        assert diag["w_inf"] == pytest.approx(1.0)
        assert diag["strict_condition_ok"] and diag["weak_condition_ok"]

    def test_strong_dependence_weak_condition_only(self):
        # sup = 1.8 fails the strict test; the L1 operator bound stays below 1
        w = exponential_weights(20, 0.5)
        surface = self.surface(0.9)
        diag = contraction_diagnostic(surface, w)
        assert diag["sup_kernel"] == pytest.approx(1.8, abs=1e-12)
        # analytic check at t = 1: int_0^1 0.9 (1+u)/(2-u) du = 0.9 (3 ln 2 - 1)
        w_u = trapezoid_weights(surface.ugrid)
        at_t1 = float(w_u @ np.abs(surface.values[:, -1]))
        assert at_t1 == pytest.approx(0.9 * (3 * math.log(2.0) - 1.0), abs=1e-4)
        # the supremum over t sits near t ~ 0.85, just under 1
        assert at_t1 <= diag["l1_operator_bound"] < 1.0
        assert not diag["strict_condition_ok"]
        assert diag["weak_condition_ok"]

    def test_zero_surface(self):
        grid = np.linspace(0, 1, 11)
        zero = SurfaceEstimate(
            ugrid=grid, tgrid=grid, values=np.zeros((11, 11)), kind="rho"
        )
        diag = contraction_diagnostic(zero, exponential_weights(5, 0.5))
        assert diag["sup_kernel"] == 0.0
        assert diag["l1_operator_bound"] == 0.0


class TestMetrics:
    @pytest.mark.parametrize(
        "bad, error",
        [
            ([0, np.nan, 1], DomainError),
            ([0, 1, 0.5], ParameterError),  # ise_surface read this as ISE 0.25 of a unit gap
            ([0, 0.5, 0.5, 1], ParameterError),
        ],
    )
    @pytest.mark.parametrize("axis", ["ugrid", "tgrid"])
    def test_surface_grids_must_be_finite_and_increasing(self, bad, error, axis):
        grids = {"ugrid": np.linspace(0, 1, len(bad)), "tgrid": np.linspace(0, 1, len(bad))}
        grids[axis] = np.array(bad, dtype=float)
        with pytest.raises(error, match="grid"):
            SurfaceEstimate(**grids, values=np.ones((len(bad), len(bad))))

    def test_ise_identity_and_constant(self):
        grid = np.linspace(0, 1, 101)
        vals = np.sin(np.outer(grid, grid))
        a = SurfaceEstimate(ugrid=grid, tgrid=grid, values=vals, kind="beta")
        b = SurfaceEstimate(ugrid=grid, tgrid=grid, values=vals + 2.5, kind="beta")
        assert ise_surface(a, a) == 0.0
        assert ise_surface(b, a) == pytest.approx(2.5**2, rel=1e-12)

    def test_ise_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(10)

        def smooth_random_surface(grid):
            u, t = np.meshgrid(grid, grid, indexing="ij")
            out = np.zeros_like(u)
            for k in range(1, 4):
                out += rng.standard_normal() * np.sin(k * np.pi * u) * np.cos(
                    k * np.pi * t
                )
            return out

        coarse = np.linspace(0, 1, 101)
        state = rng.bit_generator.state
        est_c = smooth_random_surface(coarse)
        rng.bit_generator.state = state
        amp = np.array([rng.standard_normal() for _ in range(3)])  # the same draws
        a_c = SurfaceEstimate(ugrid=coarse, tgrid=coarse, values=est_c, kind="beta")
        zero_c = SurfaceEstimate(
            ugrid=coarse, tgrid=coarse, values=np.zeros_like(est_c), kind="beta"
        )
        coarse_val = ise_surface(a_c, zero_c)
        # the surface is separable, sum_k amp_k sin(k pi u) cos(k pi t), so its
        # trapezoid integral on the 10001-point grid is amp' [(S w S') * (C w C')] amp
        fine = np.linspace(0, 1, 10_001)
        w = trapezoid_weights(fine)
        k_pi = np.pi * np.arange(1, 4)[:, None]
        sines, cosines = np.sin(k_pi * fine), np.cos(k_pi * fine)
        gram = ((sines * w) @ sines.T) * ((cosines * w) @ cosines.T)
        fine_val = float(amp @ gram @ amp)
        assert coarse_val == pytest.approx(fine_val, rel=1e-4)

    def test_ise_grid_mismatch_rejected(self):
        g1, g2 = np.linspace(0, 1, 11), np.linspace(0, 1, 12)
        a = SurfaceEstimate(ugrid=g1, tgrid=g1, values=np.zeros((11, 11)))
        b = SurfaceEstimate(ugrid=g2, tgrid=g2, values=np.zeros((12, 12)))
        with pytest.raises(ParameterError):
            ise_surface(a, b)

    def test_mse_identities(self):
        grid = np.linspace(0, 1, 51)
        rng = np.random.default_rng(11)
        obs = FunctionalDataset(grid=grid, values=rng.standard_normal((6, 51)))
        same = FunctionalDataset(grid=grid, values=obs.values.copy())
        shifted = FunctionalDataset(grid=grid, values=obs.values + 1.0)
        assert mse_curves(same, obs) == 0.0
        assert mse_curves(shifted, obs) == pytest.approx(1.0, rel=1e-12)

    def test_mse_matches_per_unit_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        grid = np.sort(rng.uniform(0, 1, 40))
        grid[0], grid[-1] = 0.0, 1.0
        pred = FunctionalDataset(grid=grid, values=rng.standard_normal((5, 40)))
        obs = FunctionalDataset(grid=grid, values=rng.standard_normal((5, 40)))
        per_unit = [
            np.trapezoid((pred.values[i] - obs.values[i]) ** 2, grid) for i in range(5)
        ]
        assert mse_curves(pred, obs) == pytest.approx(np.mean(per_unit), abs=1e-10)

    def test_r_squared_identities(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0, 1, 31)
        obs = FunctionalDataset(grid=grid, values=rng.standard_normal((7, 31)))
        perfect = FunctionalDataset(grid=grid, values=obs.values.copy())
        assert r_squared(perfect, obs) == pytest.approx(1.0)
        mean_pred = FunctionalDataset(
            grid=grid, values=np.tile(obs.values.mean(axis=0), (7, 1))
        )
        assert r_squared(mean_pred, obs) == pytest.approx(0.0, abs=1e-12)

    def test_r_squared_matches_brute_force(self):
        rng = np.random.default_rng(14)
        grid = np.linspace(0, 1, 41)
        obs = FunctionalDataset(grid=grid, values=rng.standard_normal((6, 41)))
        pred = FunctionalDataset(grid=grid, values=rng.standard_normal((6, 41)))
        num = sum(
            np.trapezoid((obs.values[i] - pred.values[i]) ** 2, grid) for i in range(6)
        )
        mean_curve = obs.values.mean(axis=0)
        den = sum(
            np.trapezoid((obs.values[i] - mean_curve) ** 2, grid) for i in range(6)
        )
        assert r_squared(pred, obs) == pytest.approx(1 - num / den, abs=1e-10)
        assert r_squared(pred, obs) <= 1.0

    def test_r_squared_zero_variation_rejected(self):
        grid = np.linspace(0, 1, 11)
        obs = FunctionalDataset(grid=grid, values=np.ones((3, 11)))
        pred = FunctionalDataset(grid=grid, values=np.zeros((3, 11)))
        with pytest.raises(UndefinedStatisticError):
            r_squared(pred, obs)


class TestStatisticalBehavior:
    def test_no_spatial_signal_gives_small_rho(self):
        rng = np.random.default_rng(77)
        grid = np.arange(1, 102) / 101
        n = 250
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.0, rng)
        fit = fit_sfofr(y, x, w)
        assert spectral_radius(fit.msar_fit.params.rho) < 0.15

    def test_strong_dependence_single_replication(self):
        from sfofr import SimConfig, run_replication

        cfg = SimConfig(
            n_train=250, n_test=250, alpha=0.9, weight_kind="exponential", seed=205,
        )
        metrics = run_replication(cfg)
        assert 0.01 <= metrics["sfofr"]["ise_rho"] <= 0.06
        assert metrics["sfofr"]["mspe"] < 0.5
        assert metrics["fpc"]["mspe"] > 3.0

    def test_baseline_nesting_with_zero_weights(self):
        rng = np.random.default_rng(15)
        grid = np.arange(1, 62) / 61
        n = 80
        w_real = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w_real, 0.0, rng)  # no spatial signal
        w0 = SpatialWeights(matrix=np.zeros((n, n)))
        x_test = gen_predictors(n, grid, rng)
        y_test = gen_response(x_test, w_real, 0.0, rng)
        spatial_fit = fit_sfofr(y, x, w0)
        base_fit = fit_fofr_fpc(y, x)
        mspe_spatial = mse_curves(predict(spatial_fit, x_test, w0), y_test)
        mspe_base = mse_curves(predict(base_fit, x_test, w0), y_test)
        assert mspe_spatial == pytest.approx(mspe_base, rel=0.05)
        # with W = 0 spatial FPCA is classical FPCA: same K_y, same components
        spatial_y, base_y = spatial_fit.response_decomp, base_fit.response_decomp
        assert spatial_y.n_components == base_y.n_components
        np.testing.assert_allclose(spatial_y.chi, base_y.chi, rtol=0, atol=1e-10)

    def test_baseline_objective_is_residual_sum_of_squares(self):
        rng = np.random.default_rng(15)
        grid = np.arange(1, 62) / 61
        w = exponential_weights(60, 0.5)
        x = gen_predictors(60, grid, rng)
        y = gen_response(x, w, 0.5, rng)
        fit = fit_fofr_fpc(y, x)
        y_scores, x_scores = fit.response_decomp.scores, fit.predictor_decomp.scores
        resid = y_scores - x_scores @ fit.msar_fit.params.b
        assert fit.msar_fit.objective == float(np.sum(resid**2))

    def test_refit_is_bit_identical(self):
        rng = np.random.default_rng(16)
        grid = np.arange(1, 42) / 41
        n = 40
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.5, rng)
        fit_a = fit_sfofr(y, x, w, options={"num_basis": 12})
        fit_b = fit_sfofr(y, x, w, options={"num_basis": 12})
        np.testing.assert_array_equal(fit_a.msar_fit.params.rho, fit_b.msar_fit.params.rho)
        np.testing.assert_array_equal(fit_a.msar_fit.params.b, fit_b.msar_fit.params.b)
        np.testing.assert_array_equal(
            fitted_values(fit_a).values, fitted_values(fit_b).values
        )

    def test_unconverged_fit_warns_at_caller(self):
        rng = np.random.default_rng(16)
        grid = np.arange(1, 42) / 41
        w = exponential_weights(40, 0.5)
        x = gen_predictors(40, grid, rng)
        y = gen_response(x, w, 0.5, rng)
        with pytest.warns(UserWarning, match="did not converge: max_iter reached") as record:
            fit = fit_sfofr(y, x, w, options={"num_basis": 12, "msar_max_iter": 1})
        assert not fit.msar_fit.converged
        assert [r.filename for r in record] == [__file__]

    def test_variance_threshold_monotone_in_components(self):
        rng = np.random.default_rng(17)
        grid = np.arange(1, 42) / 41
        n = 50
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.5, rng)
        k_ys, k_xs = [], []
        for threshold in (0.8, 0.95, 0.99):
            fit = fit_sfofr(
                y, x, w, options={"num_basis": 12, "var_threshold": threshold}
            )
            k_ys.append(fit.k_y)
            k_xs.append(fit.k_x)
        assert k_ys == sorted(k_ys)
        assert k_xs == sorted(k_xs)


class TestCompareFits:
    @staticmethod
    def train_and_test():
        """A small design (seed 32) whose spatial fit converges with K_y = 2."""
        rng = np.random.default_rng(32)
        grid = np.arange(1, 42) / 41
        out = []
        for n in (60, 40):
            w = exponential_weights(n, 0.5)
            x = gen_predictors(n, grid, rng)
            out += [gen_response(x, w, 0.5, rng), x, w]
        return out

    def test_matches_public_calls_bit_for_bit(self):
        y, x, w, y_test, x_test, w_test = self.train_and_test()
        options = {"num_basis": 12}
        got = compare_fits(y, x, w, y_test, x_test, w_test, options)
        public = {"sfofr": fit_sfofr(y, x, w, options), "fpc": fit_fofr_fpc(y, x, options)}
        assert list(got) == list(public) and got["sfofr"]["fit"].k_y == 2
        for method, fit in public.items():
            mse = mse_curves(fitted_values(fit), represent_response(fit, y))
            mspe = mse_curves(predict(fit, x_test, w_test), represent_response(fit, y_test))
            assert (got[method]["mse"].hex(), got[method]["mspe"].hex()) == (mse.hex(), mspe.hex())
            mine = got[method]["fit"]
            for part in ("rho", "b", "prec_chol"):
                np.testing.assert_array_equal(
                    getattr(mine.msar_fit.params, part), getattr(fit.msar_fit.params, part)
                )
            np.testing.assert_array_equal(mine.response_decomp.chi, fit.response_decomp.chi)
            np.testing.assert_array_equal(mine.weights.toarray(), fit.weights.toarray())
            assert mine.msar_fit.message == fit.msar_fit.message

    def test_unconverged_fit_warns_at_caller(self):
        y, x, w, y_test, x_test, w_test = self.train_and_test()
        with pytest.warns(UserWarning, match="did not converge: max_iter reached") as record:
            compare_fits(y, x, w, y_test, x_test, w_test, {"num_basis": 12, "msar_max_iter": 1})
        assert [r.filename for r in record] == [__file__]
