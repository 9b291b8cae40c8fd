"""Tests for the simulation-study data generator and harness."""

import numpy as np
import pytest
import scipy.sparse as sp

from sfofr import (
    DivergenceError,
    GenerationError,
    ParameterError,
    SimConfig,
    SpatialWeights,
    exponential_weights,
    fit_fofr_fpc,
    fit_sfofr,
    fitted_values,
    gen_predictors,
    gen_response,
    generate,
    inverse_distance_weights,
    ise_surface,
    mse_curves,
    predict,
    reconstruct_beta,
    reconstruct_rho,
    represent_response,
    run_replication,
    trapezoid_weights,
    true_beta,
    true_rho,
)
from sfofr import simgen, spatial
from sfofr.msar import reduced_form_solve
from sfofr.simgen import replication_rng


class ZeroStream:
    """Fake generator that forces every normal draw to zero."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0


GRID = np.arange(1, 102) / 101


class TestTrueSurfaces:
    def test_beta_at_origin(self):
        assert true_beta(0.0, 0.0) == 2.0

    def test_beta_known_points(self):
        assert true_beta(1.0, 1.0) == pytest.approx(4.0 + 0.5 * np.sin(2 * np.pi))
        assert true_beta(0.5, 0.5) == pytest.approx(3.0 + 0.5 * np.sin(np.pi / 2))

    def test_rho_corner_value(self):
        # 0.9 * (1 + 1) / (1 + 0) = 1.8
        assert true_rho(1.0, 1.0, 0.9) == pytest.approx(1.8)

    def test_rho_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, t = rng.uniform(0, 1, 2)
            assert true_rho(u, t, 0.5) == pytest.approx(true_rho(t, u, 0.5))

    def test_vectorized_evaluation(self):
        grid = np.linspace(0, 1, 11)
        mat = true_rho(grid[:, None], grid[None, :], 0.3)
        assert mat.shape == (11, 11)
        assert mat[3, 7] == pytest.approx(true_rho(grid[3], grid[7], 0.3))


class TestGenPredictors:
    def test_zero_stream_gives_zero_curves(self):
        data = gen_predictors(5, GRID, ZeroStream())
        assert np.all(data.values == 0.0)

    def test_pointwise_variance_matches_analytic(self):
        # Var X(s) = 2 sum_k k^-3 at every s (cos^2 + sin^2 collapses)
        rng = np.random.default_rng(99)
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        data = gen_predictors(100_000, grid, rng)
        analytic = 2.0 * np.sum(np.arange(1, 11) ** -3.0)
        sample = data.values.var(axis=0)
        np.testing.assert_allclose(sample, analytic, rtol=0.02)

    def test_seed_determinism(self):
        a = gen_predictors(10, GRID, np.random.default_rng(5))
        b = gen_predictors(10, GRID, np.random.default_rng(5))
        np.testing.assert_array_equal(a.values, b.values)


def dense_mixing_solve(x_data, weights, alpha, g):
    """Oracle: solve the discretized (I - T) system densely on the nT grid."""
    grid = x_data.grid
    w_quad = trapezoid_weights(grid)
    rho_quad = w_quad[:, None] * true_rho(grid[:, None], grid[None, :], alpha)
    t_op = np.kron(rho_quad.T, weights.toarray())
    n, m = g.shape
    yvec = np.linalg.solve(np.eye(n * m) - t_op, g.ravel(order="F"))
    return yvec.reshape(n, m, order="F")


def regression_signal(x_data):
    """G without noise: the trapezoid integral of x(s) beta(s, t)."""
    grid = x_data.grid
    beta_mat = true_beta(grid[:, None], grid[None, :])
    return (x_data.values * trapezoid_weights(grid)) @ beta_mat


def dense_custom_weights(n, rng):
    """Row-normalized asymmetric random W: dense, with no balance vector."""
    mat = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(mat, 0.0)
    w = SpatialWeights(matrix=mat / mat.sum(axis=1, keepdims=True), normalized=True)
    assert w.balance is None and not sp.issparse(w.matrix)
    return w


def ring_weights(n, rng):
    """Each unit's two ring neighbours and one skip: CSR, with no balance vector."""
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, [(i + 1) % n, (i - 1) % n, (i + 3) % n]] = 1.0 / 3
    w = SpatialWeights(matrix=mat, normalized=True)
    assert w.balance is None and sp.issparse(w.matrix)
    return w


# (n, grid, weights builder): the lattice solve, unequal trapezoid weights
# (a grid whose squared spacing makes R = D_w K far from symmetric), and the
# real shifted-LU solve of a W with no balance vector, dense and CSR; n x 31
# grids keep the nT x nT oracle tractable
ORACLE_CASES = {
    "inverse-lattice": (7, GRID, lambda n, rng: inverse_distance_weights(n)),
    "nonuniform-grid": (8, np.linspace(0.0, 1.0, 41) ** 2, lambda n, rng: exponential_weights(n, 0.5)),
    "dense-no-balance": (40, np.arange(1, 32) / 31, dense_custom_weights),
    "csr-no-balance": (40, np.arange(1, 32) / 31, ring_weights),
}


class TestGenResponse:
    def test_alpha_zero_returns_regression_signal(self):
        rng = np.random.default_rng(2)
        x = gen_predictors(6, GRID, rng)
        w = exponential_weights(6, 0.5)
        y = gen_response(x, w, 0.0, rng, noise_sd=0.0)
        w_quad = trapezoid_weights(GRID)
        beta_mat = true_beta(GRID[:, None], GRID[None, :])
        expected = (x.values * w_quad) @ beta_mat
        np.testing.assert_allclose(y.values, expected, atol=1e-12)

    def test_matches_dense_discretized_solve(self):
        rng = np.random.default_rng(3)
        grid = np.arange(1, 32) / 31  # small grid keeps the oracle tractable
        x = gen_predictors(6, grid, rng)
        w = exponential_weights(6, 0.5)
        y = gen_response(x, w, 0.9, rng, noise_sd=0.0, neumann_tol=1e-8)
        w_quad = trapezoid_weights(grid)
        beta_mat = true_beta(grid[:, None], grid[None, :])
        g = (x.values * w_quad) @ beta_mat
        oracle = dense_mixing_solve(x, w, 0.9, g)
        np.testing.assert_allclose(y.values, oracle, atol=1e-6)

    def test_exact_solve_matches_dense_discretized_solve(self):
        rng = np.random.default_rng(12)
        x = gen_predictors(6, GRID, rng)
        w = exponential_weights(6, 0.5)
        y = gen_response(x, w, 0.9, rng, noise_sd=0.0)
        w_quad = trapezoid_weights(GRID)
        g = (x.values * w_quad) @ true_beta(GRID[:, None], GRID[None, :])
        oracle = dense_mixing_solve(x, w, 0.9, g)
        np.testing.assert_allclose(y.values, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_dense_oracle(self, case):
        n, grid, make = ORACLE_CASES[case]
        rng = np.random.default_rng(21)
        w = make(n, rng)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.9, rng, noise_sd=0.0)
        oracle = dense_mixing_solve(x, w, 0.9, regression_signal(x))
        np.testing.assert_allclose(y.values, oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("make", [inverse_distance_weights, exponential_weights])
    def test_matches_reduced_form_solve_at_acceptance_size(self, make):
        n = 250
        x = gen_predictors(n, GRID, np.random.default_rng(24))
        w = make(n)
        y = gen_response(x, w, 0.9, np.random.default_rng(25))
        g = regression_signal(x) + np.random.default_rng(25).standard_normal((n, GRID.size))
        rho_quad = trapezoid_weights(GRID)[:, None] * true_rho(GRID[:, None], GRID[None, :], 0.9)
        np.testing.assert_allclose(
            y.values, reduced_form_solve(rho_quad, w, g), rtol=0, atol=1e-12
        )

    def test_model_identity_residual_within_tolerance(self):
        rng = np.random.default_rng(4)
        x = gen_predictors(20, GRID, rng)
        w = exponential_weights(20, 0.5)
        rng_y = np.random.default_rng(5)
        y = gen_response(x, w, 0.9, rng_y)
        # recompute G with the same noise draws
        w_quad = trapezoid_weights(GRID)
        beta_mat = true_beta(GRID[:, None], GRID[None, :])
        rng_g = np.random.default_rng(5)
        g = (x.values * w_quad) @ beta_mat + rng_g.standard_normal((20, 101))
        rho_quad = w_quad[:, None] * true_rho(GRID[:, None], GRID[None, :], 0.9)
        mixed = w.toarray() @ y.values @ rho_quad
        residual = y.values - mixed - g
        assert np.max(np.abs(residual)) <= 0.001

    def test_increments_decay_geometrically(self):
        rng = np.random.default_rng(6)
        x = gen_predictors(10, GRID, rng)
        w = exponential_weights(10, 0.5)
        w_quad = trapezoid_weights(GRID)
        beta_mat = true_beta(GRID[:, None], GRID[None, :])
        g = (x.values * w_quad) @ beta_mat
        rho_quad = w_quad[:, None] * true_rho(GRID[:, None], GRID[None, :], 0.9)
        term = g
        maxima = []
        for _ in range(40):
            term = w.toarray() @ term @ rho_quad
            maxima.append(np.max(np.abs(term)))
        ratios = np.array(maxima[11:]) / np.array(maxima[10:-1])
        assert np.all(ratios < 1.0)

    def test_seed_determinism(self):
        x = gen_predictors(8, GRID, np.random.default_rng(7))
        w = exponential_weights(8, 0.5)
        y1 = gen_response(x, w, 0.5, np.random.default_rng(8))
        y2 = gen_response(x, w, 0.5, np.random.default_rng(8))
        np.testing.assert_array_equal(y1.values, y2.values)

    def test_divergent_operator_detected(self):
        rng = np.random.default_rng(9)
        x = gen_predictors(5, GRID, rng)
        # rows sum to 3: the reduced form's spectral radius bound is far above 1
        mat = np.ones((5, 5)) * 0.75
        np.fill_diagonal(mat, 0.0)
        w_big = SpatialWeights(matrix=mat)
        with pytest.raises(DivergenceError, match="spectral radius bound"):
            gen_response(x, w_big, 0.9, rng)

    def test_residual_certificate_enforced(self):
        rng = np.random.default_rng(13)
        x = gen_predictors(6, GRID, rng)
        w = exponential_weights(6, 0.5)
        with pytest.raises(GenerationError, match="miss the model identity"):
            gen_response(x, w, 0.9, rng, neumann_tol=1e-300)

    def test_certificate_multiplies_by_w_itself(self, monkeypatch):
        # a solve that misses Y by 1e-3 max|Y| in one entry fails at the default tol
        rng = np.random.default_rng(14)
        x = gen_predictors(6, GRID, rng)
        w = exponential_weights(6, 0.5)
        gen_response(x, w, 0.9, np.random.default_rng(15))
        solve = SpatialWeights.solve_lag

        def off(*args):
            y = solve(*args)
            y[0, 0] += 1e-3 * np.max(np.abs(y))
            return y

        monkeypatch.setattr(SpatialWeights, "solve_lag", off)
        with pytest.raises(GenerationError, match="miss the model identity"):
            gen_response(x, w, 0.9, np.random.default_rng(15))

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("make", [exponential_weights, inverse_distance_weights])
    @pytest.mark.parametrize("fault", ["odd_sign_flipped", "odd_rows_rolled"])
    def test_certificate_catches_a_faulty_shared_fold(self, monkeypatch, fault, make, n):
        # the solve and the certificate's W Y share the fold T only; a fault
        # planted in it must still miss the model identity
        if fault == "odd_sign_flipped":
            unfold = spatial._unfold
            monkeypatch.setattr(spatial, "_unfold", lambda even, odd: unfold(even, -odd))
        else:
            fold = spatial._fold

            def rolled(x):
                even, odd = fold(x)
                return even, np.roll(odd, 1, axis=0)

            monkeypatch.setattr(spatial, "_fold", rolled)
        rng = np.random.default_rng(17)
        x = gen_predictors(n, GRID, rng)
        with pytest.raises(GenerationError, match="miss the model identity"):
            gen_response(x, make(n), 0.9, rng)

    @pytest.mark.parametrize("kind, alpha", [("exponential", 0.9), ("inverse", 0.1)])
    def test_memory_is_bounded(self, kind, alpha, traced_peak):
        # 1000 curves on 101 points take 0.77 MiB; with P^-1 and P applied
        # to all 1000 rows as one block each, the peak was 6.23 MiB
        cfg = SimConfig(n_train=250, n_test=1000, alpha=alpha, weight_kind=kind, seed=1)
        w = cfg.make_weights(1000)
        rng = np.random.default_rng(18)
        x = gen_predictors(1000, cfg.grid, rng)
        gen_response(x, w, alpha, rng)  # caches W's eigenbasis and the grid's operators
        assert traced_peak(lambda: gen_response(x, w, alpha, rng))[1] <= 4.5 * 2**20

    def test_alpha_range_validated(self):
        rng = np.random.default_rng(10)
        x = gen_predictors(5, GRID, rng)
        w = exponential_weights(5, 0.5)
        with pytest.raises(ParameterError):
            gen_response(x, w, 1.0, rng)
        with pytest.raises(ParameterError):
            gen_response(x, w, -0.1, rng)


class TestSimConfig:
    def test_grid_definition(self):
        cfg = SimConfig(n_train=10, n_test=10, alpha=0.5, seed=1)
        np.testing.assert_allclose(cfg.grid, np.arange(1, 102) / 101)
        assert cfg.grid[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(n_train=10, n_test=10, alpha=0.0, seed=1)
        with pytest.raises(ParameterError):
            SimConfig(n_train=10, n_test=10, alpha=1.0, seed=1)
        with pytest.raises(ParameterError):
            SimConfig(n_train=10, n_test=10, alpha=0.5, weight_kind="queen", seed=1)
        with pytest.raises(ParameterError):
            SimConfig(n_train=1, n_test=10, alpha=0.5, seed=1)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("decay", np.nan, "decay must be finite and > 0"),
            ("decay", np.inf, "decay must be finite and > 0"),
            ("noise_sd", np.nan, "noise_sd must be finite and >= 0"),
            ("noise_sd", np.inf, "noise_sd must be finite and >= 0"),
            ("noise_sd", "1", "noise_sd must be finite and >= 0, got '1'"),
            ("neumann_tol", np.nan, "neumann_tol must be finite and >= 0"),
            ("n_train", np.nan, "n_train must be an integer >= 2, got nan"),
            ("n_test", np.inf, "n_test must be an integer >= 2, got inf"),
            ("grid_size", np.nan, "grid_size must be an integer >= 4, got nan"),
            ("grid_size", 4.5, "grid_size must be an integer >= 4, got 4.5"),
        ],
    )
    def test_non_finite_values_rejected(self, field, value, named):
        with pytest.raises(ParameterError, match=named):
            SimConfig(**{"n_train": 10, "n_test": 10, "alpha": 0.5, "seed": 1, field: value})

    def test_generate_bit_identical_under_seed(self):
        cfg = SimConfig(
            n_train=12, n_test=12, alpha=0.5, weight_kind="inverse", seed=77,
            grid_size=41,
        )
        a = generate(cfg)
        b = generate(cfg)
        np.testing.assert_array_equal(a.x_data.values, b.x_data.values)
        np.testing.assert_array_equal(a.y_data.values, b.y_data.values)
        np.testing.assert_array_equal(
            a.weights.toarray(), b.weights.toarray()
        )

    def test_truth_surfaces_match_closed_forms(self):
        cfg = SimConfig(n_train=8, n_test=8, alpha=0.3, seed=3, grid_size=41)
        truth = generate(cfg)
        g = cfg.grid
        np.testing.assert_array_equal(
            truth.beta_surface.values, true_beta(g[:, None], g[None, :])
        )
        np.testing.assert_array_equal(
            truth.rho_surface.values, true_rho(g[:, None], g[None, :], 0.3)
        )


class TestRunReplication:
    def test_metrics_finite_and_nonnegative(self):
        cfg = SimConfig(
            n_train=60, n_test=40, alpha=0.5, weight_kind="exponential",
            seed=11, grid_size=41, fit_options={"num_basis": 12},
        )
        metrics = run_replication(cfg, replication_index=0)
        for method in ("sfofr", "fpc"):
            for key in ("ise_beta", "mse", "mspe"):
                value = metrics[method][key]
                assert np.isfinite(value) and value >= 0
        assert np.isfinite(metrics["sfofr"]["ise_rho"])
        assert np.isnan(metrics["fpc"]["ise_rho"])

    def test_replications_reproducible_and_distinct(self):
        cfg = SimConfig(
            n_train=60, n_test=40, alpha=0.5, weight_kind="exponential",
            seed=11, grid_size=41, fit_options={"num_basis": 12},
        )
        first = run_replication(cfg, replication_index=0)
        again = run_replication(cfg, replication_index=0)
        for method in ("sfofr", "fpc"):
            for key in ("ise_beta", "ise_rho", "mse", "mspe"):
                a, b = first[method][key], again[method][key]
                assert a == b or (np.isnan(a) and np.isnan(b))
        other = run_replication(cfg, replication_index=1)
        assert other["sfofr"]["mspe"] != first["sfofr"]["mspe"]

    # a small design whose score-space fit does not converge
    UNCONVERGED = SimConfig(
        n_train=60, n_test=40, alpha=0.5, weight_kind="exponential",
        seed=13, grid_size=41, fit_options={"num_basis": 12},
    )

    def test_parallel_benchmark_matches_serial(self):
        from sfofr import run_benchmark

        cfg = self.UNCONVERGED
        serial = run_benchmark(cfg, 2, threads=1)
        parallel = run_benchmark(cfg, 2, threads=2)
        for rep_s, rep_p in zip(serial, parallel):
            for method in ("sfofr", "fpc"):
                for key in ("ise_beta", "mse", "mspe"):
                    assert rep_s[method][key] == rep_p[method][key]

    @pytest.mark.filterwarnings("ignore:score-space fit did not converge")
    @pytest.mark.parametrize(
        "kind,alpha,fit_options",
        [
            ("exponential", 0.7, None),
            ("inverse", 0.3, None),
            ("exponential", 0.7, {"num_basis": 12, "var_threshold": 0.9}),
            ("inverse", 0.3, {"num_basis": 12, "var_threshold": 0.9}),
        ],
    )
    def test_matches_public_calls_bit_for_bit(self, kind, alpha, fit_options):
        cfg = SimConfig(
            n_train=60, n_test=40, alpha=alpha, weight_kind=kind, seed=21, grid_size=41,
            smooth_noise=fit_options is not None, fit_options=fit_options,
        )
        rng = replication_rng(cfg.seed, 2)
        train, test = generate(cfg, cfg.n_train, rng), generate(cfg, cfg.n_test, rng)
        g = cfg.grid
        expected = {}
        for method in ("sfofr", "fpc"):
            if method == "sfofr":
                fit = fit_sfofr(train.y_data, train.x_data, train.weights, options=fit_options)
                ise_rho = ise_surface(reconstruct_rho(fit, g, g), train.rho_surface)
            else:
                fit = fit_fofr_fpc(train.y_data, train.x_data, options=fit_options)
                ise_rho = float("nan")
            pred = predict(fit, test.x_data, test.weights)
            expected[method] = {
                "ise_beta": ise_surface(reconstruct_beta(fit, g, g), train.beta_surface),
                "ise_rho": ise_rho,
                "mse": mse_curves(fitted_values(fit), represent_response(fit, train.y_data)),
                "mspe": mse_curves(pred, represent_response(fit, test.y_data)),
            }
        got = run_replication(cfg, 2)
        hexed = {m: {k: float(v).hex() for k, v in r.items()} for m, r in got.items()}
        assert hexed == {m: {k: float(v).hex() for k, v in r.items()} for m, r in expected.items()}

    def test_unconverged_spatial_fit_warns(self):
        cfg = SimConfig(
            n_train=40, n_test=30, alpha=0.5, seed=16, grid_size=41,
            fit_options={"num_basis": 12, "msar_max_iter": 1},
        )
        with pytest.warns(UserWarning, match="did not converge: max_iter reached") as record:
            run_replication(cfg, 0)
        assert [r.filename for r in record] == [__file__]

    def test_serial_benchmark_warns_at_caller(self):
        with pytest.warns(UserWarning, match="did not converge") as record:
            simgen.run_benchmark(self.UNCONVERGED, 2, threads=1)
        assert {r.filename for r in record} == {__file__}

    def test_parallel_benchmark_warns_as_serial(self):
        # workers record their warnings; the parent re-issues them in order
        seen = {}
        for threads in (1, 2):
            with pytest.warns(UserWarning) as record:
                simgen.run_benchmark(self.UNCONVERGED, 2, threads=threads)
            seen[threads] = [(str(r.message), r.filename) for r in record]
        assert seen[1] and all(name == __file__ for _, name in seen[1])
        assert seen[2] == seen[1]

    @pytest.mark.parametrize(
        "n_reps, threads, named",
        [
            (2.5, 1, "n_replications must be an integer >= 1, got 2.5"),
            (0, 1, "n_replications must be an integer >= 1"),
            (2, 0, "threads must be an integer >= 1, got 0"),
            (2, -3, "threads must be an integer >= 1, got -3"),
        ],
    )
    def test_counts_must_be_positive_integers(self, monkeypatch, n_reps, threads, named):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(simgen, "run_replication", no_pool)
        with pytest.raises(ParameterError, match=named):
            simgen.run_benchmark(self.UNCONVERGED, n_reps, threads=threads)

    @pytest.mark.filterwarnings("ignore:score-space fit did not converge")
    @pytest.mark.parametrize("threads, n_reps, workers", [(64, 2, 2), (2, 3, 2)])
    def test_pool_holds_at_most_one_worker_per_replication(
        self, monkeypatch, threads, n_reps, workers
    ):
        sizes = []

        class SerialPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", SerialPool)
        results = simgen.run_benchmark(self.UNCONVERGED, n_reps, threads=threads)
        assert sizes == [workers] and len(results) == n_reps
