"""Tests for the spatial autoregressive estimation core.

Dense oracles build the full nKy x nKy Kronecker operators with np.kron and
column-major vectorization; the library must match them without ever forming
those matrices.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sfofr import (
    DivergenceError,
    GeoCoordinates,
    MsarData,
    MsarParams,
    ParameterError,
    SimConfig,
    SpatialWeights,
    apply_S,
    exponential_weights,
    fit_msar,
    fit_sfofr,
    gen_predictors,
    gen_response,
    gradient,
    inverse_distance_weights,
    knn_weights,
    objective,
    preconditioner_m,
    reduced_form_solve,
    spectral_radius,
)
from sfofr.io import read_weights_csv, write_weights_csv
from sfofr.msar import (
    _chain,
    _b_design,
    _gradient_raw,
    _jacobian,
    _objective_raw,
    _pack,
    _profiled,
    _unpack,
)
from sfofr.simgen import replication_rng


def vec(m):
    return np.asarray(m).ravel(order="F")


def unvec(v, n, k):
    return np.asarray(v).reshape(n, k, order="F")


def dense_s(rho, w_mat):
    n = w_mat.shape[0]
    return np.eye(n * rho.shape[0]) - np.kron(rho.T, w_mat)


def sparse_oracle(rho, w, c):
    """Solve of the sparse Kronecker operator I - rho' (x) W for CSR W."""
    s = sp.identity(c.size, format="csc") - sp.kron(rho.T, w.matrix, format="csc")
    return unvec(spla.spsolve(s, vec(c)), *c.shape)


def dense_objective(params, data):
    """Literal vectorized objective from the definition."""
    w_mat = data.weights.toarray()
    n, k_y = data.ymat.shape
    omega_e = params.omega_e
    s = dense_s(params.rho, w_mat)
    omega = s.T @ np.kron(omega_e, np.eye(n)) @ s
    m = 1.0 / np.diag(omega)
    x_star = np.kron(np.eye(k_y), data.xmat)
    inner = s @ vec(data.ymat) - x_star @ vec(params.b)
    resid = m * (s.T @ np.kron(omega_e, np.eye(n)) @ inner)
    return float(resid @ resid)


def random_params(rng, k_y, k_x, target_sr=0.5):
    rho = rng.standard_normal((k_y, k_y))
    sr = spectral_radius(rho)
    if sr > 0:
        rho *= target_sr / sr
    b = rng.standard_normal((k_x, k_y))
    a = rng.standard_normal((k_y, k_y))
    u = np.linalg.cholesky(a @ a.T + k_y * np.eye(k_y)).T
    return MsarParams(rho=rho, b=b, prec_chol=u)


def simulated_training_set(cfg, replication_index):
    """The training curves and weights of one Monte Carlo replication."""
    rng = replication_rng(cfg.seed, replication_index)
    w = cfg.make_weights(cfg.n_train)
    x = gen_predictors(cfg.n_train, cfg.grid, rng)
    y = gen_response(
        x, w, cfg.alpha, rng, noise_sd=cfg.noise_sd, neumann_tol=cfg.neumann_tol,
        neumann_max_terms=cfg.neumann_max_terms, smooth_noise=cfg.smooth_noise,
    )
    return y, x, w


def random_data(rng, n, k_y, k_x, kind="exponential"):
    w = exponential_weights(n, 0.5) if kind == "exponential" else inverse_distance_weights(n)
    ymat = rng.standard_normal((n, k_y))
    xmat = rng.standard_normal((n, k_x))
    ymat -= ymat.mean(axis=0)
    xmat -= xmat.mean(axis=0)
    return MsarData(ymat=ymat, xmat=xmat, weights=w)


class TestApplyS:
    def test_zero_rho_is_identity(self):
        rng = np.random.default_rng(1)
        w = exponential_weights(5, 0.5)
        m = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(apply_S(np.zeros((3, 3)), w, m), m)

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(2)
        w = exponential_weights(3, 0.5)
        rho = 0.4 * rng.standard_normal((2, 2))
        m = rng.standard_normal((3, 2))
        got = apply_S(rho, w, m)
        expected = unvec(dense_s(rho, w.toarray()) @ vec(m), 3, 2)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_weights(self):
        rng = np.random.default_rng(3)
        w = SpatialWeights(matrix=np.zeros((4, 4)))
        m = rng.standard_normal((4, 2))
        np.testing.assert_array_equal(apply_S(rng.standard_normal((2, 2)), w, m), m)


class TestPreconditioner:
    def test_identity_case(self):
        w = exponential_weights(4, 0.5)
        m = preconditioner_m(np.zeros((2, 2)), np.eye(2), w)
        np.testing.assert_allclose(m, 1.0)

    def test_hand_computed_two_units(self):
        # n=2, Ky=1, rho=0.5, Omega_e=1, W=[[0,1],[1,0]]: W'W = I, so
        # every entry is 1 / (1 + 0.25) = 0.8
        w = SpatialWeights(matrix=np.array([[0.0, 1], [1, 0]]), normalized=True)
        m = preconditioner_m(np.array([[0.5]]), np.array([[1.0]]), w)
        np.testing.assert_allclose(m, 0.8)

    def test_matches_dense_omega_diagonal(self):
        rng = np.random.default_rng(4)
        data = random_data(rng, 3, 2, 2)
        params = random_params(rng, 2, 2)
        w_mat = data.weights.toarray()
        s = dense_s(params.rho, w_mat)
        omega = s.T @ np.kron(params.omega_e, np.eye(3)) @ s
        expected = unvec(1.0 / np.diag(omega), 3, 2)
        got = preconditioner_m(params.rho, params.prec_chol, data.weights)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_entries_positive(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 3, 2)
        w = inverse_distance_weights(6)
        assert np.all(preconditioner_m(params.rho, params.prec_chol, w) > 0)


class TestObjective:
    def test_zero_at_noiseless_truth(self):
        rng = np.random.default_rng(6)
        w = exponential_weights(12, 0.5)
        truth = random_params(rng, 2, 3, target_sr=0.5)
        xmat = rng.standard_normal((12, 3))
        xmat -= xmat.mean(axis=0)
        ymat = reduced_form_solve(truth.rho, w, xmat @ truth.b)
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        for _ in range(3):
            any_pd = random_params(rng, 2, 3)
            params = MsarParams(rho=truth.rho, b=truth.b, prec_chol=any_pd.prec_chol)
            assert objective(params, data) <= 1e-18

    def test_matches_dense_vectorized_form(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            data = random_data(rng, 4, 2, 2)
            params = random_params(rng, 2, 2, target_sr=0.6)
            got = objective(params, data)
            expected = dense_objective(params, data)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_invariant_to_precision_scale(self):
        # m scales by 1/c and G by c, so Q(c Omega_e) = Q(Omega_e): the
        # first log-diagonal entry of prec_chol is a flat direction
        rng = np.random.default_rng(27)
        for k_y in (1, 2, 3):
            data = random_data(rng, 9, k_y, 2)
            params = random_params(rng, k_y, 2)
            base = objective(params, data)
            for c in (1e-3, 0.5, 7.0, 1e4):
                scaled = MsarParams(
                    rho=params.rho, b=params.b, prec_chol=c * params.prec_chol
                )
                assert objective(scaled, data) == pytest.approx(base, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            data = random_data(rng, 6, 2, 3)
            assert objective(random_params(rng, 2, 3), data) >= 0


class TestGradient:
    def test_zero_blocks_at_noiseless_truth(self):
        rng = np.random.default_rng(9)
        w = exponential_weights(10, 0.5)
        truth = random_params(rng, 2, 2, target_sr=0.4)
        xmat = rng.standard_normal((10, 2))
        xmat -= xmat.mean(axis=0)
        ymat = reduced_form_solve(truth.rho, w, xmat @ truth.b)
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        g = gradient(truth, data)
        assert np.max(np.abs(g[: 4 + 4])) < 1e-8  # rho and B blocks

    def test_matches_all_numeric_oracle(self):
        rng = np.random.default_rng(10)
        data = random_data(rng, 10, 2, 2)
        for _ in range(5):
            params = random_params(rng, 2, 2, target_sr=rng.uniform(0.2, 0.7))
            theta = _pack(params.rho, params.b, params.prec_chol)
            got = _gradient_raw(theta, data)
            oracle = np.zeros_like(theta)
            for j in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                oracle[j] = (_objective_raw(tp, data) - _objective_raw(tm, data)) / (2 * h)
            scale = max(np.linalg.norm(oracle), 1e-12)
            assert np.linalg.norm(got - oracle) / scale < 1e-5

    def test_data_scaling_homogeneity(self):
        rng = np.random.default_rng(11)
        data = random_data(rng, 8, 2, 2)
        params = random_params(rng, 2, 2)
        c = 3.0
        scaled = MsarData(ymat=c * data.ymat, xmat=c * data.xmat, weights=data.weights)
        assert objective(params, scaled) == pytest.approx(
            c**2 * objective(params, data), rel=1e-10
        )
        g_base = gradient(params, data)
        g_scaled = gradient(params, scaled)
        nrb = 4 + 4  # rho block + B block for Ky=Kx=2
        np.testing.assert_allclose(g_scaled[:nrb], c**2 * g_base[:nrb], rtol=1e-5)


class TestJacobian:
    @pytest.mark.parametrize("k_y", [1, 2, 3])
    def test_matches_central_differences_at_fixed_b(self, k_y):
        rng = np.random.default_rng([34, k_y])
        k_x, n = 2, 12
        nr, nb = k_y * k_y, k_x * k_y
        for _ in range(3):
            data = random_data(rng, n, k_y, k_x)
            params = random_params(rng, k_y, k_x, target_sr=rng.uniform(0.2, 0.7))
            theta = _pack(params.rho, params.b, params.prec_chol)
            chain = _chain(theta, data)
            jac = _jacobian(chain, data)
            assert jac.shape[1] == theta.size - nb  # vec rho and all of zeta
            # d(m (.) G)/d theta over the packed layout (vec rho, vec B, zeta)
            got = np.concatenate([jac[:, :nr], -_b_design(chain, data), jac[:, nr:]], axis=1)

            def resid(t):
                *_, g, m = _chain(t, data)
                return (m * g).ravel()

            oracle = np.empty_like(got)
            for j in range(theta.size):
                h = 1e-6 * max(1.0, abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                oracle[:, j] = (resid(tp) - resid(tm)) / (2 * h)
            # every column on its own scale, so no block hides behind another;
            # a vanishing column (zeta_0 at Ky = 1, where m (.) G is invariant
            # to the scale of Omega_e) is held to the differences' rounding
            err = np.linalg.norm(got - oracle, axis=0)
            scale = np.linalg.norm(oracle, axis=0)
            assert np.all(err <= 1e-6 * scale + 1e-8 * np.linalg.norm(oracle))

    @pytest.mark.parametrize("k_y", [1, 2, 3])
    def test_projected_jacobian_gives_gradient_at_profiled_b(self, k_y):
        # r is orthogonal to the B design, so 2 J'r is the envelope gradient
        rng = np.random.default_rng([35, k_y])
        k_x, n = 3, 15
        nr, nb = k_y * k_y, k_x * k_y
        for _ in range(3):
            data = random_data(rng, n, k_y, k_x, kind="inverse")
            params = random_params(rng, k_y, k_x, target_sr=rng.uniform(0.2, 0.7))
            theta, r, qmat, chain = _profiled(
                _pack(params.rho, params.b, params.prec_chol), data
            )
            jac = _jacobian(chain, data)
            jac -= qmat @ (qmat.T @ jac)
            not_b = np.r_[0:nr, nr + nb : theta.size]  # _jacobian's columns
            expected = _gradient_raw(theta, data)
            np.testing.assert_allclose(
                2 * jac.T @ r, expected[not_b], rtol=1e-9, atol=1e-9 * np.linalg.norm(expected)
            )
            # B is profiled: the B block of the gradient vanishes
            assert np.linalg.norm(expected[nr : nr + nb]) <= 1e-9 * np.linalg.norm(expected)
            assert r @ r == pytest.approx(_objective_raw(theta, data), rel=1e-12)


class TestFitMsar:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(12)
        n, k_y, k_x = 50, 2, 2
        w = exponential_weights(n, 0.5)
        truth = random_params(rng, k_y, k_x, target_sr=0.5)
        xmat = rng.standard_normal((n, k_x))
        xmat -= xmat.mean(axis=0)
        ymat = reduced_form_solve(truth.rho, w, xmat @ truth.b)
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        fit = fit_msar(data)
        assert fit.objective <= 1e-12
        np.testing.assert_allclose(fit.params.rho, truth.rho, atol=1e-3)
        np.testing.assert_allclose(fit.params.b, truth.b, atol=1e-3)

    def test_zero_weights_reduce_to_ols(self):
        rng = np.random.default_rng(13)
        n = 30
        w = SpatialWeights(matrix=np.zeros((n, n)))
        xmat = rng.standard_normal((n, 2))
        xmat -= xmat.mean(axis=0)
        b_true = rng.standard_normal((2, 2))
        ymat = xmat @ b_true + 0.1 * rng.standard_normal((n, 2))
        ymat -= ymat.mean(axis=0)
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        fit = fit_msar(data)
        ols, *_ = np.linalg.lstsq(xmat, ymat, rcond=None)
        np.testing.assert_allclose(fit.params.rho, 0.0, atol=1e-8)
        np.testing.assert_allclose(fit.params.b, ols, atol=1e-6)

    def test_restart_from_fitted_point_is_stationary(self):
        rng = np.random.default_rng(14)
        n = 40
        w = exponential_weights(n, 0.5)
        truth = random_params(rng, 2, 2, target_sr=0.4)
        xmat = rng.standard_normal((n, 2))
        xmat -= xmat.mean(axis=0)
        ymat = reduced_form_solve(truth.rho, w, xmat @ truth.b)
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        first = fit_msar(data)
        second = fit_msar(data, init=first.params)
        assert abs(second.objective - first.objective) < first.tolerance

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(15)
        data = random_data(rng, 25, 2, 2)
        fit = fit_msar(data, max_iter=60)
        trace = np.array(fit.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, trace[:-1]))

    def test_final_rho_feasible(self):
        rng = np.random.default_rng(16)
        data = random_data(rng, 25, 3, 2)
        fit = fit_msar(data, max_iter=60)
        assert spectral_radius(fit.params.rho) < 1 - 1e-3

    def test_every_iterate_feasible(self):
        rng = np.random.default_rng(26)
        data = random_data(rng, 25, 2, 2)
        fit = fit_msar(data, max_iter=80)
        assert len(fit.spectral_radius_trace) == len(fit.objective_trace)
        assert all(sr < 1.0 for sr in fit.spectral_radius_trace)

    def test_collinear_predictors_get_minimum_norm_b(self):
        # a duplicated predictor column leaves B unidentified along the
        # copies' difference; profiling takes the minimum-norm B, as least
        # squares does, so both copies carry equal coefficients
        rng = np.random.default_rng(36)
        data = random_data(rng, 40, 2, 2)
        xmat = np.c_[data.xmat, data.xmat[:, 0]]
        fit = fit_msar(MsarData(ymat=data.ymat, xmat=xmat, weights=data.weights), max_iter=60)
        np.testing.assert_allclose(fit.params.b[0], fit.params.b[2], rtol=1e-8)
        assert np.max(np.abs(fit.params.b)) < 10

    def test_identifiability_floor(self):
        rng = np.random.default_rng(17)
        w = exponential_weights(4, 0.5)
        ymat = rng.standard_normal((4, 2))
        xmat = rng.standard_normal((4, 3))
        data = MsarData(ymat=ymat, xmat=xmat, weights=w)
        with pytest.raises(ParameterError):
            fit_msar(data)

    def test_strong_dependence_replication_converges(self):
        # replication 3 of criterion 4's design, where steps near the optimum
        # change Q by less than its rounding: the fit must still reach the
        # gradient tolerance instead of stopping at Q's rounding floor
        cfg = SimConfig(
            n_train=250, n_test=1000, alpha=0.9, weight_kind="exponential", seed=90210
        )
        y, x, w = simulated_training_set(cfg, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            fit = fit_sfofr(y, x, w, options=cfg.fit_options)
        assert fit.msar_fit.converged
        assert fit.msar_fit.grad_norm <= fit.msar_fit.tolerance

    def test_spurious_boundary_minimum_is_capped(self):
        # replication 76 of criterion 5's design: the descent pins the
        # spectral constraint, where the fit predicts with MSPE near 23, and
        # the rerun capped at spectral radius 0.5 costs under 5% of Q
        cfg = SimConfig(
            n_train=250, n_test=1000, alpha=0.1, weight_kind="inverse", seed=11235
        )
        y, x, w = simulated_training_set(cfg, 76)
        with pytest.warns(UserWarning, match="interior solution preferred"):
            fit = fit_sfofr(y, x, w, options=cfg.fit_options)
        assert spectral_radius(fit.msar_fit.params.rho) < 0.5
        assert fit.msar_fit.spectral_radius_trace[-1] < 0.5
        assert fit.msar_fit.message == (
            "stopped at the spectral-radius constraint boundary; "
            "interior solution preferred over boundary minimum"
        )

    # Q at the stop on replications of criterion 5's design, as the BFGS
    # descent this fit replaced found it (one BLAS thread)
    WEAK_Q = {
        4: 3.5053684282570914,
        7: 4.267882276651399,
        9: 6.055200890955318,
        56: 3.8513936255988135,
    }

    def weak_fit(self, rep):
        cfg = SimConfig(
            n_train=250, n_test=1000, alpha=0.1, weight_kind="inverse", seed=11235
        )
        y, x, w = simulated_training_set(cfg, rep)
        fit = fit_sfofr(y, x, w, options=cfg.fit_options).msar_fit
        assert fit.objective == pytest.approx(self.WEAK_Q[rep], rel=1e-9)
        return fit

    def test_weak_two_component_fit_takes_few_steps(self):
        # six parameters; the BFGS descent took 74 steps here
        fit = self.weak_fit(9)
        assert fit.params.rho.shape == (2, 2)
        assert fit.converged and fit.iterations <= 20

    @pytest.mark.parametrize("rep", [4, 7, 56])
    def test_rounding_floor_steps_reach_tolerance(self, rep):
        # near these stops a step's predicted decrease is below Q's rounding;
        # if every accepted step had to lower Q as computed, some of them
        # (which ones depends on the BLAS's rounding) would end with "no step
        # lowers Q" up to 7 times above tol
        fit = self.weak_fit(rep)
        assert fit.converged
        assert fit.grad_norm <= fit.tolerance
        assert fit.message == "gradient norm below tolerance"

    def test_grad_norm_is_the_gradient_norm_at_a_max_iter_stop(self):
        # the one stop test reads 2 |J'r|; at the profiled B that is the
        # gradient over the search variables (all of theta but B and zeta_0)
        rng = np.random.default_rng(37)
        data = random_data(rng, 25, 2, 2)
        fit = fit_msar(data, max_iter=3)
        assert fit.message == "max_iter reached"
        free = np.r_[0:4, 4 + 4 + 1 : 4 + 4 + 3]
        norm = np.linalg.norm(gradient(fit.params, data)[free])
        assert fit.grad_norm == pytest.approx(norm, rel=1e-8)

    def test_converged_flag_semantics(self):
        rng = np.random.default_rng(18)
        data = random_data(rng, 20, 2, 2)
        fit = fit_msar(data, max_iter=500)
        if fit.converged:
            assert fit.grad_norm <= fit.tolerance


class TestReducedFormSolve:
    def test_zero_rho_returns_input(self):
        rng = np.random.default_rng(19)
        w = exponential_weights(6, 0.5)
        c = rng.standard_normal((6, 2))
        np.testing.assert_array_equal(
            reduced_form_solve(np.zeros((2, 2)), w, c), c
        )

    def test_matches_dense_kronecker_solve(self):
        rng = np.random.default_rng(20)
        w = exponential_weights(8, 0.5)
        params = random_params(rng, 2, 2, target_sr=0.6)
        c = rng.standard_normal((8, 2))
        got = reduced_form_solve(params.rho, w, c)
        s = dense_s(params.rho, w.toarray())
        expected = unvec(np.linalg.solve(s, vec(c)), 8, 2)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_random_trials_match_dense_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            n, k_y = 10, 3
            w = inverse_distance_weights(n)
            params = random_params(rng, k_y, 2, target_sr=rng.uniform(0.2, 0.8))
            c = rng.standard_normal((n, k_y))
            s = dense_s(params.rho, w.toarray())
            expected = unvec(np.linalg.solve(s, vec(c)), n, k_y)
            got = reduced_form_solve(params.rho, w, c)
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_defective_rho_matches_dense_oracle(self):
        # a Jordan block: rho has no eigenvector basis
        rng = np.random.default_rng(25)
        w = exponential_weights(8, 0.5)
        rho = np.array([[0.5, 1.0], [0.0, 0.5]])
        c = rng.standard_normal((8, 2))
        expected = unvec(np.linalg.solve(dense_s(rho, w.toarray()), vec(c)), 8, 2)
        np.testing.assert_allclose(reduced_form_solve(rho, w, c), expected, atol=1e-8)

    def test_sparse_weights_match_sparse_oracle(self):
        rng = np.random.default_rng(26)
        n = 500
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        w = knn_weights(coords, 5)
        assert sp.issparse(w.matrix)
        params = random_params(rng, 2, 2, target_sr=0.6)
        c = rng.standard_normal((n, 2))
        expected = sparse_oracle(params.rho, w, c)
        got = reduced_form_solve(params.rho, w, c)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_csv_read_knn_is_sparse_and_matches_sparse_oracle(self, tmp_path):
        # a dense CSV holds no storage hint: the 1% density alone makes it CSR
        rng = np.random.default_rng(30)
        n = 500
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        write_weights_csv(tmp_path / "w.csv", knn_weights(coords, 5), layout="dense")
        w = read_weights_csv(tmp_path / "w.csv", layout="dense")
        assert sp.issparse(w.matrix) and w.normalized
        params = random_params(rng, 2, 2, target_sr=0.6)
        c = rng.standard_normal((n, 2))
        expected = sparse_oracle(params.rho, w, c)
        np.testing.assert_allclose(reduced_form_solve(params.rho, w, c), expected, atol=1e-8)

    @pytest.mark.parametrize("n", [5, 40, 300])
    @pytest.mark.parametrize("kind", ["exponential", "inverse", "balanced", "dense", "knn"])
    @pytest.mark.parametrize("rho_kind", ["random", "jordan", "complex"])
    def test_spectral_path_matches_dense_oracle(self, n, kind, rho_kind):
        # every solve path: two-block and one-block eigenbasis, dense and sparse LU
        rng = np.random.default_rng([27, n])
        if kind == "balanced":  # symmetric but not reversal-symmetric: one eigh block
            a = np.triu(rng.uniform(size=(n, n)), 1)
            w = SpatialWeights(matrix=(a + a.T) / (a + a.T).sum(axis=1).max(), balance=np.ones(n))
        elif kind == "dense":  # no balance vector: dense shifted LU
            a = rng.uniform(size=(n, n))
            np.fill_diagonal(a, 0.0)
            w = SpatialWeights(matrix=a / a.sum(axis=1, keepdims=True), normalized=True)
            assert isinstance(w.matrix, np.ndarray) and w._spectrum is None
        elif kind == "knn":  # sparse shifted LU; CSR needs density <= 10%, so n >= 10
            n = max(n, 10)
            coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
            w = knn_weights(coords, max(1, n // 20))
            assert sp.issparse(w.matrix) and w._spectrum is None
        else:
            w = exponential_weights(n, 0.5) if kind == "exponential" else inverse_distance_weights(n)
        if kind not in ("dense", "knn"):
            assert len(w._spectrum[1]) == (1 if kind == "balanced" else 2)
        if rho_kind == "random":
            rho = random_params(rng, 3, 2, target_sr=rng.uniform(0.2, 0.9)).rho
        elif rho_kind == "jordan":
            rho = np.array([[0.5, 1.0], [0.0, 0.5]])
        else:  # eigenvalues 0.3 +- 0.6i
            rho = np.array([[0.3, -0.6], [0.6, 0.3]])
        c = rng.standard_normal((n, rho.shape[0]))
        expected = unvec(np.linalg.solve(dense_s(rho, w.toarray()), vec(c)), *c.shape)
        got = reduced_form_solve(rho, w, c)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_sparse_lattice_takes_spectral_path(self):
        # exp(-40|i-j|) underflows beyond |i-j| = 18, so W is 7% full and
        # stored as CSR; the Kronecker oracle is banded, so spsolve stays cheap
        rng = np.random.default_rng(28)
        n = 500
        w = exponential_weights(n, 40.0)
        assert sp.issparse(w.matrix) and w._spectrum is not None
        rho = np.array([[0.5, 0.2], [-0.1, 0.3]])
        c = rng.standard_normal((n, 2))
        expected = sparse_oracle(rho, w, c)
        got = reduced_form_solve(rho, w, c)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_large_lattice_is_dense_and_takes_spectral_path(self):
        # 93% of exp(-|i-j|/2) survives underflow at n = 2000, so W stays
        # dense; the n Ky x n Ky oracle is too large to factor here, so the
        # solve is certified by its residual C - (M - W M rho)
        rng = np.random.default_rng(31)
        n = 2000
        w = exponential_weights(n, 0.5)
        assert isinstance(w.matrix, np.ndarray) and w._spectrum is not None
        rho = np.array([[0.5, 0.2], [-0.1, 0.3]])
        c = rng.standard_normal((n, 2))
        got = reduced_form_solve(rho, w, c)
        assert np.max(np.abs(apply_S(rho, w, got) - c)) <= 1e-12 * np.max(np.abs(c))

    def test_triplet_read_lattice_is_dense_and_matches_dense_oracle(self, tmp_path):
        rng = np.random.default_rng(32)
        w = exponential_weights(40, 0.5)
        write_weights_csv(tmp_path / "w.csv", w, layout="triplet")
        back = read_weights_csv(tmp_path / "w.csv", layout="triplet")
        assert isinstance(back.matrix, np.ndarray)
        np.testing.assert_array_equal(back.matrix, w.matrix)
        params = random_params(rng, 3, 2, target_sr=0.6)
        c = rng.standard_normal((40, 3))
        expected = unvec(np.linalg.solve(dense_s(params.rho, back.matrix), vec(c)), 40, 3)
        np.testing.assert_allclose(reduced_form_solve(params.rho, back, c), expected, atol=1e-8)

    def test_csv_read_lattice_takes_schur_path(self, tmp_path):
        rng = np.random.default_rng(29)
        w = exponential_weights(40, 0.5)
        write_weights_csv(tmp_path / "w.csv", w)
        back = read_weights_csv(tmp_path / "w.csv")
        np.testing.assert_array_equal(back.toarray(), w.toarray())
        assert back._spectrum is None
        rho = random_params(rng, 3, 2, target_sr=0.8).rho
        c = rng.standard_normal((40, 3))
        spectral = reduced_form_solve(rho, w, c)
        schur = reduced_form_solve(rho, back, c)
        assert np.max(np.abs(schur - spectral)) <= 1e-12 * np.max(np.abs(spectral))

    def test_divergent_system_rejected(self):
        w = exponential_weights(5, 0.5)  # spectral radius 1 (row stochastic)
        rho = np.array([[1.05]])
        with pytest.raises(DivergenceError):
            reduced_form_solve(rho, w, np.ones((5, 1)))

    @pytest.mark.parametrize("balanced", [True, False])
    def test_guard_reads_complex_eigenvalue_modulus(self, balanced):
        # both rho have real part and trace below 1; only |lambda| decides
        w = exponential_weights(30, 0.5)  # row stochastic: rho(W) = 1
        if not balanced:
            w = SpatialWeights(matrix=w.toarray(), normalized=True)
        c = np.random.default_rng(33).standard_normal((30, 2))
        outside = np.array([[0.6, -0.9], [0.9, 0.6]])  # 0.6 +- 0.9i, |lambda| ~ 1.08
        with pytest.raises(DivergenceError):
            reduced_form_solve(outside, w, c)
        inside = np.array([[0.54, -0.72], [0.72, 0.54]])  # 0.54 +- 0.72i, |lambda| = 0.9
        expected = unvec(np.linalg.solve(dense_s(inside, w.toarray()), vec(c)), 30, 2)
        np.testing.assert_allclose(reduced_form_solve(inside, w, c), expected, atol=1e-10)

    def test_unnormalized_weights_rejected_by_row_sum_bound(self):
        w = SpatialWeights(matrix=2.0 * exponential_weights(5, 0.5).toarray())
        with pytest.raises(DivergenceError):
            reduced_form_solve(np.array([[0.6]]), w, np.ones((5, 1)))

    def test_verifies_shapes(self):
        w = exponential_weights(5, 0.5)
        with pytest.raises(ParameterError):
            reduced_form_solve(np.zeros((2, 2)), w, np.ones((5, 3)))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1], [0, 0]])) == pytest.approx(0.0)

    def test_random_matches_dense_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            expected = np.max(np.abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, rel=1e-8)

    def test_power_iteration_path(self):
        # row-stochastic W has sr 1, which its max row sum gives exactly
        w = exponential_weights(100, 0.5)
        assert w.spectral_radius() == pytest.approx(1.0, rel=1e-7)

    def test_large_random_symmetric(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((80, 80))
        sym = (a + a.T) / 2
        expected = np.max(np.abs(np.linalg.eigvalsh(sym)))
        assert spectral_radius(sym) == pytest.approx(expected, rel=1e-6)


class TestParamsValidation:
    def test_rejects_unstable_rho(self):
        with pytest.raises(ParameterError):
            MsarParams(rho=np.eye(2), b=np.zeros((2, 2)), prec_chol=np.eye(2))

    def test_rejects_bad_cholesky(self):
        with pytest.raises(ParameterError):
            MsarParams(
                rho=np.zeros((2, 2)),
                b=np.zeros((2, 2)),
                prec_chol=np.array([[1.0, 0], [0.5, 1]]),
            )
        with pytest.raises(ParameterError):
            MsarParams(
                rho=np.zeros((2, 2)),
                b=np.zeros((2, 2)),
                prec_chol=np.array([[1.0, 0.5], [0, -1]]),
            )

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(24)
        params = random_params(rng, 3, 2)
        theta = _pack(params.rho, params.b, params.prec_chol)
        rho, b, u = _unpack(theta, 3, 2)
        np.testing.assert_allclose(rho, params.rho)
        np.testing.assert_allclose(b, params.b)
        np.testing.assert_allclose(u, params.prec_chol)
