"""Tests for weight matrices, Haversine distances, and Moran statistics."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from sfofr import (
    DataError,
    FunctionalDataset,
    GeoCoordinates,
    ParameterError,
    SimConfig,
    SpatialWeights,
    UndefinedStatisticError,
    center,
    exponential_weights,
    functional_morans_i,
    haversine_km,
    inverse_distance_weights,
    knn_weights,
    make_bspline_basis,
    morans_i,
    row_normalize,
    smooth_curves,
)


def check_weight_contract(w):
    mat = w.toarray()
    assert np.all(mat >= 0)
    assert np.all(np.diag(mat) == 0)
    sums = mat.sum(axis=1)
    assert np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0))


class TestInverseDistance:
    def test_two_units(self):
        w = inverse_distance_weights(2)
        np.testing.assert_allclose(w.toarray(), [[0, 1], [1, 0]])

    def test_three_units_first_row(self):
        # pre-normalization row 0 is [0, 1/2, 1/3]; (1/2)/(5/6) = 0.6
        w = inverse_distance_weights(3)
        np.testing.assert_allclose(w.toarray()[0], [0.0, 0.6, 0.4], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_rows_normalized(self, n):
        check_weight_contract(inverse_distance_weights(n))

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            inverse_distance_weights(1)


class TestExponential:
    def test_two_units_any_decay(self):
        for d in (0.1, 0.5, 3.0):
            np.testing.assert_allclose(
                exponential_weights(2, d).toarray(), [[0, 1], [1, 0]]
            )

    def test_three_units_analytic(self):
        w = exponential_weights(3, 0.5)
        e1, e2 = math.exp(-0.5), math.exp(-1.0)
        np.testing.assert_allclose(
            w.toarray()[0], [0.0, e1 / (e1 + e2), e2 / (e1 + e2)], atol=1e-15
        )

    def test_large_decay_limits_to_nearest_neighbor(self):
        w = exponential_weights(6, 50.0).toarray()
        # interior unit: off-nearest weights vanish
        assert w[3, 2] > 0.49 and w[3, 4] > 0.49
        assert w[3, 0] < 1e-10 and w[3, 5] < 1e-10

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ParameterError):
            exponential_weights(5, 0.0)


class TestHaversine:
    def test_identical_points(self):
        assert haversine_km(12.0, 45.0, 12.0, 45.0) == 0.0

    def test_antipodal_analytic(self):
        # half the Earth circumference: pi * 6371 km
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert abs(d - math.pi * 6371.0) < 0.1

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform([-90, -180], [90, 180])
            b = rng.uniform([-90, -180], [90, 180])
            d1 = haversine_km(a[0], a[1], b[0], b[1])
            d2 = haversine_km(b[0], b[1], a[0], a[1])
            assert d1 == pytest.approx(d2, abs=1e-12)
            assert d1 >= 0 and d1 <= math.pi * 6371.0 + 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            pts = rng.uniform([-90, -180], [90, 180], size=(3, 2))
            d01 = haversine_km(pts[0, 0], pts[0, 1], pts[1, 0], pts[1, 1])
            d12 = haversine_km(pts[1, 0], pts[1, 1], pts[2, 0], pts[2, 1])
            d02 = haversine_km(pts[0, 0], pts[0, 1], pts[2, 0], pts[2, 1])
            assert d02 <= d01 + d12 + 1e-9


class TestGeoCoordinates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite; unit 2 "):
            GeoCoordinates(lat=[0.0, 1.0, bad, 3.0], lon=np.zeros(4))
        with pytest.raises(ParameterError, match="finite; unit 2 "):
            GeoCoordinates(lat=np.zeros(4), lon=[0.0, 1.0, bad, 3.0])


class TestKnn:
    def test_full_neighborhood_is_uniform(self):
        coords = GeoCoordinates(lat=np.array([0.0, 1.0, 2.0, 3.5]), lon=np.zeros(4))
        w = knn_weights(coords, 3).toarray()
        expected = np.full((4, 4), 1 / 3)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(w, expected)

    def test_collinear_tie_break_prefers_lower_index(self):
        # three equally spaced points on a meridian; the middle one is
        # equidistant from both ends, so the tie goes to index 0
        coords = GeoCoordinates(lat=np.array([0.0, 1.0, 2.0]), lon=np.zeros(3))
        w = knn_weights(coords, 1).toarray()
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 0.0]])
        np.testing.assert_allclose(w, expected)

    def test_rows_sum_exactly_one(self):
        rng = np.random.default_rng(2)
        coords = GeoCoordinates(
            lat=rng.uniform(-60, 60, 12), lon=rng.uniform(-170, 170, 12)
        )
        w = knn_weights(coords, 4).toarray()
        assert np.all(w.sum(axis=1) == 1.0)
        assert np.all(np.sum(w > 0, axis=1) == 4)

    def test_rejects_bad_h(self):
        coords = GeoCoordinates(lat=np.zeros(5), lon=np.arange(5.0))
        for h in (0, 5, 7):
            with pytest.raises(ParameterError):
                knn_weights(coords, h)

    def test_sparse_graph_is_stored_as_csr(self):
        rng = np.random.default_rng(5)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, 200), lon=rng.uniform(-73, -35, 200))
        w = knn_weights(coords, 5)
        assert sp.issparse(w.matrix) and w.matrix.nnz == 1000
        check_weight_contract(w)


class TestRowNormalize:
    def test_idempotent(self):
        w = exponential_weights(6, 0.5)
        again = row_normalize(w)
        np.testing.assert_allclose(again.toarray(), w.toarray(), atol=1e-15)

    def test_simple_row(self):
        w = SpatialWeights(matrix=np.array([[0, 2, 2], [1, 0, 0], [3, 1, 0.0]]))
        out = row_normalize(w)
        np.testing.assert_allclose(out.toarray()[0], [0, 0.5, 0.5])

    def test_isolated_unit_preserved_with_warning(self):
        mat = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.warns(UserWarning, match="isolated"):
            out = row_normalize(SpatialWeights(matrix=mat))
        np.testing.assert_allclose(out.toarray()[2], 0.0)
        assert out.normalized

    def test_negative_entries_rejected(self):
        with pytest.raises(DataError):
            SpatialWeights(matrix=np.array([[0, -1.0], [1, 0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DataError):
            SpatialWeights(matrix=np.eye(3))


class TestStorage:
    def ring(self, n):
        mat = np.zeros((n, n))
        idx = np.arange(n)
        mat[idx, (idx + 1) % n] = 1.0
        return mat

    def test_density_chooses_storage_in_both_directions(self):
        # a ring has n nonzeros: a tenth of n^2 at n = 10, more below
        assert sp.issparse(SpatialWeights(matrix=self.ring(10)).matrix)
        assert isinstance(SpatialWeights(matrix=self.ring(9)).matrix, np.ndarray)
        full = np.ones((3, 3)) - np.eye(3)
        w = SpatialWeights(matrix=sp.csr_array(full))
        assert isinstance(w.matrix, np.ndarray)
        np.testing.assert_array_equal(w.matrix, full)

    def test_both_storages_give_the_same_sums(self):
        rng = np.random.default_rng(6)
        for mat in (self.ring(40), rng.uniform(0.5, 1, (40, 40)) * (1 - np.eye(40))):
            w = SpatialWeights(matrix=mat)
            v = SpatialWeights(matrix=sp.coo_array(mat))
            assert type(w.matrix) is type(v.matrix)
            for a in (w, v):
                np.testing.assert_array_equal(a.row_sums(), mat.sum(axis=1))
                np.testing.assert_allclose(a.diag_wtw(), (mat * mat).sum(axis=0), rtol=1e-15)

    @pytest.mark.parametrize("decay, n", [(0.5, 40), (40.0, 500)])
    def test_balance_vector_must_satisfy_detailed_balance(self, decay, n):
        # decay 40 underflows beyond |i-j| = 18, so that W is stored as CSR
        w = exponential_weights(n, decay)
        SpatialWeights(matrix=w.matrix, normalized=True, balance=w.balance)
        with pytest.raises(DataError, match="d_i w_ij = d_j w_ji"):
            SpatialWeights(matrix=w.matrix, normalized=True, balance=np.linspace(1, 5, n))

    def test_row_normalize_keeps_sparse_storage(self):
        mat = 3.0 * self.ring(30)
        out = row_normalize(SpatialWeights(matrix=mat))
        assert sp.issparse(out.matrix) and out.normalized
        np.testing.assert_array_equal(out.toarray(), self.ring(30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_non_finite_entries_rejected(self, bad, storage):
        mat = sp.csr_array(([1.0, bad, 1.0], ([0, 1, 2], [1, 0, 0])), shape=(12, 12))
        if storage == "dense":
            mat = mat.toarray()[:3, :3]
        with pytest.raises(DataError, match="non-finite"):
            SpatialWeights(matrix=mat)


def eigen_modulus(w):
    return float(np.max(np.abs(np.linalg.eigvals(w.toarray()))))


class TestSpectralRadiusBound:
    @pytest.mark.parametrize(
        "w",
        [
            exponential_weights(30, 0.5),
            inverse_distance_weights(30),
            knn_weights(
                GeoCoordinates(
                    lat=np.random.default_rng(3).uniform(-60, 60, 30),
                    lon=np.random.default_rng(4).uniform(-170, 170, 30),
                ),
                4,
            ),
            SpatialWeights(matrix=np.zeros((5, 5))),
        ],
        ids=["exponential", "inverse_distance", "knn", "zero"],
    )
    def test_equals_eigenvalue_modulus_when_row_sums_agree(self, w):
        assert w.spectral_radius() == pytest.approx(eigen_modulus(w), rel=1e-10, abs=1e-14)

    def test_upper_bound_for_unequal_row_sums(self):
        w = SpatialWeights(matrix=np.array([[0, 2, 2], [1, 0, 0], [3, 1, 0.0]]))
        assert w.spectral_radius() == 4.0
        assert w.spectral_radius() > eigen_modulus(w)


class TestRowSumBoundCache:
    def test_lattice_bound_is_the_maximum_row_sum(self):
        w = exponential_weights(40, 0.5)
        assert w.spectral_radius() == float(np.max(w.row_sums()))
        assert w.spectral_radius() == float(np.max(w.row_sums()))

    def test_custom_dense_bound_follows_in_place_edits(self):
        w = SpatialWeights(matrix=np.array([[0, 2, 2], [1, 0, 0], [3, 1, 0.0]]))
        assert w.balance is None
        assert w.spectral_radius() == 4.0
        w.matrix[1, 0] = 7.0
        assert w.spectral_radius() == 7.0


class TestSpectralForm:
    @pytest.mark.parametrize(
        "w", [exponential_weights(30, 0.5), inverse_distance_weights(30)],
        ids=["exponential", "inverse_distance"],
    )
    def test_lattice_weights_are_diagonalized(self, w):
        lam, q, root = w._spectrum
        mat = w.toarray()
        d = root**2
        np.testing.assert_allclose(d[:, None] * mat, (d[:, None] * mat).T, rtol=1e-14)
        p_mat = q / root[:, None]
        p_inv = q.T * root[None, :]
        np.testing.assert_allclose(p_mat @ np.diag(lam) @ p_inv, mat, atol=1e-14)
        np.testing.assert_allclose(p_inv @ p_mat, np.eye(30), atol=1e-13)
        assert np.max(lam) == pytest.approx(1.0, abs=1e-13)

    def test_spectrum_is_cached_and_read_only(self):
        w = exponential_weights(12, 0.5)
        first = w._spectrum
        assert w._spectrum is first
        for a in (w.matrix, *first):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_other_weights_have_no_spectrum(self):
        coords = GeoCoordinates(
            lat=np.random.default_rng(3).uniform(-60, 60, 30),
            lon=np.random.default_rng(4).uniform(-170, 170, 30),
        )
        lattice = exponential_weights(8, 0.5)
        for w in (
            knn_weights(coords, 4),
            SpatialWeights(matrix=lattice.toarray(), normalized=True),
            row_normalize(lattice),
        ):
            assert w._spectrum is None

    def test_config_weights_shared_and_read_only(self):
        cfg = SimConfig(n_train=10, n_test=10, alpha=0.5, seed=1)
        w = cfg.make_weights(17)
        assert cfg.make_weights(17) is w
        assert SimConfig(n_train=5, n_test=5, alpha=0.2, seed=9).make_weights(17) is w
        assert cfg.make_weights(18) is not w
        with pytest.raises(ValueError):
            w.matrix[0, 1] = 0.5


class TestMoransI:
    def test_hand_computed_pair(self):
        w = SpatialWeights(matrix=np.array([[0.0, 1], [1, 0]]), normalized=True)
        # x = (1, -1) is already centered; x'Wx = -2, x'x = 2
        assert morans_i([1.0, -1.0], w) == pytest.approx(-1.0)

    def test_orthogonal_lag_gives_zero(self):
        # x centered with W x = 0: ring of 4 with alternating +1/-1 against
        # a weight pattern that averages the two neighbors
        w = SpatialWeights(
            matrix=np.array(
                [
                    [0, 0.5, 0, 0.5],
                    [0.5, 0, 0.5, 0],
                    [0, 0.5, 0, 0.5],
                    [0.5, 0, 0.5, 0.0],
                ]
            ),
            normalized=True,
        )
        x = np.array([1.0, -1.0, 1.0, -1.0])
        lag = w.toarray() @ x
        assert np.allclose(lag, -x)  # sanity: lag flips sign, I = -1
        x2 = np.array([1.0, 0.0, -1.0, 0.0])
        assert morans_i(x2, w) == pytest.approx(0.0, abs=1e-15)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        w = inverse_distance_weights(8)
        x = rng.standard_normal(8)
        base = morans_i(x, w)
        assert morans_i(3.0 * x, w) == pytest.approx(base, rel=1e-12)
        assert morans_i(x + 11.0, w) == pytest.approx(base, rel=1e-12)

    def test_constant_rejected(self):
        w = inverse_distance_weights(4)
        with pytest.raises(UndefinedStatisticError):
            morans_i(np.ones(4), w)

    def test_symmetrization_preserves_quadratic_form(self):
        rng = np.random.default_rng(12)
        w = exponential_weights(9, 0.5)
        mat = w.toarray()
        sym = (mat + mat.T) / 2
        for _ in range(10):
            k = rng.standard_normal(9)
            assert k @ mat @ k == pytest.approx(k @ sym @ k, rel=1e-12)


def _smooth_centered(values, grid, basis):
    data = FunctionalDataset(grid=grid, values=values)
    centered, _ = center(data)
    return smooth_curves(centered, basis)


class TestFunctionalMoransI:
    def test_rank_one_curves_match_scalar_statistic(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(0, 1, 60)
        basis = make_bspline_basis(10, 3)
        f = np.sin(2 * np.pi * grid) + 1.2
        mult = rng.standard_normal(12)
        w = exponential_weights(12, 0.5)
        coeffs = _smooth_centered(np.outer(mult, f), grid, basis)
        values = functional_morans_i(coeffs, w, grid)
        expected = morans_i(mult, w)
        np.testing.assert_allclose(values, expected, rtol=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        grid = np.linspace(0, 1, 50)
        basis = make_bspline_basis(12, 3)
        raw = rng.standard_normal((9, 50))
        w = inverse_distance_weights(9)
        base = functional_morans_i(_smooth_centered(raw, grid, basis), w, grid)
        doubled = functional_morans_i(_smooth_centered(2 * raw, grid, basis), w, grid)
        np.testing.assert_allclose(doubled, base, rtol=1e-10)

    def test_requires_centered_coefficients(self):
        from sfofr import PreconditionError

        grid = np.linspace(0, 1, 40)
        basis = make_bspline_basis(8, 3)
        data = FunctionalDataset(grid=grid, values=np.ones((5, 40)) + np.arange(5)[:, None])
        coeffs = smooth_curves(data, basis)
        w = inverse_distance_weights(5)
        with pytest.raises(PreconditionError):
            functional_morans_i(coeffs, w, grid)

    def test_zero_variance_t_reported(self):
        grid = np.linspace(0, 1, 40)
        basis = make_bspline_basis(8, 1)
        # curves that all vanish at t = 0: x_i(t) = c_i * t
        values = np.outer([1.0, -0.5, 2.0, -2.5], grid)
        coeffs = _smooth_centered(values, grid, basis)
        w = inverse_distance_weights(4)
        with pytest.raises(UndefinedStatisticError, match="t = "):
            functional_morans_i(coeffs, w, grid)

    def test_no_spatial_effect_keeps_statistic_small(self):
        # alpha = 0 response: pure regression signal plus noise, no mixing
        from sfofr import gen_predictors, gen_response

        rng = np.random.default_rng(123)
        grid = np.arange(1, 102) / 101
        n = 250
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.0, rng)
        basis = make_bspline_basis(20, 3)
        coeffs = _smooth_centered(y.values, grid, basis)
        values = functional_morans_i(coeffs, w, grid)
        assert np.max(np.abs(values)) < 0.05
