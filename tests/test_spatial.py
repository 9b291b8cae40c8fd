"""Tests for weight matrices, Haversine distances, and Moran statistics."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import linalg

from sfofr import spatial
from sfofr import (
    DataError,
    FunctionalDataset,
    GeoCoordinates,
    ParameterError,
    PreconditionError,
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
    r_squared,
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

    @pytest.mark.parametrize("n", [np.inf, np.nan, 4.5])
    def test_rejects_n_that_is_not_a_whole_number(self, n):
        with pytest.raises(ParameterError, match=f"n must be an integer >= 2, got {n}"):
            inverse_distance_weights(n)


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

    @pytest.mark.parametrize("d", [np.inf, np.nan, "0.5", None, np.array([0.5, 0.6])])
    def test_rejects_non_finite_decay(self, d):
        with pytest.raises(ParameterError, match="must be finite and > 0"):
            exponential_weights(5, d)


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
        for h in (0, 5, 7, np.nan, np.inf, 2.5):
            with pytest.raises(ParameterError, match=r"h must be an integer in \[1, 4\]"):
                knn_weights(coords, h)

    @staticmethod
    def full_ranking(coords, h):
        """Each unit's h nearest by a full Haversine matrix, lower index on ties."""
        dist = haversine_km(
            coords.lat[:, None], coords.lon[:, None], coords.lat[None, :], coords.lon[None, :]
        )
        np.fill_diagonal(dist, np.inf)
        cols = [np.lexsort((np.arange(coords.n), row))[:h] for row in dist]
        rows = np.repeat(np.arange(coords.n), h)
        return sp.csr_array(
            (np.full(rows.size, 1.0 / h), (rows, np.concatenate(cols))), shape=dist.shape
        )

    def assert_same_csr(self, got, expected):
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    @pytest.mark.parametrize("n, h", [(50, 4), (600, 5)])
    def test_matches_the_full_distance_ranking_bit_for_bit(self, n, h):
        rng = np.random.default_rng(n)
        coords = GeoCoordinates(lat=rng.uniform(-33.75, 5.27, n), lon=rng.uniform(-74, -35, n))
        self.assert_same_csr(knn_weights(coords, h).matrix, self.full_ranking(coords, h))

    def test_planted_exact_ties_go_to_lower_indices(self):
        # units 0-3 lie exactly 1 degree from the coincident units 4 and 5
        coords = GeoCoordinates(
            lat=np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 10.0]),
            lon=np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 10.0]),
        )
        ring = haversine_km(0.0, 0.0, coords.lat[:4], coords.lon[:4])
        assert np.all(ring == ring[0])  # the ties are exact in floating point
        w = knn_weights(coords, 3)  # 21 of 49 entries: stored dense
        np.testing.assert_array_equal(w.toarray(), self.full_ranking(coords, 3).toarray())
        assert set(np.flatnonzero(w.toarray()[4])) == {5, 0, 1}
        assert set(np.flatnonzero(w.toarray()[5])) == {4, 0, 1}

    def test_sparse_graph_is_stored_as_csr(self):
        rng = np.random.default_rng(5)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, 200), lon=rng.uniform(-73, -35, 200))
        w = knn_weights(coords, 5)
        assert sp.issparse(w.matrix) and w.matrix.nnz == 1000
        check_weight_contract(w)


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: exponential_weights(30),
            lambda: exponential_weights(2000),
            lambda: exponential_weights(3001, 0.1),
            lambda: inverse_distance_weights(1001),
            lambda: SpatialWeights(np.triu(np.random.default_rng(8).random((1500, 1500)), 1)),
        ],
    )
    def test_banded_diag_wtw_equals_the_whole_square(self, make):
        w = make()
        assert isinstance(w.matrix, np.ndarray)
        np.testing.assert_array_equal(w.diag_wtw(), (w.matrix * w.matrix).sum(axis=0))

    def test_diag_wtw_makes_no_n_by_n_temporary(self, traced_peak):
        w = exponential_weights(2000)
        assert traced_peak(w.diag_wtw)[1] <= 0.25 * 8 * w.n**2

    @pytest.mark.parametrize("decay, n", [(0.5, 40), (40.0, 500)])
    def test_balance_vector_must_satisfy_detailed_balance(self, decay, n):
        # decay 40 underflows beyond |i-j| = 18, so that W is stored as CSR
        w = exponential_weights(n, decay)
        SpatialWeights(matrix=w.matrix, normalized=True, balance=w.balance)
        with pytest.raises(DataError, match="d_i w_ij = d_j w_ji"):
            SpatialWeights(matrix=w.matrix, normalized=True, balance=np.linspace(1, 5, n))

    def test_banded_balance_check_reaches_the_last_partial_band(self):
        n = 500
        rows = spatial._BAND // n  # the balance check reads dense W in bands of this height
        assert 1 < rows < n and n % rows
        w = exponential_weights(n, 0.5)
        assert not sp.issparse(w.matrix)
        SpatialWeights(matrix=w.matrix, normalized=True, balance=w.balance)
        with pytest.raises(DataError, match="d_i w_ij = d_j w_ji"):
            SpatialWeights(matrix=w.matrix, normalized=True, balance=np.linspace(1, 5, n))
        # an asymmetry in the last unit alone
        d = w.balance.copy()
        d[-1] *= 1 + 1e-9
        with pytest.raises(DataError, match="d_i w_ij = d_j w_ji"):
            SpatialWeights(matrix=w.matrix, normalized=True, balance=d)

    def test_negative_entries_rejected(self):
        with pytest.raises(DataError):
            SpatialWeights(matrix=np.array([[0, -1.0], [1, 0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DataError):
            SpatialWeights(matrix=np.eye(3))

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


def balanced_mirror_free(n):
    """A symmetric, nonnegative W with zero diagonal and balance ones that is
    not reversal-symmetric, so its spectral form has one block."""
    a = np.random.default_rng(n).uniform(size=(n, n))
    a = np.triu(a, 1) + np.triu(a, 1).T
    return SpatialWeights(matrix=a / a.sum(axis=1).max(), balance=np.ones(n))


# balanced W of both spectral layouts, at even and odd n: lattice W fold into
# two blocks, the custom W stays one block
SPECTRAL_CASES = {
    "exponential": lambda: exponential_weights(30, 0.5),
    "inverse_distance": lambda: inverse_distance_weights(30),
    "exponential_odd": lambda: exponential_weights(31, 0.5),
    "inverse_distance_odd": lambda: inverse_distance_weights(31),
    "custom_balanced": lambda: balanced_mirror_free(30),
    "custom_balanced_odd": lambda: balanced_mirror_free(31),
}


class TestSpectralForm:
    @pytest.mark.parametrize("case", list(SPECTRAL_CASES))
    def test_lattice_weights_are_diagonalized(self, case):
        w = SPECTRAL_CASES[case]()
        lam, blocks, root = w._spectrum
        assert len(blocks) == (1 if case.startswith("custom") else 2)
        mat = w.toarray()
        d = root**2
        np.testing.assert_allclose(d[:, None] * mat, (d[:, None] * mat).T, rtol=1e-14)
        # P = D^{-1/2} T' diag(blocks) and P^-1 = diag(blocks)' T D^{1/2}, T the fold
        fold = np.vstack(oracle_fold(np.eye(w.n))) if len(blocks) == 2 else np.eye(w.n)
        q = linalg.block_diag(*blocks)
        p_mat = fold.T @ q / root[:, None]
        p_inv = q.T @ fold * root
        np.testing.assert_allclose(p_mat @ np.diag(lam) @ p_inv, mat, atol=1e-14)
        np.testing.assert_allclose(p_inv @ p_mat, np.eye(w.n), atol=1e-13)
        assert np.max(lam) == pytest.approx(np.max(np.abs(np.linalg.eigvals(mat))), abs=1e-13)
        if not case.startswith("custom"):
            assert np.max(lam) == pytest.approx(1.0, abs=1e-13)

    def test_spectrum_is_cached_and_read_only(self):
        for w in (exponential_weights(12, 0.5), balanced_mirror_free(12)):
            first = w._spectrum
            assert w._spectrum is first
            lam, blocks, root = first
            for a in (w.matrix, lam, *blocks, root):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @pytest.mark.parametrize("n", [5, 6, 249, 250])
    @pytest.mark.parametrize("make", [exponential_weights, inverse_distance_weights])
    def test_lattice_weights_are_exactly_reversal_symmetric(self, make, n):
        w = make(n)
        mat = w.toarray()
        assert np.array_equal(mat, mat[::-1, ::-1])
        assert np.array_equal(w.balance, w.balance[::-1])
        assert SpatialWeights(matrix=mat, normalized=True).normalized
        assert len(w._spectrum[1]) == 2

    def test_other_weights_have_no_spectrum(self):
        coords = GeoCoordinates(
            lat=np.random.default_rng(3).uniform(-60, 60, 30),
            lon=np.random.default_rng(4).uniform(-170, 170, 30),
        )
        lattice = exponential_weights(8, 0.5)
        for w in (
            knn_weights(coords, 4),
            SpatialWeights(matrix=lattice.toarray(), normalized=True),
            SpatialWeights(matrix=lattice.matrix / lattice.row_sums()[:, None], normalized=True),
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


def shift_forms():
    """(T, Z, Z^-1) of each kind ``solve_lag`` takes: diagonal and real, with 41
    columns, as ``gen_response`` hands it over; real upper triangular, the real
    Schur form of a rho with real eigenvalues; and complex, the complex Schur
    form of a rho with a complex eigenvalue pair, as ``reduced_form_solve`` makes."""
    rng = np.random.default_rng(41)
    v = np.linalg.qr(rng.standard_normal((41, 41)))[0]
    d = rng.uniform(0.5, 1.5, 41)
    forms = {"diagonal": (np.diag(rng.uniform(-0.6, 0.6, 41)), v * d, (v / d).T)}
    real = [[0.5, 0.2, 0, 0.1], [0.1, 0.3, 0.1, 0], [0, 0.05, 0.2, 0.1], [0.1, 0, 0, -0.2]]
    pair = [[0.3, -0.4, 0.1], [0.4, 0.3, 0], [0, 0.1, 0.1]]
    for kind, rho in (("triangular", real), ("complex", pair)):
        t, z = linalg.schur(np.array(rho))
        if np.any(np.diag(t, -1)):
            t, z = linalg.rsf2csf(t, z)
        forms[kind] = (t, z, z.conj().T)
    return forms


SHIFT_FORMS = shift_forms()


def whole_block_solve(w, t, z, z_inv, c):
    """``solve_lag`` in W's eigenbasis as P^-1 and P applied whole: C scaled,
    folded and taken to the eigenbasis as one n-row block, then Z, the solve,
    Z^-1, and P back as one block, unfolded and unscaled."""
    lam, blocks, root = w._spectrum
    shifts = np.diag(t)
    scaled = root[:, None] * c
    parts = spatial._fold(scaled) if len(blocks) == 2 else (scaled,)
    rhs = np.concatenate([q.T @ x for q, x in zip(blocks, parts)]) @ z
    denom = 1 - np.outer(lam, shifts)
    if not np.any(np.triu(t, 1)):
        y = rhs / denom
    else:
        y = np.empty_like(rhs)
        for k in range(shifts.size):
            y[:, k] = (rhs[:, k] + lam * (y[:, :k] @ t[:k, k])) / denom[:, k]
    back = [q @ x for q, x in zip(blocks, np.split((y @ z_inv).real, [len(blocks[0])]))]
    return (spatial._unfold(*back) if len(blocks) == 2 else back[0]) / root[:, None]


def eye_lu_solve(w, t, z, z_inv, c):
    """``solve_lag`` by dense LU with each I - T[k, k] W made as np.eye(n) - T[k, k] W."""
    rhs = c @ z
    out = np.empty_like(rhs)
    for k in range(len(t)):
        lag = out[:, :k] @ t[:k, k]
        b = rhs[:, k] + w.matmul(lag.real)
        if np.iscomplexobj(lag):
            b = b + 1j * w.matmul(lag.imag)
        out[:, k] = np.linalg.solve(np.eye(w.n) - t[k, k] * w.matrix, b)
    return np.ascontiguousarray((out @ z_inv).real)


def dense_custom(n):
    """A dense row-normalized W with no balance vector and many exact zeros."""
    a = np.random.default_rng(n).random((n, n))
    a[a < 0.5] = 0.0
    np.fill_diagonal(a, 0.0)
    return SpatialWeights(matrix=a / a.sum(axis=1, keepdims=True), normalized=True)


class TestSolveLag:
    def test_shift_forms_are_of_their_kind(self):
        for kind, (t, z, z_inv) in SHIFT_FORMS.items():
            assert np.iscomplexobj(t) == (kind == "complex")
            assert np.any(np.triu(t, 1)) == (kind != "diagonal")
            assert np.max(np.abs(np.diag(t))) < 1
            np.testing.assert_allclose(z @ z_inv, np.eye(len(t)), atol=1e-12)

    @pytest.mark.parametrize("kind", list(SHIFT_FORMS))
    @pytest.mark.parametrize(
        "make",
        [
            # n = 250 with 41 columns: OpenBLAS 0.3.31's AVX-512 kernels round
            # the product of Z with all 250 rows apart from that with two
            # 125-row halves, so Z and Z^-1 must meet all n rows at once
            lambda: exponential_weights(250, 0.5),
            lambda: inverse_distance_weights(251),
            lambda: balanced_mirror_free(60),
            lambda: balanced_mirror_free(61),
        ],
        ids=["exponential_even", "inverse_distance_odd", "custom_balanced", "custom_balanced_odd"],
    )
    def test_eigenbasis_solve_equals_the_whole_block_maps(self, make, kind):
        w = make()
        t, z, z_inv = SHIFT_FORMS[kind]
        c = np.random.default_rng(w.n).standard_normal((w.n, len(t)))
        assert same_bits(w.solve_lag(t, z, z_inv, c), whole_block_solve(w, t, z, z_inv, c))

    @pytest.mark.parametrize("kind", list(SHIFT_FORMS))
    @pytest.mark.parametrize("n", [300, 301])
    def test_dense_lu_equals_the_identity_minus_shift_form(self, n, kind):
        w = dense_custom(n)
        assert isinstance(w.matrix, np.ndarray) and w._spectrum is None
        t, z, z_inv = SHIFT_FORMS[kind]
        c = np.random.default_rng(n).standard_normal((n, len(t)))
        assert same_bits(w.solve_lag(t, z, z_inv, c), eye_lu_solve(w, t, z, z_inv, c))

    @pytest.mark.parametrize("kind", list(SHIFT_FORMS))
    def test_dense_lu_holds_one_shifted_array(self, kind, traced_peak):
        # I - T[k, k] W is one n x n array, two arrays' bytes when T is complex;
        # eye, T[k, k] W and their difference peaked at 3 and 5 of them
        n = 500
        w = dense_custom(n)
        t, z, z_inv = SHIFT_FORMS[kind]
        c = np.random.default_rng(5).standard_normal((n, len(t)))
        peak = traced_peak(lambda: w.solve_lag(t, z, z_inv, c))[1]
        assert peak <= (2.25 if kind == "complex" else 1.25) * w.matrix.nbytes


def banded_balanced(n):
    """A sparse, symmetric, reversal-symmetric W with balance ones, stored as CSR."""
    a = np.eye(n, k=1) + np.eye(n, k=-1)
    return SpatialWeights(matrix=a / 2, balance=np.ones(n))


class TestFoldedProduct:
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 250, 1001])
    @pytest.mark.parametrize("make", [exponential_weights, inverse_distance_weights])
    def test_lattice_product_matches_the_dense_product(self, make, n):
        w = make(n)
        assert w._fold_blocks is not None
        rng = np.random.default_rng(n)
        for shape in ((n,), (n, 1), (n, 101)):
            m = rng.standard_normal(shape)
            expected = w.matrix @ m
            got = w.matmul(m)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_other_weights_take_the_plain_product(self):
        coords = GeoCoordinates(
            lat=np.random.default_rng(5).uniform(-60, 60, 30),
            lon=np.random.default_rng(6).uniform(-170, 170, 30),
        )
        lattice = exponential_weights(30, 0.5)
        for w in (
            balanced_mirror_free(30),
            SpatialWeights(matrix=lattice.toarray(), normalized=True),
            SpatialWeights(matrix=lattice.matrix / lattice.row_sums()[:, None], normalized=True),
            banded_balanced(30),
            knn_weights(coords, 3),
        ):
            assert w._fold_blocks is None
            m = np.random.default_rng(7).standard_normal((30, 4))
            assert np.array_equal(w.matmul(m), w.matrix @ m)
        assert sp.issparse(banded_balanced(30).matrix)

    def test_blocks_are_built_once_and_read_only(self, monkeypatch):
        calls = []
        split = spatial._split
        monkeypatch.setattr(spatial, "_split", lambda x: calls.append(1) or split(x))
        w = inverse_distance_weights(9)
        m = np.random.default_rng(8).standard_normal((9, 3))
        for _ in range(3):
            w.matmul(m)
        assert len(calls) == 1
        plus, minus = w._fold_blocks
        assert w._fold_blocks[0] is plus
        assert plus.shape == (5, 5) and minus.shape == (4, 4)
        for a in (plus, minus):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0


def oracle_fold(x):
    """``spatial._fold`` as it was when W+- and sym+- were made whole."""
    m = len(x) // 2
    top, bot = x[:m], x[::-1][:m]
    even = np.empty((len(x) - m, *x.shape[1:]))
    np.add(top, bot, out=even[:m])
    even[:m] *= np.sqrt(0.5)
    even[m:] = x[m : len(x) - m]
    odd = top - bot
    odd *= np.sqrt(0.5)
    return even, odd


def oracle_split(x):
    """The diagonal blocks of T x' T', two folds of the whole of x."""
    even, odd = oracle_fold(x)
    return oracle_fold(even.T)[0], oracle_fold(odd.T)[1]


def oracle_lattice(n, kernel):
    """Lattice W and its balance from the n x n grid of |i - j|."""
    idx = np.arange(n)
    values = kernel(np.abs(idx[:, None] - idx[None, :]).astype(float))
    np.fill_diagonal(values, 0.0)
    sums = values.sum(axis=1)
    balance = (sums + sums[::-1]) / 2
    values /= balance[:, None]
    np.fill_diagonal(values, 0.0)
    return values, balance


def oracle_spectrum(w):
    """(lambda, blocks, root) from the whole sym = D^{1/2} W D^{-1/2}."""
    root = np.sqrt(w.balance)
    sym = w.toarray()
    sym *= root[:, None]
    sym /= root[None, :]
    halves = oracle_split(sym) if np.array_equal(sym, sym[::-1, ::-1]) else (sym,)
    pairs = [np.linalg.eigh(h) for h in halves]
    return np.concatenate([p[0] for p in pairs]), [p[1] for p in pairs], root


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


KERNELS = {
    "exponential": (exponential_weights, lambda dist: np.exp(-0.5 * dist)),
    "inverse_distance": (inverse_distance_weights, lambda dist: 1.0 / (1.0 + dist)),
}


class TestBandedConstruction:
    """W, its balance check, fold blocks and spectrum are made in row bands,
    with the bits of the arithmetic on whole n x n arrays."""

    @staticmethod
    def assert_spectrum_matches_oracle(w):
        lam, blocks, root = w._spectrum
        want_lam, want_blocks, want_root = oracle_spectrum(w)
        assert same_bits(lam, want_lam) and same_bits(root, want_root)
        assert len(blocks) == len(want_blocks)
        assert all(same_bits(q, want) for q, want in zip(blocks, want_blocks))

    @staticmethod
    def use_bands_of(monkeypatch, band_rows, n):
        """Make dense W's row bands ``band_rows`` rows high (all of W when
        None); returns a list that gets the number of bands each ``_bands``
        call yields."""
        counts = []
        if band_rows is not None:
            monkeypatch.setattr(spatial, "_BAND", band_rows * n)
            bands = spatial._bands

            def counted(*args):
                slices = list(bands(*args))
                counts.append(len(slices))
                return iter(slices)

            monkeypatch.setattr(spatial, "_bands", counted)
        return counts

    @staticmethod
    def assert_balance_check_banded(counts, band_rows, n):
        # the balance check reads W's n rows in bands; no banded read has more
        if band_rows is not None:
            assert max(counts) == -(-n // band_rows)

    @pytest.mark.parametrize("band_rows", [None, 1, 3])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 250, 251])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_lattice_matches_the_whole_array_oracle(self, monkeypatch, kernel, n, band_rows):
        counts = self.use_bands_of(monkeypatch, band_rows, n)
        make, fn = KERNELS[kernel]
        w = make(n)
        values, balance = oracle_lattice(n, fn)
        assert same_bits(w.matrix, values) and same_bits(w.balance, balance)
        plus, minus = w._fold_blocks
        want_plus, want_minus = oracle_split(values.T)
        assert same_bits(plus, want_plus) and same_bits(minus, want_minus)
        self.assert_spectrum_matches_oracle(w)
        self.assert_balance_check_banded(counts, band_rows, n)

    @pytest.mark.parametrize("band_rows", [None, 1])
    @pytest.mark.parametrize("n", [30, 31])
    @pytest.mark.parametrize("make", [balanced_mirror_free, banded_balanced])
    def test_custom_balanced_matches_the_whole_array_oracle(self, monkeypatch, make, n, band_rows):
        counts = self.use_bands_of(monkeypatch, band_rows, n)
        w = make(n)
        assert w._fold_blocks is None
        self.assert_spectrum_matches_oracle(w)
        self.assert_balance_check_banded(counts, band_rows, n)

    @pytest.mark.parametrize("n", [2000, 2001])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_no_n_by_n_temporary(self, kernel, n):
        # W is 8 n^2 bytes, and W+-, sym+- and Q+- a quarter of that each;
        # made from whole arrays, the build peaked at 3.0 and all at 4.25 times
        size = 8 * n * n
        tracemalloc.start()
        try:
            w = KERNELS[kernel][0](n)
            build = tracemalloc.get_traced_memory()[1]
            assert w._fold_blocks is not None and len(w._spectrum[1]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build <= 1.25 * size
        assert peak <= 2.75 * size


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


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_zero_variance_checks_are_scale_free(scale):
    # Moran's I, functional Moran's I and R^2 are ratios of quadratic forms,
    # so their zero-variance checks must not depend on the data's units
    rng = np.random.default_rng(41)
    w = exponential_weights(20, 0.5)
    x = rng.standard_normal(20)
    assert morans_i(scale * x, w) == pytest.approx(morans_i(x, w), rel=1e-12)

    grid = np.linspace(0, 1, 30)
    basis = make_bspline_basis(8, 3)
    raw = rng.standard_normal((20, 30))
    base = functional_morans_i(_smooth_centered(raw, grid, basis), w, grid)
    scaled = functional_morans_i(_smooth_centered(scale * raw, grid, basis), w, grid)
    np.testing.assert_allclose(scaled, base, rtol=1e-10)
    off_center = FunctionalDataset(grid=grid, values=scale * (raw + 0.5))
    with pytest.raises(PreconditionError):
        functional_morans_i(smooth_curves(off_center, basis), w, grid)

    obs = rng.standard_normal((5, 30))
    pred = obs + 0.1 * rng.standard_normal((5, 30))

    def r2(pred, obs):
        pair = [FunctionalDataset(grid=grid, values=v) for v in (pred, obs)]
        return r_squared(*pair)

    assert r2(scale * pred, scale * obs) == pytest.approx(r2(pred, obs), rel=1e-12)

    for flat in (np.zeros(20), np.full(20, scale), np.full(20, 3.7 * scale)):
        curves = np.outer(flat, np.ones(30))
        with pytest.raises(UndefinedStatisticError):
            morans_i(flat, w)
        with pytest.raises(UndefinedStatisticError):
            r2(scale * pred[:2], curves[:2])
        # centering constant curves can leave one rounding residue in every
        # row, which is_centered refuses; identical rows are named first
        coeffs = _smooth_centered(curves, grid, basis)
        assert np.all(coeffs.coef == coeffs.coef[0])
        with pytest.raises(UndefinedStatisticError, match="zero variance.*do not vary"):
            functional_morans_i(coeffs, w, grid)
