"""Round-trip tests for the file formats and the fit bundle."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sfofr import (
    DataError,
    FunctionalDataset,
    GeoCoordinates,
    exponential_weights,
    fit_sfofr,
    fitted_values,
    gen_predictors,
    gen_response,
    knn_weights,
    predict,
)
from sfofr.io import (
    load_fit_bundle,
    read_json,
    read_coords_csv,
    read_curves_csv,
    read_matrix_csv,
    read_weights_csv,
    save_fit_bundle,
    write_curves_csv,
    write_json,
    write_matrix_csv,
    write_weights_csv,
)


@pytest.fixture
def random_dataset():
    rng = np.random.default_rng(101)
    grid = np.sort(rng.uniform(0, 1, 25))
    grid[0], grid[-1] = 0.0, 1.0
    values = rng.standard_normal((6, 25)) * np.pi  # awkward decimals on purpose
    return FunctionalDataset(grid=grid, values=values, ids=[f"unit{i}" for i in range(6)])


class TestCurveCsv:
    def test_round_trip_bit_exact(self, tmp_path, random_dataset):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, random_dataset)
        back = read_curves_csv(path)
        np.testing.assert_array_equal(back.grid, random_dataset.grid)
        np.testing.assert_array_equal(back.values, random_dataset.values)
        assert back.ids == random_dataset.ids

    def test_write_read_write_stable(self, tmp_path, random_dataset):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves_csv(p1, random_dataset)
        write_curves_csv(p2, read_curves_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,0.0,0.5,0.75,1.0\nu0,1,2,3,4\nu1,1,2,3\n")
        with pytest.raises(DataError, match=":3"):
            read_curves_csv(path)
        path.write_text("t,0.0,0.5,0.75,1.0\nu0,1,2,oops,4\nu1,1,2,3,4\n")
        with pytest.raises(DataError, match=":2"):
            read_curves_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0.0,0.5,1.0\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_curves_csv(path)


class TestWeightsCsv:
    def test_dense_round_trip(self, tmp_path):
        w = exponential_weights(7, 0.5)
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="dense")
        back = read_weights_csv(path, layout="dense")
        np.testing.assert_array_equal(back.toarray(), w.toarray())
        assert back.normalized

    def test_triplet_round_trip(self, tmp_path):
        w = exponential_weights(5, 0.5)
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="triplet")
        back = read_weights_csv(path, layout="triplet")
        np.testing.assert_array_equal(back.toarray(), w.toarray())

    def test_triplet_repeated_entry_keeps_last_value(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("i,j,w\n0,1,0.25\n1,0,1\n0,1,0.5\n")
        np.testing.assert_array_equal(
            read_weights_csv(path, layout="triplet").toarray(), [[0, 0.5], [1, 0]]
        )

    def test_triplet_negative_index_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("i,j,w\n0,1,0.5\n1,2,0.5\n2,0,0.5\n-3,1,0.5\n")
        with pytest.raises(DataError, match=":5: indices must be nonnegative"):
            read_weights_csv(path, layout="triplet")

    def test_triplet_without_entries_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("i,j,w\n")
        with pytest.raises(DataError, match="no entries"):
            read_weights_csv(path, layout="triplet")

    def test_sparse_triplet_round_trip_never_densifies(self, tmp_path):
        n = 3000
        rng = np.random.default_rng(7)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        w = knn_weights(coords, 5)
        path = tmp_path / "w.csv"
        tracemalloc.start()
        try:
            write_weights_csv(path, w, layout="triplet")
            back = read_weights_csv(path, layout="triplet")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.issparse(back.matrix) and back.normalized
        assert (back.matrix != w.matrix).nnz == 0
        assert peak < n * n * 8 / 10  # a dense n x n array is 72 MB

    def test_non_square_dense_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0\n1,0,0\n")
        with pytest.raises(DataError, match="square"):
            read_weights_csv(path, layout="dense")

    def test_matrix_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 7)) / 3.0
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        np.testing.assert_array_equal(read_matrix_csv(path), mat)


class TestCoordsCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("id,lat,lon\nsao_paulo,-23.55,-46.63\nrio,-22.91,-43.17\n")
        ids, coords = read_coords_csv(path)
        assert ids == ["sao_paulo", "rio"]
        np.testing.assert_allclose(coords.lat, [-23.55, -22.91])

    def test_header_required(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("sao_paulo,-23.55,-46.63\n")
        with pytest.raises(DataError, match="header"):
            read_coords_csv(path)


class TestFitBundle:
    @pytest.fixture(scope="class")
    def small_fit(self):
        rng = np.random.default_rng(55)
        grid = np.arange(1, 42) / 41
        n = 30
        w = exponential_weights(n, 0.5)
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.5, rng, noise_sd=0.5)
        fit = fit_sfofr(y, x, w, options={"num_basis": 10})
        return fit, x, w

    def test_save_load_round_trip_preserves_prediction(self, tmp_path, small_fit):
        fit, x, w = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        loaded = load_fit_bundle(tmp_path / "bundle")
        np.testing.assert_array_equal(
            loaded.msar_fit.params.rho, fit.msar_fit.params.rho
        )
        np.testing.assert_array_equal(loaded.y_mean, fit.y_mean)
        pred_orig = predict(fit, x, w)
        pred_loaded = predict(loaded, x, w)
        np.testing.assert_array_equal(pred_orig.values, pred_loaded.values)

    def test_loaded_fitted_values_match(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle2")
        loaded = load_fit_bundle(tmp_path / "bundle2")
        np.testing.assert_array_equal(
            fitted_values(loaded).values, fitted_values(fit).values
        )

    def test_manifest_content(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        manifest = save_fit_bundle(fit, tmp_path / "bundle3")
        assert manifest["dims"]["k_y"] == fit.k_y
        assert manifest["dims"]["k_x"] == fit.k_x
        conv = manifest["convergence"]
        assert conv["objective"] == fit.msar_fit.objective
        assert "rho_spectral_radius" in manifest["diagnostics"]
        assert "contraction" in manifest["diagnostics"]

    def test_sparse_weights_bundle_round_trip_never_densifies(self, tmp_path):
        n = 2000
        rng = np.random.default_rng(56)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        w = knn_weights(coords, 5)
        grid = np.arange(1, 32) / 31
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.0, rng)
        fit = fit_sfofr(y, x, w, options={"num_basis": 8})
        tracemalloc.start()
        try:
            manifest = save_fit_bundle(fit, tmp_path / "bundle")
            loaded = load_fit_bundle(tmp_path / "bundle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest["weights_layout"] == "triplet"
        assert sp.issparse(loaded.weights.matrix)
        assert (loaded.weights.matrix != w.matrix).nnz == 0
        assert peak < n * n * 8 / 4  # a dense n x n array is 32 MB
        np.testing.assert_array_equal(
            fitted_values(loaded).values, fitted_values(fit).values
        )

    def test_bundle_without_layout_key_reads_dense(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "old")
        manifest = read_json(tmp_path / "old" / "manifest.json")
        assert manifest.pop("weights_layout") == "dense"
        write_json(tmp_path / "old" / "manifest.json", manifest)
        loaded = load_fit_bundle(tmp_path / "old")
        np.testing.assert_array_equal(loaded.weights.toarray(), fit.weights.toarray())

    def test_corrupt_balance_vector_rejected(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        manifest = save_fit_bundle(fit, tmp_path / "bad")
        assert manifest["weights_balanced"]
        write_matrix_csv(tmp_path / "bad" / "w_balance.csv", -np.ones(fit.weights.n))
        with pytest.raises(DataError, match="balance vector"):
            load_fit_bundle(tmp_path / "bad")

    def test_not_a_bundle_rejected(self, tmp_path):
        (tmp_path / "notbundle").mkdir()
        (tmp_path / "notbundle" / "manifest.json").write_text('{"format": "x"}')
        with pytest.raises(DataError):
            load_fit_bundle(tmp_path / "notbundle")
