"""Round-trip tests for the file formats and the fit bundle."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sfofr import (
    DataError,
    ParameterError,
    FunctionalDataset,
    GeoCoordinates,
    SpatialWeights,
    exponential_weights,
    fit_fofr_fpc,
    fit_sfofr,
    fitted_values,
    gen_predictors,
    gen_response,
    knn_weights,
    predict,
)
from sfofr.io import (
    BUNDLE_FILES,
    fmt,
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
    write_moran_csv,
    write_surface_csv,
    write_weights_csv,
)
from sfofr.msar import MsarFit
from sfofr.pipeline import SurfaceEstimate

# Values whose text is easy to get wrong: signed zero, the smallest subnormal,
# the smallest normal, the largest double, and decimals with no exact binary.
SPECIAL_FINITE = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
SPECIAL = SPECIAL_FINITE + [np.nan, np.inf, -np.inf]


def per_value_lines(rows):
    """The reference text: every value through fmt(), one row per line."""
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


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
        # blank lines count: the ragged row is physical line 4
        path.write_text("t,0.0,0.5,0.75,1.0\n\nu0,1,2,3,4\nu1,1,2,3\n")
        with pytest.raises(DataError, match=r"bad\.csv:4: expected 5 fields, got 4"):
            read_curves_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0.0,0.5,1.0\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_curves_csv(path)

    def test_decreasing_grid_names_the_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("t,0.0,0.5,0.25,1.0\nu0,1,2,3,4\nu1,5,6,7,8\n")
        with pytest.raises(ParameterError) as info:
            read_curves_csv(path)
        assert str(info.value) == f"{path}: grid must be strictly increasing"


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
        path.write_text("i,j,w\n0,1,0.5\n\n1,-2,0.5\n")
        with pytest.raises(DataError, match=":4: indices must be nonnegative"):
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

    def test_invalid_entry_names_the_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1\n-1,0\n")
        with pytest.raises(DataError) as info:
            read_weights_csv(path)
        assert str(info.value) == f"{path}: weight matrix has negative entries"
        path.write_text("i,j,w\n0,1,1\n1,1,0.5\n")
        with pytest.raises(DataError) as info:
            read_weights_csv(path, layout="triplet")
        assert str(info.value) == f"{path}: weight matrix diagonal must be exactly zero"

    def test_non_square_dense_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0\n1,0,0\n")
        with pytest.raises(DataError, match="square"):
            read_weights_csv(path, layout="dense")

    def test_ragged_dense_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0\n1,0,0\n1,0\n")
        with pytest.raises(DataError, match=r"w\.csv:3: expected 3 fields, got 2"):
            read_weights_csv(path, layout="dense")
        path.write_text("0,1,0\n1,0,0,0\n1,0,0\n")
        with pytest.raises(DataError, match=r"w\.csv:2: expected 3 fields, got 4"):
            read_matrix_csv(path)
        # blank lines count: the ragged row is physical line 4
        path.write_text("0,1,0\n\n1,0,0\n1,0\n")
        with pytest.raises(DataError, match=r"w\.csv:4: expected 3 fields, got 2"):
            read_weights_csv(path, layout="dense")

    def test_triplet_keeps_trailing_units_without_entries(self, tmp_path):
        n = 2000
        mat = sp.csr_array(([1.0, 1.0], ([0, 1], [1, 0])), shape=(n, n))
        w = SpatialWeights(matrix=mat, normalized=True)
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="triplet")
        assert path.read_text().splitlines()[-1] == f"{n - 1},{n - 1},0"
        back = read_weights_csv(path, layout="triplet")
        assert back.n == n and sp.issparse(back.matrix) and back.normalized
        assert (back.matrix != w.matrix).nnz == 0

    def test_triplet_names_last_unit_only_when_needed(self, tmp_path):
        path = tmp_path / "w.csv"
        write_weights_csv(path, exponential_weights(3, 0.5), layout="triplet")
        assert len(path.read_text().splitlines()) == 1 + 6

    def test_all_zero_triplet_round_trip(self, tmp_path):
        path = tmp_path / "w.csv"
        write_weights_csv(path, SpatialWeights(matrix=np.zeros((4, 4))), layout="triplet")
        assert path.read_text() == "i,j,w\n3,3,0\n"
        back = read_weights_csv(path, layout="triplet")
        assert back.n == 4 and back.matrix.nnz == 0 and back.normalized

    def test_matrix_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 7)) / 3.0
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        np.testing.assert_array_equal(read_matrix_csv(path), mat)


class TestNumericCodec:
    """Every writer gives the text of fmt() applied value by value, and every
    reader gives those doubles back bit for bit."""

    def test_matrix_writer(self, tmp_path):
        mat = np.array([SPECIAL, [-v for v in SPECIAL_FINITE] + [np.inf, np.nan, -np.inf]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        assert path.read_text() == per_value_lines(mat)
        assert bits(read_matrix_csv(path)) == bits(mat)

    def test_curve_writer(self, tmp_path):
        grid = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.0])
        values = np.array(SPECIAL_FINITE, ndmin=2).repeat(3, axis=0)
        values[1] *= -1
        values[2] = values[2, ::-1]
        data = FunctionalDataset(grid=grid, values=values, ids=["a", "b", "c"])
        path = tmp_path / "curves.csv"
        write_curves_csv(path, data)
        expected = per_value_lines([grid, *values])
        expected = "".join(
            f"{label},{line}\n"
            for label, line in zip(["t", "a", "b", "c"], expected.splitlines())
        )
        assert path.read_text() == expected
        back = read_curves_csv(path)
        assert bits(back.grid) == bits(grid) and bits(back.values) == bits(values)

    @pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb"], ids=["comma", "newline", "return"])
    def test_curve_writer_refuses_ids_the_reader_cannot_split(self, tmp_path, bad):
        data = FunctionalDataset(
            grid=np.linspace(0.0, 1.0, 4), values=np.zeros((3, 4)), ids=["a", bad, "c,d"]
        )
        path = tmp_path / "curves.csv"
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            write_curves_csv(path, data)
        assert not path.exists()

    @pytest.fixture
    def special_weights(self):
        # nonnegative, zero diagonal, and one huge value per row so row sums
        # stay finite; dense by density
        mat = np.array(
            [
                [0.0, 0.1, 1.7976931348623157e308],
                [5e-324, -0.0, 1 / 3],
                [2.2250738585072014e-308, -0.0, 0.0],
            ]
        )
        return mat, SpatialWeights(matrix=mat)

    def test_dense_weights_writer(self, tmp_path, special_weights):
        mat, w = special_weights
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="dense")
        assert path.read_text() == per_value_lines(mat)
        assert bits(read_weights_csv(path, layout="dense").toarray()) == bits(mat)

    def test_triplet_weights_writer(self, tmp_path, special_weights):
        mat, w = special_weights
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="triplet")
        coo = sp.coo_array(mat)  # signed zeros are not stored entries
        assert path.read_text() == "i,j,w\n" + "".join(
            f"{i},{j},{fmt(v)}\n" for i, j, v in zip(coo.row, coo.col, coo.data)
        )
        back = read_weights_csv(path, layout="triplet").toarray()
        assert bits(back) == bits(coo.toarray())

    def test_surface_writer(self, tmp_path):
        ugrid = np.array([-0.0, 5e-324, 1 / 3])
        tgrid = np.array([2.2250738585072014e-308, 0.1, 1.0])
        values = np.array(SPECIAL_FINITE[:3] + SPECIAL_FINITE[3:] + [-0.1, -1 / 3, 1.0])
        values = values.reshape(3, 3)
        path = tmp_path / "surface.csv"
        write_surface_csv(path, SurfaceEstimate(ugrid=ugrid, tgrid=tgrid, values=values))
        triples = [(u, t, values[a, b]) for a, u in enumerate(ugrid) for b, t in enumerate(tgrid)]
        text = path.read_text()
        assert text == "u,t,value\n" + per_value_lines(triples)
        body = tmp_path / "body.csv"
        body.write_text(text.split("\n", 1)[1])
        assert bits(read_matrix_csv(body)) == bits(triples)

    def test_surface_writer_bytes_match_per_row_format(self, tmp_path):
        ugrid = np.array([0.0, 0.01, 0.3, 1 / 3, 0.9, 1.0])
        tgrid = np.array([0.0, 0.25, 0.7, 1.0])
        values = np.resize([-0.0, 5e-324, 1e308, -1 / 3, 0.1], (6, 4))
        path = tmp_path / "surface.csv"
        write_surface_csv(path, SurfaceEstimate(ugrid=ugrid, tgrid=tgrid, values=values))
        rows = [
            "%.17g,%.17g,%.17g\n" % (u, t, values[a, b])
            for a, u in enumerate(ugrid) for b, t in enumerate(tgrid)
        ]
        assert path.read_bytes() == ("u,t,value\n" + "".join(rows)).encode()

    def test_moran_writer(self, tmp_path):
        tgrid = np.linspace(0.0, 1.0, len(SPECIAL))
        path = tmp_path / "moran.csv"
        write_moran_csv(path, tgrid, SPECIAL)
        assert path.read_text() == "t,value\n" + per_value_lines(zip(tgrid, SPECIAL))

    def test_junk_token_names_its_physical_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0\n\n1,0,x\n0,1,0\n")
        with pytest.raises(DataError, match=r"w\.csv:3: cannot parse number 'x'"):
            read_weights_csv(path, layout="dense")
        path.write_text("t,0.0,0.5,0.75,1.0\nu0,1,2,3,4\n\n\nu1,1,2,,4\n")
        with pytest.raises(DataError, match=r"w\.csv:5: cannot parse number ''"):
            read_curves_csv(path)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n#1,0\n")
        with pytest.raises(DataError, match=r"m\.csv:2: cannot parse number '#1'"):
            read_matrix_csv(path)
        path.write_text("0,1\n1,0 # note\n")
        with pytest.raises(DataError, match=r"m\.csv:2: cannot parse number '0 # note'"):
            read_matrix_csv(path)

    def test_python_only_spelling_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\n0,1_000\n1,0\n")
        with pytest.raises(DataError, match=r"m\.csv:3: .*1_000"):
            read_matrix_csv(path)

    def test_float_triplet_index_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("i,j,w\n0,1,0.5\n\n3.0,0,0.5\n")
        with pytest.raises(DataError, match=r"w\.csv:4: indices must be integers"):
            read_weights_csv(path, layout="triplet")


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

    def test_out_of_range_latitude_names_the_file(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("id,lat,lon\na,-23.55,-46.63\nb,95,-43.17\n")
        with pytest.raises(ParameterError) as info:
            read_coords_csv(path)
        assert str(info.value) == f"{path}: latitudes must lie in [-90, 90]"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, bad):
        path = tmp_path / "coords.csv"
        path.write_text(f"id,lat,lon\na,-23.55,-46.63\n\nb,-22.91,{bad}\n")
        with pytest.raises(DataError, match=r"coords\.csv:4: coordinates must be finite"):
            read_coords_csv(path)


def small_data():
    """n=30 curves on an exponential lattice W (with its balance vector)."""
    rng = np.random.default_rng(55)
    grid = np.arange(1, 42) / 41
    n = 30
    w = exponential_weights(n, 0.5)
    x = gen_predictors(n, grid, rng)
    y = gen_response(x, w, 0.5, rng, noise_sd=0.5)
    return y, x, w


def assert_binary_weights(directory):
    assert (directory / "w_train.npy").exists()
    assert not (directory / "w_train.csv").exists()
    assert "weights_layout" not in read_json(directory / "manifest.json")


def save_with(path, rec, field, k, value):
    """Save a copy of record array ``rec`` with ``rec[field][k] = value``."""
    rec = rec.copy()
    rec[field][k] = value
    np.save(path, rec)


class TestFitBundle:
    @pytest.fixture(scope="class")
    def small_fit(self):
        y, x, w = small_data()
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
            save_fit_bundle(fit, tmp_path / "bundle")
            loaded = load_fit_bundle(tmp_path / "bundle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_binary_weights(tmp_path / "bundle")
        assert sp.issparse(loaded.weights.matrix)
        assert (loaded.weights.matrix != w.matrix).nnz == 0
        assert peak < n * n * 8 / 4  # a dense n x n array is 32 MB
        np.testing.assert_array_equal(
            fitted_values(loaded).values, fitted_values(fit).values
        )

    def test_baseline_bundle_round_trip(self, tmp_path):
        rng = np.random.default_rng(57)
        grid = np.arange(1, 32) / 31
        x = gen_predictors(20, grid, rng)
        y = gen_response(x, exponential_weights(20, 0.5), 0.5, rng, noise_sd=0.5)
        fit = fit_fofr_fpc(y, x, options={"num_basis": 8})
        assert sp.issparse(fit.weights.matrix) and fit.weights.matrix.nnz == 0
        save_fit_bundle(fit, tmp_path / "baseline")
        loaded = load_fit_bundle(tmp_path / "baseline")
        assert_binary_weights(tmp_path / "baseline")
        assert sp.issparse(loaded.weights.matrix)
        assert loaded.weights.n == 20 and loaded.weights.matrix.nnz == 0
        np.testing.assert_array_equal(
            fitted_values(loaded).values, fitted_values(fit).values
        )

    def test_loaded_weights_keep_storage_and_bits(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        loaded = load_fit_bundle(tmp_path / "bundle")
        assert isinstance(loaded.weights.matrix, np.ndarray)
        assert bits(loaded.weights.matrix) == bits(fit.weights.matrix)
        assert bits(loaded.weights.balance) == bits(fit.weights.balance)
        assert loaded.weights.kind == fit.weights.kind
        assert loaded.weights.normalized == fit.weights.normalized

    def test_repeated_saves_write_identical_bytes(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        for name in ("a", "b"):
            save_fit_bundle(fit, tmp_path / name)
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("version", [1, 99, None])
    def test_unknown_version_rejected(self, tmp_path, small_fit, version):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        manifest = read_json(tmp_path / "bundle" / "manifest.json")
        if version is None:
            del manifest["version"]
        else:
            manifest["version"] = version
        write_json(tmp_path / "bundle" / "manifest.json", manifest)
        with pytest.raises(DataError, match=f"{re.escape(str(tmp_path / 'bundle'))}.*{version}"):
            load_fit_bundle(tmp_path / "bundle")

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda path, rec: path.write_bytes(path.read_bytes()[:200]), id="truncated"),
            pytest.param(
                lambda path, rec: np.save(path, np.array([{"i": 0}], dtype=object)), id="object"
            ),
            pytest.param(
                lambda path, rec: np.save(path, np.zeros((rec.size, 3))), id="float-dtype"
            ),
            pytest.param(lambda path, rec: np.save(path, rec.reshape(-1, 1)), id="two-dim"),
            pytest.param(lambda path, rec: save_with(path, rec, "i", 0, -1), id="negative-index"),
            pytest.param(
                lambda path, rec: save_with(path, rec, "j", 0, rec["j"].max() + 1), id="index-n"
            ),
            pytest.param(lambda path, rec: save_with(path, rec, "w", 0, -1.0), id="negative-weight"),
            pytest.param(lambda path, rec: path.unlink(), id="missing"),
        ],
    )
    def test_bad_weights_file_rejected(self, tmp_path, small_fit, corrupt):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        path = tmp_path / "bundle" / "w_train.npy"
        corrupt(path, np.load(path))
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_fit_bundle(tmp_path / "bundle")

    def test_fit_without_options_saves_the_ridge_predict_uses(self, tmp_path, small_fit):
        fit, x_new, w_new = small_fit
        bare = dataclasses.replace(fit, options={})
        save_fit_bundle(bare, tmp_path / "bundle")
        back = load_fit_bundle(tmp_path / "bundle")
        assert back.options == {"ridge": 1e-8}
        np.testing.assert_array_equal(
            predict(back, x_new, w_new).values, predict(bare, x_new, w_new).values
        )

    def test_unconverged_load_warns_at_caller(self, tmp_path):
        y, x, w = small_data()
        with pytest.warns(UserWarning, match="did not converge"):
            fit = fit_sfofr(y, x, w, options={"num_basis": 10, "msar_max_iter": 1})
        save_fit_bundle(fit, tmp_path / "bundle")
        with pytest.warns(UserWarning, match="did not converge") as record:
            load_fit_bundle(tmp_path / "bundle")
        assert [r.filename for r in record] == [__file__]

    def test_corrupt_balance_vector_rejected(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        manifest = save_fit_bundle(fit, tmp_path / "bad")
        assert manifest["weights_balanced"]
        n = fit.weights.n
        # not positive; positive but d_i w_ij != d_j w_ji
        for bad in (-np.ones(n), np.linspace(1, 5, n)):
            write_matrix_csv(tmp_path / "bad" / "w_balance.csv", bad)
            with pytest.raises(DataError, match="balance vector"):
                load_fit_bundle(tmp_path / "bad")

    def test_bad_balance_vector_blames_its_own_file(self, tmp_path, small_fit):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bund")
        bad = np.array(fit.weights.balance)
        bad[3] = -bad[3]
        write_matrix_csv(tmp_path / "bund" / "w_balance.csv", bad)
        with pytest.raises(DataError, match="balance vector") as info:
            load_fit_bundle(tmp_path / "bund")
        message = str(info.value)
        assert message.startswith(f"{tmp_path / 'bund' / 'w_balance.csv'}: ")
        assert "w_train" not in message

    def test_not_a_bundle_rejected(self, tmp_path):
        (tmp_path / "notbundle").mkdir()
        (tmp_path / "notbundle" / "manifest.json").write_text('{"format": "x"}')
        with pytest.raises(DataError):
            load_fit_bundle(tmp_path / "notbundle")

    @pytest.mark.parametrize(
        "section, key",
        [
            ("convergence", "tolerance"),
            ("convergence", "objective_trace"),
            ("dims", "num_basis"),
            ("predictor_decomposition", "eigenvalues"),
            (None, "weights_kind"),
            ("options", "ridge"),
        ],
    )
    def test_missing_manifest_key_names_key_and_bundle(self, tmp_path, small_fit, section, key):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        manifest = read_json(tmp_path / "bundle" / "manifest.json")
        del (manifest[section] if section else manifest)[key]
        write_json(tmp_path / "bundle" / "manifest.json", manifest)
        bundle = re.escape(str(tmp_path / "bundle"))
        with pytest.raises(DataError, match=f"{bundle}: manifest.json lacks key '{key}'"):
            load_fit_bundle(tmp_path / "bundle")

    @pytest.mark.parametrize(
        "key, corrupt",
        [
            ("dims", lambda m: []),
            ("convergence", lambda m: [1]),
            ("options", lambda m: [1]),
            ("weights_balanced", lambda m: "yes"),
            ("dims.degree", lambda m: 3.0),
            ("dims.n", lambda m: True),
            ("dims.num_basis", lambda m: m["dims"]["num_basis"] - 1),
            ("dims.n", lambda m: m["dims"]["n"] + 1),
            ("dims.k_y", lambda m: m["dims"]["k_y"] + 1),
            ("dims.k_x", lambda m: m["dims"]["k_x"] - 1),
            ("convergence.objective", lambda m: "abc"),
            ("convergence.objective_trace", lambda m: 1.0),
            ("response_decomposition.total_variance", lambda m: "x"),
            ("options.ridge", lambda m: "abc"),
        ],
        ids=["dims-list", "convergence-list", "options-list", "balanced-str", "degree-float",
             "n-bool", "num-basis-short", "n-long", "k-y-long", "k-x-short", "objective-str",
             "trace-float", "total-variance-str", "ridge-str"],
    )
    def test_malformed_manifest_value_names_key_and_bundle(self, tmp_path, small_fit, key, corrupt):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        manifest = read_json(tmp_path / "bundle" / "manifest.json")
        section, _, field = key.rpartition(".")
        (manifest[section] if section else manifest)[field] = corrupt(manifest)
        write_json(tmp_path / "bundle" / "manifest.json", manifest)
        bundle = re.escape(str(tmp_path / "bundle"))
        with pytest.raises(DataError, match=f"^{bundle}: manifest.json key '{key}' "):
            load_fit_bundle(tmp_path / "bundle")

    @pytest.mark.parametrize("text", ["[1, 2]\n", '"sfofr-fit-bundle"\n', "null\n"])
    def test_manifest_not_an_object_rejected(self, tmp_path, text):
        (tmp_path / "bundle").mkdir()
        (tmp_path / "bundle" / "manifest.json").write_text(text)
        with pytest.raises(DataError, match=re.escape(str(tmp_path / "bundle"))):
            load_fit_bundle(tmp_path / "bundle")


def knn_fit():
    """A fit on n=300 KNN weights, stored as CSR, with no balance vector."""
    rng = np.random.default_rng(58)
    n = 300
    coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
    w = knn_weights(coords, 5)
    x = gen_predictors(n, np.arange(1, 32) / 31, rng)
    y = gen_response(x, w, 0.5, rng, noise_sd=0.5)
    return fit_sfofr(y, x, w, options={"num_basis": 8})


class TestBundleRoundTrip:
    """save -> load -> save, for a lattice W (with its balance vector), a
    sparse KNN W and the baseline (all-zero W)."""

    @pytest.fixture(scope="class", params=["lattice", "knn", "baseline"])
    def fit(self, request):
        if request.param == "knn":
            fit = knn_fit()
        else:
            y, x, w = small_data()
            options = {"num_basis": 10}
            if request.param == "lattice":
                fit = fit_sfofr(y, x, w, options=options)
            else:
                fit = fit_fofr_fpc(y, x, options=options)
        # a nonzero warm_iterations, so a loader that drops it is caught
        return dataclasses.replace(
            fit, msar_fit=dataclasses.replace(fit.msar_fit, warm_iterations=3)
        )

    def test_resave_writes_identical_bytes(self, tmp_path, fit):
        save_fit_bundle(fit, tmp_path / "a")
        save_fit_bundle(load_fit_bundle(tmp_path / "a"), tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        balance = ["w_balance.csv"] if fit.weights.balance is not None else []
        assert files == sorted([*BUNDLE_FILES, *balance, "manifest.json"])
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_loaded_fit_equals_saved_field_by_field(self, tmp_path, fit):
        save_fit_bundle(fit, tmp_path / "bundle")
        loaded = load_fit_bundle(tmp_path / "bundle")
        for field in dataclasses.fields(MsarFit):
            saved, got = getattr(fit.msar_fit, field.name), getattr(loaded.msar_fit, field.name)
            if field.name == "params":
                for name in ("rho", "b", "prec_chol"):
                    assert bits(getattr(got, name)) == bits(getattr(saved, name))
            else:
                # repr tells float from np.float64, and nan from nan
                assert (type(got), repr(got)) == (type(saved), repr(saved)), field.name
        for name in ("y_mean", "x_mean", "y_grid", "x_grid"):
            assert bits(getattr(loaded, name)) == bits(getattr(fit, name))
        for side in ("response_decomp", "predictor_decomp"):
            saved, got = getattr(fit, side), getattr(loaded, side)
            assert got.kind == saved.kind and got.total_variance == saved.total_variance
            for name in ("chi", "scores", "eigenvalues", "variance_explained"):
                assert bits(getattr(got, name)) == bits(getattr(saved, name))
        weights = loaded.weights
        assert type(weights.matrix) is type(fit.weights.matrix)
        assert bits(weights.toarray()) == bits(fit.weights.toarray())
        assert (weights.normalized, weights.kind) == (fit.weights.normalized, fit.weights.kind)
        if fit.weights.balance is None:
            assert weights.balance is None
        else:
            assert bits(weights.balance) == bits(fit.weights.balance)
        assert loaded.options == fit.options
