"""Round-trip tests for the file formats and the fit bundle."""

import dataclasses
import os
import re
import stat
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from sfofr import (
    DataError,
    ParameterError,
    FunctionalDataset,
    GeoCoordinates,
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
    knn_weights,
    predict,
)
from sfofr import io as sio
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

    def test_sparse_triplet_round_trip_never_densifies(self, tmp_path, traced_peak):
        n = 3000
        rng = np.random.default_rng(7)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        w = knn_weights(coords, 5)
        path = tmp_path / "w.csv"

        def round_trip():
            write_weights_csv(path, w, layout="triplet")
            return read_weights_csv(path, layout="triplet")

        back, peak = traced_peak(round_trip)
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


def joined(rows):
    """A file's text as the whole-file writer gave it: "\n".join(rows) + "\n"."""
    return "\n".join(rows) + "\n"


def fmt_row(values):
    return ",".join(fmt(v) for v in values)


def whole_triplets(weights):
    """W's nonzero triplets built from W whole, as one record array."""
    coo = sp.coo_array(weights.matrix)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    rec = np.empty(coo.nnz, dtype=sio._TRIPLET)
    rec["i"], rec["j"], rec["w"] = coo.row, coo.col, coo.data
    return rec


def banded_weights():
    """Dense lattice W (several text bands), a dense W with no balance vector
    as a weights CSV gives it, CSR KNN W, a W whose last unit has no entry,
    and an all-zero W."""
    rng = np.random.default_rng(8)
    coords = GeoCoordinates(lat=rng.uniform(-33, -3, 300), lon=rng.uniform(-73, -35, 300))
    trailing = sp.csr_array(([0.5, 1.0, 0.5], ([0, 1, 0], [1, 0, 2])), shape=(5, 5))
    custom = rng.uniform(size=(300, 300))
    np.fill_diagonal(custom, 0.0)
    return {
        "lattice": inverse_distance_weights(300),
        "custom": SpatialWeights(matrix=custom),
        "knn": knn_weights(coords, 5),
        "trailing": SpatialWeights(matrix=trailing),
        "zero": SpatialWeights(matrix=np.zeros((4, 4))),
    }


MiB = 2**20


class TestBandedCodec:
    """Files are written and read in bounded row bands, with the bytes,
    arrays and messages of the whole-file codec."""

    @pytest.fixture(params=["default", "tiny"])
    def band(self, request, monkeypatch):
        if request.param == "tiny":  # many bands, and rows wider than a band
            monkeypatch.setattr(sio, "_TEXT_BAND", 7)
            monkeypatch.setattr(sio, "_READ_BYTES", 16)

    @pytest.mark.parametrize("name", ["lattice", "knn", "trailing", "zero"])
    def test_weights_writers_match_whole_file_text(self, tmp_path, band, name):
        w = banded_weights()[name]
        path = tmp_path / "w.csv"
        write_weights_csv(path, w, layout="dense")
        assert path.read_text() == joined([fmt_row(row) for row in w.toarray()])
        assert bits(read_weights_csv(path, layout="dense").toarray()) == bits(w.toarray())
        write_weights_csv(path, w, layout="triplet")
        rec = whole_triplets(w)
        rows = ["i,j,w"] + [f"{i},{j},{fmt(v)}" for i, j, v in rec.tolist()]
        last = w.n - 1
        if last not in rec["i"] and last not in rec["j"]:
            rows.append(f"{last},{last},0")
        assert path.read_text() == joined(rows)
        assert bits(read_weights_csv(path, layout="triplet").toarray()) == bits(w.toarray())

    @pytest.mark.parametrize("name", ["lattice", "custom", "knn", "zero"])
    def test_bundle_weights_match_np_save_of_their_layout(self, tmp_path, band, name):
        # a dense W as its array, a CSR W as all its triplets in one record array
        w = banded_weights()[name]
        assert sp.issparse(w.matrix) == (name in ("knn", "zero"))
        sio._write_weights_npy(tmp_path / "w.npy", w)
        whole = whole_triplets(w) if sp.issparse(w.matrix) else w.matrix
        np.save(tmp_path / "ref.npy", whole, allow_pickle=False)
        assert (tmp_path / "w.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()

    @pytest.mark.parametrize("ids", [None, [f"unit {i}" for i in range(400)]])
    def test_curve_writer_matches_whole_file_text(self, tmp_path, band, ids):
        rng = np.random.default_rng(9)
        data = FunctionalDataset(
            grid=np.linspace(0.0, 1.0, 101), values=rng.standard_normal((400, 101)), ids=ids
        )
        path = tmp_path / "curves.csv"
        write_curves_csv(path, data)
        labels = ["t", *(ids or map(str, range(400)))]
        rows = [fmt_row(row) for row in [data.grid, *data.values]]
        assert path.read_text() == joined([f"{u},{row}" for u, row in zip(labels, rows)])
        back = read_curves_csv(path)
        assert back.ids == tuple(labels[1:]) and bits(back.values) == bits(data.values)

    def test_tidy_and_matrix_writers_match_whole_file_text(self, tmp_path, band):
        rng = np.random.default_rng(10)
        ugrid, tgrid = np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 101)
        values = rng.standard_normal((201, 101))
        path = tmp_path / "out.csv"
        write_surface_csv(path, SurfaceEstimate(ugrid=ugrid, tgrid=tgrid, values=values))
        triples = [(u, t, values[a, b]) for a, u in enumerate(ugrid) for b, t in enumerate(tgrid)]
        assert path.read_text() == joined(["u,t,value"] + [fmt_row(r) for r in triples])
        write_moran_csv(path, tgrid, values[0])
        moran = [fmt_row(r) for r in zip(tgrid, values[0])]
        assert path.read_text() == joined(["t,value"] + moran)
        for mat in (values, values[0], np.empty((0, 3)), np.empty((3, 0))):
            write_matrix_csv(path, mat)
            assert path.read_text() == joined([fmt_row(r) for r in np.atleast_2d(mat)])
        sio.write_lines(path, ["a,b", "", "c"])
        assert path.read_text() == joined(["a,b", "", "c"])

    def test_dense_weights_memory_is_bounded(self, tmp_path, traced_peak):
        w = inverse_distance_weights(1000)
        path = tmp_path / "w.csv"
        # whole-file text peaked at 65 MiB writing and 43 MiB reading
        assert traced_peak(lambda: write_weights_csv(path, w, layout="dense"))[1] <= 8 * MiB
        read_peak = traced_peak(lambda: read_weights_csv(path, layout="dense"))[1]
        assert read_peak <= w.matrix.nbytes + 4 * MiB  # W itself is 7.6 MiB

    def test_curve_memory_is_bounded(self, tmp_path, traced_peak):
        rng = np.random.default_rng(11)
        data = FunctionalDataset(grid=np.linspace(0.0, 1.0, 101), values=rng.random((5570, 101)))
        path = tmp_path / "curves.csv"
        # whole-file text peaked at 44 MiB writing and 22 MiB reading
        assert traced_peak(lambda: write_curves_csv(path, data))[1] <= 8 * MiB
        assert traced_peak(lambda: read_curves_csv(path))[1] <= data.values.nbytes + 4 * MiB

    @pytest.mark.parametrize("blank", ["", "   ", "\t", " \t "])
    def test_line_numbers_count_blank_and_whitespace_lines(self, tmp_path, band, blank):
        path = tmp_path / "w.csv"
        path.write_text(f"0,1,0\n{blank}\n{blank}\n1,0,x\n0,1,0\n")
        with pytest.raises(DataError, match=r"w\.csv:4: cannot parse number 'x'"):
            read_weights_csv(path, layout="dense")
        path.write_text(f"{blank}\n0,1,0\n{blank}\n1,0\n")
        with pytest.raises(DataError, match=r"w\.csv:4: expected 3 fields, got 2"):
            read_matrix_csv(path)
        path.write_text(f"i,j,w\n{blank}\n0,1,1\n{blank}\n1,-1,1\n")
        with pytest.raises(DataError, match=r"w\.csv:5: indices must be nonnegative"):
            read_weights_csv(path, layout="triplet")

    def test_crlf_and_cr_line_ends(self, tmp_path, band):
        path = tmp_path / "curves.csv"
        path.write_bytes(b"t,0,0.5,0.75,1\r\nu0,1,2,3,4\r\n\r\nu1,5,6,7,8\r\n")
        back = read_curves_csv(path)
        assert back.ids == ("u0", "u1") and back.values.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
        path.write_bytes(b"0,1\r1,0\r")
        assert read_matrix_csv(path).tolist() == [[0, 1], [1, 0]]
        path.write_bytes(b"0,1,0\r\n\r\n1,0\r\n")
        with pytest.raises(DataError, match=r"curves\.csv:3: expected 3 fields, got 2"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_ids_holding_other_line_breaks_read_back(self, tmp_path, band, sep):
        # only "\n", "\r" and "\r\n" end a line; Unicode's other breaks stay in it
        ids = [f"a{sep}b", sep, f"{sep}{sep}c"]
        data = FunctionalDataset(
            grid=np.linspace(0.0, 1.0, 4), values=np.arange(12.0).reshape(3, 4), ids=ids
        )
        path = tmp_path / "curves.csv"
        write_curves_csv(path, data)
        back = read_curves_csv(path)
        assert back.ids == tuple(ids) and bits(back.values) == bits(data.values)
        path.write_text(f"0,1,0{sep}1\n0,1,x\n")
        with pytest.raises(DataError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:1: cannot parse number {f'0{sep}1'!r}"

    def test_first_bad_value_is_named_in_file_order(self, tmp_path, band):
        path = tmp_path / "m.csv"
        path.write_text("0,1_000\n0,x\n")  # numpy alone rejects 1_000; both reject x
        with pytest.raises(DataError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:1: could not convert string '1_000' to float64"
        path.write_text("0,1\n" * 50 + "\n0,x\n0,1_000\n")  # past the first batch
        with pytest.raises(DataError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:52: cannot parse number 'x'"
        path.write_text("i,j,w\n0,1,1_0\n1.5,0,1\n")
        with pytest.raises(DataError) as info:
            read_weights_csv(path, layout="triplet")
        assert str(info.value) == f"{path}:2: could not convert string '1_0' to float64"
        path.write_text("i,j,w\n0,1,1\n\n1,1_0,1\n1.5,0,1\n")
        with pytest.raises(DataError) as info:
            read_weights_csv(path, layout="triplet")
        assert str(info.value) == f"{path}:4: could not convert string '1_0' to int64"

    def test_ragged_row_is_named_before_any_bad_value(self, tmp_path, band):
        path = tmp_path / "w.csv"
        path.write_text("0,1,0\n1,0,x\n\n0,1\n")
        with pytest.raises(DataError, match=r"w\.csv:4: expected 3 fields, got 2"):
            read_weights_csv(path, layout="dense")
        # far past the bad value, beyond any batch of lines read at once
        path.write_text("1,0,x\n" + "0,1,0\n" * 60000 + "0,1\n")
        with pytest.raises(DataError, match=r"w\.csv:60002: expected 3 fields, got 2"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["", "\n", " \n\t\n"])
    def test_empty_file_messages(self, tmp_path, band, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        for read, message in [
            (read_curves_csv, f"{path}: empty curve file"),
            (read_weights_csv, f"{path}: empty weights file"),
            (partial(read_weights_csv, layout="triplet"), f"{path}: empty weights file"),
            (read_coords_csv, f"{path}:1: coordinate files need an 'id,lat,lon' header"),
        ]:
            with pytest.raises(DataError) as info:
                read(path)
            assert str(info.value) == message
        assert read_matrix_csv(path).shape == (0, 0)
        path.write_text(f"i,j,w\n{text}")
        with pytest.raises(DataError, match="triplet weights file has no entries"):
            read_weights_csv(path, layout="triplet")
        with pytest.raises(DataError, match=f"cannot read {re.escape(str(tmp_path))}"):
            read_matrix_csv(tmp_path / "missing.csv")

    def test_header_errors_come_first_and_name_their_line(self, tmp_path, band):
        path = tmp_path / "h.csv"
        path.write_text("\n \nx,0,1\nu0,1\n")  # a bad header, then a ragged row
        for read, message in [
            (read_curves_csv, "3: curve files must start with a 't' header row"),
            (partial(read_weights_csv, layout="triplet"),
             "3: triplet weights need an 'i,j,w' header"),
            (read_coords_csv, "3: coordinate files need an 'id,lat,lon' header"),
        ]:
            with pytest.raises(DataError) as info:
                read(path)
            assert str(info.value) == f"{path}:{message}"
        with pytest.raises(ParameterError, match="unknown weights layout 'csr'"):
            read_weights_csv(path, layout="csr")
        path.write_text(" \n")  # an empty file is named before the layout
        with pytest.raises(DataError, match="empty weights file"):
            read_weights_csv(path, layout="csr")


def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        with open(tmp_path / "open.txt", "w"):
            pass
        write_matrix_csv(tmp_path / "m.csv", np.eye(2))
        write_json(tmp_path / "manifest.json", {"a": 1})
        sio._write_weights_npy(tmp_path / "w.npy", banded_weights()["trailing"])
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["open.txt", "m.csv", "manifest.json", "w.npy"], 0o644)


def test_writes_never_set_the_umask(tmp_path, monkeypatch):
    # setting the umask, even to read it, changes it for every thread a while
    def umask(mask):
        raise AssertionError("os.umask called during a write")

    monkeypatch.setattr(os, "umask", umask)
    write_matrix_csv(tmp_path / "m.csv", np.eye(2))
    write_json(tmp_path / "manifest.json", {"a": 1})
    for name in ("lattice", "knn"):
        sio._write_weights_npy(tmp_path / f"{name}.npy", banded_weights()[name])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "knn.npy", "lattice.npy", "m.csv", "manifest.json"
    ]


def test_taken_temp_name_is_skipped(tmp_path, monkeypatch):
    draws = iter([bytes(6), bytes(6), b"\x01" * 6])
    monkeypatch.setattr(os, "urandom", lambda size: next(draws))
    taken = tmp_path / f".m.csv.{bytes(6).hex()}.tmp"
    taken.write_text("not ours")
    write_matrix_csv(tmp_path / "m.csv", np.eye(2))
    assert taken.read_text() == "not ours"
    assert (tmp_path / "m.csv").read_text() == "1,0\n0,1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "m.csv"]


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


def save_zip(path, arr):
    """Save ``arr`` to ``path`` as an ``.npz`` archive, whatever the suffix."""
    with path.open("wb") as handle:
        np.savez(handle, w=arr)


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

    def test_sparse_weights_bundle_round_trip_never_densifies(self, tmp_path, traced_peak):
        n = 2000
        rng = np.random.default_rng(56)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, n), lon=rng.uniform(-73, -35, n))
        w = knn_weights(coords, 5)
        grid = np.arange(1, 32) / 31
        x = gen_predictors(n, grid, rng)
        y = gen_response(x, w, 0.0, rng)
        fit = fit_sfofr(y, x, w, options={"num_basis": 8})

        def round_trip():
            save_fit_bundle(fit, tmp_path / "bundle")
            return load_fit_bundle(tmp_path / "bundle")

        loaded, peak = traced_peak(round_trip)
        assert_binary_weights(tmp_path / "bundle")
        assert sp.issparse(loaded.weights.matrix)
        assert (loaded.weights.matrix != w.matrix).nnz == 0
        assert peak < n * n * 8 / 4  # a dense n x n array is 32 MB
        np.testing.assert_array_equal(
            fitted_values(loaded).values, fitted_values(fit).values
        )

    def test_dense_weights_load_holds_w_and_little_more(self, tmp_path, traced_peak):
        # the whole record array and a copy of each field peaked at 11.4 MiB
        data = generate(SimConfig(n_train=500, n_test=2, alpha=0.5, seed=3, grid_size=31))
        w = SpatialWeights(matrix=data.weights.toarray(), normalized=True)
        fit = fit_sfofr(data.y_data, data.x_data, w, options={"num_basis": 8})
        save_fit_bundle(fit, tmp_path / "bundle")
        loaded, peak = traced_peak(lambda: load_fit_bundle(tmp_path / "bundle"))
        assert isinstance(loaded.weights.matrix, np.ndarray)
        assert loaded.weights.matrix.tobytes() == w.matrix.tobytes()
        assert peak <= w.matrix.nbytes + 2**20  # W and a band of records

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_repeated_weights_entries_are_summed(self, tmp_path, storage):
        rng = np.random.default_rng(57)
        coords = GeoCoordinates(lat=rng.uniform(-33, -3, 60), lon=rng.uniform(-73, -35, 60))
        w = exponential_weights(30, 0.5) if storage == "dense" else knn_weights(coords, 4)
        rec = whole_triplets(w)
        rec["w"][0] /= 2  # and the other half repeated last: halves sum back exactly
        np.save(tmp_path / "w.npy", np.concatenate([rec, rec[:1]]))
        back = sio._read_weights_npy(tmp_path / "w.npy", w.n, normalized=True, kind=w.kind).matrix
        assert type(back) is type(w.matrix)

        def arrays(m):
            return (m.data, m.indices, m.indptr) if sp.issparse(m) else (m,)

        for got, want in zip(arrays(back), arrays(w.matrix)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    @pytest.fixture(scope="class")
    def knn_bundle_fit(self):
        return knn_fit()

    @pytest.mark.parametrize(
        "layout, corrupt",
        [
            *(pytest.param(layout, corrupt, id=f"{layout}-{name}")
              for layout in ("dense", "csr") for name, corrupt in [
                  ("truncated", lambda path, a: path.write_bytes(path.read_bytes()[:200])),
                  ("object", lambda path, a: np.save(path, np.array([{"i": 0}], dtype=object))),
                  ("zip", lambda path, a: save_zip(path, a)),
                  ("missing", lambda path, a: path.unlink()),
              ]),
            # a dense W's n x n array
            pytest.param("dense", lambda path, w: np.save(path, w[:, :-1]), id="dense-wrong-shape"),
            pytest.param("dense", lambda path, w: np.save(path, w.ravel()), id="dense-flat"),
            pytest.param(
                "dense", lambda path, w: np.save(path, w.astype(np.float32)), id="dense-float32"
            ),
            pytest.param(
                "dense", lambda path, w: save_with(path, w, 0, 1, np.nan), id="dense-non-finite"
            ),
            pytest.param(
                "dense", lambda path, w: save_with(path, w, 0, 1, -1.0), id="dense-negative-weight"
            ),
            pytest.param(
                "dense", lambda path, w: save_with(path, w, 0, 0, 0.5), id="dense-diagonal"
            ),
            # a CSR W's (i, j, w) records
            pytest.param(
                "csr", lambda path, rec: np.save(path, np.zeros((rec.size, 3))), id="csr-float-dtype"
            ),
            pytest.param(
                "csr", lambda path, rec: np.save(path, rec.reshape(-1, 1)), id="csr-two-dim"
            ),
            pytest.param(
                "csr", lambda path, rec: save_with(path, rec, "i", 0, -1), id="csr-negative-index"
            ),
            pytest.param(
                "csr", lambda path, rec: save_with(path, rec, "j", 0, rec["i"].max() + 1),
                id="csr-index-n",
            ),
            pytest.param(
                "csr", lambda path, rec: save_with(path, rec, "w", 0, np.inf), id="csr-non-finite"
            ),
            pytest.param(
                "csr", lambda path, rec: save_with(path, rec, "w", 0, -1.0),
                id="csr-negative-weight",
            ),
        ],
    )
    def test_bad_weights_file_rejected(self, tmp_path, small_fit, knn_bundle_fit, layout, corrupt):
        fit = small_fit[0] if layout == "dense" else knn_bundle_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        path = tmp_path / "bundle" / "w_train.npy"
        stored = np.load(path)
        assert stored.shape == ((fit.weights.n,) * 2 if layout == "dense" else (stored.size,))
        corrupt(path, stored)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_fit_bundle(tmp_path / "bundle")

    def test_version_2_bundle_with_dense_weights_as_triplets_loads(self, tmp_path, small_fit):
        fit, x, w = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        current = load_fit_bundle(tmp_path / "bundle")
        np.save(tmp_path / "bundle" / "w_train.npy", whole_triplets(fit.weights))
        manifest = read_json(tmp_path / "bundle" / "manifest.json")
        manifest["version"] = 2
        write_json(tmp_path / "bundle" / "manifest.json", manifest)
        old = load_fit_bundle(tmp_path / "bundle")
        assert isinstance(old.weights.matrix, np.ndarray)
        assert bits(old.weights.matrix) == bits(fit.weights.matrix)
        assert bits(old.weights.balance) == bits(fit.weights.balance)
        for loaded in (old, current):
            assert bits(predict(loaded, x, w).values) == bits(predict(fit, x, w).values)
            assert bits(fitted_values(loaded).values) == bits(fitted_values(fit).values)

    def test_balanced_load_builds_weights_once(self, tmp_path, small_fit, monkeypatch):
        fit, _, _ = small_fit
        save_fit_bundle(fit, tmp_path / "bundle")
        built, post_init = [], SpatialWeights.__post_init__
        monkeypatch.setattr(
            SpatialWeights, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        loaded = load_fit_bundle(tmp_path / "bundle")
        assert loaded.weights.balance is not None
        assert len(built) == 1 and built[0] is loaded.weights

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

    def test_failed_contraction_warns_at_caller(self, tmp_path):
        # a capped fit on the data `sfofr simulate --n 60 --seed 42` draws: its
        # rho surface has sup 13.5 and L1 bound 1.15 against ||W||_inf = 1
        data = generate(SimConfig(n_train=60, n_test=2, alpha=0.5, seed=42, grid_size=41))
        with pytest.warns(UserWarning, match="did not converge"):
            fit = fit_sfofr(data.y_data, data.x_data, data.weights, options={"msar_max_iter": 1})
        with pytest.warns(UserWarning, match="both contraction conditions fail") as record:
            manifest = save_fit_bundle(fit, tmp_path / "bundle")
        assert [r.filename for r in record] == [__file__]
        contraction = manifest["diagnostics"]["contraction"]
        assert not contraction["strict_condition_ok"] and not contraction["weak_condition_ok"]

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
