"""Tests of the benchmark's own checks and traced compositions.

Run apart from the library's tests, from the root of the checkout:

    python3 -m pytest -q bench/selftest.py

Every check must pass on the program's real output and fail on a planted
wrong answer; every traced composition must reach the one-call path's
outputs. The sizes are small so the file runs in well under a minute.
"""

import copy
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore")


class SmallKnn(workloads.KnnLarge):
    N = 300


class SmallCli(workloads.CliRoundTrip):
    N = 60


def small_mc(strong=False):
    wl = workloads.MonteCarlo(
        "small", 0.9 if strong else 0.1, "exponential" if strong else "inverse", 7,
        range(1), strong=strong,
    )
    wl.design.update(n_train=60, n_test=80)
    return wl


@pytest.fixture(scope="module")
def mc_traced():
    wl = small_mc()
    state = wl.setup(0, None)
    out, plain, _ = wl.traced(state, 0, Tracer())
    return wl, state, out, plain


@pytest.fixture(scope="module")
def knn_traced():
    wl = SmallKnn()
    state = wl.setup(3, None)
    out, plain, _ = wl.traced(state, 0, Tracer())
    return wl, state, out, plain


def test_traced_replication_matches_one_call(mc_traced):
    wl, state, out, plain = mc_traced
    assert workloads._same_results(plain, out[0]) == []
    assert wl.check_traced(state, 0, out, plain) == []
    other = copy.deepcopy(plain)
    other["sfofr"]["mspe"] = np.nextafter(other["sfofr"]["mspe"], 1.0)
    assert workloads._same_results(other, out[0])


def test_mc_check_rejects_planted_values(mc_traced):
    wl, state, out, plain = mc_traced
    assert wl.check(state, 0, plain) == []
    for method, key, value in (("fpc", "ise_rho", 0.5), ("sfofr", "mse", -1.0), ("fpc", "mspe", np.inf)):
        bad = copy.deepcopy(plain)
        bad[method][key] = value
        assert wl.check(state, 0, bad)
    strong = small_mc(strong=True)
    flipped = copy.deepcopy(plain)
    flipped["sfofr"]["mspe"], flipped["fpc"]["mspe"] = 2.0, 1.0
    assert strong.check(state, 0, flipped)


def test_ise_check_rejects_wrong_ise(mc_traced):
    _, state, (res, extras), _ = mc_traced
    cfg, sfofr = state["cfg"], extras["sfofr"]
    assert ref.check_ise(res["sfofr"], cfg.grid, cfg.alpha, sfofr["beta_hat"], sfofr["rho_hat"]) == []
    for key in ("ise_beta", "ise_rho"):
        bad = dict(res["sfofr"])
        bad[key] *= 1 + 1e-6
        assert ref.check_ise(bad, cfg.grid, cfg.alpha, sfofr["beta_hat"], sfofr["rho_hat"])


def test_prediction_check_rejects_nudge(mc_traced):
    _, _, (_, extras), _ = mc_traced
    part = extras["sfofr"]
    fit = part["fit"]
    params = fit.msar_fit.params
    phi = fit.response_decomp.eigenfunctions(fit.y_grid)
    args = (part["scores"], params.rho, params.b, extras["w_test"].matrix, phi, fit.y_mean, "pred")
    assert ref.check_prediction(part["pred"].values, *args) == []
    nudged = part["pred"].values.copy()
    nudged[3, 17] += 1e-6
    assert ref.check_prediction(nudged, *args)


def test_rho_check_rejects_boundary():
    assert ref.check_rho(np.array([[0.5, 0.1], [0.0, 0.3]]), "ok") == []
    assert ref.check_rho(np.array([[0.9995, 0.0], [0.0, 0.1]]), "boundary")


def test_knn_traced_matches_one_call(knn_traced):
    wl, state, out, plain = knn_traced
    assert np.array_equal(out["pred"].values, plain["pred"].values)
    assert wl.check_traced(state, 0, out, plain) == []


def test_knn_check_rejects_swapped_neighbour(knn_traced):
    _, state, out, _ = knn_traced
    s = state["train"]
    w = np.array(out["w_train"].toarray())
    assert ref.check_knn(w, s["sets"], s["lat"], s["lon"], "W") == []
    row = 11
    j = s["sets"][row][0]
    k = next(c for c in range(w.shape[0]) if c != row and w[row, c] == 0)
    w[row, j], w[row, k] = 0.0, w[row, j]
    assert ref.check_knn(w, s["sets"], s["lat"], s["lon"], "W")


def test_knn_check_accepts_exact_ties():
    lat = np.array([0.0, 0.0, 0.0, 1.0])
    lon = np.array([0.0, 1.0, -1.0, 5.0])
    # units 1 and 2 tie as unit 0's nearest; either choice is a valid matrix
    sets = np.array([[1], [0], [0], [1]])
    w = ref.knn_matrix(np.array([[2], [0], [0], [1]]))
    assert ref.check_knn(w, sets, lat, lon, "W") == []


def test_cli_roundtrip_checks_and_traced(tmp_path):
    wl = SmallCli()
    state = wl.setup(5, tmp_path / "setup")
    out, plain, _ = wl.traced(state, 0, Tracer())
    kept = tmp_path / "kept"
    shutil.copytree(plain["out"], kept)
    assert wl.check_traced(state, 0, out, plain) == []
    pred_csv = kept / "predict" / "predictions.csv"
    lines = pred_csv.read_text().splitlines()
    fields = lines[2].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    lines[2] = ",".join(fields)
    pred_csv.write_text("\n".join(lines) + "\n")
    assert wl.check(state, 0, {"codes": (0, 0), "out": kept})
    assert wl.check(state, 0, {"codes": (0, 1), "out": tmp_path / "missing"})


def test_self_times_add_up_to_op_time():
    tr = Tracer()
    with tr.op():
        with tr.span("a.self_s", "outer"):
            sum(range(10000))
            tr.call("b.x_s", "inner", sum, range(20000))
        sum(range(5000))
    buckets = self_times(tr.spans)[0]
    parts = sum(v for k, v in buckets.items() if k != "op_s")
    assert parts == pytest.approx(buckets["op_s"], rel=1e-12)
    assert set(buckets) == {"bench.self_s", "a.self_s", "b.x_s", "op_s"}


def test_io_counters_see_file_reads(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"x" * 12345)
    tr = Tracer()
    with tr.op():
        traced._io(tr, "io.self_s", "read", path.read_bytes)
    if traced.read_io_counters() is None:
        pytest.skip("no /proc/self/io on this system")
    assert tr.counts["io.bytes_read"] == 12345


def test_end_to_end_times_are_rescaled_by_the_yardstick():
    import run
    import yardstick

    ops = [{"op_s": t} for t in (2.0, 3.0, 4.0)]
    # A host twice as slow as the reference: the yardstick takes 2 * REF_S,
    # apart from one stall in twenty samples, which the trimmed mean drops.
    yard = [2 * yardstick.REF_S] * 19 + [50 * yardstick.REF_S]
    values = run.end_to_end(ops, 0.5, [1.0, 1.5, 9.0], yard)
    assert values["op_ref_s.p50"] == pytest.approx(1.5)
    assert values["ops_per_ref_s"] == pytest.approx(3 / 4.5)
    assert values["setup_s"] == pytest.approx(1.0)
    assert yardstick.job() == yardstick.job()
