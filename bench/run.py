"""Benchmark of the sfofr library: one workload per run.

    python3 bench/run.py --workload mc-strong --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
BLAS and OpenMP are pinned to one thread before numpy is imported. The run
sets up its inputs several times (reporting the median set-up time), then
repeats whole cycles of its ops until ``--seconds`` have passed, checking
every op's outputs. A fixed yardstick job (``yardstick.py``) is timed before
every set-up and between the ops, and the end-to-end times are rescaled by
it to reference seconds, so that a change in the host's speed between runs
does not read as a change in the program. With ``--trace 1`` each op is also
re-made call by call under spans and the per-layer metrics are reported
instead of the end-to-end ones. The last line of standard output is one JSON object; the
line before it records the environment. Full records go to
``.bench_out/`` under the checkout.
"""

import os
import sys
import time

_T0 = time.perf_counter()
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
YARD_SHARE = 0.2  # yardstick time per op time in an untraced run


def declared_metrics() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import numpy, scipy and sfofr from the checkout; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "sfofr" / "__init__.py").is_file():
        raise SystemExit(f"error: no sfofr package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import sfofr

    if Path(sfofr.__file__).resolve().parent != (src / "sfofr").resolve():
        raise SystemExit(f"error: imported sfofr from {sfofr.__file__}, not {src}")
    import workloads  # noqa: F401  (imports the rest of sfofr)

    return time.perf_counter() - _T0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def set_up(workload, seed, work: Path, repeats: int, yard: list):
    """Set the workload up ``repeats`` times; returns (last state, times).

    The yardstick is timed before each set-up and appended to ``yard``.
    """
    import yardstick

    times, state = [], None
    for k in range(repeats):
        if state is not None and "dir" in state:
            shutil.rmtree(state["dir"], ignore_errors=True)
        yard.append(yardstick.time_once())
        t0 = time.perf_counter()
        state = workload.setup(seed, work / f"setup{k}")
        times.append(time.perf_counter() - t0)
    return state, times


def measure(workload, state, seconds: float, tracer, yard: list):
    """Whole cycles of ops until ``seconds`` have passed.

    Untraced runs time the yardstick between ops, outside the ops' time,
    until it has taken YARD_SHARE of the op time so far, and append each
    sample to ``yard``.
    """
    import yardstick

    ops, errors = [], []
    # One untimed op first, so first-call costs stay out of the timings:
    # the first op of a run took up to 30% longer than later ops of the
    # same replication.
    warm = workload.cycle(state)[0]
    errors += workload.check(state, warm, workload.run(state, warm))
    attempted = failed = 0
    op_total = yard_total = 0.0
    start = time.perf_counter()
    while True:
        for arg in workload.cycle(state):
            attempted += 1
            while tracer is None and yard_total <= YARD_SHARE * op_total:
                yard.append(yardstick.time_once())
                yard_total += yard[-1]
            try:
                if tracer is None:
                    t0, c0 = time.perf_counter(), time.process_time()
                    out = workload.run(state, arg)
                    rec = {"arg": arg, "op_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0}
                    op_total += rec["op_s"]
                else:
                    out, plain, plain_s = workload.traced(state, arg, tracer)
                    rec = {"arg": arg, "plain_s": plain_s, "trace_op": tracer.op_index}
            except Exception:  # an op that raises counts as failed; the run goes on
                failed += 1
                traceback.print_exc()
                continue
            try:
                errs = (
                    workload.check(state, arg, out) if tracer is None
                    else workload.check_traced(state, arg, out, plain)
                )
            except Exception as exc:  # a check that cannot run is a failed check
                errs = [f"check raised {exc!r}"]
                traceback.print_exc()
            rec["errors"] = errs
            errors += errs
            ops.append(rec)
            del out
            gc.collect()  # free one op's garbage before the next is timed
        if time.perf_counter() - start >= seconds:
            return ops, errors, attempted, failed


def end_to_end(ops, import_s, setup_times, yard) -> dict:
    """Times in reference seconds: wall seconds times REF_S / host_time(yard)."""
    import yardstick

    scale = yardstick.REF_S / yardstick.host_time(yard)
    times = [r["op_s"] for r in ops]
    return {
        "op_ref_s.p50": statistics.median(times) * scale,
        "ops_per_ref_s": len(times) / (sum(times) * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": (import_s + statistics.median(setup_times)) * scale,
    }


def per_layer(ops, tracer, errors, names) -> dict:
    from tracer import self_times

    by_index = self_times(tracer.spans)
    per_op = [by_index[rec["trace_op"]] for rec in ops]
    for rec, buckets in zip(ops, per_op):
        total = sum(v for k, v in buckets.items() if k.endswith("_s") and k != "op_s")
        if abs(total - buckets["op_s"]) > 1e-9 * max(1.0, buckets["op_s"]):
            errors.append(f"op {rec['arg']}: self times sum to {total!r}, op took {buckets['op_s']!r}")
        rec["layers"] = buckets
    med = {
        name: statistics.median(b.get(name, 0.0) for b in per_op)
        for name in names if not name.startswith("trace.")
    }
    med["trace.op_s"] = statistics.median(b["op_s"] for b in per_op)
    med["trace.overhead_s"] = med["trace.op_s"] - statistics.median(r["plain_s"] for r in ops)
    return med


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    end_to_end_units, per_layer_units = declared_metrics()
    import workloads
    import yardstick
    from tracer import Tracer

    yardstick.job()  # warm: first-call costs stay out of its samples

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    warnings.simplefilter("ignore")  # non-convergence is counted in msar.unconverged
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        yard = []
        state, setup_times = set_up(workload, args.seed, work, 1 if args.trace else SETUP_REPEATS, yard)
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = Tracer() if args.trace else None
        ops, errors, attempted, failed = measure(workload, state, args.seconds, tracer, yard)
        if not ops:
            values = {}
        elif args.trace:
            values = per_layer(ops, tracer, errors, per_layer_units)
        else:
            values = end_to_end(ops, import_s, setup_times, yard)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units if args.trace else end_to_end_units
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        env=env, import_s=import_s, setup_times=setup_times, setup_rss_mb=setup_rss_mb, yardstick_s=yard,
        ops=ops, errors=errors,
    )
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
