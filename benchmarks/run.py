"""iphfit benchmark: EM fits through the CLI and a mix of model queries.

    python3 benchmarks/run.py --workload fit-claims-5k --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Workloads, metric names and units are listed in
``BENCHMARK.json`` at the root.  One run:

1. set-up, three times: a fresh interpreter imports ``iphfit.cli``, the
   inputs are built from ``--seed`` and a small warm-up call runs.
   ``setup_s`` is the median of the three;
2. rounds (one ``iphfit fit``, or one pass over the query stream) run back
   to back, one client in a closed loop, until ``--seconds`` have passed
   and at least three rounds are done.  ``round_s`` is the median;
3. the outputs are checked against the benchmark's own numerics.

With ``--trace 1`` the second step is split: untraced rounds for half the
time, then rounds with every public function of the layer modules wrapped
by ``tracing.Tracer``, then one round under ``tracemalloc`` for the heap
peak.  The per-layer metrics come from the traced rounds, averaged per
round; spans are written to ``.bench_out/``.  ``--smoke`` shrinks every
input for a quick self-test.

The last line printed is the result object; the line before it holds the
run's context (versions, thread setting, checks, failures).
"""

from __future__ import annotations

import os
import sys

THREADS = "1"  # BLAS/OpenMP threads: one client, one core, never more than nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
MIN_ROUNDS_PER_TRACE_PHASE = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    return ap.parse_args(argv)


def _fresh_import() -> None:
    """Import the whole package in a new interpreter, as a first CLI call would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import iphfit.cli"], env=env, check=True,
                   timeout=120, cwd=ROOT)


def _timed_rounds(wl, ops, seconds, min_rounds, tag, summaries):
    """Run rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    times, last = [], None
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < seconds:
        ops.round = f"{tag}{len(times)}"
        t0 = time.perf_counter()
        last = wl.round(ops)
        times.append(time.perf_counter() - t0)
        summaries.append(wl.summarize(last))
    return times, last


def _layer_metrics(names, tracer, rounds, summaries, overhead, heap_peak):
    import tracing

    own, incl, calls = tracer.totals()
    known = tracing.layer_functions()
    iters = sum(s.get("iterations", 0) for s in summaries) / rounds
    fit_incl = incl.get("emfit.fit_transformed", 0.0) / rounds
    special = {
        "emfit.iterations": iters,
        "emfit.s_per_iter": fit_incl / iters if iters else 0.0,
        "trace.overhead_s": overhead,
        "trace.heap_peak_mib": heap_peak,
        "trace.spans": len(tracer.spans) / rounds,
    }
    values = {}
    for name in names:
        stem, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stem in tracing.LAYERS and kind == "s":
            values[name] = sum(v for k, v in own.items() if k.startswith(stem + ".")) / rounds
        elif stem in known and kind == "s":
            values[name] = own.get(stem, 0.0) / rounds
        elif stem in known and kind == "calls":
            values[name] = calls.get(stem, 0) / rounds
        else:
            raise SystemExit(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "iphfit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no iphfit source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    ops = workloads.Ops()
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            rep_dir = work / str(rep)
            rep_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            _fresh_import()
            wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, args.smoke, rep_dir)
            wl.warmup(ops)
            setup_times.append(time.perf_counter() - t0)

        summaries, record = [], {}
        if args.trace == 0:
            times, last = _timed_rounds(wl, ops, args.seconds, MIN_ROUNDS, "r", summaries)
            values = {
                "round_s": statistics.median(times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            listed = spec["end_to_end"]
        else:
            half = args.seconds / 2.0
            plain, _ = _timed_rounds(wl, ops, half, MIN_ROUNDS_PER_TRACE_PHASE, "u", summaries)
            tracer = tracing.Tracer()
            ops.tracer = tracer
            tracer.install()
            try:
                traced = []
                times, last = _timed_rounds(wl, ops, half, MIN_ROUNDS_PER_TRACE_PHASE, "t", traced)
            finally:
                tracer.uninstall()
                ops.tracer = None
            summaries += traced
            tracemalloc.start()
            ops.round = "heap"
            summaries.append(wl.summarize(wl.round(ops)))
            heap_peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            overhead = statistics.median(times) - statistics.median(plain)
            values = _layer_metrics([m["name"] for m in spec["per_layer"]], tracer, len(times),
                                    traced, overhead, heap_peak)
            listed = spec["per_layer"]
            record["untraced_round_s"] = plain

        try:
            checks = wl.check(summaries, last)
        except Exception as exc:  # a check that cannot run is a failed check
            checks = [{"name": "checks ran", "ok": False, "detail": f"{type(exc).__name__}: {exc}"}]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values["setup_s"] = statistics.median(setup_times)
    values["ok_ops_frac"] = (ops.attempted - ops.failed) / ops.attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    correct = ops.failed == 0 and all(c["ok"] for c in checks)

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "setup_s": setup_times, "rounds": len(times),
        "failures": ops.errors, "first_error": ops.first_error,
        "checks_passed": sum(c["ok"] for c in checks),
        "checks_failed": [c for c in checks if not c["ok"]],
    }
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record.update(context=context, result=result, checks=checks, round_s=times)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
