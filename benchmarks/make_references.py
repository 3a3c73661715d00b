"""Regenerate references.json: fit log-likelihoods per workload and seed.

    python3 benchmarks/make_references.py fit-claims-5k 0 64

Runs one full-size round of the named fit workload for each seed in
[first, last) and merges the four values of its loglik.csv (fitted and
Erlang baseline, original and transformed scale) into references.json.
Rerun it only when the workload definition itself changes.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def main(name, first, last):
    table = {}
    work = ROOT / ".bench_work" / f"references-{name}-{os.getpid()}"
    try:
        for seed in range(first, last):
            work.mkdir(parents=True)
            wl = workloads.FitWorkload(name, seed, False, work)
            ops = workloads.Ops()
            summary = wl.summarize(wl.round(ops))
            if ops.failed or summary["iterations"] != wl.iters or summary["converged"] != "False":
                raise SystemExit(f"seed {seed}: {ops.first_error or summary}")
            rows = dict(line.split(",", 1) for line in summary["loglik"].splitlines()[1:])
            table[str(seed)] = [float(v) for key in ("fitted", "erlang3")
                                for v in rows[key].split(",")]
            print(name, seed, table[str(seed)], flush=True)
            shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    table = {**refs.get(name, {}), **table}
    refs[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
