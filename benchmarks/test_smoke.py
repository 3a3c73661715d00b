"""Self-tests of the benchmark on tiny inputs (``--smoke``).

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, *args, root=ROOT):
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    context = json.loads(proc.stdout.strip().splitlines()[-2])["context"]
    assert context["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "scipy", "nproc"} <= set(context)


def test_same_seed_same_inputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    for name in ("fit-claims-5k", "fit-outlier-20k"):
        a = workloads.fit_claims(name, 5, smoke=True)
        b = workloads.fit_claims(name, 5, smoke=True)
        c = workloads.fit_claims(name, 6, smoke=True)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()
    q1 = workloads.QueryMix("query-mix", 5, True, tmp_path)
    q2 = workloads.QueryMix("query-mix", 5, True, tmp_path)
    assert q1.T.tobytes() == q2.T.tobytes() and q1.y_grid.tobytes() == q2.y_grid.tobytes()


def test_tracer_self_time_and_restore():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import iphfit.phcore as phcore
        import numpy as np
        import tracing
    finally:
        del sys.path[:2]
    original = phcore.ph_sf
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert phcore.ph_sf is not original
        phcore.ph_quantile(phcore.erlang_rep(2, 1.0), np.array([0.5]))
    finally:
        tracer.uninstall()
    assert phcore.ph_sf is original
    own, incl, calls = tracer.totals()
    assert calls["phcore.ph_quantile"] == 1 and calls["phcore.ph_sf"] > 1
    children = incl["phcore.ph_sf"] + incl["phcore.ph_mean"]
    assert own["phcore.ph_quantile"] + children == pytest.approx(
        incl["phcore.ph_quantile"], abs=1e-9)


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
