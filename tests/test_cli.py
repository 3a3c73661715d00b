"""Command-line front end: ingestion, orchestration, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import iphfit
from iphfit.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    RunConfig,
    _csv_text,
    _write_csv,
    auto_shift,
    eval_cmd,
    ingest_csv,
    main,
    run_fit,
)
from iphfit.errors import ConfigError, DataFileError
from iphfit.families import (
    FAMILIES,
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    ShiftedTransform,
    tph_new,
    tph_sample,
)
from iphfit.modelio import load_model, save_model
from iphfit.phcore import erlang_rep, ph_new


def write_claims(tmp_path, n=400, seed=42, lam=1.4):
    rng = np.random.default_rng(seed)
    xs = np.expm1(rng.exponential(1.0 / lam, n))
    path = tmp_path / "claims.csv"
    with open(path, "w") as fh:
        fh.write("claim\n")
        for v in xs:
            fh.write(f"{v:.12g}\n")
    return path, xs


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0\n2.0\n")
    assert np.array_equal(ingest_csv(p), [1.0, 2.0])


def test_ingest_header_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("name,value\nfoo,3.5\nbar,4.5\n")
    assert np.array_equal(ingest_csv(p, column=1, header_rows=1), [3.5, 4.5])


def test_ingest_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0\n-3\n")
    with pytest.raises(DataFileError, match=":2"):
        ingest_csv(p)
    p.write_text("1.0\nx\n")
    with pytest.raises(DataFileError, match=":2"):
        ingest_csv(p)
    p.write_text("1.0\n")
    with pytest.raises(DataFileError, match="column 2"):
        ingest_csv(p, column=2)
    p.write_text("")
    with pytest.raises(DataFileError, match="no data"):
        ingest_csv(p)


def test_ingest_accepts_the_same_layouts(tmp_path):
    # CRLF and lone-CR line ends, blank and whitespace-only lines, padded
    # fields, exponents, a header row and a column past the first
    p = tmp_path / "d.csv"
    p.write_bytes(b"id,size\r\n\r\na, 1.5e2 \r\n \t \rb,\t2E-3,x\r\nc,+7.\n\n")
    assert np.array_equal(ingest_csv(p, column=1, header_rows=1), [150.0, 0.002, 7.0])
    p.write_text("  4.25\n\n1e-300\n.5")
    assert np.array_equal(ingest_csv(p), [4.25, 1e-300, 0.5])
    p.write_text("h1\nh2,x\n3\n")
    assert np.array_equal(ingest_csv(p, header_rows=2), [3.0])


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("size\n1\n", 0, r":1: not a number: 'size'"),
        ("1\r\n\r\n2\r\nnan\r\n", 0, r":4: values must be positive reals, got nan"),
        ("1\n\n 0 \n", 0, r":3: values must be positive reals, got 0$"),
        ("1,2\n3,inf\n", 1, r":2: values must be positive reals, got inf"),
        ("1,2\n3\n4,-0.0\n", 1, r":2: needs column 1 but row has 1 fields"),
        ("1,2\n3,\n", 1, r":2: not a number: ''"),
        ("\n \n", 0, r": no data rows found"),
    ],
)
def test_ingest_names_the_first_bad_line(tmp_path, text, column, message):
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(DataFileError, match=message):
        ingest_csv(p, column=column)


def test_csv_text_matches_the_per_cell_format(tmp_path):
    cells = np.array([0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, -0.0, np.inf,
                      -np.inf, np.nan, 0.1, 1.0 / 3.0, 2.0**0.5 * 1e300, -123456789.12345678])
    cols = (cells, cells[::-1], np.arange(cells.size))
    want = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*cols))
    assert _csv_text(*cols) == want
    assert _csv_text(cells) == "".join(format(float(v), ".17g") + "\n" for v in cells)
    assert _csv_text(np.array([])) == ""
    out = tmp_path / "t.csv"
    _write_csv(out, "a,b,c", *cols)
    assert out.read_bytes() == ("a,b,c\n" + want).encode()


def test_auto_shift_rule():
    # largest one-decimal value strictly below the minimum log-datum
    assert auto_shift([math.exp(8.53)]) == pytest.approx(8.5)
    assert auto_shift([math.exp(0.04)]) == pytest.approx(0.0)
    assert auto_shift([math.exp(8.5)]) == pytest.approx(8.4)
    data = np.exp([9.1, 8.53, 12.0])
    assert auto_shift(data) == pytest.approx(8.5)


# ---------------------------------------------------------------------------
# fit orchestration
# ---------------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(input_path="", transform="pareto", out_dir="o")
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", transform="pareto", out_dir="o", phases=0)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", transform="cauchy", out_dir="o")
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", transform="pareto", out_dir="o", grid_points=1)
    with pytest.raises(ConfigError):
        RunConfig(input_path="x", transform="pareto", out_dir="o", shift="later")


def test_run_fit_end_to_end(tmp_path):
    data_path, xs = write_claims(tmp_path)
    out = tmp_path / "out"
    cfg = RunConfig(
        input_path=str(data_path),
        transform="pareto",
        out_dir=str(out),
        header_rows=1,
        shift=0.0,
        phases=2,
        seed=7,
        max_iters=200,
        erlang_baseline=1,
    )
    summary = run_fit(cfg)
    assert summary["iterations"] > 0
    assert np.isfinite(summary["loglik_original"])
    for name in ("params.json", "loglik.csv", "density.csv", "qq.csv", "hist_transformed.csv"):
        assert (out / name).exists()
    qq = (out / "qq.csv").read_text().strip().splitlines()
    assert len(qq) == xs.size + 1  # header + N rows
    model_q = np.array([float(line.split(",")[1]) for line in qq[1:]])
    assert np.all(np.diff(model_q) >= 0.0)
    loglik = (out / "loglik.csv").read_text().strip().splitlines()
    assert loglik[0] == "model,loglik_original,loglik_transformed"
    assert len(loglik) == 3  # fitted + erlang baseline


def test_run_fit_deterministic_outputs(tmp_path):
    data_path, _ = write_claims(tmp_path)

    def one(run_dir):
        cfg = RunConfig(
            input_path=str(data_path),
            transform="pareto",
            out_dir=str(run_dir),
            header_rows=1,
            shift="auto",
            phases=2,
            seed=11,
            max_iters=120,
        )
        run_fit(cfg)
        return (run_dir / "params.json").read_bytes()

    assert one(tmp_path / "r1") == one(tmp_path / "r2")


def test_deterministic_flag_changes_nothing(tmp_path):
    data_path, _ = write_claims(tmp_path)
    outputs = []
    for flag in ([], ["--deterministic"]):
        out = tmp_path / f"out{len(outputs)}"
        rc = main(["fit", "--input", str(data_path), "--header-rows", "1",
                   "--transform", "pareto", "--phases", "2", "--seed", "3",
                   "--max-iters", "60", "--out-dir", str(out)] + flag)
        assert rc == EXIT_OK
        outputs.append([(out / n).read_bytes() for n in ("params.json", "loglik.csv")])
    assert outputs[0] == outputs[1]


def test_run_fit_cleans_partial_outputs(tmp_path, monkeypatch):
    data_path, _ = write_claims(tmp_path)
    out = tmp_path / "out"
    import iphfit.cli as cli_mod

    real_quantile = cli_mod.tph_quantile

    def boom(*a, **k):
        raise RuntimeError("forced failure after some files are written")

    monkeypatch.setattr(cli_mod, "tph_quantile", boom)
    cfg = RunConfig(
        input_path=str(data_path),
        transform="pareto",
        out_dir=str(out),
        header_rows=1,
        shift=0.0,
        phases=1,
        seed=1,
        max_iters=30,
    )
    with pytest.raises(RuntimeError):
        run_fit(cfg)
    assert not any(out.iterdir())
    monkeypatch.setattr(cli_mod, "tph_quantile", real_quantile)


# ---------------------------------------------------------------------------
# eval / sample
# ---------------------------------------------------------------------------

def test_eval_scalar_pareto_sf(tmp_path):
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(1, 1.0), ParetoExp()), path)
    assert float(eval_cmd(str(path), "sf", 1.0)) == pytest.approx(0.5, rel=1e-12)


def test_eval_quantile_sf_round_trip(tmp_path):
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(2, 1.5), ParetoExp()), path)
    q = float(eval_cmd(str(path), "quantile", 0.5))
    back = float(eval_cmd(str(path), "sf", q))
    assert abs(back - 0.5) < 1e-9


def test_eval_infinite_mean_marker(tmp_path):
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(1, 0.5), ParetoExp()), path)
    assert eval_cmd(str(path), "mean", None) == "infinite"


@pytest.mark.parametrize("transform, top", [
    (ParetoExp(), None),
    (NegLogAffine(0.0, 1.0), math.inf),
    (ShiftedPower(0.0, 1.0, 0.5), math.inf),
    (ShiftedPower(0.0, 1.0, -0.4), 2.5),
])
def test_eval_quantile_levels_follow_the_map_direction(tmp_path, capsys, transform, top):
    # an increasing map takes levels in [0, 1), a decreasing one (0, 1],
    # where level 1 is the support's upper end; the other end is a config error
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(2, 1.0), transform), path)
    ask = ["eval", "--params", str(path), "--query", "quantile", "--at"]
    good, bad = ("0", "1") if top is None else ("1", "0")
    assert main(ask + [good]) == EXIT_OK
    assert float(capsys.readouterr().out) == (0.0 if top is None else top)
    assert main(ask + [bad]) == EXIT_CONFIG
    assert "quantile level must be in" in capsys.readouterr().err


@pytest.mark.parametrize("query", ["pdf", "sf"])
def test_eval_nan_point_is_a_config_error(tmp_path, capsys, query):
    # a NaN point is a bad argument; the ends of the support still answer
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(2, 1.0), ParetoExp()), path)
    ask = ["eval", "--params", str(path), "--query", query, "--at"]
    assert main(ask + ["nan"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    for at, sf in (("inf", 0.0), ("-1", 1.0)):
        assert main(ask + [at]) == EXIT_OK
        assert float(capsys.readouterr().out) == (sf if query == "sf" else 0.0)


def test_main_exit_codes(tmp_path, capsys):
    data_path, _ = write_claims(tmp_path, n=120)
    out = tmp_path / "o"
    ok = main([
        "fit", "--input", str(data_path), "--header-rows", "1",
        "--transform", "pareto", "--shift", "0.0", "--phases", "1",
        "--seed", "1", "--max-iters", "40", "--out-dir", str(out),
    ])
    assert ok == EXIT_OK
    assert main(["fit", "--input", str(data_path), "--transform", "pareto",
                 "--phases", "0", "--out-dir", str(out)]) == EXIT_CONFIG
    assert main(["fit", "--input", str(tmp_path / "absent.csv"), "--transform", "pareto",
                 "--out-dir", str(out)]) == EXIT_DATA
    bad = tmp_path / "bad.csv"
    bad.write_text("-1.0\n")
    assert main(["fit", "--input", str(bad), "--transform", "pareto",
                 "--out-dir", str(out)]) == EXIT_DATA
    capsys.readouterr()


FIT_FILES = ("params.json", "loglik.csv", "density.csv", "qq.csv", "hist_transformed.csv")


@pytest.mark.parametrize("family, transform, flags", [
    ("weibull", Power(2.0), ["--beta", "2"]),
    ("gumbel", NegLogAffine(10.0, 1.0), ["--mu", "10", "--sigma", "1"]),
    ("gev", ShiftedPower(3.0, 1.0, 0.5), ["--mu", "3", "--sigma", "1", "--xi", "0.5"]),
], ids=["weibull", "gumbel", "gev"])
def test_fit_end_to_end_for_each_family(tmp_path, capsys, family, transform, flags):
    # draws from the family itself, all positive (mu keeps the Gumbel and
    # GEV draws above 0); --shift auto works from the minimum g^{-1}(y)
    ys = tph_sample(tph_new(erlang_rep(2, 1.5), transform), np.random.default_rng(8), 200)
    assert np.all(ys > 0)
    data = tmp_path / "d.csv"
    data.write_text(_csv_text(ys))
    out = tmp_path / "out"
    rc = main(["fit", "--input", str(data), "--transform", family, "--shift", "auto",
               "--phases", "2", "--seed", "4", "--max-iters", "20",
               "--out-dir", str(out)] + flags)
    assert rc == EXIT_OK, capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted(FIT_FILES)
    assert json.loads((out / "params.json").read_text())["transform"]["family"] == family
    tr = load_model(out / "params.json").transform
    inner = tr.inner if isinstance(tr, ShiftedTransform) else tr
    assert type(inner) is FAMILIES[family] and inner == transform


def test_fit_weibull_needs_beta(tmp_path, capsys):
    data_path, _ = write_claims(tmp_path, n=50)
    rc = main(["fit", "--input", str(data_path), "--header-rows", "1",
               "--transform", "weibull", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "weibull requires --beta" in capsys.readouterr().err


def test_fit_gev_datum_outside_the_support_is_a_data_error(tmp_path, capsys):
    # GEV(mu 3, sigma 1, xi 1/2) lives above mu - sigma/xi = 1; 0.5 is positive
    # but outside it, so --shift auto has no g^{-1}(0.5) to work from
    data = tmp_path / "d.csv"
    data.write_text("2.0\n3.5\n0.5\n4.0\n")
    out = tmp_path / "o"
    rc = main(["fit", "--input", str(data), "--transform", "gev", "--mu", "3",
               "--sigma", "1", "--xi", "0.5", "--out-dir", str(out)])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "outside the transform's support at indices [2]" in err
    assert not out.exists()


def test_fit_gumbel_auto_shift_below_zero_is_a_data_error(tmp_path, capsys):
    # e^-y underflows to 0 at y = 800 and 1200, so the auto shift is -0.1;
    # the Gumbel map is undefined below x = 0, so no model is written
    data_path, _ = write_claims(tmp_path, n=200)
    with open(data_path, "a") as fh:
        fh.write("800\n1200\n")
    out = tmp_path / "o"
    rc = main(["fit", "--input", str(data_path), "--header-rows", "1", "--transform", "gumbel",
               "--sigma", "1", "--shift", "auto", "--out-dir", str(out)])
    assert rc == EXIT_DATA
    assert "shift -0.1 is negative" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_main_sample_deterministic(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(2, 1.5), ParetoExp()), path)
    assert main(["sample", "--params", str(path), "--count", "5", "--seed", "3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["sample", "--params", str(path), "--count", "5", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 5


def test_main_sample_rejects_a_negative_count_before_loading(tmp_path, capsys):
    # the params file does not exist: the count is checked first
    absent = tmp_path / "absent.json"
    assert main(["sample", "--params", str(absent), "--count", "-3"]) == EXIT_CONFIG
    assert "count must be nonnegative" in capsys.readouterr().err


def test_main_sample_zero_draws_write_nothing(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_model(tph_new(erlang_rep(2, 1.5), ParetoExp()), path)
    out = tmp_path / "draws.txt"
    assert main(["sample", "--params", str(path), "--count", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b""
    capsys.readouterr()
    assert main(["sample", "--params", str(path), "--count", "0"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_main_oracle_check(capsys):
    assert main(["oracle-check"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 8
    assert all(ln.startswith("PASS") for ln in lines)
    assert {"PASS  exponential quantiles", "PASS  solver inverse primitive",
            "PASS  matrix-exponential density"} <= set(lines)


def test_config_file_merge(tmp_path, capsys):
    data_path, _ = write_claims(tmp_path, n=150)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "input": str(data_path),
        "header_rows": 1,
        "transform": "pareto",
        "shift": 0.0,
        "phases": 1,
        "seed": 2,
        "max_iters": 40,
        "out_dir": str(tmp_path / "from-file"),
    }))
    # flag overrides the file's out_dir
    override = tmp_path / "from-flag"
    assert main(["fit", "--config", str(cfg_path), "--out-dir", str(override)]) == EXIT_OK
    assert (override / "params.json").exists()
    assert not (tmp_path / "from-file").exists()
    bad_cfg = tmp_path / "bad.json"
    good = json.loads(cfg_path.read_text())
    # keys are RunConfig's field names, with "input" for input_path
    for bad in ({"frobnicate": 1}, {"deterministic": True}, {"input_path": str(data_path)}):
        bad_cfg.write_text(json.dumps({**good, **bad}))
        capsys.readouterr()
        assert main(["fit", "--config", str(bad_cfg)]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

_COLD_START = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import iphfit, iphfit.cli
assert not scipy_modules(), ("import", scipy_modules())
params, claims, out = sys.argv[1:]
for query, at in (("pdf", "3"), ("sf", "3"), ("quantile", "0.99"), ("mean", None)):
    ask = ["eval", "--params", params, "--query", query] + (["--at", at] if at else [])
    assert iphfit.cli.main(ask) == 0, query
    assert not scipy_modules(), (query, scipy_modules())
ask = ["sample", "--params", params, "--count", "2000", "--out", out + ".csv"]
assert iphfit.cli.main(ask) == 0
assert not scipy_modules(), ("sample", scipy_modules())
import scipy.sparse
sparse = scipy_modules()
ask = ["fit", "--input", claims, "--header-rows", "1", "--transform", "pareto",
       "--shift", "0.0", "--phases", "2", "--max-iters", "20", "--out-dir", out]
assert iphfit.cli.main(ask) == 0
assert scipy_modules() == sparse, ("fit", sorted(set(scipy_modules()) - set(sparse)))
"""


def test_cold_start_loads_scipy_only_where_a_command_needs_it(tmp_path):
    # in one fresh interpreter, importing the package and answering eval and
    # sample on a Markov matrix-Pareto model load no SciPy module, and a fit
    # loads none beyond scipy.sparse and the modules it imports
    params = tmp_path / "m.json"
    T = np.array([[-3.0, 1.0, 0.5], [0.2, -2.5, 1.0], [0.0, 0.3, -2.0]])
    save_model(tph_new(ph_new(np.array([0.5, 0.3, 0.2]), T), ParetoExp()), params)
    claims, _ = write_claims(tmp_path, n=200)
    src = os.path.dirname(os.path.dirname(iphfit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(params), str(claims), str(tmp_path / "fit")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "fit" / "params.json").exists()


_CONDITIONING = """
import sys
from iphfit.families import ParetoExp, mp_conditional_excess, tph_new
from iphfit.iph import iph_new, iph_overshoot, power_rate
from iphfit.phcore import erlang_rep

mp_conditional_excess(tph_new(erlang_rep(3, 2.0), ParetoExp()), 50.0)
iph_overshoot(iph_new(erlang_rep(3, 1.0), power_rate(2.0)), 4.0)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_conditioning_a_markov_law_loads_no_scipy():
    # a Markov law's conditioned start vector comes from the anchored walk
    src = os.path.dirname(os.path.dirname(iphfit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _CONDITIONING], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
