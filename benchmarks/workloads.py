"""The three benchmark workloads: two EM fits through the CLI and a query mix.

Each workload builds its inputs from the run seed in ``__init__`` (set-up),
exposes ``warmup`` and ``round`` (the timed unit of work) and checks what a
round produced in ``check``.  Every call into iphfit goes through
``Ops.run`` so that it is counted, and through a module attribute looked
up at call time so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad

import iphfit.cli as cli
import iphfit.families as families
import iphfit.iph as iph
import iphfit.modelio as modelio
import iphfit.phcore as phcore

import reference as ref

HERE = Path(__file__).resolve().parent

# the fixed 5-phase base law: the claims are drawn from it, the query mix evaluates it
BASE_PI = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
BASE_T = np.array([
    [-4.0, 2.0, 0.5, 0.0, 0.0],
    [0.5, -3.0, 1.5, 0.5, 0.0],
    [0.0, 0.5, -2.5, 1.0, 0.5],
    [0.0, 0.0, 0.4, -2.0, 0.8],
    [0.0, 0.0, 0.0, 0.3, -1.6],
])

FIT_FILES = ("params.json", "loglik.csv", "density.csv", "qq.csv", "hist_transformed.csv")
RECOMPUTE_RTOL = 1e-9   # program log-likelihoods vs the benchmark's own evaluation
REFERENCE_RTOL = 1e-8   # vs references.json; a 1e-4 error in the M-step exit rates moves it 7e-8


class CliExit(Exception):
    """``iphfit`` returned a nonzero exit code."""


def run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliExit(f"iphfit {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


class Ops:
    """Counts every call into the program; a raised exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.first_error = None
        self.tracer = None
        self.round = "setup"

    def run(self, name, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.round}:{name}"
        try:
            return fn(*args)
        except Exception as exc:  # counted and reported, never dropped
            self.failed += 1
            key = f"{name}:{type(exc).__name__}"
            self.errors[key] = self.errors.get(key, 0) + 1
            if self.first_error is None:
                self.first_error = f"{key}: {exc}"
            return None


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})


def _close(checks, name, err, tol):
    _check(checks, name, err <= tol, f"max error {err:.3g} (tolerance {tol:g})")


def _sigma_close(checks, name, hits, n, p):
    """Binomial count against its expected share, within five standard errors."""
    sd = math.sqrt(n * p * (1.0 - p))
    _check(checks, name, abs(hits - n * p) <= 5.0 * sd + 1.0,
           f"{hits} of {n}, expected {n * p:.1f} +- {5.0 * sd:.1f}")


# ---------------------------------------------------------------------------
# fit workloads
# ---------------------------------------------------------------------------

FIT_SPECS = {
    "fit-claims-5k": {
        "n": 5000, "smoke_n": 400, "rate_scale": 1.0, "outlier": None,
        "iters": 120, "smoke_iters": 4,
        "flags": ["--transform", "pareto", "--deterministic"],
    },
    "fit-outlier-20k": {
        "n": 20000, "smoke_n": 1000, "rate_scale": 0.25, "outlier": 40000.0,
        "iters": 10, "smoke_iters": 3,
        "flags": ["--transform", "weibull", "--beta", "0.5"],
    },
}
FIT_COMMON = ["--shift", "auto", "--phases", "5", "--erlang-baseline", "3", "--seed", "1"]
_ITER_LINE = re.compile(r"converged: (True|False) after (\d+) iterations")


def fit_claims(name: str, seed: int, smoke: bool) -> np.ndarray:
    """Claims drawn from the workload's fixed law by stratified inversion."""
    spec = FIT_SPECS[name]
    n = spec["smoke_n"] if smoke else spec["n"]
    T = spec["rate_scale"] * BASE_T
    u = ref.ph_quantile(BASE_PI, T, ref.stratified_levels(np.random.default_rng(seed), n))
    u = np.random.default_rng(seed + 1).permutation(u)
    if spec["outlier"] is None:
        return np.expm1(u)  # matrix-Pareto: y = e^u - 1
    return np.append(u**2, spec["outlier"])  # matrix-Weibull with beta = 1/2: y = u^2


def _to_u(name, ys, shift):
    if FIT_SPECS[name]["outlier"] is None:
        return np.log1p(ys) - shift, -np.log1p(ys)
    return np.sqrt(ys) - shift, np.log(0.5 / np.sqrt(ys))


def _write_column(path, ys):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("claim\n")
        fh.writelines(format(float(v), ".17g") + "\n" for v in ys)


class FitWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        spec = FIT_SPECS[name]
        self.name, self.seed, self.smoke = name, seed, smoke
        self.iters = spec["smoke_iters"] if smoke else spec["iters"]
        self.claims = fit_claims(name, seed, smoke)
        self.csv = work / "claims.csv"
        self.out = work / "fit"
        _write_column(self.csv, self.claims)
        _write_column(work / "warm.csv", self.claims[:300])
        flags = FIT_COMMON + spec["flags"]
        self.argv = ["fit", "--input", str(self.csv), "--header-rows", "1",
                     "--max-iters", str(self.iters), "--out-dir", str(self.out)] + flags
        self.warm_argv = ["fit", "--input", str(work / "warm.csv"), "--header-rows", "1",
                          "--max-iters", "2", "--out-dir", str(work / "warm")] + flags

    def warmup(self, ops):
        ops.run("cli.fit", run_cli, self.warm_argv)

    def round(self, ops):
        for f in FIT_FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out / f)
        return {"stdout": ops.run("cli.fit", run_cli, self.argv)}

    def summarize(self, out):
        """Per-round facts, read back after the timer stopped."""
        m = _ITER_LINE.search(out["stdout"] or "")
        loglik = self.out / "loglik.csv"
        return {
            "converged": m.group(1) if m else None,
            "iterations": int(m.group(2)) if m else 0,
            "files": [f for f in FIT_FILES if (self.out / f).is_file()],
            "loglik": loglik.read_text() if loglik.is_file() else None,
        }

    def check(self, rounds, last):
        checks = []
        _check(checks, "every round wrote all five files",
               all(len(r["files"]) == len(FIT_FILES) for r in rounds))
        _check(checks, "every round stopped at the iteration cap unconverged",
               all(r["converged"] == "False" and r["iterations"] == self.iters for r in rounds),
               f"cap {self.iters}; got {sorted({(r['converged'], r['iterations']) for r in rounds})}")
        _check(checks, "every round wrote the same loglik.csv",
               all(r["loglik"] == rounds[0]["loglik"] for r in rounds))
        if not rounds[-1]["loglik"] or "params.json" not in rounds[-1]["files"]:
            _check(checks, "fit outputs present", False)
            return checks

        params = self.out / "params.json"
        text = params.read_text()
        model = modelio.load_model(params)
        _check(checks, "params.json round-trips through load_model",
               modelio.dumps_doc(modelio.model_to_doc(model)) == text)

        rows = {}
        for line in rounds[-1]["loglik"].splitlines()[1:]:
            label, lo, lt = line.split(",")
            rows[label] = (float(lo), float(lt))
        fit_o, fit_t = rows["fitted"]
        erl_o, erl_t = rows["erlang3"]

        doc = json.loads(text)
        pi, T = np.array(doc["pi"]), np.array(doc["T"])
        u, log_jac = _to_u(self.name, self.claims, float(doc["shift"]))
        uy, counts = np.unique(u, return_counts=True)
        want_t = float(counts @ np.log(ref.ph_pdf(pi, T, uy)))
        _close(checks, "fitted loglik (transformed) matches recomputation",
               abs(fit_t - want_t) / abs(want_t), RECOMPUTE_RTOL)
        want_o = want_t + float(log_jac.sum())
        _close(checks, "fitted loglik (original) matches recomputation",
               abs(fit_o - want_o) / abs(want_o), RECOMPUTE_RTOL)
        lam = 3.0 * u.size / u.sum()
        erl = float(np.sum(3 * np.log(lam) + 2 * np.log(u) - lam * u - math.log(2.0)))
        _close(checks, "Erlang(3) baseline loglik matches its closed form",
               abs(erl_t - erl) / abs(erl), RECOMPUTE_RTOL)
        _close(checks, "Erlang(3) baseline loglik (original) matches its closed form",
               abs(erl_o - (erl + log_jac.sum())) / abs(erl_o), RECOMPUTE_RTOL)

        stored = None if self.smoke else load_references().get(self.name, {}).get(str(self.seed))
        if stored is not None:
            got = [fit_o, fit_t, erl_o, erl_t]
            err = max(abs(g - w) / abs(w) for g, w in zip(got, stored))
            _close(checks, "log-likelihoods match stored reference", err, REFERENCE_RTOL)
        else:
            _check(checks, "stored reference skipped", True, "no stored value for this seed")
        return checks


def load_references() -> dict:
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.is_file() else {}


# ---------------------------------------------------------------------------
# query mix
# ---------------------------------------------------------------------------

def _spread(rng, lo, hi, n):
    """n sorted points in (lo, hi), one per stratum, end strata pinned."""
    return lo + (hi - lo) * ref.stratified_levels(rng, n)


def _chain20(rng):
    """20-phase birth-death generator with rates drawn around fixed values."""
    p = 20
    T = np.zeros((p, p))
    idx = np.arange(p - 1)
    T[idx, idx + 1] = rng.uniform(1.0, 3.0, p - 1)
    T[idx + 1, idx] = rng.uniform(0.1, 0.5, p - 1)
    return T - np.diag(T.sum(axis=1) + rng.uniform(0.1, 0.4, p))


class QueryMix:
    POWER_BETA = 0.7
    CUTS = (1.0, 2.5)
    SCALES = (1.0, 0.5, 1.5)
    EXCESS_AT = math.e - 1.0
    LAPLACE_S = (5.0, 80.0)  # a = s * scale with scale 1: Schur-Parlett, then quadrature
    ERLANG_N = 3

    def __init__(self, name: str, seed: int, smoke: bool, work: Path):
        rng = np.random.default_rng(seed)
        n_grid, n_levels, n_draws, n_thin = (200, 200, 2000, 500) if smoke else \
            (2000, 5000, 100_000, 10_000)
        # the 5-phase law stays fixed and every query set has pinned end
        # points: the uniformization depth K follows from both, and the cost
        # of a K-column weight table is not smooth in K
        self.pi, self.T = BASE_PI, BASE_T
        self.T20 = _chain20(rng)
        self.erlang_lam = float(rng.uniform(1.2, 1.8))
        self.draw_seeds = [int(s) for s in rng.integers(0, 2**31, 4)]

        # half of the grid lies past q x = 600, where the uniformization
        # route hands each point to its own matrix exponential
        q = float(np.max(-np.diag(self.T)))
        half = n_grid // 2
        self.u_grid = np.concatenate([
            _spread(rng, 0.01, 0.95 * 600.0 / q, half),
            _spread(rng, 1.05 * 600.0 / q, 1.5 * 600.0 / q, n_grid - half),
        ])
        self.y_grid = np.expm1(self.u_grid)
        self.levels = 0.999 * ref.stratified_levels(rng, n_levels)
        self.x_iph = _spread(rng, 0.01, 20.0, n_grid)
        self.y_erlang = _spread(rng, 0.0, 50.0, n_grid)
        self.n_draws, self.n_thin = n_draws, n_thin
        self.sample_count = n_draws // 50
        self.gsf_at = 4.0
        self.pi_span = (0.5, 3.5)
        self.const_t = 1.7
        self.rate_bound = max(self.SCALES) * q

        base = phcore.ph_new(self.pi, self.T)
        self.doc = work / "model.json"
        modelio.save_model(families.tph_new(base, families.ParetoExp()), self.doc)
        self.base20 = phcore.ph_new(np.eye(20)[0], self.T20)
        self.iph_d = iph.iph_new(base, iph.power_rate(self.POWER_BETA))
        self.path3 = iph.piecewise_path(self.CUTS, [s * self.T for s in self.SCALES])
        self.const_path = iph.path_new(lambda t: self.T, "constant", check_times=[0.0, 1.0])
        self.erlang_model = families.tph_new(
            phcore.erlang_rep(self.ERLANG_N, self.erlang_lam), families.ParetoExp())
        self.sample_out = work / "draws.txt"
        self.cli_sample = ["sample", "--params", str(self.doc), "--count",
                           str(self.sample_count), "--seed", str(self.draw_seeds[3]),
                           "--out", str(self.sample_out)]
        self.cli_eval = ["eval", "--params", str(self.doc), "--query", "quantile", "--at", "0.99"]

    def warmup(self, ops):
        model = ops.run("load_model", modelio.load_model, self.doc)
        ops.run("tph_pdf", families.tph_pdf, model, self.y_grid[::50])
        ops.run("tph_quantile", families.tph_quantile, model, self.levels[::50])
        ops.run("mp_laplace", families.mp_laplace, model, self.LAPLACE_S[0])
        ops.run("product_integral", iph.product_integral, self.path3, *self.pi_span)
        ops.run("cli.eval", run_cli, self.cli_eval)

    def round(self, ops):
        rng = np.random.default_rng
        out = {}
        out["model"] = model = ops.run("load_model", modelio.load_model, self.doc)
        out["pdf"] = ops.run("tph_pdf", families.tph_pdf, model, self.y_grid)
        out["sf"] = ops.run("tph_sf", families.tph_sf, model, self.y_grid)
        out["quantile"] = ops.run("tph_quantile", families.tph_quantile, model, self.levels)
        out["draws"] = ops.run("tph_sample", families.tph_sample, model,
                               rng(self.draw_seeds[0]), self.n_draws)
        out["draws20"] = ops.run("ph_sample", phcore.ph_sample, self.base20,
                                 rng(self.draw_seeds[1]), self.n_draws)
        out["excess"] = ops.run("mp_conditional_excess", families.mp_conditional_excess,
                                model, self.EXCESS_AT)
        out["laplace"] = [ops.run("mp_laplace", families.mp_laplace, model, s)
                          for s in self.LAPLACE_S]
        base = model.base if model is not None else None
        out["frac"] = ops.run("ph_frac_moment", phcore.ph_frac_moment, base, 0.5)
        out["log"] = ops.run("ph_log_moment", phcore.ph_log_moment, base)
        out["iph_sf"] = ops.run("iph_sf", iph.iph_sf, self.iph_d, self.x_iph)
        out["gsf"] = ops.run("iph_general_sf", iph.iph_general_sf, self.pi, self.path3,
                             self.gsf_at)
        out["pint"] = ops.run("product_integral", iph.product_integral, self.path3,
                              *self.pi_span)
        out["pconst"] = ops.run("product_integral", iph.product_integral, self.const_path,
                                0.0, self.const_t)
        out["thin"] = ops.run("thinning_sample", iph.thinning_sample, self.pi, self.path3,
                              self.rate_bound, rng(self.draw_seeds[2]), self.n_thin)
        out["erlang"] = ops.run("tph_pdf", families.tph_pdf, self.erlang_model, self.y_erlang)
        out["eval"] = ops.run("cli.eval", run_cli, self.cli_eval)
        out["sample"] = ops.run("cli.sample", run_cli, self.cli_sample)
        return out

    def summarize(self, out):
        """Digest of the round's numeric outputs, to compare rounds with each other."""
        if out["sample"] is not None:
            out["sample_text"] = self.sample_out.read_text()
        keys = ("pdf", "sf", "quantile", "draws", "draws20", "iph_sf", "thin")
        return {"digest": hash(tuple(None if out[k] is None else out[k].tobytes() for k in keys))}

    def _piecewise_expm(self, a, b):
        """prod of expm over the pieces of the 3-piece path on [a, b]."""
        knots = [a] + [c for c in self.CUTS if a < c < b] + [b]
        M = np.eye(5)
        for lo, hi in zip(knots[:-1], knots[1:]):
            piece = int(np.searchsorted(self.CUTS, lo, side="right"))
            M = M @ sla.expm(self.SCALES[piece] * self.T * (hi - lo))
        return M

    def check(self, rounds, out):
        checks = []
        _check(checks, "every round gave the same outputs",
               all(r["digest"] == rounds[0]["digest"] for r in rounds))
        missing = [k for k, v in out.items() if v is None or (isinstance(v, list) and None in v)]
        _check(checks, "every query returned", not missing, f"missing {missing}")
        if missing:
            return checks
        pi, T, ones = self.pi, self.T, np.ones(5)

        jac = 1.0 / (1.0 + self.y_grid)
        _close(checks, "tph_pdf on the grid matches expm",
               ref.rel_err(out["pdf"], ref.ph_pdf(pi, T, self.u_grid) * jac), 1e-8)
        _close(checks, "tph_sf on the grid matches expm",
               ref.rel_err(out["sf"], ref.ph_sf(pi, T, self.u_grid)), 1e-8)
        uq = np.log1p(out["quantile"])
        _close(checks, "quantile -> sf round trip",
               float(np.max(np.abs(ref.ph_sf(pi, T, uq) - (1.0 - self.levels)))), 1e-8)

        draws = out["draws"]
        _check(checks, "tph_sample draws are finite and positive",
               draws.shape == (self.n_draws,) and np.all(np.isfinite(draws) & (draws > 0)))
        for k in (len(self.levels) // 2, len(self.levels) * 9 // 10):
            level = self.levels[k]
            hits = int(np.sum(draws > out["quantile"][k]))
            _sigma_close(checks, f"tph_sample share above the {level:.3f} quantile",
                         hits, draws.size, 1.0 - level)
        d20 = out["draws20"]
        mean20 = float(np.eye(20)[0] @ np.linalg.solve(-self.T20, np.ones(20)))
        se = float(np.std(d20)) / math.sqrt(d20.size)
        _check(checks, "ph_sample (20 phases) mean", abs(d20.mean() - mean20) <= 5.0 * se,
               f"{d20.mean():.5f} vs {mean20:.5f} +- {5.0 * se:.5f}")

        x = self.EXCESS_AT
        z = np.array([0.5, 2.0, 10.0, 100.0])
        want = ref.ph_sf(pi, T, np.log1p(x + z)) / ref.ph_sf(pi, T, [math.log1p(x)])
        _close(checks, "mp_conditional_excess survival",
               ref.rel_err(families.tph_sf(out["excess"], z), want), 1e-9)

        for s, got in zip(self.LAPLACE_S, out["laplace"]):
            want = quad(lambda v: math.exp(-s * math.expm1(min(v, 700.0)))
                        * ref.ph_pdf(pi, T, [v])[0], 0.0, np.inf, limit=400,
                        epsabs=0.0, epsrel=1e-11)[0]
            _close(checks, f"mp_laplace(s={s:g}) against quadrature",
                   ref.rel_err(got, want), 1e-7)
        want = math.gamma(1.5) * float(pi @ sla.fractional_matrix_power(-T, -0.5).real @ ones)
        _close(checks, "ph_frac_moment(1/2)", ref.rel_err(out["frac"], want), 1e-9)
        want = -float(np.euler_gamma) - float(pi @ sla.logm(-T).real @ ones)
        _close(checks, "ph_log_moment", abs(out["log"] - want), 1e-9)

        _close(checks, "iph_sf under power_rate",
               ref.rel_err(out["iph_sf"], ref.ph_sf(pi, T, self.x_iph**self.POWER_BETA)), 1e-9)
        want_gsf = float(pi @ self._piecewise_expm(0.0, self.gsf_at) @ ones)
        _close(checks, "iph_general_sf on the 3-piece path", abs(out["gsf"] - want_gsf), 1e-8)
        _close(checks, "product_integral on the 3-piece path",
               float(np.max(np.abs(out["pint"] - self._piecewise_expm(*self.pi_span)))), 1e-8)
        _close(checks, "product_integral of a constant path vs scipy expm",
               float(np.max(np.abs(out["pconst"] - sla.expm(self.const_t * T)))), 1e-8)
        thin = out["thin"]
        _sigma_close(checks, "thinning_sample survival at x = 4",
                     int(np.sum(thin > self.gsf_at)), thin.size, want_gsf)

        want = families.erlang_oracle("pareto", self.ERLANG_N, self.erlang_lam, self.y_erlang)
        _close(checks, "tph_pdf on an Erlang base vs erlang_oracle",
               ref.rel_err(out["erlang"], want), 1e-10)

        q99 = float(out["eval"])
        _close(checks, "iphfit eval quantile 0.99",
               abs(ref.ph_sf(pi, T, [math.log1p(q99)])[0] - 0.01), 1e-9)
        lines = out["sample_text"].split()
        vals = np.array([float(v) for v in lines])
        _check(checks, "iphfit sample wrote its draws",
               vals.size == self.sample_count and np.all(np.isfinite(vals) & (vals > 0)),
               f"{vals.size} values")
        return checks


WORKLOADS = {"fit-claims-5k": FitWorkload, "fit-outlier-20k": FitWorkload, "query-mix": QueryMix}
