"""Command-line front end: fit, eval, sample, oracle-check.

    iphfit fit --input claims.csv --transform pareto --shift auto \
               --phases 5 --seed 1 --out-dir results/

writes into the output directory:

    params.json        fitted model document ("iph-params/1")
    loglik.csv         per-model log-likelihoods, original and fit scale
    density.csv        y, fitted pdf, fitted sf on a plot-ready grid
    qq.csv             empirical vs model quantiles at i/(N+1)
    hist_transformed.csv   histogram of the transformed data vs base pdf

`eval` answers pdf/sf/quantile/mean queries against a params document,
`sample` draws from a saved model, and `oracle-check` runs a quick
self-test of the closed forms.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .emfit import FitConfig, em_step, fit_erlang_rate, fit_transformed
from .errors import (
    ConfigError,
    DataFileError,
    IphError,
    ModelDocumentError,
    ShiftError,
    ValidationError,
)
from .families import (
    FAMILIES,
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    tph_new,
    tph_pdf,
    tph_quantile,
    tph_sample,
    tph_sf,
)
from .iph import inverse_linear_rate, iph_new, iph_sf, path_new, product_integral, rate_function
from .matfun import mat_exp
from .modelio import load_model, model_mean, save_model
from .phcore import erlang_rep, ph_pdf, ph_quantile, ph_sample

__all__ = ["RunConfig", "ingest_csv", "auto_shift", "run_fit", "eval_cmd", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated settings for one `fit` run."""

    input_path: str
    transform: str
    out_dir: str
    column: int = 0
    header_rows: int = 0
    beta: float | None = None
    sigma: float | None = None
    mu: float | None = None
    xi: float | None = None
    shift: object = "auto"
    phases: int = 5
    seed: int = 0
    max_iters: int = 2000
    erlang_baseline: int | None = None
    grid_points: int = 512

    def __post_init__(self):
        if not self.input_path:
            raise ConfigError("input path must be nonempty")
        if not self.out_dir:
            raise ConfigError("output directory must be nonempty")
        if self.transform not in FAMILIES:
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.phases < 1:
            raise ConfigError(f"phases must be >= 1, got {self.phases}")
        if self.grid_points < 2:
            raise ConfigError(f"grid-points must be >= 2, got {self.grid_points}")
        if self.column < 0 or self.header_rows < 0:
            raise ConfigError("column and header-rows must be nonnegative")
        if self.max_iters < 1:
            raise ConfigError(f"max-iters must be >= 1, got {self.max_iters}")
        if self.erlang_baseline is not None and self.erlang_baseline < 1:
            raise ConfigError(f"erlang-baseline must be >= 1, got {self.erlang_baseline}")
        if not isinstance(self.shift, str):
            if not math.isfinite(float(self.shift)):
                raise ConfigError(f"shift must be finite, got {self.shift}")
        elif self.shift != "auto":
            raise ConfigError(f"shift must be a real number or 'auto', got {self.shift!r}")


def build_transform(cfg: RunConfig):
    """Transform object from CLI parameters, with family-specific checks."""
    if cfg.transform == "pareto":
        if cfg.beta is not None:
            raise ConfigError(
                "--beta is not accepted when fitting pareto: the scale is the fitted mean"
            )
        return ParetoExp()
    if cfg.transform == "weibull":
        if cfg.beta is None:
            raise ConfigError("weibull requires --beta")
        return Power(cfg.beta)
    if cfg.transform == "gumbel":
        if cfg.sigma is None:
            raise ConfigError("gumbel requires --sigma (and optionally --mu)")
        return NegLogAffine(cfg.mu if cfg.mu is not None else 0.0, cfg.sigma)
    if cfg.sigma is None or cfg.xi is None:
        raise ConfigError("gev requires --sigma and --xi (and optionally --mu)")
    return ShiftedPower(cfg.mu if cfg.mu is not None else 0.0, cfg.sigma, cfg.xi)


# ---------------------------------------------------------------------------
# ingestion and shifting
# ---------------------------------------------------------------------------

def ingest_csv(path, column: int = 0, header_rows: int = 0) -> np.ndarray:
    """Parse one column of positive reals; errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc

    def rows():
        """(line number, text) of each data row: past the header, not blank."""
        numbered = enumerate(lines, start=1)
        return ((n, ln) for n, ln in numbered if n > header_rows and ln and not ln.isspace())
    try:
        values = np.array([ln.split(",")[column] for _, ln in rows()], dtype=float)
        if values.size and np.all((values > 0) & (values < np.inf)):
            return values
    except (IndexError, ValueError):
        pass
    # the bulk parse failed: walk the same rows to name the first bad one
    for lineno, line in rows():
        fields = line.split(",")
        if column >= len(fields):
            raise DataFileError(
                f"{path}:{lineno}: needs column {column} but row has {len(fields)} fields"
            )
        raw = fields[column].strip()
        try:
            v = float(raw)
        except ValueError as exc:
            raise DataFileError(f"{path}:{lineno}: not a number: {raw!r}") from exc
        if not math.isfinite(v) or v <= 0:
            raise DataFileError(f"{path}:{lineno}: values must be positive reals, got {raw}")
    raise DataFileError(f"{path}: no data rows found")


def auto_shift(data) -> float:
    """Largest one-decimal value strictly below the minimum log-datum."""
    return _auto_shift_from(float(np.min(np.log(np.asarray(data, dtype=float)))))


def _auto_shift_from(u_min: float) -> float:
    """Largest one-decimal value strictly below an already transformed minimum."""
    v = math.floor(u_min * 10.0) / 10.0
    if v >= u_min:
        v = round(v - 0.1, 10)
    return v


# ---------------------------------------------------------------------------
# fit orchestration
# ---------------------------------------------------------------------------

def _csv_text(*cols) -> str:
    """The columns as comma-separated rows, every cell to 17 digits (.17g)."""
    A = np.asarray(np.column_stack(cols), dtype=float)
    row = ",".join(["%.17g"] * A.shape[1]) + "\n"
    return row * A.shape[0] % tuple(A.ravel().tolist())


def _write_csv(path, header: str, *cols) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + _csv_text(*cols))


def run_fit(cfg: RunConfig) -> dict:
    """Ingest, fit, and emit every report file; returns a summary dict.

    Any failure after the output directory exists removes the files this
    run had already written.
    """
    transform = build_transform(cfg)
    xs = ingest_csv(cfg.input_path, cfg.column, cfg.header_rows)

    if isinstance(cfg.shift, str):
        if cfg.transform == "pareto":
            shift = auto_shift(xs)
        else:
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                u_raw = np.asarray(transform.to_x(xs, 1.0), dtype=float)
            if not np.all(np.isfinite(u_raw)):
                bad = np.flatnonzero(~np.isfinite(u_raw)).tolist()
                raise ShiftError(
                    f"data outside the transform's support at indices {bad[:10]}",
                    indices=bad,
                )
            shift = _auto_shift_from(float(u_raw.min()))
    else:
        shift = float(cfg.shift)

    os.makedirs(cfg.out_dir, exist_ok=True)
    written: list[str] = []

    def out(name: str) -> str:
        p = os.path.join(cfg.out_dir, name)
        written.append(p)
        return p

    try:
        fit_cfg = FitConfig(phases=cfg.phases, max_iters=cfg.max_iters, seed=cfg.seed)
        model, result = fit_transformed(xs, transform, shift, fit_cfg)

        doc = save_model(model, out("params.json"))

        loglik_rows = [
            ("fitted", result.loglik_original, result.loglik),
        ]
        if cfg.erlang_baseline is not None:
            u = np.asarray(transform.to_x(xs, 1.0), dtype=float) - shift
            lam, ll_t = fit_erlang_rate(u, cfg.erlang_baseline)
            with np.errstate(divide="ignore"):
                ll_o = ll_t + float(np.sum(np.log(transform.jac(xs, 1.0))))
            loglik_rows.append((f"erlang{cfg.erlang_baseline}", ll_o, ll_t))
        with open(out("loglik.csv"), "w", encoding="utf-8") as fh:
            fh.write("model,loglik_original,loglik_transformed\n")
            for name, lo, lt in loglik_rows:
                fh.write(f"{name},{format(lo, '.17g')},{format(lt, '.17g')}\n")

        lo_y, hi_y = float(xs.min()), float(xs.max())
        if transform.increasing and lo_y > 0:
            grid = np.geomspace(lo_y, hi_y, cfg.grid_points)
        else:
            grid = np.linspace(lo_y, hi_y, cfg.grid_points)
        _write_csv(out("density.csv"), "y,pdf,sf", grid, tph_pdf(model, grid), tph_sf(model, grid))

        n = xs.size
        qs = np.arange(1, n + 1) / (n + 1.0)
        _write_csv(out("qq.csv"), "empirical,model", np.sort(xs), tph_quantile(model, qs))

        u = np.asarray(transform.to_x(xs, 1.0), dtype=float) - shift
        dens, edges = np.histogram(u, bins="auto", density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        _write_csv(
            out("hist_transformed.csv"),
            "bin_left,bin_right,empirical_density,model_pdf",
            edges[:-1], edges[1:], dens, ph_pdf(model.base, centers),
        )
    except BaseException:
        for p in written:
            try:
                os.remove(p)
            except OSError:
                pass
        raise

    return {
        "params": doc,
        "shift": shift,
        "converged": result.converged,
        "iterations": result.iterations_run,
        "loglik_original": result.loglik_original,
        "loglik_transformed": result.loglik,
        "files": written,
    }


# ---------------------------------------------------------------------------
# eval / sample / oracle-check
# ---------------------------------------------------------------------------

def eval_cmd(params_path: str, query: str, at: float | None) -> str:
    """Answer one query against a saved model; returns the printed text."""
    model = load_model(params_path)
    if query == "mean":
        m = model_mean(model)
        return "infinite" if math.isinf(m) else format(m, ".17g")
    if at is None:
        raise ConfigError(f"query {query!r} needs --at")
    if math.isnan(at):
        raise ConfigError(f"query {query!r} needs a number for --at, got {at}")
    if query == "pdf":
        return format(tph_pdf(model, float(at)), ".17g")
    if query == "sf":
        return format(tph_sf(model, float(at)), ".17g")
    if query == "quantile":
        q = float(at)
        # a decreasing map sends level 1 to the support's upper end
        if model.transform.increasing and not (0 <= q < 1):
            raise ConfigError(f"quantile level must be in [0,1), got {q}")
        if not model.transform.increasing and not (0 < q <= 1):
            raise ConfigError(f"quantile level must be in (0,1] for a decreasing map, got {q}")
        return format(tph_quantile(model, q), ".17g")
    raise ConfigError(f"unknown query {query!r}")


def _oracle_checks() -> list[tuple[str, bool]]:
    checks = []
    exp1 = erlang_rep(1, 1.0)
    d = iph_new(exp1, inverse_linear_rate(1.0))
    ys = np.linspace(0.0, 30.0, 64)
    checks.append(
        ("scalar Pareto survival", bool(np.max(np.abs(iph_sf(d, ys) - 1 / (1 + ys))) < 1e-12))
    )
    m = tph_pdf(tph_new(erlang_rep(2, 3.0), ParetoExp()), math.e - 1.0)
    checks.append(("log-Erlang density", abs(m - 9 * math.exp(-4)) < 1e-12))
    g = NegLogAffine(0.0, 1.0)
    checks.append(
        ("Gumbel point mass", abs(tph_sf(tph_new(exp1, g), 0.0) - (1 - math.exp(-1))) < 1e-12)
    )
    T = erlang_rep(2, 1.5).T
    P = product_integral(path_new(lambda t: T, "const", check_times=[0.0, 1.0]), 0.0, 1.3)
    checks.append(("product integral", bool(np.max(np.abs(P - mat_exp(1.3 * T))) < 1e-8)))
    data = ph_sample(exp1, np.random.default_rng(0), 2000)
    stepped = em_step(erlang_rep(1, 5.0), data)
    checks.append(("one-step exponential MLE", abs(-stepped.T[0, 0] - 1 / data.mean()) < 1e-10))
    qs = np.array([1e-12, 0.5, 1.0 - 1e-9])
    want = -np.log1p(-qs) / 2.0
    got = ph_quantile(erlang_rep(1, 2.0), qs)
    checks.append(("exponential quantiles", bool(np.max(np.abs(got / want - 1.0)) < 1e-10)))
    ys = np.array([1e-3, 0.7, 30.0])
    root = rate_function(lambda t: 0.5 / np.sqrt(t), primitive=np.sqrt)
    checks.append(("solver inverse primitive",
                   bool(np.max(np.abs(root.inverse_at(ys) / ys**2 - 1.0)) < 1e-10)))
    return checks


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="iphfit", description="Transformed phase-type fitting")
    sub = ap.add_subparsers(dest="verb", required=True)

    fit = sub.add_parser("fit", help="fit a transformed PH model to a data column")
    fit.add_argument("--input", dest="input_path", metavar="INPUT")
    fit.add_argument("--column", type=int)
    fit.add_argument("--header-rows", type=int)
    fit.add_argument("--transform", choices=list(FAMILIES))
    fit.add_argument("--beta", type=float)
    fit.add_argument("--sigma", type=float)
    fit.add_argument("--mu", type=float)
    fit.add_argument("--xi", type=float)
    fit.add_argument("--shift", default=None, help="real number or 'auto'")
    fit.add_argument("--phases", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--max-iters", type=int)
    fit.add_argument("--erlang-baseline", type=int)
    fit.add_argument("--out-dir")
    fit.add_argument("--deterministic", action="store_true",
                     help="accepted and ignored; fits are always bitwise reproducible "
                          "for a given input and BLAS thread count")
    fit.add_argument("--grid-points", type=int)
    fit.add_argument("--config", help="JSON file with the same keys as the flags")

    ev = sub.add_parser("eval", help="query a saved params document")
    ev.add_argument("--params", required=True)
    ev.add_argument("--query", required=True, choices=["pdf", "sf", "quantile", "mean"])
    ev.add_argument("--at", type=float)

    sm = sub.add_parser("sample", help="draw from a saved model")
    sm.add_argument("--params", required=True)
    sm.add_argument("--count", type=int, required=True)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", help="write one value per line here instead of stdout")

    sub.add_parser("oracle-check", help="run built-in closed-form self-tests")
    return ap


def _fit_config_from_args(args) -> RunConfig:
    """RunConfig from the config file, then the flags given on the command line.

    Config keys are the RunConfig field names (dashes allowed for
    underscores), except that ``input_path`` is spelled ``input``.
    """
    names = [f.name for f in dataclasses.fields(RunConfig)]
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        keys = {"input" if name == "input_path" else name: name for name in names}
        for key, value in raw.items():
            name = keys.get(key.replace("-", "_"))
            if name is None:
                raise ConfigError(f"config file: unknown key {key!r}")
            settings[name] = value
    for name in names:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    for required in ("input_path", "transform", "out_dir"):
        if required not in settings or settings[required] is None:
            raise ConfigError(f"missing required setting {required!r}")
    shift = settings.get("shift")
    if isinstance(shift, str) and shift != "auto":
        try:
            settings["shift"] = float(shift)
        except ValueError:
            raise ConfigError(f"shift must be a real number or 'auto', got {shift!r}") from None
    elif shift is not None and not isinstance(shift, str):
        settings["shift"] = float(shift)
    try:
        return RunConfig(**settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        if args.verb == "fit":
            cfg = _fit_config_from_args(args)
            summary = run_fit(cfg)
            print(f"shift: {summary['shift']}")
            print(f"converged: {summary['converged']} after {summary['iterations']} iterations")
            print(f"loglik (original scale): {summary['loglik_original']:.6f}")
            print(f"loglik (transformed scale): {summary['loglik_transformed']:.6f}")
            for p in summary["files"]:
                print(f"wrote {p}")
            return EXIT_OK
        if args.verb == "eval":
            print(eval_cmd(args.params, args.query, args.at))
            return EXIT_OK
        if args.verb == "sample":
            if args.count < 0:
                raise ConfigError(f"count must be nonnegative, got {args.count}")
            model = load_model(args.params)
            draws = tph_sample(model, np.random.default_rng(args.seed), args.count)
            text = _csv_text(draws)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"wrote {args.out}")
            else:
                print(text, end="")
            return EXIT_OK
        checks = _oracle_checks()
        ok = True
        for name, passed in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {name}")
            ok = ok and passed
        return EXIT_OK if ok else EXIT_NUMERIC
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFileError, ShiftError, ModelDocumentError, ValidationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IphError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
