"""Config-driven command line for end-to-end experiments.

Subcommands: ``generate`` (simulate and write datasets), ``fit``
(differentiate if needed, regress, emit model artifacts), ``compare``
(simulate true vs identified dynamics, write error-vs-time curves) and
``sweep`` (threshold sweep, Pareto CSV, fit at the chosen threshold).

Configs are JSON documents with ``spec_version: 1``; command-line
``--seed`` and ``--lambda`` override config values.  Exit codes: 0
success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import read_dataset_csv, write_dataset_csv, write_pareto_csv
from .differentiation import (
    NoiseSpec,
    TvDiffConfig,
    add_noise,
    differentiate_dataset,
    hard_threshold_svd,
)
from .errors import ConfigError, DataError, NumericalError, SindykitError
from .integrate import IntegratorConfig, dp45_adaptive
from .library import LibrarySpec
from .model import Mode, SparseModel, TimeSeriesDataset, model_to_json, render_table
from .reduction import compute_basis, reduce_dataset
from .regression import FitReport, LassoConfig, StlsqConfig, fit
from .selection import pick_elbow, sweep
from .systems import (
    SystemSpec,
    augment_parameter,
    concatenate,
    logistic_ensemble,
    simulate,
    system_rhs,
)

__all__ = ["main", "error_curve", "load_config"]


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if cfg.get("spec_version") != 1:
        raise ConfigError("config must declare spec_version: 1")
    if "system" not in cfg:
        raise ConfigError("config must declare a system")
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _integrator(cfg: dict) -> IntegratorConfig:
    ic = cfg["system"].get("integrator", {})
    return IntegratorConfig(
        method=ic.get("method", "rk4"),
        abs_tol=float(ic.get("abs_tol", 1e-10)),
        rel_tol=float(ic.get("rel_tol", 1e-10)),
        record_step_size=bool(ic.get("record_step_size", False)),
    )


def _system_runs(cfg: dict) -> list[SystemSpec]:
    """Expand the system block into one spec per trajectory.

    ``system.runs`` lists per-run overrides ({"params": ..., "x0": ...})
    for ensemble experiments, and the logistic map has one run per value
    of ``ensemble_mus``; otherwise there is a single run.
    """
    sysc = cfg["system"]
    if sysc["kind"] == "logistic":
        runs = [{"params": {"mu": mu}, "x0": sysc.get("x0", [0.5])}
                for mu in sysc.get("ensemble_mus", [])]
    else:
        runs = sysc.get("runs", [{}])
    if not runs:
        raise ConfigError("system expands to no runs: ensemble_mus or runs is empty")
    specs = []
    for run in runs:
        params = dict(sysc.get("params", {}))
        params.update(run.get("params", {}))
        specs.append(SystemSpec(
            kind=sysc["kind"],
            x0=tuple(run.get("x0", sysc.get("x0", ()))),
            t_span=tuple(run.get("t_span", sysc.get("t_span", (0.0, 10.0)))),
            dt=float(run.get("dt", sysc.get("dt", 0.01))),
            params=params,
        ))
    return specs


def _simulate_runs(cfg: dict, specs: list[SystemSpec], seed: int) -> list[TimeSeriesDataset]:
    """The raw trajectory of each run, before noise and augmentation."""
    sysc = cfg["system"]
    if sysc["kind"] == "logistic":
        # per-value seeds match the slices of logistic_ensemble over all values
        return [
            logistic_ensemble(
                [spec.params["mu"]], n_steps=int(sysc.get("n_steps", 1000)),
                eta=float(sysc.get("forcing", 0.0)), seed=seed + 1000 * i, x0=spec.x0[0])
            for i, spec in enumerate(specs)]
    integ = _integrator(cfg)
    return [simulate(spec, integ) for spec in specs]


def _join_runs(cfg: dict, specs: list[SystemSpec],
               runs: list[TimeSeriesDataset]) -> TimeSeriesDataset:
    """Append each run's configured parameter as a known state, then concatenate."""
    aug = cfg["system"].get("augment")
    if aug:
        runs = [augment_parameter(ds, aug["name"], float(spec.params[aug["param"]]))
                for spec, ds in zip(specs, runs)]
    return concatenate(runs) if len(runs) > 1 else runs[0]


def _library(cfg: dict, n_states: int) -> LibrarySpec:
    lc = cfg.get("library", {})
    return LibrarySpec(
        n_states=n_states,
        poly_order=int(lc.get("poly_order", 5)),
        trig_harmonics=frozenset(lc.get("trig_harmonics", ())),
        include_constant=bool(lc.get("include_constant", True)),
    )


def _fit_mode(cfg: dict) -> Mode:
    mode = cfg.get("fit", {}).get("mode", "continuous")
    try:
        return Mode(mode)
    except ValueError:
        raise ConfigError(f"unknown fit mode {mode!r}") from None


def _fit_config(cfg: dict, override_threshold: float | None) -> StlsqConfig | LassoConfig:
    fc = dict(cfg.get("fit", {}))
    method = fc.get("method", "stlsq")
    if method == "stlsq":
        threshold = float(fc.get("threshold", 0.05))
        if override_threshold is not None:
            threshold = override_threshold
        return StlsqConfig(
            threshold=threshold,
            max_iterations=int(fc.get("max_iterations", 10)),
        )
    if method == "lasso":
        lam1 = float(fc.get("lambda1", 0.1))
        if override_threshold is not None:
            lam1 = override_threshold
        return LassoConfig(
            lambda1=lam1,
            tol=float(fc.get("tol", 1e-10)),
            max_sweeps=int(fc.get("max_sweeps", 10_000)),
        )
    raise ConfigError(f"unknown fit method {method!r}")


def _condition(ds: TimeSeriesDataset, cfg: dict, noise_seed: int,
               mode: Mode) -> TimeSeriesDataset:
    """Apply configured noise and derivative estimation to one trajectory."""
    nc = cfg.get("noise", {})
    eta = float(nc.get("eta", 0.0))
    if eta > 0.0:
        ds = add_noise(ds, NoiseSpec(eta=eta, target=nc.get("target", "derivatives"),
                                     seed=noise_seed))
    dc = cfg.get("differentiation", {"method": "exact"})
    if dc.get("denoise_states"):
        ds = ds.with_(states=hard_threshold_svd(ds.states))
    method = dc.get("method", "exact")
    if method == "exact":
        if ds.derivatives is None and mode is Mode.CONTINUOUS:
            raise DataError(
                "differentiation method 'exact' needs stored derivatives; "
                "external data without them must use 'central' or 'tv'")
    elif method in ("central", "tv"):
        tv = TvDiffConfig(
            alpha=float(dc.get("alpha", 0.01)),
            dt=1.0,  # replaced per segment from the data
            iterations=int(dc.get("iterations", 100)),
            epsilon=float(dc.get("epsilon", 1e-8)),
        ) if method == "tv" else None
        ds = differentiate_dataset(ds.with_(derivatives=None), method, tv=tv)
    else:
        raise ConfigError(f"unknown differentiation method {method!r}")
    return ds


def _prepare(cfg: dict, seed: int, data_path: str | None, mode: Mode) -> TimeSeriesDataset:
    """generate (or load) -> noise -> differentiate -> augment -> reduce.

    Runs are noise-injected and differentiated independently (a fresh
    noise stream per run), then parameter-augmented and concatenated, so
    known parameter columns stay exact.
    """
    noise_base = int(cfg.get("noise", {}).get("seed", seed + 1))
    if data_path is not None:
        ds = _condition(read_dataset_csv(data_path), cfg, noise_base, mode)
    else:
        specs = _system_runs(cfg)
        runs = [_condition(run, cfg, noise_base + i, mode)
                for i, run in enumerate(_simulate_runs(cfg, specs, seed))]
        ds = _join_runs(cfg, specs, runs)
    rc = cfg.get("reduction")
    if rc:
        basis = compute_basis(
            ds.states,
            rank=rc.get("rank"),
            energy=rc.get("energy"),
            remove_mean=bool(rc.get("remove_mean", False)),
        )
        ds = reduce_dataset(ds, basis)
    return ds


def _json_artifact(path: Path, render) -> None:
    """Write ``render()`` to ``path``; JSON holds no NaN or infinity."""
    try:
        text = render()
    except ValueError as exc:
        raise NumericalError(f"{path.name} would hold a non-finite value: {exc}") from exc
    path.write_text(text)


def _write_model_artifacts(out: Path, model: SparseModel, report: FitReport) -> dict:
    paths = {
        "model_json": out / "model.json",
        "model_table": out / "model_table.txt",
        "fit_report": out / "fit_report.json",
    }
    _json_artifact(paths["model_json"], lambda: model_to_json(model))
    paths["model_table"].write_text(render_table(model))
    _json_artifact(paths["fit_report"], report.to_json)
    return {k: str(v) for k, v in paths.items()}


def _write_run_report(out: Path, command: str, cfg: dict, seed: int,
                      artifacts: dict, summary: dict) -> Path:
    report = {
        "spec_version": 1,
        "command": command,
        "config_sha256": _config_hash(cfg),
        "seed": seed,
        "version": __version__,
        "artifacts": artifacts,
        "summary": summary,
    }
    path = out / "run_report.json"
    _json_artifact(path, lambda: json.dumps(report, indent=2, allow_nan=False))
    return path


def error_curve(f_true, f_model, x0: np.ndarray, grid: np.ndarray,
                abs_tol: float = 1e-10, rel_tol: float = 1e-10) -> np.ndarray:
    """Pointwise L2 distance between two simulations from the same state."""
    xt, _ = dp45_adaptive(f_true, np.asarray(x0, float), grid, abs_tol, rel_tol)
    xm, _ = dp45_adaptive(f_model, np.asarray(x0, float), grid, abs_tol, rel_tol)
    return np.linalg.norm(xt - xm, axis=1)


def cmd_generate(cfg: dict, out: Path, seed: int) -> int:
    specs = _system_runs(cfg)
    runs = _simulate_runs(cfg, specs, seed)
    artifacts = {}
    if cfg["system"]["kind"] == "logistic":
        # one file per parameter value next to the concatenated training set
        for i, (spec, run) in enumerate(zip(specs, runs)):
            path = write_dataset_csv(run, out / f"logistic_mu_{spec.params['mu']}.csv")
            artifacts[f"mu_{i}"] = str(path)
    ds = _join_runs(cfg, specs, runs)
    artifacts["dataset"] = str(write_dataset_csv(ds, out / "dataset.csv"))
    _write_run_report(out, "generate", cfg, seed, artifacts,
                      {"samples": ds.n_samples, "states": ds.n_states})
    return 0


def cmd_fit(cfg: dict, out: Path, seed: int, data_path: str | None,
            override_threshold: float | None) -> int:
    mode = _fit_mode(cfg)
    fit_cfg = _fit_config(cfg, override_threshold)
    ds = _prepare(cfg, seed, data_path, mode)
    spec = _library(cfg, ds.n_states)
    model, report = fit(ds, spec, fit_cfg, mode=mode)
    artifacts = _write_model_artifacts(out, model, report)
    _write_run_report(out, "fit", cfg, seed, artifacts,
                      {"nnz": model.nnz(), "n_terms": len(model.terms)})
    return 0


def cmd_compare(cfg: dict, out: Path, seed: int, override_threshold: float | None) -> int:
    specs = _system_runs(cfg)
    spec, *more = specs
    if more or spec.kind == "logistic":
        raise ConfigError("compare needs a config that expands to a single continuous-time "
                          f"run, not {len(specs)} {spec.kind} run(s)")
    if _fit_mode(cfg) is not Mode.CONTINUOUS:
        raise ConfigError("compare needs a continuous-time model")
    fit_cfg = _fit_config(cfg, override_threshold)
    cc = cfg.get("compare", {})
    horizon = float(cc.get("horizon", 20.0))
    grid_dt = float(cc.get("grid_dt", 0.01))
    etas = [float(e) for e in cc.get("etas", [cfg.get("noise", {}).get("eta", 0.0)])]
    grid = np.arange(0.0, horizon + grid_dt / 2, grid_dt)
    f_true = system_rhs(spec)
    [base] = _simulate_runs(cfg, specs, seed)
    lib = _library(cfg, base.n_states)
    artifacts, summary = {}, {}
    last_model = None
    for i, eta in enumerate(etas):
        ds = base
        if eta > 0.0:
            ds = add_noise(ds, NoiseSpec(eta=eta, target="derivatives", seed=seed + 1 + i))
        model, _ = fit(ds, lib, fit_cfg, mode=Mode.CONTINUOUS)
        last_model = model
        try:
            err = error_curve(f_true, model.rhs(), np.array(spec.x0), grid)
        except NumericalError as exc:
            summary[f"eta_{eta}"] = {"failed": str(exc)}
            continue
        path = out / f"error_eta_{eta:g}.csv"
        with path.open("w") as fh:
            fh.write("t,error\n")
            for t, e in zip(grid, err):
                fh.write(f"{t:.17g},{e:.17g}\n")
        artifacts[f"error_eta_{eta:g}"] = str(path)
        summary[f"eta_{eta}"] = {"max_error": float(err.max()),
                                 "tail_mean": float(err[grid >= 0.75 * horizon].mean())}
    long_h = cc.get("long_horizon")
    if long_h and last_model is not None:
        lgrid = np.arange(0.0, float(long_h) + grid_dt / 2, grid_dt)
        xm, _ = dp45_adaptive(last_model.rhs(), np.array(spec.x0), lgrid, 1e-9, 1e-9)
        path = out / "long_horizon.csv"
        with path.open("w") as fh:
            fh.write("t," + ",".join(f"x{i+1}" for i in range(xm.shape[1])) + "\n")
            for t, row in zip(lgrid, xm):
                fh.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")
        artifacts["long_horizon"] = str(path)
        summary["long_horizon"] = {
            "min": [float(v) for v in xm.min(axis=0)],
            "max": [float(v) for v in xm.max(axis=0)],
        }
    _write_run_report(out, "compare", cfg, seed, artifacts, summary)
    return 0


def cmd_sweep(cfg: dict, out: Path, seed: int, data_path: str | None) -> int:
    mode = _fit_mode(cfg)
    ds = _prepare(cfg, seed, data_path, mode)
    sc = cfg.get("selection", {})
    if "lambdas" in sc:
        lambdas = np.array([float(v) for v in sc["lambdas"]])
    else:
        lambdas = np.logspace(float(sc.get("log10_min", -4)),
                              float(sc.get("log10_max", 0)),
                              int(sc.get("count", 25)))
    lib = _library(cfg, ds.n_states)
    points, models = sweep(ds, lib, lambdas, fraction=float(sc.get("fraction", 0.2)),
                           policy=sc.get("policy", "tail"), seed=seed, mode=mode)
    chosen = pick_elbow(points)
    artifacts = {"pareto": str(write_pareto_csv(points, out / "pareto.csv"))}
    model, report = next(
        (m, r) for p, (m, r) in zip(points, models) if p.threshold == chosen)
    artifacts.update(_write_model_artifacts(out, model, report))
    _write_run_report(out, "sweep", cfg, seed, artifacts,
                      {"chosen_lambda": chosen, "nnz": model.nnz()})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sindykit",
        description="Identify sparse nonlinear dynamics from time-series data.")
    parser.add_argument("command", choices=["generate", "fit", "compare", "sweep"])
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--data", default=None, help="existing dataset CSV (fit/sweep)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--lambda", dest="threshold", type=float, default=None,
                        help="override sparsification threshold")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {out}: {exc}") from exc
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if args.command == "generate":
            return cmd_generate(cfg, out, seed)
        if args.command == "fit":
            return cmd_fit(cfg, out, seed, args.data, args.threshold)
        if args.command == "compare":
            return cmd_compare(cfg, out, seed, args.threshold)
        return cmd_sweep(cfg, out, seed, args.data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, SindykitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
