"""Config-driven command line for end-to-end experiments.

Subcommands: ``generate`` (simulate and write datasets), ``fit``
(differentiate if needed, regress, emit model artifacts), ``compare``
(simulate true vs identified dynamics, write error-vs-time curves) and
``sweep`` (threshold sweep, Pareto CSV, fit at the chosen threshold).

Configs are JSON documents with ``spec_version: 1``; command-line
``--seed`` and ``--lambda`` override config values.  Every config value
is read through one checked conversion, so a malformed one is a config
error naming its key.  Exit codes: 0 success, 2 config error, 3 data
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import read_dataset_csv, write_csv, write_dataset_csv, write_pareto_csv
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
from .regression import (FitReport, LassoConfig, StlsqConfig, _regression_data,
                         _with_sparsity, fit)
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
    if not isinstance(cfg, dict) or cfg.get("spec_version") != 1:
        raise ConfigError("config must be an object declaring spec_version: 1")
    if "system" not in cfg:
        raise ConfigError("config must declare a system")
    return cfg


_REQUIRED = object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


# kind -> (description, test); JSON booleans are not numbers here
_KINDS = {
    "number": ("a number", _is_number),
    "positive": ("a positive number", lambda v: _is_number(v) and v > 0),
    "integer": ("an integer", _is_int),
    "natural": ("a nonnegative integer", lambda v: _is_int(v) and v >= 0),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def _convert(value, kind: str, key: str):
    description, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{key} must be {description}, not {json.dumps(value)}")
    return float(value) if kind in ("number", "positive") else value


def _get(cfg: dict, key: str, kind: str, default=_REQUIRED, where: str = ""):
    """The value at the dotted ``key`` of ``cfg``, checked to be ``kind``.

    ``kind`` names one entry of ``_KINDS``; a ``[]`` suffix asks for a list
    of them and a ``{}`` suffix for an object of them.  Every block on the
    way must be an object.  An absent value reads as ``default``, as does
    null where the default is None; ``where`` prefixes the key in messages.
    """
    *blocks, name = key.split(".")
    node = cfg
    for i, part in enumerate(blocks):
        node = node.get(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{where}{'.'.join(blocks[:i + 1])} must be an object")
    value, label = node.get(name), where + key
    if value is None and (name not in node or default is None):
        if default is _REQUIRED:
            raise ConfigError(f"config needs {label}")
        return default
    if kind.endswith("[]"):
        if not isinstance(value, list):
            raise ConfigError(f"{label} must be a list, not {json.dumps(value)}")
        return [_convert(v, kind[:-2], f"{label}[{i}]") for i, v in enumerate(value)]
    if kind.endswith("{}"):
        if not isinstance(value, dict):
            raise ConfigError(f"{label} must be an object, not {json.dumps(value)}")
        return {k: _convert(v, kind[:-2], f"{label}.{k}") for k, v in value.items()}
    return _convert(value, kind, label)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _integrator(cfg: dict) -> IntegratorConfig:
    return IntegratorConfig(
        method=_get(cfg, "system.integrator.method", "string", "rk4"),
        abs_tol=_get(cfg, "system.integrator.abs_tol", "number", 1e-10),
        rel_tol=_get(cfg, "system.integrator.rel_tol", "number", 1e-10),
        record_step_size=_get(cfg, "system.integrator.record_step_size", "bool", False),
    )


def _system_runs(cfg: dict) -> list[SystemSpec]:
    """Expand the system block into one spec per trajectory.

    ``system.runs`` lists per-run overrides ({"params": ..., "x0": ...})
    for ensemble experiments, and the logistic map has one run per value
    of ``ensemble_mus``; otherwise there is a single run.
    """
    kind = _get(cfg, "system.kind", "string")
    x0 = _get(cfg, "system.x0", "number[]", [0.5] if kind == "logistic" else [])
    if kind == "logistic":
        runs = [{"params": {"mu": mu}} for mu in _get(cfg, "system.ensemble_mus", "number[]", [])]
    else:
        runs = _get(cfg, "system.runs", "object[]", [{}])
    if not runs:
        raise ConfigError("system expands to no runs: ensemble_mus or runs is empty")
    params = _get(cfg, "system.params", "number{}", {})
    t_span = _get(cfg, "system.t_span", "number[]", [0.0, 10.0])
    dt = _get(cfg, "system.dt", "number", 0.01)
    specs = []
    for i, run in enumerate(runs):
        where = f"system.runs[{i}]."
        specs.append(SystemSpec(
            kind=kind,
            x0=tuple(_get(run, "x0", "number[]", x0, where)),
            t_span=tuple(_get(run, "t_span", "number[]", t_span, where)),
            dt=_get(run, "dt", "number", dt, where),
            params={**params, **_get(run, "params", "number{}", {}, where)},
        ))
    return specs


def _simulate_runs(cfg: dict, specs: list[SystemSpec], seed: int) -> list[TimeSeriesDataset]:
    """The raw trajectory of each run, before noise and augmentation."""
    if specs[0].kind == "logistic":
        n_steps = _get(cfg, "system.n_steps", "natural", 1000)
        forcing = _get(cfg, "system.forcing", "number", 0.0)
        # per-value seeds match the slices of logistic_ensemble over all values
        return [
            logistic_ensemble([spec.params["mu"]], n_steps=n_steps, eta=forcing,
                              seed=seed + 1000 * i, x0=spec.x0[0])
            for i, spec in enumerate(specs)]
    integ = _integrator(cfg)
    return [simulate(spec, integ) for spec in specs]


def _join_runs(cfg: dict, specs: list[SystemSpec],
               runs: list[TimeSeriesDataset]) -> TimeSeriesDataset:
    """Append each run's configured parameter as a known state, then concatenate."""
    if _get(cfg, "system.augment", "object", None):
        name = _get(cfg, "system.augment.name", "string")
        param = _get(cfg, "system.augment.param", "string")
        if any(param not in spec.params for spec in specs):
            raise ConfigError(f"system.augment.param {param!r} is not a parameter of every run")
        runs = [augment_parameter(ds, name, spec.params[param])
                for spec, ds in zip(specs, runs)]
    return concatenate(runs) if len(runs) > 1 else runs[0]


def _library(cfg: dict, n_states: int) -> LibrarySpec:
    return LibrarySpec(
        n_states=n_states,
        poly_order=_get(cfg, "library.poly_order", "integer", 5),
        trig_harmonics=frozenset(_get(cfg, "library.trig_harmonics", "integer[]", [])),
        include_constant=_get(cfg, "library.include_constant", "bool", True),
    )


def _fit_mode(cfg: dict) -> Mode:
    mode = _get(cfg, "fit.mode", "string", "continuous")
    try:
        return Mode(mode)
    except ValueError:
        raise ConfigError(f"unknown fit mode {mode!r}") from None


def _fit_config(cfg: dict, override_threshold: float | None) -> StlsqConfig | LassoConfig:
    method = _get(cfg, "fit.method", "string", "stlsq")
    if method == "stlsq":
        fit_cfg = StlsqConfig(
            threshold=_get(cfg, "fit.threshold", "number", 0.05),
            max_iterations=_get(cfg, "fit.max_iterations", "integer", 10),
        )
    elif method == "lasso":
        fit_cfg = LassoConfig(
            lambda1=_get(cfg, "fit.lambda1", "number", 0.1),
            tol=_get(cfg, "fit.tol", "number", 1e-10),
            max_sweeps=_get(cfg, "fit.max_sweeps", "integer", 10_000),
        )
    else:
        raise ConfigError(f"unknown fit method {method!r}")
    return fit_cfg if override_threshold is None else _with_sparsity(fit_cfg, override_threshold)


def _condition(ds: TimeSeriesDataset, cfg: dict, noise_seed: int,
               mode: Mode) -> TimeSeriesDataset:
    """Apply configured noise and derivative estimation to one trajectory."""
    eta = _get(cfg, "noise.eta", "number", 0.0)
    if eta > 0.0:
        ds = add_noise(ds, NoiseSpec(
            eta=eta, target=_get(cfg, "noise.target", "string", "derivatives"), seed=noise_seed))
    if _get(cfg, "differentiation.denoise_states", "bool", False):
        ds = ds.with_(states=hard_threshold_svd(ds.states))
    method = _get(cfg, "differentiation.method", "string", "exact")
    if method == "exact":
        if ds.derivatives is None and mode is Mode.CONTINUOUS:
            raise DataError(
                "differentiation method 'exact' needs stored derivatives; "
                "external data without them must use 'central' or 'tv'")
    elif method in ("central", "tv"):
        tv = TvDiffConfig(
            alpha=_get(cfg, "differentiation.alpha", "number", 0.01),
            dt=1.0,  # replaced per segment from the data
            iterations=_get(cfg, "differentiation.iterations", "integer", 100),
            epsilon=_get(cfg, "differentiation.epsilon", "number", 1e-8),
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
    noise_base = _get(cfg, "noise.seed", "natural", seed + 1)
    if data_path is not None:
        ds = _condition(read_dataset_csv(data_path), cfg, noise_base, mode)
    else:
        specs = _system_runs(cfg)
        runs = [_condition(run, cfg, noise_base + i, mode)
                for i, run in enumerate(_simulate_runs(cfg, specs, seed))]
        ds = _join_runs(cfg, specs, runs)
    if _get(cfg, "reduction", "object", None):
        basis = compute_basis(
            ds.states,
            rank=_get(cfg, "reduction.rank", "natural", None),
            energy=_get(cfg, "reduction.energy", "number", None),
            remove_mean=_get(cfg, "reduction.remove_mean", "bool", False),
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


def error_curve(reference: np.ndarray, f_model, grid: np.ndarray,
                abs_tol: float = 1e-10, rel_tol: float = 1e-10) -> np.ndarray:
    """Pointwise L2 distance between a reference trajectory sampled on
    ``grid`` and the simulation of ``f_model`` from its first state."""
    xm, _ = dp45_adaptive(f_model, reference[0], grid, abs_tol, rel_tol)
    return np.linalg.norm(reference - xm, axis=1)


def cmd_generate(cfg: dict, out: Path, seed: int) -> int:
    specs = _system_runs(cfg)
    runs = _simulate_runs(cfg, specs, seed)
    artifacts = {}
    if specs[0].kind == "logistic":
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
    horizon = _get(cfg, "compare.horizon", "positive", 20.0)
    grid_dt = _get(cfg, "compare.grid_dt", "positive", 0.01)
    etas = _get(cfg, "compare.etas", "number[]", [_get(cfg, "noise.eta", "number", 0.0)])
    long_h = _get(cfg, "compare.long_horizon", "positive", None)
    grid = np.arange(0.0, horizon + grid_dt / 2, grid_dt)
    [base] = _simulate_runs(cfg, specs, seed)
    lib = _library(cfg, base.n_states)
    # noise only touches the derivatives: every eta shares one library and one truth
    theta, _ = _regression_data(base, lib, Mode.CONTINUOUS)
    truth, _ = dp45_adaptive(system_rhs(spec), np.array(spec.x0), grid, 1e-10, 1e-10)
    artifacts, summary = {}, {}
    model = None
    for i, eta in enumerate(etas):
        ds = add_noise(base, NoiseSpec(eta=eta, target="derivatives", seed=seed + 1 + i))
        model, _ = fit(ds, lib, fit_cfg, mode=Mode.CONTINUOUS, theta=theta)
        try:
            err = error_curve(truth, model.rhs(), grid)
        except NumericalError as exc:
            summary[f"eta_{eta}"] = {"failed": str(exc)}
            continue
        path = write_csv(out / f"error_eta_{eta:g}.csv", ["t", "error"],
                         np.column_stack([grid, err]))
        artifacts[f"error_eta_{eta:g}"] = str(path)
        summary[f"eta_{eta}"] = {"max_error": float(err.max()),
                                 "tail_mean": float(err[grid >= 0.75 * horizon].mean())}
    if long_h and model is not None:
        lgrid = np.arange(0.0, long_h + grid_dt / 2, grid_dt)
        xm, _ = dp45_adaptive(model.rhs(), np.array(spec.x0), lgrid, 1e-9, 1e-9)
        path = write_csv(out / "long_horizon.csv",
                         ["t"] + [f"x{i + 1}" for i in range(xm.shape[1])],
                         np.column_stack([lgrid, xm]))
        artifacts["long_horizon"] = str(path)
        summary["long_horizon"] = {
            "min": [float(v) for v in xm.min(axis=0)],
            "max": [float(v) for v in xm.max(axis=0)],
        }
    _write_run_report(out, "compare", cfg, seed, artifacts, summary)
    return 0


def cmd_sweep(cfg: dict, out: Path, seed: int, data_path: str | None) -> int:
    mode = _fit_mode(cfg)
    fit_cfg = _fit_config(cfg, None)
    lambdas = _get(cfg, "selection.lambdas", "number[]", None)
    if lambdas is None:
        lambdas = np.logspace(_get(cfg, "selection.log10_min", "number", -4.0),
                              _get(cfg, "selection.log10_max", "number", 0.0),
                              _get(cfg, "selection.count", "natural", 25))
    fraction = _get(cfg, "selection.fraction", "number", 0.2)
    policy = _get(cfg, "selection.policy", "string", "tail")
    ds = _prepare(cfg, seed, data_path, mode)
    lib = _library(cfg, ds.n_states)
    points, models = sweep(ds, lib, np.array(lambdas), fit_cfg, fraction=fraction,
                           policy=policy, seed=seed, mode=mode)
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
        seed = (_get(cfg, "seed", "natural", 0) if args.seed is None
                else _convert(args.seed, "natural", "--seed"))
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
