"""Config-driven command line for end-to-end experiments.

Subcommands: ``generate`` (simulate and write datasets), ``fit``
(differentiate if needed, regress, emit model artifacts), ``compare``
(simulate true vs identified dynamics, write error-vs-time curves) and
``sweep`` (threshold sweep, Pareto CSV, fit at the chosen threshold).

Configs are JSON documents with ``spec_version: 1``; command-line ``--seed`` and
``--lambda`` override config values.  ``main`` checks the whole config once against
``_KEYS``, the kind and default of every key, and runs the command's entry of
``_COMMANDS`` on that experiment.  An unknown key, a key of a variant the config did not
choose (``differentiation.alpha`` under ``exact``), a null, a malformed value and a flag
the command does not read are config errors naming the key or flag.  Exit codes: 0
success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import read_dataset_csv, write_csv, write_dataset_csv, write_pareto_csv
from .differentiation import NoiseSpec, TvDiffConfig, add_noise, differentiate_dataset
from .errors import ConfigError, DataError, NumericalError, SindykitError
from .integrate import dp45_adaptive
from .library import LibrarySpec, enumerate_terms
from .model import Mode, SparseModel, TimeSeriesDataset, _frozen, model_to_json, render_table
from .model import check_term_names, default_state_names
from .regression import FitReport, RegressionProblem, StlsqConfig, _regression_problem, fit
from .selection import pick_elbow, sweep
from .systems import (
    MAP,
    SystemSpec,
    _SYSTEMS,
    augment_signal,
    concatenate,
    grid_steps,
    logistic_ensemble,
    simulate,
    system_rhs,
)

__all__ = ["main", "error_curve", "load_config"]


def _reject_constant(name: str):
    raise ConfigError(f"config holds the non-finite number {name}")


def load_config(path: str | Path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if (not isinstance(cfg, dict) or cfg.get("spec_version") != 1
            or not _is_int(cfg["spec_version"])):
        raise ConfigError("config must be an object declaring spec_version: 1")
    if "system" not in cfg:
        raise ConfigError("config must declare a system")
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An int or float that a finite double holds: JSON reads 1e400 as
    infinity, and an integer of 400 digits overflows a double."""
    try:
        return (_is_int(v) or isinstance(v, float)) and math.isfinite(v)
    except OverflowError:
        return False


# kind -> (description, test); JSON booleans are not numbers here
_KINDS = {
    "number": ("a number", _is_number),
    "positive": ("a positive number", lambda v: _is_number(v) and v > 0),
    "nonnegative": ("a nonnegative number", lambda v: _is_number(v) and v >= 0),
    "integer": ("an integer", _is_int),
    "natural": ("a nonnegative integer", lambda v: _is_int(v) and v >= 0),
    "counting": ("a positive integer", lambda v: _is_int(v) and v >= 1),
    "mu": ("a number in (0, 4]", lambda v: _is_number(v) and 0 < v <= 4),  # logistic mu
    "string": ("a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class _Choice:
    """A key whose value picks one variant of its block's further keys."""

    default: str | None  # None: the config must give the key
    variants: dict  # value -> {key: kind} of the keys only that value reads


# the step of compare's error and long-horizon grids
COMPARE_DT = 0.01

_RUN = {"x0": ["number"], "params": "number{}"}  # every run shares the flow's grid
_CONTINUOUS = {**_RUN, "t_span": ["number"], "dt": "positive", "runs": ([_RUN], [{}]),
               "augment": {"name": "string", "param": "string"}}
_LOGISTIC = {"ensemble_mus": (["mu"], []), "n_steps": ("counting", 1000),
             "forcing": ("nonnegative", 0.0)}  # the map starts each run at 0.5

# Every config key with its kind: a name in _KINDS, [kind] for a list of
# them, "kind{}" for an object of them under any names, a dict for a block.
# A (kind, default) pair holds a default that the package does not hold.
_KEYS = {
    "spec_version": "integer",
    "seed": ("natural", 0),
    "system": {
        "kind": _Choice(None, {**dict.fromkeys(_SYSTEMS, _CONTINUOUS), MAP: _LOGISTIC}),
    },
    "noise": {"eta": ("nonnegative", 0.0),
              "target": _Choice("derivatives", {"derivatives": {}, "states": {}}),
              "seed": "natural"},
    "differentiation": {
        "method": _Choice("exact", {"exact": {}, "tv": {
            "alpha": ("positive", 0.01), "iterations": "counting"}}),
    },
    "library": {"poly_order": ("integer", 5)},
    "fit": {"threshold": ("nonnegative", 0.05)},
    "selection": {"log10_min": ("number", -4.0), "log10_max": ("number", 0.0),
                  "count": ("counting", 25)},
    "compare": {"horizon": ("positive", 20.0), "etas": ["nonnegative"],
                "long_horizon": "positive"},
}


def _join(key: str, name) -> str:
    return f"{key}.{name}" if key else name


def _expect(value, cls: type, key: str):
    if not isinstance(value, cls):
        shape = "a list" if cls is list else "an object"
        raise ConfigError(f"{key} must be {shape}, not {json.dumps(value)}")
    return value


def _parse(value, kind, key: str):
    """``value`` checked to be ``kind`` (see ``_KEYS``), numbers as floats;
    ``key`` is its dotted path in messages."""
    if value is None:
        raise ConfigError(f"{key} is null; leave a key out to take its default")
    if isinstance(kind, dict):
        return _block(_expect(value, dict, key), kind, key)
    if isinstance(kind, list):
        return [_parse(v, kind[0], f"{key}[{i}]") for i, v in enumerate(_expect(value, list, key))]
    if kind.endswith("{}"):
        items = _expect(value, dict, key).items()
        return {name: _parse(v, kind[:-2], _join(key, name)) for name, v in items}
    description, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{key} must be {description}, not {json.dumps(value)}")
    if kind == "nonnegative":
        return float(value) + 0.0  # -0.0 + 0.0 is 0.0: one noise level, one curve name
    return float(value) if kind in ("number", "positive", "mu") else value


def _block(value: dict, table: dict, key: str) -> dict:
    """A block checked against its ``table``, with the default of each key
    or block it leaves out.  Each ``_Choice`` adds the keys of the variant
    that the block picks; a key of another variant does not apply."""
    table, unchosen = dict(table), {}
    choices = [(name, entry) for name, entry in table.items() if isinstance(entry, _Choice)]
    for name, entry in choices:
        path = _join(key, name)
        if name not in value and entry.default is None:
            raise ConfigError(f"config needs {path}")
        choice = _parse(value.get(name, entry.default), "string", path)
        if choice not in entry.variants:
            raise ConfigError(f"unknown {path} {choice!r}")
        table.update({name: ("string", choice), **entry.variants[choice]})
        unchosen.update((k, f'{path} "{choice}"') for v in entry.variants.values() for k in v)
    for name in value:
        if name not in table:
            raise ConfigError(f"{_join(key, name)} does not apply to {unchosen[name]}"
                              if name in unchosen else f"unknown key {_join(key, name)}")
    block = {}
    for name, entry in table.items():
        sub, *default = entry if isinstance(entry, tuple) else (entry,)
        if isinstance(sub, dict):
            default = [{}]  # an absent block takes the defaults of its keys
        if name in value or default:
            block[name] = _parse(value.get(name, *default), sub, _join(key, name))
    return block


def parse_experiment(cfg: dict, seed: int | None = None, threshold: float | None = None) -> dict:
    """``cfg`` checked against ``_KEYS`` once, with the defaults of ``_KEYS`` filled in.

    ``seed`` and ``threshold`` (``--seed`` and ``--lambda``), checked right after the
    keys, replace the keys ``seed`` and ``fit.threshold``, so the experiment holds what
    runs.  The checks that need several values or a package object run here too, so every
    command stops on them, whatever blocks it reads: the augmented parameter must belong
    to every run, every run parameter is one that the system kind or
    ``system.augment.param`` reads, ``compare.etas`` holds at least one level and no two
    whose curves share a file name, every grid passes ``grid_steps`` (a flow's
    ``system.t_span`` over ``system.dt``, which all its runs share, the map's
    ``system.n_steps`` and each of ``compare.horizon`` and ``compare.long_horizon`` in
    ``COMPARE_DT`` steps: it ends after it starts, on a whole number of steps, at most
    ``MAX_STEPS``), a flow has a run, each run's ``x0`` one value per state and its
    parameters pass ``SystemSpec``'s checks, the map has a value of mu,
    ``system.augment.name`` gives no two library terms one name (``x`` times ``u`` is
    ``xu``), every conditioning setting reaches the fit (``tv`` only under
    a flow, derivative noise only on the stored derivatives that a flow's fit reads
    under ``exact``), the ``library`` block passes ``LibrarySpec``'s checks, the
    ``selection`` block gives an ascending grid of distinct, finite, nonzero thresholds,
    and each package config object is built once and kept for the commands:
    ``exp["mode"]`` (discrete for the kind ``MAP``, continuous for every flow of
    ``_SYSTEMS``; the one place that tells them apart), ``exp["specs"]`` (one
    ``SystemSpec`` per run of a flow; absent for the map, whose runs
    ``logistic_ensemble`` makes),
    ``exp["noise_spec"]`` (its seed ``seed`` + 1 unless ``noise.seed`` is given),
    ``exp["tv"]`` (``None`` unless differentiation is ``"tv"``), ``exp["fit_config"]``
    and ``exp["thresholds"]`` (the sweep's grid).
    """
    exp = _parse(cfg, _KEYS, "")
    if seed is not None:
        exp["seed"] = _parse(seed, "natural", "--seed")
    if threshold is not None:  # a non-finite value is refused as no number
        exp["fit"]["threshold"] = _parse(_parse(threshold, "number", "--lambda"),
                                         "nonnegative", "--lambda")
    system = exp["system"]
    kind, augment = system["kind"], system.get("augment", {})  # a flow's block
    if augment and (missing := sorted({"name", "param"} - augment.keys())):
        raise ConfigError(f"config needs system.augment.{missing[0]}")
    discrete = kind == MAP
    exp["mode"] = Mode.DISCRETE if discrete else Mode.CONTINUOUS
    if discrete:  # the map's runs are logistic_ensemble's, one per value of mu
        if not system["ensemble_mus"]:
            raise ConfigError(f"system.ensemble_mus is empty; {kind} needs a value of mu")
        grid_steps((0, system["n_steps"]), 1, f"system.n_steps {system['n_steps']}")
    else:  # every run of a flow steps system.dt over system.t_span
        t_span, dt = system.get("t_span", list(SystemSpec.t_span)), system.get("dt", SystemSpec.dt)
        grid_steps(t_span, dt, f"system.t_span {t_span} over system.dt {dt!r}")
        exp["specs"] = _system_runs(system)
        if augment and any(augment["param"] not in spec.params for spec in exp["specs"]):
            raise ConfigError(
                f"system.augment.param {augment['param']!r} is not a parameter of every run")
        reads = {*_SYSTEMS[kind][1], *([augment["param"]] if augment else [])}
        runs = [(f"system.runs[{i}]", run) for i, run in enumerate(system["runs"])]
        for key, block in [("system", system), *runs]:
            for name in block.get("params", {}):
                if name not in reads:
                    raise ConfigError(f"{key}.params.{name} is read by neither {kind} "
                                      "nor system.augment.param")
    etas = exp["compare"].get("etas")
    if etas == []:
        raise ConfigError("compare.etas is empty; compare needs a noise level")
    first = {}  # curve name -> index of the level that writes it
    for i, eta in enumerate(etas or ()):
        if (j := first.setdefault(f"{eta:g}", i)) != i:
            raise ConfigError(f"compare.etas[{j}] {etas[j]!r} and compare.etas[{i}] {eta!r} "
                              f"would both write error_eta_{eta:g}.csv")
    for name, h in exp["compare"].items():
        if name in ("horizon", "long_horizon"):
            grid_steps((0.0, h), COMPARE_DT, f"compare.{name} {h!r} in steps of {COMPARE_DT!r}")
    noise = exp["noise_spec"] = NoiseSpec(**{"seed": exp["seed"] + 1, **exp["noise"]})
    method = exp["differentiation"]["method"]
    if discrete and method != "exact":
        raise ConfigError(f'differentiation.method "{method}" does not apply to {kind}, '
                          'a map whose fit reads no derivatives')
    if noise.eta > 0.0 and noise.target != "states" and (discrete or method != "exact"):
        reader = (f'{kind}, a map, never reads' if discrete else
                  f'differentiation.method "{method}" replaces with its estimates')
        raise ConfigError(f'noise.eta {noise.eta:g} on noise.target "{noise.target}" '
                          f'perturbs derivatives that {reader}')
    exp["tv"] = (TvDiffConfig(**{name: v for name, v in exp["differentiation"].items()
                                 if name != "method"}) if method == "tv" else None)
    LibrarySpec(1, **exp["library"])  # its value checks; the data's state count changes none
    if augment:
        _check_term_names((*default_state_names(_SYSTEMS[kind][0]), augment["name"]), exp,
                          f"system.augment.name {json.dumps(augment['name'])}", ConfigError)
    exp["fit_config"] = StlsqConfig(**exp["fit"])
    exp["thresholds"] = _thresholds(exp["selection"])
    return exp


def _thresholds(sel: dict) -> np.ndarray:
    """The sweep's threshold grid from a parsed ``selection`` block: 10 ** a, then each
    threshold the one before times r = 10 ** ((b - a) / (n - 1)), a and b the bounds and
    n the count, worked out in ``decimal`` at 40 digits and each rounded once to a double.
    Decimal arithmetic runs on integers, so the grid has the same bits on every host;
    those of ``np.logspace`` and ``10.0 ** x`` depend on the host's SIMD loops and libm."""
    count = sel["count"]
    if count > 10**6:  # a fit per threshold
        raise ConfigError(f"selection.count must be at most 1000000, not {count}")
    if sel["log10_min"] > sel["log10_max"]:
        raise ConfigError("selection.log10_min exceeds selection.log10_max")
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        ctx.traps[decimal.Overflow] = False  # a threshold past a double is refused below
        ctx.traps[decimal.InvalidOperation] = False  # 0 * inf, past both bounds, is NaN
        a, b = (decimal.Decimal(repr(sel[key])) for key in ("log10_min", "log10_max"))
        value, ratio = 10 ** a, 10 ** ((b - a) / max(count - 1, 1))
        thresholds = np.empty(count)
        for i in range(count):
            thresholds[i], value = value, value * ratio
    if thresholds[0] == 0.0:  # the smallest, rounded to 0: the sweep would fit it repeatedly
        raise ConfigError(f"selection.log10_min {sel['log10_min']!r} puts a threshold below "
                          "the smallest double, about 10 ** -323")
    if not np.isfinite(thresholds[-1]):  # the largest; with one threshold, 10 ** log10_min
        key = "log10_max" if count > 1 else "log10_min"
        raise ConfigError(f"selection.{key} {sel[key]!r} puts a threshold past the largest "
                          "double, about 10 ** 308")
    if (np.diff(thresholds) <= 0.0).any():  # bounds too close: the sweep would repeat a fit
        raise ConfigError("selection.count {count} repeats a threshold from selection.log10_min "
                          "{log10_min!r} to selection.log10_max {log10_max!r}".format(**sel))
    return thresholds


def _check_term_names(names: tuple[str, ...], exp: dict, what: str, error: type) -> None:
    """Refuse, as ``error`` naming ``what``, state ``names`` under which two
    terms of the fit's library share a name (``check_term_names``)."""
    try:
        check_term_names(enumerate_terms(LibrarySpec(len(names), **exp["library"])), names)
    except DataError as exc:
        raise error(f"{what}: {exc}") from exc


def _system_runs(system: dict) -> list[SystemSpec]:
    """One spec per run of a flow: each entry of ``system.runs`` overrides
    the shared ``system.x0`` and ``system.params``, and every run steps
    ``system.dt`` over ``system.t_span``.  A run's initial values must
    hold one value per state of the kind, and a refusal of its parameters
    names the block that sets them."""
    if not system["runs"]:
        raise ConfigError("system.runs is empty; a flow needs a run")
    kind, specs = system["kind"], []
    n = _SYSTEMS[kind][0]
    grid = {name: system[name] for name in ("t_span", "dt") if name in system}
    for i, run in enumerate(system["runs"]):
        key = f"system.runs[{i}].x0" if "x0" in run else "system.x0"
        x0 = run.get("x0", system.get("x0"))
        if x0 is None:
            raise ConfigError(f"config needs {key}")
        if len(x0) != n:
            raise ConfigError(f"{key} {x0} must hold {n} values, one per {kind} state")
        params = {**system.get("params", {}), **run.get("params", {})}
        try:
            specs.append(SystemSpec(kind, x0, **grid, params=params))
        except ConfigError as exc:  # a parameter that the kind needs, missing or out of range
            where = f"system.runs[{i}].params" if "params" in run else "system.params"
            raise ConfigError(f"{where}: {exc}") from exc
    return specs


def _simulate_runs(exp: dict, derivatives: bool = True) -> TimeSeriesDataset:
    """The command's runs joined, before noise and augmentation, by
    ``exp["mode"]``: a flow's by ``concatenate`` of ``exp["specs"]``, a segment
    per run (``derivatives``: with its exact ones), and the map's in one
    ``logistic_ensemble`` call over every ``system.ensemble_mus`` value, a
    segment per restart."""
    system = exp["system"]
    if exp["mode"] is Mode.DISCRETE:
        return logistic_ensemble(system["ensemble_mus"], system["n_steps"], system["forcing"],
                                 exp["seed"])
    return concatenate([simulate(spec, derivatives) for spec in exp["specs"]])


def _loaded_dataset(exp: dict, data_path: str) -> TimeSeriesDataset:
    """A dataset file without the configured ``system.augment.name`` column,
    which ``_augment`` appends again; the states that the fit then reads
    must give its library terms distinct names."""
    ds = read_dataset_csv(data_path)
    augment = exp["system"].get("augment", {}).get("name")
    keep = [i for i, name in enumerate(ds.state_names) if name != augment]
    names = tuple(ds.state_names[i] for i in keep)
    _check_term_names(names + ((augment,) if augment is not None else ()), exp,
                      data_path, DataError)
    if len(keep) == ds.n_states:
        return ds
    deriv = ds.derivatives
    return replace(ds, states=_frozen(np.take(ds.states, keep, axis=1)),
                   derivatives=None if deriv is None else _frozen(np.take(deriv, keep, axis=1)),
                   state_names=names)


def _augment(exp: dict, ds: TimeSeriesDataset) -> TimeSeriesDataset:
    """Append the configured parameter as a known state: run i's value on segment i."""
    augment = exp["system"].get("augment")
    if not augment:  # the map has neither an augment block nor specs
        return ds
    specs = exp["specs"]
    if len(ds.segments) != len(specs):
        raise DataError(f"the data holds {len(ds.segments)} runs; "
                        f"system.augment needs {len(specs)}")
    values = [spec.params[augment["param"]] for spec in specs]
    column = np.repeat(np.array(values, dtype=float), np.diff([*ds.segments, ds.n_samples]))
    return augment_signal(ds, augment["name"], column, np.zeros(ds.n_samples))


def _prepare(exp: dict, data_path: str | None) -> TimeSeriesDataset:
    """simulate (joined) or load -> noise -> differentiate -> augment.

    One ``add_noise`` call noises the joined runs, segment j with seed
    ``noise.seed + j``, so a loaded file, whose segments are the simulated
    dataset's, is noised as it was.  ``exact`` keeps the stored derivatives,
    which a flow's fit needs and which derivative noise perturbs; ``tv``
    estimates them from the states of every segment in one
    ``differentiate_dataset`` call, so the runs are simulated without them.
    The parameter column is appended last, so it stays exact.  The parse
    has refused derivative noise that the fit would not read.
    """
    noise, method = exp["noise_spec"], exp["differentiation"]["method"]
    ds = (_simulate_runs(exp, method == "exact") if data_path is None
          else _loaded_dataset(exp, data_path))
    if noise.eta > 0.0:
        ds = add_noise(ds, noise)
    if method == "tv":
        ds = differentiate_dataset(ds, exp["tv"])
    elif exp["mode"] is Mode.CONTINUOUS and ds.derivatives is None:
        raise DataError("differentiation method 'exact' needs stored derivatives; "
                        "external data without them must use 'tv'")
    return _augment(exp, ds)


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
        "config_sha256": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
        "artifacts": artifacts,
        "summary": summary,
    }
    path = out / "run_report.json"
    _json_artifact(path, lambda: json.dumps(report, indent=2, allow_nan=False))
    return path


def error_curve(reference: np.ndarray, f_model, grid: np.ndarray) -> np.ndarray:
    """Pointwise L2 distance between a reference trajectory sampled on
    ``grid`` and the simulation of ``f_model`` from its first state, at
    the truth's tolerances (1e-10 absolute and relative)."""
    xm, _ = dp45_adaptive(f_model, reference[0], grid, 1e-10, 1e-10)
    return np.linalg.norm(reference - xm, axis=1)


def cmd_generate(exp: dict, out: Path, data_path: None) -> tuple[dict, dict]:
    ds = _augment(exp, _simulate_runs(exp))
    artifacts = {"dataset": str(write_dataset_csv(ds, out / "dataset.csv"))}
    return artifacts, {"samples": ds.n_samples, "states": ds.n_states}


def cmd_fit(exp: dict, out: Path, data_path: str | None) -> tuple[dict, dict]:
    ds = _prepare(exp, data_path)
    model, report = fit(ds, LibrarySpec(ds.n_states, **exp["library"]), exp["fit_config"],
                        mode=exp["mode"])
    artifacts = _write_model_artifacts(out, model, report)
    return artifacts, {"nnz": model.nnz(), "n_terms": len(model.terms)}


def _noise_levels_problem(base: TimeSeriesDataset, lib: LibrarySpec, etas: list[float],
                          seed: int) -> RegressionProblem:
    """One factor of [Theta | dX_eta1 ... dX_etak] for every noise level: noise
    touches only the derivatives, so every eta shares the library, and
    level i is target columns n*i:n*(i+1), perturbed with seed ``seed + 1 + i``.

    Each level's noise is drawn one row block at a time, as the factor
    reads the rows, from that level's one generator: the levels get the
    bits of noising ``base`` whole, and no more than a block of them is
    ever held."""
    n = base.n_states
    specs = [NoiseSpec(eta=eta, seed=seed + 1 + i) for i, eta in enumerate(etas)]
    rngs = [np.random.default_rng(spec.seed) for spec in specs]

    def noisy_rows(start: int, stop: int) -> np.ndarray:
        block = TimeSeriesDataset(base.times[start:stop], base.states[start:stop],
                                  base.derivatives[start:stop], base.state_names)
        rows = np.empty((stop - start, n * len(specs)))
        for i, (spec, rng) in enumerate(zip(specs, rngs)):
            rows[:, n * i:n * (i + 1)] = add_noise(block, spec, rng).derivatives
        return rows

    return _regression_problem(base, lib, Mode.CONTINUOUS, derivatives=noisy_rows,
                               n_targets=n * len(specs))


def cmd_compare(exp: dict, out: Path, data_path: None) -> tuple[dict, dict]:
    system, discrete = exp["system"], exp["mode"] is Mode.DISCRETE
    runs = system["ensemble_mus"] if discrete else exp["specs"]
    if discrete or len(runs) > 1:
        raise ConfigError("compare needs a config that expands to a single continuous-time "
                          f"run, not {len(runs)} {system['kind']} run(s)")
    spec = runs[0]
    if (target := exp["noise_spec"].target) != "derivatives":
        raise ConfigError(f"compare perturbs only the derivatives; noise.target "
                          f"{target!r} does not apply to compare")
    for key, value in (("differentiation.method", exp["differentiation"]["method"] != "exact"),
                       ("system.augment", system["augment"])):
        if value:
            raise ConfigError(f"compare fits the exact derivatives of one run; {key} "
                              "does not apply to compare")
    cmp = exp["compare"]
    horizon, long_h = cmp["horizon"], cmp.get("long_horizon")
    etas = cmp.get("etas", [exp["noise_spec"].eta])
    grid = COMPARE_DT * np.arange(grid_steps((0.0, horizon), COMPARE_DT) + 1)
    base = _simulate_runs(exp)
    lib = LibrarySpec(base.n_states, **exp["library"])
    problem = _noise_levels_problem(base, lib, etas, exp["seed"])
    truth, _ = dp45_adaptive(system_rhs(spec), np.array(spec.x0), grid, 1e-10, 1e-10)
    artifacts, summary = {}, {}
    n = base.n_states
    for i, eta in enumerate(etas):
        model, _ = fit(base, lib, exp["fit_config"], mode=Mode.CONTINUOUS,
                       problem=problem.targets(n * i, n * (i + 1)))
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
    last = summary[f"eta_{etas[-1]}"]  # the level whose model the long run would integrate
    if long_h and "failed" in last:
        summary["long_horizon"] = {"failed": last["failed"]}  # not integrated a second time
    elif long_h:
        lgrid = COMPARE_DT * np.arange(grid_steps((0.0, long_h), COMPARE_DT) + 1)
        try:
            xm, _ = dp45_adaptive(model.rhs(), np.array(spec.x0), lgrid, 1e-9, 1e-9)
        except NumericalError as exc:
            summary["long_horizon"] = {"failed": str(exc)}
            return artifacts, summary
        path = write_csv(out / "long_horizon.csv",
                         ["t"] + [f"x{i + 1}" for i in range(xm.shape[1])],
                         np.column_stack([lgrid, xm]))
        artifacts["long_horizon"] = str(path)
        summary["long_horizon"] = {
            "min": [float(v) for v in xm.min(axis=0)],
            "max": [float(v) for v in xm.max(axis=0)],
        }
    return artifacts, summary


def cmd_sweep(exp: dict, out: Path, data_path: str | None) -> tuple[dict, dict]:
    ds = _prepare(exp, data_path)
    lib = LibrarySpec(ds.n_states, **exp["library"])
    points, models = sweep(ds, lib, exp["thresholds"], mode=exp["mode"])
    chosen = pick_elbow(points)
    artifacts = {"pareto": str(write_pareto_csv(points, out / "pareto.csv"))}
    model, report = next(
        (m, r) for p, (m, r) in zip(points, models) if p.threshold == chosen)
    artifacts.update(_write_model_artifacts(out, model, report))
    return artifacts, {"chosen_lambda": chosen, "nnz": model.nnz()}


# command -> (its function of the experiment, the output directory and the
# --data path; the optional flags that it reads besides --seed)
_COMMANDS = {"generate": (cmd_generate, ()), "fit": (cmd_fit, ("--data", "--lambda")),
             "compare": (cmd_compare, ("--lambda",)), "sweep": (cmd_sweep, ("--data",))}


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as ``warning: <message>``, without the source path and line
    that Python's format puts first."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command: refuse a flag that it does not read, parse the config
    with ``--seed`` and ``--lambda`` in effect, run the command's function
    from ``_COMMANDS`` and write ``run_report.json``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="sindykit",
        description="Identify sparse nonlinear dynamics from time-series data.")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--data", default=None, help="existing dataset CSV (fit/sweep)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--lambda", dest="threshold", type=float, default=None,
                        help="override the STLSQ threshold")
    args = parser.parse_args(argv)
    # only the printed form changes: a caller that records warnings still gets them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        command, flags = _COMMANDS[args.command]
        for flag, value in (("--data", args.data), ("--lambda", args.threshold)):
            if value is not None and flag not in flags:
                raise ConfigError(f"{flag} does not apply to {args.command}")
        cfg = load_config(args.config)
        exp = parse_experiment(cfg, args.seed, args.threshold)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        artifacts, summary = command(exp, out, args.data)
        _write_run_report(out, args.command, cfg, exp["seed"], artifacts, summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, SindykitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
