"""The benchmark's workloads: a shipped config, the commands run on it, and its true model.

Each workload runs the ``sindykit`` command line on one file of
``configs/``.  The benchmark seed shifts only the config's ``seed`` and
``noise.seed``; seed 0 gives the shipped config unchanged.

Command x config pairs left out because they fail at the commit that
introduced this benchmark (each can be added as its own benchmark change
once it is fixed): ``compare`` on hopf and logistic (exit 2, ``compare``
ignores ``system.runs``), ``compare`` on meanfield (raw ``IndexError``),
and ``sweep`` on logistic (exit 3, ``sweep`` ignores ``fit.mode``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# Spans that every traced pass of a workload must record; each names
# "<module>.<function>" as in spans.TRACED.
_REGRESSION = frozenset({"library.build_matrix", "regression.fit", "regression.stlsq",
                         "regression.least_squares"})


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: tuple[str, ...]
    why: str
    expected_spans: frozenset[str]
    expected_counters: frozenset[str]
    # worst relative coefficient error allowed at seed 0: the acceptance
    # suite's tolerance for the same experiment
    coef_tolerance: float


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lorenz",
        config="lorenz.json",
        commands=("generate", "fit", "sweep"),
        why="1e5 samples x 56 terms with exact derivatives: library, regression (STLSQ), "
            "selection and dataio do the work; TV differentiation stays idle",
        expected_spans=_REGRESSION | {
            "systems.simulate", "integrate.rk4_fixed", "differentiation.add_noise",
            "selection.sweep", "dataio.write_dataset_csv", "dataio.read_dataset_csv"},
        expected_counters=frozenset({"systems.rhs_evals"}),
        coef_tolerance=0.005,
    ),
    Workload(
        name="lorenz-compare",
        config="lorenz.json",
        commands=("compare",),
        why="six noisy Lorenz fits re-simulated to t=20 and one to t=250: the adaptive "
            "integrator and the identified model's RHS do the work",
        expected_spans=_REGRESSION | {
            "systems.simulate", "integrate.rk4_fixed", "integrate.dp45_adaptive",
            "differentiation.add_noise"},
        expected_counters=frozenset({"systems.rhs_evals", "model.rhs_evals"}),
        coef_tolerance=0.0,  # compare writes no model
    ),
    Workload(
        name="hopf",
        config="hopf.json",
        commands=("fit",),
        why="24 noisy runs x 1251 samples: TV differentiation does the work "
            "and regression is nearly idle",
        expected_spans=_REGRESSION | {
            "systems.simulate", "integrate.rk4_fixed", "differentiation.add_noise",
            "differentiation.differentiate_dataset", "differentiation.tv_derivative"},
        expected_counters=frozenset({"systems.rhs_evals"}),
        coef_tolerance=0.12,
    ),
    # Not in BENCHMARK.json: a fourth workload would push the benchmark's
    # full set of runs past its time budget.  Kept runnable by hand for the
    # map loop and the tall, narrow regression it alone exercises.
    Workload(
        name="logistic",
        config="logistic.json",
        commands=("fit",),
        why="discrete-mode fit of 10 maps x 1e5 steps: a Python map loop instead of RK4 "
            "and a tall, narrow 1e6 x 21 least-squares problem",
        expected_spans=_REGRESSION | {"systems.logistic_ensemble", "systems.iterate_map"},
        expected_counters=frozenset(),
        coef_tolerance=0.01,
    ),
)}


def derive_config(shipped: dict, seed: int) -> dict:
    """The shipped config with ``seed`` and ``noise.seed`` shifted by ``seed``."""
    cfg = copy.deepcopy(shipped)
    cfg["seed"] = int(shipped.get("seed", 0)) + seed
    noise = cfg.get("noise")
    if noise is not None and "seed" in noise:
        noise["seed"] = int(noise["seed"]) + seed
    return cfg


def command_argv(workload: Workload, command: str, config: str, pass_dir: str) -> list[str]:
    """Arguments for one command; ``fit`` reads the dataset that ``generate`` wrote."""
    argv = [command, "--config", config, "--out", f"{pass_dir}/{command}"]
    if command == "fit" and "generate" in workload.commands:
        argv += ["--data", f"{pass_dir}/generate/dataset.csv"]
    return argv


def true_model(cfg: dict) -> tuple[tuple[str, ...], list[dict[str, float]]]:
    """State names and, per equation, the true coefficient of each nonzero term.

    Terms are named as sindykit names monomials: state names repeated by
    their exponent, in state order ("xz", "xxr"), and "1" for the constant.
    """
    system = cfg["system"]
    kind, p = system["kind"], system.get("params", {})
    if kind == "lorenz":
        s, b, r = p["sigma"], p["beta"], p["rho"]
        return ("x", "y", "z"), [
            {"x": -s, "y": s},
            {"x": r, "y": -1.0, "xz": -1.0},
            {"xy": 1.0, "z": -b},
        ]
    if kind == "hopf" and system.get("augment", {}).get("param") == "mu":
        om, a = p["omega"], p["A"]
        u = system["augment"]["name"]
        return ("x", "y", u), [
            {"x" + u: 1.0, "y": -om, "xxx": -a, "xyy": -a},
            {"x": om, "y" + u: 1.0, "xxy": -a, "yyy": -a},
            {},
        ]
    if kind == "logistic":
        return ("x", "r"), [{"xr": 1.0, "xxr": -1.0}, {"r": 1.0}]
    raise ValueError(f"no true model for system kind {kind!r}")
