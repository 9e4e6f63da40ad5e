"""Every config value the command line reads, malformed one at a time.

Each case writes a small valid config with a single bad value, or a key
that no command reads, and runs a command.  The run must stop with exit
code 2 and a config error that names the key, never with an exception.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from sindykit import ConfigError
from sindykit.cli import _KEYS, _KINDS, COMPARE_DT, _Choice, main, parse_experiment
from sindykit.systems import MAX_STEPS, _SYSTEMS
from conftest import shipped_config

LIN2D = {
    "spec_version": 1,
    "seed": 0,
    "system": {"kind": "linear2d", "x0": [2.0, 0.0], "t_span": [0.0, 2.0], "dt": 0.01},
    "noise": {"eta": 0.01, "target": "derivatives", "seed": 3},
    "differentiation": {"method": "exact"},
    "library": {"poly_order": 2},
    "fit": {"threshold": 0.05, "max_iterations": 10},
    "selection": {"log10_min": -3, "log10_max": -0.3, "count": 5},
    "compare": {"horizon": 1.0, "etas": [0.0], "long_horizon": 2.0},
}
TV = dict(LIN2D, noise=dict(LIN2D["noise"], target="states"),
         differentiation={"method": "tv", "alpha": 0.01, "iterations": 2})
CONSTANT = dict(LIN2D, library={"poly_order": 0})
RUNS = dict(LIN2D, system={
    "kind": "linear2d", "t_span": [0.0, 2.0], "dt": 0.01,
    "runs": [{"x0": [1.0, 0.0], "params": {"mu": 0.1}},
             {"x0": [0.0, 1.0], "params": {"mu": 0.2}}],
    "augment": {"name": "u", "param": "mu"}})
LOGISTIC = {"spec_version": 1, "seed": 0,
            "system": {"kind": "logistic", "ensemble_mus": [3.7], "n_steps": 50,
                       "forcing": 0.01}}
MEANFIELD = {"spec_version": 1,
             "system": {"kind": "meanfield3d", "x0": [0.4, 0.0, 0.16], "t_span": [0.0, 1.0],
                        "params": {"mu": 0.1, "omega": 1.0, "A": -0.1, "lam": 10.0}}}
HOPF = shipped_config("hopf")
# one hopf run, which reads mu, omega and A
WITH_MU = dict(LIN2D, system=dict(LIN2D["system"], kind="hopf",
                                  params={"mu": 0.1, "omega": 1.0, "A": 1.0}))

DELETE = object()

# (command, base config, path to the bad value, bad value)
CASES = [
    ("fit", LIN2D, ("seed",), "0"),
    ("fit", LIN2D, ("seed",), -1),
    ("fit", LIN2D, ("system",), [1]),
    ("generate", LIN2D, ("system", "kind"), DELETE),
    ("generate", LIN2D, ("system", "kind"), 7),
    ("generate", LIN2D, ("system", "x0"), "2,0"),
    ("generate", LIN2D, ("system", "x0"), [2.0]),
    ("generate", LIN2D, ("system", "t_span"), None),
    ("generate", LIN2D, ("system", "t_span"), [0.0]),
    ("generate", LIN2D, ("system", "dt"), "0.01"),
    ("generate", LIN2D, ("system", "params"), [1.0]),
    ("generate", LIN2D, ("system", "params"), {"mu": "x"}),
    ("generate", RUNS, ("system", "runs"), {"x0": [1.0, 0.0]}),
    ("generate", RUNS, ("system", "runs", 0), 3),
    ("generate", RUNS, ("system", "runs", 0, "x0"), "1"),
    ("generate", RUNS, ("system", "runs", 0, "params"), {"mu": None}),
    ("generate", RUNS, ("system", "augment"), "u"),
    ("generate", RUNS, ("system", "augment", "name"), 1),
    ("generate", RUNS, ("system", "augment", "param"), "nu"),
    ("generate", LOGISTIC, ("system", "ensemble_mus"), 3.7),
    ("generate", LOGISTIC, ("system", "n_steps"), 50.5),
    ("generate", LOGISTIC, ("system", "forcing"), "0.01"),
    ("generate", LOGISTIC, ("system", "x0"), [0.5, 0.5]),
    ("fit", LIN2D, ("noise",), 0.01),
    ("fit", LIN2D, ("noise", "eta"), "0.01"),
    ("fit", LIN2D, ("noise", "target"), 1),
    ("fit", LIN2D, ("noise", "seed"), 1.5),
    ("fit", LIN2D, ("differentiation", "method"), 3),
    ("fit", TV, ("differentiation", "denoise_states"), 1),
    ("fit", TV, ("differentiation", "alpha"), "x"),
    ("fit", TV, ("differentiation", "iterations"), 2.5),
    ("fit", LIN2D, ("library", "poly_order"), 2.5),
    ("fit", LIN2D, ("library", "trig_harmonics"), [1.5]),
    ("fit", LIN2D, ("fit",), 5),
    ("fit", LIN2D, ("fit", "mode"), 1),
    ("fit", LIN2D, ("fit", "threshold"), "x"),
    ("fit", LIN2D, ("fit", "threshold"), -1.0),
    ("fit", LIN2D, ("fit", "max_iterations"), "10"),
    ("fit", LIN2D, ("fit", "max_iterations"), 1e3),
    ("compare", LIN2D, ("compare", "horizon"), "20"),
    ("compare", LIN2D, ("compare", "horizon"), -1.0),
    ("compare", LIN2D, ("compare", "grid_dt"), None),
    ("compare", LIN2D, ("compare", "etas"), 0.1),
    ("compare", LIN2D, ("compare", "etas"), ["0"]),
    ("generate", LIN2D, ("compare", "etas"), [0.1, 0.1000001]),
    ("compare", LIN2D, ("compare", "long_horizon"), "250"),
    ("sweep", LIN2D, ("selection", "log10_min"), "x"),
    ("sweep", LIN2D, ("selection", "log10_max"), None),
    ("sweep", LIN2D, ("selection", "count"), "abc"),
    ("sweep", LIN2D, ("selection", "count"), -1),
    # null never stands for an absent key
    ("compare", LIN2D, ("compare", "long_horizon"), None),
    ("fit", LIN2D, ("fit", "threshold"), None),
    # spec_version is the integer 1
    ("fit", LIN2D, ("spec_version",), True),
    ("fit", LIN2D, ("spec_version",), 1.0),
    # a malformed value in a block that the command does not read
    ("fit", LIN2D, ("compare", "horizon"), "x"),
    ("generate", LIN2D, ("selection", "count"), -3),
    # keys that no command reads
    ("fit", LIN2D, ("noize",), {"eta": 0.1}),
    ("fit", LIN2D, ("fit", "treshold"), 0.5),
    ("fit", LIN2D, ("fit", "lambda1"), 0.1),
    ("fit", LIN2D, ("fit", "tol"), 1e-8),
    ("fit", LIN2D, ("fit", "max_sweeps"), 50),
    ("generate", LIN2D, ("system", "x_0"), [2.0, 0.0]),
    ("generate", RUNS, ("system", "augment", "parameter"), "mu"),
    ("generate", RUNS, ("system", "runs", 1, "xo"), [0.0, 1.0]),
    ("fit", LIN2D, ("noise", "sigma"), 0.1),
    ("fit", LIN2D, ("differentiation", "order"), 2),
    ("fit", LIN2D, ("library", "degree"), 3),
    ("sweep", LIN2D, ("selection", "folds"), 5),
    ("sweep", LIN2D, ("selection", "fraction"), "0.2"),
    ("sweep", LIN2D, ("selection", "policy"), 2),
    ("compare", LIN2D, ("compare", "horizn"), 3.0),
    # keys of a variant that the config did not choose
    ("fit", LIN2D, ("differentiation", "alpha"), 0.01),
    ("fit", LIN2D, ("differentiation", "iterations"), 2),
    ("generate", LIN2D, ("system", "ensemble_mus"), [3.7]),
    ("generate", LIN2D, ("system", "n_steps"), 50),
    ("generate", LIN2D, ("system", "forcing"), 0.01),
    ("generate", LOGISTIC, ("system", "runs"), [{"params": {"mu": 3.7}}]),
    ("generate", LOGISTIC, ("system", "t_span"), [0.0, 1.0]),
    ("generate", LOGISTIC, ("system", "dt"), 0.1),
    ("generate", LOGISTIC, ("system", "params"), {"mu": 3.7}),
    # package checks that run in the parse, in blocks the command does not read
    ("generate", LIN2D, ("noise", "eta"), -0.1),
    ("generate", LIN2D, ("noise", "target"), "state"),
    ("generate", LIN2D, ("fit", "threshold"), -1.0),
    ("generate", LIN2D, ("fit", "max_iterations"), 0),
    ("generate", TV, ("differentiation", "alpha"), -0.01),
    # compare perturbs only the derivatives, and fits the exact ones of one run
    ("compare", LIN2D, ("noise", "target"), "states"),
    ("compare", LIN2D, ("differentiation", "method"), "tv"),
    ("compare", LIN2D, ("differentiation", "denoise_states"), True),
    ("compare", WITH_MU, ("system", "augment"), {"name": "u", "param": "mu"}),
]

# (base config, path to the bad value, bad value): a selection block that
# only sweep reads, and that every command checks before it simulates
SELECTION_CASES = [
    (LIN2D, ("selection", "count"), 0),
    (LIN2D, ("selection", "count"), 10**6 + 1),
    (LIN2D, ("selection", "count"), int("9" * 401)),
    (LIN2D, ("selection", "log10_min"), 0.5),
]

# (command, base config, path to the bad value, bad value, part of the
# message): the command reads with --data a dataset that the valid base
# config generated, so only a check in the parse can stop it
DATA_CASES = [
    ("fit", LIN2D, ("system", "x0"), [2.0, 0.0, 1.0], "x0"),
    ("sweep", LIN2D, ("system", "x0"), [2.0, 0.0, 1.0], "x0"),
    ("fit", LIN2D, ("system", "integrator"), {"method": "rk4"},
     "unknown key system.integrator"),
    ("fit", RUNS, ("system", "runs", 1, "params"), {"nu": 0.2},
     "system.augment.param 'mu' is not a parameter of every run"),
    ("fit", LIN2D, ("system", "params"), {"mu": 3.0, "sigmaa": 1.0},
     "system.params.mu is read by neither linear2d nor system.augment.param"),
]

# (base config, path, value, the key the error names): a run parameter that
# neither the system kind nor system.augment.param reads
UNREAD_PARAM_CASES = [
    (LIN2D, ("system", "params"), {"mu": 3.0, "sigmaa": 1.0}, "system.params.mu"),
    (WITH_MU, ("system", "params", "sigma"), 10.0, "system.params.sigma"),
    (RUNS, ("system", "params"), {"mu": 0.3, "omega": 1.0}, "system.params.omega"),
    (RUNS, ("system", "runs", 1, "params", "nu"), 0.2, "system.runs[1].params.nu"),
]

# (base config, path, value, the start of the message): settings that the
# config schema no longer holds, mean-field relaxation rates that the
# package refuses, a negative or repeated noise level for compare, threshold
# grids that the sweep cannot take, a logistic ensemble of no steps, a
# negative map forcing, values that the package constructors would refuse
# without naming the key (initial values of the wrong length among them),
# and runs of more steps than memory holds
REFUSED_CASES = [
    (LIN2D, ("system", "integrator"), {"method": "rk4"}, "unknown key system.integrator"),
    (LIN2D, ("system", "integrator"), {"method": "rk45", "abs_tol": 1e-9},
     "unknown key system.integrator"),
    (LOGISTIC, ("system", "integrator"), {}, "unknown key system.integrator"),
    (LIN2D, ("selection", "lambdas"), [0.001, 0.01, 0.1],
     "unknown key selection.lambdas"),
    (LIN2D, ("noise", "target"), "both", "unknown noise.target 'both'"),
    (TV, ("differentiation", "epsilon"), 1e-8, "unknown key differentiation.epsilon"),
    (LIN2D, ("library", "include_constant"), False, "unknown key library.include_constant"),
    (LIN2D, ("reduction",), {}, "unknown key reduction"),
    (LIN2D, ("reduction",), {"rank": 2}, "unknown key reduction"),
    (LIN2D, ("reduction",), {"energy": 0.9, "remove_mean": True}, "unknown key reduction"),
    (LIN2D, ("fit", "method"), "stlsq", "unknown key fit.method"),
    (LIN2D, ("fit", "method"), "lasso", "unknown key fit.method"),
    # the system kind alone decides whether the fit is of a map or a flow
    (LIN2D, ("fit", "mode"), "continuous", "unknown key fit.mode"),
    (LIN2D, ("fit", "mode"), "discrete", "unknown key fit.mode"),
    (LOGISTIC, ("fit",), {"mode": "discrete"}, "unknown key fit.mode"),
    (MEANFIELD, ("system", "params", "lam"), 0.0,
     "meanfield3d needs a positive relaxation rate lam, not 0.0"),
    (MEANFIELD, ("system", "params", "lam"), -1.0,
     "meanfield3d needs a positive relaxation rate lam, not -1.0"),
    (LIN2D, ("compare", "etas"), [-1.0],
     "compare.etas[0] must be a nonnegative number, not -1.0"),
    (LIN2D, ("compare", "etas"), [0.0, -0.1],
     "compare.etas[1] must be a nonnegative number, not -0.1"),
    (LIN2D, ("compare", "etas"), [0.0, -0.0],
     "compare.etas[0] 0.0 and compare.etas[1] 0.0 would both write error_eta_0.csv"),
    (LIN2D, ("library", "poly_order"), 9, "poly_order must be in [0, 8]"),
    (LIN2D, ("library", "poly_order"), -1, "poly_order must be in [0, 8]"),
    (LIN2D, ("library", "trig_harmonics"), [1], "unknown key library.trig_harmonics"),
    # the map holds mu as its state r and starts every run at 0.5
    (LOGISTIC, ("system", "augment"), {"name": "m", "param": "mu"},
     'system.augment does not apply to system.kind "logistic"'),
    (LOGISTIC, ("system", "x0"), [0.5], 'system.x0 does not apply to system.kind "logistic"'),
    # compare samples both its grids at one step, 0.01
    (LIN2D, ("compare", "grid_dt"), 0.01, "unknown key compare.grid_dt"),
    # a compare grid that would not end on its horizon
    (LIN2D, ("compare", "horizon"), 1.005,
     "compare.horizon 1.005 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare", "horizon"), 0.005,
     "compare.horizon 0.005 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare", "horizon"), 0.013,
     "compare.horizon 0.013 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare", "horizon"), 0.015,
     "compare.horizon 0.015 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare", "horizon"), 1.7e308,
     "compare.horizon 1.7e+308 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare",), {"horizon": 1.0, "long_horizon": 0.105},
     "compare.long_horizon 0.105 is not a whole number of 0.01 steps"),
    (LIN2D, ("compare", "long_horizon"), 2.005,
     "compare.long_horizon 2.005 is not a whole number of 0.01 steps"),
    # a threshold grid past the largest double
    (LIN2D, ("selection", "log10_max"), 400,
     "selection.log10_max 400.0 puts a threshold past the largest double, about 10 ** 308"),
    (LIN2D, ("selection",), {"log10_min": 309, "log10_max": 310, "count": 1},
     "selection.log10_min 309.0 puts a threshold past the largest double, about 10 ** 308"),
    # a one-threshold grid in the wrong order, and thresholds that round to 0
    (LIN2D, ("selection",), {"log10_min": 0, "log10_max": -3, "count": 1},
     "selection.log10_min exceeds selection.log10_max"),
    (LIN2D, ("selection",), {"log10_min": -400, "log10_max": 0, "count": 25},
     "selection.log10_min -400.0 puts a threshold below the smallest double, about 10 ** -323"),
    # a grid that would fit one threshold more than once
    (LIN2D, ("selection",), {"log10_min": -2, "log10_max": -2, "count": 5},
     "selection.count 5 repeats a threshold from selection.log10_min -2.0 to "
     "selection.log10_max -2.0"),
    (LIN2D, ("selection",), {"log10_min": 0, "log10_max": 1e-17, "count": 3},
     "selection.count 3 repeats a threshold from selection.log10_min 0.0 to "
     "selection.log10_max 1e-17"),
    (LOGISTIC, ("system", "forcing"), -0.01,
     "system.forcing must be a nonnegative number, not -0.01"),
    (LOGISTIC, ("system", "n_steps"), 0, "system.n_steps must be a positive integer, not 0"),
    (LIN2D, ("selection", "count"), 0, "selection.count must be a positive integer, not 0"),
    (LIN2D, ("fit", "threshold"), -1, "fit.threshold must be a nonnegative number, not -1"),
    (LIN2D, ("system", "dt"), 0, "system.dt must be a positive number, not 0"),
    (LIN2D, ("noise", "eta"), -1, "noise.eta must be a nonnegative number, not -1"),
    (TV, ("differentiation", "alpha"), -1,
     "differentiation.alpha must be a positive number, not -1"),
    (LIN2D, ("system", "dt"), 1e-300, "system.t_span [0.0, 2.0] over system.dt 1e-300 is "
     "more than 10000000 steps, the most a run takes"),
    (LIN2D, ("system", "t_span"), [0.0, 1e300], "system.t_span [0.0, 1e+300] over "
     "system.dt 0.01 is more than 10000000 steps, the most a run takes"),
    (LIN2D, ("compare", "horizon"), 1e300, "compare.horizon 1e+300 in steps of 0.01 is more "
     "than 10000000 steps, the most a run takes"),
    (LIN2D, ("compare", "long_horizon"), 1e300, "compare.long_horizon 1e+300 in steps of "
     "0.01 is more than 10000000 steps, the most a run takes"),
    (LOGISTIC, ("system", "n_steps"), 10**7 + 1,
     "system.n_steps 10000001 is more than 10000000 steps, the most a run takes"),
    # package checks that would not name the key, and a flow run of no step
    (LIN2D, ("fit", "max_iterations"), 0, "fit.max_iterations must be a positive integer, not 0"),
    (TV, ("differentiation", "iterations"), 0,
     "differentiation.iterations must be a positive integer, not 0"),
    (LIN2D, ("system", "t_span"), [0.0, 0.001],
     "system.t_span [0.0, 0.001] over system.dt 0.01 is shorter than one step"),
    # a span that does not end after it starts
    (LIN2D, ("system", "t_span"), [1.0, 0.0],
     "system.t_span [1.0, 0.0] must hold a start and a later end time"),
    # the one grid that every run of an ensemble shares
    (RUNS, ("system", "dt"), -0.01, "system.dt must be a positive number, not -0.01"),
    (RUNS, ("system", "dt"), 1e-7, "system.t_span [0.0, 2.0] over system.dt 1e-07 is "
     "more than 10000000 steps, the most a run takes"),
    (RUNS, ("system", "t_span"), [0.0, 0.004],
     "system.t_span [0.0, 0.004] over system.dt 0.01 is shorter than one step"),
    (HOPF, ("system", "t_span"), [5.0, 5.0],
     "system.t_span [5.0, 5.0] must hold a start and a later end time"),
    # initial values of another length than the kind's state count, and no run at all
    (LIN2D, ("system", "x0"), [2.0], "system.x0 [2.0] must hold 2 values, one per linear2d state"),
    (LIN2D, ("system", "x0"), DELETE, "config needs system.x0"),
    (RUNS, ("system", "runs", 1, "x0"), [0.0, 1.0, 0.0],
     "system.runs[1].x0 [0.0, 1.0, 0.0] must hold 2 values, one per linear2d state"),
    (RUNS, ("system", "runs"), [], "system.runs is empty; a flow needs a run"),
    (LOGISTIC, ("system", "ensemble_mus"), [],
     "system.ensemble_mus is empty; logistic needs a value of mu"),
    # every run of a flow shares system.t_span and system.dt, and estimates
    # derivatives by tv if at all
    (RUNS, ("system", "runs", 0, "t_span"), [0.0, 2.0], "unknown key system.runs[0].t_span"),
    (RUNS, ("system", "runs", 1, "dt"), 0.01, "unknown key system.runs[1].dt"),
    (LIN2D, ("differentiation", "method"), "central", "unknown differentiation.method 'central'"),
    # an augmented state name under which two library terms share a name
    (RUNS, ("system", "augment", "name"), "",
     "system.augment.name \"\": two library terms of the states ['x', 'y', ''] are named 'x'"),
    (RUNS, ("system", "augment", "name"), "xy",
     "system.augment.name \"xy\": two library terms of the states ['x', 'y', 'xy'] are "
     "named 'xy'"),
    (RUNS, ("system", "augment", "name"), "x",
     "system.augment.name \"x\": two library terms of the states ['x', 'y', 'x'] are "
     "named 'x'"),
]

# (command, base config, path to the value, the value as JSON text, the key
# the error names): numbers that JSON reads but that no finite double holds
BEYOND_DOUBLE_CASES = [
    ("compare", LIN2D, ("compare", "horizon"), "1e400", "compare.horizon"),
    ("compare", LIN2D, ("compare", "horizon"), "9" * 401, "compare.horizon"),
    ("generate", LIN2D, ("compare", "horizon"), "9" * 401, "compare.horizon"),
    ("fit", LIN2D, ("fit", "threshold"), "1e400", "fit.threshold"),
    ("generate", LIN2D, ("system", "x0"), "[1e400, 0]", "system.x0[0]"),
]

# (base config, {path: value}, the keys the error names): conditioning that
# would not change the fit, which every command refuses before it simulates
INERT_CASES = [
    (LIN2D, {("differentiation", "denoise_states"): True}, ["differentiation.denoise_states"]),
    (LIN2D, {("differentiation", "method"): "tv"}, ["noise.target", "differentiation.method"]),
    (LOGISTIC, {("noise",): {"eta": 0.01}}, ["noise.target", "logistic"]),
    (LOGISTIC, {("differentiation",): {"method": "tv"}}, ["differentiation.method", "logistic"]),
]


def _with(base: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(base)
    node = doc
    for part in path[:-1]:
        node = node[part]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _case_id(case) -> str:
    command, _, path, value = case
    shown = "missing" if value is DELETE else json.dumps(value)
    if len(shown) > 20 and shown.isdigit():
        shown = f"{len(shown)}-digits"
    return f"{command}-{'.'.join(map(str, path))}={shown}"


@pytest.mark.parametrize("command,base,path,value", CASES, ids=[_case_id(c) for c in CASES])
def test_malformed_value_is_config_error(tmp_path, capsys, command, base, path, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    key = [part for part in path if isinstance(part, str)][-1]
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("command,base,path,text,key", BEYOND_DOUBLE_CASES, ids=[
    f"{c[0]}-{c[4]}={c[3] if len(c[3]) < 20 else f'{len(c[3])}-digits'}"
    for c in BEYOND_DOUBLE_CASES])
def test_number_beyond_a_double_is_config_error(tmp_path, capsys, command, base, path, text,
                                                key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, "<number>")).replace('"<number>"', text))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be ")


def _inert_id(case) -> str:
    base, values, _ = case
    return "-".join([base["system"]["kind"], *(f"{'.'.join(path)}={json.dumps(v)}"
                                                for path, v in values.items())])


@pytest.mark.parametrize("command", ["generate", "fit", "sweep", "compare"])
@pytest.mark.parametrize("base,values,keys", INERT_CASES, ids=[_inert_id(c) for c in INERT_CASES])
def test_conditioning_the_fit_would_not_see_is_config_error(tmp_path, capsys, monkeypatch,
                                                             command, base, values, keys):
    def simulate(*args):
        pytest.fail("simulated before the conditioning settings were checked")

    monkeypatch.setattr("sindykit.cli._simulate_runs", simulate)
    doc = base
    for path, value in values.items():
        doc = _with(doc, path, value)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and all(key in err for key in keys)


@pytest.mark.parametrize("command", ["generate", "fit", "sweep", "compare"])
@pytest.mark.parametrize("base,path,value,key", UNREAD_PARAM_CASES,
                         ids=[_case_id(("", *c[:3]))[1:] for c in UNREAD_PARAM_CASES])
def test_unread_run_parameter_is_config_error(tmp_path, capsys, monkeypatch, command, base,
                                              path, value, key):
    def simulate(*args):
        pytest.fail("simulated before the run parameters were checked")

    monkeypatch.setattr("sindykit.cli._simulate_runs", simulate)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} is read by neither ")


@pytest.mark.parametrize("command", ["generate", "fit", "sweep", "compare"])
@pytest.mark.parametrize("base,path,value,message", REFUSED_CASES,
                         ids=[_case_id(("", *c[:3]))[1:] for c in REFUSED_CASES])
def test_refused_setting_stops_every_command_before_any_simulation(tmp_path, capsys,
                                                                   monkeypatch, command,
                                                                   base, path, value, message):
    def simulate(*args):
        pytest.fail(f"simulated before {'.'.join(path)} was checked")

    monkeypatch.setattr("sindykit.cli._simulate_runs", simulate)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_bad_grid_is_named_before_a_bad_run(tmp_path, capsys):
    # the shared grid is checked before any run of the ensemble is built
    doc = _with(_with(RUNS, ("system", "runs", 0, "x0"), [1.0]), ("system", "dt"), 0)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: system.dt must be a positive number, not 0\n"


def test_a_run_of_max_steps_parses_and_one_step_more_is_refused():
    # the parse alone: nothing of this length is simulated
    run = _with(LIN2D, ("system", "dt"), 0.5)
    parse_experiment(_with(run, ("system", "t_span"), [0.0, 0.5 * MAX_STEPS]))
    parse_experiment(_with(LOGISTIC, ("system", "n_steps"), MAX_STEPS))
    grid = _with(LIN2D, ("compare",), {"horizon": COMPARE_DT * MAX_STEPS})
    parse_experiment(grid)
    with pytest.raises(ConfigError, match="system.t_span .* is more than"):
        parse_experiment(_with(run, ("system", "t_span"), [0.0, 0.5 * MAX_STEPS + 0.5]))
    with pytest.raises(ConfigError, match="compare.horizon .* is more than"):
        parse_experiment(_with(grid, ("compare", "horizon"), COMPARE_DT * (MAX_STEPS + 1)))


def test_integer_past_the_int_string_limit_is_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on such an integer
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(LIN2D).replace('"seed": 0', '"seed": ' + "9" * 5000, 1))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON:") and "digits" in err


@pytest.mark.parametrize("command,base,path,value,message", DATA_CASES,
                         ids=[_case_id(c[:4]) for c in DATA_CASES])
def test_semantic_check_stops_a_run_on_data(tmp_path, capsys, command, base, path, value,
                                            message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(base))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 0
    cfg.write_text(json.dumps(_with(base, path, value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--data", str(tmp_path / "gen" / "dataset.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("base,path,value", SELECTION_CASES,
                         ids=[_case_id(("", *c))[1:] for c in SELECTION_CASES])
def test_selection_is_checked_before_any_simulation(tmp_path, capsys, monkeypatch, command,
                                                    base, path, value):
    def simulate(*args):
        pytest.fail("simulated before the selection block was checked")

    monkeypatch.setattr("sindykit.cli._simulate_runs", simulate)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.match(rf"config error: .*{path[-1]}", capsys.readouterr().err)


@pytest.mark.parametrize("command", ["generate", "fit", "sweep", "compare"])
@pytest.mark.parametrize("name,value", [("fraction", 0.0), ("fraction", 1.0),
                                        ("policy", "random")],
                         ids=["selection.fraction=0.0", "selection.fraction=1.0",
                              'selection.policy="random"'])
def test_split_keys_are_unknown_before_any_simulation(tmp_path, capsys, monkeypatch, command,
                                                      name, value):
    # sweep always holds out the last 20 % of the rows
    def simulate(*args):
        pytest.fail(f"simulated before selection.{name} was checked")

    monkeypatch.setattr("sindykit.cli._simulate_runs", simulate)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(LIN2D, ("selection", name), value)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: unknown key selection.{name}\n"


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(LIN2D))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--seed", "-5"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_lambda_flag_is_config_error(tmp_path, capsys, command, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(LIN2D))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 f"--lambda={value}"]) == 2
    assert capsys.readouterr().err.startswith("config error: --lambda must be a number, not ")


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_negative_lambda_flag_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(LIN2D))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--lambda", "-1"]) == 2
    assert capsys.readouterr().err == (
        "config error: --lambda must be a nonnegative number, not -1.0\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("sweep", "--lambda", "0.9"), ("generate", "--lambda", "0.9"),
    ("generate", "--data", "missing.csv"), ("compare", "--data", "missing.csv"),
])
def test_flag_the_command_ignores_is_config_error(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(LIN2D))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 flag, value]) == 2
    assert f"{flag} does not apply to {command}" in capsys.readouterr().err


@pytest.mark.parametrize("command,base,path,message", [
    ("generate", RUNS, ("system", "runs", 1, "xo"), "unknown key system.runs[1].xo"),
    ("fit", LIN2D, ("differentiation", "alpha"),
     'differentiation.alpha does not apply to differentiation.method "exact"'),
])
def test_message_names_the_dotted_path(tmp_path, capsys, command, base, path, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_with(base, path, 1.0)))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def _settings(table: dict, prefix: str = ""):
    """(setting, kind) for the dotted path of every key in a ``_KEYS`` table, ``[]``
    marking list items, with the ``_KINDS`` entry its values take (None for a
    block), and ("path=value", None) for every value of a ``_Choice``."""
    for name, entry in table.items():
        path = prefix + name
        if isinstance(entry, _Choice):
            yield path, "string"
            for value, variant in entry.variants.items():
                yield f"{path}={value}", None
                yield from _settings(variant, prefix)
            continue
        kind = entry[0] if isinstance(entry, tuple) else entry
        item = kind[0] if isinstance(kind, list) else kind
        if isinstance(item, dict):
            yield path, None
            yield from _settings(item, f"{path}[]." if isinstance(kind, list) else f"{path}.")
        else:
            yield path, item.removesuffix("{}")


def _set_in(doc: dict, prefix: str = ""):
    """The settings that a config document sets, named as ``_settings`` names them."""
    for name, value in doc.items():
        path = prefix + name
        yield path
        if isinstance(value, str):
            yield f"{path}={value}"
        elif isinstance(value, dict):
            yield from _set_in(value, f"{path}.")
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, dict):
                    yield from _set_in(item, f"{path}[].")


def _defaults(table: dict, prefix: str = "", variant: tuple = ()):
    """(name, variant, dotted path, default) for every key of a ``_KEYS`` table
    that has a default.  ``variant`` holds a (choice path, its values, its
    default) triple per ``_Choice`` above the key, the values that share one
    table of keys taken together, and ``name`` shows the path with them."""
    shown = ", ".join(f"{choice} {'|'.join(values)}" for choice, values, _ in variant)
    for key, entry in table.items():
        path = prefix + key
        name = f"{path} ({shown})" if shown else path
        if isinstance(entry, _Choice):
            if entry.default is not None:
                yield name, variant, path, entry.default
            tables = {}  # id of a variant's table -> (the table, the values that pick it)
            for value, keys in entry.variants.items():
                tables.setdefault(id(keys), (keys, []))[1].append(value)
            for keys, values in tables.values():
                yield from _defaults(keys, prefix, (*variant, (path, values, entry.default)))
        elif isinstance(entry, tuple):
            yield name, variant, path, entry[1]
        elif isinstance(entry, dict):
            yield from _defaults(entry, f"{path}.", variant)


_ABSENT = object()


def _lookup(doc: dict, path: str, default=_ABSENT):
    """The value at a dotted ``path`` of a config document, or ``default``."""
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return default
        doc = doc[part]
    return doc


def test_every_setting_has_a_shipped_user():
    # a key, a choice value or a kind of value that no file in configs/ sets
    # is code that no shipped run reaches, and a default that no file moves,
    # in a config that picks the key's variant, is a knob that no shipped run
    # turns: the map's system.x0 is not a flow's
    configs = (Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    docs = [json.loads(path.read_text()) for path in configs]
    shipped = {setting for doc in docs for setting in _set_in(doc)}
    settings = dict(_settings(_KEYS))
    unset = sorted(setting for setting in settings if setting not in shipped)
    unused = sorted(kind for kind in _KINDS if kind not in settings.values())
    unmoved = sorted(
        name for name, variant, path, default in _defaults(_KEYS)
        if not any(all(_lookup(doc, choice, choice_default) in values
                       for choice, values, choice_default in variant)
                   and _lookup(doc, path) not in (_ABSENT, default) for doc in docs))
    assert (unset, unused, unmoved) == ([], [], [])


def test_readme_key_list_equals_the_schema():
    # README's key reference, from "The config keys," to the BLAS paragraph,
    # names every key path of _KEYS in backticks, and every dotted name in
    # backticks there is a key path of _KEYS, so a key deleted from the
    # schema or added to it cannot go out of step with the README
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\nThe config keys, with the default", 1)[1]
    section = section.split("\nRun the commands with one BLAS", 1)[0]
    named = set(re.findall(r"`([^`]+)`", section))
    dotted = {name for name in named if re.fullmatch(r"\w+(\[\])?(\.\w+(\[\])?)+", name)}
    paths = {setting for setting, _ in _settings(_KEYS) if "=" not in setting}
    assert (sorted(paths - named), sorted(dotted - paths)) == ([], [])


def test_readme_run_parameters_equal_the_system_table():
    # "`kind` `param`, ...;" per kind with parameters, and "`kind`, ... none"
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = readme.split("Run parameters of each continuous kind, all required:", 1)[1]
    named = {}
    for part in text.split(".\n", 1)[0].split(";"):
        names = re.findall(r"`(\w+)`", part)
        if part.rstrip().endswith(" none"):
            named.update((kind, ()) for kind in names)
        else:
            named[names[0]] = tuple(names[1:])
    assert named == {kind: params for kind, (_, params, _) in _SYSTEMS.items()}


@pytest.mark.parametrize("command,base", [
    ("generate", LIN2D), ("generate", RUNS), ("generate", LOGISTIC), ("fit", LIN2D),
    ("fit", TV), ("fit", CONSTANT), ("compare", LIN2D), ("sweep", LIN2D),
    ("compare", WITH_MU), ("generate", MEANFIELD),
], ids=["linear2d", "runs", "logistic", "fit", "tv", "constant", "compare",
        "sweep", "compare-with-mu", "meanfield"])
def test_base_configs_run(tmp_path, command, base):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(base))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
