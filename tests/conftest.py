import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sindykit import DataError, TimeSeriesDataset, model_from_json, simulate
from sindykit.cli import load_config, main, parse_experiment

# every run draws the same examples, so a newly drawn one cannot turn the suite
# red; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the true model of each shipped config, (term, equation) -> coefficient:
# its keys are the support that fit and sweep must find
TRUE_MODELS = {
    "cubic2d": {("xxx", 0): -0.1, ("yyy", 0): 2.0, ("xxx", 1): -2.0, ("yyy", 1): -0.1},
    "hopf": {("y", 0): -1.0, ("xu", 0): 1.0, ("xxx", 0): -1.0, ("xyy", 0): -1.0,
             ("x", 1): 1.0, ("yu", 1): 1.0, ("xxy", 1): -1.0, ("yyy", 1): -1.0},
    "linear2d": {("x", 0): -0.1, ("y", 0): 2.0, ("x", 1): -2.0, ("y", 1): -0.1},
    "linear3d": {("x", 0): -0.1, ("y", 0): 2.0, ("x", 1): -2.0, ("y", 1): -0.1,
                 ("z", 2): -0.3},
    "logistic": {("xr", 0): 1.0, ("xxr", 0): -1.0, ("r", 1): 1.0},
    "lorenz": {("x", 0): -10.0, ("y", 0): 10.0, ("x", 1): 28.0, ("y", 1): -1.0,
               ("xz", 1): -1.0, ("z", 2): -8.0 / 3.0, ("xy", 2): 1.0},
    "meanfield": {("x", 0): 0.1, ("y", 0): -1.0, ("xz", 0): -0.1,
                  ("x", 1): 1.0, ("y", 1): 0.1, ("yz", 1): -0.1,
                  ("z", 2): -10.0, ("xx", 2): 10.0, ("yy", 2): 10.0},
}


def shipped_config(name: str) -> dict:
    """``configs/<name>.json`` as a dict of its own, to edit before a run."""
    return load_config(CONFIG_DIR / f"{name}.json")


def shipped_spec(name: str):
    """The ``SystemSpec`` of the first run of ``configs/<name>.json``."""
    return parse_experiment(shipped_config(name))["specs"][0]


def run_config(command: str, doc: dict, out: Path) -> Path:
    """``out``, after ``sindykit <command>`` on the config ``doc`` wrote its artifacts there."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(doc))
    assert main([command, "--config", str(out / "config.json"), "--out", str(out)]) == 0
    return out


def fitted_model(out: Path):
    return model_from_json((out / "model.json").read_text())


@pytest.fixture(scope="session")
def shipped_run(tmp_path_factory):
    """``shipped_run(command, name)``: the output directory of ``command`` on
    ``configs/<name>.json``, run once per session."""
    outs = {}

    def run(command: str, name: str) -> Path:
        if (command, name) not in outs:
            outs[command, name] = run_config(command, shipped_config(name),
                                             tmp_path_factory.mktemp(f"{command}-{name}"))
        return outs[command, name]
    return run


@pytest.fixture(scope="session")
def lorenz_dataset():
    """The shipped Lorenz run, t in [0, 100] at dt 0.001, with exact derivatives."""
    return simulate(shipped_spec("lorenz"))


@pytest.fixture(scope="session")
def linear2d_dataset():
    return simulate(shipped_spec("linear2d"))


def tail_split(ds):
    """The two sides of ``sweep`` as explicit datasets: rows [:cut] and
    [cut:] with cut = m - round(0.2 m), each keeping the segment starts
    that fall inside it, so that no segment runs across the cut."""
    cut = ds.n_samples - round(0.2 * ds.n_samples)

    def side(lo, hi):
        return TimeSeriesDataset(
            times=ds.times[lo:hi], states=ds.states[lo:hi],
            derivatives=None if ds.derivatives is None else ds.derivatives[lo:hi],
            state_names=ds.state_names,
            segments=(0, *(s - lo for s in ds.segments if lo < s < hi)))

    return side(0, cut), side(cut, ds.n_samples)


def coefficient(model, term_name: str, equation: int) -> float:
    names = [t.name(model.state_names) for t in model.terms]
    return float(model.coefficients[names.index(term_name), equation])


# the name runs to the last quote before the bracketed values, so a quote
# inside a state name stays part of it
_TABLE_ROW = re.compile(r"^\s*'(.*)'\s+(\[.*)$")


def parse_table(text: str) -> np.ndarray:
    """Inverse of :func:`sindykit.render_table` (header is ignored).

    Returns the coefficient matrix exactly as rendered.  A non-blank line
    that is not a term row raises DataError.
    """
    rows = []
    for number, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        m = _TABLE_ROW.match(line)
        cells = re.findall(r"\[\s*([^\]]+?)\s*\]", m.group(2)) if m else []
        try:
            row = [float(v) for v in cells]
        except ValueError:
            row = []
        if not row or (rows and len(row) != len(rows[0])):
            raise DataError(f"table line {number} is not a term row: {line!r}")
        rows.append(row)
    return np.array(rows, dtype=float)
