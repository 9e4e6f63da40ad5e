"""Every command on every shipped config: documented exit code, no traceback.

Each config is run on a copy shortened only in its time span (or map
length), so the whole matrix stays quick while exercising the same code
paths as the full experiments.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sindykit
import sindykit.cli
from sindykit import TimeSeriesDataset
from sindykit.dataio import read_dataset_csv, write_dataset_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("generate", "fit", "compare", "sweep")
SPAN = 4.0  # simulated time units per run
N_STEPS = 500  # logistic map iterations per parameter value

# exit codes per command, in COMMANDS order; compare needs a config that
# expands to a single continuous-time run, so ensembles are config errors
EXIT_CODES = {
    "cubic2d": (0, 0, 0, 0),
    "hopf": (0, 0, 2, 0),
    "linear2d": (0, 0, 0, 0),
    "linear3d": (0, 0, 0, 0),
    "logistic": (0, 0, 2, 0),
    "lorenz": (0, 0, 0, 0),
    "meanfield": (0, 0, 2, 0),
}
EXPECTED = {(name, cmd): codes[i] for name, codes in EXIT_CODES.items()
            for i, cmd in enumerate(COMMANDS)}


def shortened(doc: dict) -> dict:
    sysc = doc["system"]
    for block in [sysc] + sysc.get("runs", []):
        if "t_span" in block:
            t0 = block["t_span"][0]
            block["t_span"] = [t0, t0 + SPAN]
    if "n_steps" in sysc:
        sysc["n_steps"] = N_STEPS
    return doc


@pytest.fixture(scope="module")
def short_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        target = root / path.name
        target.write_text(json.dumps(shortened(json.loads(path.read_text()))))
        paths[path.stem] = target
    return paths


def test_matrix_covers_every_shipped_config(short_configs):
    assert set(EXIT_CODES) == set(short_configs)


def run(cmd: str, config: Path, out: Path, *flags: str) -> subprocess.CompletedProcess:
    # one BLAS thread: small solves run no faster threaded, and a loaded
    # machine makes threaded ones far slower
    env = dict(os.environ, PYTHONPATH=str(Path(sindykit.__file__).parent.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "sindykit.cli", cmd, "--config", str(config), "--out", str(out),
         *flags], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name,cmd", sorted(EXPECTED))
def test_command_exit_code(short_configs, tmp_path, name, cmd):
    proc = run(cmd, short_configs[name], tmp_path / "out")
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == EXPECTED[name, cmd], proc.stderr
    if proc.returncode == 0:
        for artifact in (tmp_path / "out").glob("*.json"):
            json.loads(artifact.read_text(), parse_constant=pytest.fail)


@pytest.fixture(scope="module")
def generated(short_configs, tmp_path_factory):
    """The dataset CSV that ``generate`` writes for a shortened config, made once."""
    paths = {}

    def dataset(name: str) -> Path:
        if name not in paths:
            out = tmp_path_factory.mktemp(f"generate-{name}")
            assert sindykit.cli.main(["generate", "--config", str(short_configs[name]),
                                      "--out", str(out)]) == 0
            paths[name] = out / "dataset.csv"
        return paths[name]
    return dataset


def models_fitted_directly_and_from(data: Path, config: Path, tmp_path: Path,
                                    cmd: str) -> list[bytes]:
    """The model.json that ``cmd`` writes on its own and with ``--data data``."""
    models = []
    for out, flags in [("direct", ()), ("loaded", ("--data", str(data)))]:
        assert sindykit.cli.main([cmd, "--config", str(config), "--out", str(tmp_path / out),
                                  *flags]) == 0
        models.append((tmp_path / out / "model.json").read_bytes())
    return models


# each segment of the file is one run with its own noise stream, and the
# augmented column comes back exact from the config
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # the shipped mu >= 3.75
def test_fit_on_the_generated_dataset_writes_the_same_model(short_configs, generated, tmp_path,
                                                            name):
    direct, loaded = models_fitted_directly_and_from(generated(name), short_configs[name],
                                                     tmp_path, "fit")
    assert direct == loaded


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")
def test_sweep_on_the_generated_dataset_writes_the_same_model(short_configs, generated, tmp_path,
                                                              name):
    direct, loaded = models_fitted_directly_and_from(generated(name), short_configs[name],
                                                     tmp_path, "sweep")
    assert direct == loaded


def shifted_clocks(ds: TimeSeriesDataset) -> TimeSeriesDataset:
    """``ds`` with its runs laid end to end on one increasing clock, each
    one step after the last, as dataset files were once written."""
    times, offset = [], 0.0
    for sl in ds.segment_slices():
        t = ds.times[sl]
        times.append(t - t[0] + offset)
        offset = times[-1][-1] + (t[1] - t[0])
    return replace(ds, times=np.concatenate(times))


@pytest.mark.parametrize("name", ["hopf", "meanfield"])
def test_fit_loads_a_dataset_written_with_shifted_clocks(short_configs, generated, tmp_path,
                                                         name):
    data = write_dataset_csv(shifted_clocks(read_dataset_csv(generated(name))),
                             tmp_path / "shifted.csv")
    assert np.all(np.diff(read_dataset_csv(data).times) > 0)
    direct, loaded = (sindykit.model_from_json(model.decode()) for model in
                      models_fitted_directly_and_from(data, short_configs[name], tmp_path, "fit"))
    # TV takes each run's step from its clock, whose last bits the shift moves
    assert sindykit.support(loaded) == sindykit.support(direct)
    np.testing.assert_allclose(loaded.coefficients, direct.coefficients, rtol=0, atol=1e-9)


def test_warnings_print_their_message_without_a_source_path(short_configs, tmp_path):
    # the logistic ensemble truncates runs that escape, and says so once
    proc = run("generate", short_configs["logistic"], tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert "warning: logistic iterates escaped" in proc.stderr
    assert ".py:" not in proc.stderr


# the terms of each shipped system's equations, as (term, equation) pairs
TRUE_SUPPORT = {
    "cubic2d": {("xxx", 0), ("yyy", 0), ("xxx", 1), ("yyy", 1)},
    "hopf": {("y", 0), ("xu", 0), ("xxx", 0), ("xyy", 0),
             ("x", 1), ("yu", 1), ("xxy", 1), ("yyy", 1)},
    "linear2d": {("x", 0), ("y", 0), ("x", 1), ("y", 1)},
    "linear3d": {("x", 0), ("y", 0), ("x", 1), ("y", 1), ("z", 2)},
    "logistic": {("xr", 0), ("xxr", 0), ("r", 1)},
    "lorenz": {("x", 0), ("y", 0), ("x", 1), ("y", 1), ("xz", 1), ("z", 2), ("xy", 2)},
    "meanfield": {("x", 0), ("y", 0), ("xz", 0), ("x", 1), ("y", 1), ("yz", 1),
                  ("z", 2), ("xx", 2), ("yy", 2)},
}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # the shipped mu >= 3.75
def test_sweep_selects_the_true_support_on_the_full_config(tmp_path, name):
    # the full configs: a shortened run can hold too little data to tell
    # the true model from a denser one under any selection rule
    assert sindykit.cli.main(["sweep", "--config", str(CONFIG_DIR / f"{name}.json"),
                              "--out", str(tmp_path)]) == 0
    model = sindykit.model_from_json((tmp_path / "model.json").read_text())
    assert sindykit.support(model) == TRUE_SUPPORT[name]
