"""Every command on every shipped config: documented exit code, no traceback.

Each config is run on a copy shortened only in its time span (or map
length), so the whole matrix stays quick while exercising the same code
paths as the full experiments.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sindykit
import sindykit.cli

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


def test_fit_on_the_generated_dataset_writes_the_same_model(short_configs, tmp_path):
    # a single run: the dataset CSV round-trips its values, and the loaded
    # run draws the same noise stream as the simulated one
    config = short_configs["lorenz"]
    for cmd, out, flags in [("generate", "gen", ()), ("fit", "direct", ()),
                            ("fit", "loaded", ("--data", str(tmp_path / "gen" / "dataset.csv")))]:
        assert run(cmd, config, tmp_path / out, *flags).returncode == 0
    direct, loaded = ((tmp_path / out / "model.json").read_bytes() for out in ("direct", "loaded"))
    assert direct == loaded


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
