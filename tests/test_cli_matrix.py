"""Every command on every shipped config: documented exit code, no traceback.

Each config is run on a copy shortened only in its time span (or map
length), so the whole matrix stays quick while exercising the same code
paths as the full experiments.
"""

import hashlib
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


# SHA-256 of the dataset.csv that generate writes for each shortened
# continuous config, recorded when each right-hand side was still a
# hand-written closure; any change to how a system is integrated or its
# derivatives evaluated must keep every bit.  The logistic map is left out:
# its forcing is numpy's random stream, which a numpy release may change.
DATASET_SHA256 = {
    "cubic2d": "b19f7f99bc23671436a55f14657b8cd6e4e7dd1f7d468263748adf7e65875999",
    "hopf": "558f757e9ef437ff11a2294dd18616f936a1f942859dbb0ed18baad0ed1bab56",
    "linear2d": "c470d68f5ea25546ce89de7b0833c15caf16f690b5a67a9b14992dbaa7704ed4",
    "linear3d": "723a368cacc552156ec2a14e3bcbbd12e3c4473f1659d25b67c2d4b8877a0580",
    "lorenz": "8ce8db2a583a13f1011f985339d607e1447c42cc72339ec630a52f08c46f87d4",
    "meanfield": "bab8ed801ac6c312c2563ea83a66c5b85511249a30575c52fbd9e932db6d1433",
}


# SHA-256 of the dataset.meta.json sidecar written next to each of those
# files, which carries simulate's provenance (system, parameters, start,
# step and "integrator": "rk4"), recorded while a config could still pick
# the integrator; any change to that provenance must keep every byte.
DATASET_META_SHA256 = {
    "cubic2d": "9173ada055ddd2220ec8767fa14d140b9e5eaaaa814a35076049a468aeb3291e",
    "hopf": "f293dc3dd21cecf6cac95e8c2fb1550406fdc9b77386e29a1dbc9de4947ef669",
    "linear2d": "3a640039dca1aa4c830b713ab11bf844c3d233b07796b6e21e20ea1f173fb83e",
    "linear3d": "d7bd576dd332cb50774c571c6645cdce332906061e723f85195934ff97279374",
    "lorenz": "d3af0b1dc96f5b554f92a5933b0dd0e5b160b224e717223665d8e7029ed67984",
    "meanfield": "55ba364893f2a593030828315b71bd4c56f2cda11139ecc69ea9a16feb47f75b",
}


def test_pinned_datasets_cover_every_continuous_config():
    assert set(DATASET_SHA256) == set(DATASET_META_SHA256) == set(EXIT_CODES) - {"logistic"}


@pytest.mark.parametrize("name", sorted(DATASET_SHA256))
def test_generated_dataset_keeps_its_bytes(generated, name):
    assert hashlib.sha256(generated(name).read_bytes()).hexdigest() == DATASET_SHA256[name]


@pytest.mark.parametrize("name", sorted(DATASET_META_SHA256))
def test_generated_sidecar_keeps_its_bytes(generated, name):
    sidecar = generated(name).with_name("dataset.meta.json")
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == DATASET_META_SHA256[name]


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


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # the shipped mu >= 3.75
def test_fit_and_sweep_find_the_true_support_on_the_full_config(tmp_path, name, command):
    # the full configs: a shortened run can hold too little data to tell
    # the true model from a denser one under any selection rule; fit keeps
    # the config's threshold, sweep picks its own
    assert sindykit.cli.main([command, "--config", str(CONFIG_DIR / f"{name}.json"),
                              "--out", str(tmp_path)]) == 0
    model = sindykit.model_from_json((tmp_path / "model.json").read_text())
    assert sindykit.support(model) == TRUE_SUPPORT[name]
