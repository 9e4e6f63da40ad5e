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
from conftest import CONFIG_DIR, TRUE_MODELS, fitted_model

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


# the shortened logistic config with state noise: each of its runs spans
# several restart segments, which a file read back holds as segments
NOISED_LOGISTIC = "logistic-noised"


@pytest.fixture(scope="module")
def data_configs(short_configs, tmp_path_factory):
    """The shortened configs, and NOISED_LOGISTIC."""
    doc = json.loads(short_configs["logistic"].read_text())
    doc["noise"] = {"eta": 0.001, "target": "states", "seed": 5}
    path = tmp_path_factory.mktemp("noised") / f"{NOISED_LOGISTIC}.json"
    path.write_text(json.dumps(doc))
    return {**short_configs, NOISED_LOGISTIC: path}


@pytest.fixture(scope="module")
def generated(data_configs, tmp_path_factory):
    """The dataset CSV that ``generate`` writes for a shortened config, made once."""
    paths = {}

    def dataset(name: str) -> Path:
        if name not in paths:
            out = tmp_path_factory.mktemp(f"generate-{name}")
            assert sindykit.cli.main(["generate", "--config", str(data_configs[name]),
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
# derivatives evaluated must keep every bit.  The logistic map has its own
# pin below, LOGISTIC_DATASET_SHA256.
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


# SHA-256 of the dataset.csv that generate writes for the shortened logistic
# config (10 values of mu, 500 transitions each, escapes restarted), recorded
# while the CLI still called logistic_ensemble once per value: the forcing
# of each value's runs, and so every iterate, must keep its bits however the
# runs are collected.  It rests on numpy's PCG64 standard normal stream, so a
# numpy release that changed that stream would change it too.
LOGISTIC_DATASET_SHA256 = "33054e3f81800d12bfd249df917ee46974e5728cb66a7cf1ec312191f093bed0"


@pytest.mark.filterwarnings("ignore:logistic iterates escaped")
def test_generated_logistic_dataset_keeps_its_bytes(generated):
    assert hashlib.sha256(generated("logistic").read_bytes()).hexdigest() == (
        LOGISTIC_DATASET_SHA256)


# The sweep grid of each shipped config, as float.hex, keyed by its
# selection block (log10_min, log10_max, count).  Worked out in decimal
# arithmetic, the grid has these bits on every host, whichever SIMD loops
# numpy and whichever pow the C library picks there; np.logspace gives 16 of
# the first grid's values and 9 of the second's up to 5 ulp apart on an
# AVX-512 host.
SWEEP_GRIDS = {
    (-4.0, 0.0, 25): [
        "0x1.a36e2eb1c432dp-14", "0x1.33d1df865f7cep-13", "0x1.c3d154e984551p-13",
        "0x1.4b96be9c2da2cp-12", "0x1.e6b4b396428e8p-12", "0x1.6531793eb9f45p-11",
        "0x1.0624dd2f1a9fcp-10", "0x1.80c65767f75c2p-10", "0x1.1a62d511f2b53p-9",
        "0x1.9e7c6e43390b7p-9", "0x1.3030f03de9991p-8", "0x1.be7dd78e68716p-8",
        "0x1.47ae147ae147bp-7", "0x1.e0f7ed41f5332p-7", "0x1.60fb8a566f627p-6",
        "0x1.030dc4ea03a72p-5", "0x1.7c3d2c4d63ff5p-5", "0x1.170ea6b90146ep-4",
        "0x1.999999999999ap-4", "0x1.2c9af449393ffp-3", "0x1.b93a6cec0b3b1p-3",
        "0x1.43d136248490fp-2", "0x1.db4c7760bcff2p-2", "0x1.5cd2506741989p-1",
        "0x1.0000000000000p+0"],
    (-3.0, -0.3, 15): [
        "0x1.0624dd2f1a9fcp-10", "0x1.98b16027a53c3p-10", "0x1.3e958d1a0f633p-9",
        "0x1.f0af736dd9cd2p-9", "0x1.832d129ece8c2p-8", "0x1.2dcfb8561f5d1p-7",
        "0x1.d68932bdbe0abp-7", "0x1.6ecac53002711p-6", "0x1.1debf33325c07p-5",
        "0x1.bdc36236a4aa1p-5", "0x1.5b7b334600e0fp-4", "0x1.0ede56dfc5f1fp-3",
        "0x1.a64b73bc7f4ccp-3", "0x1.492fe612d971cp-2", "0x1.009b9cf334252p-1"],
}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_sweep_grid_keeps_its_bits_on_every_host(name):
    exp = sindykit.cli.parse_experiment(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    sel = exp["selection"]
    grid = SWEEP_GRIDS[sel["log10_min"], sel["log10_max"], sel["count"]]
    assert [t.hex() for t in exp["thresholds"].tolist()] == grid


# each segment of the file draws its own noise stream, as that segment of
# the simulated runs does, and the augmented column comes back exact from
# the config
@pytest.mark.parametrize("name", sorted([*EXIT_CODES, NOISED_LOGISTIC]))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # the shipped mu >= 3.75
def test_fit_on_the_generated_dataset_writes_the_same_model(data_configs, generated, tmp_path,
                                                            name):
    direct, loaded = models_fitted_directly_and_from(generated(name), data_configs[name],
                                                     tmp_path, "fit")
    assert direct == loaded


@pytest.mark.parametrize("name", sorted([*EXIT_CODES, NOISED_LOGISTIC]))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")
def test_sweep_on_the_generated_dataset_writes_the_same_model(data_configs, generated, tmp_path,
                                                              name):
    direct, loaded = models_fitted_directly_and_from(generated(name), data_configs[name],
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


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # the shipped mu >= 3.75
def test_fit_and_sweep_find_the_true_support_on_the_full_config(shipped_run, name, command):
    # the full configs: a shortened run can hold too little data to tell
    # the true model from a denser one under any selection rule; fit keeps
    # the config's threshold, sweep picks its own
    assert sindykit.support(fitted_model(shipped_run(command, name))) == set(TRUE_MODELS[name])
