import json
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sindykit import (
    DataError,
    LibrarySpec,
    NoiseSpec,
    StlsqConfig,
    SystemSpec,
    TimeSeriesDataset,
    add_noise,
    augment_signal,
    build_matrix,
    central_difference,
    concatenate,
    fit,
    iterate_map,
    model_from_json,
    simulate,
    support,
    tv_derivative,
)
from sindykit.cli import _noise_levels_problem, error_curve, main
from sindykit.dataio import (
    read_dataset_csv,
    write_dataset_csv,
    write_pareto_csv,
)
from sindykit.integrate import dp45_adaptive
from sindykit.model import Mode
from sindykit.regression import _factored
from sindykit.selection import ParetoPoint
from sindykit.systems import logistic_ensemble, system_rhs
from conftest import CONFIG_DIR, shipped_config


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


LIN2D_CFG = {
    "spec_version": 1,
    "seed": 0,
    "system": {"kind": "linear2d", "x0": [2.0, 0.0], "t_span": [0.0, 25.0], "dt": 0.01},
    "noise": {"eta": 0.0},
    "differentiation": {"method": "exact"},
    "library": {"poly_order": 5},
    "fit": {"threshold": 0.05},
}


class TestDatasetCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        spec = SystemSpec("linear3d", x0=(2.0, 0.0, 1.0), t_span=(0.0, 2.0), dt=0.01)
        ds = simulate(spec)
        path = write_dataset_csv(ds, tmp_path / "data.csv")
        back = read_dataset_csv(path)
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.states, ds.states)
        assert np.array_equal(back.derivatives, ds.derivatives)
        assert back.state_names == ds.state_names
        assert back.segments == ds.segments

    def test_header_layout(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(1.0, 0.0), t_span=(0.0, 1.0), dt=0.1)
        path = write_dataset_csv(simulate(spec), tmp_path / "d.csv")
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,dx1,dx2"

    def test_segments_survive_via_sidecar(self, tmp_path):
        ds = iterate_map(3.0, 50)
        path = write_dataset_csv(ds, tmp_path / "map.csv")
        back = read_dataset_csv(path)
        assert back.derivatives is None
        assert back.state_names == ("x", "r")

    def test_fit_from_csv_equals_in_memory_fit(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        ds = simulate(spec)
        back = read_dataset_csv(write_dataset_csv(ds, tmp_path / "d.csv"))
        lib = LibrarySpec(2, 5)
        cfg = StlsqConfig(threshold=0.05)
        direct, _ = fit(ds, lib, cfg)
        loaded, _ = fit(back, lib, cfg)
        assert np.array_equal(direct.coefficients, loaded.coefficients)

    def test_pareto_csv_canonical_columns(self, tmp_path):
        pts = [ParetoPoint(0.1, 7, 1e-3, 2e-3)]
        path = write_pareto_csv(pts, tmp_path / "p.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,nnz,train_res,val_res"
        assert lines[1].split(",")[1] == "7"

    @staticmethod
    def _row_by_row(header, rows) -> bytes:
        # the writer write_csv replaced, kept as the byte-level reference
        lines = [",".join(header)]
        lines += [",".join("%.17g" % v for v in row) for row in rows]
        return "".join(line + "\n" for line in lines).encode()

    def test_writer_bytes_equal_the_row_by_row_reference(self, lorenz_dataset, tmp_path):
        ds = lorenz_dataset
        path = write_dataset_csv(ds, tmp_path / "lorenz.csv")
        rows = np.column_stack([ds.times, ds.states, ds.derivatives])
        header = ["t", "x1", "x2", "x3", "dx1", "dx2", "dx3"]
        assert path.read_bytes() == self._row_by_row(header, rows)

        pts = [ParetoPoint(0.0, 56, 1 / 3, 2e-300), ParetoPoint(0.025, 7, 0.1, np.inf)]
        path = write_pareto_csv(pts, tmp_path / "p.csv")
        assert path.read_bytes() == self._row_by_row(
            ["lambda", "nnz", "train_res", "val_res"],
            [(p.threshold, p.nnz_total, p.train_residual, p.validation_residual) for p in pts])

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025])
    def test_block_format_equals_one_row_at_a_time(self, tmp_path, n_rows):
        # block edges of the writer, signed zeros, infinities, nan and subnormals
        from sindykit.dataio import write_csv
        rng = np.random.default_rng(n_rows)
        rows = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-300, 300, (n_rows, 4))
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 0.0, 1e-320]
        flat = rows.reshape(-1)
        flat[:len(special)] = special[:flat.size]
        header = ["a", "b", "c", "d"]
        assert write_csv(tmp_path / "h.csv", header, rows).read_bytes() \
            == self._row_by_row(header, rows)

    def test_reader_values_equal_float_parsing_bit_for_bit(self, lorenz_dataset, tmp_path):
        path = write_dataset_csv(lorenz_dataset, tmp_path / "lorenz.csv")
        lines = path.read_text().splitlines()[1:]
        reference = np.array([line.split(",") for line in lines], dtype=float)
        back = read_dataset_csv(path)
        loaded = np.column_stack([back.times, back.states, back.derivatives])
        assert loaded.tobytes() == reference.tobytes()

    def _write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return path

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self._write(tmp_path, "t,x1\n0,1.5\n\n  \n1,2.5\n\n")
        back = read_dataset_csv(path)
        assert back.times.tolist() == [0.0, 1.0]
        assert back.states.tolist() == [[1.5], [2.5]]

    @pytest.mark.parametrize("text,message", [
        ("t,x1\n", "contains no samples"),
        ("t,x1\n\n \n", "contains no samples"),
        ("time,x1\n0,1\n", "missing 't' header column"),
        ("t,x1,y\n0,1,2\n", "unrecognized column layout"),
        ("t,dx1,x1\n0,1,5\n", "unrecognized column layout"),
        ("t,x2,x1\n0,1,2\n", "unrecognized column layout"),
        ("t\n0\n1\n2\n", "unrecognized column layout"),
        ("t,x1\n0,1\n1,x\n", "could not convert"),
        ("t,x1\n0,1\n1\n", "number of columns changed"),
        ("t,x1\n0,1\n1,2,3\n", "number of columns changed"),
        ("t,x1\n0,1\n#1,2\n", "could not convert"),
        ("t,x1,dx1\n0,1\n1,2\n", "2 values per row for 3 columns"),
    ])
    def test_malformed_file_is_data_error_naming_it(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(DataError, match=message) as err:
            read_dataset_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("sidecar,message", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"state_names": 5}', "'state_names' must be a list of strings"),
        ('{"state_names": [1, 2]}', "'state_names' must be a list of strings"),
        ('{"segments": "x"}', "'segments' must be a list of integers"),
        ('{"segments": [0.5]}', "'segments' must be a list of integers"),
        ('{"segments": [true]}', "'segments' must be a list of integers"),
        ('{"meta": [1]}', "'meta' must be a JSON object"),
    ])
    def test_malformed_sidecar_is_data_error_naming_it(self, tmp_path, sidecar, message):
        path = self._write(tmp_path, "t,x1\n0,1\n1,2\n")
        meta = tmp_path / "d.meta.json"
        meta.write_text(sidecar)
        with pytest.raises(DataError, match=message) as err:
            read_dataset_csv(path)
        assert str(meta) in str(err.value)

    def test_fit_report_serializes(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 5.0), dt=0.01)
        _, report = fit(simulate(spec), LibrarySpec(2, 2), StlsqConfig(threshold=0.05))
        doc = json.loads(report.to_json())
        assert set(doc) >= {"iterations_used", "residual_norm", "nnz",
                            "condition_estimate", "converged", "empty_support"}
        assert len(doc["nnz"]) == 2


class TestCliFit:
    def test_fit_writes_artifacts_and_recovers_structure(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "run_report.json").read_text())
        for art in report["artifacts"].values():
            assert Path(art).exists()
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() == 4

    def test_reproducible_to_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        main(["fit", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["fit", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/model.json").read_bytes() == (tmp_path / "b/model.json").read_bytes()
        ra = json.loads((tmp_path / "a/run_report.json").read_text())
        rb = json.loads((tmp_path / "b/run_report.json").read_text())
        assert ra["config_sha256"] == rb["config_sha256"]

    def test_lambda_override_takes_precedence(self, tmp_path):
        # --lambda X writes the bytes of a config whose fit.threshold is X, and
        # --seed N those of a config whose seed is N: without noise.seed, whose
        # default seed + 1 follows the flag, and with it
        doc = dict(LIN2D_CFG, compare={"horizon": 2.0, "etas": [0.0, 0.01]})
        model_files = ["model.json", "model_table.txt", "fit_report.json"]
        files = {"generate": ["dataset.csv", "dataset.meta.json"], "fit": model_files,
                 "sweep": ["pareto.csv", *model_files],
                 "compare": ["error_eta_0.csv", "error_eta_0.01.csv"]}

        def same_bytes(command, flag_doc, flags, key_doc):
            name = f"{command}{''.join(flags)}{len(key_doc['noise'])}"
            by_flag, by_key = tmp_path / f"{name}-flag", tmp_path / f"{name}-key"
            flag = write_config(tmp_path / f"{name}-flag.json", flag_doc)
            key = write_config(tmp_path / f"{name}-key.json", key_doc)
            assert main([command, "--config", flag, "--out", str(by_flag), *flags]) == 0
            assert main([command, "--config", key, "--out", str(by_key)]) == 0
            for file in files[command]:
                assert (by_flag / file).read_bytes() == (by_key / file).read_bytes()
            report = json.loads((by_flag / "run_report.json").read_text())
            assert report["seed"] == key_doc["seed"]
            return by_flag

        for command in ("fit", "compare"):
            fitted = same_bytes(command, doc, ["--lambda", "0.5"],
                                dict(doc, fit=dict(doc["fit"], threshold=0.5)))
            if command == "fit":
                model = model_from_json((fitted / "model.json").read_text())
                assert model.nnz() == 2  # only the +-2 couplings reach the threshold
        for noise in ({"eta": 0.01}, {"eta": 0.01, "seed": 3}):
            noisy = dict(doc, noise=noise)
            for command in files:
                same_bytes(command, noisy, ["--seed", "5"], dict(noisy, seed=5))

    def test_fit_from_external_data(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        data = write_dataset_csv(simulate(spec), tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 0

    @pytest.mark.parametrize("bad_row", ["0.5,1.0,oops,2.0,3.0", "0.5,1.0"])
    def test_malformed_data_csv_is_data_error(self, tmp_path, capsys, bad_row):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 1.0), dt=0.01)
        data = write_dataset_csv(simulate(spec), tmp_path / "d.csv")
        lines = data.read_text().splitlines()
        lines[40] = bad_row
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "o"), "--data", str(data)])
        assert rc == 3
        assert str(data) in capsys.readouterr().err

    def test_exact_differentiation_rejected_without_derivatives(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        bare = replace(simulate(spec), derivatives=None)
        data = write_dataset_csv(bare, tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "x"), "--data", str(data)])
        assert rc == 3

    def test_central_differentiation_path(self, tmp_path):
        # runs sampled off a uniform grid, which tv refuses, are fitted under
        # exact once central_difference has filled each segment's dx columns
        rng = np.random.default_rng(0)
        runs = []
        for x0 in ((2.0, 0.0), (0.0, 1.5)):
            ds = simulate(SystemSpec("linear2d", x0=x0, t_span=(0.0, 25.0), dt=0.01))
            rows = np.sort(rng.choice(len(ds.times), size=1500, replace=False))
            runs.append(replace(ds, times=ds.times[rows], states=ds.states[rows],
                                derivatives=None))
        bare = concatenate(runs)
        cfg = write_config(tmp_path / "tv.json", dict(
            LIN2D_CFG, noise={"eta": 0.0, "target": "states"},
            differentiation={"method": "tv", "alpha": 0.01}))
        data = write_dataset_csv(bare, tmp_path / "bare.csv")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "tv"),
                     "--data", str(data)]) == 3
        bounds = [*bare.segments, len(bare.times)]
        dx = np.concatenate([central_difference(bare.times[a:b], bare.states[a:b])
                             for a, b in zip(bounds[:-1], bounds[1:])])
        data = write_dataset_csv(replace(bare, derivatives=dx), tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 0
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() == 4


class TestCliGenerate:
    def test_dataset_csv_written(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "gen"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        ds = read_dataset_csv(out / "dataset.csv")
        assert ds.n_samples == 2501

    def test_logistic_ensemble_file_count(self, tmp_path):
        doc = shipped_config("logistic")
        doc["system"]["n_steps"] = 60
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "gen"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "logistic iterates escaped")
            assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        # one dataset holds every parameter value; no file repeats a value's rows
        assert sorted(path.name for path in out.iterdir()) == [
            "dataset.csv", "dataset.meta.json", "run_report.json"]
        ens = read_dataset_csv(out / "dataset.csv")
        assert ens.state_names == ("x", "r")
        assert set(ens.states[:, 1]) == set(doc["system"]["ensemble_mus"])

    def test_logistic_dataset_follows_the_seed_rule_of_logistic_ensemble(self, tmp_path):
        # generate writes the dataset of one logistic_ensemble call over every value
        doc = shipped_config("logistic")
        doc["system"]["n_steps"] = 400
        cfg = write_config(tmp_path / "c.json", doc)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "logistic iterates escaped")
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
            ref = logistic_ensemble(doc["system"]["ensemble_mus"], 400,
                                    doc["system"]["forcing"], seed=42, x0=0.5)
        ds = read_dataset_csv(tmp_path / "gen" / "dataset.csv")
        assert len(ref.segments) > len(doc["system"]["ensemble_mus"])  # restarts happened
        for name in ("times", "states"):
            assert getattr(ds, name).tobytes() == getattr(ref, name).tobytes()
        assert ds.segments == ref.segments

    @pytest.mark.parametrize("command", ["generate", "fit", "sweep"])
    def test_logistic_runs_are_one_ensemble_with_one_warning(self, tmp_path, monkeypatch,
                                                             command):
        import sindykit.cli as cli
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return logistic_ensemble(*args, **kwargs)

        monkeypatch.setattr(cli, "logistic_ensemble", counted)
        doc = shipped_config("logistic")
        doc["system"]["n_steps"] = 500
        cfg = write_config(tmp_path / "c.json", doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1
        assert [str(w.message) for w in caught] == [
            "logistic iterates escaped [-0.5, 1.5]: 23 truncated runs restarted "
            "(1 at mu=3.75, 3 at mu=3.85, 8 at mu=3.9, 11 at mu=3.95)"]

    def test_zero_duration_span_rejected(self, tmp_path):
        doc = dict(LIN2D_CFG, system={"kind": "linear2d", "x0": [2.0, 0.0],
                                      "t_span": [1.0, 1.0], "dt": 0.01})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_a_caller_still_records_the_warnings_of_main(self, tmp_path):
        # main changes only how a warning prints, and only while it runs
        doc = {"spec_version": 1, "seed": 0,
               "system": {"kind": "logistic", "ensemble_mus": [3.95], "n_steps": 400,
                          "forcing": 0.025}}
        cfg = write_config(tmp_path / "c.json", doc)
        formatwarning = warnings.formatwarning
        with pytest.warns(UserWarning, match="logistic iterates escaped"):
            assert main(["generate", "--config", cfg, "--out", str(tmp_path / "g")]) == 0
        assert warnings.formatwarning is formatwarning


class TestCliCompareAndSweep:
    def test_identical_dynamics_give_zero_error_curve(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 5.0), dt=0.01)
        f = system_rhs(spec)
        grid = np.linspace(0.0, 5.0, 101)
        reference, _ = dp45_adaptive(f, np.array([2.0, 0.0]), grid)
        err = error_curve(reference, f, grid)
        assert np.all(err == 0.0)

    def test_compare_writes_error_curves(self, tmp_path):
        doc = dict(LIN2D_CFG)
        doc["compare"] = {"horizon": 5.0, "etas": [0.0, 0.01]}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        for eta in ("0", "0.01"):
            path = out / f"error_eta_{eta}.csv"
            assert path.exists()
            rows = path.read_text().splitlines()
            assert rows[0] == "t,error"
        clean = np.loadtxt(out / "error_eta_0.csv", delimiter=",", skiprows=1)
        assert clean[0, 1] < 1e-12
        assert clean[:, 1].max() < 1e-5  # exact fit tracks the truth

    def test_compare_builds_one_library_and_one_truth(self, tmp_path, monkeypatch):
        import sindykit.cli
        import sindykit.regression
        rows, calls = [], {"dp45": 0}
        build, dp45 = sindykit.regression.build_matrix, sindykit.cli.dp45_adaptive

        def building(spec, X):
            rows.append(len(X))
            return build(spec, X)

        def integrating(*args, **kwargs):
            calls["dp45"] += 1
            return dp45(*args, **kwargs)

        monkeypatch.setattr(sindykit.regression, "build_matrix", building)
        monkeypatch.setattr(sindykit.cli, "dp45_adaptive", integrating)
        doc = dict(LIN2D_CFG)
        etas = (0.01, 0.001, 0.0)
        doc["compare"] = {"horizon": 3.0, "etas": list(etas),
                          "long_horizon": 4.0}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert rows == [1024, 1024, 453]  # one pass of row blocks over the 2501 samples
        assert calls == {"dp45": 1 + 3 + 1}  # truth, one model per eta, long run
        monkeypatch.undo()
        # each curve is the run of the model fitted on its columns of the shared
        # factor, which is the direct fit of its own noisy data up to rounding
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        base, grid = simulate(spec), np.arange(0.0, 3.0 + 0.005, 0.01)
        lib, fit_cfg = LibrarySpec(2, 5), StlsqConfig(threshold=0.05)
        problem = _noise_levels_problem(base, lib, list(etas), seed=0)
        truth, _ = dp45_adaptive(system_rhs(spec), np.array(spec.x0), grid)
        for i, eta in enumerate(etas):
            model, _ = fit(base, lib, fit_cfg, problem=problem.targets(2 * i, 2 * i + 2))
            model_run, _ = dp45_adaptive(model.rhs(), np.array(spec.x0), grid)
            curve = np.loadtxt(out / f"error_eta_{eta:g}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(curve[:, 0], grid)
            assert np.array_equal(curve[:, 1], np.linalg.norm(truth - model_run, axis=1))
            ds = add_noise(base, NoiseSpec(eta=eta, target="derivatives", seed=1 + i))
            direct, _ = fit(ds, lib, fit_cfg)
            assert support(model) == support(direct)
            np.testing.assert_allclose(model.coefficients, direct.coefficients,
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("long_horizon", [None, 10.0])
    def test_compare_gives_up_on_a_stiff_model_within_seconds(self, tmp_path, monkeypatch,
                                                              long_horizon):
        # two time units of noisy data identify a stiff degree-5 model for
        # eta=0.01; integrating it used to crawl on for minutes, and the
        # long-horizon run of that last model is recorded as failed without
        # integrating the model a second time
        import sindykit.cli
        calls, dp45 = [], sindykit.cli.dp45_adaptive

        def integrating(*args, **kwargs):
            calls.append(len(args[2]))
            return dp45(*args, **kwargs)

        monkeypatch.setattr(sindykit.cli, "dp45_adaptive", integrating)
        doc = shipped_config("linear2d")
        doc["system"]["t_span"] = [0.0, 2.0]
        doc["compare"]["horizon"] = 2.0
        if long_horizon is not None:
            doc["compare"]["long_horizon"] = long_horizon
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "cmp"
        start = time.perf_counter()
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 30.0
        summary = json.loads((out / "run_report.json").read_text())["summary"]
        assert "max_error" in summary["eta_0.0"]
        assert "step attempts" in summary["eta_0.01"]["failed"]
        if long_horizon is not None:
            assert summary["long_horizon"] == summary["eta_0.01"]
            assert not (out / "long_horizon.csv").exists()
        assert calls == [201, 201, 201]  # truth and one model per eta, all on the 2.0 grid

    def test_sweep_emits_pareto_and_choice(self, tmp_path):
        doc = dict(LIN2D_CFG)
        doc["noise"] = {"eta": 0.01, "target": "derivatives", "seed": 3}
        doc["selection"] = {"log10_min": -3, "log10_max": -0.3, "count": 8}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "pareto.csv").exists()
        report = json.loads((out / "run_report.json").read_text())
        assert report["summary"]["nnz"] == 4
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() == 4


    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_logistic_is_fitted_as_a_map(self, tmp_path, command):
        # the system kind alone makes the fit discrete: no config key says so
        doc = shipped_config("logistic")
        doc["system"].update(n_steps=300, ensemble_mus=doc["system"]["ensemble_mus"][:3])
        doc["selection"] = {"log10_min": -3, "log10_max": 0, "count": 6}
        assert "mode" not in doc["fit"]
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["mode"] == "discrete"


def whole_noise_levels(base, etas, seed):
    """Every level's noisy derivatives side by side, each level noised as a
    whole dataset: the m x n*k matrix that compare no longer forms."""
    n = base.n_states
    derivatives = np.empty((base.n_samples, n * len(etas)))
    for i, eta in enumerate(etas):
        derivatives[:, n * i:n * (i + 1)] = add_noise(
            base, NoiseSpec(eta=eta, seed=seed + 1 + i)).derivatives
    return derivatives


class TestNoiseLevelsProblem:
    @pytest.fixture(scope="class")
    def base(self):
        # 2501 rows: two whole 1,024-row blocks of the factor and a partial one
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        return simulate(spec)

    def test_streamed_factor_equals_the_factor_of_the_whole_matrix(self, base):
        etas, lib = [0.01, 0.0, 1.0], LibrarySpec(2, 5)
        streamed = _noise_levels_problem(base, lib, etas, seed=4)
        whole = _factored(build_matrix(lib, base.states).values,
                          whole_noise_levels(base, etas, seed=4))
        assert base.n_samples % 1024 != 0
        assert streamed.n_samples == whole.n_samples == base.n_samples
        assert np.array_equal(streamed.R, whole.R)

    def test_memory_stays_below_one_derivative_array(self):
        # one row block of the factor holds about 0.5 MB whatever m is, so m
        # is large enough for one m x n array (1.2 MB) to stand above it
        m, n = 50_000, 3
        rng = np.random.default_rng(0)
        base = TimeSeriesDataset(0.01 * np.arange(m), rng.standard_normal((m, n)),
                                 rng.standard_normal((m, n)))
        lib, etas = LibrarySpec(n, 2), [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]
        _noise_levels_problem(base, lib, etas[:1], seed=0)  # compile the term evaluator
        tracemalloc.start()
        try:
            _noise_levels_problem(base, lib, etas, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8

    @pytest.mark.parametrize("eta", [1e308, 5e307])
    def test_non_finite_level_names_the_first_row_of_the_whole_matrix(
            self, tmp_path, capsys, base, eta):
        etas = [0.01, eta]
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(whole_noise_levels(base, etas, seed=0)).all(axis=1)
        row = int(np.argmax(bad))
        assert bad.any() and (eta == 1e308 or row > 1024)  # 5e307 overflows in a later block
        doc = dict(LIN2D_CFG, compare={"horizon": 1.0, "etas": etas})
        cfg = write_config(tmp_path / "c.json", doc)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: non-finite target at dataset row {row}\n"
        assert not (tmp_path / "o" / "error_eta_0.01.csv").exists()

    @pytest.mark.parametrize("etas,message", [
        ([0.1, 0.0, 0.1000001], "compare.etas[0] 0.1 and compare.etas[2] 0.1000001 "
                                "would both write error_eta_0.1.csv"),
        ([1, 1.0], "compare.etas[0] 1.0 and compare.etas[1] 1.0 would both write "
                   "error_eta_1.csv"),
        ([], "compare.etas is empty; compare needs a noise level"),
    ], ids=["near-equal", "int-and-float", "empty"])
    def test_levels_must_name_distinct_curves(self, tmp_path, capsys, etas, message):
        doc = dict(LIN2D_CFG, compare={"horizon": 1.0, "etas": etas})
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "o"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestCliHopfEnsemble:
    @staticmethod
    def _condition_per_run(ds, exp, noise_seed):
        """The per-run conditioning ``_prepare`` replaced, kept as its reference:
        noise, then one ``tv_derivative`` call per segment and state column."""
        ds = replace(add_noise(ds, replace(exp["noise_spec"], seed=noise_seed)), derivatives=None)
        deriv = np.empty_like(ds.states)
        for sl in ds.segment_slices():
            dt = float(ds.times[sl][1] - ds.times[sl][0])
            for j in range(ds.n_states):
                deriv[sl, j] = tv_derivative(ds.states[sl, j], dt, exp["tv"])
        return replace(ds, derivatives=deriv)

    def test_prepare_differentiates_every_run_in_one_call(self, monkeypatch):
        import sindykit.cli as cli
        import sindykit.differentiation as diff
        exp = cli.parse_experiment(shipped_config("hopf"))
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "differentiate_dataset", counted(diff.differentiate_dataset))
        monkeypatch.setattr(diff, "tv_derivative", counted(diff.tv_derivative))
        ds = cli._prepare(exp, None)
        assert calls == ["differentiate_dataset", "tv_derivative"]
        monkeypatch.undo()

        runs = [simulate(spec) for spec in exp["specs"]]
        assert len(runs) == 24
        base, augment = exp["noise"]["seed"], exp["system"]["augment"]
        ref = concatenate([augment_signal(self._condition_per_run(run, exp, base + i),
                                          augment["name"],
                                          np.full(run.n_samples, spec.params[augment["param"]]),
                                          np.zeros(run.n_samples))
                           for i, (spec, run) in enumerate(zip(exp["specs"], runs))])
        for name in ("times", "states", "derivatives"):
            assert getattr(ds, name).tobytes() == getattr(ref, name).tobytes()
        assert (ds.segments, ds.state_names) == (ref.segments, ref.state_names)
        # the runs are noised and differentiated joined, so the noise and the
        # method are recorded once, beside each run's system, parameters and x0
        noise = exp["noise_spec"]
        assert ds.meta == {"runs": [run.meta for run in runs], "noise_eta": noise.eta,
                           "noise_seed": base, "noise_target": noise.target,
                           "differentiation": "tv"}


    def test_loaded_columns_are_c_ordered(self, tmp_path):
        # the augmented column is taken off a file's states and derivatives
        import sindykit.cli as cli
        config = tmp_path / "hopf.json"
        config.write_text(json.dumps(shipped_config("hopf")))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path)]) == 0
        ds = cli._loaded_dataset(cli.parse_experiment(shipped_config("hopf")),
                                 str(tmp_path / "dataset.csv"))
        assert ds.state_names == ("x", "y")
        assert ds.states.flags.c_contiguous and ds.derivatives.flags.c_contiguous


class TestShippedConfigs:
    def test_all_configs_parse(self):
        from sindykit.cli import load_config, parse_experiment
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) == 7
        for path in paths:
            cfg = load_config(path)
            assert cfg["system"]["kind"]
            assert parse_experiment(cfg)["system"]["kind"] == cfg["system"]["kind"]



class TestCliErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_output_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        assert main(["fit", "--config", cfg,
                     "--out", str(blocker / "sub")]) == 3

    def test_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config: ")

    # (command, whether the path is --data, the path under tmp_path that the
    # command fails on, whether a directory takes that path)
    @pytest.mark.parametrize("command,data,path,directory", [
        ("fit", True, "missing.csv", False),
        ("sweep", True, "a_directory", True),
        ("fit", False, "o/model.json", True),
        ("generate", False, "o/dataset.csv", True),
    ], ids=["fit-missing-data", "sweep-data-directory", "model-json-directory",
            "dataset-csv-directory"])
    def test_unreadable_or_unwritable_path_is_data_error(self, tmp_path, capsys, command,
                                                         data, path, directory):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if data:
            argv += ["--data", str(tmp_path / path)]
        if directory:
            (tmp_path / path).mkdir(parents=True)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(tmp_path / path) in err

    def test_wrong_spec_version_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", dict(LIN2D_CFG, spec_version=2))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def _run_on_edited_csv(self, tmp_path, row, column, value, command="fit"):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        ds = read_dataset_csv(tmp_path / "gen" / "dataset.csv")
        cols = {"state": ds.states.copy(), "derivative": ds.derivatives.copy()}
        cols[column][row, 0] = value
        data = write_dataset_csv(
            replace(ds, states=cols["state"], derivatives=cols["derivative"]), tmp_path / "d.csv")
        return main([command, "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])

    def _generated(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        return tmp_path / "gen" / "dataset.csv", tmp_path / "gen" / "dataset.meta.json"

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_malformed_sidecar_is_data_error(self, tmp_path, capsys, command):
        data, sidecar = self._generated(tmp_path)
        sidecar.write_text("{not json")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        rc = main([command, "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert str(sidecar) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("names,term", [(["a", "a"], "a"), (["", "b"], ""),
                                            (["x", "xx"], "xx")])
    def test_state_names_that_name_two_terms_alike_are_data_error(self, tmp_path, capsys,
                                                                  command, names, term):
        # a term's name joins its states' names, so x times x is the state xx
        data, sidecar = self._generated(tmp_path)
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), state_names=names)))
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        rc = main([command, "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (f"data error: {data}: two library terms of the "
                                           f"states {names} are named {term!r}\n")

    def test_one_sample_segment_is_data_error_for_tv(self, tmp_path, capsys):
        data, sidecar = self._generated(tmp_path)
        doc = json.loads(sidecar.read_text())
        doc["segments"] = [0, 2500]
        sidecar.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", dict(
            LIN2D_CFG, differentiation={"method": "tv", "iterations": 2}))
        rc = main(["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == 3
        # the rows are the file's rows
        assert capsys.readouterr().err == (
            "data error: tv differentiation needs at least five samples per segment; "
            "the segment at rows 2500..2500 has 1\n")

    def test_augmented_data_with_another_run_count_is_data_error(self, tmp_path, capsys):
        # each segment of the file is one run, and system.augment gives each
        # configured run its own parameter value
        runs = [{"params": {"mu": mu}} for mu in (0.1, 0.2, 0.3)]
        system = dict(LIN2D_CFG["system"], t_span=[0.0, 1.0], runs=runs[:2],
                      augment={"name": "u", "param": "mu"})
        cfg = write_config(tmp_path / "c.json", dict(LIN2D_CFG, system=system))
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        cfg = write_config(tmp_path / "c.json", dict(LIN2D_CFG, system=dict(system, runs=runs)))
        rc = main(["fit", "--config", cfg, "--data", str(tmp_path / "gen" / "dataset.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "the data holds 2 runs; system.augment needs 3" in capsys.readouterr().err

    def test_nan_derivative_is_data_error(self, tmp_path, capsys):
        assert self._run_on_edited_csv(tmp_path, 123, "derivative", np.nan) == 3
        assert "row 123" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fit_report.json").exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_nan_state_in_the_held_out_rows_names_its_dataset_row(self, tmp_path, capsys,
                                                                  command):
        # row 2400 of 2501 lies in the 20 % that sweep holds out
        assert self._run_on_edited_csv(tmp_path, 2400, "state", np.nan, command) == 3
        assert capsys.readouterr().err == "data error: non-finite state at dataset row 2400\n"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_state_is_data_error(self, tmp_path, capsys):
        assert self._run_on_edited_csv(tmp_path, 40, "state", 1e70) == 3
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "fit", "sweep"])
    def test_overflowing_simulation_is_numerical_failure(self, tmp_path, capsys, command):
        doc = shipped_config("lorenz")
        doc["system"].update(dt=0.2, t_span=[0.0, 50.0])
        cfg = write_config(tmp_path / "c.json", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "not finite at t=1" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    def test_stalled_logistic_ensemble_is_numerical_failure(self, tmp_path, capsys):
        doc = {"spec_version": 1, "system": {"kind": "logistic", "ensemble_mus": [4.0],
                                             "n_steps": 5, "forcing": 100.0}}
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: logistic ensemble stalled at mu=4.0\n")

    def test_non_finite_config_number_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(LIN2D_CFG).replace('"threshold": 0.05', '"threshold": NaN'))
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_linalg_failure_is_numerical_failure(self, tmp_path, monkeypatch):
        import sindykit.cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(sindykit.cli, "fit", singular)
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_compare_on_ensemble_names_the_run_count(self, tmp_path, capsys):
        doc = dict(LIN2D_CFG, system={"kind": "linear2d", "t_span": [0.0, 2.0], "dt": 0.01,
                                      "runs": [{"x0": [1.0, 0.0]}, {"x0": [0.0, 1.0]}]})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "single continuous-time run" in capsys.readouterr().err

    def test_unknown_fit_mode_is_config_error(self, tmp_path):
        doc = dict(LIN2D_CFG, fit={"threshold": 0.05, "mode": "hybrid"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
