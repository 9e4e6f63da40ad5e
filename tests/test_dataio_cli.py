import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from sindykit import (
    LibrarySpec,
    StlsqConfig,
    SystemSpec,
    fit,
    iterate_map,
    model_from_json,
    simulate,
)
from sindykit.cli import error_curve, main
from sindykit.dataio import (
    read_dataset_csv,
    write_basis_csv,
    write_dataset_csv,
    write_pareto_csv,
)
from sindykit.selection import ParetoPoint
from sindykit.systems import system_rhs


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
    "fit": {"method": "stlsq", "threshold": 0.05},
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = iterate_map(SystemSpec("logistic", x0=(0.5,), params={"mu": 3.0}), 50)
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

    def test_basis_csv_pair_round_trips(self, tmp_path):
        from sindykit import compute_basis
        snaps = np.random.default_rng(0).standard_normal((30, 8))
        basis = compute_basis(snaps, rank=3)
        write_basis_csv(basis, tmp_path / "modes.csv", tmp_path / "sv.csv")
        modes = np.loadtxt(tmp_path / "modes.csv", delimiter=",")
        sv = np.atleast_1d(np.loadtxt(tmp_path / "sv.csv", delimiter=","))
        assert np.array_equal(modes, basis.modes)
        assert np.array_equal(sv, basis.singular_values)

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
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "dense"
        main(["fit", "--config", cfg, "--out", str(out), "--lambda", "0.0"])
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() > 4  # unthresholded least squares keeps clutter

    def test_fit_from_external_data(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        data = write_dataset_csv(simulate(spec), tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 0

    def test_exact_differentiation_rejected_without_derivatives(self, tmp_path):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        bare = simulate(spec).with_(derivatives=None)
        data = write_dataset_csv(bare, tmp_path / "d.csv")
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        rc = main(["fit", "--config", cfg, "--out", str(tmp_path / "x"), "--data", str(data)])
        assert rc == 3

    def test_state_denoising_flag_is_honored(self, tmp_path):
        # optional pre-filter: low-dimensional clean data has no noise floor,
        # so the hard-threshold rule prunes aggressively; the flag must alter
        # the pipeline rather than being ignored
        doc = dict(LIN2D_CFG, differentiation={"method": "central", "denoise_states": True})
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        flagged = model_from_json((out / "model.json").read_text())
        doc_off = dict(LIN2D_CFG, differentiation={"method": "central"})
        cfg_off = write_config(tmp_path / "c2.json", doc_off)
        main(["fit", "--config", cfg_off, "--out", str(tmp_path / "off")])
        plain = model_from_json((tmp_path / "off" / "model.json").read_text())
        assert plain.nnz() == 4
        assert not np.array_equal(flagged.coefficients, plain.coefficients)

    def test_central_differentiation_path(self, tmp_path):
        doc = dict(LIN2D_CFG, differentiation={"method": "central"})
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
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
        doc = {
            "spec_version": 1,
            "seed": 0,
            "system": {"kind": "logistic", "x0": [0.5],
                       "ensemble_mus": [2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 3.8, 3.85, 3.9, 3.95],
                       "n_steps": 60, "forcing": 0.025},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "gen"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 11  # one per parameter value plus the ensemble
        ens = read_dataset_csv(out / "dataset.csv")
        assert ens.state_names == ("x", "r")
        parts = [read_dataset_csv(out / f"logistic_mu_{mu}.csv").states
                 for mu in doc["system"]["ensemble_mus"]]
        assert np.array_equal(ens.states, np.vstack(parts))

    def test_zero_duration_span_rejected(self, tmp_path):
        doc = dict(LIN2D_CFG, system={"kind": "linear2d", "x0": [2.0, 0.0],
                                      "t_span": [1.0, 1.0], "dt": 0.01})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestCliCompareAndSweep:
    def test_identical_dynamics_give_zero_error_curve(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 5.0), dt=0.01)
        f = system_rhs(spec)
        grid = np.linspace(0.0, 5.0, 101)
        err = error_curve(f, f, np.array([2.0, 0.0]), grid)
        assert np.all(err == 0.0)

    def test_compare_writes_error_curves(self, tmp_path):
        doc = dict(LIN2D_CFG)
        doc["compare"] = {"horizon": 5.0, "grid_dt": 0.05, "etas": [0.0, 0.01]}
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

    def test_sweep_emits_pareto_and_choice(self, tmp_path):
        doc = dict(LIN2D_CFG)
        doc["noise"] = {"eta": 0.01, "target": "derivatives", "seed": 3}
        doc["selection"] = {"log10_min": -3, "log10_max": -0.3, "count": 8,
                            "fraction": 0.2, "policy": "tail"}
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "pareto.csv").exists()
        report = json.loads((out / "run_report.json").read_text())
        assert report["summary"]["nnz"] == 4
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() == 4


    def test_sweep_follows_discrete_fit_mode(self, tmp_path):
        doc = {
            "spec_version": 1,
            "seed": 0,
            "system": {"kind": "logistic", "x0": [0.5], "ensemble_mus": [2.9, 3.4, 3.7, 3.9],
                       "n_steps": 300, "forcing": 0.01},
            "library": {"poly_order": 3},
            "fit": {"method": "stlsq", "mode": "discrete"},
            "selection": {"log10_min": -3, "log10_max": 0, "count": 6},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert model_from_json((out / "model.json").read_text()).mode.value == "discrete"
        assert len((out / "pareto.csv").read_text().splitlines()) == 7


class TestCliHopfEnsemble:
    def test_hopf_config_recovers_normal_form_structure(self, tmp_path):
        golden = 2.399963229728653
        runs = []
        for j in range(9):
            mu = round(-0.2 + 0.1 * j, 10)
            ics = [(np.cos(golden * j), np.sin(golden * j)),
                   (1.3 * np.cos(golden * j + 2.1), 1.3 * np.sin(golden * j + 2.1))]
            if mu > 0:
                r_in = 0.5 * np.sqrt(mu)
                ics.append((r_in * np.cos(golden * j + 1.7), r_in * np.sin(golden * j + 1.7)))
            runs.extend({"params": {"mu": mu}, "x0": list(ic)} for ic in ics)
        doc = {
            "spec_version": 1,
            "seed": 499,
            "system": {"kind": "hopf", "t_span": [0.0, 25.0], "dt": 0.02,
                       "params": {"omega": 1.0, "A": 1.0},
                       "runs": runs,
                       "augment": {"name": "u", "param": "mu"}},
            "noise": {"eta": 1e-3, "target": "states", "seed": 500},
            "differentiation": {"method": "tv", "alpha": 3e-5, "iterations": 20},
            "library": {"poly_order": 5},
            "fit": {"method": "stlsq", "threshold": 0.05, "max_iterations": 30},
        }
        cfg = write_config(tmp_path / "hopf.json", doc)
        out = tmp_path / "run"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        model = model_from_json((out / "model.json").read_text())
        from sindykit import support
        assert support(model) == {("y", 0), ("x", 1), ("xu", 0), ("yu", 1),
                                  ("xxx", 0), ("xyy", 0), ("xxy", 1), ("yyy", 1)}
        table = (out / "model_table.txt").read_text()
        assert table.splitlines()[0].split() == ["''", "'xdot'", "'ydot'", "'udot'"]


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    def test_all_configs_parse(self):
        from sindykit.cli import load_config
        paths = sorted(self.CONFIG_DIR.glob("*.json"))
        assert len(paths) == 7
        for path in paths:
            cfg = load_config(path)
            assert cfg["system"]["kind"]

    @pytest.mark.parametrize("name,expected_nnz", [
        ("linear2d.json", 4), ("cubic2d.json", 4), ("linear3d.json", 5),
        ("meanfield.json", 9),
    ])
    def test_fast_configs_recover_structure(self, tmp_path, name, expected_nnz):
        out = tmp_path / "run"
        assert main(["fit", "--config", str(self.CONFIG_DIR / name),
                     "--out", str(out)]) == 0
        model = model_from_json((out / "model.json").read_text())
        assert model.nnz() == expected_nnz


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

    def test_wrong_spec_version_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", dict(LIN2D_CFG, spec_version=2))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def _fit_csv(self, tmp_path, row, column, value):
        cfg = write_config(tmp_path / "c.json", LIN2D_CFG)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "gen")]) == 0
        ds = read_dataset_csv(tmp_path / "gen" / "dataset.csv")
        cols = {"state": ds.states.copy(), "derivative": ds.derivatives.copy()}
        cols[column][row, 0] = value
        data = write_dataset_csv(
            ds.with_(states=cols["state"], derivatives=cols["derivative"]), tmp_path / "d.csv")
        return main(["fit", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "o")])

    def test_nan_derivative_is_data_error(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, 123, "derivative", np.nan) == 3
        assert "row 123" in capsys.readouterr().err
        assert not (tmp_path / "o" / "fit_report.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_state_is_data_error(self, tmp_path, capsys):
        assert self._fit_csv(tmp_path, 40, "state", 1e70) == 3
        assert "overflow" in capsys.readouterr().err

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
        doc = dict(LIN2D_CFG, fit={"method": "stlsq", "threshold": 0.05, "mode": "hybrid"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
