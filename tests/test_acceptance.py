"""End-to-end acceptance suite.

Each test exercises one pipeline guarantee at its stated tolerance and
prints a PASS line (run with ``pytest tests/test_acceptance.py -v -s``);
its figures also go to ``record_testsuite_property``, so a ``--junitxml``
run keeps them, in either ``junit_family``.  Criteria 1-8 run ``sindykit``
on the shipped ``configs/<name>.json``, edited only in what they vary, and
read back the artifacts; criteria 9-11 are synthetic.  The true models are ``TRUE_MODELS``.
"""

import json
import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from sindykit import (
    LibrarySpec,
    Mode,
    StlsqConfig,
    TvDiffConfig,
    central_difference,
    compute_basis,
    fit,
    least_squares,
    reduce_dataset,
    stlsq,
    support,
    tv_derivative,
)
from sindykit.dataio import read_dataset_csv
from sindykit.model import TimeSeriesDataset
from conftest import (
    TRUE_MODELS,
    coefficient,
    fitted_model,
    run_config,
    shipped_config,
)


@pytest.fixture
def report(record_testsuite_property):
    """``report(criterion, message, **figures)``: print the PASS line and
    record each figure as the test-suite property ``criterion_<n>_<name>``."""
    def report(criterion: int, message: str, **figures) -> None:
        for name, value in figures.items():
            record_testsuite_property(f"criterion_{criterion}_{name}", value)
        print(f"ACCEPTANCE {criterion:>2} PASS: {message}")
    return report


def with_eta(name: str, eta: float) -> dict:
    doc = shipped_config(name)
    doc["noise"]["eta"] = eta
    return doc


def max_relative_error(model, truth: dict) -> float:
    """The largest |coefficient - truth| / |truth| over ``truth``'s (term, equation) keys."""
    return max(abs((coefficient(model, nm, eq) - value) / value)
               for (nm, eq), value in truth.items())


def max_absolute_error(model, truth: dict) -> float:
    return max(abs(coefficient(model, nm, eq) - value) for (nm, eq), value in truth.items())


def test_criterion_1_linear_oscillator(shipped_run, tmp_path, report):
    truth = TRUE_MODELS["linear2d"]
    clean = fitted_model(run_config("fit", with_eta("linear2d", 0.0), tmp_path))
    assert len(clean.terms) * 2 == 42
    assert support(clean) == set(truth)
    clean_err = max_absolute_error(clean, truth)
    assert clean_err < 1e-4

    noisy = fitted_model(shipped_run("fit", "linear2d"))
    assert support(noisy) == set(truth)
    noisy_err = max_relative_error(noisy, truth)
    assert noisy_err < 0.02
    report(1, f"linear 2D oscillator: 4/42 nonzeros, clean |err| {clean_err:.1e}, "
              f"noisy rel err {noisy_err:.2%} < 2%",
           clean_abs_err=clean_err, noisy_rel_err=noisy_err)


def test_criterion_2_cubic_oscillator(shipped_run, tmp_path, report):
    truth = TRUE_MODELS["cubic2d"]
    clean = fitted_model(run_config("fit", with_eta("cubic2d", 0.0), tmp_path))
    assert support(clean) == set(truth)
    clean_err = max_absolute_error(clean, truth)
    assert clean_err < 1e-3

    noisy = fitted_model(shipped_run("fit", "cubic2d"))
    assert support(noisy) == set(truth)
    noisy_err = max_relative_error(noisy, truth)
    assert noisy_err < 0.02
    report(2, f"cubic oscillator: support {{x^3, y^3}}, clean |err| {clean_err:.1e}, "
              f"noisy rel err {noisy_err:.2%} < 2%",
           clean_abs_err=clean_err, noisy_rel_err=noisy_err)


def test_criterion_3_three_dimensional_linear_system(tmp_path, report):
    truth = TRUE_MODELS["linear3d"]
    models = {}
    for order in (2, 3, 4, 5):
        doc = shipped_config("linear3d")
        doc["library"]["poly_order"] = order
        models[order] = fitted_model(run_config("fit", doc, tmp_path / f"order{order}"))
    errs = {}
    for order in (2, 3):
        assert support(models[order]) == set(truth)
        errs[order] = max_relative_error(models[order], truth)
        assert errs[order] < 0.01
    # behaviour at higher orders is reported, not asserted
    degeneracy_log = []
    for order in (4, 5):
        model = models[order]
        status = "exact" if support(model) == set(truth) else "degenerate"
        degeneracy_log.append(f"order {order}: {status} ({model.nnz()} nonzeros)")
    report(3, "3D linear system: 5 nonzeros at orders 2-3, rel err "
              f"{max(errs.values()):.2e} < 1%; higher orders: " + "; ".join(degeneracy_log),
           rel_err=max(errs.values()), order4_nnz=models[4].nnz(), order5_nnz=models[5].nnz())


def test_criterion_4_lorenz(lorenz_dataset, shipped_run, tmp_path, report):
    truth = TRUE_MODELS["lorenz"]
    assert lorenz_dataset.n_samples == 100_001
    t0 = time.time()
    clean = fitted_model(run_config("fit", with_eta("lorenz", 0.0), tmp_path))
    fit_seconds = time.time() - t0
    assert len(clean.terms) == 56
    assert support(clean) == set(truth)
    clean_err = max_relative_error(clean, truth)
    assert clean_err < 0.0003

    noisy = fitted_model(shipped_run("fit", "lorenz"))
    assert support(noisy) == set(truth)
    noisy_err = max_relative_error(noisy, truth)
    assert noisy_err < 0.005
    assert fit_seconds < 60.0
    report(4, f"Lorenz: 7-term support, clean rel err {clean_err:.2e} < 0.03%, "
              f"eta=1 rel err {noisy_err:.2%} < 0.5%, fit in {fit_seconds:.1f}s",
           clean_rel_err=clean_err, noisy_rel_err=noisy_err, fit_seconds=fit_seconds)


def test_criterion_5_lorenz_error_growth(tmp_path, report):
    # the long run integrates the model of the last level: put eta = 1 there
    doc = shipped_config("lorenz")
    etas = doc["compare"]["etas"]
    etas.append(etas.pop(etas.index(1.0)))
    out = run_config("compare", doc, tmp_path)
    saturations = []
    for eta in etas:
        grid, err = np.loadtxt(out / f"error_eta_{eta:g}.csv", delimiter=",", skiprows=1).T
        head = err[grid <= 1.0].mean()
        tail = err[grid >= 15.0].mean()
        assert err[0] < 1e-9                 # identical initial condition
        assert head < tail                   # grows toward saturation
        assert tail < 60.0                   # saturates at attractor scale
        saturations.append(tail)

    traj = np.loadtxt(out / "long_horizon.csv", delimiter=",", skiprows=1)[:, 1:]
    assert np.abs(traj[:, 0]).max() <= 30.0
    assert np.abs(traj[:, 1]).max() <= 35.0
    assert traj[:, 2].min() >= -5.0 and traj[:, 2].max() <= 60.0
    report(5, "error growth: six noise levels rise from 0 and saturate at "
              f"{min(saturations):.1f}-{max(saturations):.1f} (< 60); "
              "identified model stays on the attractor for 250 time units",
           min_tail=min(saturations), max_tail=max(saturations))


@pytest.mark.filterwarnings("ignore:logistic iterates escaped")  # restarts at high mu
def test_criterion_6_logistic_map(shipped_run, report):
    truth = TRUE_MODELS["logistic"]
    model = fitted_model(shipped_run("fit", "logistic"))
    assert support(model) == set(truth)
    err = max_relative_error(model, truth)
    assert err < 0.01
    report(6, f"logistic map: support {{xr, xxr}} / {{r}}, rel err {err:.2%} < 1%", rel_err=err)


def test_criterion_7_mean_field_surrogate_and_pod(shipped_run, tmp_path, report):
    truth = TRUE_MODELS["meanfield"]
    mixed = read_dataset_csv(shipped_run("generate", "meanfield") / "dataset.csv")
    n_big = 200
    rng = np.random.default_rng(2024)
    Q, _ = np.linalg.qr(rng.standard_normal((n_big, 3)))
    wide_names = tuple(f"x{i + 1}" for i in range(n_big))
    embedded = replace(mixed, states=mixed.states @ Q.T, derivatives=mixed.derivatives @ Q.T,
                       state_names=wide_names)

    modes = compute_basis(embedded.states, energy=0.9999)
    assert modes.shape[1] == 3
    reduced = reduce_dataset(embedded, modes)
    pod_model, _ = fit(reduced, LibrarySpec(3, 3), StlsqConfig(threshold=0.01))
    active_degrees = {pod_model.terms[r].degree
                      for r, _ in zip(*np.nonzero(pod_model.coefficients))}
    assert active_degrees == {1, 2}  # quadratic nonlinearities suffice

    # the shipped config: on- and off-manifold runs, known noise
    config_model = fitted_model(shipped_run("fit", "meanfield"))
    assert support(config_model) == set(truth)
    config_err = max_relative_error(config_model, truth)
    assert config_err < 0.02

    # negative control: without off-manifold transients the slaved fast
    # coordinate degenerates and cubic terms absorb the dynamics
    doc = shipped_config("meanfield")
    doc["system"]["runs"] = doc["system"]["runs"][:3]  # the on-manifold runs
    doc["noise"]["seed"] = 78
    bad_model = fitted_model(run_config("fit", doc, tmp_path))
    cubic_terms = [(bad_model.terms[r].name(bad_model.state_names), c)
                   for r, c in zip(*np.nonzero(bad_model.coefficients))
                   if bad_model.terms[r].degree == 3 and c in (0, 1)]
    assert len(cubic_terms) >= 1
    report(7, f"mean-field + POD: r=3 at 99.99% energy, reduced fit quadratic-only, "
              f"config fit rel err {config_err:.2%} < 2%, on-manifold control "
              f"produced {len(cubic_terms)} cubic terms",
           config_rel_err=config_err, control_cubic_terms=len(cubic_terms))


def test_criterion_8_hopf_normal_form(shipped_run, report):
    truth = TRUE_MODELS["hopf"]
    out = shipped_run("fit", "hopf")
    model = fitted_model(out)
    assert support(model) == set(truth)          # u-dot column empty
    assert json.loads((out / "fit_report.json").read_text())["empty_support"][2] is True
    table = (out / "model_table.txt").read_text()
    assert table.splitlines()[0].split() == ["''", "'xdot'", "'ydot'", "'udot'"]
    rotation = max_relative_error(model, {key: truth[key] for key in [("y", 0), ("x", 1)]})
    assert rotation < 0.02
    cubic = [("xxx", 0), ("xyy", 0), ("xxy", 1), ("yyy", 1)]
    cubic_err = max_relative_error(model, {key: truth[key] for key in cubic})
    assert cubic_err < 0.12
    growth_err = max_relative_error(model, {key: truth[key] for key in [("xu", 0), ("yu", 1)]})
    assert growth_err < 0.12
    report(8, f"Hopf normal form: Table-7 support exact, rotation err {rotation:.2%} < 2%, "
              f"cubic err {cubic_err:.2%} < 12%",
           rotation_err=rotation, cubic_err=cubic_err, growth_err=growth_err)


def test_criterion_9_stlsq_best_subset_equivalence(report):
    def best_subset(Theta, y, tol=1e-10):
        best_res, best_S = np.linalg.norm(y), ()
        for size in range(1, Theta.shape[1] + 1):
            for S in combinations(range(Theta.shape[1]), size):
                xi = least_squares(Theta[:, S], y)
                r = np.linalg.norm(Theta[:, S] @ xi - y)
                if r < best_res - tol:
                    best_res, best_S = r, S
        return best_S

    rng = np.random.default_rng(1234)
    agree = 0
    coef_mismatch = 0
    for _ in range(100):
        Theta = rng.standard_normal((40, 8))
        S_true = rng.choice(8, size=3, replace=False)
        coeffs = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
        xi_true = np.zeros(8)
        xi_true[S_true] = coeffs
        y = Theta @ xi_true
        lam = 0.5 * np.abs(coeffs).min()
        coef, _ = stlsq(Theta, y, StlsqConfig(threshold=lam, max_iterations=20))
        xi = coef[:, 0]
        S_oracle = best_subset(Theta, y)
        if tuple(np.flatnonzero(xi)) == S_oracle:
            agree += 1
            oracle = np.zeros(8)
            oracle[list(S_oracle)] = least_squares(Theta[:, S_oracle], y)
            if np.abs(oracle - xi).max() >= 1e-8:
                coef_mismatch += 1
    assert agree >= 95
    assert coef_mismatch == 0
    report(9, f"STLSQ matched exhaustive best-subset support on {agree}/100 instances, "
              "coefficients to 1e-8 wherever supports agree", agree=agree)


def test_criterion_10_tv_differentiation(report):
    rng = np.random.default_rng(3)
    dt = 0.01
    t = np.arange(0.0, 2 * np.pi + dt / 2, dt)
    noisy = np.sin(t) + 0.01 * rng.standard_normal(t.shape)
    truth = np.cos(t)
    cd_rmse = float(np.sqrt(np.mean((central_difference(t, noisy) - truth) ** 2)))
    u, objectives = tv_derivative(noisy, dt, TvDiffConfig(alpha=0.01, iterations=60),
                                  full_output=True)
    tv_rmse = float(np.sqrt(np.mean((u - truth) ** 2)))
    assert tv_rmse <= 0.5 * cd_rmse
    assert np.all(np.diff(objectives) <= 1e-12)
    report(10, f"TV differentiation: RMSE {tv_rmse:.3f} vs central {cd_rmse:.3f} "
               f"(ratio {tv_rmse / cd_rmse:.2f} <= 0.5), objective non-increasing "
               f"over {len(objectives) - 1} iterations", tv_rmse=tv_rmse, central_rmse=cd_rmse)


def test_criterion_11_dmd_coincidence(report):
    rng = np.random.default_rng(99)
    A = rng.standard_normal((3, 3))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    x = np.array([1.0, -0.5, 2.0])
    traj = [x]
    for _ in range(40):
        x = A @ x
        traj.append(x)
    ds = TimeSeriesDataset(times=np.arange(41.0), states=np.array(traj))
    model, _ = fit(ds, LibrarySpec(3, 1, include_constant=False),
                   StlsqConfig(threshold=0.0), mode=Mode.DISCRETE)
    dev = float(np.abs(model.coefficients.T - A).max())
    assert dev < 1e-8
    report(11, f"discrete linear fit reproduces the propagator to {dev:.1e} (DMD case)",
           deviation=dev)
