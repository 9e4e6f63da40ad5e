"""End-to-end acceptance suite.

Each test exercises one pipeline guarantee at its stated tolerance and
prints a PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
Heavy datasets are session-scoped fixtures shared across tests.
"""

import time
import warnings
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from sindykit import (
    LibrarySpec,
    Mode,
    NoiseSpec,
    StlsqConfig,
    SystemSpec,
    TvDiffConfig,
    add_noise,
    augment_signal,
    central_difference,
    compute_basis,
    concatenate,
    differentiate_dataset,
    fit,
    least_squares,
    logistic_ensemble,
    reduce_dataset,
    simulate,
    stlsq,
    support,
    system_rhs,
    tv_derivative,
)
from sindykit.cli import error_curve
from sindykit.model import TimeSeriesDataset
from conftest import (
    LORENZ_PARAMS,
    LORENZ_TRUE_SUPPORT,
    LORENZ_TRUE_VALUES,
    coefficient,
    max_relative_error,
    mean_field_surrogate,
)

OSC_LIB = LibrarySpec(n_states=2, poly_order=5)
LORENZ_LIB = LibrarySpec(n_states=3, poly_order=5)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS: {message}")


@pytest.fixture(scope="session")
def lorenz_noisy_model(lorenz_dataset, lorenz_library):
    noisy = add_noise(lorenz_dataset, NoiseSpec(eta=1.0, target="derivatives", seed=11))
    model, _ = fit(noisy, lorenz_library, StlsqConfig(threshold=0.025))
    return model


def test_criterion_1_linear_oscillator(linear2d_dataset):
    expected_support = {("x", 0), ("y", 0), ("x", 1), ("y", 1)}
    expected_values = [("x", 0, -0.1), ("y", 0, 2.0), ("x", 1, -2.0), ("y", 1, -0.1)]

    clean, _ = fit(linear2d_dataset, OSC_LIB, StlsqConfig(threshold=0.05))
    assert len(clean.terms) * 2 == 42
    assert support(clean) == expected_support
    clean_err = max(abs(coefficient(clean, nm, eq) - truth)
                    for nm, eq, truth in expected_values)
    assert clean_err < 1e-4

    noisy_ds = add_noise(linear2d_dataset, NoiseSpec(eta=0.01, target="derivatives", seed=7))
    noisy, _ = fit(noisy_ds, OSC_LIB, StlsqConfig(threshold=0.05))
    assert support(noisy) == expected_support
    noisy_err = max_relative_error(noisy, expected_values)
    assert noisy_err < 0.02
    report(1, f"linear 2D oscillator: 4/42 nonzeros, clean |err| {clean_err:.1e}, "
              f"noisy rel err {noisy_err:.2%} < 2%")


def test_criterion_2_cubic_oscillator():
    spec = SystemSpec("cubic2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
    ds = simulate(spec)
    expected_support = {("xxx", 0), ("yyy", 0), ("xxx", 1), ("yyy", 1)}
    expected_values = [("xxx", 0, -0.1), ("yyy", 0, 2.0), ("xxx", 1, -2.0), ("yyy", 1, -0.1)]

    clean, _ = fit(ds, OSC_LIB, StlsqConfig(threshold=0.05))
    assert support(clean) == expected_support
    clean_err = max(abs(coefficient(clean, nm, eq) - truth)
                    for nm, eq, truth in expected_values)
    assert clean_err < 1e-3

    noisy_ds = add_noise(ds, NoiseSpec(eta=0.01, target="derivatives", seed=5))
    noisy, _ = fit(noisy_ds, OSC_LIB, StlsqConfig(threshold=0.05))
    assert support(noisy) == expected_support
    noisy_err = max_relative_error(noisy, expected_values)
    assert noisy_err < 0.02
    report(2, f"cubic oscillator: support {{x^3, y^3}}, clean |err| {clean_err:.1e}, "
              f"noisy rel err {noisy_err:.2%} < 2%")


def test_criterion_3_three_dimensional_linear_system():
    spec = SystemSpec("linear3d", x0=(2.0, 0.0, 1.0), t_span=(0.0, 50.0), dt=0.01)
    ds = simulate(spec)
    expected_support = {("x", 0), ("y", 0), ("x", 1), ("y", 1), ("z", 2)}
    expected_values = [("x", 0, -0.1), ("y", 0, 2.0), ("x", 1, -2.0),
                       ("y", 1, -0.1), ("z", 2, -0.3)]
    errs = {}
    for order in (2, 3):
        model, _ = fit(ds, LibrarySpec(3, order), StlsqConfig(threshold=0.05))
        assert support(model) == expected_support
        errs[order] = max_relative_error(model, expected_values)
        assert errs[order] < 0.01
    # behaviour at higher orders is reported, not asserted
    degeneracy_log = []
    for order in (4, 5):
        model, _ = fit(ds, LibrarySpec(3, order), StlsqConfig(threshold=0.05))
        status = "exact" if support(model) == expected_support else "degenerate"
        degeneracy_log.append(f"order {order}: {status} ({model.nnz()} nonzeros)")
    report(3, "3D linear system: 5 nonzeros at orders 2-3, rel err "
              f"{max(errs.values()):.2e} < 1%; higher orders: " + "; ".join(degeneracy_log))


def test_criterion_4_lorenz(lorenz_dataset, lorenz_library, lorenz_noisy_model):
    assert lorenz_dataset.n_samples == 100_001
    t0 = time.time()
    clean, _ = fit(lorenz_dataset, lorenz_library, StlsqConfig(threshold=0.025))
    fit_seconds = time.time() - t0
    assert len(clean.terms) == 56
    assert support(clean) == LORENZ_TRUE_SUPPORT
    clean_err = max_relative_error(clean, LORENZ_TRUE_VALUES)
    assert clean_err < 0.0003

    assert support(lorenz_noisy_model) == LORENZ_TRUE_SUPPORT
    noisy_err = max_relative_error(lorenz_noisy_model, LORENZ_TRUE_VALUES)
    assert noisy_err < 0.005
    assert fit_seconds < 60.0
    report(4, f"Lorenz: 7-term support, clean rel err {clean_err:.2e} < 0.03%, "
              f"eta=1 rel err {noisy_err:.2%} < 0.5%, fit in {fit_seconds:.1f}s")


def test_criterion_5_lorenz_error_growth(lorenz_dataset, lorenz_library, lorenz_noisy_model):
    spec = SystemSpec("lorenz", x0=(-8.0, 7.0, 27.0), t_span=(0.0, 100.0), dt=0.001,
                      params=LORENZ_PARAMS)
    f_true = system_rhs(spec)
    grid = np.arange(0.0, 20.0 + 1e-9, 0.01)
    x0 = np.array(spec.x0)
    from sindykit.integrate import dp45_adaptive
    truth, _ = dp45_adaptive(f_true, x0, grid, 1e-10, 1e-10)
    saturations = []
    for i, eta in enumerate((1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)):
        noisy = add_noise(lorenz_dataset, NoiseSpec(eta=eta, target="derivatives", seed=40 + i))
        model, _ = fit(noisy, lorenz_library, StlsqConfig(threshold=0.025))
        err = error_curve(truth, model.rhs(), grid)
        head = err[grid <= 1.0].mean()
        tail = err[grid >= 15.0].mean()
        assert err[0] < 1e-9                 # identical initial condition
        assert head < tail                   # grows toward saturation
        assert tail < 60.0                   # saturates at attractor scale
        saturations.append(tail)

    long_grid = np.arange(0.0, 250.0 + 1e-9, 0.01)
    traj, _ = dp45_adaptive(lorenz_noisy_model.rhs(), x0, long_grid, 1e-9, 1e-9)
    assert np.abs(traj[:, 0]).max() <= 30.0
    assert np.abs(traj[:, 1]).max() <= 35.0
    assert traj[:, 2].min() >= -5.0 and traj[:, 2].max() <= 60.0
    report(5, "error growth: six noise levels rise from 0 and saturate at "
              f"{min(saturations):.1f}-{max(saturations):.1f} (< 60); "
              "identified model stays on the attractor for 250 time units")


def test_criterion_6_logistic_map():
    mus = [2.5, 2.75, 3.0, 3.25, 3.5, 3.75, 3.8, 3.85, 3.9, 3.95]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "logistic iterates escaped")  # restarts at high mu
        ens = logistic_ensemble(mus, n_steps=100_000, eta=0.025, seed=42)
    model, _ = fit(ens, LibrarySpec(2, 5), StlsqConfig(threshold=0.05, max_iterations=30),
                   mode=Mode.DISCRETE)
    assert support(model) == {("xr", 0), ("xxr", 0), ("r", 1)}
    values = [("xr", 0, 1.0), ("xxr", 0, -1.0), ("r", 1, 1.0)]
    err = max_relative_error(model, values)
    assert err < 0.01
    report(6, f"logistic map: support {{xr, xxr}} / {{r}}, rel err {err:.2%} < 1%")


MEAN_FIELD_PARAMS = {"mu": 0.1, "omega": 1.0, "A": -0.1, "lam": 10.0}
ON_MANIFOLD_ICS = [(0.4, 0.0, 0.16), (-1.3, 0.2, 1.73), (0.1, 1.2, 1.45)]
OFF_MANIFOLD_ICS = [(0.05, 0.05, 1.5), (0.6, -0.6, 2.0), (0.0, 0.01, 0.8)]


def test_criterion_7_mean_field_surrogate_and_pod():
    mixed = mean_field_surrogate(MEAN_FIELD_PARAMS, ON_MANIFOLD_ICS + OFF_MANIFOLD_ICS,
                                 t_span=(0.0, 40.0), dt=0.01)
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

    # un-rotated check configuration: identity embedding, known noise
    noisy = add_noise(mixed, NoiseSpec(eta=0.01, target="derivatives", seed=77))
    pad = np.zeros((noisy.n_samples, n_big))
    pad[:, :3] = noisy.states
    dpad = np.zeros((noisy.n_samples, n_big))
    dpad[:, :3] = noisy.derivatives
    flat = reduce_dataset(
        replace(noisy, states=pad, derivatives=dpad, state_names=wide_names),
        np.eye(n_big)[:, :3])
    id_model, _ = fit(flat, LibrarySpec(3, 3), StlsqConfig(threshold=0.01))
    expected_support = {("x", 0), ("y", 0), ("xz", 0), ("x", 1), ("y", 1), ("yz", 1),
                        ("z", 2), ("xx", 2), ("yy", 2)}
    assert support(id_model) == expected_support
    expected_values = [("x", 0, 0.1), ("y", 0, -1.0), ("xz", 0, -0.1),
                       ("x", 1, 1.0), ("y", 1, 0.1), ("yz", 1, -0.1),
                       ("z", 2, -10.0), ("xx", 2, 10.0), ("yy", 2, 10.0)]
    id_err = max_relative_error(id_model, expected_values)
    assert id_err < 0.02

    # negative control: without off-manifold transients the slaved fast
    # coordinate degenerates and cubic terms absorb the dynamics
    on_only = mean_field_surrogate(MEAN_FIELD_PARAMS, ON_MANIFOLD_ICS,
                                   t_span=(0.0, 40.0), dt=0.01)
    on_only = add_noise(on_only, NoiseSpec(eta=0.01, target="derivatives", seed=78))
    bad_model, _ = fit(on_only, LibrarySpec(3, 3), StlsqConfig(threshold=0.01))
    cubic_terms = [(bad_model.terms[r].name(bad_model.state_names), c)
                   for r, c in zip(*np.nonzero(bad_model.coefficients))
                   if bad_model.terms[r].degree == 3 and c in (0, 1)]
    assert len(cubic_terms) >= 1
    report(7, f"mean-field + POD: r=3 at 99.99% energy, reduced fit quadratic-only, "
              f"identity-embedding rel err {id_err:.2%} < 2%, on-manifold control "
              f"produced {len(cubic_terms)} cubic terms")


def test_criterion_8_hopf_normal_form():
    mus = [round(-0.2 + 0.1 * i, 10) for i in range(9)]
    golden = 2.399963229728653  # spreads initial phases around the cycle
    runs = []
    k = 0
    for j, mu in enumerate(mus):
        ics = [(np.cos(golden * j), np.sin(golden * j)),
               (1.3 * np.cos(golden * j + 2.1), 1.3 * np.sin(golden * j + 2.1))]
        if mu > 0:
            r_in = 0.5 * np.sqrt(mu)
            ics.append((r_in * np.cos(golden * j + 1.7), r_in * np.sin(golden * j + 1.7)))
        for ic in ics:
            spec = SystemSpec("hopf", x0=ic, t_span=(0.0, 25.0), dt=0.02,
                              params={"mu": mu, "omega": 1.0, "A": 1.0})
            ds = replace(simulate(spec), derivatives=None)  # sensors see states only
            ds = add_noise(ds, NoiseSpec(eta=1e-3, target="states", seed=500 + k))
            k += 1
            ds = differentiate_dataset(ds, "tv", tv=TvDiffConfig(alpha=3e-5, iterations=20))
            runs.append(augment_signal(ds, "u", np.full(ds.n_samples, mu),
                                       np.zeros(ds.n_samples)))
    ensemble = concatenate(runs)
    model, freport = fit(ensemble, LibrarySpec(3, 5),
                         StlsqConfig(threshold=0.05, max_iterations=30))
    table7_support = {("y", 0), ("x", 1), ("xu", 0), ("yu", 1),
                      ("xxx", 0), ("xyy", 0), ("xxy", 1), ("yyy", 1)}
    assert support(model) == table7_support          # u-dot column empty
    assert freport.empty_support[2] is True
    rotation = max(abs(abs(coefficient(model, "y", 0)) - 1.0),
                   abs(abs(coefficient(model, "x", 1)) - 1.0))
    assert rotation < 0.02
    cubic = [("xxx", 0), ("xyy", 0), ("xxy", 1), ("yyy", 1)]
    cubic_err = max(abs((coefficient(model, nm, eq) - (-1.0)) / -1.0) for nm, eq in cubic)
    assert cubic_err < 0.12
    growth_err = max(abs(coefficient(model, "xu", 0) - 1.0),
                     abs(coefficient(model, "yu", 1) - 1.0))
    assert growth_err < 0.12
    report(8, f"Hopf normal form: Table-7 support exact, rotation err {rotation:.2%} < 2%, "
              f"cubic err {cubic_err:.2%} < 12%")


def test_criterion_9_stlsq_best_subset_equivalence():
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
              "coefficients to 1e-8 wherever supports agree")


def test_criterion_10_tv_differentiation():
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
               f"over {len(objectives) - 1} iterations")


def test_criterion_11_dmd_coincidence():
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
    report(11, f"discrete linear fit reproduces the propagator to {dev:.1e} (DMD case)")
