"""The factored regression core against the direct m-row computation.

Every solve, residual and condition estimate runs on the triangular factor
of [Theta | dX].  The oracles here work on Theta's m rows, as the solvers
did before the factor existed: ``np.linalg.lstsq`` with the rank cutoff
max(m, p) * eps * sigma_max, thresholded the same way.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sindykit
import sindykit.regression
from sindykit import (
    DataError,
    LibrarySpec,
    StlsqConfig,
    TimeSeriesDataset,
    build_matrix,
    fit,
    least_squares,
    split,
    stlsq,
    sweep,
)
from sindykit.regression import _factored
from sindykit.selection import _residual

EPS = np.finfo(float).eps


def direct_lstsq(A, y):
    return np.linalg.lstsq(A, y, rcond=max(A.shape) * EPS)[0]


def direct_stlsq(Theta, y, cfg):
    """Threshold/re-solve on the m-row matrix; returns (xi, active, solved coefficients)."""
    p = Theta.shape[1]
    xi, active, solved = direct_lstsq(Theta, y), np.ones(p, dtype=bool), []
    for _ in range(cfg.max_iterations):
        solved.extend(xi[active])
        keep = active & (np.abs(xi) >= cfg.threshold)
        if not keep.any():
            return np.zeros(p), keep, solved
        if np.array_equal(keep, active):
            return xi, active, solved
        active = keep
        xi = np.zeros(p)
        xi[active] = direct_lstsq(Theta[:, active], y)
    return xi, active, solved


@st.composite
def tall_problems(draw):
    """Well-conditioned tall Theta (column scales within 10x) and noisy targets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, n = draw(st.integers(2, 10)), draw(st.integers(1, 3))
    m = draw(st.integers(p + 3, 400))
    Theta = rng.standard_normal((m, p)) * rng.uniform(0.3, 3.0, p)
    Xi = rng.uniform(0.2, 3.0, (p, n)) * rng.choice([-1.0, 0.0, 1.0], (p, n))
    Y = Theta @ Xi + draw(st.sampled_from([1e-2, 1e-1, 1.0])) * rng.standard_normal((m, n))
    cfg = StlsqConfig(threshold=draw(st.floats(0.0, 2.0)),
                      max_iterations=draw(st.integers(1, 10)))
    return Theta, Y, cfg


@settings(max_examples=80, deadline=None)
@given(tall_problems())
def test_factored_stlsq_equals_direct_stlsq(problem):
    Theta, Y, cfg = problem
    coef, report = stlsq(Theta, Y, cfg)
    for k, y in enumerate(Y.T):
        xi, active, solved = direct_stlsq(Theta, y, cfg)
        # a coefficient within rounding of the threshold may fall either way
        assume(all(abs(abs(c) - cfg.threshold) > 1e-8 * (1 + cfg.threshold) for c in solved))
        got = coef[:, k]
        assert np.array_equal(got != 0, xi != 0)
        assert np.allclose(got, xi, rtol=1e-9, atol=1e-9 * np.abs(xi).max(initial=0.0))
        assert report.residual_norm[k] == pytest.approx(np.linalg.norm(Theta @ xi - y),
                                                        rel=1e-9)
        if active.any():
            assert report.condition_estimate[k] == pytest.approx(
                np.linalg.cond(Theta[:, active]), rel=1e-9)
        else:
            assert report.condition_estimate[k] is None


@st.composite
def sweep_datasets(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spec = LibrarySpec(n, order)
    m = draw(st.integers(10 * spec.n_terms, 400))
    states = rng.uniform(-2.0, 2.0, (m, n))
    Xi = rng.uniform(0.2, 2.0, (spec.n_terms, n)) * rng.choice([-1.0, 0.0, 1.0], (spec.n_terms, n))
    dX = build_matrix(spec, states).values @ Xi + 0.1 * rng.standard_normal((m, n))
    ds = TimeSeriesDataset(times=np.arange(m, dtype=float), states=states, derivatives=dX,
                           state_names=tuple("xyz"[:n]))
    return ds, spec, draw(st.sampled_from(["tail", "blocks"]))


def _relative_residual(theta, target, coefficients):
    return np.linalg.norm(theta.values @ coefficients - target) / np.linalg.norm(target)


@settings(max_examples=40, deadline=None)
@given(sweep_datasets())
def test_sweep_residuals_equal_direct_residuals(case):
    ds, spec, policy = case
    points, models = sweep(ds, spec, np.array([0.0, 0.3, 1.0, 5.0]), StlsqConfig(threshold=0.0),
                           fraction=0.25, policy=policy, seed=2)
    train, val = split(ds, 0.25, policy=policy, seed=2)
    theta_train, theta_val = build_matrix(spec, train.states), build_matrix(spec, val.states)
    for point, (model, _) in zip(points, models):
        C = model.coefficients
        assert point.train_residual == pytest.approx(
            _relative_residual(theta_train, train.derivatives, C), rel=1e-9)
        assert point.validation_residual == pytest.approx(
            _relative_residual(theta_val, val.derivatives, C), rel=1e-9)


class TestRankDeficient:
    """A duplicated library column: Theta has a (near) null direction."""

    @staticmethod
    def _problem(perturbation, m=2000, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, 4)) * [1.0, 10.0, 0.1, 3.0]
        dup = A[:, 0] + perturbation * rng.standard_normal(m)
        Theta = np.column_stack([A[:, 0], A[:, 1], dup, A[:, 2], A[:, 3]])
        y = Theta @ [1.0, 2.0, 1.0, 0.5, -1.0] + 0.01 * rng.standard_normal(m)
        return Theta, y

    def test_exact_duplicate_gets_the_minimum_norm_split(self):
        Theta, y = self._problem(0.0)
        coef, _ = stlsq(Theta, y, StlsqConfig(threshold=0.0))
        xi = coef[:, 0]
        assert np.allclose(xi, least_squares(Theta, y), rtol=1e-9, atol=0)
        assert xi[0] == pytest.approx(xi[2], rel=1e-9)

    def test_rank_cutoff_counts_the_original_rows(self):
        # sigma_min / sigma_max ~ 7e-15 lies between the cutoff of the p x p
        # factor (5 eps) and that of the m-row matrix (2000 eps): only the
        # original m drops the near-null direction as the m-row solve does
        Theta, y = self._problem(1e-13)
        s = np.linalg.svd(Theta, compute_uv=False)
        assert 5 * EPS < s[-1] / s[0] < 2000 * EPS
        coef, _ = stlsq(Theta, y, StlsqConfig(threshold=0.0))
        xi = coef[:, 0]
        direct = least_squares(Theta, y)
        assert np.abs(direct).max() < 3.0
        assert np.allclose(xi, direct, rtol=1e-9, atol=0)


def _lorenz_like(m, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.uniform(-2.0, 2.0, (m, 3))
    x, y, z = states.T
    dX = np.column_stack([10 * (y - x), x * (28 - z) - y, x * y - 8 / 3 * z])
    dX += 0.01 * rng.standard_normal(dX.shape)
    return TimeSeriesDataset(times=np.arange(m, dtype=float), states=states, derivatives=dX,
                             state_names=("x", "y", "z"))


def test_every_solve_is_on_the_small_factor(monkeypatch):
    shapes = []
    real = sindykit.regression.least_squares

    def recording(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(sindykit.regression, "least_squares", recording)
    spec = LibrarySpec(3, 3)
    ds = _lorenz_like(3000)
    fit(ds, spec, StlsqConfig(threshold=0.1))
    sweep(ds, spec, np.logspace(-3, 1, 6), StlsqConfig(threshold=0.0))
    assert shapes
    assert max(rows for rows, _ in shapes) <= spec.n_terms


def test_fit_never_forms_theta():
    # threshold 0 keeps every column, so a condition estimate taken on the
    # m rows of the support would copy all of Theta, as would building it
    spec = LibrarySpec(3, 5)
    ds = _lorenz_like(20_000)
    theta_bytes = ds.n_samples * spec.n_terms * 8
    assert spec.n_terms == 56
    tracemalloc.start()
    try:
        fit(ds, spec, StlsqConfig(threshold=0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < theta_bytes / 2


_RSS_PROBE = """
import resource
from sindykit import LibrarySpec, StlsqConfig, fit
from test_factored_regression import _lorenz_like

spec, ds = LibrarySpec(3, 5), _lorenz_like(50_000)
fit(_lorenz_like(2_000), spec, StlsqConfig(threshold=0.1))  # load what a fit loads
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fit(ds, spec, StlsqConfig(threshold=0.1))
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
print(grown / (ds.n_samples * spec.n_terms * 8))
"""


def test_fit_keeps_peak_rss_below_a_quarter_of_theta():
    # tracemalloc cannot see LAPACK's working copies, so count resident
    # memory in a fresh process: a Theta formed anywhere adds its bytes
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(sindykit.__file__).parents[1]),
                                           str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert float(out) < 0.25


def test_a_target_view_of_a_stacked_factor_equals_its_own_factor():
    # compare factors [Theta | Y_1 ... Y_k] once and solves each Y_i on its
    # column view; R22 of a view is not triangular, only its column norms count
    rng = np.random.default_rng(5)
    m, p, k = 3_500, 12, 3
    Theta = rng.standard_normal((m, p))
    xi = np.where(rng.random((p, 3)) < 0.4, rng.uniform(0.5, 2.0, (p, 3)), 0.0)
    Ys = [Theta @ xi + eta * rng.standard_normal((m, 3)) for eta in (1e-3, 1e-2, 1e-1)]
    stacked = _factored(Theta, np.hstack(Ys))
    cfg = StlsqConfig(threshold=0.2)
    for i, Y in enumerate(Ys):
        view, fresh = stacked.targets(3 * i, 3 * (i + 1)), _factored(Theta, Y)
        assert view.R.shape == (p + 3 * k, p + 3)
        (coef, report), (ref, ref_report) = stlsq(view, None, cfg), stlsq(fresh, None, cfg)
        assert np.array_equal(coef != 0, ref != 0)
        assert np.array_equal(coef != 0, xi != 0)
        np.testing.assert_allclose(coef, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.residual_norm, ref_report.residual_norm, rtol=1e-12)
        np.testing.assert_allclose(report.condition_estimate, ref_report.condition_estimate,
                                   rtol=1e-12)
        assert _residual(view, coef) == pytest.approx(_residual(fresh, ref), rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_library_overflow_in_a_late_block_names_its_dataset_row():
    ds = _lorenz_like(3_000)
    states = ds.states.copy()
    states[2_500] = 1e70  # a fifth power overflows; rows 0-2047 fill the first two blocks
    with pytest.raises(DataError, match="library overflow .* at dataset row 2500$"):
        fit(replace(ds, states=states), LibrarySpec(3, 5), StlsqConfig(threshold=0.1))
