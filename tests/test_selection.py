import warnings
from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LassoConfig,
    LibrarySpec,
    Mode,
    NoiseSpec,
    ParetoPoint,
    StlsqConfig,
    SystemSpec,
    add_noise,
    build_matrix,
    fit,
    logistic_ensemble,
    pick_elbow,
    simulate,
    split,
    support,
    sweep,
)
from conftest import LORENZ_TRUE_SUPPORT

# the sweep replaces the threshold; every other setting comes from here
STLSQ = StlsqConfig(threshold=0.0)


def point(lam, nnz, val, train=None):
    return ParetoPoint(threshold=lam, nnz_total=nnz,
                       train_residual=train if train is not None else val,
                       validation_residual=val)


@pytest.fixture(scope="module")
def noisy_lorenz_subsample(lorenz_dataset):
    ds = lorenz_dataset
    sub = ds.with_(times=ds.times[::10], states=ds.states[::10],
                   derivatives=ds.derivatives[::10])
    return add_noise(sub, NoiseSpec(eta=1.0, target="derivatives", seed=17))


class TestSplit:
    @pytest.fixture()
    def dataset(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 10.0), dt=0.01)
        return simulate(spec)

    def test_tail_split_sizes(self, dataset):
        train, val = split(dataset, 0.2, policy="tail")
        m = dataset.n_samples
        assert val.n_samples == int(round(0.2 * m))
        assert train.n_samples + val.n_samples == m
        assert val.times[0] > train.times[-1]  # temporal contiguity

    def test_seeded_blocks_reproducible_and_exhaustive(self, dataset):
        a_train, a_val = split(dataset, 0.3, policy="blocks", seed=4)
        b_train, b_val = split(dataset, 0.3, policy="blocks", seed=4)
        assert np.array_equal(a_val.times, b_val.times)
        assert a_train.n_samples + a_val.n_samples == dataset.n_samples
        c_train, c_val = split(dataset, 0.3, policy="blocks", seed=5)
        assert not np.array_equal(a_val.times, c_val.times)

    def test_block_split_keeps_train_overdetermined(self, dataset):
        spec = LibrarySpec(2, 5)
        train, _ = split(dataset, 0.2, policy="blocks", seed=0)
        assert train.n_samples > spec.n_terms

    def test_kept_rows_break_segments_as_the_row_loop_does(self):
        from sindykit import TimeSeriesDataset
        from sindykit.selection import _take
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(10, 60))
            starts = sorted(set(rng.integers(1, m, size=rng.integers(0, 4)).tolist()))
            ds = TimeSeriesDataset(times=np.arange(float(m)), states=rng.random((m, 1)),
                                   segments=(0, *starts))
            idx = np.flatnonzero(rng.random(m) < rng.uniform(0.1, 0.9))
            if idx.size == 0:
                continue
            mask = np.zeros(m, dtype=bool)
            mask[idx] = True
            want = [0] + [j for j in range(1, idx.size)
                          if idx[j] != idx[j - 1] + 1 or idx[j] in starts]
            assert _take(ds, mask).segments == tuple(want)

    def test_too_few_samples_rejected(self):
        from sindykit import TimeSeriesDataset
        tiny = TimeSeriesDataset(times=np.arange(5.0), states=np.zeros((5, 1)))
        with pytest.raises(DataError):
            split(tiny, 0.2)

    def test_fraction_validation(self, dataset):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                split(dataset, bad)
        with pytest.raises(ConfigError):
            split(dataset, 0.5, policy="shuffle")


class TestSweep:
    def test_lorenz_plateau_and_monotone_bounds(self, noisy_lorenz_subsample):
        lams = np.logspace(-4, 0, 25)
        points, models = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ)
        assert len(points) == 25
        # least-squares optimality: the lam=0-like leftmost point minimizes
        # the training residual across the sweep
        assert points[0].train_residual <= min(p.train_residual for p in points) + 1e-12
        plateau = [p for p in points if p.nnz_total == 7]
        assert len(plateau) >= 5
        vals = [p.validation_residual for p in plateau]
        assert max(vals) - min(vals) < 0.05 * max(vals)
        correct = [m for p, (m, _) in zip(points, models)
                   if p.nnz_total == 7 and support(m) == LORENZ_TRUE_SUPPORT]
        assert len(correct) == len(plateau)

    def test_zero_threshold_is_dense_least_squares(self, noisy_lorenz_subsample):
        points, models = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5),
                               np.array([0.0, 0.5]), STLSQ)
        dense, _ = models[0]
        assert points[0].nnz_total == dense.nnz() > 100  # nothing pruned

    def test_oversparse_threshold_gives_zero_model_unit_residual(self, noisy_lorenz_subsample):
        big = 1e6
        points, models = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5),
                               np.array([0.0, big]), STLSQ)
        zero_model, _ = models[1]
        assert zero_model.nnz() == 0
        assert np.isclose(points[1].validation_residual, 1.0, atol=1e-12)

    def test_unsorted_thresholds_rejected(self, noisy_lorenz_subsample):
        with pytest.raises(ConfigError):
            sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), np.array([0.1, 0.01]), STLSQ)

    def test_determinism(self, noisy_lorenz_subsample):
        lams = np.logspace(-3, -1, 5)
        a, _ = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ, seed=2)
        b, _ = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ, seed=2)
        assert a == b


class TestPickElbow:
    def test_three_point_corner(self):
        pts = [point(0.01, 10, 1e-6), point(0.1, 7, 1.1e-6), point(1.0, 3, 0.5)]
        assert pick_elbow(pts) == 0.1

    def test_flat_curve_falls_back_with_warning(self):
        pts = [point(10.0 ** -k, 5, 1e-3) for k in range(5, 0, -1)]
        with pytest.warns(UserWarning, match="degenerate"):
            lam = pick_elbow(pts)
        assert lam == max(p.threshold for p in pts)

    def test_invariant_under_uniform_residual_rescaling(self):
        rng = np.random.default_rng(3)
        pts = [point(10.0 ** e, n, v) for e, n, v in
               zip(np.linspace(-4, 0, 9),
                   [56, 40, 22, 11, 7, 7, 7, 3, 1],
                   [1e-6, 1.5e-6, 2e-6, 4e-6, 1e-5, 1.1e-5, 1.2e-5, 0.3, 0.9])]
        lam = pick_elbow(pts)
        scaled = [point(p.threshold, p.nnz_total, 137.0 * p.validation_residual)
                  for p in pts]
        assert pick_elbow(scaled) == lam

    def test_ties_resolve_to_larger_threshold(self):
        pts = [point(0.01, 10, 1e-6), point(0.05, 7, 1.1e-6),
               point(0.1, 7, 1.1e-6), point(1.0, 3, 0.5)]
        assert pick_elbow(pts) == 0.1

    def test_needs_three_points(self):
        with pytest.raises(DataError):
            pick_elbow([point(0.1, 5, 1.0), point(0.2, 4, 1.0)])

    def test_lorenz_sweep_elbow_lands_in_plateau(self, noisy_lorenz_subsample):
        lams = np.logspace(-4, 0, 25)
        points, models = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ)
        lam = pick_elbow(points)
        chosen = next(m for p, (m, _) in zip(points, models) if p.threshold == lam)
        assert chosen.nnz() == 7
        assert support(chosen) == LORENZ_TRUE_SUPPORT


def _relative_residual(theta, target, model):
    pred = theta.values @ model.coefficients
    return float(np.linalg.norm(target - pred) / np.linalg.norm(target))


def _pairs(ds):
    firsts = [ds.states[sl][:-1] for sl in ds.segment_slices()]
    nexts = [ds.states[sl][1:] for sl in ds.segment_slices()]
    return np.vstack(firsts), np.vstack(nexts)


class TestSweepSharesOneProblem:
    @pytest.fixture(scope="class")
    def small(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 5.0), dt=0.01)
        return add_noise(simulate(spec), NoiseSpec(eta=0.05, target="derivatives", seed=1))

    @pytest.mark.parametrize("count", [3, 25])
    def test_builds_library_twice_whatever_the_threshold_count(self, small, monkeypatch, count):
        import sindykit.library
        import sindykit.regression
        import sindykit.selection
        calls = []
        real = sindykit.library.build_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (sindykit.regression, sindykit.selection):
            if hasattr(module, "build_matrix"):
                monkeypatch.setattr(module, "build_matrix", counting)
        sweep(small, LibrarySpec(2, 3), np.logspace(-3, 0, count), STLSQ)
        assert len(calls) == 2

    def test_equals_fit_per_threshold_plus_residuals(self, small):
        self._assert_equals_fit(small, STLSQ, "threshold")

    @pytest.mark.parametrize("cfg,knob", [
        (StlsqConfig(threshold=0.0, max_iterations=1), "threshold"),
        (LassoConfig(lambda1=0.0, max_sweeps=300), "lambda1"),
    ], ids=["stlsq-one-pass", "lasso"])
    def test_follows_the_configured_fit(self, small, cfg, knob):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # LASSO may stop at max_sweeps
            self._assert_equals_fit(small, cfg, knob)

    @staticmethod
    def _assert_equals_fit(small, cfg, knob):
        lib, lams = LibrarySpec(2, 3), np.logspace(-3, 0, 9)
        points, models = sweep(small, lib, lams, cfg, fraction=0.25, policy="blocks", seed=3)
        train, val = split(small, 0.25, policy="blocks", seed=3)
        for lam, point, (model, report) in zip(lams, points, models):
            ref, ref_report = fit(train, lib, replace(cfg, **{knob: float(lam)}))
            assert np.array_equal(model.coefficients, ref.coefficients)
            assert report == ref_report
            # the sweep scores from the factor, the reference from the m rows
            assert (point.threshold, point.nnz_total) == (float(lam), ref.nnz())
            assert (point.train_residual, point.validation_residual) == pytest.approx((
                _relative_residual(build_matrix(lib, train.states), train.derivatives, ref),
                _relative_residual(build_matrix(lib, val.states), val.derivatives, ref)),
                rel=1e-12)

    def test_discrete_mode_pairs_within_segments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = logistic_ensemble([2.8, 3.3, 3.7, 3.9], n_steps=200, eta=0.01, seed=4)
        lib, lams = LibrarySpec(2, 3), np.logspace(-3, 0, 6)
        points, models = sweep(ds, lib, lams, STLSQ, mode=Mode.DISCRETE)
        train, val = split(ds, 0.2)
        for lam, point, (model, _) in zip(lams, points, models):
            ref, _ = fit(train, lib, StlsqConfig(threshold=float(lam)), mode=Mode.DISCRETE)
            assert model.mode is Mode.DISCRETE
            assert np.array_equal(model.coefficients, ref.coefficients)
            residuals = []
            for side in (train, val):
                x, nxt = _pairs(side)
                residuals.append(_relative_residual(build_matrix(lib, x), nxt, ref))
            assert (point.train_residual, point.validation_residual) == pytest.approx(
                tuple(residuals), rel=1e-12)
