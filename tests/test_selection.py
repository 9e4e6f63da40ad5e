import warnings
from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LibrarySpec,
    Mode,
    NoiseSpec,
    ParetoPoint,
    StlsqConfig,
    SystemSpec,
    TimeSeriesDataset,
    add_noise,
    build_matrix,
    fit,
    logistic_ensemble,
    pick_elbow,
    simulate,
    support,
    sweep,
)
from sindykit.regression import _QR_BLOCK_ROWS, _regression_problem

from conftest import LORENZ_TRUE_SUPPORT, tail_split

# the sweep replaces the threshold; every other setting comes from here
STLSQ = StlsqConfig(threshold=0.0)


def point(lam, nnz, val, train=None):
    return ParetoPoint(threshold=lam, nnz_total=nnz,
                       train_residual=train if train is not None else val,
                       validation_residual=val)


@pytest.fixture(scope="module")
def noisy_lorenz_subsample(lorenz_dataset):
    ds = lorenz_dataset
    sub = replace(ds, times=ds.times[::10], states=ds.states[::10],
                  derivatives=ds.derivatives[::10])
    return add_noise(sub, NoiseSpec(eta=1.0, target="derivatives", seed=17))


class TestSplit:
    @staticmethod
    def _sweep_problems(monkeypatch, ds, spec, mode=Mode.CONTINUOUS):
        """The factored problems of the two sides of one sweep, train first."""
        import sindykit.selection
        problems = []

        def recording(*args, **kwargs):
            problems.append(_regression_problem(*args, **kwargs))
            return problems[-1]

        monkeypatch.setattr(sindykit.selection, "_regression_problem", recording)
        sweep(ds, spec, np.array([0.1]), STLSQ, mode=mode)
        return problems

    def test_tail_split_sizes(self, monkeypatch):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 10.0), dt=0.01)
        train, val = self._sweep_problems(monkeypatch, simulate(spec), LibrarySpec(2, 2))
        assert (train.n_samples, val.n_samples) == (801, 200)  # of 1001 rows

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("m", [23, 3000])
    def test_sides_equal_the_factors_of_explicit_datasets(self, monkeypatch, mode, m):
        # segments start just before and just after the cut, and in the
        # middle of the training side; the factor of each side in place
        # equals, bit for bit, that of its rows copied into a dataset
        cut = m - round(0.2 * m)
        rng = np.random.default_rng(m)
        ds = TimeSeriesDataset(times=np.arange(float(m)), states=rng.uniform(-1, 1, (m, 2)),
                               derivatives=rng.standard_normal((m, 2)),
                               segments=(0, cut // 2, cut - 1, cut + 1))
        spec = LibrarySpec(2, 3)
        problems = self._sweep_problems(monkeypatch, ds, spec, mode)
        sides = tail_split(ds)
        assert [side.segments for side in sides] == [(0, cut // 2, cut - 1), (0, 1)]
        assert len(problems) == len(sides) == 2
        for problem, side in zip(problems, sides):
            reference = _regression_problem(side, spec, mode)
            assert problem.n_samples == reference.n_samples
            assert np.array_equal(problem.R, reference.R)

    def test_too_few_samples_rejected(self):
        tiny = TimeSeriesDataset(times=np.arange(9.0), states=np.zeros((9, 1)),
                                 derivatives=np.zeros((9, 1)))
        with pytest.raises(DataError, match="too few samples"):
            sweep(tiny, LibrarySpec(1, 1), np.array([0.1]), STLSQ)


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
        a, _ = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ)
        b, _ = sweep(noisy_lorenz_subsample, LibrarySpec(3, 5), lams, STLSQ)
        assert a == b


class TestPickElbow:
    def test_three_point_corner(self):
        # 1.1e-6 is 10 % above the best residual, outside the 5 % band
        pts = [point(0.01, 10, 1e-6), point(0.1, 7, 1.1e-6), point(1.0, 3, 0.5)]
        assert pick_elbow(pts) == 0.01

    def test_band_includes_exactly_five_percent(self):
        pts = [point(0.01, 10, 1.0), point(0.1, 7, 1.05), point(1.0, 3, 1.0500001)]
        assert pick_elbow(pts) == 0.1

    def test_flat_curve_picks_largest_threshold_without_warning(self):
        pts = [point(10.0 ** -k, 5, 1e-3) for k in range(5, 0, -1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = pick_elbow(pts)
        assert lam == max(p.threshold for p in pts)

    def test_invariant_under_uniform_residual_rescaling(self):
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
        assert pick_elbow(pts) == 0.01
        tied = [point(0.01, 10, 1e-6), point(0.05, 7, 1.04e-6),
                point(0.1, 7, 1.04e-6), point(1.0, 3, 0.5)]
        assert pick_elbow(tied) == 0.1

    def test_empty_sweep_raises(self):
        with pytest.raises(DataError):
            pick_elbow([])

    def test_one_point_is_its_own_pick(self):
        assert pick_elbow([point(0.2, 4, 1.0)]) == 0.2

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
        # one pass of row blocks per side of the cut, whatever the threshold count;
        # each side of this small set is a single block, so two builds in all
        import sindykit.library
        import sindykit.regression
        import sindykit.selection
        rows = []
        real = sindykit.library.build_matrix

        def counting(spec, X):
            rows.append(len(X))
            return real(spec, X)

        for module in (sindykit.regression, sindykit.selection):
            if hasattr(module, "build_matrix"):
                monkeypatch.setattr(module, "build_matrix", counting)
        sweep(small, LibrarySpec(2, 3), np.logspace(-3, 0, count), STLSQ)
        blocks = lambda m: [min(_QR_BLOCK_ROWS, m - s) for s in range(0, m, _QR_BLOCK_ROWS)]
        train, val = tail_split(small)
        assert rows == blocks(train.n_samples) + blocks(val.n_samples) == [401, 100]

    def test_equals_fit_per_threshold_plus_residuals(self, small):
        self._assert_equals_fit(small, STLSQ)

    @pytest.mark.parametrize("cfg", [StlsqConfig(threshold=0.0, max_iterations=1),
                                     StlsqConfig(threshold=0.0, max_iterations=2)],
                             ids=["stlsq-one-pass", "stlsq-two-passes"])
    def test_follows_the_configured_fit(self, small, cfg):
        self._assert_equals_fit(small, cfg)

    @staticmethod
    def _assert_equals_fit(small, cfg):
        lib, lams = LibrarySpec(2, 3), np.logspace(-3, 0, 9)
        points, models = sweep(small, lib, lams, cfg)
        train, val = tail_split(small)
        for lam, point, (model, report) in zip(lams, points, models):
            ref, ref_report = fit(train, lib, replace(cfg, threshold=float(lam)))
            assert np.array_equal(model.coefficients, ref.coefficients)
            assert report == ref_report
            # the sweep scores from the factor, the reference from the m rows
            assert (point.threshold, point.nnz_total) == (float(lam), ref.nnz())
            assert (point.train_residual, point.validation_residual) == pytest.approx((
                _relative_residual(build_matrix(lib, train.states), train.derivatives, ref),
                _relative_residual(build_matrix(lib, val.states), val.derivatives, ref)),
                rel=1e-12)

    def test_discrete_mode_pairs_within_segments(self):
        ds = logistic_ensemble([2.8, 3.3, 3.7, 3.9], n_steps=200, eta=0.01, seed=4)
        lib, lams = LibrarySpec(2, 3), np.logspace(-3, 0, 6)
        points, models = sweep(ds, lib, lams, STLSQ, mode=Mode.DISCRETE)
        train, val = tail_split(ds)
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
