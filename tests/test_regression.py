from itertools import combinations

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LassoConfig,
    LibrarySpec,
    Mode,
    StlsqConfig,
    TimeSeriesDataset,
    fit,
    lasso_cd,
    least_squares,
    stlsq,
    support,
)
from conftest import coefficient


def best_subset_support(Theta, y, tol=1e-10):
    """Exhaustive minimal-cardinality least-squares oracle."""
    m, p = Theta.shape
    best_res, best_S = np.linalg.norm(y), ()
    for k in range(1, p + 1):
        for S in combinations(range(p), k):
            xi = least_squares(Theta[:, S], y)
            r = np.linalg.norm(Theta[:, S] @ xi - y)
            if r < best_res - tol:
                best_res, best_S = r, S
    return best_S, best_res


def seeded_instance(seed=0):
    rng = np.random.default_rng(seed)
    Theta = rng.standard_normal((40, 6))
    xi_true = np.array([2.0, 0.0, -3.0, 0.0, 0.0, 0.0])
    return Theta, xi_true, Theta @ xi_true


class TestLeastSquares:
    def test_identity(self):
        assert np.allclose(least_squares(np.eye(3), np.array([1.0, 2.0, 3.0])),
                           [1.0, 2.0, 3.0], atol=0)

    def test_constant_column_mean(self):
        out = least_squares(np.ones((4, 1)), np.full(4, 2.0))
        assert np.allclose(out, [2.0])

    def test_exact_consistent_system(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = least_squares(A, np.array([1.0, 1.0, 2.0]))
        assert np.allclose(out, [1.0, 1.0], atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            least_squares(np.empty((0, 0)), np.empty(0))

    def test_rank_deficient_minimum_norm(self):
        A = np.column_stack([np.ones(5), np.ones(5)])
        out = least_squares(A, np.full(5, 4.0))
        assert np.allclose(out, [2.0, 2.0])  # minimum-norm split


class TestStlsq:
    def test_oscillator_trajectory_linear_columns(self, linear2d_dataset):
        ds = linear2d_dataset
        theta = ds.states  # columns are exactly the x- and y-data
        model, report = stlsq(theta, ds.derivatives, StlsqConfig(threshold=0.05))
        assert np.allclose(model.coefficients, [[-0.1, -2.0], [2.0, -0.1]], atol=1e-6)
        assert all(report.converged)

    def test_zero_target_gives_flagged_zero_column(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((30, 4))
        model, report = stlsq(theta, np.zeros((30, 1)), StlsqConfig(threshold=0.1))
        assert np.all(model.coefficients == 0.0)
        assert report.empty_support == [True]
        assert report.condition_estimate == [None]

    def test_seeded_recovery_matches_exhaustive_oracle(self):
        Theta, xi_true, y = seeded_instance(99)
        model, _ = stlsq(Theta, y, StlsqConfig(threshold=0.5))
        xi = model.coefficients[:, 0]
        assert np.allclose(xi, xi_true, atol=1e-10)
        S, _ = best_subset_support(Theta, y)
        assert tuple(np.flatnonzero(xi)) == S == (0, 2)

    def test_huge_threshold_empties_support_with_flag(self):
        Theta, _, y = seeded_instance(3)
        model, report = stlsq(Theta, y, StlsqConfig(threshold=1e6))
        assert np.all(model.coefficients == 0.0)
        assert report.empty_support == [True]

    def test_fixed_point_property(self):
        Theta, _, y = seeded_instance(7)
        cfg = StlsqConfig(threshold=0.5)
        model, _ = stlsq(Theta, y, cfg)
        xi = model.coefficients[:, 0]
        nz = np.abs(xi[xi != 0.0])
        assert nz.min() >= cfg.threshold
        active = xi != 0.0
        resolved = least_squares(Theta[:, active], y)
        assert np.abs(resolved - xi[active]).max() <= 1e-12

    def test_support_shrinks_monotonically_across_iteration_budgets(self):
        # decaying-coefficient instance forces several threshold rounds
        rng = np.random.default_rng(21)
        Theta = rng.standard_normal((60, 8))
        y = Theta @ np.array([3.0, 1.5, 0.8, 0.45, 0.28, 0.0, 0.0, 0.0])
        y += 0.05 * rng.standard_normal(60)
        supports = []
        for k in range(1, 8):
            cfg = StlsqConfig(threshold=0.4, max_iterations=k)
            model, _ = stlsq(Theta, y, cfg)
            supports.append(set(np.flatnonzero(model.coefficients[:, 0])))
        for earlier, later in zip(supports, supports[1:]):
            assert later.issubset(earlier)

    def test_column_independence_and_threading(self):
        rng = np.random.default_rng(13)
        Theta = rng.standard_normal((50, 6))
        targets = rng.standard_normal((50, 3))
        cfg = StlsqConfig(threshold=0.2)
        joint, _ = stlsq(Theta, targets, cfg)
        for k in range(3):
            single, _ = stlsq(Theta, targets[:, k], cfg)
            assert np.array_equal(single.coefficients[:, 0], joint.coefficients[:, k])

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            StlsqConfig(threshold=-1.0)
        with pytest.raises(ConfigError):
            StlsqConfig(threshold=0.1, max_iterations=0)


class TestOracleEquivalenceProperty:
    def test_twenty_seeded_instances(self):
        # acceptance runs the full 100-instance version
        rng = np.random.default_rng(555)
        hits = 0
        for _ in range(20):
            Theta = rng.standard_normal((40, 8))
            S_true = rng.choice(8, size=3, replace=False)
            coeffs = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
            xi_true = np.zeros(8)
            xi_true[S_true] = coeffs
            y = Theta @ xi_true
            lam = 0.5 * np.abs(coeffs).min()
            model, _ = stlsq(Theta, y, StlsqConfig(threshold=lam, max_iterations=20))
            S, _ = best_subset_support(Theta, y)
            if tuple(np.flatnonzero(model.coefficients[:, 0])) == S:
                hits += 1
        assert hits >= 19


class TestLassoCd:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        xi = lasso_cd(A, y, LassoConfig(lambda1=0.0, tol=1e-13, max_sweeps=50_000))
        assert np.allclose(xi, least_squares(A, y), atol=1e-8)

    def test_full_shrinkage_of_single_column(self):
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([1.0, 0.5, 0.2])
        corr = abs(a @ b)  # unit-norm column
        xi = lasso_cd(a.reshape(-1, 1), b, LassoConfig(lambda1=2.0 * corr + 0.1))
        assert xi[0] == 0.0
        xi = lasso_cd(a.reshape(-1, 1), b, LassoConfig(lambda1=2.0 * corr - 0.1))
        assert xi[0] != 0.0

    def test_seeded_instance_support_and_shrinkage(self):
        Theta, xi_true, y = seeded_instance(99)
        xi = lasso_cd(Theta, y, LassoConfig(lambda1=1.0))
        S, _ = best_subset_support(Theta, y)
        assert tuple(np.flatnonzero(xi)) == S
        active = np.flatnonzero(xi)
        rel = np.abs(xi[active] - xi_true[active]) / np.abs(xi_true[active])
        assert rel.max() < 0.05  # shrinkage bias stays small

    def test_zero_column_ignored(self):
        A = np.column_stack([np.zeros(10), np.ones(10)])
        xi = lasso_cd(A, np.full(10, 3.0), LassoConfig(lambda1=1e-12))
        assert xi[0] == 0.0
        assert np.isclose(xi[1], 3.0, atol=1e-6)

    def test_non_convergence_warns(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        with pytest.warns(UserWarning, match="not converged"):
            lasso_cd(A, y, LassoConfig(lambda1=1e-6, tol=1e-15, max_sweeps=2))


class TestFit:
    def test_continuous_without_derivatives_points_to_differentiation(self):
        ds = TimeSeriesDataset(times=np.arange(50.0), states=np.random.default_rng(1).random((50, 2)))
        with pytest.raises(DataError, match="differentiation"):
            fit(ds, LibrarySpec(2, 1), StlsqConfig(threshold=0.1))

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(8)
        ds = TimeSeriesDataset(
            times=np.arange(10.0), states=rng.random((10, 2)),
            derivatives=rng.random((10, 2)))
        with pytest.raises(DataError, match="overdetermine"):
            fit(ds, LibrarySpec(2, 5), StlsqConfig(threshold=0.1))

    def test_discrete_constant_states_constant_library(self):
        ds = TimeSeriesDataset(times=np.arange(20.0), states=np.full((20, 1), 0.37))
        model, _ = fit(ds, LibrarySpec(1, 0), StlsqConfig(threshold=0.01),
                       mode=Mode.DISCRETE)
        assert np.isclose(coefficient(model, "1", 0), 0.37, atol=1e-12)

    def test_discrete_linear_recovers_map_matrix(self):
        rng = np.random.default_rng(99)
        A = rng.standard_normal((2, 2))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        x = np.array([1.0, -1.0])
        traj = [x]
        for _ in range(30):
            x = A @ x
            traj.append(x)
        ds = TimeSeriesDataset(times=np.arange(31.0), states=np.array(traj))
        model, _ = fit(ds, LibrarySpec(2, 1, include_constant=False),
                       StlsqConfig(threshold=0.0), mode=Mode.DISCRETE)
        assert np.abs(model.coefficients.T - A).max() < 1e-8

    def test_discrete_pairs_respect_segments(self):
        # two constant runs at different levels: crossing the boundary would
        # put an impossible pair (0.2 -> 0.8) into the regression
        states = np.concatenate([np.full(30, 0.2), np.full(30, 0.8)]).reshape(-1, 1)
        ds = TimeSeriesDataset(times=np.arange(60.0), states=states, segments=(0, 30))
        model, report = fit(ds, LibrarySpec(1, 1), StlsqConfig(threshold=1e-6),
                            mode=Mode.DISCRETE)
        assert report.residual_norm[0] < 1e-12

    def test_lasso_config_dispatch(self, linear2d_dataset):
        model, report = fit(linear2d_dataset, LibrarySpec(2, 2),
                            LassoConfig(lambda1=1e-8, tol=1e-12, max_sweeps=200_000))
        assert np.isclose(coefficient(model, "y", 0), 2.0, atol=1e-3)
        assert len(report.residual_norm) == 2

    def test_nan_derivative_rejected_naming_row(self):
        rng = np.random.default_rng(3)
        derivs = rng.random((40, 2))
        derivs[17, 1] = np.nan
        ds = TimeSeriesDataset(times=np.arange(40.0), states=rng.random((40, 2)),
                               derivatives=derivs)
        with pytest.raises(DataError, match="non-finite target at dataset row 17"):
            fit(ds, LibrarySpec(2, 2), StlsqConfig(threshold=0.1))

    def test_discrete_nan_names_dataset_row_across_segments(self):
        states = np.linspace(0.1, 0.9, 40).reshape(-1, 1)
        states[25, 0] = np.inf
        ds = TimeSeriesDataset(times=np.arange(40.0), states=states, segments=(0, 20))
        with pytest.raises(DataError, match="dataset row 25"):
            fit(ds, LibrarySpec(1, 1), StlsqConfig(threshold=0.1), mode=Mode.DISCRETE)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_library_overflow_rejected_naming_row(self):
        rng = np.random.default_rng(5)
        states = rng.random((40, 2))
        states[9, 0] = 1e70  # finite, but its fifth power is not
        ds = TimeSeriesDataset(times=np.arange(40.0), states=states,
                               derivatives=rng.random((40, 2)))
        with pytest.raises(DataError, match="overflow.*row 9"):
            fit(ds, LibrarySpec(2, 5), StlsqConfig(threshold=0.1))

    def test_lasso_and_stlsq_reports_share_one_layout(self, linear2d_dataset):
        lib = LibrarySpec(2, 2)
        _, lasso = fit(linear2d_dataset, lib, LassoConfig(lambda1=1e-3, max_sweeps=500))
        _, st = fit(linear2d_dataset, lib, StlsqConfig(threshold=0.05))
        for report in (lasso, st):
            assert report.empty_support == [False, False]
            assert all(c is not None and c >= 1.0 for c in report.condition_estimate)
        assert lasso.iterations_used == [0, 0] and lasso.converged == [True, True]
