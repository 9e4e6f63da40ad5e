from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LibrarySpec,
    Mode,
    StlsqConfig,
    TimeSeriesDataset,
    fit,
    least_squares,
    stlsq,
    support,
)
from conftest import coefficient


def exact_least_squares(A, y):
    """The least-squares solution of A x = y, the normal equations solved in
    ``Fraction`` arithmetic from the exact float values, rounded once."""
    A = [[Fraction(v) for v in row] for row in A.tolist()]
    y = [Fraction(v) for v in y.tolist()]
    p = len(A[0])
    M = [[sum(r[i] * r[j] for r in A) for j in range(p)] + [sum(r[i] * v for r, v in zip(A, y))]
         for i in range(p)]
    for i in range(p):  # Gauss-Jordan on [AᵀA | Aᵀy], which is positive definite
        M[i] = [v / M[i][i] for v in M[i]]
        for k in range(p):
            if k != i:
                M[k] = [a - M[k][i] * b for a, b in zip(M[k], M[i])]
    return np.array([float(row[p]) for row in M])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_input_is_a_data_error(self, capfd, bad, where):
        A, b = np.eye(3), np.ones(3)
        (A[1] if where == "A" else b)[1] = bad
        with pytest.raises(DataError, match="finite A and b"):
            least_squares(A, b)
        assert capfd.readouterr().err == ""  # LAPACK printed nothing


class TestStlsq:
    def test_oscillator_trajectory_linear_columns(self, linear2d_dataset):
        ds = linear2d_dataset
        theta = ds.states  # columns are exactly the x- and y-data
        coef, report = stlsq(theta, ds.derivatives, StlsqConfig(threshold=0.05))
        assert np.allclose(coef, [[-0.1, -2.0], [2.0, -0.1]], atol=1e-6)
        assert report.empty_support == [False, False]

    def test_raw_matrix_gives_a_coefficient_array(self):
        # p = 4 regressors and n = 1 target: a model labelled with terms of
        # the regressors could not name its one state
        rng = np.random.default_rng(50)
        Theta = rng.standard_normal((50, 4))
        y = Theta @ [1.5, 0.0, -0.75, 0.0] + 0.01 * rng.standard_normal(50)
        coef, report = stlsq(Theta, y, StlsqConfig(threshold=0.1))
        assert type(coef) is np.ndarray and coef.shape == (4, 1)
        assert coef[[1, 3], 0].tobytes() == np.zeros(2).tobytes()
        assert report.nnz == [2] and report.iterations_used == [2]
        # the kept columns' least-squares solution, exact in rationals from the
        # same float inputs, so that no BLAS kernel or SIMD loop enters it; a
        # solve on this well-conditioned support (cond 1.5) is within a few
        # units in the last place of it, and the bound allows 1e-14 relative
        want = exact_least_squares(Theta[:, [0, 2]], y)
        assert np.abs(coef[[0, 2], 0] - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_target_gives_flagged_zero_column(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((30, 4))
        coef, report = stlsq(theta, np.zeros((30, 1)), StlsqConfig(threshold=0.1))
        assert np.all(coef == 0.0)
        assert report.empty_support == [True]
        assert report.condition_estimate == [None]

    def test_seeded_recovery_matches_exhaustive_oracle(self):
        Theta, xi_true, y = seeded_instance(99)
        coef, _ = stlsq(Theta, y, StlsqConfig(threshold=0.5))
        xi = coef[:, 0]
        assert np.allclose(xi, xi_true, atol=1e-10)
        S, _ = best_subset_support(Theta, y)
        assert tuple(np.flatnonzero(xi)) == S == (0, 2)

    def test_huge_threshold_empties_support_with_flag(self):
        Theta, _, y = seeded_instance(3)
        coef, report = stlsq(Theta, y, StlsqConfig(threshold=1e6))
        assert np.all(coef == 0.0)
        assert report.empty_support == [True]

    def test_fixed_point_property(self):
        Theta, _, y = seeded_instance(7)
        cfg = StlsqConfig(threshold=0.5)
        coef, _ = stlsq(Theta, y, cfg)
        xi = coef[:, 0]
        nz = np.abs(xi[xi != 0.0])
        assert nz.min() >= cfg.threshold
        active = xi != 0.0
        resolved = least_squares(Theta[:, active], y)
        assert np.abs(resolved - xi[active]).max() <= 1e-12

    def test_support_shrinks_monotonically_across_passes(self, monkeypatch):
        # decaying-coefficient instance: thresholding drops terms before the
        # support settles
        rng = np.random.default_rng(21)
        Theta = rng.standard_normal((60, 8))
        y = Theta @ np.array([3.0, 1.5, 0.8, 0.45, 0.28, 0.0, 0.0, 0.0])
        y += 0.05 * rng.standard_normal(60)
        solves = []  # the matrix of each pass's solve: columns of the 8 x 8 factor

        def recording(A, b, rows=None):
            solves.append(A)
            return least_squares(A, b, rows)

        monkeypatch.setattr("sindykit.regression.least_squares", recording)
        coef, report = stlsq(Theta, y, StlsqConfig(threshold=0.4))
        full = solves[0]
        supports = [{j for j in range(8) if any(np.array_equal(full[:, j], a) for a in A.T)}
                    for A in solves]
        assert len(supports) == report.iterations_used[0] >= 2
        for earlier, later in zip(supports, supports[1:]):
            assert later < earlier
        assert supports[-1] == set(np.flatnonzero(coef[:, 0]))

    def test_column_independence_and_threading(self):
        rng = np.random.default_rng(13)
        Theta = rng.standard_normal((50, 6))
        targets = rng.standard_normal((50, 3))
        cfg = StlsqConfig(threshold=0.2)
        joint, _ = stlsq(Theta, targets, cfg)
        for k in range(3):
            single, _ = stlsq(Theta, targets[:, k], cfg)
            assert np.array_equal(single[:, 0], joint[:, k])

    def test_zero_threshold_matches_least_squares(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        coef, report = stlsq(A, y, StlsqConfig(threshold=0.0))
        assert np.allclose(coef[:, 0], least_squares(A, y), rtol=1e-12, atol=1e-12)
        assert report.iterations_used == [1]

    def test_single_column_kept_only_at_or_above_threshold(self):
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([1.0, 0.5, 0.2])
        corr = abs(a @ b)  # the least-squares coefficient of a unit-norm column
        coef, report = stlsq(a.reshape(-1, 1), b, StlsqConfig(threshold=corr + 0.1))
        assert coef[0, 0] == 0.0 and report.empty_support == [True]
        coef, report = stlsq(a.reshape(-1, 1), b, StlsqConfig(threshold=corr - 0.1))
        assert np.isclose(coef[0, 0], corr) and report.empty_support == [False]

    def test_zero_column_gets_a_zero_coefficient(self):
        A = np.column_stack([np.zeros(10), np.ones(10)])
        coef, report = stlsq(A, np.full(10, 3.0), StlsqConfig(threshold=1e-12))
        assert coef[0, 0] == 0.0
        assert np.isclose(coef[1, 0], 3.0, atol=1e-12)
        assert report.nnz == [1]

    def test_noisy_seeded_instance_finds_true_support(self):
        Theta, xi_true, y = seeded_instance(99)
        y = y + 0.01 * np.random.default_rng(5).standard_normal(len(y))
        coef, _ = stlsq(Theta, y, StlsqConfig(threshold=0.5))
        xi = coef[:, 0]
        assert tuple(np.flatnonzero(xi)) == (0, 2)
        active = np.flatnonzero(xi)
        rel = np.abs(xi[active] - xi_true[active]) / np.abs(xi_true[active])
        assert rel.max() < 0.05  # STLSQ re-solves, so no shrinkage bias

    @pytest.mark.parametrize("ones", [3, 1])
    def test_staircase_runs_to_its_fixed_point(self, ones):
        # Theta = Q U, Q orthonormal and U bidiagonal, 1 on the diagonal and
        # -2 above it, and y = Q b: the solve on columns :k gives U[:k, :k]^-1
        # b[:k], whose last entry is b[k - 1], so while that entry is eps each
        # pass drops exactly the last survivor, down to the first ``ones``
        # columns, which take p + 1 - ones passes
        p, eps, lam = 16, 1e-3, 2e-3
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((64, p)))
        U = np.eye(p) - 2.0 * np.eye(p, k=1)
        b = np.r_[np.ones(ones), np.full(p - ones, eps)]
        coef, report = stlsq(Q @ U, Q @ b, StlsqConfig(threshold=lam))
        xi = coef[:, 0]
        active = xi != 0.0
        assert np.abs(xi[active]).min() >= lam
        # a fixed point: the re-solve on the support keeps each of its columns
        assert (np.abs(least_squares((Q @ U)[:, active], Q @ b)) >= lam).all()
        assert np.flatnonzero(active).tolist() == list(range(ones))
        assert np.allclose(xi[active], np.linalg.solve(U[:ones, :ones], np.ones(ones)))
        assert report.iterations_used == [p + 1 - ones]  # p passes at most

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            StlsqConfig(threshold=-1.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_is_a_config_error(self, threshold):
        # NaN passes a ``< 0`` test, and would fit an all-zero model
        with pytest.raises(ConfigError, match="threshold must be nonnegative and finite"):
            StlsqConfig(threshold=threshold)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["Theta", "dX"])
    def test_non_finite_input_is_a_data_error_naming_the_row(self, capfd, bad, where):
        rng = np.random.default_rng(4)
        Theta, dX = rng.standard_normal((30, 4)), rng.standard_normal((30, 2))
        (Theta if where == "Theta" else dX)[23, 1] = bad
        with pytest.raises(DataError, match=f"non-finite {where} entry at row 23$"):
            stlsq(Theta, dX, StlsqConfig(threshold=0.1))
        assert capfd.readouterr().err == ""  # LAPACK printed nothing


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
            coef, _ = stlsq(Theta, y, StlsqConfig(threshold=lam))
            S, _ = best_subset_support(Theta, y)
            if tuple(np.flatnonzero(coef[:, 0])) == S:
                hits += 1
        assert hits >= 19


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

    def test_zero_threshold_keeps_every_term(self, linear2d_dataset):
        model, report = fit(linear2d_dataset, LibrarySpec(2, 2), StlsqConfig(threshold=0.0))
        assert np.isclose(coefficient(model, "y", 0), 2.0, atol=1e-3)
        assert report.nnz == [6, 6] and len(report.residual_norm) == 2

    def test_report_has_one_entry_per_equation(self, linear2d_dataset):
        _, report = fit(linear2d_dataset, LibrarySpec(2, 2), StlsqConfig(threshold=0.05))
        assert report.empty_support == [False, False]
        assert all(c is not None and c >= 1.0 for c in report.condition_estimate)
        assert report.nnz == [2, 2]
        assert all(k >= 1 for k in report.iterations_used)

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
