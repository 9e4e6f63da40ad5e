from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    NoiseSpec,
    NumericalError,
    SystemSpec,
    TimeSeriesDataset,
    TvDiffConfig,
    add_noise,
    central_difference,
    concatenate,
    differentiate_dataset,
    simulate,
    tv_derivative,
)
from sindykit.cli import parse_experiment
from sindykit.differentiation import EPSILON
from conftest import shipped_config


class TestCentralDifference:
    def test_exact_on_affine(self):
        t = np.linspace(0.0, 3.0, 40)
        d = central_difference(t, 2.5 * t - 1.0)
        assert np.abs(d - 2.5).max() < 1e-12

    def test_exact_on_quadratic_uniform_grid(self):
        t = np.arange(0.0, 1.0, 0.1)
        d = central_difference(t, t**2)
        assert np.allclose(d, 2 * t, atol=1e-13)

    def test_sine_second_order_error(self):
        dt = 0.01
        t = np.arange(0.0, 2 * np.pi + dt / 2, dt)
        err = np.abs(central_difference(t, np.sin(t)) - np.cos(t))
        # interior symmetric stencil: dt^2/6 * max|f'''|; the one-sided
        # endpoint stencils carry the dt^2/3 constant
        assert err[1:-1].max() < 2e-5
        assert err.max() < 3.5e-5

    def test_affine_exact_on_nonuniform_grid(self):
        rng = np.random.default_rng(0)
        t = np.cumsum(0.05 + 0.1 * rng.random(30))
        d = central_difference(t, -1.7 * t + 4.0)
        assert np.abs(d + 1.7).max() < 1e-12

    @pytest.mark.parametrize("grid", ["nonuniform", "uniform"])
    def test_matches_the_explicit_three_point_stencils(self, grid):
        rng = np.random.default_rng(8)
        t = 0.75 * np.arange(200)  # every step exactly 0.75
        if grid == "nonuniform":
            t = np.cumsum(0.05 + 0.1 * rng.random(200))
        X = rng.standard_normal((200, 3))
        h1, h2 = (t[1:-1] - t[:-2])[:, None], (t[2:] - t[1:-1])[:, None]
        want = np.empty_like(X)
        want[1:-1] = (-h2 / (h1 * (h1 + h2)) * X[:-2] + (h2 - h1) / (h1 * h2) * X[1:-1]
                      + h1 / (h2 * (h1 + h2)) * X[2:])
        a, b = t[1] - t[0], t[2] - t[1]
        want[0] = -(2 * a + b) / (a * (a + b)) * X[0] + (a + b) / (a * b) * X[1] \
            - a / (b * (a + b)) * X[2]
        a, b = t[-2] - t[-3], t[-1] - t[-2]
        want[-1] = b / (a * (a + b)) * X[-3] - (a + b) / (a * b) * X[-2] \
            + (2 * b + a) / (b * (a + b)) * X[-1]
        # the same stencils; np.gradient may round a uniform grid's differently
        tol = 8 * np.finfo(float).eps * np.abs(X).max() / np.diff(t).min()
        assert np.abs(central_difference(t, X) - want).max() <= tol

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            central_difference(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        t = np.linspace(0.0, 1.0, 20)
        X = np.column_stack([t, t**2])
        X[7, 1] = bad
        with pytest.raises(DataError, match="row 7"):
            central_difference(t, X)
        t_bad = t.copy()
        t_bad[-1] = bad
        with pytest.raises(DataError, match="finite"):
            central_difference(t_bad, t)

    def test_matrix_input_per_column(self):
        t = np.linspace(0.0, 1.0, 20)
        X = np.column_stack([t, t**2])
        d = central_difference(t, X)
        assert np.allclose(d[:, 0], 1.0)
        assert np.allclose(d[:, 1], 2 * t, atol=1e-12)


class TestTvDerivative:
    def test_ramp_recovers_constant_slope(self):
        dt = 0.02
        samples = 3.7 * np.arange(0, 100) * dt
        u = tv_derivative(samples, dt, TvDiffConfig(alpha=0.01, iterations=50))
        assert np.abs(u - 3.7).max() < 1e-6

    def test_noisy_sine_beats_central_difference(self):
        rng = np.random.default_rng(3)
        dt = 0.01
        t = np.arange(0.0, 2 * np.pi + dt / 2, dt)
        noisy = np.sin(t) + 0.01 * rng.standard_normal(t.shape)
        truth = np.cos(t)
        cd_rmse = np.sqrt(np.mean((central_difference(t, noisy) - truth) ** 2))
        u, obj = tv_derivative(noisy, dt, TvDiffConfig(alpha=0.01, iterations=60),
                               full_output=True)
        tv_rmse = np.sqrt(np.mean((u - truth) ** 2))
        assert tv_rmse <= 0.5 * cd_rmse
        assert np.all(np.diff(obj) <= 1e-12)

    def test_step_derivative_stays_sharp_and_matches_dense_solve(self):
        dt = 0.01
        t = np.arange(-1.0, 1.0 + dt / 2, dt)
        samples = np.abs(t)
        cfg = TvDiffConfig(alpha=0.005, iterations=200)
        u, obj = tv_derivative(samples, dt, cfg, full_output=True)
        away = np.abs(t) > 3 * dt
        assert np.abs(u[away] - np.sign(t[away])).max() < 0.05
        assert int(np.sum(np.abs(u - np.sign(t)) > 0.5)) <= 3
        assert np.all(np.diff(obj) <= 1e-12)

        # independent route: same objective minimized with dense linear algebra
        m = len(samples)
        fhat = samples - samples[0]
        A = np.zeros((m, m))
        for i in range(1, m):
            A[i, 0] = 0.5 * dt
            A[i, i] = 0.5 * dt
            A[i, 1:i] = dt
        D = (np.eye(m, m, 1) - np.eye(m))[:-1]
        ud = np.gradient(samples, dt)
        for _ in range(200):
            W = np.diag(cfg.alpha / np.sqrt((D @ ud) ** 2 + EPSILON))
            ud = np.linalg.solve(D.T @ W @ D + A.T @ A, A.T @ fhat)
        assert np.abs(u - ud).max() < 1e-6

    def test_objective_non_increasing_every_iteration(self):
        rng = np.random.default_rng(8)
        samples = np.cumsum(rng.standard_normal(200)) * 0.1
        _, obj = tv_derivative(samples, 0.1, TvDiffConfig(alpha=0.05, iterations=80),
                               full_output=True)
        assert np.all(np.diff(obj) <= 1e-12)

    def test_integration_and_difference_adjoints(self):
        # each step solves for s = Aᵣu - (dt/2)·u₀, so Aᵀv must equal Sᵀ Bᵀv,
        # Du must equal the stencils G s that the banded solve is built on,
        # and u = diff(s, prepend=-s₀)/dt must give u back
        from sindykit.differentiation import _b_transpose, _integrate_op
        rng = np.random.default_rng(0)
        for m in (5, 17, 100):
            u, v = rng.standard_normal(m), rng.standard_normal(m)
            dt = 0.031
            s = dt * np.cumsum(u) - 0.5 * dt * u[0]
            assert abs(_integrate_op(u, dt) @ v - s @ _b_transpose(v)) < 1e-12
            gs = np.diff(np.diff(s, prepend=-s[0])) / dt
            assert np.abs(np.diff(u) - gs).max() < 1e-12
            assert np.abs(np.diff(s, prepend=-s[0]) / dt - u).max() < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            tv_derivative(np.arange(4.0), 1.0, TvDiffConfig(alpha=0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.sin(np.linspace(0.0, 3.0, 50))
        samples[11] = bad
        with pytest.raises(DataError, match="row 11"):
            tv_derivative(samples, 0.06, TvDiffConfig(alpha=0.01))

    def test_config_validation(self):
        samples = np.sin(np.linspace(0.0, 3.0, 50))
        with pytest.raises(ConfigError):
            TvDiffConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            tv_derivative(samples, -1.0, TvDiffConfig(alpha=0.1))
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="alpha"):
                TvDiffConfig(alpha=bad)
            with pytest.raises(ConfigError, match="dt"):
                tv_derivative(samples, bad, TvDiffConfig(alpha=0.1))


def _rectangle_rule(m, dt):
    return dt * np.tril(np.ones((m, m)))


def _difference(m):
    return (np.eye(m, m, 1) - np.eye(m))[:-1]


def _trapezoid_rule(m, dt):
    A = np.zeros((m, m))
    for i in range(1, m):
        A[i, 0] = A[i, i] = 0.5 * dt
        A[i, 1:i] = dt
    return A


def _shifted_integral(m, dt):
    # s = S u, S = Aᵣ - (dt/2)·1e₀ᵀ: s₀ = dt·u₀/2, sᵢ = sᵢ₋₁ + dt·uᵢ
    return _rectangle_rule(m, dt) - 0.5 * dt * np.outer(np.ones(m), np.eye(m)[0])


def _band_b(m):
    # (Bs)₀ = 0, (Bs)ᵢ = (sᵢ + sᵢ₋₁)/2
    B = 0.5 * (np.eye(m) + np.eye(m, m, -1))
    B[0] = 0.0
    return B


def _second_difference(m, dt):
    # G with Du = G s: row 0 is (-3, 1)/dt, every other row (1, -2, 1)/dt
    G = np.eye(m - 1, m, -1) - 2.0 * np.eye(m - 1, m) + np.eye(m - 1, m, 1)
    G[0, 0] = -3.0
    return G / dt


def _pentadiagonal(w, dt):
    # S = I + GᵀWG: pentadiagonal SPD, returned with its diagonals as
    # _penta_solve takes them: even length, an odd m bordered by an identity row
    m = w.shape[0] + 1
    G = _second_difference(m, dt)
    S = np.eye(m) + G.T @ (w[:, None] * G)
    n = m + m % 2
    T = np.eye(n + 2)
    T[:m, :m] = S
    return S, tuple(np.diag(T, j)[:n].copy() for j in range(3))


class TestTvPreconditioner:
    """The banded solve of each direct TV step, against dense linear algebra."""

    @pytest.mark.parametrize("m", [5, 6, 7, 9, 64, 1251])
    def test_banded_solve_matches_dense_solve(self, m):
        from sindykit.differentiation import _penta_solve
        rng = np.random.default_rng(m)
        w = 10.0 ** rng.uniform(-6.0, 3.0, m - 1)
        y = rng.standard_normal(m)
        # unit step: S = I + GᵀWG stays conditioned near 1e4, so the dense
        # solve is itself accurate far below the bound
        S, diagonals = _pentadiagonal(w, 1.0)
        dense = np.linalg.solve(S, y)
        banded = _penta_solve(*diagonals, y)
        assert np.linalg.norm(banded - dense) <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("m", [5, 6, 7, 9, 64, 1251])
    def test_banded_solve_is_backward_stable_at_a_fine_step(self, m):
        # at dt = 0.02 S reaches condition ~1e7, where both solves carry
        # forward error ~cond·eps; the residual stays at rounding level
        from sindykit.differentiation import _penta_solve
        rng = np.random.default_rng(m + 1)
        w = 10.0 ** rng.uniform(-6.0, 3.0, m - 1)
        y = rng.standard_normal(m)
        S, diagonals = _pentadiagonal(w, 0.02)
        z = _penta_solve(*diagonals, y)
        assert np.linalg.norm(S @ z - y) <= 1e-14 * np.linalg.norm(S, 2) * np.linalg.norm(z)

    @pytest.mark.parametrize("m", [5, 6, 7, 64, 1251])
    def test_each_column_has_the_bits_of_its_own_solve(self, m):
        # the two cases above as columns 0 and 1 of one batch, plus a third
        from sindykit.differentiation import _penta_solve
        cases = []
        for seed, dt in ((m, 1.0), (m + 1, 0.02), (m + 2, 0.3)):
            rng = np.random.default_rng(seed)
            w = 10.0 ** rng.uniform(-6.0, 3.0, m - 1)
            y = rng.standard_normal(m)
            cases.append((*_pentadiagonal(w, dt), y))
        # fresh arrays: the solve overwrites the diagonals with the factor
        diag, off1, off2 = (np.column_stack(d) for d in zip(*(c[1] for c in cases)))
        Y = np.column_stack([c[2] for c in cases])
        x = _penta_solve(diag, off1, off2, Y)
        assert np.array_equal(Y, np.column_stack([c[2] for c in cases]))  # y is kept
        for j, (_, diagonals, y) in enumerate(cases):
            assert x[:, j].tobytes() == _penta_solve(*diagonals, y).tobytes()
        (S, _, y), z = cases[0], x[:, 0]
        assert np.linalg.norm(z - np.linalg.solve(S, y)) <= 1e-10 * np.linalg.norm(z)
        (S, _, y), z = cases[1], x[:, 1]
        assert np.linalg.norm(S @ z - y) <= 1e-14 * np.linalg.norm(S, 2) * np.linalg.norm(z)

    def test_indefinite_system_names_the_pivot_row_and_column(self):
        from sindykit.differentiation import _penta_solve
        m = 10
        w = 10.0 ** np.random.default_rng(m).uniform(-6.0, 3.0, m - 1)
        S, diagonals = _pentadiagonal(w, 1.0)
        # S shifted by its median eigenvalue is indefinite, with every diagonal filled
        shifted = (diagonals[0] - np.median(np.linalg.eigvalsh(S)),) + diagonals[1:]
        # rows 6 and 7 coupled by 3 with a unit diagonal: the 2x2 block
        # [[1, 3], [3, 1]], whose second pivot is 1 - 3² = -8
        block = np.ones(m), np.zeros(m), np.zeros(m)
        block[1][6] = 3.0
        y = np.ones(m)
        for bad, where in ((shifted, r"row \d of column 1"), (block, "-8.0 at row 7 of column 1")):
            columns = [_pentadiagonal(w, 1.0)[1], bad, _pentadiagonal(w, 0.3)[1]]
            diag, off1, off2 = (np.column_stack(d) for d in zip(*columns))
            with pytest.raises(NumericalError, match=where):
                _penta_solve(diag, off1, off2, np.column_stack([y, y, y]))
        with pytest.raises(NumericalError, match="-8.0 at row 7 is"):
            _penta_solve(*block, y)
        for value in (np.nan, np.inf, 0.0):
            diag = np.ones(m)
            diag[4] = value
            with pytest.raises(NumericalError, match=f"{value} at row 4 is"):
                _penta_solve(diag, np.zeros(m), np.zeros(m), y)


class TestTvStep:
    """One lagged-diffusivity step, solved directly, against dense linear algebra."""

    @pytest.mark.parametrize("m", [5, 6, 9, 64])
    def test_trapezoid_rule_is_the_border_map_of_the_rectangle_rule(self, m):
        # in s = S u, S = Aᵣ - (dt/2)·1e₀ᵀ, the trapezoid rule is A = B S with
        # B bidiagonal and Du = G s with G banded, so no column leaves the band
        from sindykit.differentiation import _b_transpose, _integrate_op
        dt = 0.3
        A, B, S = _trapezoid_rule(m, dt), _band_b(m), _shifted_integral(m, dt)
        assert np.array_equal(A, B @ S)
        assert np.abs(A - np.column_stack([_integrate_op(e, dt) for e in np.eye(m)])).max() <= 1e-15
        assert np.array_equal(B.T, np.column_stack([_b_transpose(e) for e in np.eye(m)]))
        K = B.T @ B
        assert np.array_equal(K, np.diag(np.diag(K)) + np.diag(np.diag(K, 1), 1)
                              + np.diag(np.diag(K, -1), -1))
        # Du = G s: G = D S⁻¹ has row 0 (-3, 1)/dt, every other row (1, -2, 1)/dt
        G = _difference(m) @ np.linalg.inv(S)
        assert np.abs(G - _second_difference(m, dt)).max() <= 1e-13

    @pytest.mark.parametrize("dt", [0.02, 0.3, 1.0])
    @pytest.mark.parametrize("m", [5, 6, 64, 1251])
    def test_step_matches_dense_solve(self, m, dt):
        from sindykit.differentiation import _b_transpose, _tv_step
        rng = np.random.default_rng(m)
        w = 10.0 ** rng.uniform(-6.0, 3.0, m - 1)
        b = rng.standard_normal(m)
        A, D = _trapezoid_rule(m, dt), _difference(m)
        H = A.T @ A + D.T @ (w[:, None] * D)
        u = _tv_step(w, _b_transpose(b), dt)
        # backward stable: measured at most 5.2 eps over these cases
        eps = np.finfo(float).eps
        residual = np.linalg.norm(H @ u - A.T @ b)
        assert residual <= 32 * eps * np.linalg.norm(H, 2) * np.linalg.norm(u)
        # forward error within cond(H)·eps of the dense solve (cond up to ~7e7)
        dense = np.linalg.solve(H, A.T @ b)
        assert np.linalg.norm(u - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_step_keeps_the_bits_of_the_strided_solve(self):
        # SHA-256 of these steps, recorded when each level of the solve ran
        # on row-strided views instead of contiguous [even | odd] rows.  The
        # inputs are integers scaled by powers of two, exact in binary and
        # drawn without a libm or SIMD function, and the solve uses only +,
        # -, *, / and sqrt, so the digest holds on every host
        import hashlib
        from sindykit.differentiation import _b_transpose, _tv_step
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        for shape in [(1251, 48), (1250, 3), (9, 2), (10,)]:
            wshape = (shape[0] - 1, *shape[1:])
            # w from 2**-20 to 2**11 and the data within [-2, 2)
            w = np.ldexp(rng.integers(1 << 20, 1 << 21, wshape), rng.integers(-40, -9, wshape))
            b = np.ldexp(rng.integers(-1 << 20, 1 << 20, shape), -19)
            digest.update(_tv_step(w, _b_transpose(b), 0.02).tobytes())
        assert digest.hexdigest() == (
            "a46ba080f502e6263d7d54f8612deef1595f786a3212f63666a317d1c2de43ba")

    def test_step_holds_at_most_seven_arrays_of_its_size(self):
        # the solve works in the diagonals, one copy of the right-hand side
        # and each level's new couplings: measured 6.55 (m, k) arrays at the
        # peak, against 14.5 for a variant that makes each level's factor
        # and reduced blocks fresh arrays
        import tracemalloc
        from sindykit.differentiation import _b_transpose, _tv_step
        rng = np.random.default_rng(0)
        w = 10.0 ** rng.uniform(-6.0, 3.0, (1250, 48))
        rhs = _b_transpose(rng.standard_normal((1251, 48)))
        tracemalloc.start()
        try:
            u = _tv_step(w, rhs, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * u.nbytes


class TestTvSolverCounters:
    """How the outer lagged-diffusivity iteration proceeds and stops."""

    @staticmethod
    def _hopf_column():
        # first run of configs/hopf.json, with its noise and TV settings
        exp = parse_experiment(shipped_config("hopf"))
        spec = exp["specs"][0]
        ds = add_noise(replace(simulate(spec), derivatives=None), exp["noise_spec"])
        return ds.states[:, 0], spec.dt, exp["tv"]

    @staticmethod
    def _criterion_10_sine():
        rng = np.random.default_rng(3)
        dt = 0.01
        t = np.arange(0.0, 2 * np.pi + dt / 2, dt)
        noisy = np.sin(t) + 0.01 * rng.standard_normal(t.shape)
        return noisy, dt, TvDiffConfig(alpha=0.01, iterations=60)

    @pytest.mark.parametrize("case", ["_hopf_column", "_criterion_10_sine"])
    def test_every_outer_step_lowers_the_objective(self, case):
        samples, dt, cfg = getattr(self, case)()
        _, objectives = tv_derivative(samples, dt, cfg, full_output=True)
        assert len(objectives) > 2
        assert np.all(np.diff(objectives) < 0)

    def test_stall_keeps_the_previous_iterate_and_is_reported(self, monkeypatch):
        import sindykit.differentiation as diff
        calls = []

        def worse(w, rhs, dt):
            calls.append(dt)
            # raises the data misfit; a 1-D signal is solved as one column
            return np.gradient(samples, dt).reshape(rhs.shape) + 1.0

        monkeypatch.setattr(diff, "_tv_step", worse)
        samples = np.sin(np.linspace(0.0, 3.0, 50))
        u, objectives = tv_derivative(samples, 3.0 / 49, TvDiffConfig(alpha=0.01),
                                      full_output=True)
        assert len(calls) == 1
        assert len(objectives) == 1
        assert np.array_equal(u, np.gradient(samples, 3.0 / 49))


def _signals(m, dt, k):
    # ramps stop after one step (accepted, or a rounding stall), |t - c|
    # meets the plateau test part-way, noisy sines and random walks run on
    rng = np.random.default_rng(k)
    t = dt * np.arange(m)
    columns = []
    for j in range(k):
        kind = j % 4
        if kind == 0:
            columns.append((j + 1) * 0.3 * t - 0.5 * j)
        elif kind == 1:
            columns.append(np.sin((1 + 0.1 * j) * t) + 0.01 * rng.standard_normal(m))
        elif kind == 2:
            columns.append(np.abs(t - t[m // 3 + j % 7]))
        else:
            columns.append(0.1 * np.cumsum(rng.standard_normal(m)))
    return np.column_stack(columns)


class TestBatchedTv:
    """k columns solved together give each column the bits it gets alone."""

    DT = 0.1
    CFG = TvDiffConfig(alpha=0.01, iterations=40)

    def _assert_columns_alone(self, F, cfg):
        U, objectives = tv_derivative(F, self.DT, cfg, full_output=True)
        assert U.shape == F.shape and len(objectives) == F.shape[1]
        for j in range(F.shape[1]):
            u, obj = tv_derivative(F[:, j], self.DT, cfg, full_output=True)
            assert U[:, j].tobytes() == u.tobytes()
            assert objectives[j].tobytes() == obj.tobytes()
        assert tv_derivative(F, self.DT, cfg).tobytes() == U.tobytes()
        return objectives

    @pytest.mark.parametrize("k", [1, 2, 21, 22, 48])
    def test_batch_equals_each_column_alone(self, k):
        objectives = self._assert_columns_alone(_signals(60, 0.1, k), self.CFG)
        if k >= 4:
            stops = {len(o) - 1 for o in objectives}  # accepted outer steps
            assert min(stops) <= 1 and max(stops) == 40 and any(1 < n < 40 for n in stops)

    def test_columns_that_stall_part_way_keep_their_previous_iterate(self, monkeypatch):
        # a step that raises the misfit of chosen columns at a chosen outer
        # step, recognised by their right-hand side whatever batch they are in
        import sindykit.differentiation as diff
        from sindykit.differentiation import _b_transpose
        F = _signals(60, 0.1, 48)
        stall_at = {_b_transpose(F[:, j] - F[0, j]).tobytes(): 3 + j % 5
                    for j in range(48) if j % 4 == 3}  # random walks, which never plateau
        seen = {}

        def stalling(w, rhs, dt):
            u = real(w, rhs, dt)
            for c in range(rhs.shape[1]):
                key = rhs[:, c].tobytes()
                seen[key] = seen.get(key, 0) + 1
                if seen[key] == stall_at.get(key):
                    u[:, c] += 1.0
            return u

        real = diff._tv_step
        monkeypatch.setattr(diff, "_tv_step", stalling)
        U, objectives = tv_derivative(F, self.DT, self.CFG, full_output=True)
        for j in range(48):
            seen.clear()
            u, obj = tv_derivative(F[:, j], self.DT, self.CFG, full_output=True)
            assert U[:, j].tobytes() == u.tobytes()
            assert objectives[j].tobytes() == obj.tobytes()
            if j % 4 == 3:
                # the stalled step is dropped: its 2 + j % 5 accepted steps remain
                assert len(obj) == 3 + j % 5

    def test_non_finite_sample_names_row_and_column(self):
        F = _signals(30, 0.1, 3)
        F[12, 2] = np.nan
        F[20, 0] = np.inf
        with pytest.raises(DataError, match="row 12 of column 2"):
            tv_derivative(F, self.DT, self.CFG)

    def test_three_dimensional_samples_rejected(self):
        with pytest.raises(DataError, match="shape"):
            tv_derivative(np.zeros((10, 2, 2)), self.DT, self.CFG)


class TestAddNoise:
    @pytest.fixture()
    def dataset(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 2.0), dt=0.01)
        return simulate(spec)

    @pytest.mark.parametrize("target", ["states", "derivatives"])
    def test_zero_eta_is_identity(self, dataset, target):
        assert add_noise(dataset, NoiseSpec(eta=0.0, target=target, seed=1)) is dataset

    @pytest.mark.parametrize("target", ["states", "derivatives"])
    def test_same_seed_same_output(self, dataset, target):
        a = add_noise(dataset, NoiseSpec(eta=0.3, target=target, seed=5))
        b = add_noise(dataset, NoiseSpec(eta=0.3, target=target, seed=5))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivatives, b.derivatives)

    def test_perturbation_scales_linearly_in_eta(self, dataset):
        one = add_noise(dataset, NoiseSpec(eta=1.0, target="derivatives", seed=9))
        two = add_noise(dataset, NoiseSpec(eta=2.0, target="derivatives", seed=9))
        added_one = one.derivatives - dataset.derivatives
        added_two = two.derivatives - dataset.derivatives
        assert np.allclose(added_two, 2.0 * added_one, rtol=0, atol=1e-12)

    def test_targets_select_matrices(self, dataset):
        s = add_noise(dataset, NoiseSpec(eta=0.1, target="states", seed=2))
        assert not np.array_equal(s.states, dataset.states)
        assert np.array_equal(s.derivatives, dataset.derivatives)
        d = add_noise(dataset, NoiseSpec(eta=0.1, target="derivatives", seed=2))
        assert np.array_equal(d.states, dataset.states)
        assert not np.array_equal(d.derivatives, dataset.derivatives)

    @pytest.mark.parametrize("target", ["states", "derivatives"])
    def test_row_blocks_from_one_generator_equal_one_whole_call(self, dataset, target):
        spec = NoiseSpec(eta=0.3, target=target, seed=13)
        whole = add_noise(dataset, spec)
        rng = np.random.default_rng(spec.seed)
        bounds = [0, 1, 8, 9, 150, dataset.n_samples]  # uneven blocks, one a single row
        blocks = [add_noise(TimeSeriesDataset(dataset.times[a:b], dataset.states[a:b],
                                              dataset.derivatives[a:b]), spec, rng)
                  for a, b in zip(bounds[:-1], bounds[1:])]
        for name in ("states", "derivatives"):
            stacked = np.vstack([getattr(block, name) for block in blocks])
            assert np.array_equal(stacked, getattr(whole, name))

    @pytest.mark.parametrize("target", ["states", "derivatives"])
    def test_one_segment_draws_from_the_seed_itself(self, dataset, target):
        out = add_noise(dataset, NoiseSpec(eta=0.3, target=target, seed=13))
        z = np.random.default_rng(13).standard_normal(dataset.states.shape)
        assert getattr(out, target).tobytes() == (getattr(dataset, target) + 0.3 * z).tobytes()

    @pytest.mark.parametrize("target", ["states", "derivatives"])
    def test_joined_runs_noised_once_equal_each_run_noised_alone(self, target):
        # uneven runs, one of three samples: segment j draws from seed + j
        runs = [simulate(SystemSpec("linear2d", x0=x0, t_span=(0.0, t1), dt=0.01))
                for x0, t1 in (((2.0, 0.0), 2.0), ((0.0, 1.0), 0.02), ((1.0, 1.0), 0.5))]
        spec = NoiseSpec(eta=0.3, target=target, seed=13)
        joined = concatenate(runs)
        once = add_noise(joined, spec)
        alone = concatenate([add_noise(run, replace(spec, seed=13 + j))
                             for j, run in enumerate(runs)])
        for name in ("times", "states", "derivatives"):
            assert getattr(once, name).tobytes() == getattr(alone, name).tobytes()
        # the provenance is recorded once, beside the runs' own meta
        assert once.meta == {**joined.meta, "noise_eta": 0.3, "noise_seed": 13,
                             "noise_target": target}

    def test_meta_records_provenance(self, dataset):
        out = add_noise(dataset, NoiseSpec(eta=0.25, target="states", seed=11))
        assert out.meta["noise_eta"] == 0.25
        assert out.meta["noise_seed"] == 11
        assert out.meta["noise_target"] == "states"

    def test_missing_derivatives_rejected(self, dataset):
        bare = replace(dataset, derivatives=None)
        with pytest.raises(DataError):
            add_noise(bare, NoiseSpec(eta=0.1, target="derivatives", seed=0))

    def test_eta_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(eta=-0.1)
        for target in ("everything", "both"):  # noise perturbs exactly one target
            with pytest.raises(ConfigError, match="target"):
                NoiseSpec(eta=0.1, target=target)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="eta"):
                NoiseSpec(eta=bad)


class TestDifferentiateDataset:
    def test_segments_differentiated_independently(self):
        # two ramps with different slopes; a joint solve across the
        # boundary would blend them
        t = np.concatenate([np.linspace(0, 1, 30), np.linspace(1.1, 2.1, 30)])
        x = np.concatenate([2.0 * t[:30], -1.0 * t[30:]])
        ds = TimeSeriesDataset(times=t, states=x.reshape(-1, 1), segments=(0, 30))
        cfg = TvDiffConfig(alpha=0.01, iterations=3)
        out = differentiate_dataset(ds, cfg)
        for sl, slope in ((slice(0, 30), 2.0), (slice(30, 60), -1.0)):
            alone = tv_derivative(x[sl], float(t[sl][1] - t[sl][0]), cfg)
            assert out.derivatives[sl, 0].tobytes() == alone.tobytes()
            assert np.allclose(alone, slope, atol=1e-6)

    def test_tv_requires_uniform_sampling(self):
        rng = np.random.default_rng(1)
        t = np.cumsum(0.05 + 0.1 * rng.random(40))
        ds = TimeSeriesDataset(times=t, states=t.reshape(-1, 1))
        with pytest.raises(DataError, match="uniform"):
            differentiate_dataset(ds, TvDiffConfig(alpha=0.01))

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_segment_too_short_for_tv_is_named(self, length):
        t = 0.1 * np.arange(40.0)
        ds = TimeSeriesDataset(times=t, states=np.sin(t).reshape(-1, 1),
                               segments=(0, 40 - length))
        with pytest.raises(DataError, match="^tv differentiation needs at least five samples "
                                            f".* rows {40 - length}..39 has {length}$"):
            differentiate_dataset(ds, TvDiffConfig(alpha=0.01, iterations=2))

    @staticmethod
    def _runs():
        # two 40-sample runs, one 30-sample run, and a run of segments of
        # 40 and 25 samples: three (length, step) groups
        rng = np.random.default_rng(4)
        runs = []
        for length, segments in ((40, (0,)), (30, (0,)), (40, (0,)), (65, (0, 40))):
            t = 0.1 * np.arange(length)
            runs.append(TimeSeriesDataset(times=t, segments=segments,
                                          states=0.1 * np.cumsum(rng.standard_normal((length, 2)), axis=0)))
        return runs

    def test_one_tv_call_per_length_and_step(self, monkeypatch):
        import sindykit.differentiation as diff
        cfg = TvDiffConfig(alpha=0.01, iterations=10)
        runs, shapes = self._runs(), []

        def counted(samples, *args, **kwargs):
            shapes.append(samples.shape)
            return tv_derivative(samples, *args, **kwargs)

        monkeypatch.setattr(diff, "tv_derivative", counted)
        ds = concatenate(runs)
        out = differentiate_dataset(ds, cfg)
        assert sorted(shapes) == [(25, 2), (30, 2), (40, 6)]
        monkeypatch.undo()
        assert out.meta["differentiation"] == "tv"
        for sl in ds.segment_slices():
            step = float(ds.times[sl][1] - ds.times[sl][0])
            for j in range(2):
                alone = tv_derivative(ds.states[sl, j], step, cfg)
                assert out.derivatives[sl, j].tobytes() == alone.tobytes()
        assert differentiate_dataset(runs[3], cfg).derivatives.tobytes() \
            == out.derivatives[110:].tobytes()

    def test_errors_name_the_dataset_row(self):
        # runs 0..3 start at rows 0, 40, 70 and 110 of the joined dataset
        cfg = TvDiffConfig(alpha=0.01, iterations=2)
        runs = self._runs()
        states = runs[3].states.copy()
        states[47, 1] = np.nan
        runs[3] = replace(runs[3], states=states)
        with pytest.raises(DataError, match="^non-finite sample at row 157"):
            differentiate_dataset(concatenate(runs), cfg)
        with pytest.raises(DataError, match="^non-finite sample at row 47"):
            differentiate_dataset(runs[3], cfg)
        runs = self._runs()
        runs[1] = replace(runs[1], segments=(0, 27))
        with pytest.raises(DataError, match=" rows 67..69 has 3$"):
            differentiate_dataset(concatenate(runs), cfg)

    def test_a_missing_tv_config_is_refused(self):
        ds = TimeSeriesDataset(times=np.arange(10.0), states=np.zeros((10, 1)))
        for tv in (None, "tv"):
            with pytest.raises(ConfigError, match="needs a TvDiffConfig"):
                differentiate_dataset(ds, tv)
