import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    NumericalError,
    SparseModel,
    SystemSpec,
    TermDescriptor,
    augment_signal,
    concatenate,
    iterate_map,
    logistic_ensemble,
    simulate,
    system_rhs,
)
from sindykit.integrate import MAX_REJECTED_STEPS, dp45_adaptive, rk4_fixed
from sindykit.systems import FORCING_CHUNK, MAX_STEPS, _SYSTEMS
from conftest import shipped_spec

LORENZ, MEANFIELD = shipped_spec("lorenz"), shipped_spec("meanfield")


class TestSimulate:
    @pytest.mark.parametrize("derivatives", [True, False])
    def test_overflowing_trajectory_names_the_time_of_its_first_non_finite_sample(self,
                                                                                  derivatives):
        # RK4 at dt=0.2 is unstable on Lorenz: the states overflow to NaN at t=1
        spec = replace(LORENZ, t_span=(0.0, 50.0), dt=0.2)
        with pytest.raises(NumericalError, match=r"lorenz trajectory is not finite at t=1$"):
            simulate(spec, derivatives)

    def test_without_derivatives_keeps_the_times_and_states(self):
        spec = replace(LORENZ, t_span=(0.0, 3.0), dt=0.01)
        full, bare = simulate(spec), simulate(spec, derivatives=False)
        assert bare.derivatives is None
        for name in ("times", "states"):
            assert getattr(bare, name).tobytes() == getattr(full, name).tobytes()
        assert (bare.state_names, bare.meta) == (full.state_names, full.meta)

    def test_linear2d_matches_analytic_solution(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        ds = simulate(spec)
        t = ds.times
        exact = np.column_stack([
            2 * np.exp(-0.1 * t) * np.cos(2 * t),
            -2 * np.exp(-0.1 * t) * np.sin(2 * t),
        ])
        assert np.abs(ds.states - exact).max() < 1e-6

    def test_equilibrium_stays_constant(self):
        spec = SystemSpec("cubic2d", x0=(0.0, 0.0), t_span=(0.0, 5.0), dt=0.01)
        ds = simulate(spec)
        assert np.all(ds.states == 0.0)
        assert np.all(ds.derivatives == 0.0)

    def test_derivatives_are_analytic_rhs(self):
        spec = replace(LORENZ, t_span=(0.0, 1.0), dt=0.01)
        ds = simulate(spec)
        f = system_rhs(spec)
        for i in range(0, ds.n_samples, 17):
            assert np.array_equal(ds.derivatives[i], f(ds.states[i]))

    def test_rk45_cross_checks_rk4_on_linear3d(self):
        spec = SystemSpec("linear3d", x0=(2.0, 0.0, 1.0), t_span=(0.0, 50.0), dt=0.01)
        fixed = simulate(spec)
        adaptive, _ = dp45_adaptive(system_rhs(spec), spec.x0, fixed.times, 1e-10, 1e-10)
        assert np.abs(fixed.states - adaptive).max() < 1e-6

    def test_cubic2d_amplitude_envelope_decays(self):
        spec = SystemSpec("cubic2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
        ds = simulate(spec)
        r = np.linalg.norm(ds.states, axis=1)
        peaks = [r[i] for i in range(1, len(r) - 1) if r[i] >= r[i - 1] and r[i] >= r[i + 1]]
        assert len(peaks) > 3
        assert all(b < a + 1e-12 for a, b in zip(peaks, peaks[1:]))

    def test_lorenz_attractor_bounds(self, lorenz_dataset):
        ds = lorenz_dataset
        assert ds.n_samples == 100_001
        assert np.abs(ds.states[:, 0]).max() <= 25.0
        assert np.abs(ds.states[:, 1]).max() <= 30.0
        assert 0.0 <= ds.states[:, 2].min() and ds.states[:, 2].max() <= 55.0

    def test_deterministic_replay(self):
        spec = SystemSpec("linear3d", x0=(1.0, 2.0, 3.0), t_span=(0.0, 3.0), dt=0.01)
        a, b = simulate(spec), simulate(spec)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivatives, b.derivatives)

    @pytest.mark.parametrize("kind, x0, settings, message", [
        ("vanderpol", (1.0,), {}, "unknown system kind 'vanderpol'"),
        ("logistic", (0.5,), {"params": {"mu": 3.0}}, "unknown system kind 'logistic'"),
        ("lorenz", (1.0, 1.0, 1.0), {"params": {"sigma": 10.0}}, "lorenz needs parameters"),
        ("linear2d", (1.0, 0.0), {"t_span": (1.0, 1.0)}, "must hold a start and a later end"),
        ("linear2d", (1.0, 0.0), {"dt": -0.1}, "dt must be positive and finite, not -0.1"),
        ("lorenz", (1.0, 1.0), {"params": LORENZ.params}, "x0"),
        ("linear2d", (1.0, 0.0), {"t_span": (0.0,)}, "t_span"),
        # the grid is the spec's own: simulate never meets a bad one
        ("linear2d", (1.0, 0.0), {"dt": np.nan}, "dt must be positive and finite, not nan"),
        ("linear2d", (1.0, 0.0), {"dt": np.inf}, "dt must be positive and finite, not inf"),
        ("linear2d", (1.0, 0.0), {"t_span": (0.0, np.inf)}, "is more than 10000000 steps"),
        ("linear2d", (1.0, 0.0), {"t_span": (-np.inf, 0.0)}, "is more than 10000000 steps"),
        ("linear2d", (1.0, 0.0), {"t_span": (np.nan, 1.0)}, "must hold a start and a later end"),
        ("linear2d", (1.0, 0.0), {"t_span": (0.0, np.nan)}, "must hold a start and a later end"),
        ("linear2d", (1.0, 0.0), {"dt": 1e-300}, r"over dt 1e-300 is more than 10000000 steps"),
        ("linear2d", (1.0, 0.0), {"t_span": (0.0, 0.5 * MAX_STEPS + 0.5), "dt": 0.5},
         "is more than 10000000 steps"),
        ("linear2d", (1.0, 0.0), {"t_span": (0.0, 0.004)},
         r"t_span \(0.0, 0.004\) over dt 0.01 is shorter than one step"),
    ], ids=["unknown-kind", "map", "missing-parameter", "empty-span", "negative-dt",
            "x0-length", "one-time", "nan-dt", "infinite-dt", "infinite-end", "infinite-start",
            "nan-start", "nan-end", "tiny-dt", "max-steps-and-one", "shorter-than-a-step"])
    def test_spec_validation(self, kind, x0, settings, message):
        with pytest.raises(ConfigError, match=message):
            SystemSpec(kind, x0=x0, **settings)


class TestIntegrators:
    def test_rk4_fourth_order_convergence(self):
        f = lambda x: np.array([-x[0]])
        errs = []
        for dt in (0.1, 0.05):
            times = np.arange(0.0, 1.0 + dt / 2, dt)
            out = rk4_fixed(f, np.array([1.0]), times)
            errs.append(abs(out[-1, 0] - np.exp(-1.0)))
        assert errs[0] / errs[1] > 12  # ~2^4

    def test_dp45_tolerance_controls_error(self):
        f = lambda x: np.array([x[1], -x[0]])
        times = np.linspace(0.0, 10.0, 101)
        out, _ = dp45_adaptive(f, np.array([1.0, 0.0]), times, 1e-12, 1e-12)
        exact = np.column_stack([np.cos(times), -np.sin(times)])
        assert np.abs(out - exact).max() < 1e-8

    def test_step_underflow_names_failure_time(self):
        blow_up = lambda x: np.array([x[0] ** 2])  # escapes at t = 1
        times = np.linspace(0.0, 2.0, 21)
        with pytest.raises(NumericalError, match="t="):
            dp45_adaptive(blow_up, np.array([1.0]), times, 1e-10, 1e-10)

    def test_dense_output_hits_grid_points(self):
        f = lambda x: np.array([1.0])  # unit slope
        times = np.linspace(0.0, 1.0, 17)
        out, _ = dp45_adaptive(f, np.array([0.0]), times, 1e-10, 1e-10)
        assert np.allclose(out[:, 0], times, atol=1e-12)

    def test_step_attempt_budget_stops_a_stiff_run(self):
        # z chases an oscillator at rate 1e6: stability caps the explicit step
        # near 3e-6, so reaching t=1 would take some 300,000 attempts, of
        # which some 7,600 are rejected
        stiff = lambda x: np.array([x[1], -x[0], -1e6 * (x[2] - x[0])])
        times = np.linspace(0.0, 1.0, 11)
        calls = []

        def counted(x):
            calls.append(1)
            return stiff(x)

        with pytest.raises(NumericalError,
                           match=f"after {MAX_REJECTED_STEPS} rejected step attempts"):
            dp45_adaptive(counted, np.array([1.0, 0.0, 0.0]), times, 1e-10, 1e-10)
        attempts, rest = divmod(len(calls) - 1, 6)  # one initial slope, six stages per attempt
        assert rest == 0 and 60 * MAX_REJECTED_STEPS > attempts > 10 * MAX_REJECTED_STEPS

    def test_steps_do_not_depend_on_the_output_grid(self):
        # Lorenz over t = 0..100: the two-point grid takes the accepted steps
        # of the dense one, and ends on the same state
        f = system_rhs(LORENZ)
        x0 = np.array([-8.0, 7.0, 27.0])
        dense, dense_steps = dp45_adaptive(f, x0, np.linspace(0.0, 100.0, 10_001), 1e-10, 1e-10,
                                           record_steps=True)
        ends, end_steps = dp45_adaptive(f, x0, np.array([0.0, 100.0]), 1e-10, 1e-10,
                                        record_steps=True)
        assert np.array_equal(end_steps, dense_steps)
        assert ends[-1].tobytes() == dense[-1].tobytes()


def _rk4_arrays(f, x0, times):
    """RK4 stepping the state as a numpy array: the reference for ``rk4_fixed``."""
    x = np.asarray(x0, dtype=float)
    out = np.empty((len(times), x.shape[0]))
    out[0] = x
    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out



# Dormand-Prince 5(4) tableau for the array form below
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _dp45_arrays(f, x0, times, abs_tol, rel_tol):
    """Dormand-Prince stepping the state as a numpy array: the reference for
    ``dp45_adaptive``.  Returns the states and the accepted step sizes."""
    def hermite(y0, f0, y1, f1, h, theta):
        t2, t3 = theta * theta, theta**3
        return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + theta) * h * f0
                + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * h * f1)

    t0, t_end = float(times[0]), float(times[-1])
    y = np.asarray(x0, dtype=float)
    out = np.empty((len(times), y.shape[0]))
    out[0] = y
    next_sample, steps = 1, []
    k = np.empty((7, y.shape[0]))
    k[0] = f(y)
    scale0 = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale0) ** 2))
    d1 = np.sqrt(np.mean((k[0] / scale0) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-15 else 1e-6
    h = max(min(h, (t_end - t0) / 10.0), 1e-12)
    t = t0
    tiny = 16 * np.finfo(float).eps
    while t < t_end and next_sample < len(times):
        if t_end - t <= tiny * max(1.0, abs(t_end)):
            break
        h = min(h, t_end - t)
        for i in range(1, 7):
            k[i] = f(y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B5 @ k)
        err_vec = h * ((_B5 - _B4) @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec / scale) ** 2))
        if err <= 1.0:
            while (next_sample < len(times)
                   and times[next_sample] <= t + h + 1e-14 * max(1.0, abs(t))):
                theta = (times[next_sample] - t) / h
                out[next_sample] = hermite(y, k[0], y_new, k[6], h, min(max(theta, 0.0), 1.0))
                next_sample += 1
            t += h
            y = y_new
            k[0] = k[6]
            steps.append(h)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    out[next_sample:] = y
    return out, np.array(steps)


def _counted(f, calls):
    def counted(x):
        calls.append(1)
        return f(x)
    return counted


_CONTINUOUS_SPECS = {
    "linear2d": SystemSpec("linear2d", x0=(2.0, 0.0)),
    "cubic2d": SystemSpec("cubic2d", x0=(2.0, 0.0)),
    "linear3d": SystemSpec("linear3d", x0=(2.0, 0.0, 1.0)),
    "lorenz": replace(LORENZ, t_span=(0.0, 10.0)),  # 10,000 steps
    "meanfield3d": replace(MEANFIELD, t_span=(0.0, 30.0)),
    "hopf": shipped_spec("hopf"),  # the first run of configs/hopf.json
}


class TestFloatStepping:
    """``rk4_fixed`` steps Python floats and must equal array stepping; one
    RHS gives the same bits for a state as floats and for a state matrix."""

    @pytest.mark.parametrize("kind", ["lorenz", "hopf", "meanfield3d"])
    def test_rk4_matches_array_stepping(self, kind):
        spec = _CONTINUOUS_SPECS[kind]
        f = system_rhs(spec)
        t0, t1 = spec.t_span
        times = t0 + spec.dt * np.arange(int(round((t1 - t0) / spec.dt)) + 1)
        # the array form needs an array from the RHS, which returns a tuple
        expected = _rk4_arrays(lambda x: np.array(f(x)), spec.x0, times)
        assert np.array_equal(rk4_fixed(f, spec.x0, times), expected)

    @pytest.mark.parametrize("kind", sorted(_SYSTEMS))
    def test_rhs_on_state_matrix_matches_each_state(self, kind):
        f = system_rhs(_CONTINUOUS_SPECS[kind])
        n = len(_CONTINUOUS_SPECS[kind].x0)
        X = 3.0 * np.random.default_rng(0).standard_normal((20_000, n))
        rows = np.array([f(x.tolist()) for x in X])
        assert np.array_equal(np.column_stack(f(X.T)), rows)

    def test_simulate_derivatives_are_the_rhs_at_every_sample(self):
        spec = _CONTINUOUS_SPECS["lorenz"]  # 10,001 samples: the pass runs in blocks
        ds = simulate(spec)
        assert np.array_equal(ds.derivatives, np.column_stack(system_rhs(spec)(ds.states.T)))

    def test_simulate_memory_stays_near_its_output(self):
        spec = replace(LORENZ, t_span=(0.0, 10.0), dt=0.001)
        tracemalloc.start()
        try:
            ds = simulate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_samples == 10_001
        output = ds.times.nbytes + ds.states.nbytes + ds.derivatives.nbytes
        # this peaks at 2.06x (2.02x at t = 100); one derivative pass holding a
        # tuple or an array per sample peaked at 6.0x here and at t = 100
        assert peak < 2.5 * output


    @pytest.mark.parametrize("kind, tol", [("linear3d", 1e-10), ("hopf", 1e-10), ("hopf", 1e-6)])
    def test_dp45_matches_array_stepping(self, kind, tol):
        spec = _CONTINUOUS_SPECS[kind]
        f = system_rhs(spec)
        times = np.arange(0.0, 25.005, 0.01)
        calls, array_calls = [], []
        out, steps = dp45_adaptive(_counted(f, calls), spec.x0, times, tol, tol,
                                   record_steps=True)
        expected, expected_steps = _dp45_arrays(
            _counted(lambda x: np.array(f(x)), array_calls), spec.x0, times, tol, tol)
        assert len(calls) == len(array_calls)  # the same number of step attempts
        assert len(steps) == len(expected_steps)
        assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("times, message", [
        ([0.0, -1.0], r"times\[1\] = -1 does not follow times\[0\] = 0"),
        ([0.0, 2.0, 1.0], r"times\[2\] = 1 does not follow times\[1\] = 2"),
        ([0.0, 1.0, 1.0], r"times\[2\] = 1 does not follow"),
        ([0.0, np.nan, 1.0], r"times\[1\] = nan is not finite"),
        ([0.0, 1.0, np.inf], r"times\[2\] = inf is not finite"),
        ([[0.0, 1.0]], "1-d grid"),
        ([], "non-empty"),
    ], ids=["decreasing", "step-back", "repeated", "nan", "inf", "2-d", "empty"])
    def test_dp45_rejects_a_grid_that_is_not_increasing(self, times, message):
        for integrate in (dp45_adaptive, rk4_fixed):  # both check the grid alike
            with pytest.raises(DataError, match=message):
                integrate(lambda x: [-x[0]], [1.0], np.array(times))

    def test_dp45_rejects_a_non_finite_start(self):
        for integrate in (dp45_adaptive, rk4_fixed):
            with pytest.raises(DataError, match=r"x0\[1\] = nan is not finite"):
                integrate(lambda x: [x[1], -x[0]], [1.0, np.nan], np.linspace(0.0, 1.0, 5))

    def test_dp45_on_a_single_point_returns_the_start(self):
        out, steps = dp45_adaptive(lambda x: [1.0], [2.0], np.array([0.5]), record_steps=True)
        assert out.tolist() == [[2.0]] and steps.size == 0

    def test_model_blowing_up_through_a_squared_term_is_a_numerical_error(self):
        # Lorenz plus a z^2 term: from z = 27 the run escapes near t = 1/27
        # and its step size underflows
        terms = tuple(TermDescriptor(e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                                                  (1, 0, 1), (0, 0, 2)])
        coef = np.zeros((len(terms), 3))
        coef[0, 0], coef[1, 0] = -10.0, 10.0
        coef[0, 1], coef[1, 1], coef[4, 1] = 28.0, -1.0, -1.0
        coef[2, 2], coef[3, 2], coef[5, 2] = -8.0 / 3.0, 1.0, 1.0
        f = SparseModel(terms, coef, ("x", "y", "z")).rhs()
        with pytest.raises(NumericalError, match="step size underflow at t="):
            dp45_adaptive(f, [-8.0, 7.0, 27.0], np.arange(0.0, 1.0, 0.01), 1e-9, 1e-9)


def _reference_rhs(kind, p):
    """The right-hand sides as they were written by hand, one closure per
    kind, before ``systems._SYSTEMS`` held them as source lines."""
    if kind == "linear2d":
        def linear2d(x):
            x0, x1 = x
            return -0.1 * x0 + 2.0 * x1, -2.0 * x0 - 0.1 * x1
        return linear2d
    if kind == "cubic2d":
        def cubic2d(x):
            x0, x1 = x
            c0, c1 = x0 * x0 * x0, x1 * x1 * x1
            return -0.1 * c0 + 2.0 * c1, -2.0 * c0 - 0.1 * c1
        return cubic2d
    if kind == "linear3d":
        def linear3d(x):
            x0, x1, x2 = x
            return -0.1 * x0 + 2.0 * x1, -2.0 * x0 - 0.1 * x1, -0.3 * x2
        return linear3d
    if kind == "lorenz":
        s, b, r = p["sigma"], p["beta"], p["rho"]

        def lorenz(x):
            x0, x1, x2 = x
            return s * (x1 - x0), x0 * (r - x2) - x1, x0 * x1 - b * x2
        return lorenz
    if kind == "meanfield3d":
        mu, om, a, lam = p["mu"], p["omega"], p["A"], p["lam"]

        def mean_field(x):
            x0, x1, x2 = x
            return (
                mu * x0 - om * x1 + a * x0 * x2,
                om * x0 + mu * x1 + a * x1 * x2,
                -lam * (x2 - x0 * x0 - x1 * x1),
            )
        return mean_field
    assert kind == "hopf"
    mu, om, a = p["mu"], p["omega"], p["A"]

    def hopf(x):
        x0, x1 = x
        r2 = x0 * x0 + x1 * x1
        return mu * x0 - om * x1 - a * x0 * r2, om * x0 + mu * x1 - a * x1 * r2
    return hopf


class _Unprintable(float):
    """A parameter value that cannot be turned into text."""

    def __repr__(self):
        raise AssertionError("a parameter value was turned into source text")

    __str__ = __repr__

    def __format__(self, spec):
        raise AssertionError("a parameter value was turned into source text")


class TestSystemTable:
    """Each kind's right-hand side is compiled from its ``_SYSTEMS`` source lines."""

    @staticmethod
    def _spec(kind, make=float):
        # parameters that differ from 1 and from each other, so a reordered or
        # swapped factor changes some bits
        n, names, _ = _SYSTEMS[kind]
        return SystemSpec(kind, x0=(0.5,) * n,
                          params={name: make(0.3 + 0.7 * i + 0.01 * len(name))
                                  for i, name in enumerate(names)})

    @pytest.mark.parametrize("kind", sorted(_SYSTEMS))
    def test_compiled_rhs_equals_the_hand_written_one_bit_for_bit(self, kind):
        spec = self._spec(kind)
        f, reference = system_rhs(spec), _reference_rhs(kind, spec.params)
        X = 3.0 * np.random.default_rng(1).standard_normal((5_000, len(spec.x0)))
        rows = X.tolist()
        assert np.array_equal(np.array([f(x) for x in rows]).view(np.int64),
                              np.array([reference(x) for x in rows]).view(np.int64))
        assert np.array_equal(np.column_stack(f(X.T)).view(np.int64),
                              np.column_stack(reference(X.T)).view(np.int64))

    def test_no_body_uses_a_power_or_a_matrix_product(self):
        for kind in _SYSTEMS:
            assert not any("**" in line or "@" in line for line in _SYSTEMS[kind][2]), kind

    @pytest.mark.parametrize("kind", ["lorenz", "meanfield3d", "hopf"])
    def test_parameter_values_never_become_source_text(self, kind):
        spec = self._spec(kind, make=_Unprintable)
        reference = _reference_rhs(kind, self._spec(kind).params)
        x = [0.25, -1.5, 2.0][:len(spec.x0)]
        assert system_rhs(spec)(x) == reference(x)


def _rk4_lists(f, x0, times):
    """RK4 stepping the state as a list of floats, one comprehension per stage:
    the reference for the generated ``rk4_fixed`` loop."""
    x = np.asarray(x0, dtype=float).tolist()
    out = np.empty((len(times), len(x)))
    out[0] = x
    for i, h in enumerate(np.diff(times).tolist(), 1):
        half, sixth = 0.5 * h, h / 6.0
        k1 = f(x)
        k2 = f([a + half * k for a, k in zip(x, k1)])
        k3 = f([a + half * k for a, k in zip(x, k2)])
        k4 = f([a + h * k for a, k in zip(x, k3)])
        x = [a + sixth * (((b + 2.0 * c) + 2.0 * d) + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        out[i] = x
    return out


# Dormand-Prince 5(4) tableau for the list form below, one name per weight
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4 = 35 / 384 - 5179 / 57600, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640
_E5, _E6, _E7 = -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40


def _dp45_lists(f, x0, times, abs_tol, rel_tol, record_steps=False):
    """Dormand-Prince stepping the state as a list of floats, one comprehension
    per stage: the reference for the generated ``dp45_adaptive`` loop."""
    y = np.asarray(x0, dtype=float).tolist()
    grid = np.asarray(times, dtype=float).tolist()
    n_out = len(grid)
    t0, t_end = grid[0], grid[-1]
    n = len(y)
    out = np.empty((n_out, n))
    out[0] = y
    next_sample = 1
    steps = []

    k1 = f(y)

    d0 = d1 = 0.0
    for a, b in zip(y, k1):
        scale = abs_tol + rel_tol * abs(a)
        q0, q1 = a / scale, b / scale
        d0 += q0 * q0
        d1 += q1 * q1
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    h = 0.01 * d0 / d1 if d1 > 1e-15 else 1e-6
    h = min(h, (t_end - t0) / 10.0) if t_end > t0 else h
    h = max(h, 1e-12)

    t = t0
    tiny = 16 * np.finfo(float).eps
    rejected = 0
    while t < t_end and next_sample < n_out:
        if t_end - t <= tiny * max(1.0, abs(t_end)):
            break
        if h < tiny * max(1.0, abs(t)):
            raise NumericalError(f"adaptive step size underflow at t={t:.6g}")
        h = min(h, t_end - t)
        try:
            k2 = f([a + h * (_A21 * b) for a, b in zip(y, k1)])
            k3 = f([a + h * (_A31 * b + _A32 * c) for a, b, c in zip(y, k1, k2)])
            k4 = f([a + h * (_A41 * b + _A42 * c + _A43 * d)
                    for a, b, c, d in zip(y, k1, k2, k3)])
            k5 = f([a + h * (_A51 * b + _A52 * c + _A53 * d + _A54 * e)
                    for a, b, c, d, e in zip(y, k1, k2, k3, k4)])
            k6 = f([a + h * (_A61 * b + _A62 * c + _A63 * d + _A64 * e + _A65 * g)
                    for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)])
            y_new = [a + h * (_A71 * b + _A73 * d + _A74 * e + _A75 * g + _A76 * p)
                     for a, b, d, e, g, p in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(y_new)
        except ValueError:
            err = math.nan
        else:
            err = 0.0
            for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                q = (h * (_E1 * c1 + _E3 * c3 + _E4 * c4 + _E5 * c5 + _E6 * c6 + _E7 * c7)
                     / (abs_tol + rel_tol * max(abs(a), abs(b))))
                err += q * q
            err = math.sqrt(err / n)
        if err <= 1.0:
            while next_sample < n_out and grid[next_sample] <= t + h + 1e-14 * max(1.0, abs(t)):
                theta = min(max((grid[next_sample] - t) / h, 0.0), 1.0)
                t2 = theta * theta
                t3 = t2 * theta
                w0, w1 = 2 * t3 - 3 * t2 + 1, -2 * t3 + 3 * t2
                v0, v1 = (t3 - 2 * t2 + theta) * h, (t3 - t2) * h
                out[next_sample] = [w0 * a + v0 * b + w1 * c + v1 * d
                                    for a, b, c, d in zip(y, k1, y_new, k7)]
                next_sample += 1
            t += h
            y, k1 = y_new, k7
            steps.append(h)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            rejected += 1
            if rejected == MAX_REJECTED_STEPS:
                raise NumericalError(f"adaptive integration gave up at t={t:.6g} "
                                     f"after {MAX_REJECTED_STEPS} rejected step attempts")
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    out[next_sample:] = y
    return out, (np.array(steps) if record_steps else None)


def _chain(n, returns):
    """A damped nonlinear chain of n states with a sine term, whose right-hand
    side returns a tuple, a list or a 1-d array."""
    def f(x):
        dx = [-0.3 * x[i] + 1.5 * x[(i + 1) % n] - 1.5 * x[(i - 1) % n]
              - 0.2 * x[i] * x[(i + 1) % n] + 0.1 * math.sin(x[i]) for i in range(n)]
        return returns(dx)
    return f


_RETURNS = {"tuple": tuple, "list": list, "array": np.array}


class TestGeneratedLoops:
    """The loops generated per state count equal the list-comprehension forms
    bit for bit and call the right-hand side as often."""

    @pytest.mark.parametrize("returns", sorted(_RETURNS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rk4_equals_list_stepping(self, n, returns):
        f = _chain(n, _RETURNS[returns])
        x0 = np.linspace(0.5, -0.7, n)
        times = np.linspace(0.0, 3.0, 301)
        calls, list_calls = [], []
        out = rk4_fixed(_counted(f, calls), x0, times)
        assert np.array_equal(out, _rk4_lists(_counted(f, list_calls), x0, times))
        assert len(calls) == len(list_calls) == 4 * 300

    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("returns", sorted(_RETURNS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dp45_equals_list_stepping(self, n, returns, record_steps):
        f = _chain(n, _RETURNS[returns])
        x0 = np.linspace(0.5, -0.7, n)
        times = np.linspace(0.0, 3.0, 31)
        calls, list_calls = [], []
        out, steps = dp45_adaptive(_counted(f, calls), x0, times, 1e-9, 1e-9, record_steps)
        expected, expected_steps = _dp45_lists(_counted(f, list_calls), x0, times, 1e-9, 1e-9,
                                               record_steps)
        assert np.array_equal(out, expected)
        if record_steps:
            assert np.array_equal(steps, expected_steps)
        else:
            assert steps is None
        assert len(calls) == len(list_calls)
        assert (len(calls) - 1) % 6 == 0  # one start-up slope, six stages per attempt

    def test_dp45_rejects_a_step_whose_stage_raises_value_error_as_the_list_form_does(self):
        # an oscillator of radius 1 whose right-hand side fails, as math.sin does
        # on an infinite state, once a stage leaves the disc of radius 1.1: at a
        # loose tolerance the long steps overshoot, and the rejections must shrink
        # them exactly as in the list form
        raised = []

        def f(x):
            if x[0] * x[0] + x[1] * x[1] > 1.21:
                raised.append(1)
                raise ValueError("math domain error")
            return x[1], -x[0]

        times = np.linspace(0.0, 20.0, 21)
        out, steps = dp45_adaptive(f, [1.0, 0.0], times, 1e-2, 1e-2, record_steps=True)
        n_raised, raised[:] = len(raised), []
        expected, expected_steps = _dp45_lists(f, [1.0, 0.0], times, 1e-2, 1e-2, True)
        assert n_raised > 0 and len(raised) == n_raised
        assert np.array_equal(out, expected) and np.array_equal(steps, expected_steps)

    @pytest.mark.parametrize("f, x0, times", [
        (lambda x: (x[0] * x[0],), [1.0], np.linspace(0.0, 2.0, 21)),  # escapes at t = 1
        # z chases an oscillator at rate 1e6 and exhausts the attempt budget
        (lambda x: (x[1], -x[0], -1e6 * (x[2] - x[0])), [1.0, 0.0, 0.0],
         np.linspace(0.0, 1.0, 11)),
    ], ids=["underflow", "budget"])
    def test_dp45_errors_keep_the_list_form_messages(self, f, x0, times):
        with pytest.raises(NumericalError) as raised:
            dp45_adaptive(f, x0, times, 1e-10, 1e-10)
        with pytest.raises(NumericalError) as expected:
            _dp45_lists(f, x0, times, 1e-10, 1e-10)
        assert str(raised.value) == str(expected.value)

    def test_dp45_keeps_no_step_sizes_unless_recording(self):
        # a long run on a coarse grid: its step sizes would outweigh its output
        f = system_rhs(_CONTINUOUS_SPECS["lorenz"])
        x0, times = [-8.0, 7.0, 27.0], np.linspace(0.0, 5.0, 51)
        _, steps = dp45_adaptive(f, x0, times, 1e-9, 1e-9, record_steps=True)
        dp45_adaptive(f, x0, times[:2], 1e-9, 1e-9)  # compile the loop before tracing
        tracemalloc.start()
        try:
            out, none = dp45_adaptive(f, x0, times, 1e-9, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert none is None and len(steps) > 800
        # a kept step size costs 32 bytes, 8 in the list and 24 for the float
        assert peak < 8 * len(steps)


class TestIterateMap:
    def test_fixed_point_convergence(self):
        ds = iterate_map(2.5, 150)
        assert abs(ds.states[100, 0] - 0.6) < 1e-6

    def test_period_two_orbit(self):
        ds = iterate_map(3.2, 2000)
        tail = np.sort(np.unique(np.round(ds.states[-10:, 0], 6)))
        assert np.allclose(tail, [0.513045, 0.799455], atol=1e-4)

    def test_parameter_stored_as_state_column(self):
        ds = iterate_map(3.0, 10)
        assert ds.state_names == ("x", "r")
        assert np.all(ds.states[:, 1] == 3.0)

    def test_escape_truncates_with_warning(self):
        with pytest.warns(UserWarning, match="escaped"):
            ds = iterate_map(3.95, 100_000, eta=0.025, seed=0)
        assert ds.n_samples < 100_001
        assert np.all(ds.states[:, 0] >= -0.5) and np.all(ds.states[:, 0] <= 1.5)

    def test_determinism(self):
        a = iterate_map(3.5, 500, eta=0.01, seed=7)
        b = iterate_map(3.5, 500, eta=0.01, seed=7)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("mu, n_steps, eta", [
        (3.5, 3 * FORCING_CHUNK + 5, 0.025), (3.95, 100_000, 0.025),
        (4.0, 3 * FORCING_CHUNK + 5, 0.0),
    ], ids=["chunk-boundaries", "escapes", "unforced"])
    def test_chunked_forcing_equals_one_draw(self, mu, n_steps, eta):
        # the forcing drawn up front in one call, as the map's reference;
        # unforced, the plain recurrence (adding +0.0 changes no iterate here)
        forcing = (eta * np.random.default_rng(0).standard_normal(n_steps) if eta
                   else np.zeros(n_steps))
        xs, x = [0.5], 0.5
        for w in forcing:
            x = mu * x * (1.0 - x) + w
            if not -0.5 <= x <= 1.5:
                break
            xs.append(x)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "logistic iterate escaped")
            ds = iterate_map(mu, n_steps, eta)
        assert ds.states[:, 0].tobytes() == np.array(xs).tobytes()
        assert (len(xs) <= n_steps) == (mu == 3.95)  # the second run escapes
        if not eta:  # the orbit from 0.5 at mu = 4 lands on 1.0, then stays at 0.0
            assert xs[1] == 1.0 and set(xs[2:]) == {0.0}

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            iterate_map(3.0, 10, x0=1.5)
        with pytest.raises(ConfigError):
            iterate_map(4.5, 10)
        with pytest.raises(ConfigError, match="n_steps >= 0"):
            iterate_map(3.0, -1)

    @pytest.mark.parametrize("eta", [-0.01, -np.inf, np.inf, np.nan])
    def test_forcing_must_be_nonnegative_and_finite(self, eta):
        with pytest.raises(ConfigError, match="^eta must be nonnegative and finite$"):
            iterate_map(3.0, 10, eta=eta)


class TestAugmentation:
    @pytest.fixture()
    def dataset(self):
        spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 2.0), dt=0.01)
        return simulate(spec)

    def test_parameter_column_constant_with_zero_derivative(self, dataset):
        m = dataset.n_samples
        out = augment_signal(dataset, "u", np.full(m, 3.0), np.zeros(m))
        assert out.state_names == ("x", "y", "u")
        assert np.all(out.states[:, 2] == 3.0)
        assert np.all(out.derivatives[:, 2] == 0.0)

    def test_time_column_has_unit_derivative(self, dataset):
        out = augment_signal(dataset, "t", dataset.times, np.ones(dataset.n_samples))
        assert np.array_equal(out.states[:, 2], dataset.times)
        assert np.all(out.derivatives[:, 2] == 1.0)

    def test_forcing_signal_column(self, dataset):
        u = np.sin(dataset.times)
        out = augment_signal(dataset, "u", u, np.cos(dataset.times))
        assert np.array_equal(out.states[:, 2], u)

    def test_duplicate_name_rejected(self, dataset):
        with pytest.raises(DataError, match="'x' already present"):
            augment_signal(dataset, "x", np.ones(dataset.n_samples), np.zeros(dataset.n_samples))

    @pytest.mark.parametrize("signal,derivative,message", [
        ((5, 2), (10,), r"signal of 'u' must hold one value per sample, shape \(10,\), "
                        r"not \(5, 2\)"),
        ((10,), (9,), r"derivative of 'u' must hold .* not \(9,\)"),
        ((10,), (10, 1), r"derivative of 'u' must hold .* not \(10, 1\)"),
    ], ids=["2-d signal", "short derivative", "2-d derivative"])
    def test_signal_and_derivative_hold_one_value_per_sample(self, signal, derivative, message):
        ds = simulate(SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 0.09), dt=0.01))
        assert ds.n_samples == 10
        with pytest.raises(DataError, match=message):
            augment_signal(ds, "u", np.ones(signal), np.zeros(derivative))

    def test_concatenate_tracks_segments_and_keeps_each_run_clock(self, dataset):
        exp = concatenate([dataset, dataset, dataset])
        assert exp.segments == (0, dataset.n_samples, 2 * dataset.n_samples)
        assert exp.times.tobytes() == np.tile(dataset.times, 3).tobytes()
        assert exp.n_samples == 3 * dataset.n_samples

    def test_concatenate_returns_a_lone_dataset_as_it_is(self, dataset):
        assert concatenate([dataset]) is dataset

    def test_concatenate_rejects_mismatched_names(self, dataset):
        other = augment_signal(dataset, "u", np.ones(dataset.n_samples),
                               np.zeros(dataset.n_samples))
        with pytest.raises(DataError):
            concatenate([dataset, other])


def mean_field_surrogate(params, initial_conditions, t_span, dt):
    """Mean-field runs from several initial states, joined."""
    return concatenate([
        simulate(SystemSpec("meanfield3d", x0=ic, t_span=t_span, dt=dt, params=params))
        for ic in initial_conditions])


class TestMeanField:
    PARAMS = MEANFIELD.params

    def test_z_axis_decays_exactly(self):
        spec = SystemSpec("meanfield3d", x0=(0.0, 0.0, 2.0), t_span=(0.0, 2.0),
                          dt=0.001, params=self.PARAMS)
        ds = simulate(spec)
        assert np.abs(ds.states[:, :2]).max() == 0.0
        assert np.abs(ds.states[:, 2] - 2.0 * np.exp(-10.0 * ds.times)).max() < 1e-9

    def test_manifold_residual_shrinks_with_faster_relaxation(self):
        resid = {}
        for lam in (10.0, 20.0):
            params = dict(self.PARAMS, lam=lam)
            ds = mean_field_surrogate(params, [(0.4, 0.0, 0.16)],
                                      t_span=(0.0, 30.0), dt=0.005)
            late = slice(ds.n_samples // 2, None)
            resid[lam] = np.abs(
                ds.states[late, 2] - ds.states[late, 0] ** 2 - ds.states[late, 1] ** 2).max()
        assert resid[20.0] < resid[10.0]

    def test_mixed_initial_conditions_concatenate(self):
        ds = mean_field_surrogate(self.PARAMS, [(0.4, 0.0, 0.16), (0.0, 0.0, 1.0)],
                                  t_span=(0.0, 1.0), dt=0.01)
        assert len(ds.segments) == 2

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_relaxation_rate_must_be_positive(self, lam):
        params = dict(self.PARAMS, lam=lam)
        with pytest.raises(ConfigError, match="lam"):
            SystemSpec("meanfield3d", x0=(0.1, 0.0, 0.0), params=params)


class TestLogisticEnsemble:
    def test_collects_requested_transitions_per_mu(self):
        with pytest.warns(UserWarning):
            ds = logistic_ensemble([3.9, 3.95], n_steps=400, eta=0.025, seed=1)
        pairs = sum(max(sl.stop - sl.start - 1, 0) for sl in ds.segment_slices())
        assert pairs == 2 * 400

    def test_escapes_warn_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = logistic_ensemble([3.9, 3.95], n_steps=400, eta=0.025, seed=1)
        assert [str(w.message) for w in caught] == [
            "logistic iterates escaped [-0.5, 1.5]: 17 truncated runs restarted "
            "(8 at mu=3.9, 9 at mu=3.95)"]
        # the same runs as restarting iterate_map by hand, one warning per escape
        runs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i, mu in enumerate([3.9, 3.95]):
                collected, attempt = 0, 0
                while collected < 400:
                    run = iterate_map(mu, 400 - collected, eta=0.025, seed=1 + 1000 * i + attempt)
                    runs.append(run)
                    collected += run.n_samples - 1
                    attempt += 1
        assert len(caught) == 17
        ref = concatenate(runs)
        assert ds.states.tobytes() == ref.states.tobytes()
        assert ds.times.tobytes() == ref.times.tobytes()
        assert ds.segments == ref.segments

    def test_each_run_goes_through_iterate_map(self, monkeypatch):
        # the benchmark times the map by wrapping systems.iterate_map
        import sindykit.systems as systems
        calls = []
        real = systems.iterate_map

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(systems, "iterate_map", counting)
        with pytest.warns(UserWarning, match="17 truncated runs"):
            ds = logistic_ensemble([3.9, 3.95], n_steps=400, eta=0.025, seed=1)
        assert len(calls) == len(list(ds.segment_slices())) == 19

    def test_stalls_when_no_run_keeps_a_step(self, monkeypatch):
        # forcing this strong throws every run out of [-0.5, 1.5] at its first step
        import sindykit.systems as systems
        calls = []
        real = systems.iterate_map

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(systems, "iterate_map", counting)
        with pytest.raises(NumericalError, match=r"^logistic ensemble stalled at mu=4\.0$"):
            logistic_ensemble([4.0], n_steps=5, eta=100.0)
        assert len(calls) == 10 * 5 + 1

    def test_deterministic(self):
        a = logistic_ensemble([2.5, 3.0], 200, 0.01, seed=3)
        b = logistic_ensemble([2.5, 3.0], 200, 0.01, seed=3)
        assert np.array_equal(a.states, b.states)
