"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Both integrators sample the solution on a caller-supplied time grid.  The
adaptive method picks its own internal steps (never past the end time),
controls the embedded 4th/5th-order error estimate, and fills the grid by
cubic Hermite interpolation over each accepted step; accepted step sizes
can be recorded for step-size colouring output.

Both step the state as a list of Python floats and call the right-hand
side on it: for the few states of these systems, per-component float
arithmetic costs a fraction of the small numpy arrays an array step would
build per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError

__all__ = ["IntegratorConfig", "rk4_fixed", "dp45_adaptive"]


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    record_step_size: bool = False

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "rk45"):
            raise ConfigError(f"unknown integrator {self.method!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ConfigError("tolerances must be positive")


def rk4_fixed(f, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Classic fourth-order Runge-Kutta, one step per grid interval.

    ``f`` takes the state as a length-n sequence and returns a length-n
    sequence (floats, or a 1-D array).  The state is stepped as a list of
    Python floats, which costs a fraction of the small numpy arrays an
    array step would build per stage, and each component is summed in the
    array form's order, ``x + (0.5*h)*k`` and
    ``x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the result is the same
    bit for bit.  Each step is written into the returned array.  ``times``
    and ``x0`` are checked as in :func:`dp45_adaptive`.
    """
    x, times = _check_grid(x0, times)
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


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner).  Row i holds the
# weights A_ij of stage i; row 7 is also the 5th-order solution B5, so stage 7
# is f(t + h, y_new) and becomes the next step's first stage (FSAL).  E_j =
# B5_j - B4_j weighs the embedded error estimate; E2 = 0 drops out.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4 = 35 / 384 - 5179 / 57600, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640
_E5, _E6, _E7 = -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40


# Step-attempt budget of dp45_adaptive.  Accurate runs in the shipped
# configs and tests try at most ~6 steps per output sample (Lorenz at
# tolerance 1e-10 on a 0.01 grid: 2.7), so this leaves tenfold headroom.
STEP_ATTEMPTS_PER_SAMPLE = 50
STEP_ATTEMPTS_BASE = 10_000


def _check_grid(x0, times) -> tuple[list[float], np.ndarray]:
    x0, times = np.asarray(x0, dtype=float), np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DataError(f"times must be a non-empty 1-d grid, got shape {times.shape}")
    if x0.ndim != 1 or x0.size == 0:
        raise DataError(f"x0 must be a non-empty 1-d state, got shape {x0.shape}")
    for name, a in (("times", times), ("x0", x0)):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise DataError(f"{name}[{bad[0]}] = {a[bad[0]]} is not finite")
    bad = np.flatnonzero(np.diff(times) <= 0.0)
    if bad.size:
        i = bad[0] + 1
        raise DataError(f"times must be strictly increasing: times[{i}] = {times[i]:.17g} "
                        f"does not follow times[{i - 1}] = {times[i - 1]:.17g}")
    return x0.tolist(), times


def dp45_adaptive(
    f,
    x0: np.ndarray,
    times: np.ndarray,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    record_steps: bool = False,
):
    """Adaptive Dormand-Prince 5(4) sampled on ``times``.

    Returns (states, accepted step sizes or None).  ``times`` must be a
    finite, strictly increasing 1-d grid and ``x0`` finite, else
    :class:`DataError` names the first bad entry.  Raises
    :class:`NumericalError` naming the time of failure if the step size
    underflows, or once the run has tried ``STEP_ATTEMPTS_PER_SAMPLE``
    steps per entry of ``times`` plus ``STEP_ATTEMPTS_BASE``: a stiff or
    runaway right-hand side would otherwise crawl on at tiny steps.

    ``f`` is called once on ``x0`` and then six times per step attempt, on
    the state as a list of Python floats, and returns a length-n sequence.
    The stages, the error norm and the Hermite fill are summed component by
    component on floats, so the result agrees with an array form of the
    same method to rounding.  A step whose error estimate is not finite is
    rejected, as is one whose stage raises ``ValueError`` (``math.sin`` of
    an infinite state), so a run that blows up shrinks its step until the
    underflow check or the attempt budget ends it.
    """
    y, times = _check_grid(x0, times)
    grid = times.tolist()
    n_out = len(grid)
    t0, t_end = grid[0], grid[-1]
    n = len(y)
    out = np.empty((n_out, n))
    out[0] = y
    next_sample = 1
    steps: list[float] = []

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
    budget = STEP_ATTEMPTS_PER_SAMPLE * n_out + STEP_ATTEMPTS_BASE
    attempts = 0
    while t < t_end and next_sample < n_out:
        if t_end - t <= tiny * max(1.0, abs(t_end)):
            break  # within rounding of the end point
        if h < tiny * max(1.0, abs(t)):
            raise NumericalError(f"adaptive step size underflow at t={t:.6g}")
        if attempts == budget:
            raise NumericalError(f"adaptive integration gave up at t={t:.6g} "
                                 f"after {budget} step attempts")
        attempts += 1
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
        except ValueError:  # math.sin/math.cos of an infinite stage
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
                # cubic Hermite interpolation between (y, k1) and (y_new, k7)
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
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    out[next_sample:] = y  # grid points within rounding of t_end
    return out, (np.array(steps) if record_steps else None)
