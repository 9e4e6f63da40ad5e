"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Both integrators sample the solution on a caller-supplied time grid.  The
adaptive method picks its own internal steps (never past the end time),
controls the embedded 4th/5th-order error estimate, and fills the grid by
cubic Hermite interpolation over each accepted step; accepted step sizes
can be recorded for step-size colouring output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

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
    bit for bit.  Each step is written into the returned array.
    """
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


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


# Step-attempt budget of dp45_adaptive.  Accurate runs in the shipped
# configs and tests try at most ~6 steps per output sample (Lorenz at
# tolerance 1e-10 on a 0.01 grid: 2.7), so this leaves tenfold headroom.
STEP_ATTEMPTS_PER_SAMPLE = 50
STEP_ATTEMPTS_BASE = 10_000


def _hermite(y0, f0, y1, f1, h, theta):
    t2, t3 = theta * theta, theta**3
    return (
        (2 * t3 - 3 * t2 + 1) * y0
        + (t3 - 2 * t2 + theta) * h * f0
        + (-2 * t3 + 3 * t2) * y1
        + (t3 - t2) * h * f1
    )


def dp45_adaptive(
    f,
    x0: np.ndarray,
    times: np.ndarray,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    record_steps: bool = False,
):
    """Adaptive Dormand-Prince 5(4) sampled on ``times``.

    Returns (states, accepted step sizes or None).  Raises
    :class:`NumericalError` naming the time of failure if the step size
    underflows, or once the run has tried ``STEP_ATTEMPTS_PER_SAMPLE``
    steps per entry of ``times`` plus ``STEP_ATTEMPTS_BASE``: a stiff or
    runaway right-hand side would otherwise crawl on at tiny steps.
    """
    t0, t_end = float(times[0]), float(times[-1])
    y = np.asarray(x0, dtype=float)
    n = y.shape[0]
    out = np.empty((len(times), n))
    out[0] = y
    next_sample = 1
    steps: list[float] = []

    k = np.empty((7, n))
    k[0] = f(y)

    scale0 = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale0) ** 2))
    d1 = np.sqrt(np.mean((k[0] / scale0) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-15 else 1e-6
    h = min(h, (t_end - t0) / 10.0) if t_end > t0 else h
    h = max(h, 1e-12)

    t = t0
    tiny = 16 * np.finfo(float).eps
    budget = STEP_ATTEMPTS_PER_SAMPLE * len(times) + STEP_ATTEMPTS_BASE
    attempts = 0
    while t < t_end and next_sample < len(times):
        if t_end - t <= tiny * max(1.0, abs(t_end)):
            break  # within rounding of the end point
        if h < tiny * max(1.0, abs(t)):
            raise NumericalError(f"adaptive step size underflow at t={t:.6g}")
        if attempts == budget:
            raise NumericalError(f"adaptive integration gave up at t={t:.6g} "
                                 f"after {budget} step attempts")
        attempts += 1
        h = min(h, t_end - t)
        for i in range(1, 7):
            k[i] = f(y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B5 @ k)
        err_vec = h * ((_B5 - _B4) @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec / scale) ** 2))
        if err <= 1.0:
            f_new = k[6]  # FSAL: stage 7 is f(t+h, y_new)
            while next_sample < len(times) and times[next_sample] <= t + h + 1e-14 * max(1.0, abs(t)):
                theta = (times[next_sample] - t) / h
                out[next_sample] = _hermite(y, k[0], y_new, f_new, h, min(max(theta, 0.0), 1.0))
                next_sample += 1
            t += h
            y = y_new
            k[0] = f_new
            steps.append(h)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h *= factor
    while next_sample < len(times):
        out[next_sample] = y  # grid points within rounding of t_end
        next_sample += 1
    return out, (np.array(steps) if record_steps else None)
