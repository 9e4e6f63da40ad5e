"""Fixed-step RK4 and adaptive Dormand-Prince 5(4) integration.

Both integrators sample the solution on a caller-supplied time grid.  The
adaptive method picks its own internal steps (never past the end time),
controls the embedded 4th/5th-order error estimate, and fills the grid by
cubic Hermite interpolation over each accepted step; with
``record_steps`` it also returns the accepted step sizes.

Each method runs a loop generated for the state count n, compiled at its
first use and cached: straight-line float code in which every state
component and stage slope is its own local, each stage is one tuple passed
to the right-hand side and each result is unpacked into locals.  For the
few states of these systems this costs a fraction of building a list per
stage, let alone the small numpy arrays an array step would build.  Only n
and the tableau's constants reach the generated source.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DataError, NumericalError
from .model import _compile

__all__ = ["rk4_fixed", "dp45_adaptive"]


def rk4_fixed(f, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Classic fourth-order Runge-Kutta, one step per grid interval.

    ``f`` takes the state as a length-n tuple and returns a length-n
    sequence (a tuple, a list or a 1-D array), and is called four times per
    step.  The step runs in the loop generated for n states, and each
    component is summed in the array form's order, ``x + (0.5*h)*k`` and
    ``x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the result is the same
    bit for bit.  Each step is written into the returned array.  ``times``
    and ``x0`` are checked as in :func:`dp45_adaptive`.
    """
    x, times = _check_grid(x0, times)
    out = np.empty((len(times), len(x)))
    out[0] = x
    _rk4_loop(len(x))(f, x, memoryview(np.diff(times)), memoryview(out.reshape(-1)))
    return out


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner).  Row s holds the
# weights of the slopes k1, k2, ... in stage s + 2; the last row is also the
# 5th-order solution B5, so stage 7 is f(t + h, y_new) and becomes the next
# step's first stage (FSAL).  _E = B5 - B4 weighs the embedded error
# estimate.  Zero weights drop out of the generated sums.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640,
      -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40)


# Rejected-step budget of dp45_adaptive, which no count of output samples
# changes.  A smooth run rejects few steps: the most in the shipped configs
# is compare's long-horizon Lorenz model, 221 of 41,174 over t = 0..250 at
# tolerance 1e-9, so this leaves tenfold headroom.  A stiff run rejects some
# 3 % of its steps at the stability limit, and a runaway one step after step.
MAX_REJECTED_STEPS = 2_500


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
    underflows, or once the run has rejected ``MAX_REJECTED_STEPS`` step
    attempts: a stiff or runaway right-hand side would otherwise crawl on
    at tiny steps.  The steps taken do not depend on the inner points of
    ``times``, only on its ends.

    ``f`` is called once on ``x0`` and then six times per step attempt, on
    the state as a length-n tuple, and returns a length-n sequence (a
    tuple, a list or a 1-D array).  The steps run in the loop generated for
    n states: the stages, the error norm and the Hermite fill are summed
    component by component on floats, so the result agrees with an array
    form of the same method to rounding.  A step whose error estimate is
    not finite is rejected, as is one whose stage raises ``ValueError`` (as
    a caller's own right-hand side may on an infinite state), so a run that
    blows up shrinks its step until the underflow check or the attempt
    budget ends it.  Step sizes are kept only when ``record_steps`` is set.
    """
    y, times = _check_grid(x0, times)
    out = np.empty((len(times), len(y)))
    out[0] = y
    steps = [] if record_steps else None
    _dp45_loop(len(y))(f, y, memoryview(times), out, abs_tol, rel_tol, MAX_REJECTED_STEPS, steps)
    return out, (np.array(steps) if record_steps else None)


def _each(n: int, template: str) -> str:
    """``template`` for each component i < n, as tuple items: ``"x0, x1,"``."""
    return ", ".join(template.format(i=i) for i in range(n)) + ","


def _call(n: int, result: str, state: str) -> str:
    """Source that calls ``f`` on the tuple of ``state`` and unpacks the result into
    ``result``, both templates over the component i."""
    return f"{_each(n, result)} = f(({_each(n, state)}))"


def _max(a: str, b: str) -> str:
    """Source for ``max(a, b)`` without the call: the builtin keeps ``a`` unless
    ``b > a``, so this conditional gives the same value, NaN included.  Inside
    the step loop a builtin call costs more than the arithmetic it guards."""
    return f"({b} if {b} > {a} else {a})"


def _min(a: str, b: str) -> str:
    """Source for ``min(a, b)`` without the call, as :func:`_max`."""
    return f"({b} if {b} < {a} else {a})"


def _weighted(weights) -> str:
    """Sum of ``weight * k{j}_{i}`` over the slopes j = 1, 2, ... with nonzero weight,
    left to right, as a template over the component i."""
    return " + ".join(f"{w!r} * k{j}_{{i}}" for j, w in enumerate(weights, 1) if w)


@functools.cache
def _rk4_loop(n: int):
    """RK4 for n states: ``loop(f, x, hs, flat)`` steps the floats ``x`` by each
    step size in ``hs`` and writes the state after step i into items
    ``n*i ... n*i + n-1`` of ``flat``, a flat view of the output rows: one
    float per item costs a fraction of a row assignment from a tuple.  ``hs``
    may be a memoryview of the step array, which yields each step as a float
    without a list of them all."""
    x = _each(n, "x{i}")
    return _compile("rk4", "f, x, hs, flat", [
        f"{x} = x",
        "row = 0",
        "for h in hs:",
        f"    row += {n}",
        "    half, sixth = 0.5 * h, h / 6.0",
        "    " + _call(n, "a{i}", "x{i}"),
        "    " + _call(n, "b{i}", "x{i} + half * a{i}"),
        "    " + _call(n, "c{i}", "x{i} + half * b{i}"),
        "    " + _call(n, "d{i}", "x{i} + h * c{i}"),
        f"    {x} = {_each(n, 'x{i} + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})')}",
        *(f"    flat[row + {i}] = x{i}" for i in range(n)),
    ], {})


@functools.cache
def _dp45_loop(n: int):
    """Dormand-Prince for n states: ``loop(f, y, grid, out, abs_tol, rel_tol,
    budget, steps)`` fills ``out[1:]`` on the times ``grid`` (a memoryview of the
    time array, which yields each time as a float without a list of them all) from
    the floats ``y``, appending each accepted step size to ``steps`` unless it is
    None, and gives up at the ``budget``-th rejected step."""
    y, z, k1, k7 = _each(n, "y{i}"), _each(n, "z{i}"), _each(n, "k1_{i}"), _each(n, "k7_{i}")
    squares = lambda q: " + ".join(f"{q}{i} * {q}{i}" for i in range(n))
    stages = ["        " + _call(n, f"k{s}_{{i}}", f"y{{i}} + h * ({_weighted(row)})")
              for s, row in enumerate(_A[:-1], 2)]
    error = (f"        e{{i}} = h * ({_weighted(_E)})"
             f" / (abs_tol + rel_tol * {_max('abs(y{i})', 'abs(z{i})')})")
    hermite = "w0 * y{i} + v0 * k1_{i} + w1 * z{i} + v1 * k7_{i}"
    return _compile("dp45", "f, y, grid, out, abs_tol, rel_tol, budget, steps", [
        "n_out = len(grid)",
        "t0, t_end = grid[0], grid[-1]",
        f"{y} = y",
        _call(n, "k1_{i}", "y{i}"),
        *(f"s{i} = abs_tol + rel_tol * abs(y{i})" for i in range(n)),
        *(f"p{i}, q{i} = y{i} / s{i}, k1_{i} / s{i}" for i in range(n)),
        f"d0, d1 = sqrt(({squares('p')}) / {n}), sqrt(({squares('q')}) / {n})",
        "h = 0.01 * d0 / d1 if d1 > 1e-15 else 1e-6",
        "h = min(h, (t_end - t0) / 10.0) if t_end > t0 else h",
        "h = max(h, 1e-12)",
        "t = t0",
        "tiny = TINY",
        "rejected = 0",
        "next_sample = 1",
        "end_tol = tiny * max(1.0, abs(t_end))",
        "while t < t_end and next_sample < n_out:",
        "    if t_end - t <= end_tol:",
        "        break  # within rounding of the end point",
        f"    if h < tiny * {_max('1.0', 'abs(t)')}:",
        "        raise NumericalError(f'adaptive step size underflow at t={t:.6g}')",
        f"    h = {_min('h', 't_end - t')}",
        "    try:",
        *stages,
        f"        {z} = {_each(n, f'y{{i}} + h * ({_weighted(_A[-1])})')}",
        "        " + _call(n, "k7_{i}", "z{i}"),
        "    except ValueError:  # a caller's right-hand side refusing an infinite stage",
        "        err = nan",
        "    else:",
        *(error.format(i=i) for i in range(n)),
        f"        err = sqrt(({squares('e')}) / {n})",
        "    if err <= 1.0:",
        "        while (next_sample < n_out",
        f"               and grid[next_sample] <= t + h + 1e-14 * {_max('1.0', 'abs(t)')}):",
        "            # cubic Hermite interpolation between (y, k1) and (z, k7)",
        "            theta = (grid[next_sample] - t) / h",
        f"            theta = {_max('theta', '0.0')}",
        f"            theta = {_min('theta', '1.0')}",
        "            t2 = theta * theta",
        "            t3 = t2 * theta",
        "            w0, w1 = 2 * t3 - 3 * t2 + 1, -2 * t3 + 3 * t2",
        "            v0, v1 = (t3 - 2 * t2 + theta) * h, (t3 - t2) * h",
        f"            out[next_sample] = ({_each(n, hermite)})",
        "            next_sample += 1",
        "        t += h",
        f"        {y} = {z}",
        f"        {k1} = {k7}",
        "        if steps is not None:",
        "            steps.append(h)",
        "        factor = 5.0 if err == 0.0 else 0.9 * err ** -0.2",
        "    else:",
        "        rejected += 1",
        "        if rejected == budget:",
        "            raise NumericalError(f'adaptive integration gave up at t={t:.6g} '",
        "                                 f'after {budget} rejected step attempts')",
        "        factor = 0.9 * err ** -0.2",
        f"    factor = {_max('0.2', 'factor')}  # shrink or grow at most fivefold",
        f"    h *= {_min('5.0', 'factor')}",
        f"out[next_sample:] = ({y})  # grid points within rounding of t_end",
    ], {"sqrt": math.sqrt, "nan": math.nan, "TINY": 16 * np.finfo(float).eps,
        "NumericalError": NumericalError})
