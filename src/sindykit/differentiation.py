"""Derivative estimation and noise injection.

Central finite differences cover clean data.  For noisy samples the
total-variation regularized derivative is used: find u minimizing

    alpha * sum_i sqrt((u[i+1] - u[i])^2 + eps) + 0.5 * ||A u - (f - f[0])||^2

where A is trapezoidal cumulative integration on the uniform grid.  The
problem is solved by lagged-diffusivity fixed-point iterations (Vogel &
Oman 1996).  Each is a majorize-minimize step, so the smoothed objective
does not rise; a step that rounding makes rise is dropped and ends the
iteration.  Each step's linear system H u = Aᵀ(f - f[0]),
H = AᵀA + DᵀWD, is solved directly: in the shifted integral
s = Aᵣu - (dt/2) u[0] (Aᵣ the rectangle rule) it is pentadiagonal SPD,
so one banded LDLᵀ solve gives the exact step.

Noise is injected as eta * Z with Z a seeded matrix of i.i.d. standard
normal entries, i.e. eta is a standard-deviation multiplier.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import TimeSeriesDataset

__all__ = [
    "TvDiffConfig",
    "NoiseSpec",
    "central_difference",
    "tv_derivative",
    "add_noise",
    "differentiate_dataset",
    "hard_threshold_svd",
]


@dataclass(frozen=True)
class TvDiffConfig:
    alpha: float
    dt: float
    iterations: int = 100
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    eta: float
    target: str = "derivatives"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.eta < math.inf:
            raise ConfigError("eta must be nonnegative and finite")
        if self.target not in ("derivatives", "states", "both"):
            raise ConfigError(f"unknown noise target {self.target!r}")


def central_difference(times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a strictly increasing grid.

    Interior rows use the symmetric 3-point stencil, endpoints one-sided
    3-point stencils (``np.gradient`` with ``edge_order=2``); exact for
    polynomials up to degree two on uniform grids and for affine signals
    on any grid.
    """
    t = np.asarray(times, dtype=float)
    X = np.asarray(states, dtype=float)
    if X.ndim == 1:
        return central_difference(t, X.reshape(-1, 1)).ravel()
    m = t.shape[0]
    if m < 3:
        raise DataError("central differences need at least three samples")
    if X.shape[0] != m:
        raise DataError("times and states must have matching length")
    if not np.isfinite(t).all():
        raise DataError("times must be finite")
    if not np.all(np.diff(t) > 0):
        raise DataError("times must be strictly increasing")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite state entries at row {int(np.argmax(bad))}")

    return np.gradient(X, t, axis=0, edge_order=2)


def _integrate_op(u: np.ndarray, dt: float) -> np.ndarray:
    # trapezoidal cumulative integral, anchored at zero
    out = np.empty_like(u)
    out[0] = 0.0
    np.cumsum(0.5 * (u[:-1] + u[1:]), out=out[1:])
    out[1:] *= dt
    return out


def _b_transpose(v: np.ndarray) -> np.ndarray:
    """Bᵀv for the B of ``_tv_step``: (Bs)₀ = 0, (Bs)ᵢ = (sᵢ + sᵢ₋₁)/2."""
    out = np.empty_like(v)
    out[0] = 0.5 * v[1]
    out[1:-1] = 0.5 * (v[1:-1] + v[2:])
    out[-1] = 0.5 * v[-1]
    return out


def _penta_solve(diag: np.ndarray, off1: np.ndarray, off2: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Solve S x = y for the SPD pentadiagonal S with these diagonals.

    ``diag`` has length n, ``off1`` (entries (j, j+1)) n-1 and ``off2``
    (entries (j, j+2)) n-2.  LDLᵀ without pivoting: one loop factors and
    substitutes forward, a second substitutes back.
    """
    vd, sub1, sub2 = [], [], []  # v[j]/d[j], L[j+1, j], L[j+2, j]
    d1 = d2 = 0.0  # d[j-1], d[j-2]
    l1 = l2 = l2_next = 0.0  # L[j, j-1], L[j, j-2], L[j+1, j-1]
    b1 = b2 = 0.0  # v[j-1], v[j-2]
    for s0, s1, s2, yj in zip(diag.tolist(), off1.tolist() + [0.0],
                              off2.tolist() + [0.0, 0.0], y.tolist()):
        dj = s0 - l1 * l1 * d1 - l2 * l2 * d2
        c = yj - l1 * b1 - l2 * b2
        l1_next = (s1 - l2_next * l1 * d1) / dj
        l2_next2 = s2 / dj
        vd.append(c * (1.0 / dj))
        sub1.append(l1_next)
        sub2.append(l2_next2)
        d2, d1 = d1, dj
        l1, l2, l2_next = l1_next, l2_next, l2_next2
        b2, b1 = b1, c
    x = []
    b2 = b1 = 0.0  # x[j+2], x[j+1]
    for vdj, l1, l2 in zip(reversed(vd), reversed(sub1), reversed(sub2)):
        c = vdj - l1 * b1 - l2 * b2
        x.append(c)
        b2, b1 = b1, c
    x.reverse()
    return np.array(x)


def _tv_step(w: np.ndarray, rhs: np.ndarray, dt: float) -> np.ndarray:
    """Solve one lagged-diffusivity step (AᵀA + DᵀWD) u = Aᵀr exactly.

    ``w`` holds the m-1 weights and ``rhs`` is Bᵀr (``_b_transpose``).
    In s = Aᵣu - (dt/2)·u₀, Aᵣ = dt·tril(1) the rectangle rule, so that
    s₀ = dt·u₀/2 and sᵢ = sᵢ₋₁ + dt·uᵢ, the trapezoid integral is Au = Bs
    and Du = Gs: row 0 of G is (-3, 1)/dt, every other row (1, -2, 1)/dt.
    The step (BᵀB + GᵀWG) s = Bᵀr is pentadiagonal SPD, solved by one
    banded LDLᵀ.  Returns u = diff(s, prepend=-s₀)/dt.
    """
    m = rhs.shape[0]
    a = np.zeros(m + 2)  # a[i + 1] = w[i] / dt², zero outside 0 <= i <= m-2
    a[1:m] = w / (dt * dt)
    # GᵀWG as if every row were (1, -2, 1), then row 0's (-3, 1) in place
    # of (-2, 1); BᵀB adds ½ on the diagonal (¼ at both ends), ¼ beside it
    diag = a[:-2] + 4.0 * a[1:-1] + a[2:] + 0.5
    diag[[0, -1]] -= 0.25
    diag[0] += 5.0 * a[1]
    off1 = 0.25 - 2.0 * (a[1:m] + a[2:m + 1])
    off1[0] -= a[1]
    s = _penta_solve(diag, off1, a[2:m], rhs)
    return np.diff(s, prepend=-s[0]) / dt


def tv_derivative(samples: np.ndarray, cfg: TvDiffConfig, full_output: bool = False):
    """Total-variation regularized derivative of uniformly sampled data.

    Returns the derivative estimate (same length as ``samples``); with
    ``full_output=True`` also returns the objective value after every
    accepted outer iteration, which is non-increasing.  Raises
    ``DataError`` on fewer than five or on non-finite samples.
    """
    f = np.asarray(samples, dtype=float).ravel()
    m = f.shape[0]
    if m < 5:
        raise DataError("tv_derivative needs at least five samples")
    bad = ~np.isfinite(f)
    if bad.any():
        raise DataError(f"non-finite sample at row {int(np.argmax(bad))}")
    dt, alpha, eps = cfg.dt, cfg.alpha, cfg.epsilon
    fhat = f - f[0]
    rhs = _b_transpose(fhat)

    def objective(u: np.ndarray) -> float:
        tv = np.sum(np.sqrt(np.diff(u) ** 2 + eps))
        res = _integrate_op(u, dt) - fhat
        return alpha * tv + 0.5 * float(res @ res)

    u = np.gradient(f, dt)
    objectives = [objective(u)]
    for _ in range(cfg.iterations):
        u_new = _tv_step(alpha / np.sqrt(np.diff(u) ** 2 + eps), rhs, dt)
        val = objective(u_new)
        if val > objectives[-1]:
            break  # numerical stall; keep the previous iterate
        u = u_new
        objectives.append(val)
        if objectives[-2] - objectives[-1] <= 1e-14 * max(1.0, objectives[-2]):
            break
    if full_output:
        return u, np.array(objectives)
    return u


def add_noise(dataset: TimeSeriesDataset, spec: NoiseSpec) -> TimeSeriesDataset:
    """Add eta * Z (seeded standard normal Z) to the selected matrices.

    The perturbation scales linearly in eta under a fixed seed: eta=2
    adds exactly twice the eta=1 matrix.  State noise is drawn before
    derivative noise when both targets are selected.  With eta=0 the
    dataset is returned unchanged.
    """
    if spec.eta == 0.0:
        return dataset
    if spec.target in ("derivatives", "both") and dataset.derivatives is None:
        raise DataError("dataset has no derivatives to perturb")
    rng = np.random.default_rng(spec.seed)
    states = dataset.states
    derivatives = dataset.derivatives
    if spec.target in ("states", "both"):
        states = states + spec.eta * rng.standard_normal(states.shape)
    if spec.target in ("derivatives", "both"):
        derivatives = derivatives + spec.eta * rng.standard_normal(derivatives.shape)
    meta = dict(dataset.meta)
    meta.update({"noise_eta": spec.eta, "noise_seed": spec.seed, "noise_target": spec.target})
    return dataset.with_(states=states, derivatives=derivatives, meta=meta)


def differentiate_dataset(
    dataset: TimeSeriesDataset,
    method: str = "central",
    tv: TvDiffConfig | None = None,
) -> TimeSeriesDataset:
    """Attach derivatives estimated from the sampled states.

    Runs per trajectory segment and per state column.  ``method`` is
    "central" or "tv"; the TV path requires uniform sampling within each
    segment and takes its step size from the data.
    """
    if method not in ("central", "tv"):
        raise ConfigError(f"unknown differentiation method {method!r}")
    if method == "tv" and tv is None:
        raise ConfigError("tv differentiation needs a TvDiffConfig")
    deriv = np.empty_like(dataset.states)
    for sl in dataset.segment_slices():
        t = dataset.times[sl]
        X = dataset.states[sl]
        if method == "central":
            deriv[sl] = central_difference(t, X)
            continue
        if t.shape[0] < 5:
            raise DataError(f"tv differentiation needs at least five samples per segment; "
                            f"the segment at rows {sl.start}..{sl.stop - 1} has {t.shape[0]}")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=1e-8, atol=0):
            raise DataError("tv differentiation needs uniform sampling; resample upstream")
        cfg = dataclasses.replace(tv, dt=float(steps[0]))
        for j in range(X.shape[1]):
            deriv[sl, j] = tv_derivative(X[:, j], cfg)
    meta = dict(dataset.meta)
    meta["differentiation"] = method
    return dataset.with_(derivatives=deriv, meta=meta)


def hard_threshold_svd(states: np.ndarray) -> np.ndarray:
    """Optional SVD denoising of the state matrix (off by default).

    Zeroes singular values below the optimal-hard-threshold rule for an
    m x n matrix with unknown noise level, using the standard polynomial
    approximation omega(beta) ~ 0.56 b^3 - 0.95 b^2 + 1.82 b + 1.43 times
    the median singular value.  Not exercised by the acceptance suite.
    """
    X = np.asarray(states, dtype=float)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    beta = min(X.shape) / max(X.shape)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    cutoff = omega * np.median(s)
    s = np.where(s >= cutoff, s, 0.0)
    return (U * s) @ Vt
