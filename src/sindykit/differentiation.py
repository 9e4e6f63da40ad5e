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

Signals of one length and step are solved as the columns of one array:
a wide batch runs the banded solve one numpy row of all columns per
index, with the operations of the one-column float loop in its order,
and each column stops on its own, so every column gets the bits it would
get alone.  ``differentiate_dataset`` gathers the segments of a list of
runs into such batches.

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
    # trapezoidal cumulative integral down each column, anchored at zero
    out = np.empty_like(u)
    out[0] = 0.0
    np.cumsum(0.5 * (u[:-1] + u[1:]), axis=0, out=out[1:])
    out[1:] *= dt
    return out


def _b_transpose(v: np.ndarray) -> np.ndarray:
    """Bᵀv for the B of ``_tv_step``: (Bs)₀ = 0, (Bs)ᵢ = (sᵢ + sᵢ₋₁)/2."""
    out = np.empty_like(v)
    out[0] = 0.5 * v[1]
    out[1:-1] = 0.5 * (v[1:-1] + v[2:])
    out[-1] = 0.5 * v[-1]
    return out


# From this many columns on, ``_penta_solve`` steps one numpy row of all
# columns per index instead of a float loop per column.  At n = 1251 a
# row took 8-11 µs whatever the width and the float loop 0.45-0.55 µs per
# index and column; the row path was 1.1x the float loop's time at 20
# columns and 0.8x at 24.
_ROW_PATH_MIN = 22


def _penta_solve(diag: np.ndarray, off1: np.ndarray, off2: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Solve S x = y for the SPD pentadiagonal S with these diagonals.

    ``diag`` has length n, ``off1`` (entries (j, j+1)) n-1 and ``off2``
    (entries (j, j+2)) n-2.  LDLᵀ without pivoting: one loop factors and
    substitutes forward, a second substitutes back.  Given (n, k) arrays
    it solves k systems, one per column; wide batches take
    ``_penta_rows``, which gives each column the float loop's bits and
    overwrites the diagonals.
    """
    if y.ndim == 2:
        if y.shape[1] >= _ROW_PATH_MIN:
            return _penta_rows(diag, off1, off2, y)
        return np.column_stack([_penta_solve(diag[:, c], off1[:, c], off2[:, c], y[:, c])
                                for c in range(y.shape[1])])
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


def _penta_rows(diag: np.ndarray, off1: np.ndarray, off2: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """``_penta_solve``'s float loop on k columns at once, one row of k values per index.

    Every line of the loop becomes the same operations, in the same
    order, on rows, so each column of the (n, k) result has the bits the
    float loop gives that column.  The factor overwrites the diagonals:
    row j of ``diag`` becomes d[j], of ``off1`` L[j+1, j], of ``off2``
    L[j+2, j].  v[j]/d[j] is formed after the loop, for all j at once,
    and the back substitution overwrites it with the solution.
    """
    n, k = y.shape
    zero = np.zeros(k)
    pad = np.zeros((3, k))  # off1 and off2 past their ends, as the float loop pads them
    sub1, sub2 = [*off1, pad[0]], [*off2, pad[1], pad[2]]  # read at j, then overwritten
    x = np.empty((n, k))  # v[j]; then v[j]/d[j]; then the solution
    t = np.empty(k)
    d1 = d2 = l1 = l2 = l2_next = b1 = b2 = zero
    for dj, l1_next, l2_next2, yj, c in zip(diag, sub1, sub2, y, x):
        # dj = s0 - l1 * l1 * d1 - l2 * l2 * d2, in place of s0
        np.multiply(l1, l1, out=t)
        t *= d1
        dj -= t
        np.multiply(l2, l2, out=t)
        t *= d2
        dj -= t
        # c = yj - l1 * b1 - l2 * b2
        np.multiply(l1, b1, out=t)
        np.subtract(yj, t, out=c)
        np.multiply(l2, b2, out=t)
        c -= t
        # l1_next = (s1 - l2_next * l1 * d1) / dj, in place of s1
        np.multiply(l2_next, l1, out=t)
        t *= d1
        l1_next -= t
        l1_next /= dj
        l2_next2 /= dj  # s2 / dj, in place of s2
        d2, d1 = d1, dj
        l1, l2, l2_next = l1_next, l2_next, l2_next2
        b2, b1 = b1, c
    x *= np.divide(1.0, diag, out=diag)
    b2 = b1 = zero  # x[j+2], x[j+1]
    for c, l1, l2 in zip(x[::-1], sub1[::-1], sub2[::-1]):
        # c = vdj - l1 * b1 - l2 * b2
        np.multiply(l1, b1, out=t)
        c -= t
        np.multiply(l2, b2, out=t)
        c -= t
        b2, b1 = b1, c
    return x


def _tv_diagonals(w: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonals of BᵀB + GᵀWG, the matrix of ``_tv_step``, for the m-1 weights ``w``."""
    m = w.shape[0] + 1
    a = np.zeros((m + 2,) + w.shape[1:])  # a[i + 1] = w[i] / dt², zero outside 0 <= i <= m-2
    np.divide(w, dt * dt, out=a[1:m])
    # GᵀWG as if every row were (1, -2, 1), then row 0's (-3, 1) in place
    # of (-2, 1); BᵀB adds ½ on the diagonal (¼ at both ends), ¼ beside it
    diag = a[:-2] + 4.0 * a[1:-1] + a[2:] + 0.5
    diag[[0, -1]] -= 0.25
    diag[0] += 5.0 * a[1]
    off1 = 0.25 - 2.0 * (a[1:m] + a[2:m + 1])
    off1[0] -= a[1]
    return diag, off1, a[2:m]


def _tv_step(w: np.ndarray, rhs: np.ndarray, dt: float) -> np.ndarray:
    """Solve one lagged-diffusivity step (AᵀA + DᵀWD) u = Aᵀr exactly.

    ``w`` holds the m-1 weights and ``rhs`` is Bᵀr (``_b_transpose``);
    given (m-1, k) and (m, k) arrays, each column is its own step.
    In s = Aᵣu - (dt/2)·u₀, Aᵣ = dt·tril(1) the rectangle rule, so that
    s₀ = dt·u₀/2 and sᵢ = sᵢ₋₁ + dt·uᵢ, the trapezoid integral is Au = Bs
    and Du = Gs: row 0 of G is (-3, 1)/dt, every other row (1, -2, 1)/dt.
    The step (BᵀB + GᵀWG) s = Bᵀr is pentadiagonal SPD, solved by one
    banded LDLᵀ.  Returns u = diff(s, prepend=-s₀)/dt.
    """
    s = _penta_solve(*_tv_diagonals(w, dt), rhs)
    return np.diff(s, axis=0, prepend=-s[:1]) / dt


def _objectives(u: np.ndarray, fhat: np.ndarray, alpha: float, eps: float,
                dt: float) -> np.ndarray:
    """The smoothed objective of each column of u.

    Each column's sum and dot product run over one contiguous row, so a
    column gets the bits it would get on its own.
    """
    tv = np.ascontiguousarray(np.sqrt(np.diff(u, axis=0) ** 2 + eps).T).sum(axis=1)
    res = np.ascontiguousarray((_integrate_op(u, dt) - fhat).T)
    return alpha * tv + 0.5 * np.array([r @ r for r in res])


def tv_derivative(samples: np.ndarray, cfg: TvDiffConfig, full_output: bool = False):
    """Total-variation regularized derivative of uniformly sampled data.

    ``samples`` is one signal of shape (m,) or k signals as the columns
    of an (m, k) array, all on the step ``cfg.dt``; each column is solved
    and stops on its own, bit for bit as it would alone.  Returns the
    derivative estimate (the shape of ``samples``); with
    ``full_output=True`` also the objective value after every accepted
    outer iteration, which is non-increasing: one array, or a list of one
    per column.  Raises ``DataError`` on fewer than five or on non-finite
    samples.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim not in (1, 2):
        raise DataError("tv_derivative takes samples of shape (m,) or (m, k)")
    F = f[:, None] if f.ndim == 1 else f
    m, k = F.shape
    if m < 5:
        raise DataError("tv_derivative needs at least five samples")
    bad = ~np.isfinite(F)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        where = f" of column {col}" if f.ndim == 2 else ""
        raise DataError(f"non-finite sample at row {row}{where}")
    dt, alpha, eps = cfg.dt, cfg.alpha, cfg.epsilon
    fhat = F - F[0]
    rhs = _b_transpose(fhat)

    result = None  # allocated once a column stops before the others
    cols = np.arange(k)  # the columns still iterating
    u = np.gradient(F, dt, axis=0)
    last = _objectives(u, fhat, alpha, eps, dt)
    objectives = [[v] for v in last.tolist()]
    for _ in range(cfg.iterations):
        if not cols.size:
            break
        u_new = _tv_step(alpha / np.sqrt(np.diff(u, axis=0) ** 2 + eps), rhs, dt)
        val = _objectives(u_new, fhat, alpha, eps, dt)
        stall = val > last  # numerical stall; keep the previous iterate
        u_new[:, stall] = u[:, stall]
        for c, v in zip(cols[~stall].tolist(), val[~stall].tolist()):
            objectives[c].append(v)
        done = stall | (last - val <= 1e-14 * np.fmax(1.0, last))
        u, last = u_new, val
        if done.any():
            if result is None:
                result = np.empty_like(F)
            result[:, cols[done]] = u[:, done]
            keep = ~done
            cols, u, rhs, fhat, last = cols[keep], u[:, keep], rhs[:, keep], fhat[:, keep], last[keep]
    if result is None:
        result = u
    else:
        result[:, cols] = u
    if f.ndim == 1:
        result, objectives = result[:, 0], objectives[0]
    if full_output:
        return result, (np.array(objectives) if f.ndim == 1
                        else [np.array(o) for o in objectives])
    return result


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
    dataset: TimeSeriesDataset | list[TimeSeriesDataset],
    method: str = "central",
    tv: TvDiffConfig | None = None,
) -> TimeSeriesDataset | list[TimeSeriesDataset]:
    """Attach derivatives estimated from the sampled states.

    Takes one dataset and returns one, or a list of them (the runs of an
    ensemble) and returns a list.  Each trajectory segment is
    differentiated on its own.  ``method`` is "central" or "tv"; the TV path requires uniform
    sampling within each segment and takes its step size from the data.
    It solves every column of the segments that share a length and an
    exact step in one batched ``tv_derivative`` call.  Errors name the
    dataset row, and for several datasets also the run.
    """
    if method not in ("central", "tv"):
        raise ConfigError(f"unknown differentiation method {method!r}")
    if method == "tv" and tv is None:
        raise ConfigError("tv differentiation needs a TvDiffConfig")
    single = isinstance(dataset, TimeSeriesDataset)
    runs = [dataset] if single else list(dataset)
    derivs = [np.empty_like(ds.states) for ds in runs]
    groups: dict[tuple[int, float], list[tuple[int, slice]]] = {}  # (length, step) -> segments
    for i, ds in enumerate(runs):
        run = f"run {i}: " if len(runs) > 1 else ""
        for sl in ds.segment_slices():
            t, X = ds.times[sl], ds.states[sl]
            if method == "central":
                derivs[i][sl] = central_difference(t, X)
                continue
            if t.shape[0] < 5:
                raise DataError(f"{run}tv differentiation needs at least five samples per segment; "
                                f"the segment at rows {sl.start}..{sl.stop - 1} has {t.shape[0]}")
            steps = np.diff(t)
            if not np.allclose(steps, steps[0], rtol=1e-8, atol=0):
                raise DataError(f"{run}tv differentiation needs uniform sampling; resample upstream")
            bad = ~np.isfinite(X).all(axis=1)
            if bad.any():
                raise DataError(f"{run}non-finite sample at row {sl.start + int(np.argmax(bad))}")
            groups.setdefault((t.shape[0], float(steps[0])), []).append((i, sl))
    for (_, step), members in groups.items():
        u = tv_derivative(np.hstack([runs[i].states[sl] for i, sl in members]),
                          dataclasses.replace(tv, dt=step))
        col = 0
        for i, sl in members:
            n = runs[i].n_states
            derivs[i][sl] = u[:, col:col + n]
            col += n
    out = [ds.with_(derivatives=d, meta={**ds.meta, "differentiation": method})
           for ds, d in zip(runs, derivs)]
    return out[0] if single else out


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
