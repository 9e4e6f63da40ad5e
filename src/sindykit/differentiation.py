"""Derivative estimation and noise injection.

``differentiate_dataset`` estimates a dataset's derivatives from its noisy
states by the total-variation regularized derivative: find u minimizing

    alpha * sum_i sqrt((u[i+1] - u[i])^2 + eps) + 0.5 * ||A u - (f - f[0])||^2

where A is trapezoidal cumulative integration on the uniform grid and
eps is ``EPSILON``, which keeps the objective smooth where u is flat.  The
problem is solved by lagged-diffusivity fixed-point iterations (Vogel &
Oman 1996).  Each is a majorize-minimize step, so the smoothed objective
does not rise; a step that rounding makes rise is dropped and ends the
iteration.  Each step's linear system H u = Aᵀ(f - f[0]),
H = AᵀA + DᵀWD, is solved directly: in the shifted integral
s = Aᵣu - (dt/2) u[0] (Aᵣ the rectangle rule) it is pentadiagonal SPD,
so one banded solve gives the exact step.

Signals of one length and step are solved as the columns of one array.
The banded solve is odd-even block cyclic reduction: about log₂ m levels
of whole-array operations, each elementwise across the columns, for any
number of columns.  With each column stopping on its own, every column
gets the bits it would get alone.  ``differentiate_dataset`` gathers the
segments of a dataset into such batches.

Noise is injected as eta * Z with Z a matrix of i.i.d. standard normal
entries seeded per segment, i.e. eta is a standard-deviation multiplier.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .model import TimeSeriesDataset, _frozen

__all__ = [
    "TvDiffConfig",
    "NoiseSpec",
    "central_difference",
    "tv_derivative",
    "add_noise",
    "differentiate_dataset",
]

EPSILON = 1e-8


@dataclass(frozen=True)
class TvDiffConfig:
    alpha: float
    iterations: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be positive and finite")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")


@dataclass(frozen=True)
class NoiseSpec:
    eta: float
    target: str = "derivatives"
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.eta < math.inf:
            raise ConfigError("eta must be nonnegative and finite")
        if self.target not in ("derivatives", "states"):
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


def _penta_solve(diag: np.ndarray, off1: np.ndarray, off2: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Solve S x = y for the SPD pentadiagonal S with these diagonals.

    For n = len(y), the diagonals have the even length n + n % 2, as
    ``_tv_diagonals`` builds them: ``diag`` (entries (j, j)), ``off1``
    ((j, j+1)) and ``off2`` ((j, j+2)), with an identity row bordering
    an odd n and the entries past the matrix ignored.  Given (n, k)
    arrays it solves k systems, one per column.  The diagonals are
    overwritten with the factor; y is copied once and kept.

    Odd-even block cyclic reduction (Heller 1976): rows 2i and 2i+1 form
    block i, so S is block tridiagonal with SPD 2x2 blocks Aᵢ and the
    couplings Cᵢ of block i to block i+1.  Each level factors the odd
    blocks j, A = LLᵀ, over A and forms w = L⁻¹v over v, P = Cⱼ₋₁L⁻ᵀ over
    Cⱼ₋₁ and Qᵀ = L⁻¹Cⱼ over Cⱼ.  The even blocks are left as a block
    tridiagonal system of half the size: A -= PPᵀ or QQᵀ, v -= Pw or Qw,
    coupled by -PQᵀ.  Back substitution gives x = L⁻ᵀ(w - Pᵀxⱼ₋₁ - Qᵀxⱼ₊₁).
    Every operation is elementwise across columns, so each column gets
    the bits it gets alone.  Each level first reorders the rows of its
    arrays in place as [even blocks | odd blocks] (``_split``), so that
    every operation reads and writes contiguous rows, and back
    substitution restores the order of x (``_merge``).  Raises
    ``NumericalError`` naming the row (and column) of a non-positive or
    non-finite pivot.
    """
    n = y.shape[0]
    x = np.zeros(diag.shape)  # v; then w at the odd blocks of each level; then x
    x[:n] = y
    nb = diag.shape[0] // 2
    for a in (diag, off1, off2, x):  # rows 2i, then rows 2i + 1
        _split(a)
    a00, a10, a11, v0, v1 = diag[:nb], off1[:nb], diag[nb:], x[:nb], x[nb:]
    # the couplings (c00, c01, c10, c11): c_rs[i] = S[2i + r, 2i + 2 + s]
    C = (off2[:nb - 1], np.zeros(a00[1:].shape), off1[nb:-1], off2[nb:-1])
    step = 2  # rows per block of the current level
    levels = []
    while nb > 1:
        # ne even blocks; the first ne - 1 odd blocks have an even block on either side
        ne = (nb + 1) // 2
        for a in (a00, a10, a11, v0, v1, *C):
            _split(a)
        l00, l10, l11, w0, w1 = (a[ne:] for a in (a00, a10, a11, v0, v1))
        _cholesky(l00, l10, l11, step, 2 * step)
        _forward(l00, l10, l11, w0, w1)
        # P over the couplings from even to odd blocks, Qᵀ over those from odd to even
        no = w0.shape[0]
        p00, p01, p10, p11 = P = tuple(c[:no] for c in C)
        _forward(l00, l10, l11, p00, p01)
        _forward(l00, l10, l11, p10, p11)
        r00, r01, r10, r11 = R = tuple(c[no:] for c in C)
        lr = l00[:ne - 1], l10[:ne - 1], l11[:ne - 1]
        _forward(*lr, r00, r10)
        _forward(*lr, r01, r11)
        levels.append((l00, l10, l11, w0, w1, P, R, v0, v1))
        a00, a10, a11, v0, v1 = (a[:ne] for a in (a00, a10, a11, v0, v1))
        a00[:no] -= p00 * p00 + p01 * p01
        a10[:no] -= p10 * p00 + p11 * p01
        a11[:no] -= p10 * p10 + p11 * p11
        v0[:no] -= p00 * w0 + p01 * w1
        v1[:no] -= p10 * w0 + p11 * w1
        wr0, wr1 = w0[:ne - 1], w1[:ne - 1]
        a00[1:] -= r00 * r00 + r10 * r10
        a10[1:] -= r01 * r00 + r11 * r10
        a11[1:] -= r01 * r01 + r11 * r11
        v0[1:] -= r00 * wr0 + r10 * wr1
        v1[1:] -= r01 * wr0 + r11 * wr1
        p00, p01, p10, p11 = (p[:ne - 1] for p in P)  # the couplings -PQᵀ of the new level
        C = (-(p00 * r00 + p01 * r10), -(p00 * r01 + p01 * r11),
             -(p10 * r00 + p11 * r10), -(p10 * r01 + p11 * r11))
        step *= 2
        nb = ne
    _cholesky(a00, a10, a11, 0, step)
    _forward(a00, a10, a11, v0, v1)
    _backward(a00, a10, a11, v0, v1)
    while levels:  # each level's couplings are freed once it is substituted
        l00, l10, l11, w0, w1, (p00, p01, p10, p11), (r00, r01, r10, r11), v0, v1 = levels.pop()
        no, nr = w0.shape[0], r00.shape[0]
        x0, x1 = v0[:-no], v1[:-no]
        w0 -= p00 * x0[:no] + p10 * x1[:no]
        w1 -= p01 * x0[:no] + p11 * x1[:no]
        w0[:nr] -= r00 * x0[1:] + r01 * x1[1:]
        w1[:nr] -= r10 * x0[1:] + r11 * x1[1:]
        _backward(l00, l10, l11, w0, w1)
        _merge(v0)
        _merge(v1)
    _merge(x)
    return x[:n]


def _split(a: np.ndarray) -> None:
    """Reorder the rows of ``a`` in place as [even rows | odd rows]."""
    ne = (a.shape[0] + 1) // 2
    odd = a[1::2].copy()
    a[:ne] = a[0::2]  # row i from row 2i >= i: numpy copies through a buffer where needed
    a[ne:] = odd


def _merge(a: np.ndarray) -> None:
    """Undo ``_split``: rows [even | odd] of ``a`` back to their order."""
    ne = (a.shape[0] + 1) // 2
    even, odd = a[:ne].copy(), a[ne:].copy()
    a[0::2] = even
    a[1::2] = odd


def _cholesky(a00: np.ndarray, a10: np.ndarray, a11: np.ndarray, row: int, step: int) -> None:
    """Factor the blocks [[a00, a10], [a10, a11]] = LLᵀ in place; block t is at row + step·t."""
    _check_pivot(a00, row, step)
    np.sqrt(a00, out=a00)
    a10 /= a00
    a11 -= a10 * a10
    _check_pivot(a11, row + 1, step)
    np.sqrt(a11, out=a11)


def _check_pivot(p: np.ndarray, row: int, step: int) -> None:
    """Raise ``NumericalError`` unless every pivot is positive and finite."""
    if p.min() > 0.0 and p.max() < math.inf:  # a NaN fails both
        return
    t, *col = np.argwhere(~((p > 0.0) & (p < math.inf)))[0]
    where = f" of column {col[0]}" if col else ""
    raise NumericalError(f"banded solve: pivot {p[(t, *col)]} at row {row + step * t}{where} "
                         "is not positive and finite")


def _forward(l00: np.ndarray, l10: np.ndarray, l11: np.ndarray, y0: np.ndarray,
             y1: np.ndarray) -> None:
    """(y0, y1) <- L⁻¹(y0, y1) for the factor of ``_cholesky``."""
    y0 /= l00
    y1 -= l10 * y0
    y1 /= l11


def _backward(l00: np.ndarray, l10: np.ndarray, l11: np.ndarray, y0: np.ndarray,
              y1: np.ndarray) -> None:
    """(y0, y1) <- L⁻ᵀ(y0, y1) for the factor of ``_cholesky``."""
    y1 /= l11
    y0 -= l10 * y1
    y0 /= l00


def _tv_diagonals(w: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonals of BᵀB + GᵀWG, the matrix of ``_tv_step``, for the m-1 weights ``w``.

    Each has the even length m + m % 2 that ``_penta_solve`` takes; an
    odd m is bordered by one identity row.
    """
    m = w.shape[0] + 1
    n = m + m % 2
    a = np.zeros((n + 2,) + w.shape[1:])  # a[i + 1] = w[i] / dt², zero outside 0 <= i <= m-2
    np.divide(w, dt * dt, out=a[1:m])
    # GᵀWG as if every row were (1, -2, 1), then row 0's (-3, 1) in place
    # of (-2, 1); BᵀB adds ½ on the diagonal (¼ at both ends), ¼ beside it
    diag = a[:-2] + 4.0 * a[1:-1] + a[2:] + 0.5
    diag[[0, m - 1]] -= 0.25
    diag[0] += 5.0 * a[1]
    diag[m:] = 1.0
    off1 = 0.25 - 2.0 * (a[1:-1] + a[2:])
    off1[0] -= a[1]
    off1[m - 1:] = 0.0
    return diag, off1, a[2:]


def _tv_step(w: np.ndarray, rhs: np.ndarray, dt: float) -> np.ndarray:
    """Solve one lagged-diffusivity step (AᵀA + DᵀWD) u = Aᵀr exactly.

    ``w`` holds the m-1 weights and ``rhs`` is Bᵀr (``_b_transpose``);
    given (m-1, k) and (m, k) arrays, each column is its own step.
    In s = Aᵣu - (dt/2)·u₀, Aᵣ = dt·tril(1) the rectangle rule, so that
    s₀ = dt·u₀/2 and sᵢ = sᵢ₋₁ + dt·uᵢ, the trapezoid integral is Au = Bs
    and Du = Gs: row 0 of G is (-3, 1)/dt, every other row (1, -2, 1)/dt.
    The step (BᵀB + GᵀWG) s = Bᵀr is pentadiagonal SPD, solved by
    ``_penta_solve``.  Returns u = diff(s, prepend=-s₀)/dt.
    """
    s = _penta_solve(*_tv_diagonals(w, dt), rhs)
    u = np.empty_like(s)
    np.subtract(s[1:], s[:-1], out=u[1:])
    np.add(s[:1], s[:1], out=u[:1])  # s₀ - (-s₀)
    u /= dt
    return u


def _objectives(u: np.ndarray, fhat: np.ndarray, alpha: float, dt: float) -> np.ndarray:
    """The smoothed objective of each column of u.

    Each column's sum and dot product run over one contiguous row, so a
    column gets the bits it would get on its own.
    """
    tv = np.ascontiguousarray(np.sqrt(np.diff(u, axis=0) ** 2 + EPSILON).T).sum(axis=1)
    res = np.ascontiguousarray((_integrate_op(u, dt) - fhat).T)
    return alpha * tv + 0.5 * np.array([r @ r for r in res])


def tv_derivative(samples: np.ndarray, dt: float, cfg: TvDiffConfig,
                  full_output: bool = False):
    """Total-variation regularized derivative of uniformly sampled data.

    ``samples`` is one signal of shape (m,) or k signals as the columns
    of an (m, k) array, all on the step ``dt``; each column is solved
    and stops on its own, bit for bit as it would alone.  Returns the
    derivative estimate (the shape of ``samples``); with
    ``full_output=True`` also the objective value after every accepted
    outer iteration, which is non-increasing: one array, or a list of one
    per column.  Raises ``DataError`` on fewer than five or on non-finite
    samples.
    """
    if not 0 < dt < math.inf:
        raise ConfigError("dt must be positive and finite")
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
    alpha = cfg.alpha
    fhat = F - F[0]
    rhs = _b_transpose(fhat)

    active = np.ones(k, dtype=bool)  # a column that stops keeps its iterate from then on
    u = np.gradient(F, dt, axis=0)
    last = _objectives(u, fhat, alpha, dt)
    objectives = [[v] for v in last.tolist()]
    for _ in range(cfg.iterations):
        if not active.any():
            break
        u_new = _tv_step(alpha / np.sqrt(np.diff(u, axis=0) ** 2 + EPSILON), rhs, dt)
        val = _objectives(u_new, fhat, alpha, dt)
        stall = val > last  # numerical stall; keep the previous iterate
        frozen = stall | ~active
        u_new[:, frozen] = u[:, frozen]
        for c, v in zip(np.flatnonzero(~frozen).tolist(), val[~frozen].tolist()):
            objectives[c].append(v)
        active &= ~(stall | (last - val <= 1e-14 * np.fmax(1.0, last)))
        u, last = u_new, val
    if f.ndim == 1:
        u, objectives = u[:, 0], objectives[0]
    if full_output:
        return u, (np.array(objectives) if f.ndim == 1 else [np.array(o) for o in objectives])
    return u


def add_noise(dataset: TimeSeriesDataset, spec: NoiseSpec,
              rng: np.random.Generator | None = None) -> TimeSeriesDataset:
    """Add eta * Z (seeded standard normal Z) to the target matrix, the
    states or the derivatives.

    Segment j draws its rows of Z from ``default_rng(spec.seed + j)``, so
    a joined dataset noised once gets the bits of each run noised alone.
    The perturbation scales linearly in eta under a fixed seed: eta=2
    adds exactly twice the eta=1 matrix.  With eta=0 the dataset is
    returned unchanged and nothing is drawn.

    ``rng`` continues a caller's generator over every row instead.  Z is
    drawn row after row, so the row blocks of a dataset noised in order
    from one generator get exactly the bits of noising it whole.
    """
    if spec.eta == 0.0:
        return dataset
    if spec.target == "derivatives" and dataset.derivatives is None:
        raise DataError("dataset has no derivatives to perturb")
    target = getattr(dataset, spec.target)
    draws = ([(slice(None), rng)] if rng is not None else
             [(sl, np.random.default_rng(spec.seed + j))
              for j, sl in enumerate(dataset.segment_slices())])
    noised = np.empty(target.shape)  # C order: each segment's rows are one block
    for sl, gen in draws:
        z = gen.standard_normal(out=noised[sl])
        z *= spec.eta
        z += target[sl]  # eta * Z + target in place: the bits of target + eta * Z
    meta = {**dataset.meta, "noise_eta": spec.eta, "noise_seed": spec.seed,
            "noise_target": spec.target}
    return dataclasses.replace(dataset, **{spec.target: noised}, meta=meta)


def differentiate_dataset(dataset: TimeSeriesDataset, tv: TvDiffConfig) -> TimeSeriesDataset:
    """Attach total-variation derivatives estimated from the sampled states.

    Each segment is differentiated on its own, on the uniform step of its
    times.  The columns of the segments that share a length and an exact
    step are solved in one ``tv_derivative`` call, and the output is
    allocated once the first call returns, so it is not held through the
    solve.  Errors name the dataset row.
    """
    if not isinstance(tv, TvDiffConfig):
        raise ConfigError(f"tv differentiation needs a TvDiffConfig, not {tv!r}")
    groups: dict[tuple[int, float], list[slice]] = {}  # (length, step) -> segments
    for sl in dataset.segment_slices():
        t, X = dataset.times[sl], dataset.states[sl]
        if t.shape[0] < 5:
            raise DataError("tv differentiation needs at least five samples per segment; "
                            f"the segment at rows {sl.start}..{sl.stop - 1} has {t.shape[0]}")
        steps = np.diff(t)
        if not np.allclose(steps, steps[0], rtol=1e-8, atol=0):
            raise DataError("tv differentiation needs uniform sampling; resample upstream")
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise DataError(f"non-finite sample at row {sl.start + int(np.argmax(bad))}")
        groups.setdefault((t.shape[0], float(steps[0])), []).append(sl)
    n, deriv = dataset.n_states, None
    for (_, step), members in groups.items():
        u = tv_derivative(np.hstack([dataset.states[sl] for sl in members]), step, tv)
        deriv = np.empty_like(dataset.states) if deriv is None else deriv
        for j, sl in enumerate(members):
            deriv[sl] = u[:, n * j:n * (j + 1)]
    return dataclasses.replace(dataset, derivatives=_frozen(deriv),
                               meta={**dataset.meta, "differentiation": "tv"})
