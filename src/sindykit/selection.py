"""Threshold selection by accuracy-versus-complexity sweep.

Sweeps the sparsification threshold over a grid, fitting on a training
split and scoring one-step regression residuals on held-out data, then
picks the elbow of the resulting curve: the point of maximum discrete
curvature of the (log complexity, log validation residual) polyline.
The validation metric is a regression residual rather than trajectory
error, which stays well defined for chaotic systems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .library import LibrarySpec, enumerate_terms
from .model import Mode, SparseModel, TimeSeriesDataset
from .regression import (FitReport, LassoConfig, RegressionProblem, StlsqConfig,
                         _regression_problem, _solve, _with_sparsity)

__all__ = ["ParetoPoint", "split", "sweep", "pick_elbow"]


@dataclass(frozen=True)
class ParetoPoint:
    threshold: float
    nnz_total: int
    train_residual: float
    validation_residual: float


def split(
    dataset: TimeSeriesDataset,
    fraction: float,
    policy: str = "tail",
    seed: int = 0,
    n_blocks: int = 20,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Disjoint, exhaustive train/validation split.

    ``fraction`` is the validation share.  "tail" keeps temporal
    contiguity by holding out the final samples; "blocks" assigns seeded
    random contiguous blocks to validation.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    if policy not in ("tail", "blocks"):
        raise ConfigError(f"unknown split policy {policy!r}")
    m = dataset.n_samples
    if m < 10:
        raise DataError("too few samples to split")
    if policy == "tail":
        cut = m - int(round(m * fraction))
        if cut < 1 or cut >= m:
            raise DataError("split leaves an empty side")
        mask = np.zeros(m, dtype=bool)
        mask[cut:] = True
    else:
        n_blocks = min(n_blocks, m)
        edges = np.linspace(0, m, n_blocks + 1).astype(int)
        order = np.random.default_rng(seed).permutation(n_blocks)
        mask = np.zeros(m, dtype=bool)
        picked = 0
        for b in order:
            if picked >= m * fraction:
                break
            mask[edges[b]:edges[b + 1]] = True
            picked += edges[b + 1] - edges[b]
    return _take(dataset, ~mask), _take(dataset, mask)


def _take(dataset: TimeSeriesDataset, mask: np.ndarray) -> TimeSeriesDataset:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise DataError("split leaves an empty side")
    # keep segment boundaries that survive the selection, plus breaks the
    # selection itself introduces
    breaks = np.flatnonzero((np.diff(idx) != 1) | np.isin(idx[1:], dataset.segments)) + 1
    return TimeSeriesDataset(
        times=dataset.times[idx],
        states=dataset.states[idx],
        derivatives=None if dataset.derivatives is None else dataset.derivatives[idx],
        state_names=dataset.state_names,
        segments=(0, *breaks.tolist()),
        meta=dict(dataset.meta),
    )


def _residual(problem: RegressionProblem, C: np.ndarray) -> float:
    """||Theta C - Y||_F / ||Y||_F, or ||Theta C||_F when Y = 0, from the factor:
    [Theta | Y] [C; -I] = Q R [C; -I] and Q preserves the norm."""
    p, n = C.shape
    error = np.linalg.norm(problem.R @ np.vstack([C, -np.eye(n)]))
    denom = np.linalg.norm(problem.R[:, p:])
    return float(error / denom) if denom else float(error)


def sweep(
    dataset: TimeSeriesDataset,
    spec: LibrarySpec,
    thresholds: np.ndarray,
    cfg: StlsqConfig | LassoConfig,
    fraction: float = 0.2,
    policy: str = "tail",
    seed: int = 0,
    mode: Mode = Mode.CONTINUOUS,
) -> tuple[list[ParetoPoint], list[tuple[SparseModel, FitReport]]]:
    """One fit of ``cfg`` per threshold, which replaces its STLSQ threshold or
    LASSO lambda1, on one prebuilt problem per split side."""
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.size and (np.any(np.diff(thresholds) < 0) or np.any(thresholds < 0)):
        raise ConfigError("thresholds must be sorted ascending and nonnegative")
    train, val = split(dataset, fraction, policy=policy, seed=seed)
    problem = _regression_problem(train, spec, mode)
    problem_val = _regression_problem(val, spec, mode)
    terms = enumerate_terms(spec)
    models = [_solve(problem, terms, _with_sparsity(cfg, float(lam)), train.state_names, mode)
              for lam in thresholds]
    points = [
        ParetoPoint(threshold=float(lam), nnz_total=model.nnz(),
                    train_residual=_residual(problem, model.coefficients),
                    validation_residual=_residual(problem_val, model.coefficients))
        for lam, (model, _) in zip(thresholds, models)]
    return points, models


def _menger_curvature(P: np.ndarray) -> np.ndarray:
    """Curvature at interior vertices of a polyline (circumcircle based)."""
    a = P[:-2]
    b = P[1:-1]
    c = P[2:]
    ab = np.linalg.norm(b - a, axis=1)
    bc = np.linalg.norm(c - b, axis=1)
    ca = np.linalg.norm(c - a, axis=1)
    cross = np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    denom = ab * bc * ca
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(denom > 0, 2.0 * cross / denom, 0.0)
    return k


def pick_elbow(points: list[ParetoPoint]) -> float:
    """Threshold at the knee of the accuracy/complexity curve.

    Curvature is computed on log axes, so the pick is invariant to a
    uniform rescaling of the residuals.  Ties and duplicate curve points
    resolve toward larger thresholds (sparser models).  If the curve is
    degenerate (too few distinct points, or no curved vertex), falls back
    to the largest threshold within 5% of the best validation residual
    and warns.
    """
    if len(points) < 3:
        raise DataError("need at least three sweep points")
    pts = sorted(points, key=lambda p: p.threshold)
    # collapse duplicate (nnz, residual) runs, keeping the largest threshold
    distinct: list[ParetoPoint] = []
    for p in pts:
        if distinct and distinct[-1].nnz_total == p.nnz_total and np.isclose(
                distinct[-1].validation_residual, p.validation_residual,
                rtol=1e-9, atol=1e-300):
            distinct[-1] = p
        else:
            distinct.append(p)
    if len(distinct) >= 3:
        xy = np.column_stack([
            np.log([p.nnz_total + 1 for p in distinct]),
            np.log([max(p.validation_residual, 1e-300) for p in distinct]),
        ])
        curv = _menger_curvature(xy)
        if np.max(curv) > 0:
            best = int(np.flatnonzero(curv >= np.max(curv) - 1e-12)[-1])
            return distinct[best + 1].threshold
    best_res = min(p.validation_residual for p in pts)
    warnings.warn("pick_elbow: degenerate curve, falling back to residual-within-5% rule")
    return max(p.threshold for p in pts if p.validation_residual <= 1.05 * best_res)
