"""Threshold selection by accuracy-versus-complexity sweep.

Sweeps the sparsification threshold over a grid, fitting on a training
split and scoring one-step regression residuals on held-out data, then
picks the largest threshold whose validation residual lies within 5 % of
the best one: the sparsest model that describes the held-out data about
as well as any.  The validation metric is a regression residual rather
than trajectory error, which stays well defined for chaotic systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .library import LibrarySpec
from .model import Mode, SparseModel, TimeSeriesDataset
from .regression import FitReport, RegressionProblem, StlsqConfig, _regression_problem, fit

__all__ = ["ParetoPoint", "split", "sweep", "pick_elbow"]
SPLIT_BLOCKS = 20  # contiguous blocks the "blocks" split policy draws from
SPLIT_POLICIES = ("tail", "blocks")


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
) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Disjoint, exhaustive train/validation split.

    ``fraction`` is the validation share.  "tail" keeps temporal
    contiguity by holding out the final samples; "blocks" assigns seeded
    random contiguous blocks to validation.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    if policy not in SPLIT_POLICIES:
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
        n_blocks = min(SPLIT_BLOCKS, m)
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
    cfg: StlsqConfig,
    fraction: float = 0.2,
    policy: str = "tail",
    seed: int = 0,
    mode: Mode = Mode.CONTINUOUS,
) -> tuple[list[ParetoPoint], list[tuple[SparseModel, FitReport]]]:
    """One fit of ``cfg`` per threshold, which replaces its STLSQ threshold,
    on one prebuilt problem per split side."""
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.size and (np.any(np.diff(thresholds) < 0) or np.any(thresholds < 0)):
        raise ConfigError("thresholds must be sorted ascending and nonnegative")
    train, val = split(dataset, fraction, policy=policy, seed=seed)
    problem = _regression_problem(train, spec, mode)
    problem_val = _regression_problem(val, spec, mode)
    models = [fit(train, spec, replace(cfg, threshold=float(lam)), mode, problem=problem)
              for lam in thresholds]
    points = [
        ParetoPoint(threshold=float(lam), nnz_total=model.nnz(),
                    train_residual=_residual(problem, model.coefficients),
                    validation_residual=_residual(problem_val, model.coefficients))
        for lam, (model, _) in zip(thresholds, models)]
    return points, models


def pick_elbow(points: list[ParetoPoint]) -> float:
    """The largest threshold whose validation residual is within 5 % of the
    best validation residual of the sweep.

    Ties resolve toward the larger threshold, the sparser model.  The rule
    compares residuals only by ratio, so a uniform rescaling of the
    residuals leaves the pick unchanged (exactly, for a power of two).
    """
    if not points:
        raise DataError("need at least one sweep point")
    best = min(p.validation_residual for p in points)
    return max(p.threshold for p in points if p.validation_residual <= 1.05 * best)
