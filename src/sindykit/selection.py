"""Threshold selection by accuracy-versus-complexity sweep.

Sweeps the sparsification threshold over a grid, fitting on every row
but the last 20 % and scoring one-step regression residuals on that
held-out tail, then picks the largest threshold whose validation
residual lies within 5 % of the best one: the sparsest model that
describes the held-out data about as well as any.  The tail keeps time
order: the model is scored on samples later than any it was fitted on,
and on a dataset of several runs the tail lies in the final runs.  The
validation metric is a regression residual rather than trajectory
error, which stays well defined for chaotic systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .library import LibrarySpec
from .model import Mode, SparseModel, TimeSeriesDataset
from .regression import FitReport, RegressionProblem, StlsqConfig, _regression_problem, fit

__all__ = ["ParetoPoint", "sweep", "pick_elbow"]
_HELD_OUT = 0.2  # share of the rows, at the end, that the sweep scores on


@dataclass(frozen=True)
class ParetoPoint:
    threshold: float
    nnz_total: int
    train_residual: float
    validation_residual: float


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
    mode: Mode = Mode.CONTINUOUS,
) -> tuple[list[ParetoPoint], list[tuple[SparseModel, FitReport]]]:
    """One STLSQ fit per threshold on the factor of the rows before the
    held-out tail; each fit is scored on the factors of both sides.  In
    discrete mode the pair that straddles the cut belongs to neither side."""
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(thresholds) < 0):
        raise ConfigError("thresholds must be sorted ascending")
    configs = [StlsqConfig(float(lam)) for lam in thresholds]  # refused before the factoring
    m = dataset.n_samples
    if m < 10:
        raise DataError("too few samples to split")
    cut = m - int(round(m * _HELD_OUT))
    problem = _regression_problem(dataset, spec, mode, within=slice(cut))
    problem_val = _regression_problem(dataset, spec, mode, within=slice(cut, m))
    models = [fit(dataset, spec, cfg, mode, problem=problem) for cfg in configs]
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
