"""Sparse regression of derivatives onto the candidate library.

Solves dX = Theta(X) Xi column by column.  The workhorse is sequential
thresholded least squares: start from the full least-squares solution,
zero every coefficient below the threshold, re-solve restricted to the
survivors, and repeat until the support stops changing.  Ordinary least
squares and coordinate-descent LASSO are provided as baselines.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .library import LibraryMatrix, LibrarySpec, build_matrix, enumerate_terms
from .model import Mode, SparseModel, TimeSeriesDataset, default_state_names

__all__ = [
    "StlsqConfig",
    "LassoConfig",
    "FitReport",
    "least_squares",
    "stlsq",
    "lasso_cd",
    "fit",
]


@dataclass(frozen=True)
class StlsqConfig:
    """Threshold and iteration cap for the threshold/re-solve loop.

    The loop stops as soon as thresholding removes nothing: further
    passes on a stable support would reproduce the same coefficients.
    """

    threshold: float
    max_iterations: int = 10

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ConfigError("threshold must be nonnegative")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")


@dataclass(frozen=True)
class LassoConfig:
    """L1 weight and stopping rule for coordinate descent."""

    lambda1: float
    tol: float = 1e-10
    max_sweeps: int = 10_000

    def __post_init__(self) -> None:
        if self.lambda1 < 0:
            raise ConfigError("lambda1 must be nonnegative")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be at least 1")


@dataclass
class FitReport:
    """Per-equation diagnostics of a fit."""

    iterations_used: list[int] = field(default_factory=list)
    residual_norm: list[float] = field(default_factory=list)
    nnz: list[int] = field(default_factory=list)
    condition_estimate: list[float | None] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)
    empty_support: list[bool] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, allow_nan=False)


def least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of A xi = b.

    Singular values below max(m, p) * eps * sigma_max are treated as zero,
    pinning the rank cutoff that a backslash-style solve leaves to the
    environment.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise DataError("least_squares needs a nonempty 2-d matrix")
    rcond = max(A.shape) * np.finfo(float).eps
    xi, *_ = np.linalg.lstsq(A, b, rcond=rcond)
    return xi


def _stlsq_column(Theta: np.ndarray, y: np.ndarray, cfg: StlsqConfig):
    """One equation of the threshold/re-solve loop.

    Returns (xi, iterations, converged, active_mask).  The active set can
    only shrink: thresholding removes columns and the re-solve is
    restricted to survivors.
    """
    p = Theta.shape[1]
    xi = least_squares(Theta, y)
    active = np.ones(p, dtype=bool)
    for iterations in range(1, cfg.max_iterations + 1):
        keep = active & (np.abs(xi) >= cfg.threshold)
        if not keep.any():
            return np.zeros(p), iterations, True, keep
        if np.array_equal(keep, active):
            # fixed point: a re-solve on the same support reproduces xi
            return xi, iterations, True, active
        active = keep
        xi = np.zeros(p)
        xi[active] = least_squares(Theta[:, active], y)
    return xi, iterations, False, active


def _fit_report(values: np.ndarray, target: np.ndarray, coef: np.ndarray,
                actives, iterations, converged) -> FitReport:
    """Per-equation diagnostics; condition estimates use each final active set."""
    report = FitReport()
    for k, active in enumerate(actives):
        xi = coef[:, k]
        report.iterations_used.append(int(iterations[k]))
        report.residual_norm.append(float(np.linalg.norm(values @ xi - target[:, k])))
        report.nnz.append(int(np.count_nonzero(xi)))
        report.condition_estimate.append(
            float(np.linalg.cond(values[:, active])) if active.any() else None)
        report.converged.append(bool(converged[k]))
        report.empty_support.append(not active.any())
    return report


def stlsq(
    Theta: LibraryMatrix | np.ndarray,
    dX: np.ndarray,
    cfg: StlsqConfig,
    state_names: tuple[str, ...] | None = None,
    mode: Mode = Mode.CONTINUOUS,
) -> tuple[SparseModel, FitReport]:
    """Sequential thresholded least squares, independently per equation.

    All returned nonzeros satisfy |xi| >= threshold except when an
    iteration empties a support entirely, in which case that column is
    returned as zero and flagged in the report.

    A raw matrix may be passed in place of an evaluated library; its
    columns are then labelled as plain linear terms of the regressor
    variables, which only coincide with the model's own states when the
    regressors are the state data itself.
    """
    if isinstance(Theta, LibraryMatrix):
        terms, values = Theta.terms, Theta.values
    else:
        # raw matrix: label columns as plain linear terms
        values = np.asarray(Theta, dtype=float)
        terms = enumerate_terms(
            LibrarySpec(n_states=values.shape[1], poly_order=1, include_constant=False))
    dX = np.asarray(dX, dtype=float)
    if dX.ndim == 1:
        dX = dX.reshape(-1, 1)
    if dX.shape[0] != values.shape[0]:
        raise DataError("Theta and dX must have the same number of rows")
    n = dX.shape[1]
    names = tuple(state_names) if state_names else default_state_names(n)
    xis, iterations, converged, actives = zip(
        *(_stlsq_column(values, dX[:, k], cfg) for k in range(n)))
    coef = np.column_stack(xis)
    model = SparseModel(terms=terms, coefficients=coef, state_names=names, mode=mode)
    return model, _fit_report(values, dX, coef, actives, iterations, converged)


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def lasso_cd(Theta: LibraryMatrix | np.ndarray, y: np.ndarray, cfg: LassoConfig) -> np.ndarray:
    """Cyclic coordinate descent for ||Theta xi - y||^2 + lambda1 ||xi||_1.

    Columns are scaled to unit norm internally and the scaling is undone
    on return; a coordinate dies when |a^T r| <= lambda1 / 2.  Stops when
    the largest coefficient change in a sweep drops below ``tol``; warns
    and returns the best iterate if ``max_sweeps`` is exhausted first.
    """
    A = Theta.values if isinstance(Theta, LibraryMatrix) else np.asarray(Theta, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if A.ndim != 2 or A.shape[0] != y.shape[0]:
        raise DataError("Theta and y must have matching rows")
    norms = np.linalg.norm(A, axis=0)
    live = norms > 0
    An = np.where(live, norms, 1.0)
    A = A / An
    p = A.shape[1]
    xi = np.zeros(p)
    r = y.copy()
    half = cfg.lambda1 / 2.0
    for _ in range(cfg.max_sweeps):
        delta = 0.0
        for j in range(p):
            if not live[j]:
                continue
            old = xi[j]
            rho = A[:, j] @ r + old  # unit-norm column: a^T a = 1
            new = _soft_threshold(rho, half)
            if new != old:
                r += A[:, j] * (old - new)
                xi[j] = new
                delta = max(delta, abs(new - old))
        if delta < cfg.tol:
            break
    else:
        warnings.warn("lasso_cd: not converged within max_sweeps, returning best iterate")
    return xi / An


def _require_finite(values: np.ndarray, rows: np.ndarray, problem: str) -> None:
    """Raise naming the dataset row of the first non-finite row of ``values``."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DataError(f"{problem} at dataset row {rows[np.argmax(bad)]}")


def _regression_problem(
    dataset: TimeSeriesDataset, spec: LibrarySpec, mode: Mode,
) -> tuple[LibraryMatrix, np.ndarray]:
    """Library matrix and target of the regression dX = Theta(X) Xi.

    Continuous mode pairs each state with its stored derivative; discrete
    mode pairs each state with the next one in its segment, so that no
    derivative is ever computed.  Non-finite data, and states large
    enough to overflow the library, are rejected naming the dataset row.
    """
    if spec.n_states != dataset.n_states:
        raise ConfigError(
            f"library expects {spec.n_states} states, dataset has {dataset.n_states}")
    if mode is Mode.CONTINUOUS:
        if dataset.derivatives is None:
            raise DataError(
                "continuous-time fit needs derivatives; compute them with "
                "the differentiation module (central_difference or tv_derivative)")
        rows = np.arange(dataset.n_samples)
        X, target, target_rows = dataset.states, dataset.derivatives, rows
    else:
        rows = np.concatenate(
            [np.arange(sl.start, sl.stop - 1) for sl in dataset.segment_slices()])
        if rows.size == 0:
            raise DataError("discrete-time fit needs a segment of two or more samples")
        target_rows = rows + 1
        X, target = dataset.states[rows], dataset.states[target_rows]
    _require_finite(X, rows, "non-finite state")
    _require_finite(target, target_rows, "non-finite target")
    theta = build_matrix(spec, X)
    _require_finite(theta.values, rows,
                    f"library overflow (states too large for poly_order {spec.poly_order})")
    return theta, target


def _require_overdetermined(theta: LibraryMatrix) -> None:
    m, p = theta.values.shape
    if m <= p:
        raise DataError(f"{m} samples do not overdetermine {p} library terms")


def fit(
    dataset: TimeSeriesDataset,
    spec: LibrarySpec,
    cfg: StlsqConfig | LassoConfig,
    mode: Mode = Mode.CONTINUOUS,
) -> tuple[SparseModel, FitReport]:
    """Fit an identified model to a dataset.

    Continuous mode regresses the stored derivatives onto the library;
    discrete mode regresses next states onto the library of current
    states, pairing samples within each trajectory segment.
    """
    theta, target = _regression_problem(dataset, spec, mode)
    _require_overdetermined(theta)
    if isinstance(cfg, StlsqConfig):
        return stlsq(theta, target, cfg, state_names=dataset.state_names, mode=mode)
    coef = np.column_stack(
        [lasso_cd(theta, target[:, k], cfg) for k in range(target.shape[1])])
    n = coef.shape[1]
    model = SparseModel(
        terms=theta.terms, coefficients=coef, state_names=dataset.state_names, mode=mode)
    return model, _fit_report(theta.values, target, coef, coef.T != 0, [0] * n, [True] * n)
