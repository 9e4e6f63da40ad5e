"""Sparse regression of derivatives onto the candidate library.

Solves dX = Theta(X) Xi column by column.  The workhorse is sequential
thresholded least squares: start from the full least-squares solution,
zero every coefficient below the threshold, re-solve restricted to the
survivors, and repeat until the support stops changing.  A zero
threshold, or :func:`least_squares` itself, gives the ordinary
least-squares baseline.

Each problem is factored once: the factor R of [Theta | dX] preserves
every residual norm, so every solve, residual and condition estimate runs
on R's p x p library block instead of Theta's m rows.  A fit builds Theta
(and may take dX) one row block at a time and folds each block into R,
so no Theta-sized matrix is ever formed.  R below row p need not be
triangular (a problem cut from a factor of more targets is not): only
the column norms of that block R22 are read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .library import LibrarySpec, build_matrix, enumerate_terms
from .model import Mode, SparseModel, TimeSeriesDataset

__all__ = [
    "StlsqConfig",
    "FitReport",
    "RegressionProblem",
    "least_squares",
    "stlsq",
    "fit",
]


@dataclass(frozen=True)
class StlsqConfig:
    """Threshold of the threshold/re-solve loop, which needs no cap: a pass
    that does not reach the fixed point removes a library column and keeps
    one, so p columns reach it within p passes (see :func:`stlsq`)."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0 <= self.threshold < np.inf:
            raise ConfigError("threshold must be nonnegative and finite")


@dataclass
class FitReport:
    """Per-equation diagnostics of a fit."""

    iterations_used: list[int] = field(default_factory=list)
    residual_norm: list[float] = field(default_factory=list)
    nnz: list[int] = field(default_factory=list)
    condition_estimate: list[float | None] = field(default_factory=list)
    empty_support: list[bool] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, allow_nan=False)


# Rows of [Theta | dX] folded into the running factor per QR call: the
# stacked block stays in cache and far below the size of Theta, while the
# p + n rows of R carried into each call cost little.
_QR_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """The regression dX = Theta Xi, kept as the factor R of [Theta | dX].

    With [Theta | dX] = Q R, Q having orthonormal columns, and R split
    after the p library columns into [[R11, R12], [0, R22]],
    ||Theta xi - dX[:, k]|| = hypot(||R11 xi - R12[:, k]||, ||R22[:, k]||)
    for every xi, and R11 has the singular values of Theta.  R11 is upper
    triangular; R22 need not be, since only its column norms are read, so
    the problem of a few targets may be cut from the factor of many
    (:meth:`targets`).  ``n_terms`` is the column count p and
    ``n_samples`` the row count m of Theta.
    """

    n_terms: int
    R: np.ndarray
    n_samples: int

    @classmethod
    def factor(cls, n_samples: int, n_terms: int, library,
               n_targets: int, target) -> RegressionProblem:
        """Factor the ``n_samples`` rows of [Theta | dX] one row block at a time:
        ``target(start, stop)`` gives dX's rows start:stop (``n_targets``
        columns) and then ``library(start, stop)`` Theta's (``n_terms``
        columns), so neither Theta, dX nor the stacked matrix need ever be
        formed."""
        m, p = n_samples, n_terms
        width = p + n_targets
        stacked = np.empty((width + min(m, _QR_BLOCK_ROWS), width))
        R = stacked[:0]
        for start in range(0, m, _QR_BLOCK_ROWS):
            stop = min(start + _QR_BLOCK_ROWS, m)
            k = R.shape[0]
            end = k + stop - start
            stacked[:k] = R
            stacked[k:end, p:] = target(start, stop)
            stacked[k:end, :p] = library(start, stop)
            R = np.linalg.qr(stacked[:end], mode="r")
        return cls(p, R, m)

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R11, R12, R22)."""
        p = self.n_terms
        return self.R[:p, :p], self.R[:p, p:], self.R[p:, p:]

    def targets(self, start: int, stop: int) -> RegressionProblem:
        """The problem of target columns start:stop alone: R's library columns
        and those columns, every row."""
        p = self.n_terms
        return RegressionProblem(p, self.R[:, np.r_[:p, p + start:p + stop]], self.n_samples)


def least_squares(A: np.ndarray, b: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of A xi = b.

    Singular values below max(m, p) * eps * sigma_max are treated as zero,
    pinning the rank cutoff that a backslash-style solve leaves to the
    environment.  ``rows`` is m when A is the triangular factor of an
    m-row matrix, so the cutoff stays that of the m-row solve.  Non-finite
    A or b raise ``DataError``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise DataError("least_squares needs a nonempty 2-d matrix")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise DataError("least_squares needs finite A and b")
    m = A.shape[0] if rows is None else rows
    rcond = max(m, A.shape[1]) * np.finfo(float).eps
    xi, *_ = np.linalg.lstsq(A, b, rcond=rcond)
    return xi


def _stlsq_column(R11: np.ndarray, r: np.ndarray, rows: int, cfg: StlsqConfig):
    """One equation of the threshold/re-solve loop on the factor of an
    m = ``rows`` problem (R11 and this equation's column r of R12).

    Returns (xi, iterations, active_mask).  The active set only shrinks:
    thresholding removes columns and the re-solve is restricted to
    survivors.  A pass that does not return removes a column and keeps
    one, so pass j starts on at most p + 1 - j columns and pass p returns
    at the latest.
    """
    p = R11.shape[1]
    xi = least_squares(R11, r, rows)
    active = np.ones(p, dtype=bool)
    for iterations in range(1, p + 1):
        keep = active & (np.abs(xi) >= cfg.threshold)
        if not keep.any():
            return np.zeros(p), iterations, keep
        if np.array_equal(keep, active):
            # fixed point: a re-solve on the same support reproduces xi
            return xi, iterations, active
        active = keep
        xi = np.zeros(p)
        xi[active] = least_squares(R11[:, active], r, rows)


def _fit_report(problem: RegressionProblem, coef: np.ndarray,
                actives, iterations) -> FitReport:
    """Per-equation diagnostics; condition estimates use each final active set."""
    R11, R12, R22 = problem.blocks
    report = FitReport()
    for k, active in enumerate(actives):
        xi = coef[:, k]
        report.iterations_used.append(int(iterations[k]))
        report.residual_norm.append(float(np.hypot(
            np.linalg.norm(R11 @ xi - R12[:, k]), np.linalg.norm(R22[:, k]))))
        report.nnz.append(int(np.count_nonzero(xi)))
        report.condition_estimate.append(
            float(np.linalg.cond(R11[:, active])) if active.any() else None)
        report.empty_support.append(not active.any())
    return report


def _factored(Theta: np.ndarray, dX: np.ndarray) -> RegressionProblem:
    """The problem of the public solvers: a matrix and targets of matching rows,
    every entry finite."""
    values = np.asarray(Theta, dtype=float)
    if values.ndim != 2:
        raise DataError("Theta must be a 2-d matrix")
    dX = np.asarray(dX, dtype=float)
    if dX.ndim == 1:
        dX = dX.reshape(-1, 1)
    if dX.ndim != 2 or dX.shape[0] != values.shape[0]:
        raise DataError("Theta and dX must have the same number of rows")
    _require_finite(values, range(len(values)), "non-finite Theta entry at row")
    _require_finite(dX, range(len(dX)), "non-finite dX entry at row")
    return RegressionProblem.factor(values.shape[0], values.shape[1],
                                    lambda start, stop: values[start:stop],
                                    dX.shape[1], lambda start, stop: dX[start:stop])


def stlsq(
    Theta: np.ndarray | RegressionProblem,
    dX: np.ndarray | None,
    cfg: StlsqConfig,
) -> tuple[np.ndarray, FitReport]:
    """Sequential thresholded least squares, independently per equation.

    Returns the p x n coefficient matrix, one column per column of ``dX``,
    and its report.  Each column is the loop's fixed point, reached within
    p passes (the report's ``iterations_used``): a support that the
    threshold keeps whole, so every returned nonzero satisfies
    |xi| >= threshold.  A pass that empties the support returns that
    column as zero, flagged in the report's ``empty_support``.

    A prebuilt RegressionProblem may stand in for ``Theta``; it already
    holds its targets, and ``dX`` is then None.  That form exists only so
    that every fit's solve goes through this function by its module name,
    where a tracer that rebinds it from outside (perfbench) sees it.
    """
    problem = Theta if isinstance(Theta, RegressionProblem) else _factored(Theta, dX)
    R11, R12, _ = problem.blocks
    xis, iterations, actives = zip(
        *(_stlsq_column(R11, R12[:, k], problem.n_samples, cfg) for k in range(R12.shape[1])))
    coef = np.column_stack(xis)
    return coef, _fit_report(problem, coef, actives, iterations)


def _require_finite(values: np.ndarray, rows: np.ndarray | range, problem: str) -> None:
    """Raise ``problem`` and the row of ``rows`` that the first non-finite row of
    ``values`` is."""
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DataError(f"{problem} {rows[np.argmax(bad)]}")


def _regression_problem(
    dataset: TimeSeriesDataset, spec: LibrarySpec, mode: Mode,
    derivatives=None, n_targets: int | None = None, within: slice = slice(None),
) -> RegressionProblem:
    """The factored regression dX = Theta(X) Xi of the dataset rows ``within``.

    Continuous mode pairs each state with its stored derivative, or with
    the row that ``derivatives(start, stop)`` gives (``n_targets``
    columns per row, counted from the first row of ``within``) when that
    row source is given; discrete mode pairs each state with the next one
    in its segment, both inside ``within``, so that no derivative is ever
    computed.  Theta and dX are built and factored one row block at a
    time.  Non-finite data, and states large enough to overflow the
    library, are rejected naming the dataset row: the states before any
    block, each block's targets and then its library in row order.
    """
    if spec.n_states != dataset.n_states:
        raise ConfigError(
            f"library expects {spec.n_states} states, dataset has {dataset.n_states}")
    if mode is Mode.CONTINUOUS:
        rows = range(dataset.n_samples)[within]  # no m-long index array
        X, target, target_rows = dataset.states[within], dataset.derivatives, rows
        if derivatives is None:
            if target is None:
                raise DataError(
                    "continuous-time fit needs derivatives; compute them with "
                    "the differentiation module (central_difference or tv_derivative)")
            target = target[within]
    else:
        first, stop, _ = within.indices(dataset.n_samples)
        rows = np.concatenate([np.arange(max(sl.start, first), min(sl.stop, stop) - 1)
                               for sl in dataset.segment_slices()])
        if rows.size == 0:
            raise DataError("discrete-time fit needs a segment of two or more samples")
        target_rows = rows + 1
        X, target = dataset.states[rows], dataset.states[target_rows]
        derivatives = None  # next states are the targets
    if derivatives is None:
        n_targets = target.shape[1]
        derivatives = lambda start, stop: target[start:stop]
    _require_finite(X, rows, "non-finite state at dataset row")
    overflow = (f"library overflow (states too large for poly_order {spec.poly_order}) "
                "at dataset row")

    def targets(start: int, stop: int) -> np.ndarray:
        block = derivatives(start, stop)
        _require_finite(block, target_rows[start:stop], "non-finite target at dataset row")
        return block

    def library(start: int, stop: int) -> np.ndarray:
        block = build_matrix(spec, X[start:stop]).values
        _require_finite(block, rows[start:stop], overflow)
        return block

    return RegressionProblem.factor(X.shape[0], spec.n_terms, library, n_targets, targets)


def fit(
    dataset: TimeSeriesDataset,
    spec: LibrarySpec,
    cfg: StlsqConfig,
    mode: Mode = Mode.CONTINUOUS,
    problem: RegressionProblem | None = None,
) -> tuple[SparseModel, FitReport]:
    """Fit an identified model to a dataset by :func:`stlsq`, one equation
    per target column.

    Continuous mode regresses the stored derivatives onto the library;
    discrete mode regresses next states onto the library of current
    states, pairing samples within each trajectory segment.  ``problem``
    may pass in the factored regression on ``spec``'s library instead
    (the rows before a sweep's held-out tail, one noise level of
    compare's shared factor); ``dataset`` then gives only the state
    names.  Every fit becomes a :class:`SparseModel` here.
    """
    if problem is None:
        problem = _regression_problem(dataset, spec, mode)
    m, p = problem.n_samples, problem.n_terms
    if m <= p:
        raise DataError(f"{m} samples do not overdetermine {p} library terms")
    coef, report = stlsq(problem, None, cfg)
    model = SparseModel(terms=enumerate_terms(spec), coefficients=coef,
                        state_names=dataset.state_names, mode=mode)
    return model, report
