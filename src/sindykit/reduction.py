"""SVD-based dimensionality reduction of high-dimensional snapshots.

A truncated orthonormal basis is extracted from the snapshot matrix, and
high-dimensional states and derivatives project to mode coefficients.  The
snapshots are not centred, and mode signs are normalized so the
largest-magnitude entry of each mode is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .model import TimeSeriesDataset, default_state_names

__all__ = ["ReducedBasis", "compute_basis", "project", "reduce_dataset"]


@dataclass(frozen=True)
class ReducedBasis:
    """Truncated basis: N x r orthonormal modes and their singular values."""

    modes: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        modes = np.array(self.modes, dtype=float)
        sv = np.array(self.singular_values, dtype=float)
        if modes.ndim != 2 or sv.ndim != 1 or modes.shape[1] != sv.shape[0]:
            raise DataError("modes must be N x r with one singular value per mode")
        if np.any(np.diff(sv) > 0):
            raise DataError("singular values must be non-increasing")
        gram = modes.T @ modes
        if not np.allclose(gram, np.eye(modes.shape[1]), atol=1e-10):
            raise DataError("modes must be orthonormal")
        modes.setflags(write=False)
        sv.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "singular_values", sv)

    @property
    def rank(self) -> int:
        return self.modes.shape[1]


def compute_basis(
    snapshots: np.ndarray,
    rank: int | None = None,
    energy: float | None = None,
) -> ReducedBasis:
    """Economy SVD of the transposed snapshot matrix, truncated either to a
    fixed rank or to the smallest rank capturing the requested fraction of
    squared singular-value energy."""
    X = np.asarray(snapshots, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("need an m x N snapshot matrix with m >= 2")
    if (rank is None) == (energy is None):
        raise ConfigError("give exactly one of rank= or energy=")
    # left singular vectors of X^T are the rows' principal directions
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    if energy is not None:
        if not 0.0 < energy <= 1.0:
            raise ConfigError("energy fraction must lie in (0, 1]")
        total = float(np.sum(s**2))
        if total == 0.0:
            r = 1
        else:
            frac = np.cumsum(s**2) / total
            r = min(int(np.searchsorted(frac, energy - 1e-15) + 1), s.shape[0])
    else:
        if not 1 <= rank <= s.shape[0]:
            raise ConfigError(f"rank must be in [1, {s.shape[0]}]")
        r = int(rank)
    modes = Vt[:r].T.copy()
    for j in range(r):
        lead = np.argmax(np.abs(modes[:, j]))
        if modes[lead, j] < 0:
            modes[:, j] = -modes[:, j]
    return ReducedBasis(modes=modes, singular_values=s[:r])


def project(basis: ReducedBasis, x: np.ndarray) -> np.ndarray:
    """Mode coefficients of a state (or stack of states, last axis = N)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != basis.modes.shape[0]:
        raise DataError(f"state dimension {x.shape[-1]} != basis dimension {basis.modes.shape[0]}")
    return x @ basis.modes


def reduce_dataset(dataset: TimeSeriesDataset, basis: ReducedBasis) -> TimeSeriesDataset:
    """Project a high-dimensional dataset's states and derivatives to reduced coordinates."""
    states = project(basis, dataset.states)
    derivatives = None
    if dataset.derivatives is not None:
        derivatives = dataset.derivatives @ basis.modes
    meta = dict(dataset.meta)
    meta["reduced_from"] = dataset.n_states
    return TimeSeriesDataset(
        times=dataset.times,
        states=states,
        derivatives=derivatives,
        state_names=default_state_names(basis.rank),
        segments=dataset.segments,
        meta=meta,
    )
