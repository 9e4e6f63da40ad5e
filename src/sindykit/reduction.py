"""SVD-based dimensionality reduction of high-dimensional snapshots.

``compute_basis`` extracts the fewest orthonormal modes that capture a
requested fraction of the snapshot matrix's energy, and ``reduce_dataset``
projects a dataset's states and derivatives onto modes to give mode
coefficients.  The snapshots are not centred, and mode signs are normalized
so the largest-magnitude entry of each mode is positive.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .model import TimeSeriesDataset, default_state_names

__all__ = ["compute_basis", "reduce_dataset"]


def compute_basis(snapshots: np.ndarray, energy: float) -> np.ndarray:
    """Read-only N x r modes of an m x N snapshot matrix: the economy SVD's
    leading right singular vectors, as few as capture the fraction ``energy``
    of the squared singular values."""
    X = np.asarray(snapshots, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("need an m x N snapshot matrix with m >= 2")
    if not 0.0 < energy <= 1.0:
        raise ConfigError("energy fraction must lie in (0, 1]")
    if (bad := ~np.isfinite(X).all(axis=1)).any():
        raise DataError(f"non-finite snapshot entries at row {int(np.argmax(bad))}")
    # left singular vectors of X^T are the rows' principal directions
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        r = 1
    else:
        frac = np.cumsum(s**2) / total
        r = min(int(np.searchsorted(frac, energy - 1e-15) + 1), s.shape[0])
    modes = Vt[:r].T.copy()
    for j in range(r):
        lead = np.argmax(np.abs(modes[:, j]))
        if modes[lead, j] < 0:
            modes[:, j] = -modes[:, j]
    modes.setflags(write=False)
    return modes


def reduce_dataset(dataset: TimeSeriesDataset, modes: np.ndarray) -> TimeSeriesDataset:
    """Project a dataset's states and derivatives onto orthonormal
    ``n_states x r`` modes, giving a dataset of r mode coefficients."""
    modes = np.asarray(modes, dtype=float)
    if modes.ndim != 2 or modes.shape[0] != dataset.n_states or modes.shape[1] == 0:
        raise DataError(f"modes must be {dataset.n_states} x r with r >= 1, "
                        f"one row per state, not of shape {modes.shape}")
    if not np.allclose(modes.T @ modes, np.eye(modes.shape[1]), atol=1e-10):
        raise DataError("modes must be orthonormal")
    derivatives = None
    if dataset.derivatives is not None:
        derivatives = dataset.derivatives @ modes
    meta = dict(dataset.meta)
    meta["reduced_from"] = dataset.n_states
    return TimeSeriesDataset(
        times=dataset.times,
        states=dataset.states @ modes,
        derivatives=derivatives,
        state_names=default_state_names(modes.shape[1]),
        segments=dataset.segments,
        meta=meta,
    )
