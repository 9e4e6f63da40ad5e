"""CSV and JSON persistence for datasets, sweeps and bases.

Dataset CSV layout: header ``t,x1..xn[,dx1..dxn]``, comma separated,
one row per sample, values printed with 17 significant digits so a
written dataset reads back bit-identically.  Display state names,
segment boundaries and provenance travel in a ``<name>.meta.json``
sidecar next to the CSV.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import TimeSeriesDataset
from .reduction import ReducedBasis
from .selection import ParetoPoint

__all__ = [
    "write_dataset_csv",
    "read_dataset_csv",
    "write_pareto_csv",
    "write_basis_csv",
]

_FMT = "%.17g"


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_dataset_csv(dataset: TimeSeriesDataset, path: str | Path) -> Path:
    path = Path(path)
    n = dataset.n_states
    cols = [dataset.times]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    cols.extend(dataset.states[:, i] for i in range(n))
    if dataset.derivatives is not None:
        header += [f"dx{i + 1}" for i in range(n)]
        cols.extend(dataset.derivatives[:, i] for i in range(n))
    data = np.column_stack(cols)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(_FMT % v for v in row) + "\n")
    sidecar = {
        "state_names": list(dataset.state_names),
        "segments": list(dataset.segments),
        "meta": _jsonable(dataset.meta),
    }
    _meta_path(path).write_text(json.dumps(sidecar, indent=2, allow_nan=False))
    return path


def read_dataset_csv(path: str | Path) -> TimeSeriesDataset:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise DataError(f"{path} contains no samples")
    if header[0] != "t":
        raise DataError(f"{path} missing 't' header column")
    data = np.array(rows, dtype=float)
    n = sum(1 for h in header if h.startswith("x"))
    n_deriv = sum(1 for h in header if h.startswith("dx"))
    if 1 + n + n_deriv != len(header):
        raise DataError(f"{path} has an unrecognized column layout")
    times = data[:, 0]
    states = data[:, 1:1 + n]
    derivatives = data[:, 1 + n:1 + n + n_deriv] if n_deriv else None
    state_names: tuple[str, ...] = ()
    segments: tuple[int, ...] = (0,)
    meta: dict = {}
    sidecar = _meta_path(path)
    if sidecar.exists():
        doc = json.loads(sidecar.read_text())
        state_names = tuple(doc.get("state_names", ()))
        segments = tuple(doc.get("segments", (0,)))
        meta = doc.get("meta", {})
    return TimeSeriesDataset(
        times=times, states=states, derivatives=derivatives,
        state_names=state_names, segments=segments, meta=meta)


def write_pareto_csv(points: list[ParetoPoint], path: str | Path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        fh.write("lambda,nnz,train_res,val_res\n")
        for p in points:
            fh.write(
                f"{_FMT % p.threshold},{p.nnz_total},"
                f"{_FMT % p.train_residual},{_FMT % p.validation_residual}\n")
    return path


def write_basis_csv(basis: ReducedBasis, modes_path: str | Path, sv_path: str | Path) -> None:
    """Persist a reduced basis as a plain-text CSV pair for inspection."""
    np.savetxt(modes_path, basis.modes, delimiter=",", fmt=_FMT)
    np.savetxt(sv_path, basis.singular_values.reshape(1, -1), delimiter=",", fmt=_FMT)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
