"""CSV and JSON persistence for datasets and sweeps.

Every CSV goes through one writer: comma separated, values printed with
17 significant digits so they read back bit-identically.  Dataset
layout: header ``t,x1..xn[,dx1..dxn]``, one row per sample.  Display
state names, segment boundaries and provenance travel in a
``<name>.meta.json`` sidecar next to the CSV.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import TimeSeriesDataset
from .selection import ParetoPoint

__all__ = [
    "write_csv",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_pareto_csv",
]

_FMT = "%.17g"
_BLOCK_ROWS = 1024  # rows formatted per write, which bounds the text held at once


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_csv(path: str | Path, header: list[str] | None, rows: np.ndarray) -> Path:
    """Write ``rows`` (and a header line unless it is None) at full precision."""
    path = Path(path)
    rows = np.asarray(rows, dtype=float)
    with path.open("w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        if rows.size:
            line = ",".join([_FMT] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], _BLOCK_ROWS):
                block = rows[start:start + _BLOCK_ROWS]
                # one % over the block's lines: the bytes of one % per row
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))
    return path


def write_dataset_csv(dataset: TimeSeriesDataset, path: str | Path) -> Path:
    path = Path(path)
    n = dataset.n_states
    cols = [dataset.times]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    cols.extend(dataset.states[:, i] for i in range(n))
    if dataset.derivatives is not None:
        header += [f"dx{i + 1}" for i in range(n)]
        cols.extend(dataset.derivatives[:, i] for i in range(n))
    write_csv(path, header, np.column_stack(cols))
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
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path} contains no samples")
        if header[0] != "t":
            raise DataError(f"{path} missing 't' header column")
        try:
            data = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                              comments=None, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
    n = sum(1 for h in header if h.startswith("x"))
    n_deriv = sum(1 for h in header if h.startswith("dx"))
    if 1 + n + n_deriv != len(header):
        raise DataError(f"{path} has an unrecognized column layout")
    if data.shape[1] != len(header):
        raise DataError(f"{path} has {data.shape[1]} values per row for {len(header)} columns")
    times = data[:, 0]
    states = data[:, 1:1 + n]
    derivatives = data[:, 1 + n:1 + n + n_deriv] if n_deriv else None
    state_names, segments, meta = _read_sidecar(_meta_path(path))
    return TimeSeriesDataset(
        times=times, states=states, derivatives=derivatives,
        state_names=state_names, segments=segments, meta=meta)


def _read_sidecar(path: Path) -> tuple[tuple[str, ...], tuple[int, ...], dict]:
    """State names, segment starts and provenance from a dataset sidecar, if any."""
    if not path.exists():
        return (), (0,), {}
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object")
    state_names = doc.get("state_names", [])
    segments = doc.get("segments", [0])
    meta = doc.get("meta", {})
    if not (isinstance(state_names, list) and all(isinstance(s, str) for s in state_names)):
        raise DataError(f"{path}: 'state_names' must be a list of strings")
    if not (isinstance(segments, list)
            and all(isinstance(s, int) and not isinstance(s, bool) for s in segments)):
        raise DataError(f"{path}: 'segments' must be a list of integers")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: 'meta' must be a JSON object")
    return tuple(state_names), tuple(segments), meta


def write_pareto_csv(points: list[ParetoPoint], path: str | Path) -> Path:
    rows = [(p.threshold, p.nnz_total, p.train_residual, p.validation_residual)
            for p in points]
    return write_csv(path, ["lambda", "nnz", "train_res", "val_res"], rows)


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
