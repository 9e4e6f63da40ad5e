"""Identified-model representation.

A fitted model is a dense coefficient matrix (one column per state
equation) together with the ordered list of candidate terms labelling its
rows.  Terms are monomials in the state variables; the constant term is
the all-zero monomial.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "Mode",
    "TermDescriptor",
    "SparseModel",
    "TimeSeriesDataset",
    "default_state_names",
    "render_table",
    "support",
    "model_to_json",
    "model_from_json",
]


class Mode(enum.Enum):
    CONTINUOUS = "continuous"
    DISCRETE = "discrete"


def default_state_names(n: int) -> tuple[str, ...]:
    """x, y, z, w for up to four states, x1..xn beyond that."""
    if n <= 4:
        return tuple("xyzw"[:n])
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class TermDescriptor:
    """One candidate function of the state vector: the monomial whose power of
    each state variable is given by ``exponents``."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(e, (int, np.integer)) or e < 0 for e in self.exponents):
            raise DataError(f"exponents must be non-negative integers, got {self.exponents}")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def name(self, state_names: tuple[str, ...] | list[str]) -> str:
        """Appendix-style label: '1', 'x', 'xxy', ..."""
        if self.degree == 0:
            return "1"
        return "".join(state_names[i] * e for i, e in enumerate(self.exponents))


def check_term_names(terms, state_names: tuple[str, ...]) -> None:
    """Raise ``DataError`` if two of ``terms`` share a name under ``state_names``: beside
    ``x`` and ``y``, a state ``xy`` has the name of the term x·y."""
    seen = set()
    for term in terms:
        if (name := term.name(state_names)) in seen:
            raise DataError(f"two library terms of the states {list(state_names)} "
                            f"are named {name!r}")
        seen.add(name)


def _term_source(term: TermDescriptor) -> str:
    """The term as source over states ``x0, x1, ...`` for ``SparseModel.rhs``: the flat
    product of its states in state order (``(x0 * x0 * x1)``), as Θ's column holds it,
    or ``1.0`` for the constant.  Built only from the term's integers."""
    factors = [f"x{i}" for i, e in enumerate(term.exponents) for _ in range(e)]
    return f"({' * '.join(factors)})" if factors else "1.0"


def _compile(name: str, args: str, lines: list[str], namespace: dict):
    """Define ``name(args)`` with body ``lines`` in ``namespace`` and return it."""
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _readonly(a: np.ndarray) -> np.ndarray:
    owner = a.base if isinstance(a, np.ndarray) and a.base is not None else a
    if (isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable
            and a.dtype == float and (a is owner or a.flags.c_contiguous)):
        return a  # a dataset built from another's arrays, or their row blocks, shares them
    return _frozen(np.array(a, dtype=float, order="C"))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, just built and held nowhere else, read-only: a dataset takes it as it is."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SparseModel:
    """Identified dynamics: coefficient matrix plus its term labels.

    ``coefficients`` has one row per term and one column per state
    equation; column k holds the active terms of the k-th equation.
    Instances are immutable and safe to share across threads.
    """

    terms: tuple[TermDescriptor, ...]
    coefficients: np.ndarray
    state_names: tuple[str, ...]
    mode: Mode = Mode.CONTINUOUS

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        coef = _readonly(self.coefficients)
        if coef.ndim != 2:
            raise DataError("coefficients must be a 2-d matrix")
        if coef.shape != (len(self.terms), len(self.state_names)):
            raise DataError(
                f"coefficient shape {coef.shape} does not match "
                f"{len(self.terms)} terms x {len(self.state_names)} equations"
            )
        if any(len(t.exponents) != len(self.state_names) for t in self.terms):
            raise DataError(
                f"every term needs one exponent per state, {len(self.state_names)} in all")
        check_term_names(self.terms, self.state_names)  # support and the table key terms by name
        bad = np.argwhere(~np.isfinite(coef))
        if bad.size:
            row, col = bad[0]
            raise DataError(f"coefficient {coef[row, col]} of term "
                            f"{self.terms[row].name(self.state_names)!r} in equation "
                            f"{col} ({self.state_names[col]!r}) is not finite")
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def nnz(self) -> int:
        return int(np.count_nonzero(self.coefficients))

    def rhs(self):
        """Right-hand side as generated straight-line float code.

        The returned ``f(x)`` takes the state as a length-n sequence and
        returns a tuple of n floats.  Only the terms active in some
        equation appear, rendered by :func:`_term_source`: each is one product
        of states (``x0 * x2``), and each equation is one sum of coefficient
        times term, so inside an integration loop a call costs a few float
        operations and no numpy arrays.  A term's value equals its column of
        Θ bit for bit, but the whole agrees with Θ(x) times the coefficients
        to rounding only: the sums run in another order.  The source is built
        only from integer indices and ``repr`` of the (finite) coefficients;
        no state name or other text reaches ``exec``.
        """
        equations = []
        for column in self.coefficients.T:
            parts = [f"{c!r} * {_term_source(self.terms[j])}"
                     for j, c in enumerate(column.tolist()) if c != 0.0]
            equations.append(" + ".join(parts) or "0.0")
        states = ", ".join(f"x{i}" for i in range(self.n_states))
        values = "".join(f"{e}, " for e in equations)  # a tuple even for one equation
        return _compile("rhs", "x", [f"[{states}] = x", f"return ({values})"], {})


def support(model: SparseModel) -> set[tuple[str, int]]:
    """Set of (term name, equation index) pairs with nonzero coefficient."""
    rows, cols = np.nonzero(model.coefficients)
    return {(model.terms[r].name(model.state_names), int(c)) for r, c in zip(rows, cols)}


def _format_value(v: float) -> str:
    # repr round-trips float64 exactly, which the table parser relies on
    return "0" if v == 0.0 else repr(float(v))


def render_table(model: SparseModel) -> str:
    """Render the coefficient matrix as an appendix-style text table.

    One row per term, one bracketed column per state equation; zeros are
    printed as a bare 0.  Nonzero entries are printed at full precision so
    the table parses back to the exact coefficient matrix.
    """
    if model.mode is Mode.CONTINUOUS:
        headers = [f"'{s}dot'" for s in model.state_names]
    else:
        headers = [f"'{s}_{{k+1}}'" for s in model.state_names]
    names = [f"'{t.name(model.state_names)}'" for t in model.terms]
    cells = [[_format_value(v) for v in row] for row in model.coefficients]

    name_w = max(len(s) for s in names + ["''"])
    col_w = [
        max([len(headers[j])] + [len(cells[i][j]) + 2 for i in range(len(names))])
        for j in range(len(headers))
    ]
    lines = ["    " + "''".ljust(name_w) + "    " + "    ".join(
        headers[j].ljust(col_w[j]) for j in range(len(headers)))]
    for i, name in enumerate(names):
        row = "    ".join(
            f"[{cells[i][j].rjust(col_w[j] - 2)}]" for j in range(len(headers)))
        lines.append("    " + name.ljust(name_w) + "    " + row)
    return "\n".join(lines) + "\n"


def model_to_json(model: SparseModel) -> str:
    """The model as JSON.  Each term keeps the ``"kind": "monomial"`` and
    ``"harmonic": 0`` keys of the format, which readers of ``model.json`` parse."""
    doc = {
        "state_names": list(model.state_names),
        "mode": model.mode.value,
        "terms": [
            {"kind": "monomial", "exponents": list(t.exponents), "harmonic": 0}
            for t in model.terms
        ],
        "coefficients": [[float(v) for v in row] for row in model.coefficients],
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def model_from_json(text: str) -> SparseModel:
    doc = json.loads(text)
    for i, t in enumerate(doc["terms"]):
        if t["kind"] != "monomial" or t["harmonic"] != 0:
            raise DataError(f"term {i} is not a monomial: kind {t['kind']!r}, "
                            f"harmonic {t['harmonic']!r}")
    terms = tuple(TermDescriptor(tuple(t["exponents"])) for t in doc["terms"])
    return SparseModel(
        terms=terms,
        coefficients=np.array(doc["coefficients"], dtype=float),
        state_names=tuple(doc["state_names"]),
        mode=Mode(doc["mode"]),
    )


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Sampled trajectory data: states (and optionally derivatives) on a
    time grid that increases strictly within each segment.

    ``segments`` records the start row of each independent trajectory, on
    its own clock, when several runs have been concatenated; shift-pairing
    and per-trajectory differentiation respect these boundaries.  ``meta``
    is free-form provenance (generating system, noise level, seeds).
    """

    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray | None = None
    state_names: tuple[str, ...] = ()
    segments: tuple[int, ...] = (0,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = _readonly(self.times)
        states = _readonly(self.states)
        if times.ndim != 1:
            raise DataError("times must be one-dimensional")
        if states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise DataError("states must be an m x n matrix matching times")
        segs = tuple(int(s) for s in self.segments)
        if not segs or segs[0] != 0 or list(segs) != sorted(set(segs)):
            raise DataError("segments must be sorted unique start rows beginning at 0")
        if segs[-1] >= max(states.shape[0], 1):
            raise DataError("segment start beyond end of data")
        if not np.delete(times[1:] > times[:-1], np.array(segs[1:], dtype=int) - 1).all():
            raise DataError("times must be strictly increasing within each segment")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if self.derivatives is not None:
            deriv = _readonly(self.derivatives)
            if deriv.shape != states.shape:
                raise DataError("derivatives must match the shape of states")
            object.__setattr__(self, "derivatives", deriv)
        names = tuple(self.state_names) or default_state_names(states.shape[1])
        if len(names) != states.shape[1]:
            raise DataError("state_names length must match state dimension")
        object.__setattr__(self, "state_names", names)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def segment_slices(self) -> list[slice]:
        starts = list(self.segments) + [self.n_samples]
        return [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]

