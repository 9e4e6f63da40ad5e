"""Identified-model representation.

A fitted model is a dense coefficient matrix (one column per state
equation) together with the ordered list of candidate terms labelling its
rows.  Terms are monomials in the state variables or single-variable
harmonics; the constant term is the all-zero monomial.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "TermKind",
    "Mode",
    "TermDescriptor",
    "SparseModel",
    "TimeSeriesDataset",
    "default_state_names",
    "evaluate_rhs",
    "render_table",
    "support",
    "model_to_json",
    "model_from_json",
]


class TermKind(enum.Enum):
    MONOMIAL = "monomial"
    SINE = "sine"
    COSINE = "cosine"


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
    """One candidate function of the state vector.

    ``exponents`` gives the monomial powers per state variable.  For trig
    terms the single nonzero entry (which must be 1) selects the variable
    and ``harmonic`` is the frequency multiplier k in sin(k x)/cos(k x);
    monomials carry ``harmonic == 0``.
    """

    kind: TermKind
    exponents: tuple[int, ...]
    harmonic: int = 0

    def __post_init__(self) -> None:
        if any(not isinstance(e, (int, np.integer)) or e < 0 for e in self.exponents):
            raise DataError(f"exponents must be non-negative integers, got {self.exponents}")
        if self.kind is TermKind.MONOMIAL:
            if self.harmonic != 0:
                raise DataError("monomial terms carry harmonic=0")
        else:
            if self.harmonic < 1:
                raise DataError("trig terms need a positive harmonic")
            if sum(self.exponents) != 1 or max(self.exponents) != 1:
                raise DataError("trig terms reference exactly one state variable")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def name(self, state_names: tuple[str, ...] | list[str]) -> str:
        """Appendix-style label: '1', 'x', 'xxy', 'sin(2x)', ..."""
        if self.kind is TermKind.MONOMIAL:
            if self.degree == 0:
                return "1"
            return "".join(state_names[i] * e for i, e in enumerate(self.exponents))
        fn = "sin" if self.kind is TermKind.SINE else "cos"
        k = "" if self.harmonic == 1 else str(self.harmonic)
        return f"{fn}({k}{state_names[self.exponents.index(1)]})"


def term_evaluator(terms, n_states: int):
    """Compile a term sequence into a callable from states (..., n_states) to
    term values (..., len(terms)), written to ``out`` if given; the callable
    does not check its input.  A term multiplies column e * c of each state's
    row [x^0 ... x^d, sin(k x) ..., cos(k x) ...], e its exponent there: c is 1
    for monomials, else the term's sin/cos column."""
    terms = tuple(terms)
    if any(len(t.exponents) != n_states for t in terms):
        raise DataError(f"a state of length {n_states} does not match the terms' exponents")
    degree = max((e for t in terms for e in t.exponents), default=0)
    harmonics = sorted({t.harmonic for t in terms} - {0})
    trig = [(kind, h) for kind in (TermKind.SINE, TermKind.COSINE) for h in harmonics]
    width = degree + 1 + len(trig)
    c = {(TermKind.MONOMIAL, 0): 1} | {key: degree + 1 + j for j, key in enumerate(trig)}
    index = np.array([[i * width + e * c[t.kind, t.harmonic] for i, e in enumerate(t.exponents)]
                      for t in terms], dtype=np.intp).reshape(len(terms), n_states)
    k = np.array(harmonics, dtype=float)

    def theta(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        table = np.empty((*X.shape, width))
        table[..., 0] = 1.0
        for e in range(1, degree + 1):
            table[..., e] = X if e == 1 else X ** e  # X ** 1 is the same, and slower
        if trig:
            kx = X[..., None] * k
            table[..., degree + 1:] = np.concatenate((np.sin(kx), np.cos(kx)), axis=-1)
        gathered = table.reshape(*X.shape[:-1], -1).take(index, axis=-1)
        return np.multiply.reduce(gathered, axis=-1, out=out)

    return theta


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
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
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def nnz(self) -> int:
        return int(np.count_nonzero(self.coefficients))

    def rhs(self):
        """Compiled right-hand-side evaluator.

        Only terms that are active in some equation are evaluated, so the
        returned callable is cheap inside integration loops.
        """
        active = np.flatnonzero(np.any(self.coefficients != 0.0, axis=1))
        coef = self.coefficients[active, :]
        theta = term_evaluator([self.terms[i] for i in active], self.n_states)
        n = self.n_states

        def rhs(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            if x.shape != (n,):
                raise DataError(f"state vector has shape {x.shape}, expected ({n},)")
            return theta(x) @ coef

        return rhs


def evaluate_rhs(model: SparseModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the identified right-hand side at a single state.

    The active terms go through :func:`term_evaluator`, the evaluator that
    also builds the library matrix, so Θ(x) here equals the row that
    ``build_matrix`` gives for x; no data matrix is formed.
    """
    return model.rhs()(x)


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
    doc = {
        "state_names": list(model.state_names),
        "mode": model.mode.value,
        "terms": [
            {"kind": t.kind.value, "exponents": list(t.exponents), "harmonic": t.harmonic}
            for t in model.terms
        ],
        "coefficients": [[float(v) for v in row] for row in model.coefficients],
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def model_from_json(text: str) -> SparseModel:
    doc = json.loads(text)
    terms = tuple(
        TermDescriptor(TermKind(t["kind"]), tuple(t["exponents"]), t["harmonic"])
        for t in doc["terms"]
    )
    return SparseModel(
        terms=terms,
        coefficients=np.array(doc["coefficients"], dtype=float),
        state_names=tuple(doc["state_names"]),
        mode=Mode(doc["mode"]),
    )


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Sampled trajectory data: states (and optionally derivatives) on a
    strictly increasing time grid.

    ``segments`` records the start row of each independent trajectory when
    several runs have been concatenated; shift-pairing and per-trajectory
    differentiation respect these boundaries.  ``meta`` is free-form
    provenance (generating system, noise level, seeds).
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
        if times.shape[0] >= 2 and not np.all(np.diff(times) > 0):
            raise DataError("times must be strictly increasing")
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
        segs = tuple(int(s) for s in self.segments)
        if not segs or segs[0] != 0 or list(segs) != sorted(set(segs)):
            raise DataError("segments must be sorted unique start rows beginning at 0")
        if segs[-1] >= max(states.shape[0], 1):
            raise DataError("segment start beyond end of data")
        object.__setattr__(self, "segments", segs)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def segment_slices(self) -> list[slice]:
        starts = list(self.segments) + [self.n_samples]
        return [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]

    def with_(self, **updates) -> "TimeSeriesDataset":
        """Functional update; arrays are re-validated by the constructor."""
        fields = {
            "times": self.times,
            "states": self.states,
            "derivatives": self.derivatives,
            "state_names": self.state_names,
            "segments": self.segments,
            "meta": dict(self.meta),
        }
        fields.update(updates)
        return TimeSeriesDataset(**fields)


# the name runs to the last quote before the bracketed values, so a quote
# inside a state name stays part of it
_TABLE_ROW = re.compile(r"^\s*'(.*)'\s+(\[.*)$")


def parse_table(text: str) -> np.ndarray:
    """Inverse of :func:`render_table` (header is ignored).

    Intended for tests and for inspecting saved tables; returns the
    coefficient matrix exactly as rendered.  A non-blank line that is not
    a term row raises DataError.
    """
    rows = []
    for number, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        m = _TABLE_ROW.match(line)
        cells = re.findall(r"\[\s*([^\]]+?)\s*\]", m.group(2)) if m else []
        try:
            row = [float(v) for v in cells]
        except ValueError:
            row = []
        if not row or (rows and len(row) != len(rows[0])):
            raise DataError(f"table line {number} is not a term row: {line!r}")
        rows.append(row)
    return np.array(rows, dtype=float)
