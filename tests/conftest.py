import re

import numpy as np
import pytest
from hypothesis import settings

from sindykit import DataError, LibrarySpec, SystemSpec, TimeSeriesDataset, concatenate, simulate

# every run draws the same examples, so a newly drawn one cannot turn the suite
# red; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

LORENZ_PARAMS = {"sigma": 10.0, "beta": 8.0 / 3.0, "rho": 28.0}
LORENZ_TRUE_SUPPORT = {
    ("x", 0), ("y", 0),
    ("x", 1), ("y", 1), ("xz", 1),
    ("z", 2), ("xy", 2),
}
LORENZ_TRUE_VALUES = [
    ("x", 0, -10.0), ("y", 0, 10.0),
    ("x", 1, 28.0), ("y", 1, -1.0), ("xz", 1, -1.0),
    ("z", 2, -8.0 / 3.0), ("xy", 2, 1.0),
]


@pytest.fixture(scope="session")
def lorenz_dataset():
    """Chaotic reference trajectory: t in [0, 100], dt = 0.001, exact
    derivatives from the analytic right-hand side."""
    spec = SystemSpec(
        "lorenz", x0=(-8.0, 7.0, 27.0), t_span=(0.0, 100.0), dt=0.001,
        params=LORENZ_PARAMS)
    return simulate(spec)


@pytest.fixture(scope="session")
def lorenz_library():
    return LibrarySpec(n_states=3, poly_order=5)


@pytest.fixture(scope="session")
def linear2d_dataset():
    spec = SystemSpec("linear2d", x0=(2.0, 0.0), t_span=(0.0, 25.0), dt=0.01)
    return simulate(spec)


def tail_split(ds):
    """The two sides of ``sweep`` as explicit datasets: rows [:cut] and
    [cut:] with cut = m - round(0.2 m), each keeping the segment starts
    that fall inside it, so that no segment runs across the cut."""
    cut = ds.n_samples - round(0.2 * ds.n_samples)

    def side(lo, hi):
        return TimeSeriesDataset(
            times=ds.times[lo:hi], states=ds.states[lo:hi],
            derivatives=None if ds.derivatives is None else ds.derivatives[lo:hi],
            state_names=ds.state_names,
            segments=(0, *(s - lo for s in ds.segments if lo < s < hi)))

    return side(0, cut), side(cut, ds.n_samples)


def coefficient(model, term_name: str, equation: int) -> float:
    names = [t.name(model.state_names) for t in model.terms]
    return float(model.coefficients[names.index(term_name), equation])


def max_relative_error(model, expected) -> float:
    return max(
        abs((coefficient(model, nm, eq) - truth) / truth)
        for nm, eq, truth in expected
    )


def mean_field_surrogate(params, initial_conditions, t_span=(0.0, 50.0), dt=0.01):
    """Mean-field cylinder-wake surrogate runs from several initial states.

    The on/off-manifold mix of initial conditions matters: without
    off-manifold transients the fast coordinate stays slaved to
    z = x^2 + y^2 and the regression problem degenerates.
    """
    runs = [
        simulate(SystemSpec("meanfield3d", x0=ic, t_span=t_span, dt=dt, params=params))
        for ic in initial_conditions
    ]
    return concatenate(runs) if len(runs) > 1 else runs[0]


# the name runs to the last quote before the bracketed values, so a quote
# inside a state name stays part of it
_TABLE_ROW = re.compile(r"^\s*'(.*)'\s+(\[.*)$")


def parse_table(text: str) -> np.ndarray:
    """Inverse of :func:`sindykit.render_table` (header is ignored).

    Returns the coefficient matrix exactly as rendered.  A non-blank line
    that is not a term row raises DataError.
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
