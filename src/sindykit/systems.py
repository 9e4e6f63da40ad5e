"""Ground-truth trajectory generation for the benchmark systems.

Continuous systems are integrated with fixed-step RK4; derivatives
stored in a generated dataset come from the analytic right-hand side at
the sample points, never from numerical differentiation.  The logistic
map is iterated directly.  Parameterized and forced systems are handled
by state augmentation: ``augment_signal`` appends a known signal as an
extra state, such as a bifurcation parameter (a constant with zero
derivative), time (with unit derivative) or a forcing input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .integrate import rk4_fixed
from .model import TimeSeriesDataset, _compile, _frozen, default_state_names

__all__ = [
    "SystemSpec",
    "system_rhs",
    "simulate",
    "iterate_map",
    "augment_signal",
    "concatenate",
    "logistic_ensemble",
]

# flow kind -> (state count, the parameters its runs read, its right-hand side
# as source lines over the states x0, x1, ... and those parameters).  A body
# uses only +, - and products, the rule of the whole package: a monomial is its
# states multiplied left to right, x0 * x0, never x0 ** 2, here as in the
# library Θ and in SparseModel.rhs, because ** calls libm pow, which can round
# differently from a product; and a linear system is a sum, never a matrix
# product, which BLAS rounds differently for one state and for a state matrix.
# So a value has the same bits whether it comes from one state or from many.
_SYSTEMS = {
    "linear2d": (2, (), ["return -0.1 * x0 + 2.0 * x1, -2.0 * x0 - 0.1 * x1"]),
    "cubic2d": (2, (), ["c0, c1 = x0 * x0 * x0, x1 * x1 * x1",
                        "return -0.1 * c0 + 2.0 * c1, -2.0 * c0 - 0.1 * c1"]),
    "linear3d": (3, (), ["return -0.1 * x0 + 2.0 * x1, -2.0 * x0 - 0.1 * x1, -0.3 * x2"]),
    "lorenz": (3, ("sigma", "beta", "rho"),
               ["return sigma * (x1 - x0), x0 * (rho - x2) - x1, x0 * x1 - beta * x2"]),
    "meanfield3d": (3, ("mu", "omega", "A", "lam"),
                    ["return (mu * x0 - omega * x1 + A * x0 * x2,",
                     "        omega * x0 + mu * x1 + A * x1 * x2,",
                     "        -lam * (x2 - x0 * x0 - x1 * x1))"]),
    "hopf": (2, ("mu", "omega", "A"),
             ["r2 = x0 * x0 + x1 * x1",
              "return mu * x0 - omega * x1 - A * x0 * r2, omega * x0 + mu * x1 - A * x1 * r2"]),
}
# the kind name of the one map, which iterate_map steps
MAP = "logistic"
# the most steps a run takes, 100 times lorenz's 1e5: far beyond it np.arange
# refuses the grid, and well before that the samples outgrow memory
MAX_STEPS = 10**7


def bound_steps(steps: float, what: str) -> None:
    """Refuse a run of more than ``MAX_STEPS`` steps; ``what`` names what sets it."""
    if not steps <= MAX_STEPS:  # infinity too
        raise ConfigError(f"{what} is more than {MAX_STEPS} steps, the most a run takes")


def grid_steps(t_span, dt: float, span: str = "t_span", step: str = "dt") -> int:
    """The number of ``dt`` steps over ``t_span``, one at least and at most
    ``MAX_STEPS``; ``span`` and ``step`` name the two in messages."""
    if len(t_span) != 2 or not t_span[0] < t_span[1]:
        raise ConfigError(f"{span} {t_span} must hold a start and a later end time")
    steps, what = (t_span[1] - t_span[0]) / dt, f"{span} {t_span} over {step} {dt!r}"
    bound_steps(steps, what)
    if (n := round(steps)) < 1:
        raise ConfigError(f"{what} is shorter than one step")
    return n


@dataclass(frozen=True)
class SystemSpec:
    """A flow of ``_SYSTEMS`` and the grid it is sampled on: ``dt`` steps over ``t_span``."""

    kind: str
    x0: tuple[float, ...]
    t_span: tuple[float, float] = (0.0, 10.0)
    dt: float = 0.01
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SYSTEMS:
            raise ConfigError(f"unknown system kind {self.kind!r}")
        n, names, _ = _SYSTEMS[self.kind]
        missing = [p for p in names if p not in self.params]
        if missing:
            raise ConfigError(f"{self.kind} needs parameters {missing}")
        if self.kind == "meanfield3d" and not self.params["lam"] > 0:
            raise ConfigError(f"meanfield3d needs a positive relaxation rate lam, "
                              f"not {self.params['lam']!r}")
        if len(self.x0) != n:
            raise ConfigError(f"{self.kind} needs {n} initial values in x0")
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, not {self.dt!r}")
        grid_steps(self.t_span, self.dt)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))


def system_rhs(spec: SystemSpec):
    """Analytic right-hand side of a continuous system, compiled from its
    ``_SYSTEMS`` body as ``SparseModel.rhs`` compiles a model.

    The function takes the state as a sequence of n components, either n
    floats (one state, as the integrators and ``simulate``'s derivative
    pass call it) or n equal-length arrays (the rows of a transposed state
    matrix, ``f(states.T)``, a whole trajectory in one call), and returns
    n values of the same form, with the same bits for a state either way.
    The parameter values are bound as names of the function's namespace,
    so the compiled source is only the table's own text.
    """
    n, names, body = _SYSTEMS[spec.kind]
    states = ", ".join(f"x{i}" for i in range(n))
    return _compile(spec.kind, "x", [f"{states} = x", *body],
                    {name: spec.params[name] for name in names})


def simulate(spec: SystemSpec, derivatives: bool = True) -> TimeSeriesDataset:
    """Integrate a continuous system by fixed-step RK4 on the requested sample grid.

    The stored derivatives are the analytic right-hand side evaluated at
    each sampled state, on Python floats as the integrator evaluates it;
    ``derivatives=False`` skips that pass and stores none.  A trajectory
    that overflows raises :class:`NumericalError` naming the time of its
    first non-finite sample.
    """
    f = system_rhs(spec)
    times = spec.t_span[0] + spec.dt * np.arange(grid_steps(spec.t_span, spec.dt) + 1)
    x0 = np.array(spec.x0, dtype=float)
    meta = {
        "system": spec.kind,
        "params": dict(spec.params),
        "x0": list(spec.x0),
        "dt": spec.dt,
        "integrator": "rk4",
    }
    states = rk4_fixed(f, x0, times)
    finite = np.isfinite(states).all(axis=1)
    deriv = None
    if derivatives:
        # a block of rows at a time, so the float lists stay small next to the output
        deriv = np.empty_like(states)
        for a in range(0, len(states), 256):
            deriv[a:a + 256] = [f(x) for x in states[a:a + 256].tolist()]
        finite &= np.isfinite(deriv).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"{spec.kind} trajectory is not finite at t={times[np.argmin(finite)]:.6g}")
    return TimeSeriesDataset(
        times=_frozen(times),
        states=_frozen(states),
        derivatives=None if deriv is None else _frozen(deriv),
        state_names=default_state_names(states.shape[1]),
        meta=meta,
    )


# Forcing samples drawn per chunk.  The 6,015 runs of configs/logistic.json iterate
# a median of 29 steps (90th percentile 158, longest 100,000); chunks of 32 to 256
# map them within noise of each other, 512 is slower and 4,096 twice as slow.
FORCING_CHUNK = 256


def iterate_map(mu: float, n_steps: int, eta: float = 0.0, seed: int = 0,
                x0: float = 0.5) -> TimeSeriesDataset:
    """Iterate the logistic map x_{k+1} = mu x_k (1 - x_k) + eta z_k from
    ``x0``, each z_k a standard normal draw of a generator seeded with
    ``seed``.  mu is stored as an appended constant state ``r``, so runs over
    several values can be joined and fit jointly.  An iterate escaping
    [-0.5, 1.5], outside which the map diverges, truncates the run with a warning.
    """
    mu, x0 = float(mu), float(x0)
    if not 0.0 < x0 < 1.0:
        raise ConfigError("logistic map needs x0 in (0, 1)")
    if not 0.0 < mu <= 4.0:
        raise ConfigError("logistic map needs mu in (0, 4]")
    if n_steps < 0:
        raise ConfigError(f"logistic map needs n_steps >= 0, got {n_steps}")
    if not 0.0 <= eta < np.inf:
        raise ConfigError("eta must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    xs, x = [x0], x0
    # a stream drawn in chunks equals one drawn at once, so an early escape draws
    # less; unforced, a step adds 0.0 * z, which changes no bit of the iterate
    while len(xs) <= n_steps:
        for w in (eta * rng.standard_normal(min(FORCING_CHUNK, n_steps + 1 - len(xs)))).tolist():
            x = mu * x * (1.0 - x) + w
            if not -0.5 <= x <= 1.5:
                break
            xs.append(x)
        else:
            continue  # the chunk is used up: draw the next
        warnings.warn(f"logistic iterate escaped [-0.5, 1.5] at step {len(xs)} "
                      f"(mu={mu}); truncating")
        break
    xcol = np.array(xs)
    return TimeSeriesDataset(
        times=_frozen(np.arange(xcol.shape[0], dtype=float)),
        states=_frozen(np.column_stack([xcol, np.full(xcol.shape[0], mu)])),
        state_names=("x", "r"),
        meta={"system": MAP, "mu": mu, "eta": eta, "seed": seed, "x0": x0},
    )


def logistic_ensemble(mus, n_steps: int, eta: float, seed: int = 0,
                      x0: float = 0.5) -> TimeSeriesDataset:
    """Logistic-map training ensemble over several parameter values.

    Collects ``n_steps`` transitions per value, wherever the noise drives
    the map: a run that escapes is continued by a fresh seeded run in a new
    segment, run j of the i-th value forced from seed ``seed + 1000 * i + j``.
    One warning per call names how many runs were truncated at each mu.
    """
    blocks, metas, truncated = [], [], {}
    with warnings.catch_warnings():
        # one summary warning below replaces the per-run ones
        warnings.filterwarnings("ignore", "logistic iterate escaped")
        for i, mu in enumerate(mus):
            runs, collected, attempt = [], 0, 0
            while collected < n_steps:
                run = iterate_map(mu, n_steps - collected, eta, seed + 1000 * i + attempt, x0)
                runs.append(run)
                collected += run.n_samples - 1
                attempt += 1
                if attempt > 10 * n_steps:
                    raise NumericalError(f"logistic ensemble stalled at mu={mu}")
            if attempt > 1:  # every run but the last was truncated
                truncated[float(mu)] = truncated.get(float(mu), 0) + attempt - 1
            blocks.append(concatenate(runs))  # the small runs of one value held at a time
            metas += [run.meta for run in runs]
    if truncated:
        counts = ", ".join(f"{n} at mu={mu}" for mu, n in truncated.items())
        warnings.warn(f"logistic iterates escaped [-0.5, 1.5]: {sum(truncated.values())} "
                      f"truncated runs restarted ({counts})")
    return replace(concatenate(blocks), meta={"runs": metas})


def augment_signal(
    ds: TimeSeriesDataset,
    name: str,
    samples: np.ndarray,
    derivative_samples: np.ndarray | None = None,
) -> TimeSeriesDataset:
    """Append a known signal sampled on the dataset grid as a new state.

    Each of ``samples`` and ``derivative_samples`` is one value per sample.
    The derivative is needed when the dataset holds derivatives.  A
    bifurcation parameter ``mu`` is ``np.full(m, mu)`` with derivative
    ``np.zeros(m)``, time is ``ds.times`` with ``np.ones(m)``, and a forcing
    or control input is its samples with their derivative.
    """
    col = np.asarray(samples, dtype=float)
    dcol = None if derivative_samples is None else np.asarray(derivative_samples, dtype=float)
    for role, values in (("signal", col), ("derivative", dcol)):
        if values is not None and values.shape != (ds.n_samples,):
            raise DataError(f"{role} of {name!r} must hold one value per sample, "
                            f"shape ({ds.n_samples},), not {values.shape}")
    if name in ds.state_names:
        raise DataError(f"state {name!r} already present")
    if ds.derivatives is not None and dcol is None:
        raise DataError(f"appending {name!r} needs a derivative column")
    derivatives = (None if ds.derivatives is None
                   else _frozen(np.column_stack([ds.derivatives, dcol])))
    return replace(ds, states=_frozen(np.column_stack([ds.states, col])), derivatives=derivatives,
                   state_names=ds.state_names + (name,))


def concatenate(datasets: list[TimeSeriesDataset]) -> TimeSeriesDataset:
    """Stack several runs into one dataset with recorded segment starts.

    Each run keeps its own time stamps, so the times restart at every
    segment start; fits and differentiation treat segments independently.
    A lone dataset is returned as it is.
    """
    if not datasets:
        raise DataError("nothing to concatenate")
    if len(datasets) == 1:
        return datasets[0]
    names = datasets[0].state_names
    has_deriv = datasets[0].derivatives is not None
    for ds in datasets[1:]:
        if ds.state_names != names:
            raise DataError("state names differ between datasets")
        if (ds.derivatives is not None) != has_deriv:
            raise DataError("derivative presence differs between datasets")
    segments, row = [], 0
    for ds in datasets:
        segments.extend(row + s for s in ds.segments)
        row += ds.n_samples
    return TimeSeriesDataset(
        times=_frozen(np.concatenate([ds.times for ds in datasets])),
        states=_frozen(np.vstack([ds.states for ds in datasets])),
        derivatives=_frozen(np.vstack([ds.derivatives for ds in datasets])) if has_deriv else None,
        state_names=names,
        segments=tuple(segments),
        meta={"runs": [dict(ds.meta) for ds in datasets]},
    )
