"""Round-trip and invariance properties, checked on generated inputs."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sindykit import (
    LibrarySpec,
    Mode,
    ParetoPoint,
    SparseModel,
    TimeSeriesDataset,
    build_matrix,
    enumerate_terms,
    model_from_json,
    model_to_json,
    pick_elbow,
    render_table,
)
from sindykit.dataio import read_dataset_csv, write_dataset_csv
from sindykit.model import parse_table, term_evaluator

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    times = np.cumsum(draw(st.lists(st.floats(1e-6, 1e3), min_size=m, max_size=m)))
    times += draw(st.floats(-1e3, 1e3))
    if not np.all(np.diff(times) > 0):
        times = np.arange(m, dtype=float)  # summing can round two times together
    matrix = st.lists(st.lists(finite, min_size=n, max_size=n), min_size=m, max_size=m)
    states = np.array(draw(matrix), dtype=float).reshape(m, n)
    derivatives = draw(st.none() | matrix.map(lambda rows: np.array(rows).reshape(m, n)))
    names = tuple(draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)))
    starts = draw(st.sets(st.integers(1, m - 1), max_size=3)) if m > 1 else set()
    return TimeSeriesDataset(times=times, states=states, derivatives=derivatives,
                             state_names=names, segments=(0, *sorted(starts)))


@st.composite
def models(draw, names=st.text(st.characters(categories=("L", "Nd")) | st.just("'"),
                                min_size=1, max_size=4)):
    n, order = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    harmonics = frozenset(draw(st.sets(st.integers(1, 3), max_size=2)))
    constant = draw(st.booleans()) or not (order or harmonics)  # no empty library
    spec = LibrarySpec(n, order, trig_harmonics=harmonics, include_constant=constant)
    terms = enumerate_terms(spec)
    coef = draw(st.lists(finite, min_size=len(terms) * n, max_size=len(terms) * n))
    return SparseModel(terms=terms, coefficients=np.reshape(coef, (len(terms), n)),
                       state_names=tuple(draw(st.lists(names, min_size=n, max_size=n))),
                       mode=draw(st.sampled_from(Mode)))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_dataset_csv_round_trip_is_bit_identical(tmp_path_factory, ds):
    path = write_dataset_csv(ds, tmp_path_factory.mktemp("csv") / "d.csv")
    back = read_dataset_csv(path)
    assert _same_bits(back.times, ds.times)
    assert _same_bits(back.states, ds.states)
    assert (back.derivatives is None) == (ds.derivatives is None)
    if ds.derivatives is not None:
        assert _same_bits(back.derivatives, ds.derivatives)
    assert back.state_names == ds.state_names
    assert back.segments == ds.segments


@settings(max_examples=60, deadline=None)
@given(models())
def test_model_json_round_trip(model):
    back = model_from_json(model_to_json(model))
    assert back.terms == model.terms
    assert _same_bits(back.coefficients, model.coefficients)
    assert back.state_names == model.state_names
    assert back.mode is model.mode


@settings(max_examples=60, deadline=None)
@given(models())
def test_table_round_trip(model):
    # zeros print as a bare 0, so -0.0 parses back as 0.0: compare by value
    assert np.array_equal(parse_table(render_table(model)), model.coefficients)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), order=st.integers(0, 4),
       harmonics=st.sets(st.integers(1, 4), min_size=1, max_size=2), constant=st.booleans(),
       rows=st.integers(2 * 1024 + 1, 3000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 30.0]))
def test_matrix_rows_equal_single_state_rows_across_blocks(n, order, harmonics, constant,
                                                           rows, seed, scale):
    spec = LibrarySpec(n, order, trig_harmonics=frozenset(harmonics), include_constant=constant)
    X = np.random.default_rng(seed).standard_normal((rows, n)) * scale
    theta = build_matrix(spec, X)
    one_state = term_evaluator(enumerate_terms(spec), n)
    for i in (0, 1023, 1024, rows - 1):
        assert _same_bits(theta.values[i], one_state(X[i]))
        assert _same_bits(theta.values[i:i + 1], build_matrix(spec, X[i:i + 1]).values)


@settings(max_examples=60, deadline=None)
@given(models(), st.data())
def test_rhs_is_the_terms_times_the_coefficients(model, data):
    x = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=model.n_states,
                                    max_size=model.n_states)))
    theta = term_evaluator(model.terms, model.n_states)(x)
    with np.errstate(over="ignore"):
        scale = np.abs(theta) @ np.abs(model.coefficients)  # bounds the rounding of either sum
    assume(np.isfinite(scale).all())
    assert np.all(np.abs(model.rhs()(x) - theta @ model.coefficients) <= 1e-12 * scale)


@st.composite
def sweeps(draw):
    k = draw(st.integers(1, 12))
    thresholds = sorted(draw(st.sets(st.floats(1e-6, 10.0), min_size=k, max_size=k)))
    nnz = sorted(draw(st.lists(st.integers(0, 60), min_size=k, max_size=k)), reverse=True)
    residuals = draw(st.lists(st.floats(1e-12, 1e3), min_size=k, max_size=k))
    return [ParetoPoint(lam, n, r, r) for lam, n, r in zip(thresholds, nnz, residuals)]


@settings(max_examples=200, deadline=None)
@given(sweeps(), st.integers(-40, 40))
def test_elbow_pick_ignores_power_of_two_residual_scaling(points, exponent):
    scale = 2.0 ** exponent
    scaled = [ParetoPoint(p.threshold, p.nnz_total, p.train_residual * scale,
                          p.validation_residual * scale) for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the pick warns nothing
        assert pick_elbow(scaled) == pick_elbow(points)
