import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    DataError,
    LibrarySpec,
    Mode,
    SparseModel,
    StlsqConfig,
    TermDescriptor,
    TimeSeriesDataset,
    TvDiffConfig,
    augment_signal,
    build_matrix,
    concatenate,
    differentiate_dataset,
    enumerate_terms,
    fit,
    model_from_json,
    model_to_json,
    render_table,
    support,
)
from sindykit.model import default_state_names
from conftest import parse_table


def linear_model(coeffs, names=("x", "y")):
    terms = enumerate_terms(LibrarySpec(len(names), 1, include_constant=False))
    return SparseModel(terms=terms, coefficients=np.array(coeffs, float), state_names=names)


def lorenz_true_model():
    terms = enumerate_terms(LibrarySpec(3, 2))
    names = [t.name(("x", "y", "z")) for t in terms]
    coef = np.zeros((len(terms), 3))
    coef[names.index("x"), 0] = -10.0
    coef[names.index("y"), 0] = 10.0
    coef[names.index("x"), 1] = 28.0
    coef[names.index("y"), 1] = -1.0
    coef[names.index("xz"), 1] = -1.0
    coef[names.index("z"), 2] = -8.0 / 3.0
    coef[names.index("xy"), 2] = 1.0
    return SparseModel(terms=terms, coefficients=coef, state_names=("x", "y", "z"))


class TestTermDescriptor:
    def test_constant_is_all_zero_monomial(self):
        t = TermDescriptor((0, 0))
        assert t.name(("x", "y")) == "1"
        assert t.degree == 0

    def test_monomial_names_use_repeated_letters(self):
        assert TermDescriptor((2, 1)).name(("x", "y")) == "xxy"
        assert TermDescriptor((0, 3)).name(("x", "y")) == "yyy"

    def test_negative_exponent_rejected(self):
        with pytest.raises(DataError):
            TermDescriptor((-1, 0))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(DataError, match="integers"):
            TermDescriptor((1.5, 0))


class TestModelRhs:
    def test_linear_model_example(self):
        m = linear_model([[-0.1, -2.0], [2.0, -0.1]])
        out = m.rhs()([1.0, 0.0])
        assert np.allclose(out, [-0.1, -2.0], atol=0)

    def test_zero_model_gives_zero(self):
        m = linear_model(np.zeros((2, 2)))
        assert m.rhs()([3.0, -4.0]) == (0.0, 0.0)

    def test_lorenz_true_rhs_at_initial_condition(self):
        # sigma(y-x)=10*15, x(rho-z)-y=-8-7, xy-beta*z=-56-72
        out = lorenz_true_model().rhs()([-8.0, 7.0, 27.0])
        assert np.allclose(out, [150.0, -15.0, -128.0], rtol=0, atol=1e-12)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(7)
        terms = enumerate_terms(LibrarySpec(2, 3))
        for _ in range(20):
            c1 = rng.standard_normal((len(terms), 2))
            c2 = rng.standard_normal((len(terms), 2))
            a, b = rng.standard_normal(2)
            x = rng.standard_normal(2).tolist()
            m1 = SparseModel(terms, c1, ("x", "y"))
            m2 = SparseModel(terms, c2, ("x", "y"))
            m12 = SparseModel(terms, a * c1 + b * c2, ("x", "y"))
            lhs = np.array(m12.rhs()(x))
            rhs = a * np.array(m1.rhs()(x)) + b * np.array(m2.rhs()(x))
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_terms_of_another_state_count_are_a_data_error(self):
        with pytest.raises(DataError, match="one exponent per state, 2 in all"):
            SparseModel(enumerate_terms(LibrarySpec(3, 1)), np.ones((4, 2)), ("x", "y"))


def _sparse_model(spec, names, seed, zero_equation=None):
    """A model on ``spec``'s terms with about a third of its coefficients set."""
    rng = np.random.default_rng(seed)
    terms = enumerate_terms(spec)
    shape = (len(terms), len(names))
    coef = rng.standard_normal(shape) * (rng.random(shape) < 0.35)
    if zero_equation is not None:
        coef[:, zero_equation] = 0.0
    return SparseModel(terms, coef, names)


class TestGeneratedRhs:
    """``SparseModel.rhs`` is generated float code; it must agree with the
    library's Θ(x) @ coefficients to rounding."""

    @pytest.mark.parametrize("spec, names, zero_equation", [
        # constant, cubic, and an all-zero equation
        (LibrarySpec(3, 3), ("x", "y", "z"), 1),
        (LibrarySpec(1, 5), ("x",), None),
        (LibrarySpec(10, 2), default_state_names(10), None),  # x9 and later in the source
    ])
    def test_equals_the_library_row_to_rounding(self, spec, names, zero_equation):
        model = _sparse_model(spec, names, seed=len(names), zero_equation=zero_equation)
        active = np.flatnonzero(np.any(model.coefficients != 0.0, axis=1))
        coef = model.coefficients[active]
        f = model.rhs()
        X = 2.0 * np.random.default_rng(1).standard_normal((200, model.n_states))
        for x in X:
            got = np.array(f(x.tolist()))
            assert got.shape == (model.n_states,) and got.dtype == float
            row = build_matrix(spec, x[None]).values[0, active]
            # each equation is one sum: its rounding is bounded by the sum of |terms|
            scale = np.abs(row) @ np.abs(coef)
            assert np.all(np.abs(got - row @ coef) <= 4 * np.finfo(float).eps * scale)
            if zero_equation is not None:
                assert got[zero_equation] == 0.0

    def test_hostile_state_names_do_not_reach_the_source(self):
        spec = LibrarySpec(3, 2)
        plain = _sparse_model(spec, ("x", "y", "z"), seed=3)
        hostile = SparseModel(plain.terms, plain.coefficients,
                              ("x'\"", "__import__('os').system('false')", "z\n)\nraise SystemExit"))
        f, g = plain.rhs(), hostile.rhs()
        for attr in ("co_code", "co_consts", "co_names", "co_varnames"):
            assert getattr(f.__code__, attr) == getattr(g.__code__, attr)
        assert f([0.5, -1.5, 2.0]) == g([0.5, -1.5, 2.0])


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_names_the_term_and_equation(self, bad):
        coef = np.eye(2)
        coef[1, 0] = bad
        with pytest.raises(DataError, match=r"term 'y' in equation 0 \('x'\) is not finite"):
            linear_model(coef)

    def test_model_file_with_nan_is_a_data_error(self):
        doc = json.loads(model_to_json(lorenz_true_model()))
        doc["coefficients"][4][2] = float("nan")
        text = json.dumps(doc)  # writes NaN, which json.loads reads back
        assert "NaN" in text
        with pytest.raises(DataError, match="in equation 2 \\('z'\\) is not finite"):
            model_from_json(text)


class TestRenderTable:
    def test_two_state_linear_structure(self, linear2d_dataset):
        terms = enumerate_terms(LibrarySpec(2, 5))
        coef = np.zeros((len(terms), 2))
        names = [t.name(("x", "y")) for t in terms]
        coef[names.index("x"), 0] = -0.1015
        coef[names.index("y"), 0] = 2.0027
        coef[names.index("x"), 1] = -1.9990
        coef[names.index("y"), 1] = -0.0994
        text = render_table(SparseModel(terms, coef, ("x", "y")))
        lines = text.splitlines()
        assert lines[0].split() == ["''", "'xdot'", "'ydot'"]
        assert len(lines) == 1 + 21
        assert sum(line.count("[") - line.count("[0]") - line.count("[ 0]")
                   for line in lines) >= 0  # structural smoke
        assert text.count("-0.1015") == 1 and text.count("2.0027") == 1
        assert np.count_nonzero(parse_table(text)) == 4

    def test_all_zero_single_state_rows(self):
        terms = enumerate_terms(LibrarySpec(1, 1))
        m = SparseModel(terms, np.zeros((2, 1)), ("x",))
        text = render_table(m)
        lines = text.splitlines()
        assert [ln.split()[0] for ln in lines[1:]] == ["'1'", "'x'"]
        assert np.array_equal(parse_table(text), np.zeros((2, 1)))

    def test_three_state_order_two_has_ten_rows(self):
        terms = enumerate_terms(LibrarySpec(3, 2))
        m = SparseModel(terms, np.zeros((len(terms), 3)), ("x", "y", "z"))
        assert len(render_table(m).splitlines()) == 1 + 10

    def test_discrete_mode_headers(self):
        terms = enumerate_terms(LibrarySpec(2, 1))
        m = SparseModel(terms, np.zeros((3, 2)), ("x", "r"), mode=Mode.DISCRETE)
        assert render_table(m).splitlines()[0].split() == ["''", "'x_{k+1}'", "'r_{k+1}'"]

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(11)
        terms = enumerate_terms(LibrarySpec(3, 3))
        for _ in range(10):
            coef = rng.standard_normal((len(terms), 3))
            coef[rng.random(coef.shape) < 0.6] = 0.0
            m = SparseModel(terms, coef, ("x", "y", "z"))
            parsed = parse_table(render_table(m))
            assert parsed.shape == coef.shape
            assert np.array_equal(parsed, coef)


    def test_quoted_state_name_keeps_every_row(self):
        terms = enumerate_terms(LibrarySpec(1, 2))
        m = SparseModel(terms, np.array([[1.5], [0.0], [-2.0]]), ("x'",))
        assert np.array_equal(parse_table(render_table(m)), m.coefficients)

    def test_row_that_does_not_parse_is_an_error(self):
        text = render_table(SparseModel(enumerate_terms(LibrarySpec(1, 1)), np.ones((2, 1)), ("x",)))
        assert parse_table(text + "\n").shape == (2, 1)  # blank lines are skipped
        for bad in ("    'x' 1.0", "    'x'    [abc]", "    'xx'    [1.0]    [2.0]"):
            with pytest.raises(DataError, match="line 4"):
                parse_table(text + bad + "\n")


class TestSupport:
    def test_lorenz_table_structure(self):
        assert support(lorenz_true_model()) == {
            ("x", 0), ("y", 0), ("x", 1), ("y", 1), ("xz", 1), ("z", 2), ("xy", 2)}

    def test_zero_model_empty(self):
        m = linear_model(np.zeros((2, 2)))
        assert support(m) == set()


class TestJsonRoundTrip:
    def test_model_survives_serialization(self):
        m = lorenz_true_model()
        again = model_from_json(model_to_json(m))
        assert again.terms == m.terms
        assert again.state_names == m.state_names
        assert again.mode is m.mode
        assert np.array_equal(again.coefficients, m.coefficients)

    def test_term_with_one_exponent_per_state_too_many_is_rejected(self):
        doc = json.loads(model_to_json(linear_model(np.eye(2))))
        doc["terms"][0]["exponents"] = [1, 0, 0]
        with pytest.raises(DataError, match="one exponent per state"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key,value", [("kind", "sine"), ("harmonic", 1)])
    def test_a_term_that_is_not_a_monomial_is_refused(self, key, value):
        doc = json.loads(model_to_json(lorenz_true_model()))
        doc["terms"][3][key] = value
        with pytest.raises(DataError, match="term 3 is not a monomial"):
            model_from_json(json.dumps(doc))

    def test_schema_fields(self):
        doc = json.loads(model_to_json(lorenz_true_model()))
        assert set(doc) == {"state_names", "mode", "terms", "coefficients"}
        assert set(doc["terms"][0]) == {"kind", "exponents", "harmonic"}


class TestTimeSeriesDataset:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 1)))

    def test_times_restart_only_at_a_segment_start(self):
        times = np.array([0.0, 1.0, 2.0, 0.0, 1.0])
        ds = TimeSeriesDataset(times=times, states=np.zeros((5, 1)), segments=(0, 3))
        assert ds.times.tobytes() == times.tobytes()
        for segments in ((0,), (0, 2), (0, 4)):
            with pytest.raises(DataError, match="within each segment"):
                TimeSeriesDataset(times=times, states=np.zeros((5, 1)), segments=segments)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.arange(3.0), states=np.zeros((4, 2)))
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.arange(3.0), states=np.zeros((3, 2)),
                              derivatives=np.zeros((3, 1)))

    def test_rejects_bad_segments(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.arange(4.0), states=np.zeros((4, 1)), segments=(1,))
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.arange(4.0), states=np.zeros((4, 1)), segments=(0, 9))

    def test_default_names_and_segment_slices(self):
        ds = TimeSeriesDataset(times=np.arange(5.0), states=np.zeros((5, 3)), segments=(0, 2))
        assert ds.state_names == ("x", "y", "z")
        assert ds.segment_slices() == [slice(0, 2), slice(2, 5)]

    def test_arrays_are_read_only(self):
        ds = TimeSeriesDataset(times=np.arange(3.0), states=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            ds.states[0, 0] = 1.0

    def test_a_dataset_built_from_another_shares_its_arrays(self):
        # a caller's writable array is copied, so writing to it later leaves the
        # dataset as it was; a dataset's own read-only array is taken as it is
        times, states = np.arange(3.0), np.zeros((3, 1))
        ds = TimeSeriesDataset(times=times, states=states)
        times[0], states[0, 0] = -1.0, 5.0
        assert ds.times[0] == 0.0 and ds.states[0, 0] == 0.0
        noised = TimeSeriesDataset(ds.times, ds.states + 1.0, state_names=ds.state_names)
        assert noised.times is ds.times and not noised.states.flags.writeable

    def test_a_dataset_built_from_row_blocks_of_another_shares_them(self):
        # a row block of a dataset's array is read-only and contiguous, so it is
        # taken as it is; a column block, or a row block of a caller's writable
        # array, is copied
        ds = TimeSeriesDataset(times=np.arange(6.0), states=np.arange(12.0).reshape(6, 2))
        block = TimeSeriesDataset(ds.times[2:5], ds.states[2:5])
        assert block.times.base is ds.times and block.states.base is ds.states
        column = TimeSeriesDataset(ds.times, ds.states[:, 1:])
        assert column.states.base is None and column.states.flags.c_contiguous
        states = np.zeros((6, 1))
        mine = TimeSeriesDataset(times=ds.times[:3], states=states[:3])
        states[0, 0] = 5.0
        assert mine.states[0, 0] == 0.0 and not mine.states.flags.writeable


def _dataset(m: int, segments=(0,), derivatives=True) -> TimeSeriesDataset:
    """Random data of m samples of 3 states, each segment on its own clock."""
    rng = np.random.default_rng(0)
    ends = [*segments[1:], m]
    times = np.concatenate([np.arange(b - a, dtype=float) for a, b in zip(segments, ends)])
    return TimeSeriesDataset(times, rng.standard_normal((m, 3)),
                             rng.standard_normal((m, 3)) if derivatives else None,
                             segments=segments)


def _stepped(m: int, length: int) -> TimeSeriesDataset:
    """``_dataset`` without derivatives in segments of ``length`` samples,
    segment k on the step 1 + k/100: each TV call solves one segment, so
    its work arrays stay small beside the output (peak / new bytes 1.21)."""
    ds = _dataset(m, tuple(range(0, m, length)), derivatives=False)
    return replace(ds, times=ds.times * np.repeat(1.0 + np.arange(m // length) / 100, length))


M = 100_000
# producer -> (its inputs, built once, and the call); the call's new arrays
# are those of the returned dataset that its inputs do not hold
PRODUCERS = {
    "concatenate": (lambda: [_dataset(M // 4) for _ in range(4)], concatenate),
    "augment_signal": (lambda: _dataset(M),
                       lambda ds: augment_signal(ds, "u", np.full(M, 3.0), np.zeros(M))),
    "differentiate_dataset": (lambda: _stepped(M, 1000),
                              lambda ds: differentiate_dataset(ds, TvDiffConfig(0.01, 1))),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_a_dataset_adopts_the_arrays_its_producer_built(name):
    # the dataset keeps each new array as its producer built it, so the call
    # holds one set of them at its peak; copying them again holds two
    # (peak / new bytes measured: 2.00-2.01 with the copy, 1.05-1.13 without)
    make, produce = PRODUCERS[name]
    given = make()
    inputs = {id(a) for ds in (given if isinstance(given, list) else [given])
              for a in (ds.times, ds.states, ds.derivatives)}
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        out = produce(given)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    new = [a for a in (out.times, out.states, out.derivatives) if id(a) not in inputs]
    assert new and peak - start < 1.5 * sum(a.nbytes for a in new)


def test_a_model_whose_terms_share_a_name_is_refused(linear2d_dataset):
    # beside a state xx the term x·x is named xx too: support would merge the
    # two and the table would print two 'xx' rows
    message = r"^two library terms of the states \['x', 'xx'\] are named 'xx'$"
    renamed = replace(linear2d_dataset, state_names=("x", "xx"))
    with pytest.raises(DataError, match=message):
        fit(renamed, LibrarySpec(2, 2), StlsqConfig(threshold=0.0))
    model, _ = fit(linear2d_dataset, LibrarySpec(2, 2), StlsqConfig(threshold=0.0))
    doc = json.loads(model_to_json(model))
    doc["state_names"] = ["x", "xx"]
    with pytest.raises(DataError, match=message):
        model_from_json(json.dumps(doc))


def test_default_state_names():
    assert default_state_names(3) == ("x", "y", "z")
    assert default_state_names(4) == ("x", "y", "z", "w")
    assert default_state_names(5) == ("x1", "x2", "x3", "x4", "x5")
