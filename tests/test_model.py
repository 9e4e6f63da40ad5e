import json

import numpy as np
import pytest

from sindykit import (
    DataError,
    LibrarySpec,
    Mode,
    SparseModel,
    TermDescriptor,
    TermKind,
    TimeSeriesDataset,
    enumerate_terms,
    evaluate_rhs,
    model_from_json,
    model_to_json,
    render_table,
    support,
)
from sindykit.model import default_state_names, parse_table


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
        t = TermDescriptor(TermKind.MONOMIAL, (0, 0))
        assert t.name(("x", "y")) == "1"
        assert t.degree == 0

    def test_monomial_names_use_repeated_letters(self):
        assert TermDescriptor(TermKind.MONOMIAL, (2, 1)).name(("x", "y")) == "xxy"
        assert TermDescriptor(TermKind.MONOMIAL, (0, 3)).name(("x", "y")) == "yyy"

    def test_trig_names(self):
        assert TermDescriptor(TermKind.SINE, (1, 0), 1).name(("x", "y")) == "sin(x)"
        assert TermDescriptor(TermKind.COSINE, (0, 1), 2).name(("x", "y")) == "cos(2y)"

    def test_trig_must_reference_one_variable(self):
        with pytest.raises(DataError):
            TermDescriptor(TermKind.SINE, (1, 1), 1)
        with pytest.raises(DataError):
            TermDescriptor(TermKind.SINE, (2, 0), 1)
        with pytest.raises(DataError):
            TermDescriptor(TermKind.SINE, (1, 0), 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DataError):
            TermDescriptor(TermKind.MONOMIAL, (-1, 0))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(DataError, match="integers"):
            TermDescriptor(TermKind.MONOMIAL, (1.5, 0))


class TestEvaluateRhs:
    def test_linear_model_example(self):
        m = linear_model([[-0.1, -2.0], [2.0, -0.1]])
        out = evaluate_rhs(m, np.array([1.0, 0.0]))
        assert np.allclose(out, [-0.1, -2.0], atol=0)

    def test_zero_model_gives_zero(self):
        m = linear_model(np.zeros((2, 2)))
        assert np.all(evaluate_rhs(m, np.array([3.0, -4.0])) == 0.0)

    def test_lorenz_true_rhs_at_initial_condition(self):
        # sigma(y-x)=10*15, x(rho-z)-y=-8-7, xy-beta*z=-56-72
        out = evaluate_rhs(lorenz_true_model(), np.array([-8.0, 7.0, 27.0]))
        assert np.allclose(out, [150.0, -15.0, -128.0], rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate_rhs(linear_model(np.eye(2)), np.array([1.0, 2.0, 3.0]))

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(7)
        terms = enumerate_terms(LibrarySpec(2, 3))
        for _ in range(20):
            c1 = rng.standard_normal((len(terms), 2))
            c2 = rng.standard_normal((len(terms), 2))
            a, b = rng.standard_normal(2)
            x = rng.standard_normal(2)
            m1 = SparseModel(terms, c1, ("x", "y"))
            m2 = SparseModel(terms, c2, ("x", "y"))
            m12 = SparseModel(terms, a * c1 + b * c2, ("x", "y"))
            lhs = evaluate_rhs(m12, x)
            rhs = a * evaluate_rhs(m1, x) + b * evaluate_rhs(m2, x)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_terms_of_another_state_count_are_a_data_error(self):
        with pytest.raises(DataError, match="one exponent per state, 2 in all"):
            SparseModel(enumerate_terms(LibrarySpec(3, 1)), np.ones((4, 2)), ("x", "y"))

    def test_trig_terms_evaluate(self):
        terms = (TermDescriptor(TermKind.SINE, (1,), 2),)
        m = SparseModel(terms, np.array([[3.0]]), ("x",))
        assert np.isclose(evaluate_rhs(m, np.array([0.25]))[0], 3.0 * np.sin(0.5))


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

    def test_schema_fields(self):
        doc = json.loads(model_to_json(lorenz_true_model()))
        assert set(doc) == {"state_names", "mode", "terms", "coefficients"}
        assert set(doc["terms"][0]) == {"kind", "exponents", "harmonic"}


class TestTimeSeriesDataset:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(DataError):
            TimeSeriesDataset(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 1)))

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


def test_default_state_names():
    assert default_state_names(3) == ("x", "y", "z")
    assert default_state_names(4) == ("x", "y", "z", "w")
    assert default_state_names(5) == ("x1", "x2", "x3", "x4", "x5")
