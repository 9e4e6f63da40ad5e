import tracemalloc
from math import comb

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LibrarySpec,
    TermKind,
    build_matrix,
    enumerate_terms,
)
from sindykit.model import term_evaluator


def names(spec, state_names):
    return [t.name(state_names) for t in enumerate_terms(spec)]


def reference_column(term, X):
    """One term on every row, with the arithmetic of a plain loop over states."""
    if term.kind is TermKind.MONOMIAL:
        col = np.ones(X.shape[0])
        for i, e in enumerate(term.exponents):
            if e:
                col = col * X[:, i] ** e
        return col
    arg = term.harmonic * X[:, term.exponents.index(1)]
    return np.sin(arg) if term.kind is TermKind.SINE else np.cos(arg)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEnumerateTerms:
    def test_two_state_order_two_ordering(self):
        assert names(LibrarySpec(2, 2), ("x", "y")) == ["1", "x", "y", "xx", "xy", "yy"]

    def test_constant_only(self):
        assert names(LibrarySpec(1, 0), ("x",)) == ["1"]

    def test_three_state_order_five_count(self):
        # stars and bars: C(8, 3) = 56
        assert len(enumerate_terms(LibrarySpec(3, 5))) == 56

    def test_three_state_order_two_column_order(self):
        assert names(LibrarySpec(3, 2), ("x", "y", "z")) == [
            "1", "x", "y", "z", "xx", "xy", "xz", "yy", "yz", "zz"]

    def test_term_count_formula_exhaustive(self):
        for n in range(1, 7):
            for d in range(0, 6):
                for harmonics in (frozenset(), frozenset({1}), frozenset({1, 2})):
                    spec = LibrarySpec(n, d, trig_harmonics=harmonics)
                    expected = comb(n + d, d) + 2 * len(harmonics) * n
                    terms = enumerate_terms(spec)
                    assert len(terms) == expected == spec.n_terms

    def test_without_constant(self):
        assert names(LibrarySpec(2, 1, include_constant=False), ("x", "y")) == ["x", "y"]

    def test_trig_block_ordering(self):
        got = names(LibrarySpec(2, 0, trig_harmonics=frozenset({2, 1})), ("x", "y"))
        assert got == ["1", "sin(x)", "sin(y)", "cos(x)", "cos(y)",
                       "sin(2x)", "sin(2y)", "cos(2x)", "cos(2y)"]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            LibrarySpec(0, 2)
        with pytest.raises(ConfigError):
            LibrarySpec(2, 9)  # degree cap
        with pytest.raises(ConfigError):
            LibrarySpec(2, 2, trig_harmonics=frozenset({0}))
        with pytest.raises(ConfigError, match="no terms"):
            LibrarySpec(2, 0, include_constant=False)


class TestBuildMatrix:
    def test_single_row_order_two(self):
        theta = build_matrix(LibrarySpec(2, 2), np.array([[2.0, 3.0]]))
        assert np.array_equal(theta.values, [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])

    def test_zero_row(self):
        theta = build_matrix(LibrarySpec(2, 3), np.zeros((1, 2)))
        expected = np.zeros(theta.values.shape[1])
        expected[0] = 1.0
        assert np.array_equal(theta.values[0], expected)

    def test_non_finite_rejected_naming_row(self):
        X = np.ones((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2"):
            build_matrix(LibrarySpec(2, 2), X)

    def test_wrong_width_rejected(self):
        with pytest.raises(DataError):
            build_matrix(LibrarySpec(3, 2), np.ones((4, 2)))

    def test_rows_match_single_state_evaluation_exactly(self):
        rng = np.random.default_rng(5)
        spec = LibrarySpec(3, 4, trig_harmonics=frozenset({1}))
        X = rng.standard_normal((30, 3)) * 3.0
        theta = build_matrix(spec, X)
        one_state = term_evaluator(enumerate_terms(spec), 3)  # the path of evaluate_rhs
        for i in range(X.shape[0]):
            assert _same_bits(theta.values[i], one_state(X[i]))
            assert _same_bits(theta.values[i:i + 1], build_matrix(spec, X[i:i + 1]).values)

    @pytest.mark.parametrize("spec", [
        LibrarySpec(3, 5), LibrarySpec(1, 8, trig_harmonics=frozenset({1, 3})),
        LibrarySpec(5, 3, trig_harmonics=frozenset({2}), include_constant=False),
        LibrarySpec(2, 0, trig_harmonics=frozenset({1, 2}))])
    def test_equals_the_reference_loop_bit_for_bit(self, spec):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((2500, spec.n_states)) * rng.choice([0.1, 1.0, 30.0], (2500, 1))
        expected = np.column_stack([reference_column(t, X) for t in enumerate_terms(spec)])
        assert _same_bits(build_matrix(spec, X).values, expected)

    def test_peak_memory_is_the_matrix_plus_one_block(self, lorenz_dataset, lorenz_library):
        # blocks go straight into the preallocated matrix, so no list of
        # full-length columns is held next to it
        X = np.array(lorenz_dataset.states[:20_000])
        tracemalloc.start()
        try:
            theta = build_matrix(lorenz_library, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert theta.values.shape == (20_000, 56)
        assert peak < 1.25 * theta.values.nbytes

    def test_row_permutation_permutes_output(self):
        rng = np.random.default_rng(6)
        spec = LibrarySpec(2, 3)
        X = rng.standard_normal((20, 2))
        perm = rng.permutation(20)
        assert np.array_equal(
            build_matrix(spec, X[perm]).values,
            build_matrix(spec, X).values[perm])


class TestSingleStateRow:
    def test_ones_are_monomial_fixed_points(self):
        out = build_matrix(LibrarySpec(2, 3), np.ones((1, 2))).values
        assert np.array_equal(out, np.ones((1, 10)))

    def test_lorenz_initial_condition_row(self):
        out = build_matrix(LibrarySpec(3, 2), np.array([[-8.0, 7.0, 27.0]])).values
        assert np.array_equal(
            out, [[1.0, -8.0, 7.0, 27.0, 64.0, -56.0, -216.0, 49.0, 189.0, 729.0]])

    def test_trig_at_pi(self):
        spec = LibrarySpec(1, 0, trig_harmonics=frozenset({1}))
        [out] = build_matrix(spec, np.array([[np.pi]])).values
        assert abs(out[1]) < 1e-12      # sin(pi)
        assert out[2] == -1.0           # cos(pi)

    def test_one_state_gives_the_one_row_matrix(self):
        spec = LibrarySpec(2, 2)
        x = np.array([0.5, -2.0])
        out = term_evaluator(enumerate_terms(spec), 2)(x)
        assert out.shape == (6,)
        assert _same_bits(out[None], build_matrix(spec, x[None]).values)

    def test_state_length_must_match_the_terms(self):
        with pytest.raises(DataError, match="length 2"):
            term_evaluator(enumerate_terms(LibrarySpec(3, 2)), 2)
        with pytest.raises(DataError, match="length 3"):
            term_evaluator(enumerate_terms(LibrarySpec(2, 2)), 3)
