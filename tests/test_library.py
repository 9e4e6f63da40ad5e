import tracemalloc
from math import comb

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    LibrarySpec,
    SparseModel,
    build_matrix,
    enumerate_terms,
)


def names(spec, state_names):
    return [t.name(state_names) for t in enumerate_terms(spec)]


def reference_column(term, X):
    """One term on every row, with the arithmetic of a plain loop over states:
    a monomial multiplies its states in, one factor at a time, in state order."""
    col = np.ones(X.shape[0])
    for i, e in enumerate(term.exponents):
        for _ in range(e):
            col = col * X[:, i]
    return col


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
                spec = LibrarySpec(n, d)
                assert len(enumerate_terms(spec)) == comb(n + d, d) == spec.n_terms

    def test_without_constant(self):
        assert names(LibrarySpec(2, 1, include_constant=False), ("x", "y")) == ["x", "y"]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            LibrarySpec(0, 2)
        with pytest.raises(ConfigError):
            LibrarySpec(2, 9)  # degree cap
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
        spec = LibrarySpec(3, 4)
        X = rng.standard_normal((30, 3)) * 3.0
        theta = build_matrix(spec, X)
        for i in range(X.shape[0]):
            assert _same_bits(theta.values[i:i + 1], build_matrix(spec, X[i:i + 1]).values)

    @pytest.mark.parametrize("spec", [
        LibrarySpec(3, 5), LibrarySpec(1, 8), LibrarySpec(5, 3, include_constant=False),
        LibrarySpec(2, 0)])
    def test_equals_the_reference_loop_bit_for_bit(self, spec):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((2500, spec.n_states)) * rng.choice([0.1, 1.0, 30.0], (2500, 1))
        expected = np.column_stack([reference_column(t, X) for t in enumerate_terms(spec)])
        assert _same_bits(build_matrix(spec, X).values, expected)

    def test_each_monomial_column_is_the_term_value_of_the_rhs(self):
        # a one-term model's rhs with coefficient 1.0 returns the term's value,
        # and the library's column must hold the same bits, to order 8
        spec = LibrarySpec(3, 8)
        rng = np.random.default_rng(11)
        X = (rng.choice([-1.0, 1.0], (40, 3)) * 10.0 ** rng.uniform(-1.0, np.log10(30.0), (40, 3)))
        values = build_matrix(spec, X).values
        terms = enumerate_terms(spec)
        for j, term in enumerate(terms):
            coef = np.zeros((len(terms), 3))
            coef[j, 0] = 1.0
            f = SparseModel(terms, coef, ("x", "y", "z")).rhs()
            expected = np.array([f(x)[0] for x in X.tolist()])
            assert _same_bits(values[:, j], expected), term.name(("x", "y", "z"))

    def test_peak_memory_is_the_matrix_plus_one_block(self, lorenz_dataset):
        # blocks go straight into the preallocated matrix, so no list of
        # full-length columns is held next to it
        X = np.array(lorenz_dataset.states[:20_000])
        tracemalloc.start()
        try:
            theta = build_matrix(LibrarySpec(3, 5), X)
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
