"""Candidate-function library.

Builds the data matrix whose columns are candidate nonlinear functions
(the monomials up to a configured order) evaluated at every sample.  A
monomial is the product of its states, left to right in state order, as
``SparseModel.rhs`` computes it: its prefix monomial (one power of its last
state removed), an earlier column of the graded library, times that state.
So each column costs one multiply and holds the bits the simulated model has.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import ConfigError, DataError
from .model import TermDescriptor

__all__ = ["LibrarySpec", "LibraryMatrix", "enumerate_terms", "build_matrix"]

MAX_POLY_ORDER = 8  # bounds library width; the shipped configs go to 5, the tests to 8
_BLOCK_ROWS = 1024  # rows evaluated at a time, so a block's columns stay in cache


@dataclass(frozen=True)
class LibrarySpec:
    n_states: int
    poly_order: int
    include_constant: bool = True

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise ConfigError("n_states must be positive")
        if not 0 <= self.poly_order <= MAX_POLY_ORDER:
            raise ConfigError(f"poly_order must be in [0, {MAX_POLY_ORDER}]")
        if self.n_terms == 0:
            raise ConfigError("the library has no terms: poly_order 0 needs include_constant")

    @property
    def n_terms(self) -> int:
        return comb(self.n_states + self.poly_order, self.poly_order) - (not self.include_constant)


@dataclass(frozen=True)
class LibraryMatrix:
    """Evaluated library: column j is term j of ``enumerate_terms`` applied
    row-wise to the data."""

    values: np.ndarray


def _monomials(spec: LibrarySpec) -> list[tuple[int, ...]]:
    """Each term as its states in ascending order, one entry per power, in library
    order: graded by degree, lexicographic within a degree (x before y before z)."""
    first = 0 if spec.include_constant else 1
    return [combo for degree in range(first, spec.poly_order + 1)
            for combo in combinations_with_replacement(range(spec.n_states), degree)]


@functools.lru_cache(maxsize=64)
def enumerate_terms(spec: LibrarySpec) -> tuple[TermDescriptor, ...]:
    """Ordered term list (``_monomials``).  Cached per spec, as each fit of a
    sweep labels its model with it."""
    return tuple(TermDescriptor(tuple(combo.count(i) for i in range(spec.n_states)))
                 for combo in _monomials(spec))


@functools.lru_cache(maxsize=64)
def _plan(spec: LibrarySpec) -> tuple[tuple[int, int, int], ...]:
    """(column, prefix column, state) of each column of degree two or more: its
    term is the prefix's times that state, the term's last.  Cached per spec, as
    the regression builds the library one row block at a time."""
    column = {combo: j for j, combo in enumerate(_monomials(spec))}
    return tuple((j, column[combo[:-1]], combo[-1])
                 for combo, j in column.items() if len(combo) >= 2)


def build_matrix(spec: LibrarySpec, X: np.ndarray) -> LibraryMatrix:
    """Evaluate every candidate term at every sample row of ``X``, one row
    block at a time: the constant column is 1.0, a degree-1 column its state,
    and every other column its prefix column times its last state (``_plan``)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.n_states:
        raise DataError(f"expected m x {spec.n_states} state matrix, got {X.shape}")
    if X.shape[0] < 1:
        raise DataError("need at least one sample")
    if (bad := ~np.isfinite(X).all(axis=1)).any():
        raise DataError(f"non-finite state entries at row {int(np.flatnonzero(bad)[0])}")
    n, constant = spec.n_states, int(spec.include_constant)
    values = np.empty((X.shape[0], spec.n_terms))
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        x, out = X[start:start + _BLOCK_ROWS], values[start:start + _BLOCK_ROWS]
        out[:, :constant] = 1.0
        if spec.poly_order:
            out[:, constant:constant + n] = x
        for j, prefix, last in _plan(spec):
            np.multiply(out[:, prefix], x[:, last], out=out[:, j])
    return LibraryMatrix(values)
