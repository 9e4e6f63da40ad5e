"""Candidate-function library.

Builds the data matrix whose columns are candidate nonlinear functions
(the monomials up to a configured order) evaluated at every sample by
:func:`sindykit.model.term_evaluator`, numpy code generated from the term
source that ``SparseModel.rhs`` compiles to float code for simulation.  A
monomial is a product of its states, left to right, so each column holds
the bits the simulated model gives that term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import ConfigError, DataError
from .model import TermDescriptor, term_evaluator

__all__ = ["LibrarySpec", "LibraryMatrix", "enumerate_terms", "build_matrix"]

MAX_POLY_ORDER = 8  # bounds library width; the shipped configs go to 5, the tests to 8
_BLOCK_ROWS = 1024  # rows evaluated at a time, so each temporary product is 8 kB


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
        n, d = self.n_states, self.poly_order
        p = comb(n + d, d)
        if not self.include_constant:
            p -= 1
        return p


@dataclass(frozen=True)
class LibraryMatrix:
    """Evaluated library: column j is term j of ``enumerate_terms`` applied
    row-wise to the data."""

    values: np.ndarray


@functools.lru_cache(maxsize=64)
def enumerate_terms(spec: LibrarySpec) -> tuple[TermDescriptor, ...]:
    """Ordered term list: graded by degree, lexicographic within a degree
    (x before y before z).  Cached per spec, as the regression builds the
    library one row block at a time."""
    n = spec.n_states
    terms: list[TermDescriptor] = []
    start = 0 if spec.include_constant else 1
    for degree in range(start, spec.poly_order + 1):
        for combo in combinations_with_replacement(range(n), degree):
            expo = [0] * n
            for i in combo:
                expo[i] += 1
            terms.append(TermDescriptor(tuple(expo)))
    return tuple(terms)


def build_matrix(spec: LibrarySpec, X: np.ndarray) -> LibraryMatrix:
    """Evaluate every candidate term at every sample row of ``X``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.n_states:
        raise DataError(f"expected m x {spec.n_states} state matrix, got {X.shape}")
    if X.shape[0] < 1:
        raise DataError("need at least one sample")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite state entries at row {int(np.flatnonzero(bad)[0])}")
    terms = enumerate_terms(spec)
    theta = term_evaluator(terms, spec.n_states)
    values = np.empty((X.shape[0], len(terms)))
    for start in range(0, X.shape[0], _BLOCK_ROWS):
        theta(X[start:start + _BLOCK_ROWS], out=values[start:start + _BLOCK_ROWS])
    return LibraryMatrix(values)
