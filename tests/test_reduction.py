from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    ReducedBasis,
    SystemSpec,
    compute_basis,
    project,
    reduce_dataset,
    simulate,
)


def random_snapshots(seed=0, m=100, n=50):
    return np.random.default_rng(seed).standard_normal((m, n))


class TestComputeBasis:
    def test_rank_one_snapshots_collapse(self):
        rng = np.random.default_rng(1)
        snaps = np.outer(rng.standard_normal(40), rng.standard_normal(12))
        basis = compute_basis(snaps, energy=0.99)
        assert basis.rank == 1

    def test_eckart_young_frobenius_residual(self):
        snaps = random_snapshots(2)
        _, s, _ = np.linalg.svd(snaps, full_matrices=False)
        basis = compute_basis(snaps, rank=3)
        recon = project(basis, snaps) @ basis.modes.T
        resid = np.linalg.norm(snaps - recon)
        assert abs(resid - np.sqrt(np.sum(s[3:] ** 2))) < 1e-8

    def test_modes_orthonormal_and_values_sorted(self):
        basis = compute_basis(random_snapshots(3), rank=7)
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(7)).max() < 1e-10
        assert np.all(np.diff(basis.singular_values) <= 0)

    def test_sign_convention_largest_entry_positive(self):
        basis = compute_basis(random_snapshots(4), rank=5)
        for j in range(5):
            col = basis.modes[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_singular_values_invariant_under_row_permutation(self):
        snaps = random_snapshots(5)
        perm = np.random.default_rng(6).permutation(snaps.shape[0])
        a = compute_basis(snaps, rank=4).singular_values
        b = compute_basis(snaps[perm], rank=4).singular_values
        assert np.allclose(a, b, rtol=1e-12)

    def test_energy_threshold_selects_smallest_rank(self):
        rng = np.random.default_rng(7)
        U, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        snaps = (U * [10.0, 3.0, 0.01]) @ V.T
        total = 100.0 + 9.0 + 1e-4
        assert compute_basis(snaps, energy=0.9).rank == 1
        assert compute_basis(snaps, energy=(100 + 9) / total - 1e-9).rank == 2
        assert compute_basis(snaps, energy=1.0).rank == 3

    def test_policy_validation(self):
        snaps = random_snapshots(8, m=10, n=4)
        with pytest.raises(ConfigError):
            compute_basis(snaps)
        with pytest.raises(ConfigError):
            compute_basis(snaps, rank=2, energy=0.9)
        with pytest.raises(ConfigError):
            compute_basis(snaps, energy=1.5)
        with pytest.raises(ConfigError):
            compute_basis(snaps, rank=9)


class TestProject:
    @pytest.fixture()
    def basis(self):
        return compute_basis(random_snapshots(10), rank=4)

    def test_in_span_state_gives_its_coefficients(self, basis):
        a = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.abs(project(basis, basis.modes @ a) - a).max() < 1e-12

    def test_orthogonal_vector_projects_to_zero(self, basis):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(basis.modes.shape[0])
        x -= basis.modes @ (basis.modes.T @ x)
        assert np.abs(project(basis, x)).max() < 1e-10

    def test_dimension_mismatch(self, basis):
        with pytest.raises(DataError):
            project(basis, np.zeros(7))


class TestReducedBasisValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(DataError):
            ReducedBasis(modes=np.ones((4, 2)), singular_values=np.array([2.0, 1.0]))

    def test_rejects_increasing_singular_values(self):
        with pytest.raises(DataError):
            ReducedBasis(modes=np.eye(3, 2), singular_values=np.array([1.0, 2.0]))


class TestReduceDataset:
    def test_states_and_derivatives_project_linearly(self):
        spec = SystemSpec("linear3d", x0=(2.0, 0.0, 1.0), t_span=(0.0, 5.0), dt=0.01)
        ds = simulate(spec)
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 3)))
        emb = replace(ds, states=ds.states @ Q.T, derivatives=ds.derivatives @ Q.T,
                      state_names=tuple(f"x{i+1}" for i in range(40)))
        basis = compute_basis(emb.states, energy=0.9999)
        red = reduce_dataset(emb, basis)
        assert red.n_states == basis.rank == 3
        assert np.allclose(red.states, project(basis, emb.states))
        assert np.allclose(red.derivatives, emb.derivatives @ basis.modes)
        assert red.state_names == ("x", "y", "z")
        assert red.segments == emb.segments
