from dataclasses import replace

import numpy as np
import pytest

from sindykit import (
    ConfigError,
    DataError,
    SystemSpec,
    TimeSeriesDataset,
    compute_basis,
    reduce_dataset,
    simulate,
)


def random_snapshots(seed=0, m=100, n=50):
    return np.random.default_rng(seed).standard_normal((m, n))


def energy_of_rank(snaps, r):
    """The energy fraction that the leading r modes of ``snaps`` capture."""
    s = np.linalg.svd(snaps, compute_uv=False)
    return float(np.cumsum(s**2)[r - 1] / np.sum(s**2))


class TestComputeBasis:
    def test_rank_one_snapshots_collapse(self):
        rng = np.random.default_rng(1)
        snaps = np.outer(rng.standard_normal(40), rng.standard_normal(12))
        modes = compute_basis(snaps, energy=0.99)
        assert modes.shape == (12, 1)

    def test_eckart_young_frobenius_residual(self):
        snaps = random_snapshots(2)
        _, s, _ = np.linalg.svd(snaps, full_matrices=False)
        modes = compute_basis(snaps, energy=energy_of_rank(snaps, 3))
        assert modes.shape[1] == 3
        recon = snaps @ modes @ modes.T
        resid = np.linalg.norm(snaps - recon)
        assert abs(resid - np.sqrt(np.sum(s[3:] ** 2))) < 1e-8

    def test_modes_orthonormal_and_read_only(self):
        snaps = random_snapshots(3)
        modes = compute_basis(snaps, energy=energy_of_rank(snaps, 7))
        assert modes.shape == (50, 7)
        gram = modes.T @ modes
        assert np.abs(gram - np.eye(7)).max() < 1e-10
        assert not modes.flags.writeable

    def test_sign_convention_largest_entry_positive(self):
        modes = compute_basis(random_snapshots(4), energy=1.0)
        assert modes.shape == (50, 50)
        for col in modes.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_modes_invariant_under_row_permutation(self):
        snaps = random_snapshots(5)
        perm = np.random.default_rng(6).permutation(snaps.shape[0])
        energy = energy_of_rank(snaps, 4)
        a = compute_basis(snaps, energy=energy)
        b = compute_basis(snaps[perm], energy=energy)
        assert a.shape == b.shape == (50, 4)
        assert np.allclose(a, b, rtol=0.0, atol=1e-10)

    def test_energy_threshold_selects_smallest_rank(self):
        rng = np.random.default_rng(7)
        U, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        snaps = (U * [10.0, 3.0, 0.01]) @ V.T
        total = 100.0 + 9.0 + 1e-4
        assert compute_basis(snaps, energy=0.9).shape[1] == 1
        assert compute_basis(snaps, energy=(100 + 9) / total - 1e-9).shape[1] == 2
        assert compute_basis(snaps, energy=1.0).shape[1] == 3

    def test_policy_validation(self):
        snaps = random_snapshots(8, m=10, n=4)
        for energy in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="energy fraction"):
                compute_basis(snaps, energy=energy)
        with pytest.raises(DataError, match="snapshot matrix"):
            compute_basis(snaps[:1], energy=0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_snapshot_is_a_data_error_naming_the_row(self, bad):
        snaps = random_snapshots(9, m=10, n=4)
        snaps[7, 2] = bad
        with pytest.raises(DataError, match="non-finite snapshot entries at row 7$"):
            compute_basis(snaps, energy=0.9)


class TestReduceDataset:
    @pytest.fixture()
    def modes(self):
        snaps = random_snapshots(10)
        return compute_basis(snaps, energy=energy_of_rank(snaps, 4))

    @staticmethod
    def dataset(states):
        states = np.atleast_2d(states)
        return TimeSeriesDataset(times=np.arange(states.shape[0], dtype=float), states=states)

    def test_in_span_state_gives_its_coefficients(self, modes):
        a = np.array([1.0, -2.0, 0.5, 3.0])
        red = reduce_dataset(self.dataset(modes @ a), modes)
        assert np.abs(red.states[0] - a).max() < 1e-12

    def test_orthogonal_vector_projects_to_zero(self, modes):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(modes.shape[0])
        x -= modes @ (modes.T @ x)
        assert np.abs(reduce_dataset(self.dataset(x), modes).states).max() < 1e-10

    @pytest.mark.parametrize("shape", [(7, 2), (50, 0), (50,), (2, 50, 2)])
    def test_rejects_modes_that_are_not_n_states_by_r(self, shape):
        ds = self.dataset(random_snapshots(12, m=3, n=50))
        with pytest.raises(DataError, match=r"modes must be 50 x r"):
            reduce_dataset(ds, np.zeros(shape))

    def test_rejects_non_orthonormal(self):
        ds = self.dataset(random_snapshots(12, m=3, n=4))
        with pytest.raises(DataError, match="orthonormal"):
            reduce_dataset(ds, np.ones((4, 2)))

    def test_states_and_derivatives_project_linearly(self):
        spec = SystemSpec("linear3d", x0=(2.0, 0.0, 1.0), t_span=(0.0, 5.0), dt=0.01)
        ds = simulate(spec)
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 3)))
        emb = replace(ds, states=ds.states @ Q.T, derivatives=ds.derivatives @ Q.T,
                      state_names=tuple(f"x{i+1}" for i in range(40)))
        modes = compute_basis(emb.states, energy=0.9999)
        red = reduce_dataset(emb, modes)
        assert red.n_states == modes.shape[1] == 3
        assert np.allclose(red.states, emb.states @ modes)
        assert np.allclose(red.derivatives, emb.derivatives @ modes)
        assert red.state_names == ("x", "y", "z")
        assert red.segments == emb.segments
