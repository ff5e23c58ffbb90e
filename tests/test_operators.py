import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcdfs.operators import (
    UNITARITY_TOL,
    ContractViolation,
    Spectrum,
    dagger,
    phase_aligned_distance,
    polar_unitary,
)

from hqcdfs.model import recipe_hamiltonian
from hqcdfs.subspace import dfs_product_basis

from gate_tools import cnot, restrict, xz, zx
from oracles import (
    EYE2,
    PAULI,
    bitstring_state,
    embed_bruteforce,
    expm_oracle,
    kron_bruteforce,
    pauli_kron,
    phase_min_scan,
    polar_newton,
    random_hermitian,
    random_unitaries,
    random_unitary,
    three_level_rotation,
)

SIGMA_X, SIGMA_Y, SIGMA_Z = PAULI["x"], PAULI["y"], PAULI["z"]


class TestTensorProduct:
    """Kronecker embeddings as the ``pauli_kron`` oracle builds them."""

    def test_identity_factors(self):
        # Every Pauli squares to I, so the embedded product is the identity
        # on all factors, exactly.
        for k in (1, 2):
            op = pauli_kron("x", k, 2)
            assert np.array_equal(op @ op, np.eye(4))

    def test_sigma_z_with_identity(self):
        assert np.array_equal(pauli_kron("z", 1, 2), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_xx_flips_both_qubits(self):
        # Expected matrix recomputed entrywise by the brute-force oracle.
        xx = kron_bruteforce(SIGMA_X, SIGMA_X)
        assert np.allclose(pauli_kron("x", 1, 2) @ pauli_kron("x", 2, 2), xx)
        assert np.allclose(xx @ bitstring_state("01"), bitstring_state("10"))


class TestPauliOn:
    """Pauli operators on one qubit of a register, as the ``pauli_kron``
    oracle builds them for the tests that embed them; and the qubit-count
    cap that every register builder of the package checks first."""

    def test_single_qubit_z(self):
        assert np.array_equal(pauli_kron("z", 1, 1), np.diag([1.0, -1.0]))

    def test_z_on_second_of_two(self):
        assert np.array_equal(pauli_kron("z", 2, 2), np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_x_on_second_flips_low_bit(self):
        expected = kron_bruteforce(EYE2, SIGMA_X)
        assert np.allclose(pauli_kron("x", 2, 2), expected)
        assert np.allclose(pauli_kron("x", 2, 2) @ bitstring_state("00"), bitstring_state("01"))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_unitary_involutory(self, axis):
        op = pauli_kron(axis, 2, 3)
        assert np.allclose(op, op.conj().T)
        assert np.allclose(op @ op, np.eye(8))


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        assert np.allclose(Spectrum(h).frames(0.0), np.eye(6), atol=1e-14)

    def test_diagonal_generator(self):
        t = 0.83
        expected = np.diag([np.exp(-1j * t), np.exp(1j * t)])
        assert np.allclose(Spectrum(SIGMA_Z).frames(t), expected, atol=1e-14)

    def test_three_level_gate_matrix(self):
        # Restriction of the zero-phase gate generator, evolved for a
        # pulse area pi/sqrt(2): flips the logical pair, -1 on the ancilla.
        j = 1.0
        h3 = j * np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]], dtype=complex)
        u = Spectrum(h3).frames(np.pi / (np.sqrt(2.0) * j))
        expected = np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.abs(u - expected).max() < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.7])
    @pytest.mark.parametrize("fraction", [1 / 3, 1 / 2, 0.8], ids=["tau/3", "tau/2", "0.8tau"])
    def test_xz_block_runs_forward_in_time(self, fraction, phi):
        # The XZ propagator on (|a>, |0>_L, |1>_L) against the closed-form
        # rotation, entry by entry: exp(+iht) misses it by about 1.
        recipe = xz(phi)
        t = fraction * recipe.duration
        u = restrict(Spectrum(recipe_hamiltonian(recipe)).frames(t), dfs_product_basis([1]))
        assert np.abs(u - three_level_rotation(phi, recipe.strength, t)).max() <= 1e-12

    def test_matches_pade_oracle(self):
        rng = np.random.default_rng(3)
        for dim in (2, 5, 8):
            h = random_hermitian(rng, dim)
            t = rng.uniform(-3, 3)
            assert np.allclose(Spectrum(h).frames(t), expm_oracle(h, t), atol=1e-11)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            Spectrum(np.array([[0, 1], [0, 0]], dtype=complex)).frames(1.0)

    def test_rejects_non_finite(self):
        # No entry is scanned: a NaN fails the Hermiticity check itself.
        with pytest.raises(ContractViolation, match=re.escape("||A - A^dag||_F = nan > ")):
            Spectrum(np.array([[np.nan, 0], [0, 1]])).frames(1.0)


class TestStackedSpectrum:
    def hermitian_stack(self, count=5, dim=6, seed=41):
        rng = np.random.default_rng(seed)
        return np.stack([random_hermitian(rng, dim) for _ in range(count)])

    def test_propagators_match_per_matrix_spectra(self):
        h = self.hermitian_stack()
        times = np.random.default_rng(42).uniform(-3, 3, size=(len(h), 3))
        stacked = Spectrum(h).frames(times)
        assert stacked.shape == (5, 3, 6, 6)
        for i, hi in enumerate(h):
            single = Spectrum(hi)
            for j, t in enumerate(times[i]):
                assert np.abs(stacked[i, j] - single.frames(t)).max() <= 1e-14

    @pytest.mark.parametrize("recipe", [xz(0.37), zx(1.1), cnot()], ids=["XZ", "ZX", "CNOT"])
    def test_single_generator_is_a_stack_of_one(self, recipe):
        # One formula serves both: bit for bit, at the gate time and at the
        # holonomy chain's link time.
        h = recipe_hamiltonian(recipe)
        single, stack = Spectrum(h), Spectrum(h[None])
        tau = recipe.duration
        u = single.frames(tau)
        assert u.shape == h.shape
        assert np.array_equal(u, stack.frames([[tau]])[0, 0])
        times = np.array([[tau, -tau / 4096, 0.3]])
        stacked = stack.frames(times)
        assert stacked.shape == (1, 3) + h.shape
        assert np.array_equal(single.frames(times[0]), stacked[0])
        for j, t in enumerate(times[0]):
            assert np.array_equal(single.frames(t), stacked[0, j])

    def test_stacked_frames_are_columns_of_each_full_evolution(self):
        # The no-go's call shape: k shared columns evolved under every
        # generator of a stack, at times shaped (T, k_t).
        h = self.hermitian_stack(count=4, dim=4)
        times = np.random.default_rng(45).uniform(-3, 3, size=(len(h), 3))
        columns = np.eye(4)[:, 1:3]
        stacked = Spectrum(h).frames(times, columns)
        assert stacked.shape == (4, 3, 4, 2)
        for i, hi in enumerate(h):
            full = Spectrum(hi).frames(times[i])
            assert np.abs(stacked[i] - full[..., 1:3]).max() <= 1e-14

    def test_worst_non_hermitian_matrix_of_64_is_named(self):
        h = self.hermitian_stack(count=64, dim=4)
        h[37, 0, 1] += 1e-6
        h[5, 2, 3] += 1e-13  # within ALGEBRA_TOL * 4
        defect = np.linalg.norm(h[37] - h[37].conj().T)
        with pytest.raises(ContractViolation, match=re.escape(f"= {defect:.3e} > 4.000e-12")):
            Spectrum(h)

    def test_worst_non_unitary_matrix_of_64_is_named(self):
        # At t = 0 each propagator is V V^dag, unitary only if V is.
        spectrum = Spectrum(self.hermitian_stack(count=64, dim=4))
        spectrum.vectors = random_unitaries(np.random.default_rng(44), 64, 4)
        spectrum.vectors[40] *= 1.001
        u = spectrum.vectors[40] @ dagger(spectrum.vectors[40])
        defect = np.linalg.norm(dagger(u) @ u - np.eye(4))
        with pytest.raises(ContractViolation, match=re.escape(f"= {defect:.3e} > 4.000e-10")):
            spectrum.frames(np.zeros((64, 1)))

    def test_one_non_hermitian_matrix_fails_the_stack(self):
        h = self.hermitian_stack()
        h[3, 0, 1] += 1e-6
        with pytest.raises(ContractViolation, match="not Hermitian"):
            Spectrum(h)

    def test_one_non_unitary_matrix_fails_the_stack(self):
        spectrum = Spectrum(self.hermitian_stack(count=4, dim=3))
        spectrum.vectors = random_unitaries(np.random.default_rng(43), 4, 3)
        spectrum.frames(np.zeros((4, 2)))
        spectrum.vectors[2] *= 1.001
        with pytest.raises(ContractViolation, match="not orthonormal"):
            spectrum.frames(np.zeros((4, 2)))

    def test_non_finite_entry_fails_the_stack(self):
        h = self.hermitian_stack()
        h[1, 2, 2] = np.nan
        with pytest.raises(ContractViolation, match=re.escape("||A - A^dag||_F = nan > ")):
            Spectrum(h)


class TestPolarUnitary:
    def test_positive_diagonal(self):
        assert np.allclose(polar_unitary(np.diag([2.0, 0.5])), np.eye(2))

    def test_idempotent_on_unitaries(self):
        rng = np.random.default_rng(7)
        v = random_unitary(rng, 4)
        assert np.allclose(polar_unitary(v), v, atol=1e-13)

    def test_swap_like_matrix(self):
        m = np.array([[0, 3], [0.5, 0]], dtype=complex)
        expected = polar_newton(m)
        assert np.allclose(polar_unitary(m), expected, atol=1e-12)
        assert np.allclose(expected, np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_matches_newton_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert np.allclose(polar_unitary(m), polar_newton(m), atol=1e-10)

    def test_singular_input(self):
        with pytest.raises(ContractViolation, match="rank-deficient"):
            polar_unitary(np.array([[1, 0], [0, 0]], dtype=complex))


class TestPhaseAlignedDistance:
    def test_identical(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        assert phase_aligned_distance(u, u) <= 1e-12

    def test_pure_global_phase(self):
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 4)
        assert phase_aligned_distance(u, np.exp(1j * np.pi / 7) * u) <= 1e-12

    def test_identity_vs_sigma_x(self):
        assert abs(phase_aligned_distance(EYE2, SIGMA_X) - 2.0) < 1e-12

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u, v = random_unitary(rng, 3), random_unitary(rng, 3)
            scan = phase_min_scan(u, v)
            assert abs(phase_aligned_distance(u, v) - scan) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        assert abs(phase_aligned_distance(u, v) - phase_aligned_distance(v, u)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_aligned_distance(np.eye(2), np.eye(3))


class TestAlgebraProperties:
    """Randomized invariants of the operator layer."""

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(min_value=-5, max_value=5, allow_nan=False),
        t=st.floats(min_value=-5, max_value=5, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_evolve_additivity(self, s, t, seed):
        h = random_hermitian(np.random.default_rng(seed), 4)
        spectrum = Spectrum(h)
        composed = spectrum.frames(s) @ spectrum.frames(t)
        assert phase_aligned_distance(composed, spectrum.frames(s + t)) <= 1e-9

    def test_evolve_unitarity_up_to_dim_64(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 8, 16, 32, 64):
            h = random_hermitian(rng, dim)
            u = Spectrum(h).frames(rng.uniform(-2, 2))
            defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
            assert defect <= 1e-10 * dim

    def test_pauli_algebra_per_qubit(self):
        for n in (1, 2, 3):
            for k in range(1, n + 1):
                lhs = pauli_kron("x", k, n) @ pauli_kron("y", k, n)
                rhs = 1j * pauli_kron("z", k, n)
                assert np.abs(lhs - rhs).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.sampled_from(["x", "y", "z"]),
        b=st.sampled_from(["x", "y", "z"]),
        n=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_mixed_product_property(self, a, b, n, data):
        # (A (x) B)(C (x) D) = AC (x) BD on embedded operators: Paulis on two
        # distinct qubits multiply into one Kronecker product of both.
        k, l = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        expected = np.eye(1, dtype=complex)
        for slot in range(1, n + 1):
            factor = PAULI[a] if slot == k else PAULI[b] if slot == l else EYE2
            expected = kron_bruteforce(expected, factor)
        lhs = pauli_kron(a, k, n) @ pauli_kron(b, l, n)
        assert np.abs(lhs - expected).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        axis=st.sampled_from(["x", "y", "z"]),
        n=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_pauli_on_matches_bruteforce_embedding(self, axis, n, data):
        # The two oracles agree: Kronecker chains and the entrywise loops.
        k = data.draw(st.integers(min_value=1, max_value=n))
        assert np.array_equal(pauli_kron(axis, k, n), embed_bruteforce(PAULI[axis], k, n))

    def test_polar_factor_minimizes_frobenius_distance(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        base = np.linalg.norm(m - polar_unitary(m))
        trials = random_unitaries(rng, 10_000, 3)
        distances = np.sqrt((np.abs(m[None] - trials) ** 2).sum(axis=(1, 2)))
        assert distances.min() >= base - 1e-12

    def test_evolve_output_validated(self):
        u = Spectrum(random_hermitian(np.random.default_rng(2), 5)).frames(1.3)
        assert np.linalg.norm(dagger(u) @ u - np.eye(5)) <= UNITARITY_TOL * 5

    def test_pauli_anticommutation(self):
        assert np.abs(SIGMA_X @ SIGMA_Y + SIGMA_Y @ SIGMA_X).max() == 0.0
