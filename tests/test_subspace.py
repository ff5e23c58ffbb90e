import math

import numpy as np
import pytest

from hqcdfs.model import collective_z, recipe_hamiltonian
from hqcdfs.operators import ContractViolation, Spectrum
from hqcdfs.holonomy import evolve_span
from hqcdfs.subspace import BasisSet, dfs_product_basis

from gate_tools import basis_to_json, leakage_profile, restrict, universal_recipes, xz, zx
from oracles import (
    bitstring_state,
    kron_bruteforce,
    pauli_kron,
    product_states,
    random_unitary,
    three_level_rotation,
)


class TestLogicalBlock:
    def test_physical_qubits(self):
        # Block b holds qubits 3b-2, 3b-1, 3b (qubit 1 most significant):
        # its |a> sets qubit 3b-2, each idle block c in |0>_L sets 3c-1.
        for block in (1, 3):
            ancilla = dfs_product_basis([block], "a").vectors[:, 0]
            bits = format(int(np.flatnonzero(ancilla)[0]), f"0{3 * block}b")
            qubits = {q for q, bit in enumerate(bits, start=1) if bit == "1"}
            idle = {3 * c - 1 for c in range(1, block)}
            assert qubits == {3 * block - 2} | idle


class TestBasisSet:
    def test_rejects_non_orthonormal(self):
        v = np.column_stack([bitstring_state("00"), bitstring_state("00")])
        with pytest.raises(ContractViolation):
            BasisSet(v)

    def test_rejects_nan_column(self):
        v = dfs_product_basis([1]).vectors.copy()
        v[0, 1] = np.nan
        with pytest.raises(ContractViolation, match=r"not orthonormal: \|\|G - I\|\|_F = nan$"):
            BasisSet(v)

    def test_projector_idempotent(self):
        basis = dfs_product_basis([1])
        p = basis.vectors @ basis.vectors.conj().T
        assert np.abs(p @ p - p).max() < 1e-14

    def test_json_round_trip(self):
        basis = dfs_product_basis([1])
        rebuilt = BasisSet.from_json_dict(basis_to_json(basis))
        assert np.allclose(rebuilt.vectors, basis.vectors)


# Every layout the package and the tests build a basis on, with the
# register of max(blocks) blocks that the oracle is given on its own.
LAYOUTS = {
    "block-1-of-1": ((1,), 1),
    "block-2-of-2": ((2,), 2),
    "CNOT-1-2": ((1, 2), 2),
    "CNOT-2-1": ((2, 1), 2),
    "CNOT-1-3": ((1, 3), 3),
}


class TestDfsBasis:
    @pytest.mark.parametrize("states", ["01", "a01", "a"])
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_matches_bitstring_columns(self, layout, states):
        # One column of bitstring states per assignment, the first block
        # most significant, idle blocks in |0>_L.
        blocks, n_blocks = layout
        basis = dfs_product_basis(blocks, states)
        assert np.array_equal(basis.vectors, product_states(blocks, n_blocks, states))

    def test_duplicate_blocks_rejected(self):
        for blocks in ((1, 1), ()):
            with pytest.raises(ValueError):
                dfs_product_basis(blocks)

    def test_single_block_states(self):
        basis = dfs_product_basis([1])
        expected = np.column_stack(
            [bitstring_state("100"), bitstring_state("010"), bitstring_state("001")]
        )
        assert np.array_equal(basis.vectors, expected)

    def test_second_block_with_spectator(self):
        # Tensor-construction oracle: idle block 1 pinned to |0>_L = |010>.
        basis = dfs_product_basis([2])
        spectator = bitstring_state("010")
        for column, bits in zip(basis.vectors.T, ("100", "010", "001")):
            assert np.array_equal(column, kron_bruteforce(
                spectator.reshape(-1, 1), bitstring_state(bits).reshape(-1, 1)
            ).ravel())


class TestLogicalBasis:
    def test_single_block(self):
        basis = dfs_product_basis([1], "01")
        assert np.array_equal(
            basis.vectors, np.column_stack([bitstring_state("010"), bitstring_state("001")])
        )

    def test_two_blocks_third_element(self):
        basis = dfs_product_basis([1, 2], "01")
        assert np.array_equal(basis.vectors[:, 2], bitstring_state("001010"))  # |1>_L |0>_L

    def test_duplicate_blocks_rejected(self):
        with pytest.raises(ValueError):
            dfs_product_basis([1, 1], "01")

    def test_invariant_check_basis_five_states(self):
        # The gate check basis: the all-ancilla state leads the protected
        # basis, then the four logical states follow.
        protected = dfs_product_basis([1, 2])
        logical = dfs_product_basis([1, 2], "01")
        states = ("100100", "010010", "010001", "001010", "001001")
        check = np.column_stack([protected.vectors[:, 0], logical.vectors])
        assert np.array_equal(check, np.column_stack([bitstring_state(s) for s in states]))


class TestRestrict:
    def test_quoted_gate_generator_matrix(self):
        phi, j = 1.3, 0.9
        h = recipe_hamiltonian(xz(phi, strength=j))
        restricted = restrict(h, dfs_product_basis([1]))
        quoted = j * np.array(
            [
                [0, np.exp(1j * phi / 2), -np.exp(-1j * phi / 2)],
                [np.exp(-1j * phi / 2), 0, 0],
                [-np.exp(1j * phi / 2), 0, 0],
            ]
        )
        assert np.abs(restricted - quoted).max() < 1e-12

    def test_collective_z_restricts_to_identity(self):
        restricted = restrict(np.diag(collective_z(3)), dfs_product_basis([1]))
        assert np.abs(restricted - np.eye(3)).max() < 1e-14

    def test_identity_restricts_to_identity(self):
        basis = dfs_product_basis([1], "01")
        assert np.array_equal(restrict(np.eye(8), basis), np.eye(2))


def outside_norm(op: np.ndarray, basis: BasisSet) -> float:
    """|| (I - P) op P ||_F as || (I - P) F ||_F of the frames F = op B, P the
    projector onto the columns B of ``basis``."""
    b = basis.vectors
    return float(np.linalg.norm((np.eye(len(b)) - b @ b.conj().T) @ (op @ b)))


class TestInvarianceDefect:
    def test_gate_evolution_keeps_protected_space(self):
        # The span stage's cyclicity defect is sqrt(2) || (I - P) F ||_F.
        rng = np.random.default_rng(13)
        spectrum = Spectrum(recipe_hamiltonian(xz(0.4)))
        basis = dfs_product_basis([1])
        for _ in range(10):
            cyclicity = evolve_span(spectrum, basis, rng.uniform(0, 5))[1]
            assert cyclicity / math.sqrt(2.0) <= 1e-10

    def test_single_pauli_leaves_protected_space(self):
        basis = dfs_product_basis([1])
        assert outside_norm(pauli_kron("x", 1, 3), basis) > 0.9

    def test_identity_has_zero_defect(self):
        basis = dfs_product_basis([1])
        assert outside_norm(np.eye(8), basis) == 0.0


class TestLeakageProfile:
    def test_protected_space_never_leaks(self):
        recipe = xz(0.8, strength=1.2)
        h = recipe_hamiltonian(recipe)
        inner = dfs_product_basis([1], "01")
        outer = dfs_product_basis([1])
        profile = leakage_profile(h, inner, outer, recipe.duration, 50)
        assert max(point[1] for point in profile) <= 1e-10

    def test_half_time_logical_leakage_is_half(self):
        # Closed-form three-level rotation oracle at zero phase: each logical
        # basis state has transferred population 1/2 onto the ancilla by the
        # half-way point of the pulse.
        j = 1.0
        recipe = xz(0.0, strength=j)
        h = recipe_hamiltonian(recipe)
        inner = dfs_product_basis([1], "01")
        outer = dfs_product_basis([1])
        profile = leakage_profile(h, inner, outer, recipe.duration, 2)
        t_mid, _, inner_leak = profile[1]
        assert abs(t_mid - recipe.duration / 2) < 1e-15

        oracle = three_level_rotation(0.0, j, recipe.duration / 2)
        expected = max(
            1.0 - abs(oracle[1, 1 + k]) ** 2 - abs(oracle[2, 1 + k]) ** 2 for k in (0, 1)
        )
        assert abs(expected - 0.5) < 1e-12
        assert abs(inner_leak - expected) < 1e-12

    def test_zero_hamiltonian_never_leaks(self):
        h = np.zeros((8, 8), dtype=complex)
        inner = dfs_product_basis([1], "01")
        outer = dfs_product_basis([1])
        profile = leakage_profile(h, inner, outer, 1.0, 10)
        assert max(point[2] for point in profile) == 0.0

    def test_non_nested_bases_rejected(self):
        inner = dfs_product_basis([1])
        outer = dfs_product_basis([1], "01")
        with pytest.raises(ValueError):
            leakage_profile(np.zeros((8, 8)), inner, outer, 1.0, 4)


class TestSubspaceProperties:
    def test_protected_basis_shares_integer_collective_eigenvalue(self):
        for blocks in ((1,), (2,), (1, 2), (3, 1)):
            n_blocks = max(blocks)
            n = 3 * n_blocks
            z = np.diag(collective_z(n))
            basis = dfs_product_basis(blocks)
            eigenvalue = n - 2 * n_blocks  # one excitation per block
            for column in basis.vectors.T:
                assert np.array_equal(z @ column, float(eigenvalue) * column)

    def test_restrict_is_homomorphism_on_invariant_subspaces(self):
        rng = np.random.default_rng(29)
        spectrum = Spectrum(recipe_hamiltonian(zx(0.7)))
        basis = dfs_product_basis([1])
        for _ in range(10):
            u = spectrum.frames(rng.uniform(0, 4))
            v = spectrum.frames(rng.uniform(0, 4))
            assert outside_norm(u, basis) <= 1e-10
            assert outside_norm(v, basis) <= 1e-10
            lhs = restrict(u @ v, basis)
            rhs = restrict(u, basis) @ restrict(v, basis)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_gate_recipes_preserve_protected_space_at_random_times(self):
        rng = np.random.default_rng(37)
        for recipe in universal_recipes(strength=1.1, phase=0.5):
            h = recipe_hamiltonian(recipe)
            protected = dfs_product_basis(recipe.blocks)
            eigvals, eigvecs = np.linalg.eigh(h)
            coeffs = eigvecs.conj().T @ protected.vectors
            for t in rng.uniform(0, 4, size=100):
                frame = eigvecs @ (np.exp(-1j * eigvals * t)[:, None] * coeffs)
                outside = frame - protected.vectors @ (protected.vectors.conj().T @ frame)
                assert np.linalg.norm(outside) <= 1e-10

    def test_gram_matrix_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            gauge = random_unitary(rng, 3)
            full = dfs_product_basis([1])
            basis = BasisSet(full.vectors @ gauge)
            gram = basis.vectors.conj().T @ basis.vectors
            assert np.linalg.norm(gram - np.eye(3)) <= 1e-12
