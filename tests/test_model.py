import math
import tracemalloc

import numpy as np
import pytest

from hqcdfs.model import (
    MAX_BLOCKS,
    PULSE_AREAS,
    GateRecipe,
    collective_z,
    detune,
    exchange_term,
    recipe_hamiltonian,
)
from hqcdfs.serialize import replace

from oracles import (
    bitstring_state,
    pauli_kron,
    qubit_permutation_matrix,
    r_op_bruteforce,
    r_op_kron,
    recipe_hamiltonian_kron,
)
from gate_tools import cnot, universal_recipes, xz, zx

SQRT2 = math.sqrt(2.0)


def xz_generator(phi: float, strength: float, n: int = 3, base: tuple[int, int, int] = (1, 2, 3)):
    """Direct R-combination for the bit-flip gate generator (oracle route)."""
    q1, q2, q3 = base
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    return strength * (
        (r_op_bruteforce("x", q1, q2, n) - r_op_bruteforce("x", q1, q3, n)) * c
        - (r_op_bruteforce("y", q1, q2, n) + r_op_bruteforce("y", q1, q3, n)) * s
    )


def zx_generator(phi: float, strength: float, n: int = 3):
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    return strength * (
        r_op_bruteforce("y", 1, 2, n) * s - r_op_bruteforce("x", 1, 3, n) * c
    )


def cnot_generator(strength: float, n: int = 6):
    return strength * (
        r_op_bruteforce("x", 1, 3, n) @ r_op_bruteforce("x", 4, 5, n)
        - r_op_bruteforce("x", 1, 3, n) @ r_op_bruteforce("x", 4, 6, n)
    )


class TestRop:
    """``exchange_term`` with one hop is R^axis_kl; with more, their product."""

    def test_x_entries_on_two_qubits(self):
        m = exchange_term(2, ("x", 1, 2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0  # |01><10| + |10><01|
        assert np.array_equal(m, expected)
        assert np.allclose(m, r_op_bruteforce("x", 1, 2, 2))

    def test_y_entries_on_two_qubits(self):
        m = exchange_term(2, ("y", 1, 2))
        assert m[2, 1] == -1j  # <10| R^y |01>
        assert m[1, 2] == 1j
        assert np.count_nonzero(m) == 2
        assert np.allclose(m, r_op_bruteforce("y", 1, 2, 2))

    def test_annihilates_aligned_pairs(self):
        for axis in ("x", "y"):
            m = exchange_term(2, (axis, 1, 2))
            assert np.abs(m @ bitstring_state("00")).max() == 0.0
            assert np.abs(m @ bitstring_state("11")).max() == 0.0

    def test_embedded_in_larger_register(self):
        assert np.allclose(exchange_term(4, ("y", 2, 4)), r_op_bruteforce("y", 2, 4, 4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_pair_equals_bruteforce(self, n):
        for axis in ("x", "y"):
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    term = exchange_term(n, (axis, k, l))
                    assert np.array_equal(term, r_op_bruteforce(axis, k, l, n)), (axis, k, l)

    @pytest.mark.parametrize("n", [3, 6])
    def test_every_pair_equals_kron_chain_on_package_registers(self, n):
        # The exchange terms of the kron-chain oracle that
        # test_bit_identical_to_kron_chain_assembly compares against; the
        # 9-qubit register is covered there by CNOT on blocks 1 and 3.
        for axis in ("x", "y"):
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    term = exchange_term(n, (axis, k, l))
                    assert np.array_equal(term, r_op_kron(axis, k, l, n)), (axis, k, l)

    @pytest.mark.parametrize("a", ["x", "y"])
    @pytest.mark.parametrize("b", ["x", "y"])
    def test_product_of_hops_is_the_matrix_product(self, a, b):
        # Disjoint pairs, as in the CNOT term, and pairs sharing a qubit,
        # where only "the rightmost hop acts first" gives the right order.
        for (k, l), (p, q), n in (((1, 3), (4, 5), 6), ((1, 2), (2, 3), 3), ((2, 3), (1, 2), 3)):
            expected = r_op_bruteforce(a, k, l, n) @ r_op_bruteforce(b, p, q, n)
            assert np.array_equal(exchange_term(n, (a, k, l), (b, p, q)), expected)


class TestAssembly:
    def test_xz_couplings_reproduce_gate_generator(self):
        phi, j = 0.9, 1.7
        h = recipe_hamiltonian(xz(phi, strength=j))
        assert np.abs(h - xz_generator(phi, j)).max() < 1e-14

    def test_zx_couplings_reproduce_gate_generator(self):
        phi, j = 2.1, 0.4
        h = recipe_hamiltonian(zx(phi, strength=j))
        assert np.abs(h - zx_generator(phi, j)).max() < 1e-14

    def test_four_body_pair(self):
        j = 1.3
        h = j * exchange_term(6, ("x", 1, 3), ("x", 4, 5))
        h -= j * exchange_term(6, ("x", 1, 3), ("x", 4, 6))
        assert np.abs(h - cnot_generator(j)).max() < 1e-14

    def test_four_body_restriction_is_arrow_generator(self):
        # Brute-force 64x64 construction restricted to the five-state family
        # (|aa>, |00>, |01>, |10>, |11>) must equal the arrow matrix whose
        # exponential is the quoted CNOT-time gate.
        j = 0.8
        h = cnot_generator(j)
        a = bitstring_state("100")
        l0 = bitstring_state("010")
        l1 = bitstring_state("001")
        five = np.column_stack(
            [
                np.kron(a, a),
                np.kron(l0, l0),
                np.kron(l0, l1),
                np.kron(l1, l0),
                np.kron(l1, l1),
            ]
        )
        restricted = five.conj().T @ h @ five
        arrow = np.zeros((5, 5), dtype=complex)
        arrow[0, 3] = arrow[3, 0] = j
        arrow[0, 4] = arrow[4, 0] = -j
        assert np.abs(restricted - arrow).max() < 1e-14
        assert abs(restricted[3, 4]) == 0.0  # no direct logical-logical coupling


class TestCollectiveZ:
    def test_single_qubit(self):
        z = collective_z(1)
        assert z.dtype == np.float64 and np.array_equal(z, [1.0, -1.0])

    def test_eigenvalue_of_single_excitation_state(self):
        z = np.diag(collective_z(3))
        for bits in ("100", "010", "001"):
            v = bitstring_state(bits)
            assert np.allclose(z @ v, 1.0 * v)

    def test_diagonal_integer_spectrum(self):
        diag = collective_z(4)
        assert np.array_equal(np.diag(diag), sum(pauli_kron("z", k, 4) for k in range(1, 5)))
        assert set(diag.tolist()) == {-4.0, -2.0, 0.0, 2.0, 4.0}


class TestRecipes:
    def test_pulse_area_enforced(self):
        with pytest.raises(ValueError):
            GateRecipe("XZ", 0.0, 1.0, 1.0, (1,))
        GateRecipe("XZ", 0.0, 1.0, PULSE_AREAS["XZ"], (1,))  # exact area passes

    def test_factories_hit_exact_area(self):
        for recipe in universal_recipes(strength=1.7, phase=0.3):
            assert abs(recipe.strength * recipe.duration - PULSE_AREAS[recipe.kind]) < 1e-12

    def test_detune_escape_hatch(self):
        recipe = detune(xz(0.1), 1.05)
        assert recipe.detuned
        assert abs(recipe.strength * recipe.duration - 1.05 * PULSE_AREAS["XZ"]) < 1e-12

    def test_pulse_area_bounded_before_phases_overflow(self):
        # Every kind's eigenvalues lie within sqrt(2) * strength, up to roundoff.
        for recipe in universal_recipes(strength=1.7, phase=0.4):
            bound = np.abs(np.linalg.eigvalsh(recipe_hamiltonian(recipe))).max()
            assert bound <= SQRT2 * recipe.strength * (1 + 1e-14)
        edge = GateRecipe("XZ", 0.0, 1e154, 1e154, (1,), detuned=True)
        with pytest.raises(ValueError, match="too large"):
            detune(edge, 1.3)
        with pytest.raises(ValueError, match="too large"):
            replace(edge, strength=1e300, duration=1e300)

    def test_block_index_below_one(self):
        with pytest.raises(ValueError):
            xz(0.0, block=0)
        with pytest.raises(ValueError):
            cnot(blocks=(0, 1))

    def test_cnot_needs_distinct_blocks(self):
        with pytest.raises(ValueError):
            cnot(blocks=(1, 1))

    def test_block_count_per_kind(self):
        with pytest.raises(ValueError):
            GateRecipe("XZ", 0.0, 1.0, PULSE_AREAS["XZ"], (1, 2))

    def test_json_round_trip(self):
        for recipe in (
            xz(0.25, strength=2.0, block=2),
            cnot(strength=0.5, blocks=(2, 1)),
            detune(zx(1.2), 0.9),
        ):
            assert GateRecipe.from_json_dict(recipe.to_json_dict()) == recipe


class TestRecipeHamiltonian:
    def test_xz_block_one(self):
        recipe = xz(0.6, strength=1.1)
        assert np.abs(recipe_hamiltonian(recipe) - xz_generator(0.6, 1.1)).max() < 1e-14

    def test_xz_block_two_of_two(self):
        # Same pattern shifted to couplings (4,5) and (4,6).
        recipe = xz(0.6, strength=1.1, block=2)
        expected = xz_generator(0.6, 1.1, n=6, base=(4, 5, 6))
        assert np.abs(recipe_hamiltonian(recipe) - expected).max() < 1e-14

    def test_cnot_blocks_one_two(self):
        recipe = cnot(strength=0.7)
        assert np.abs(recipe_hamiltonian(recipe) - cnot_generator(0.7)).max() < 1e-14

    @pytest.mark.parametrize(
        "recipe, n_blocks",
        [(recipe, max(recipe.blocks)) for recipe in universal_recipes(1.3, 0.7)]
        + [
            (cnot(0.9, (2, 1)), 2),
            (xz(2.2, 1.6, block=2), 2),
            (zx(1.4, block=2), 2),
            (cnot(1.1, (1, 3)), 3),
        ],
        ids=["XZ", "ZX", "CNOT", "CNOT-blocks-2-1", "XZ-block-2-of-2", "ZX-block-2-of-2",
             "CNOT-blocks-1-3"],
    )
    def test_bit_identical_to_kron_chain_assembly(self, recipe, n_blocks):
        h = recipe_hamiltonian(recipe)
        assert h.tobytes() == recipe_hamiltonian_kron(recipe, n_blocks).tobytes()

    def test_coupling_config_layout(self):
        # ZX on block 2 of 2 couples qubits (4, 5) by R^y and (4, 6) by R^x.
        phi, j = 0.4, 1.0
        expected = j * (
            math.sin(phi / 2) * r_op_bruteforce("y", 4, 5, 6)
            - math.cos(phi / 2) * r_op_bruteforce("x", 4, 6, 6)
        )
        h = recipe_hamiltonian(zx(phi, strength=j, block=2))
        assert np.abs(h - expected).max() < 1e-14

    def test_dimension_cap_before_allocation(self):
        # A recipe on block 4 spans 12 qubits, one block past MAX_BLOCKS:
        # rejected as the recipe is built, before any 2^12 x 2^12 matrix exists.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"block indices must be <= {MAX_BLOCKS}"):
                xz(0.3, block=MAX_BLOCKS + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestModelProperties:
    def test_assembled_hamiltonians_commute_with_collective_z(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for _ in range(rng.integers(1, 5)):
                hops = []
                for _ in range(rng.integers(1, 3)):
                    k, l = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
                    hops.append((str(rng.choice(["x", "y"])), int(k), int(l)))
                h += float(rng.normal()) * exchange_term(n, *hops)
            z = np.diag(collective_z(n))
            assert np.linalg.norm(h @ z - z @ h) <= 1e-12 * 2 ** n

    def test_four_body_commutes_with_collective_z(self):
        h = recipe_hamiltonian(cnot(strength=1.9))
        z = np.diag(collective_z(6))
        assert np.linalg.norm(h @ z - z @ h) <= 1e-12 * 64

    def test_xz_restriction_matches_quoted_matrix(self):
        rng = np.random.default_rng(43)
        basis = np.column_stack(
            [bitstring_state("100"), bitstring_state("010"), bitstring_state("001")]
        )
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi)
            j = rng.uniform(0.2, 3.0)
            h = recipe_hamiltonian(xz(phi, strength=j))
            restricted = basis.conj().T @ h @ basis
            quoted = j * np.array(
                [
                    [0, np.exp(1j * phi / 2), -np.exp(-1j * phi / 2)],
                    [np.exp(-1j * phi / 2), 0, 0],
                    [-np.exp(1j * phi / 2), 0, 0],
                ]
            )
            assert np.abs(restricted - quoted).max() <= 1e-12

    def test_xz_restriction_spectrum(self):
        # Direct diagonalization oracle: eigenvalues are -sqrt(2) J, 0, sqrt(2) J.
        j = 1.4
        basis = np.column_stack(
            [bitstring_state("100"), bitstring_state("010"), bitstring_state("001")]
        )
        h = recipe_hamiltonian(xz(0.77, strength=j))
        eigvals = np.linalg.eigvalsh(basis.conj().T @ h @ basis)
        assert np.abs(eigvals - np.array([-SQRT2 * j, 0.0, SQRT2 * j])).max() <= 1e-12

    def test_block_relabeling_is_permutation_conjugation(self):
        # Swapping the blocks turns CNOT (1, 2) into CNOT (2, 1): each term
        # becomes the same product with its two factors, exchange terms on
        # disjoint pairs, in the other order, and those commute.
        swap = qubit_permutation_matrix({1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}, 6)
        h12 = recipe_hamiltonian(cnot(1.3, (1, 2)))
        h21 = recipe_hamiltonian(cnot(1.3, (2, 1)))
        assert np.linalg.norm(h21 - swap @ h12 @ swap.conj().T) <= 1e-12

    def test_zero_excitation_state_annihilated_exactly(self):
        vacuum3 = bitstring_state("000")
        vacuum6 = bitstring_state("000000")
        for recipe in universal_recipes(strength=1.3, phase=0.8):
            n_blocks = max(recipe.blocks)
            h = recipe_hamiltonian(recipe)
            vac = vacuum3 if n_blocks == 1 else vacuum6
            assert np.abs(h @ vac).max() == 0.0
