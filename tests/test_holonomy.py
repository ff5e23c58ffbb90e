import functools
import json
import tracemalloc

import numpy as np
import pytest

from hqcdfs import holonomy
from hqcdfs.holonomy import PRECONDITION_TOL, certify, cyclicity_defect, transport_defect
from hqcdfs.model import detune, recipe_hamiltonian
from hqcdfs.operators import ContractViolation, Spectrum, phase_aligned_distance, polar_unitary
from hqcdfs.serialize import encode_json
from hqcdfs.subspace import BasisSet, dfs_product_basis, restrict

from gate_tools import cnot, matrix_from_json, universal_recipes, xz, zx
from oracles import (
    polar_newton,
    projector_chain,
    random_unitary,
    three_level_rotation,
    transport_defect_stacked,
)


def xz_setup(phi=0.3, strength=1.0):
    recipe = xz(phi, strength=strength)
    h = recipe_hamiltonian(recipe)
    basis = dfs_product_basis([1], "01")
    return recipe, h, basis


def recipe_setup(recipe):
    return recipe_hamiltonian(recipe), dfs_product_basis(recipe.blocks, "01")


ZERO_8 = np.zeros((8, 8), dtype=complex)


class TestCyclicityDefect:
    def test_full_pulse_closes_the_loop(self):
        recipe, h, basis = xz_setup()
        assert cyclicity_defect(Spectrum(h).propagator(recipe.duration), basis) <= 1e-10

    def test_half_pulse_leaves_subspace_open(self):
        # Closed-form three-level rotation oracle: build the evolved logical
        # plane at half time and measure the projector mismatch directly.
        recipe, h, basis = xz_setup(phi=0.0, strength=1.0)
        t = recipe.duration / 2
        oracle = three_level_rotation(0.0, 1.0, t)
        frame = oracle[:, 1:]                      # evolved logical columns
        p_evolved = frame @ frame.conj().T
        p_start = np.diag([0.0, 1.0, 1.0]).astype(complex)
        expected = float(np.linalg.norm(p_evolved - p_start))
        assert expected > 0.5
        assert abs(cyclicity_defect(Spectrum(h).propagator(t), basis) - expected) < 1e-12

    def test_zero_hamiltonian(self):
        basis = dfs_product_basis([1], "01")
        assert cyclicity_defect(Spectrum(ZERO_8).propagator(2.7), basis) <= 1e-15


class TestTransportDefect:
    def test_logical_subspace_carries_no_coupling(self):
        recipe, h, basis = xz_setup(phi=0.9)
        assert transport_defect(Spectrum(h), basis, recipe.duration) <= 1e-12

    def test_ancilla_logical_pair_couples_at_strength(self):
        j = 1.4
        recipe = xz(0.6, strength=j)
        h = recipe_hamiltonian(recipe)
        full = dfs_product_basis([1])
        pair = BasisSet(full.vectors[:, :2])
        assert abs(transport_defect(Spectrum(h), pair, recipe.duration) - j) < 1e-12

    def test_zero_hamiltonian(self):
        basis = dfs_product_basis([1])
        assert transport_defect(Spectrum(ZERO_8), basis, 1.0) == 0.0


# Registers and bases for the blocked transport check: (recipe, basis,
# blocks of transport times at the default TRANSPORT_BLOCK_BYTES). "dfs"
# adds the ancilla, so the defect reads a coupling, not roundoff.
TRANSPORT_CASES = {
    "XZ-1": (xz(0.3, 0.7), "logical", 1),
    "XZ-1-dfs": (xz(0.3, 0.7), "dfs", 1),
    "ZX-2": (zx(1.4, block=2), "logical", 4),
    "ZX-2-one-vector": (zx(1.4, block=2), "first", 2),
    "ZX-2-dfs": (zx(1.4, block=2), "dfs", 5),
    "CNOT-12": (cnot(1.3, (1, 2)), "logical", 7),
    "CNOT-21": (cnot(1.3, (2, 1)), "logical", 7),
    "CNOT-13": (cnot(0.9, (1, 3)), "logical", 51),
}


@functools.lru_cache(maxsize=None)
def transport_case(name):
    recipe, kind, _ = TRANSPORT_CASES[name]
    states = {"logical": "01", "dfs": "a01", "first": "0"}[kind]
    basis = dfs_product_basis(recipe.blocks, states)
    return recipe, Spectrum(recipe_hamiltonian(recipe)), basis


def transport_blocks(basis):
    d, k = basis.vectors.shape
    per_block = max(1, holonomy.TRANSPORT_BLOCK_BYTES // (16 * d * k))
    return -(-holonomy.TRANSPORT_SAMPLES // per_block)


class TestTransportBlocks:
    """The blocked transport check against the one-shot stacked oracle."""

    @pytest.mark.parametrize("detuned", [False, True], ids=["pulse-area", "detuned"])
    @pytest.mark.parametrize("name", TRANSPORT_CASES)
    def test_equals_one_shot_oracle(self, name, detuned):
        recipe, spectrum, basis = transport_case(name)
        assert transport_blocks(basis) == TRANSPORT_CASES[name][2]
        tau = detune(recipe, 1.37).duration if detuned else recipe.duration
        blocked = transport_defect(spectrum, basis, tau)
        assert blocked == transport_defect_stacked(spectrum, basis, tau)
        if TRANSPORT_CASES[name][1] == "dfs":
            assert blocked > 0.5  # a coupling to the ancilla, not roundoff

    @pytest.mark.parametrize("times_per_block", [1, 2, 7, 50, 100, 101, 1000])
    def test_any_block_size_equals_one_shot_oracle(self, times_per_block, monkeypatch):
        recipe, spectrum, basis = transport_case("CNOT-12")
        d, k = basis.vectors.shape
        monkeypatch.setattr(holonomy, "TRANSPORT_BLOCK_BYTES", 16 * d * k * times_per_block)
        tau = detune(recipe, 0.81).duration
        assert transport_defect(spectrum, basis, tau) == transport_defect_stacked(
            spectrum, basis, tau
        )

    def test_budget_below_one_time_takes_one_time_per_block(self, monkeypatch):
        recipe, spectrum, basis = transport_case("XZ-1-dfs")
        monkeypatch.setattr(holonomy, "TRANSPORT_BLOCK_BYTES", 1)
        assert transport_blocks(basis) == holonomy.TRANSPORT_SAMPLES
        expected = transport_defect_stacked(spectrum, basis, recipe.duration)
        assert transport_defect(spectrum, basis, recipe.duration) == expected

    def test_nan_in_a_late_block_is_reported(self, monkeypatch):
        _, spectrum, basis = transport_case("CNOT-12")
        values = spectrum.values.copy()
        # t * 1e308 overflows, and exp(-i inf) is NaN, only for t > 1.8. At
        # tau = 10 the first block of 16 times ends at t = 1.5.
        values[-1] = 1e308
        monkeypatch.setattr(spectrum, "values", values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(transport_defect(spectrum, basis, 1.5))
            assert np.isnan(transport_defect(spectrum, basis, 10.0))

    def test_traced_peak_on_cnot_register(self):
        # The one-shot evaluation traced 1.31 MB on this 64-dim register.
        recipe, spectrum, basis = transport_case("CNOT-12")
        tracemalloc.start()
        try:
            transport_defect(spectrum, basis, recipe.duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


class TestProjectorChain:
    def test_reconstructs_quoted_logical_gate(self):
        phi = 0.7
        recipe, h, basis = xz_setup(phi=phi)
        chain = certify(Spectrum(h), basis, recipe.duration, 4096).holonomy_matrix
        quoted = np.array([[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]])
        assert phase_aligned_distance(chain, quoted) <= 1e-3

    def test_zero_hamiltonian_gives_identity_exactly(self):
        basis = dfs_product_basis([1], "01")
        chain = certify(Spectrum(ZERO_8), basis, 1.0, 16).holonomy_matrix
        assert np.abs(chain - np.eye(2)).max() == 0.0

    def test_step_halving_behavior(self):
        # Convergence-order measurement. The raw chained overlap shrinks at
        # first order, so halving the step count doubles its defect; the
        # unitarized reconstruction is already exact to roundoff at every
        # step count because the even-order contraction is the only error the
        # chain makes on these constant generators (see decision ledger).
        recipe, h, basis = xz_setup(phi=0.3)
        fine = certify(Spectrum(h), basis, recipe.duration, 4096)
        coarse = certify(Spectrum(h), basis, recipe.duration, 2048)
        ratio = coarse.chain_defect / fine.chain_defect
        assert 1.5 <= ratio <= 2.5
        assert fine.reconstruction_distance <= 1e-9
        assert coarse.reconstruction_distance <= 1e-9

    @pytest.mark.parametrize("steps", [8, 256, 4096, 8192])
    @pytest.mark.parametrize("recipe", universal_recipes(strength=1.0, phase=0.3))
    def test_closed_form_matches_explicit_chain(self, recipe, steps, monkeypatch):
        # certify evaluates the chain as restrict(U(tau)) B^N; the oracle
        # forms and multiplies every link of the projector product.
        h, basis = recipe_setup(recipe)
        raw = []
        monkeypatch.setattr(
            holonomy, "polar_unitary", lambda m: raw.append(m) or polar_unitary(m)
        )
        report = certify(Spectrum(h), basis, recipe.duration, steps)
        explicit = projector_chain(h, basis.vectors, recipe.duration, steps)
        assert np.abs(raw[0] - explicit).max() <= 1e-10
        assert np.abs(report.holonomy_matrix - polar_newton(explicit)).max() <= 1e-10

    def test_rejects_non_cyclic_window(self):
        recipe, h, basis = xz_setup()
        with pytest.raises(ContractViolation, match="not a holonomic evolution"):
            certify(Spectrum(h), basis, recipe.duration / 2, 64)

    def test_rejects_coupled_subspace(self):
        recipe = xz(0.2)
        h = recipe_hamiltonian(recipe)
        full = dfs_product_basis([1])
        pair = BasisSet(full.vectors[:, :2])
        with pytest.raises(ContractViolation, match="not a holonomic evolution"):
            certify(Spectrum(h), pair, recipe.duration, 64)

    def test_nan_transport_defect_refuses_reconstruction(self, monkeypatch):
        recipe, h, basis = xz_setup()
        monkeypatch.setattr(holonomy, "transport_defect", lambda *args: float("nan"))
        with pytest.raises(ContractViolation, match="transport defect nan "):
            certify(Spectrum(h), basis, recipe.duration, 64)

    def test_singular_chain_raises(self):
        # Four full loops across 8 steps put consecutive planes at right
        # angles, so the chained overlap is exactly rank-deficient.
        recipe, h, basis = xz_setup()
        with pytest.raises(ContractViolation, match="rank-deficient"):
            certify(Spectrum(h), basis, 4 * recipe.duration, 8)


class TestCertify:
    @pytest.mark.parametrize("recipe", universal_recipes(strength=1.2, phase=0.8))
    def test_gate_recipes_certify(self, recipe):
        h, basis = recipe_setup(recipe)
        report = certify(Spectrum(h), basis, recipe.duration, 1024)
        assert report.cyclicity_defect <= 1e-10
        assert report.transport_defect <= 1e-12
        assert report.reconstruction_distance <= 1e-3
        restricted = restrict(Spectrum(h).propagator(recipe.duration), basis)
        assert phase_aligned_distance(report.holonomy_matrix, restricted) <= 1e-3

    def test_detuned_report_has_defects_only(self):
        # Off the pulse-area condition the preconditions fail; without
        # reconstruction the report carries both defects and raises nothing.
        for recipe in (detune(xz(0.5), 1.07), detune(cnot(blocks=(2, 1)), 0.96)):
            h, basis = recipe_setup(recipe)
            spectrum = Spectrum(h)
            with pytest.raises(ContractViolation, match="not a holonomic evolution"):
                certify(spectrum, basis, recipe.duration, 512)
            report = certify(spectrum, basis, recipe.duration, 512, reconstruct=False)
            u = spectrum.propagator(recipe.duration)
            assert report.cyclicity_defect > PRECONDITION_TOL
            assert report.cyclicity_defect == cyclicity_defect(u, basis)
            assert report.transport_defect == transport_defect(spectrum, basis, recipe.duration)
            assert report.reconstruction_distance is None
            assert report.chain_defect is None
            assert report.holonomy_matrix is None
            assert (report.steps, report.tau) == (512, recipe.duration)

    def test_report_json_round_trip(self):
        recipe, h, basis = xz_setup(phi=1.1)
        report = certify(Spectrum(h), basis, recipe.duration, 512)
        doc = json.loads("".join(encode_json(report.to_json_dict())))
        matrix = matrix_from_json(doc["holonomy_matrix"])
        defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(2))
        assert defect <= 1e-10 * 2
        assert doc["steps"] == 512


class TestHolonomyProperties:
    def test_gauge_covariance_of_reconstruction(self):
        recipe, h, basis = xz_setup(phi=0.45)
        reference = certify(Spectrum(h), basis, recipe.duration, 256).holonomy_matrix
        rng = np.random.default_rng(71)
        for _ in range(20):
            gauge = random_unitary(rng, 2)
            rotated = certify(
                Spectrum(h), BasisSet(basis.vectors @ gauge), recipe.duration, 256
            ).holonomy_matrix
            expected = gauge.conj().T @ reference @ gauge
            assert np.abs(rotated - expected).max() <= 1e-8

    @pytest.mark.parametrize("recipe", universal_recipes(strength=0.9, phase=1.3))
    def test_sampled_transport_equals_initial_restriction(self, recipe):
        h, basis = recipe_setup(recipe)
        sampled = transport_defect(Spectrum(h), basis, recipe.duration)
        initial = float(np.abs(restrict(h, basis)).max())
        assert abs(sampled - initial) <= 1e-12

    @pytest.mark.parametrize("recipe", universal_recipes(strength=1.0, phase=0.2))
    def test_chain_defect_scales_inversely_with_steps(self, recipe):
        h, basis = recipe_setup(recipe)
        products = []
        for steps in (256, 512, 1024, 2048, 4096, 8192):
            report = certify(Spectrum(h), basis, recipe.duration, steps)
            products.append(report.chain_defect * steps)
            assert report.reconstruction_distance * steps <= 1e-3
        assert max(products) <= 2.0 * np.pi ** 2  # bounded by a constant

    def test_defects_invariant_under_basis_phases(self):
        recipe, h, basis = xz_setup(phi=0.25)
        phases = np.exp(1j * np.array([0.4, -1.9]))
        rephased = BasisSet(basis.vectors * phases)
        t = recipe.duration / 3
        spectrum = Spectrum(h)
        u = spectrum.propagator(t)
        assert abs(cyclicity_defect(u, basis) - cyclicity_defect(u, rephased)) <= 1e-12
        assert abs(
            transport_defect(spectrum, basis, t) - transport_defect(spectrum, rephased, t)
        ) <= 1e-12
