import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcdfs import holonomy
from hqcdfs.holonomy import PRECONDITION_TOL, certify, evolve_span
from hqcdfs.model import detune, recipe_hamiltonian
from hqcdfs.operators import ContractViolation, Spectrum, phase_aligned_distance, polar_unitary
from hqcdfs.serialize import encode_json
from hqcdfs.subspace import BasisSet, dfs_product_basis, restrict

from gate_tools import cnot, matrix_from_json, universal_recipes, xz, zx
from oracles import (
    expm_oracle,
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
        assert evolve_span(Spectrum(h), basis, recipe.duration)[1] <= 1e-10

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
        assert abs(evolve_span(Spectrum(h), basis, t)[1] - expected) < 1e-12

    def test_zero_hamiltonian(self):
        basis = dfs_product_basis([1], "01")
        assert evolve_span(Spectrum(ZERO_8), basis, 2.7)[1] <= 1e-15


class TestTransportDefect:
    def test_logical_subspace_carries_no_coupling(self):
        recipe, h, basis = xz_setup(phi=0.9)
        assert evolve_span(Spectrum(h), basis, recipe.duration)[2] <= 1e-12

    def test_ancilla_logical_pair_couples_at_strength(self):
        j = 1.4
        recipe = xz(0.6, strength=j)
        h = recipe_hamiltonian(recipe)
        full = dfs_product_basis([1])
        pair = BasisSet(full.vectors[:, :2])
        assert abs(evolve_span(Spectrum(h), pair, recipe.duration)[2] - j) < 1e-12

    def test_zero_hamiltonian(self):
        basis = dfs_product_basis([1])
        assert evolve_span(Spectrum(ZERO_8), basis, 2.7)[2] == 0.0


# Registers of one to three blocks and bases for the transport check:
# (recipe, basis). "dfs" adds the ancilla, so the defect reads a coupling,
# not roundoff.
TRANSPORT_CASES = {
    "XZ-1": (xz(0.3, 0.7), "logical"),
    "XZ-1-dfs": (xz(0.3, 0.7), "dfs"),
    "ZX-2": (zx(1.4, block=2), "logical"),
    "ZX-2-one-vector": (zx(1.4, block=2), "first"),
    "ZX-2-dfs": (zx(1.4, block=2), "dfs"),
    "CNOT-12": (cnot(1.3, (1, 2)), "logical"),
    "CNOT-21": (cnot(1.3, (2, 1)), "logical"),
    "CNOT-13": (cnot(0.9, (1, 3)), "logical"),
}


@functools.lru_cache(maxsize=None)
def transport_case(name):
    recipe, kind = TRANSPORT_CASES[name]
    states = {"logical": "01", "dfs": "a01", "first": "0"}[kind]
    basis = dfs_product_basis(recipe.blocks, states)
    return recipe, Spectrum(recipe_hamiltonian(recipe)), basis


class TestTransportBlocks:
    """The closed-form transport defect, max |(B^dag h B)_kl|, against the
    oracle that samples TRANSPORT_SAMPLES evolved frames in one shot, on
    registers of one to three blocks."""

    @pytest.mark.parametrize("detuned", [False, True], ids=["pulse-area", "detuned"])
    @pytest.mark.parametrize("name", TRANSPORT_CASES)
    def test_equals_one_shot_oracle(self, name, detuned):
        recipe, spectrum, basis = transport_case(name)
        tau = detune(recipe, 1.37).duration if detuned else recipe.duration
        closed = evolve_span(spectrum, basis, tau)[2]
        assert abs(closed - transport_defect_stacked(spectrum, basis, tau)) <= 1e-12
        if TRANSPORT_CASES[name][1] == "dfs":
            assert closed > 0.5  # a coupling to the ancilla, not roundoff
        else:
            assert closed == 0.0  # the logical entries of h are exact zeros

    def test_traced_peak_on_cnot_register(self):
        # The one-shot evaluation of 101 frames traced 1.31 MB on this
        # 64-dim register.
        recipe, spectrum, basis = transport_case("CNOT-12")
        tracemalloc.start()
        try:
            evolve_span(spectrum, basis, recipe.duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


class TestEvolvedFrames:
    @pytest.mark.parametrize("fraction", [1.0, 1.0 / 3.0, 1.37], ids=["tau", "tau/3", "detuned"])
    @pytest.mark.parametrize("name", ["XZ-1-dfs", "ZX-2", "CNOT-12", "CNOT-13"])
    def test_equal_pade_oracle(self, name, fraction):
        recipe, spectrum, basis = transport_case(name)
        t = fraction * recipe.duration
        frames = spectrum.frames(t, basis.vectors)
        assert np.abs(frames - expm_oracle(spectrum.h, t) @ basis.vectors).max() <= 1e-12

    def test_nan_in_the_frames_is_refused(self, monkeypatch):
        _, spectrum, basis = transport_case("CNOT-12")
        values = spectrum.values.copy()
        # t * 1e308 overflows, and exp(-i inf) is NaN, only for t > 1.8.
        values[-1] = 1e308
        monkeypatch.setattr(spectrum, "values", values)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(spectrum.frames(1.5, basis.vectors)).all()
            with pytest.raises(ContractViolation, match="not orthonormal: .* = nan"):
                spectrum.frames(10.0, basis.vectors)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(st.integers(2, 16), st.data())
    def test_cyclicity_equals_projector_oracle(self, dim, data):
        # sqrt(2) ||(I - P) U B||_F against ||U P U^dag - P||_F, for the
        # propagator U = exp(-i H t) of a random Hermitian H and a random
        # k-dim span B.
        k = data.draw(st.integers(1, dim))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        spectrum, t = Spectrum(x + x.conj().T), rng.uniform(0.0, 2 * np.pi)
        u = spectrum.frames(t)
        basis = BasisSet(random_unitary(rng, dim)[:, :k])
        p = basis.vectors @ basis.vectors.conj().T
        expected = np.linalg.norm(u @ p @ u.conj().T - p)
        assert abs(evolve_span(spectrum, basis, t)[1] - expected) <= 1e-12 * dim


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
        # certify evaluates the chain as (B^dag U(tau) B) link^N; the oracle
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
        span = holonomy.evolve_span
        monkeypatch.setattr(holonomy, "evolve_span", lambda *args: (*span(*args)[:2], float("nan")))
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
        restricted = restrict(Spectrum(h).frames(recipe.duration), basis)
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
            _, cyclicity, transport = evolve_span(spectrum, basis, recipe.duration)
            assert report.cyclicity_defect > PRECONDITION_TOL
            assert report.cyclicity_defect == cyclicity
            assert report.transport_defect == transport
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
        sampled = transport_defect_stacked(Spectrum(h), basis, recipe.duration)
        initial = evolve_span(Spectrum(h), basis, 0.0)[2]
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
        _, cyclicity, transport = evolve_span(spectrum, basis, t)
        _, rephased_cyclicity, rephased_transport = evolve_span(spectrum, rephased, t)
        assert abs(cyclicity - rephased_cyclicity) <= 1e-12
        assert abs(transport - rephased_transport) <= 1e-12
