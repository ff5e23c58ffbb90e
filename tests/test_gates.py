import json
import math

import numpy as np
import pytest

from hqcdfs.gates import _NO_GO_CHUNK, _no_go_draws, no_go_certificate, realize
from hqcdfs.holonomy import evolve_span
from hqcdfs.model import detune, recipe_hamiltonian, target_for
from hqcdfs.noise import NoiseEnsemble, noisy_realize
from hqcdfs.operators import Spectrum, phase_aligned_distance
from hqcdfs.serialize import encode_json
from hqcdfs.subspace import BasisSet, dfs_product_basis, restrict

from gate_tools import (
    cnot,
    compose_realized,
    compose_targets,
    euler_angles,
    euler_compose,
    matrix_from_json,
    realized_logical,
    rotation_sequence,
    rx_matrix,
    rz_matrix,
    xz,
    zx,
)
from oracles import (
    PAULI,
    no_go_draws,
    no_go_trials,
    product_states,
    qubit_permutation_matrix,
    r_op_bruteforce,
    random_unitary,
    two_qubit_dfs,
)
from test_cli import PINNED_NOGO_SHA256

SIGMA_X, SIGMA_Y, SIGMA_Z = PAULI["x"], PAULI["y"], PAULI["z"]
# Test ids of the trial counts at a chunk boundary.
TRIAL_IDS = {1: "one", _NO_GO_CHUNK - 1: "chunk-1", _NO_GO_CHUNK: "chunk", _NO_GO_CHUNK + 1: "chunk+1"}


class TestTargets:
    def test_uxz_zero_phase_is_bit_flip(self):
        assert np.abs(target_for(xz(0.0)) - SIGMA_X).max() == 0.0

    def test_uxz_quarter_phase_is_sigma_y(self):
        assert np.abs(target_for(xz(np.pi / 2)) - SIGMA_Y).max() < 1e-15

    def test_uxz_determinant(self):
        for phi in (0.0, 0.4, 2.9):
            assert abs(np.linalg.det(target_for(xz(phi))) + 1.0) < 1e-14

    def test_uzx_zero_phase_is_phase_flip(self):
        assert np.abs(target_for(zx(0.0)) - SIGMA_Z).max() == 0.0

    def test_uzx_third_phase(self):
        expected = np.array(
            [[0.5, 1j * math.sqrt(3) / 2], [-1j * math.sqrt(3) / 2, -0.5]]
        )
        assert np.abs(target_for(zx(np.pi / 3)) - expected).max() < 1e-15

    def test_uzx_is_involution(self):
        for phi in (0.0, 1.1, 2.2):
            u = target_for(zx(phi))
            assert np.abs(u - u.conj().T).max() < 1e-15
            assert np.abs(u @ u - np.eye(2)).max() < 1e-15

    def test_cnot_permutation(self):
        gate = target_for(cnot())
        e = np.eye(4)
        assert np.array_equal(gate @ e[:, 2], e[:, 3])  # |10> -> |11>
        assert np.array_equal(gate @ e[:, 0], e[:, 0])
        assert np.array_equal(gate @ gate, np.eye(4))


class TestRealize:
    def test_xz_full_restriction(self):
        phi = 0.35
        real = realize(xz(phi, strength=1.2), steps=512)
        expected = np.array(
            [[-1, 0, 0], [0, 0, np.exp(-1j * phi)], [0, np.exp(1j * phi), 0]]
        )
        assert np.abs(real.dfs_restricted - expected).max() <= 1e-10
        assert real.distance <= 1e-10
        assert real.invariance_defect <= 1e-10

    def test_zx_full_restriction(self):
        phi = 1.9
        real = realize(zx(phi, strength=0.6), steps=512)
        expected = np.array(
            [
                [-1, 0, 0],
                [0, math.cos(phi), 1j * math.sin(phi)],
                [0, -1j * math.sin(phi), -math.cos(phi)],
            ]
        )
        assert np.abs(real.dfs_restricted - expected).max() <= 1e-10
        assert real.distance <= 1e-10

    def test_cnot_five_state_restriction(self):
        real = realize(cnot(strength=1.4), steps=512)
        expected = np.diag([-1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex)
        expected[3, 4] = expected[4, 3] = 1.0
        assert np.abs(real.dfs_restricted - expected).max() <= 1e-10
        assert real.distance <= 1e-10
        assert real.invariance_defect <= 1e-10
        assert np.abs(real.dfs_target - expected).max() == 0.0

    def test_detuned_recipe_reported_not_rejected(self):
        real = realize(detune(xz(0.2), 1.04), steps=512)
        assert real.distance > 1e-4
        assert real.holonomy.holonomy_matrix is None
        assert real.holonomy.cyclicity_defect > 1e-4

    def test_realization_json_round_trip(self):
        real = realize(xz(0.9), steps=512)
        doc = json.loads("".join(encode_json(real.to_json_dict())))
        propagator = matrix_from_json(doc["propagator"])
        defect = np.linalg.norm(propagator.conj().T @ propagator - np.eye(8))
        assert defect <= 1e-10 * 8
        restricted = matrix_from_json(doc["restricted"])
        assert phase_aligned_distance(restricted, real.restricted) <= 1e-9


class TestRotationSequences:
    def test_z_rotation_identity(self):
        theta = 1.23
        product = compose_targets(rotation_sequence("z", theta))
        assert np.abs(product - rz_matrix(theta)).max() < 1e-14

    def test_x_rotation_identity(self):
        theta = 0.77
        product = compose_targets(rotation_sequence("x", theta))
        assert np.abs(product - rx_matrix(theta)).max() < 1e-14

    def test_zero_angle_gives_identity(self):
        for axis in ("z", "x"):
            product = compose_targets(rotation_sequence(axis, 0.0))
            assert np.abs(product - np.eye(2)).max() < 1e-15

    def test_realized_gates_compose_identically(self):
        theta = -2.1
        product = compose_realized(rotation_sequence("z", theta))
        assert phase_aligned_distance(product, rz_matrix(theta)) <= 1e-9

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotation_sequence("y", 1.0)


class TestEulerCompose:
    def test_axis_aligned_z_target_collapses(self):
        sequence = euler_compose(rz_matrix(0.7))
        assert len(sequence) == 2
        assert all(r.kind == "XZ" for r in sequence)
        assert phase_aligned_distance(compose_targets(sequence), rz_matrix(0.7)) <= 1e-12

    def test_axis_aligned_x_target_collapses(self):
        sequence = euler_compose(rx_matrix(1.9))
        assert len(sequence) == 2
        assert all(r.kind == "ZX" for r in sequence)
        assert phase_aligned_distance(compose_targets(sequence), rx_matrix(1.9)) <= 1e-12

    def test_hadamard(self):
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        # Oracle: the half-turn z-x-z product reproduces the target up to
        # global phase, so the decomposition must find angles equivalent
        # to (pi/2, pi/2, pi/2).
        oracle = rz_matrix(np.pi / 2) @ rx_matrix(np.pi / 2) @ rz_matrix(np.pi / 2)
        assert phase_aligned_distance(oracle, hadamard) <= 1e-12
        sequence = euler_compose(hadamard)
        assert phase_aligned_distance(compose_realized(sequence), hadamard) <= 1e-8

    def test_sigma_y(self):
        sequence = euler_compose(SIGMA_Y.copy())
        assert phase_aligned_distance(compose_targets(sequence), SIGMA_Y) <= 1e-12
        assert phase_aligned_distance(compose_realized(sequence), SIGMA_Y) <= 1e-8

    def test_angles_reproduce_target(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            target = random_unitary(rng, 2)
            alpha, beta, gamma, delta = euler_angles(target)
            rebuilt = np.exp(1j * delta) * (
                rz_matrix(alpha) @ rx_matrix(beta) @ rz_matrix(gamma)
            )
            assert np.abs(rebuilt - target).max() <= 1e-10
            assert 0.0 <= beta <= np.pi
            assert -np.pi < alpha <= np.pi
            assert -np.pi < gamma <= np.pi


class TestNoGo:
    def test_unit_coupling_witness(self):
        dfs = two_qubit_dfs()
        h = r_op_bruteforce("x", 1, 2, 2)
        restricted = restrict(h, dfs)
        assert np.array_equal(restricted, SIGMA_X)
        assert abs(evolve_span(Spectrum(h), dfs, 1.7)[2] - 1.0) <= 1e-12

    def test_zero_config_is_trivial(self):
        dfs = two_qubit_dfs()
        h = np.zeros((4, 4), dtype=complex)
        assert evolve_span(Spectrum(h), dfs, 1.7)[2] == 0.0
        assert np.abs(restrict(Spectrum(h).frames(1.7), dfs) - np.eye(2)).max() <= 1e-14

    def test_randomized_equivalence_holds(self):
        report = no_go_certificate(200, seed=11)
        assert report.counterexamples == 0
        assert report.trivial_count + report.nontrivial_count == 200
        assert report.witness_error == 0.0
        assert report.max_dfs_invariance_defect <= 1e-12
        assert report.min_nontrivial_transport_defect > 1e-3

    # Every (seed, trials) pair whose ``nogo`` stdout is pinned.
    @pytest.mark.parametrize(
        "seed, trials",
        PINNED_NOGO_SHA256,
        ids=[f"{TRIAL_IDS.get(t, t)}-{s}" for s, t in PINNED_NOGO_SHA256],
    )
    def test_batched_matches_per_trial_oracle(self, seed, trials):
        report = no_go_certificate(trials, seed).as_dict()
        for name, expected in no_go_trials(trials, seed).items():
            if isinstance(expected, int):
                assert report[name] == expected, name
            else:
                assert abs(report[name] - expected) <= 1e-15, name


class TestNoGoDraws:
    """The chunked draws yield, bit for bit, what one ``random()`` call per
    value draws."""

    CASES = [
        (seed, trials)
        for seed in (0, 1, 3, 7, 11)
        for trials in (1, _NO_GO_CHUNK - 1, _NO_GO_CHUNK, _NO_GO_CHUNK + 1, 10 * _NO_GO_CHUNK + 3)
    ]

    @pytest.mark.parametrize("seed, trials", CASES)
    def test_draws_bit_equal_to_generator_calls(self, seed, trials):
        chunks = list(_no_go_draws(trials, seed))
        assert [len(c) for c, _ in chunks[:-1]] == [_NO_GO_CHUNK] * (len(chunks) - 1)
        couplings, times = no_go_draws(trials, seed)
        assert np.concatenate([c for c, _ in chunks]).tobytes() == couplings.tobytes()
        assert np.concatenate([t for _, t in chunks]).tobytes() == times.tobytes()

    def test_cases_cover_the_stream_edges(self):
        # A first trial coupled on both axes takes every branch of a trial.
        assert any(np.all(no_go_draws(1, seed)[0][0] != 0) for seed, _ in self.CASES)
        # The cases draw trivial trials, and both signs on both axes.
        couplings = np.concatenate([no_go_draws(trials, seed)[0] for seed, trials in self.CASES])
        assert np.any(np.all(couplings == 0, axis=1))
        for axis in (0, 1):
            assert np.any(couplings[:, axis] < 0) and np.any(couplings[:, axis] > 0)


# Six-point sweeps from -0.1 to 0.1: an XZ phase sweep, whose points each
# have their own Hamiltonian, and a CNOT detuning sweep, whose points share one.
SWEEPS = {"phase-XZ": ("phase", xz(0.4)), "detuning-CNOT": ("pulse_area_detuning", cnot())}


def sweep_argv(param, recipe):
    argv = ["sweep", "--param", param, "--from", "-0.1", "--to", "0.1", "--points", "6"]
    return argv + ["--recipe", json.dumps(recipe.to_json_dict())]


def count_evolutions(monkeypatch) -> list:
    """The (time, column count) of every ``Spectrum.frames`` call from now
    on, in call order; a call without ``vectors`` evolves the whole
    register, and counts its size."""
    calls = []
    frames = Spectrum.frames

    def counting(self, t, vectors=None):
        calls.append((t, self.h.shape[-1] if vectors is None else vectors.shape[-1]))
        return frames(self, t, vectors)

    monkeypatch.setattr(Spectrum, "frames", counting)
    return calls


class TestOneSpectrumPerHamiltonian:
    """Each Hamiltonian is diagonalized once, whatever consumes its spectrum."""

    @pytest.mark.parametrize(
        "run, hamiltonians",
        [
            (lambda: realize(xz(0.4), steps=512), 1),
            (lambda: realize(cnot(), steps=512), 1),
            (lambda: realize(detune(zx(0.4), 1.05), steps=512), 1),
            (
                lambda: noisy_realize(
                    cnot(), NoiseEnsemble(4, {"type": "uniform", "params": {}}, 20, 5)
                ),
                1,
            ),
            (lambda: no_go_certificate(25, seed=3), 25),
        ],
        ids=["realize-XZ", "realize-CNOT", "realize-detuned", "noisy_realize", "nogo-trials"],
    )
    def test_eigh_calls(self, run, hamiltonians, monkeypatch):
        # Counts diagonalized matrices, so one stacked call over T
        # Hamiltonians counts T.
        diagonalized = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg,
            "eigh",
            lambda h: diagonalized.append(int(np.prod(np.shape(h)[:-2]))) or eigh(h),
        )
        run()
        assert sum(diagonalized) == hamiltonians

    @pytest.mark.parametrize(
        "param, recipe, shapes",
        [
            ("pulse_area_detuning", cnot(), [(64, 64)]),
            ("phase", xz(0.4), [(8, 8)] * 6),
        ],
        ids=["detuning-CNOT", "phase-XZ"],
    )
    def test_sweep_eigh_shapes(self, param, recipe, shapes, monkeypatch, capsys):
        # A detuning sweep changes only the duration, so its six points
        # share one spectrum; each phase point has its own Hamiltonian.
        from hqcdfs.cli import main

        diagonalized = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda h: diagonalized.append(np.shape(h)) or eigh(h)
        )
        argv = ["sweep", "--param", param, "--from", "-0.1", "--to", "0.1", "--points", "6"]
        assert main(argv + ["--recipe", json.dumps(recipe.to_json_dict())]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        assert diagonalized == shapes

    @pytest.mark.parametrize("param, recipe", SWEEPS.values(), ids=SWEEPS.keys())
    def test_one_propagator_per_sweep_point(self, param, recipe, monkeypatch, capsys):
        # The logical frame U(tau) B at each point's duration serves its
        # distance and its cyclicity defect; no d x d propagator is built.
        from hqcdfs.cli import main

        calls = count_evolutions(monkeypatch)
        assert main(sweep_argv(param, recipe)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        if param == "phase":
            durations = [recipe.duration] * 6
        else:
            durations = [recipe.duration * (1.0 + v) for v in np.linspace(-0.1, 0.1, 6)]
        assert [t for t, _ in calls] == pytest.approx(durations, rel=1e-14, abs=0)
        assert {k for _, k in calls} == {2 ** len(recipe.blocks)}

    @pytest.mark.parametrize("param, recipe", SWEEPS.values(), ids=SWEEPS.keys())
    def test_one_logical_basis_per_sweep(self, param, recipe, monkeypatch):
        # Every point restricts to the same logical basis, built once; no
        # other basis is built.
        import sys

        from hqcdfs.cli import main

        built = []

        def counting(blocks, states="a01"):
            built.append(states)
            return dfs_product_basis(blocks, states)

        for name, module in list(sys.modules.items()):
            if name.startswith("hqcdfs") and hasattr(module, "dfs_product_basis"):
                monkeypatch.setattr(module, "dfs_product_basis", counting)
        assert main(sweep_argv(param, recipe)) == 0
        assert built == ["01"]

    @pytest.mark.parametrize(
        "recipe",
        [xz(0.4), cnot(), detune(cnot(), 1.05)],
        ids=["XZ", "CNOT", "CNOT-detuned"],
    )
    def test_one_propagator_per_realization(self, recipe, monkeypatch):
        # U(tau) serves the comparison; the certificate reads the logical
        # frame U(tau) B and, unless detuned, the chain link's frame
        # U(-tau/steps) B, and builds no d x d link propagator.
        calls = count_evolutions(monkeypatch)
        realize(recipe, steps=512)
        d, k = 2 ** (3 * max(recipe.blocks)), 2 ** len(recipe.blocks)
        expected = [(recipe.duration, d), (recipe.duration, k)]
        if not recipe.detuned:
            expected.append((-recipe.duration / 512, k))
        assert calls == expected

    @pytest.mark.parametrize(
        "argv, register, propagators",
        [
            (["gate", "--recipe", json.dumps(cnot().to_json_dict())], 64, 1),
            (["holonomy", "--recipe", json.dumps(cnot().to_json_dict())], 64, 0),
            (sweep_argv(*SWEEPS["detuning-CNOT"]), 64, 0),
            (
                ["noise", "--recipe", json.dumps(cnot().to_json_dict()), "--ensemble"]
                + ['{"kick_count": 3, "distribution": {"type": "uniform"}, "samples": 4, "seed": 1}'],
                64,
                0,
            ),
            (["nogo", "--trials", "5"], 4, 0),
        ],
        ids=["gate", "holonomy", "sweep", "noise", "nogo"],
    )
    def test_only_gate_builds_a_register_propagator(
        self, argv, register, propagators, monkeypatch, capsys
    ):
        # A propagator evolves as many columns as the register has
        # dimensions. Every command but ``gate`` reads evolved frames of the
        # encoded span; ``nogo``'s one batched call evolves the two
        # protected columns of its 4x4 two-qubit registers.
        from hqcdfs.cli import main

        calls = count_evolutions(monkeypatch)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls
        assert [k for _, k in calls].count(register) == propagators


class TestGateProperties:
    def test_random_phases_realize_cleanly(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi)
            for make in (xz, zx):
                real = realize(make(phi), steps=512)
                assert real.distance <= 1e-10
                assert real.holonomy.cyclicity_defect <= 1e-10
                assert real.holonomy.transport_defect <= 1e-10
                unitarity = np.linalg.norm(
                    real.restricted.conj().T @ real.restricted - np.eye(2)
                )
                assert unitarity <= 1e-9

    def test_logical_action_independent_of_spectator_state(self):
        # XZ on block 2 of 2: the idle block 1 in |0>_L or in |1>_L gives
        # the same logical gate.
        recipe = xz(0.85, block=2)
        u = Spectrum(recipe_hamiltonian(recipe)).frames(recipe.duration)
        rest_0, rest_1 = (
            restrict(u, BasisSet(product_states([2], 2, "01", idle))) for idle in "01"
        )
        assert np.abs(rest_0 - rest_1).max() <= 1e-12
        assert phase_aligned_distance(rest_1, target_for(xz(0.85))) <= 1e-10

    def test_noncommutativity_witness_on_protected_space(self):
        # The product order is observable on the ancilla-completed space,
        # where the relative sign between the ancilla and logical sectors is
        # physical; the measured phase-aligned distance is exactly 2. The
        # bare logical targets differ only by a global sign, which the
        # phase-aligned metric deliberately ignores.
        basis = dfs_product_basis([1])
        gates = {}
        for recipe in (xz(0.0), zx(0.0)):
            u = Spectrum(recipe_hamiltonian(recipe)).frames(recipe.duration)
            gates[recipe.kind] = restrict(u, basis)
        forward = gates["XZ"] @ gates["ZX"]
        backward = gates["ZX"] @ gates["XZ"]
        witness = phase_aligned_distance(forward, backward)
        assert witness > 1.0
        assert abs(witness - 2.0) <= 1e-9
        assert phase_aligned_distance(
            target_for(xz(0.0)) @ target_for(zx(0.0)), target_for(zx(0.0)) @ target_for(xz(0.0))
        ) <= 1e-12

    def test_cnot_consistent_under_block_swap(self):
        forward = realize(cnot(), steps=512)
        backward = realize(cnot(blocks=(2, 1)), steps=512)
        assert backward.distance <= 1e-10
        swap = qubit_permutation_matrix({1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}, 6)
        conjugated = swap @ forward.propagator @ swap.conj().T
        assert np.abs(backward.propagator - conjugated).max() <= 1e-10

    def test_detuned_distance_grows_monotonically(self):
        distances = []
        for eps in np.linspace(0.0, 0.1, 11):
            recipe = xz(0.4) if eps == 0.0 else detune(xz(0.4), 1.0 + eps)
            restricted = realized_logical(recipe)
            distances.append(phase_aligned_distance(restricted, target_for(xz(0.4))))
        assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
        assert distances[0] <= 1e-12
        assert distances[-1] > distances[0]

    def test_euler_round_trip_hundred_targets(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            target = random_unitary(rng, 2)
            sequence = euler_compose(target)
            assert phase_aligned_distance(compose_targets(sequence), target) <= 1e-8
