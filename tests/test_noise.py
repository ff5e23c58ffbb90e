import json

import numpy as np
import pytest

from hqcdfs.model import GateRecipe, collective_z, detune, recipe_hamiltonian, target_for
from hqcdfs import noise
from hqcdfs.noise import (
    ENSEMBLE_CAP,
    NoiseEnsemble,
    noisy_realize,
)
from hqcdfs.operators import ContractViolation, Spectrum, phase_aligned_distance
from hqcdfs.serialize import encode_json
from hqcdfs.subspace import BasisSet, dfs_product_basis, restrict

from gate_tools import cnot, realized_logical, universal_recipes, xz, zx
from oracles import (
    PAULI,
    _sample_angles,
    bare_fidelity,
    bitstring_state,
    collective_kick,
    embed_bruteforce,
    noisy_fidelities,
    pauli_kron,
)


def uniform_ensemble(kick_count=4, samples=50, seed=5):
    return NoiseEnsemble(kick_count, {"type": "uniform", "params": {}}, samples, seed)


def package_kick(theta: float, n: int) -> np.ndarray:
    """The kick exp(-i theta sum_k sz_k), read off the package's collective_z."""
    return np.diag(np.exp(-1j * theta * collective_z(n)))


class TestCollectiveKick:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(package_kick(0.0, 3), np.eye(8))

    def test_common_phase_on_single_excitation_states(self):
        theta = 0.9
        kick = package_kick(theta, 3)
        assert np.abs(kick - collective_kick(theta, 3)).max() <= 1e-14
        for bits in ("100", "010", "001"):
            v = bitstring_state(bits)
            assert np.allclose(kick @ v, np.exp(-1j * theta) * v, atol=1e-15)

    def test_diagonal_action_on_superposition(self):
        theta = 1.3
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        kicked = package_kick(theta, 1) @ plus
        expected = np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2)
        assert np.allclose(kicked, expected, atol=1e-15)
        assert np.allclose(collective_kick(theta, 1) @ plus, expected, atol=1e-14)


# Input distribution documents and the echo the report writes for each,
# recorded from the hand-written echo that the record layout replaced.
KICK_ECHOES = {
    "uniform-extra-keys": (
        {"type": "uniform", "params": {"mean": 1, "theta": 0.5}},
        {"type": "uniform", "params": {}},
    ),
    "uniform-non-dict": ({"type": "uniform", "params": 5}, {"type": "uniform", "params": {}}),
    "uniform-no-params": ({"type": "uniform"}, {"type": "uniform", "params": {}}),
    "gaussian-reordered-extra": (
        {"params": {"junk": [1], "stddev": 2, "mean": -1}, "type": "gaussian"},
        {"type": "gaussian", "params": {"mean": -1.0, "stddev": 2.0}},
    ),
    "gaussian": (
        {"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}},
        {"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}},
    ),
    "fixed-int-extra": (
        {"type": "fixed", "params": {"theta": 2, "mean": 9.5}},
        {"type": "fixed", "params": {"theta": 2.0}},
    ),
}


class TestNoisyRealize:
    def test_encoded_gate_is_immune(self):
        for dist in (
            {"type": "uniform", "params": {}},
            {"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}},
            {"type": "fixed", "params": {"theta": 2.2}},
        ):
            ensemble = NoiseEnsemble(3, dist, samples=25, seed=9)
            result = noisy_realize(xz(0.8), ensemble)
            assert result.min_fidelity >= 1.0 - 1e-10

    def test_zero_kicks_reduce_to_plain_realization(self):
        recipe = zx(1.4)
        ensemble = NoiseEnsemble(0, {"type": "uniform", "params": {}}, samples=3, seed=1)
        result = noisy_realize(recipe, ensemble)
        restricted = realized_logical(recipe)
        target = target_for(recipe)
        plain = abs(np.trace(target.conj().T @ restricted)) / 2.0
        for fidelity in result.per_sample:
            assert abs(fidelity - plain) < 1e-14

    def test_cnot_under_uniform_kicks(self):
        ensemble = NoiseEnsemble(4, {"type": "uniform", "params": {}}, samples=200, seed=3)
        result = noisy_realize(cnot(), ensemble)
        assert result.min_fidelity >= 1.0 - 1e-10

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            NoiseEnsemble(-1, {"type": "uniform", "params": {}}, 10, 0)
        with pytest.raises(ValueError):
            NoiseEnsemble(1, {"type": "uniform", "params": {}}, 0, 0)
        with pytest.raises(ValueError, match="stddev"):
            NoiseEnsemble(1, {"type": "gaussian", "params": {"mean": 0.0, "stddev": -1.0}}, 10, 0)

    def test_ensemble_cap(self):
        NoiseEnsemble(0, {"type": "uniform", "params": {}}, ENSEMBLE_CAP, 0)
        NoiseEnsemble(ENSEMBLE_CAP, {"type": "uniform", "params": {}}, 1, 0)
        # Each count is bounded on its own: kicks are never drawn.
        NoiseEnsemble(2, {"type": "uniform", "params": {}}, ENSEMBLE_CAP // 2 + 1, 0)
        NoiseEnsemble(ENSEMBLE_CAP, {"type": "uniform", "params": {}}, ENSEMBLE_CAP, 0)
        with pytest.raises(ValueError, match="must not exceed"):
            NoiseEnsemble(0, {"type": "uniform", "params": {}}, ENSEMBLE_CAP + 1, 0)
        with pytest.raises(ValueError, match="must not exceed"):
            NoiseEnsemble(ENSEMBLE_CAP + 1, {"type": "uniform", "params": {}}, 1, 0)
        with pytest.raises(ValueError, match="must not exceed"):
            NoiseEnsemble(10**18, {"type": "uniform", "params": {}}, 1, 0)

    def test_json_round_trip(self):
        for ensemble in (
            uniform_ensemble(),
            NoiseEnsemble(2, {"type": "gaussian", "params": {"mean": 0.1, "stddev": 0.5}}, 7, 42),
            NoiseEnsemble(0, {"type": "fixed", "params": {"theta": 1.2}}, 3, 8),
        ):
            assert NoiseEnsemble.from_json_dict(ensemble.to_json_dict()) == ensemble

    @pytest.mark.parametrize("doc, echo", KICK_ECHOES.values(), ids=KICK_ECHOES.keys())
    def test_distribution_echo(self, doc, echo):
        # The echo keeps only the kind's parameters, in the kind's order,
        # each a float; uniform ignores whatever ``params`` holds.
        text = "".join(encode_json(NoiseEnsemble(0, doc, 1, 0).to_json_dict()["distribution"]))
        assert text == json.dumps(echo, indent=2)


class TestBareBaseline:
    """The unencoded qubit the paper contrasts with the encoded one, under the
    same kick schedule, read off the per-sample oracle."""

    def test_no_kick_angle_keeps_state(self):
        ensemble = NoiseEnsemble(1, {"type": "fixed", "params": {"theta": 0.0}}, samples=10, seed=2)
        assert abs(bare_fidelity(0.7, ensemble) - 1.0) < 1e-12

    def test_uniform_kick_halves_mean_fidelity(self):
        # Analytic oracle: mean over theta of cos^2(theta) = 1/2; the
        # Monte-Carlo mean of 10^4 samples must land within 3 sigma, with
        # variance of cos^2 equal to 1/8.
        samples = 10_000
        sigma = np.sqrt(1.0 / 8.0 / samples)
        ensemble = NoiseEnsemble(1, {"type": "uniform", "params": {}}, samples=samples, seed=17)
        mean = bare_fidelity(0.0, ensemble)
        assert abs(mean - 0.5) <= 3.0 * sigma

    def test_quarter_turn_kick_orthogonalizes(self):
        ensemble = NoiseEnsemble(1, {"type": "fixed", "params": {"theta": np.pi / 2}}, samples=4, seed=0)
        assert bare_fidelity(0.0, ensemble) < 1e-24


class TestNoiseProperties:
    def test_recipe_hamiltonians_commute_with_kick_generator(self):
        for recipe in universal_recipes(strength=1.6, phase=1.0):
            n = 3 * max(recipe.blocks)
            h = recipe_hamiltonian(recipe)
            z = np.diag(collective_z(n))
            assert np.linalg.norm(h @ z - z @ h) <= 1e-12 * 2 ** n

    def test_protection_independent_of_kick_schedule(self):
        for kick_count in (1, 4, 16):
            for dist in ({"type": "uniform", "params": {}}, {"type": "gaussian", "params": {"mean": 0.0, "stddev": 2.5}}):
                ensemble = NoiseEnsemble(kick_count, dist, samples=20, seed=23)
                result = noisy_realize(xz(0.3), ensemble)
                assert min(result.per_sample) >= 1.0 - 1e-10

    def test_bare_qubit_degrades(self):
        ensemble = NoiseEnsemble(1, {"type": "uniform", "params": {}}, samples=10_000, seed=29)
        assert bare_fidelity(0.0, ensemble) <= 0.55

    def test_identical_seeds_reproduce_bit_exactly(self):
        a = noisy_realize(zx(0.9), uniform_ensemble(seed=77))
        b = noisy_realize(zx(0.9), uniform_ensemble(seed=77))
        assert a.per_sample.dtype == np.float64
        assert a.per_sample.tobytes() == b.per_sample.tobytes()
        # Kicks are a global phase on the logical sector, so the seed cannot
        # change F: another seed gives the same bytes.
        c = noisy_realize(zx(0.9), uniform_ensemble(seed=78))
        assert c.per_sample.tobytes() == a.per_sample.tobytes()

    def test_kicks_act_as_global_phase_on_protected_space(self):
        # The noisy propagator restricted to the protected space must equal
        # the noiseless restriction up to one sample-dependent phase.
        rng = np.random.default_rng(31)
        recipe = xz(1.1)
        spectrum = Spectrum(recipe_hamiltonian(recipe))
        protected = dfs_product_basis([1])
        segments = 5
        u_segment = spectrum.frames(recipe.duration / segments)
        noiseless = restrict(spectrum.frames(recipe.duration), protected)
        for _ in range(10):
            u = u_segment
            for theta in rng.uniform(0, 2 * np.pi, segments - 1):
                u = u_segment @ (collective_kick(theta, 3) @ u)
            assert phase_aligned_distance(restrict(u, protected), noiseless) <= 1e-10


DISTRIBUTIONS = {
    "uniform": {"type": "uniform", "params": {}},
    "gaussian": {"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}},
    "fixed": {"type": "fixed", "params": {"theta": 2.2}},
}


class TestBatchedAgainstOracle:
    """The closed-form F, computed once, against the per-sample, per-kick
    loop on the full register, which draws every angle of the ensemble."""

    @pytest.mark.parametrize("kick_count", [0, 1, 4, 16])
    @pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
    @pytest.mark.parametrize(
        "recipe",
        [xz(0.8), zx(1.4), cnot()],
        ids=["XZ", "ZX", "CNOT"],
    )
    def test_noisy_realize(self, recipe, dist, kick_count):
        ensemble = NoiseEnsemble(kick_count, dist, samples=70, seed=13)
        batched = noisy_realize(recipe, ensemble).per_sample
        expected = noisy_fidelities(recipe, ensemble)
        assert len(batched) == len(expected)
        assert np.abs(np.subtract(batched, expected)).max() <= 1e-14


class TestSectorPropagation:
    """noisy_realize evolves the full register through its shared spectrum,
    behind the two collective-Z premises; the per-kick oracle stays the
    reference."""

    @pytest.mark.parametrize(
        "recipe",
        [
            cnot(blocks=(2, 1)),
            detune(cnot(1.3, (2, 1)), 1.1),
            xz(0.8, block=2),
            zx(1.4, block=2),
        ],
        ids=["CNOT-blocks-2-1", "CNOT-detuned", "XZ-block-2-of-2", "ZX-block-2-of-2"],
    )
    def test_matches_full_register_oracle(self, recipe):
        ensemble = NoiseEnsemble(4, {"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}}, samples=70, seed=13)
        closed_form = noisy_realize(recipe, ensemble).per_sample
        expected = noisy_fidelities(recipe, ensemble)
        assert len(closed_form) == len(expected)
        assert np.abs(np.subtract(closed_form, expected)).max() <= 1e-14

    def test_coupling_out_of_the_sector_is_a_contract_violation(self, monkeypatch):
        def leaky(recipe):
            return recipe_hamiltonian(recipe) + pauli_kron("x", 1, 3 * max(recipe.blocks))

        monkeypatch.setattr(noise, "recipe_hamiltonian", leaky)
        with pytest.raises(ContractViolation, match="couples the collective-Z sector"):
            noisy_realize(cnot(), uniform_ensemble())

    def test_nan_coupling_out_of_the_sector_is_a_contract_violation(self, monkeypatch):
        def nan_leak(recipe):
            h = recipe_hamiltonian(recipe)
            z = collective_z(3 * max(recipe.blocks))
            logical = z[0b010]  # |0>_L of block 1
            h[np.flatnonzero(z == logical)[0], np.flatnonzero(z != logical)[0]] = np.nan
            return h

        monkeypatch.setattr(noise, "recipe_hamiltonian", nan_leak)
        with pytest.raises(ContractViolation, match="couples the collective-Z sector out by nan$"):
            noisy_realize(xz(0.8), uniform_ensemble())

    def test_logical_rows_in_two_z_sectors_is_a_contract_violation(self, monkeypatch):
        # |0>_L on popcount 1 and |1>_L on popcount 2: a kick would shift
        # their relative phase, so F would depend on the angles.
        def split(blocks, states):
            return BasisSet(np.column_stack([bitstring_state("010"), bitstring_state("011")]))

        monkeypatch.setattr(noise, "dfs_product_basis", split)
        with pytest.raises(ContractViolation, match="logical basis spans collective-Z values"):
            noisy_realize(xz(0.8), uniform_ensemble())

    def test_cnot_diagonalizes_the_register_hamiltonian_once(self, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(np.shape(h)) or eigh(h))
        noisy_realize(cnot(), uniform_ensemble())
        assert shapes == [(64, 64)]


def stream_draws(dist: dict, seed: int, shape: tuple[int, int]) -> np.ndarray:
    """The whole ensemble's angles drawn at once from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    params = dist["params"]
    if dist["type"] == "uniform":
        return rng.uniform(0.0, 2.0 * np.pi, size=shape)
    if dist["type"] == "gaussian":
        return rng.normal(params["mean"], params["stddev"], size=shape)
    return np.full(shape, params["theta"])


def kicked_fidelity(recipe: GateRecipe, angles: np.ndarray) -> float:
    """F of a one-block recipe with one Pade collective kick per angle between
    equal segments, propagated on the full register and then restricted."""
    spectrum = Spectrum(recipe_hamiltonian(recipe))
    u_segment = spectrum.frames(recipe.duration / (len(angles) + 1))
    u = u_segment
    for theta in angles:
        u = u_segment @ (collective_kick(theta, 3) @ u)
    realized = restrict(u, dfs_product_basis([1], "01"))
    target = target_for(recipe)
    return float(np.abs(np.trace(target.conj().T @ realized)) / target.shape[0])


class TestAngleStream:
    """Sample i is row i of one row-major stream from ``default_rng(seed)``;
    the kick angles cannot change F, so ``per_sample`` repeats one value
    whatever the distribution, seed, kick count or sample count."""

    @pytest.mark.parametrize("chunk", [1, 7, 30])
    @pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
    def test_chunks_concatenate_to_one_stream(self, dist, chunk):
        # The per-sample reference reads its angles one sample at a time;
        # read in chunks of rows, they concatenate to the one stream, and
        # the package's per_sample matches each chunk of rows kick by kick.
        ensemble = NoiseEnsemble(3, dist, samples=30, seed=21)
        rows = list(_sample_angles(ensemble))
        chunks = [np.stack(rows[start : start + chunk]) for start in range(0, 30, chunk)]
        angles = np.concatenate(chunks)
        assert np.array_equal(angles, stream_draws(dist, 21, (30, 3)))
        recipe = xz(0.8)
        per_sample = noisy_realize(recipe, ensemble).per_sample
        expected = [kicked_fidelity(recipe, row) for block in chunks for row in block]
        assert np.abs(np.subtract(per_sample, expected)).max() <= 1e-14

    @pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
    def test_per_sample_bytes_ignore_the_kicks(self, dist):
        still = NoiseEnsemble(0, {"type": "fixed", "params": {"theta": 0.0}}, samples=30, seed=0)
        for recipe in (xz(0.8), zx(1.4), cnot()):
            expected = noisy_realize(recipe, still).per_sample.tobytes()
            for seed in (0, 21, 78):
                for kick_count in (0, 1, 4, 16):
                    ensemble = NoiseEnsemble(kick_count, dist, samples=30, seed=seed)
                    assert noisy_realize(recipe, ensemble).per_sample.tobytes() == expected

    @pytest.mark.parametrize("dist", DISTRIBUTIONS.values(), ids=DISTRIBUTIONS.keys())
    def test_longer_ensemble_extends_shorter_one(self, dist):
        short = NoiseEnsemble(4, dist, samples=9, seed=8)
        long = NoiseEnsemble(4, dist, samples=40, seed=8)
        recipe = cnot()
        per_sample = noisy_realize(recipe, long).per_sample[:9]
        assert np.abs(np.subtract(per_sample, noisy_realize(recipe, short).per_sample)).max() <= 1e-15


class TestKickCountDrift:
    """F must not drift with the kick count: propagating kick by kick, an
    unrenormalized segment drifted 1 - F to 3e-11 to 5e-11 at 1e5 kicks and
    past the 1e-10 tolerance at the 2^20 cap."""

    @pytest.mark.parametrize(
        "recipe, kick_count",
        [
            pytest.param(recipe, kick_count, id=name + suffix)
            for suffix, kick_count in (("", 100_000), ("-cap", ENSEMBLE_CAP))
            for name, recipe in (("XZ", xz(0.3)), ("ZX", zx(0.3)), ("CNOT", cnot()))
        ],
    )
    def test_fidelity_at_1e5_kicks(self, recipe, kick_count):
        ensemble = NoiseEnsemble(kick_count, {"type": "uniform", "params": {}}, samples=1, seed=5)
        assert abs(1.0 - noisy_realize(recipe, ensemble).min_fidelity) <= 1e-11


class TestNonCollectiveKickControl:
    """Negative control: the encoded fidelity of 1 holds because the kicks are
    collective. The same oracle with a kick generator that singles out one
    qubit must see the dephasing."""

    RECIPE = xz(0.3)

    @staticmethod
    def deficits(generator, dist={"type": "uniform", "params": {}}):
        ensemble = NoiseEnsemble(4, dist, samples=40, seed=5)
        return 1.0 - np.array(noisy_fidelities(TestNonCollectiveKickControl.RECIPE, ensemble, generator=generator))

    def test_collective_generator_keeps_fidelity(self):
        collective = collective_z(3)
        assert np.abs(self.deficits(collective)).max() <= 1e-12

    def test_one_qubit_generator_dephases(self):
        sz_2 = np.diagonal(embed_bruteforce(PAULI["z"], 2, 3)).real
        assert self.deficits(sz_2).mean() >= 0.1

    def test_weighted_generator_deficit_grows_as_delta_squared(self):
        # Kicks exp(-i theta sum_k (1 + delta_k) sz_k) with delta_2 = delta
        # split |0>_L = |010> from |1>_L = |001> by a phase of order delta, so
        # 1 - F grows as delta^2 for small delta.
        collective = collective_z(3)
        sz_2 = np.diagonal(embed_bruteforce(PAULI["z"], 2, 3)).real
        fixed = {"type": "fixed", "params": {"theta": 0.7}}
        small, double = (self.deficits(collective + d * sz_2, fixed).mean() for d in (1e-3, 2e-3))
        assert small >= 1e-8
        assert abs(double / small - 4.0) <= 0.05
