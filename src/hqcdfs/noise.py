"""Collective dephasing as ensembles of random phase kicks.

The environment couples through the total sz only, so its effect is modeled
by unitary kicks exp(-i theta sum_k sz_k) with random angles interleaved
between equal-time slices of the gate evolution. Every gate Hamiltonian
here commutes with the kick generator, and the encoded states share one
kick eigenvalue, so a kick acts on the protected space as a global phase;
that exact mechanism is what the simulations certify.

An ensemble reads one generator, ``default_rng(seed)``: sample i takes row i
of a row-major (samples, kick_count) stream of angles, so the angles do not
depend on how samples are grouped and a longer ensemble begins with a shorter
one. Samples run in chunks, each kick one matrix product over the chunk's
logical columns in their collective-Z sector, so memory stays flat in the
sample count.
``ENSEMBLE_CAP`` bounds the sample and total kick counts before allocating.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .errors import ContractViolation
from .model import GateRecipe, collective_z, recipe_hamiltonian
from .operators import ALGEBRA_TOL, chunk_length, dagger, evolve
from .serialize import Record, as_float, as_int, round_sig
from .subspace import LogicalBlock, logical_basis

_DIST_KINDS = ("uniform", "gaussian", "fixed")


class KickDistribution(Record):
    """Distribution of one kick angle: uniform(0, 2pi), gaussian, or fixed."""

    kind: str
    mean: float = 0.0
    stddev: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"kind must be one of {_DIST_KINDS}, got {self.kind!r}")
        for name in ("mean", "stddev", "value"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.stddev < 0:
            raise ValueError("stddev must be >= 0")

    @classmethod
    def uniform(cls) -> "KickDistribution":
        return cls("uniform")

    @classmethod
    def gaussian(cls, mean: float, stddev: float) -> "KickDistribution":
        return cls("gaussian", mean=mean, stddev=stddev)

    @classmethod
    def fixed(cls, value: float) -> "KickDistribution":
        return cls("fixed", value=value)

    def sample(self, rng: np.random.Generator | None, size) -> np.ndarray:
        """Angles of shape ``size``; a fixed distribution ignores ``rng``."""
        if self.kind == "uniform":
            return rng.uniform(0.0, 2.0 * np.pi, size)
        if self.kind == "gaussian":
            return rng.normal(self.mean, self.stddev, size)
        return np.full(size, self.value)

    def to_json_dict(self) -> dict:
        if self.kind == "uniform":
            params: dict = {}
        elif self.kind == "gaussian":
            params = {"mean": self.mean, "stddev": self.stddev}
        else:
            params = {"theta": self.value}
        return {"type": self.kind, "params": params}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "KickDistribution":
        kind = data["type"]
        params = data.get("params", {})
        if kind == "gaussian":
            return cls.gaussian(params["mean"], params["stddev"])
        if kind == "fixed":
            return cls.fixed(params["theta"])
        return cls(kind)


# Largest sample count, and largest total kick count samples * kick_count,
# that an ensemble may ask for. Propagation memory is flat in both (samples
# run in chunks), but the per-sample fidelities and their report grow with
# the sample count and one chunk's angles with the kick count.
ENSEMBLE_CAP = 2 ** 20


class NoiseEnsemble(Record):
    """Kick schedule: how many kicks per gate, their distribution, and the
    Monte-Carlo sample count under a reproducible seed."""

    kick_count: int
    distribution: KickDistribution
    samples: int
    seed: int

    def __post_init__(self):
        for name in ("kick_count", "samples", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.kick_count < 0:
            raise ValueError("kick_count must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if max(self.samples, self.samples * self.kick_count) > ENSEMBLE_CAP:
            raise ValueError(
                f"samples ({self.samples}) and samples * kick_count "
                f"({self.samples * self.kick_count}) must not exceed {ENSEMBLE_CAP}"
            )

    def angle_chunks(self, chunk: int) -> Iterator[np.ndarray]:
        """Kick angles of consecutive chunks of at most ``chunk`` samples,
        each shaped (samples in the chunk, kick_count).

        One generator, ``default_rng(seed)``, is read in row-major order:
        sample i is row i of the (samples, kick_count) stream. The angles
        therefore do not depend on the chunk size, and an ensemble of n
        samples begins with the m-sample ensemble of the same seed (m <= n).
        Fixed kicks draw nothing, so they build no generator and never
        import ``numpy.random``.
        """
        rng = None if self.distribution.kind == "fixed" else np.random.default_rng(self.seed)
        for start in range(0, self.samples, chunk):
            size = min(chunk, self.samples - start)
            yield self.distribution.sample(rng, (size, self.kick_count))

    def to_json_dict(self) -> dict:
        return {
            "kick_count": self.kick_count,
            "distribution": self.distribution.to_json_dict(),
            "samples": self.samples,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "NoiseEnsemble":
        return cls(
            kick_count=data["kick_count"],
            distribution=KickDistribution.from_json_dict(data["distribution"]),
            samples=data["samples"],
            seed=data["seed"],
        )


class NoisyGateResult(Record):
    """Fidelity summary of one ensemble; ``per_sample`` is the float64 array
    of every sample's fidelity, in sample order."""

    mean_fidelity: float
    min_fidelity: float
    per_sample: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "mean_fidelity": round_sig(self.mean_fidelity),
            "min_fidelity": round_sig(self.min_fidelity),
            # ``encode_json`` rounds an array as it writes it: no list of floats.
            "per_sample": np.asarray(self.per_sample, dtype=np.float64),
        }


def noisy_realize(
    recipe: GateRecipe, ensemble: NoiseEnsemble, n_blocks: int | None = None
) -> NoisyGateResult:
    """Logical process fidelity of the gate under interleaved phase kicks.

    The evolution is sliced into kick_count + 1 equal-time segments with an
    independent collective kick between consecutive segments; each sample
    reports F = |Tr(target^dag restricted)| / L on the logical basis.

    Gate and kicks commute with collective Z, so only its sector holding the
    logical basis is propagated (15 of 64 states for CNOT); a Hamiltonian
    entry coupling it to the rest raises ContractViolation. There the L
    logical columns evolve as psi = U_seg V, then psi <- U_seg (kick * psi)
    per kick, one (d, d) x (d, chunk * L) product over a chunk of samples;
    F = |sum conj(V target) * psi| / L.
    """
    from .gates import target_for  # local import to avoid a module cycle

    if n_blocks is None:
        n_blocks = max(recipe.blocks)
    n_total = 3 * n_blocks
    h = recipe_hamiltonian(recipe, n_blocks)
    z_diag = np.diagonal(collective_z(n_total)).real
    basis = logical_basis([LogicalBlock(b) for b in recipe.blocks], n_total)
    sector = np.isin(z_diag, z_diag[np.any(basis.vectors != 0, axis=1)])
    leak = np.abs(h[np.not_equal.outer(sector, sector)]).max(initial=0.0)
    if leak > ALGEBRA_TOL:
        raise ContractViolation(f"Hamiltonian couples the collective-Z sector out by {leak:.3e}")
    segments = ensemble.kick_count + 1
    u_segment = evolve(h[np.ix_(sector, sector)], recipe.duration / segments)
    # One Newton-Schulz step toward the nearest unitary (Higham, Functions of
    # Matrices, ch. 8): the segment's unitarity roundoff compounds once per
    # kick, and 2^20 kicks would otherwise drift F by about 3e-10.
    u_segment = u_segment @ (3.0 * np.eye(len(u_segment)) - dagger(u_segment) @ u_segment) / 2.0
    # One kick phase per distinct collective-Z value, gathered per state.
    z_values, z_index = np.unique(z_diag[sector], return_inverse=True)
    vectors = basis.vectors[sector]
    dim, dim_logical = vectors.shape
    overlap = (vectors @ target_for(recipe)).conj()
    first = u_segment @ vectors

    fidelities = np.empty(ensemble.samples)
    start = 0
    for thetas in ensemble.angle_chunks(chunk_length(dim * dim_logical)):
        size = len(thetas)
        psi = np.broadcast_to(first[:, None, :], (dim, size, dim_logical))
        for kick in thetas.T:
            kicked = np.exp(-1j * z_values[:, None] * kick)[z_index, :, None] * psi
            psi = (u_segment @ kicked.reshape(dim, -1)).reshape(dim, size, dim_logical)
        traces = np.einsum("al,asl->s", overlap, psi)
        fidelities[start:start + size] = np.abs(traces) / dim_logical
        start += size

    return NoisyGateResult(
        mean_fidelity=float(np.mean(fidelities)),
        min_fidelity=float(np.min(fidelities)),
        per_sample=fidelities,
    )

