"""Collective dephasing as ensembles of random phase kicks.

The environment couples through the total sz only, so its effect is modeled
by unitary kicks exp(-i theta sum_k sz_k) with random angles interleaved
between equal-time slices of the gate evolution. Every gate Hamiltonian
here commutes with the kick generator, and the encoded states share one
kick eigenvalue, so a kick acts on the protected space as a global phase;
that exact mechanism is what the simulations certify. An unencoded
single-qubit baseline quantifies what the same kicks do without protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import GateRecipe, collective_z, recipe_hamiltonian
from .operators import dagger, evolve
from .serialize import as_int, require_finite, round_sig
from .subspace import LogicalBlock, logical_basis

_DIST_KINDS = ("uniform", "gaussian", "fixed")


@dataclass(frozen=True)
class KickDistribution:
    """Distribution of one kick angle: uniform(0, 2pi), gaussian, or fixed."""

    kind: str
    mean: float = 0.0
    stddev: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"kind must be one of {_DIST_KINDS}, got {self.kind!r}")
        require_finite(mean=self.mean, stddev=self.stddev, theta=self.value)
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
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
        kind = str(data["type"])
        params = data.get("params", {})
        if kind == "gaussian":
            return cls.gaussian(float(params["mean"]), float(params["stddev"]))
        if kind == "fixed":
            return cls.fixed(float(params["theta"]))
        return cls(kind)


@dataclass(frozen=True)
class NoiseEnsemble:
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


@dataclass(frozen=True)
class NoisyGateResult:
    mean_fidelity: float
    min_fidelity: float
    per_sample: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "mean_fidelity": round_sig(self.mean_fidelity),
            "min_fidelity": round_sig(self.min_fidelity),
            "per_sample": [round_sig(f) for f in self.per_sample],
        }


def _sample_rngs(seed: int, samples: int) -> list[np.random.Generator]:
    # Per-sample generators split from one seed, so serial and parallel
    # evaluation orders agree bit-exactly.
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(samples)]


def noisy_realize(
    recipe: GateRecipe, ensemble: NoiseEnsemble, n_blocks: int | None = None
) -> NoisyGateResult:
    """Logical process fidelity of the gate under interleaved phase kicks.

    The evolution is sliced into kick_count + 1 equal-time segments with an
    independent collective kick between consecutive segments; each sample
    reports F = |Tr(target^dag restricted)| / L on the logical basis.
    """
    from .gates import target_for  # local import to avoid a module cycle

    if n_blocks is None:
        n_blocks = max(recipe.blocks)
    n_total = 3 * n_blocks
    segments = ensemble.kick_count + 1
    u_segment = evolve(recipe_hamiltonian(recipe, n_blocks), recipe.duration / segments)
    z_diag = np.diagonal(collective_z(n_total)).real

    basis = logical_basis([LogicalBlock(b) for b in recipe.blocks], n_total)
    target = target_for(recipe)
    dim_logical = target.shape[0]

    fidelities = []
    for rng in _sample_rngs(ensemble.seed, ensemble.samples):
        thetas = ensemble.distribution.sample(rng, ensemble.kick_count)
        u = u_segment
        for theta in thetas:
            u = u_segment @ (np.exp(-1j * theta * z_diag)[:, None] * u)
        restricted = dagger(basis.vectors) @ u @ basis.vectors
        fidelities.append(float(np.abs(np.trace(dagger(target) @ restricted)) / dim_logical))

    return NoisyGateResult(
        mean_fidelity=float(np.mean(fidelities)),
        min_fidelity=float(np.min(fidelities)),
        per_sample=tuple(fidelities),
    )


def bare_baseline(theta_gate: float, ensemble: NoiseEnsemble) -> float:
    """Mean state fidelity of an unencoded qubit under the same kick schedule.

    One physical qubit performs an x-rotation by ``theta_gate`` sliced into
    equal segments with sz kicks in between; the initial state is
    (|0> + |1>)/sqrt(2). Contrast experiment for the encoded case.
    """
    segments = ensemble.kick_count + 1
    half = theta_gate / (2.0 * segments)
    u_segment = np.array(
        [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]],
        dtype=np.complex128,
    )
    plus = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)

    total = 0.0
    for rng in _sample_rngs(ensemble.seed, ensemble.samples):
        thetas = ensemble.distribution.sample(rng, ensemble.kick_count)
        psi = u_segment @ plus
        for theta in thetas:
            psi = u_segment @ (np.exp(-1j * theta * np.array([1.0, -1.0])) * psi)
        total += float(np.abs(np.vdot(plus, psi)) ** 2)
    return total / ensemble.samples
