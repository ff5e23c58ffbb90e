"""Collective dephasing as ensembles of random phase kicks.

The environment couples through the total sz only, so its effect is modeled
by unitary kicks exp(-i theta sum_k sz_k) with random angles interleaved
between equal-time slices of the gate evolution. Every gate Hamiltonian
here commutes with the kick generator, and the logical basis states lie in
one collective-Z eigenspace, so a kick multiplies the evolved logical
states by one global phase and |Tr| removes it. ``noisy_realize`` checks
both premises and then computes F once: the ensemble is validated and
echoed, but it cannot change F, and ``per_sample`` repeats it. ``tests/oracles.py`` keeps
the per-sample, per-kick loop as the reference.
"""

from __future__ import annotations

import numpy as np

from .holonomy import evolve_span
from .model import GateRecipe, collective_z, recipe_hamiltonian, target_for
from .operators import ALGEBRA_TOL, ContractViolation, Spectrum, dagger
from .serialize import Record, as_float, as_int
from .subspace import dfs_product_basis

# The parameters each kind of kick distribution reads from its input.
_DIST_PARAMS = {"uniform": (), "gaussian": ("mean", "stddev"), "fixed": ("theta",)}


# Largest sample count, and largest kick count, that an ensemble may ask
# for, each checked on its own before anything is allocated. The per-sample
# fidelities and their report grow with the sample count. Kicks are never
# drawn, since they cannot change F; their bound only fixes which ensembles
# a report may echo.
ENSEMBLE_CAP = 2 ** 20


class NoiseEnsemble(Record):
    """Kick schedule: how many kicks per gate, their angle's distribution,
    and the sample count under a seed. ``distribution`` is {"type", "params"}:
    uniform(0, 2pi), gaussian with ``mean`` and ``stddev``, or fixed at
    ``theta``. It is checked first and kept with only the kind's parameters,
    each a finite float, so the report echo drops any other key."""

    kick_count: int
    distribution: dict
    samples: int
    seed: int

    def __post_init__(self):
        kind = self.distribution["type"]
        if kind not in _DIST_PARAMS:
            raise ValueError(f"type must be one of {tuple(_DIST_PARAMS)}, got {kind!r}")
        given = self.distribution.get("params", {})
        params = {name: as_float(given[name], name) for name in _DIST_PARAMS[kind]}
        if params.get("stddev", 0.0) < 0:
            raise ValueError("stddev must be >= 0")
        object.__setattr__(self, "distribution", {"type": kind, "params": params})
        for name in ("kick_count", "samples", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.kick_count < 0:
            raise ValueError("kick_count must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if max(self.samples, self.kick_count) > ENSEMBLE_CAP:
            raise ValueError(
                f"samples ({self.samples}) and kick_count ({self.kick_count}) "
                f"must not exceed {ENSEMBLE_CAP}"
            )


class NoisyGateResult(Record):
    """Fidelity summary of one ensemble; ``per_sample`` is the float64 array
    of every sample's fidelity, in sample order."""

    mean_fidelity: float
    min_fidelity: float
    per_sample: np.ndarray

    def __post_init__(self):
        # ``encode_json`` rounds an array as it writes it: no list of floats.
        object.__setattr__(self, "per_sample", np.asarray(self.per_sample, dtype=np.float64))


def noisy_realize(recipe: GateRecipe, ensemble: NoiseEnsemble) -> NoisyGateResult:
    """Logical process fidelity of the gate under interleaved phase kicks.

    The evolution is sliced into kick_count + 1 equal-time segments with an
    independent collective kick between consecutive segments; each sample
    reports F = |Tr(target^dag restricted)| / L on the logical basis.

    Two premises make every kick one global phase on the logical basis, and
    each raises ContractViolation when it fails: the logical rows carry one
    collective-Z value, and no Hamiltonian entry couples that collective-Z
    sector to the rest of the register. Each sample's F then equals the
    noiseless F, computed once from the restriction of the span stage
    ``holonomy.evolve_span`` and repeated ``samples`` times.
    """
    h = recipe_hamiltonian(recipe)
    z_diag = collective_z(3 * max(recipe.blocks))
    basis = dfs_product_basis(recipe.blocks, "01")
    # min/max rather than np.unique, which would import numpy.ma.
    z_logical = z_diag[np.any(basis.vectors != 0, axis=1)]
    if z_logical.min() != z_logical.max():
        raise ContractViolation(
            f"logical basis spans collective-Z values {z_logical.min():g} to {z_logical.max():g}"
        )
    sector = z_diag == z_logical[0]
    leak = np.abs(h[np.not_equal.outer(sector, sector)]).max(initial=0.0)
    if not leak <= ALGEBRA_TOL:
        raise ContractViolation(f"Hamiltonian couples the collective-Z sector out by {leak:.3e}")
    target = target_for(recipe)
    restricted = evolve_span(Spectrum(h), basis, recipe.duration)[0]
    fidelity = float(np.abs(np.trace(dagger(target) @ restricted))) / target.shape[0]
    return NoisyGateResult(
        mean_fidelity=fidelity,
        min_fidelity=fidelity,
        per_sample=np.full(ensemble.samples, fidelity),
    )
