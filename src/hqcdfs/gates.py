"""End-to-end gate realizations and the two-qubit no-go check.

``realize`` runs the full pipeline for one recipe: build the Hamiltonian,
exponentiate, restrict to the logical basis, certify the holonomic
character, and compare against the target both phase-aligned on the logical
subspace and entrywise on the ancilla-completed basis (where the ancilla
picks up a physical -1). ``no_go_certificate`` draws its trials from the
standard library's ``random.Random``, so no command imports ``numpy.random``.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .holonomy import DEFAULT_CHAIN_STEPS, HolonomyReport, certify
from .model import GateRecipe, exchange_term, recipe_hamiltonian, target_for
from .operators import Spectrum, dagger, phase_aligned_distance
from .serialize import Record
from .subspace import dfs_product_basis


class GateRealization(Record):
    """Everything measured about one realized gate; ``spectator`` names the
    state of the idle blocks, always "0L"."""

    recipe: GateRecipe
    n_blocks: int
    spectator: str
    distance: float
    invariance_defect: float
    dfs_error: float
    restricted: np.ndarray
    target: np.ndarray
    dfs_restricted: np.ndarray
    dfs_target: np.ndarray
    propagator: np.ndarray
    holonomy: HolonomyReport


def realize(recipe: GateRecipe, steps: int = DEFAULT_CHAIN_STEPS) -> GateRealization:
    """Recipe -> propagator -> restriction -> certification -> comparison.

    The register holds ``max(recipe.blocks)`` blocks, those the recipe does
    not name idle in |0>_L. Detuned recipes are reported, not rejected: the
    holonomy preconditions genuinely fail off the pulse-area condition, so
    their report carries the condition defects without a reconstruction.
    """
    spectrum = Spectrum(recipe_hamiltonian(recipe))
    propagator = spectrum.frames(recipe.duration)

    protected = dfs_product_basis(recipe.blocks).vectors
    logical = dfs_product_basis(recipe.blocks, "01")
    # Ancilla-completed: the all-ancilla state, then the logical basis. Its
    # columns are one-hot, so its logical block is the logical restriction, bit for bit.
    completed = np.column_stack([protected[:, 0], logical.vectors])
    dfs_restricted = dagger(completed) @ propagator @ completed
    restricted = dfs_restricted[1:, 1:]
    target = target_for(recipe)
    distance = phase_aligned_distance(restricted, target)
    dfs_target = np.pad(target, (1, 0))
    dfs_target[0, 0] = -1.0
    dfs_error = float(np.abs(dfs_restricted - dfs_target).max())

    moved = propagator @ protected  # || (I - P) U(tau) P ||_F is the norm of its part outside P
    invariance = float(np.linalg.norm(moved - protected @ (dagger(protected) @ moved)))
    holonomy = certify(spectrum, logical, recipe.duration, steps, reconstruct=not recipe.detuned)

    return GateRealization(
        recipe=recipe,
        n_blocks=max(recipe.blocks),
        spectator="0L",
        distance=distance,
        invariance_defect=invariance,
        dfs_error=dfs_error,
        restricted=restricted,
        target=target,
        dfs_restricted=dfs_restricted,
        dfs_target=dfs_target,
        propagator=propagator,
        holonomy=holonomy,
    )


class NoGoReport(Record):
    """Randomized evidence that two physical qubits cannot host a holonomic
    gate under this interaction family: on their protected two-state space,
    transporting without dynamical phase forces a trivial evolution."""

    trials: int
    seed: int
    trivial_count: int
    nontrivial_count: int
    counterexamples: int
    max_dfs_invariance_defect: float
    max_trivial_transport_defect: float
    min_nontrivial_transport_defect: float
    witness_error: float


# Basis states 1 and 2, |01> and |10>, span the protected space of two
# collectively dephasing qubits; states 0 and 3 lie outside it.
_DFS, _OUTSIDE_DFS = slice(1, 3), [0, 3]

NO_GO_TOL = 1e-10
# Evolution times sampled per no-go trial, and the trials batched per chunk.
# Memory stays flat whatever the trial count; 128- to 512-trial chunks
# raised the peak RSS of a 500-trial call from 31.1 to 31.5-33.3 MB
# (os.wait4, medians of 21 alternating runs pinned to one CPU).
_NO_GO_TIMES = 4
_NO_GO_CHUNK = 64
# Pauli X: the no-go witness restricts to it exactly.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _no_go_draws(trials: int, seed: int):
    """Yield the couplings and evolution times of each chunk of trials.

    Each value is one ``random.Random(seed).random()`` draw u, in trial
    order: u >= 0.25 couples the trial; then per axis J is zero if u < 0.2,
    else its magnitude is 0.1 + 1.9 u and the next draw makes it negative
    below 0.5; then the trial's four times are 0.25 + 2.75 u. Only
    ``random()`` is called, whose stream Python keeps across versions.
    """
    draw = random.Random(seed).random
    for start in range(0, trials, _NO_GO_CHUNK):
        couplings, times = [], []
        for _ in range(min(_NO_GO_CHUNK, trials - start)):
            pair = [0.0, 0.0]
            if draw() >= 0.25:
                for axis in (0, 1):
                    if draw() >= 0.2:
                        magnitude = 0.1 + 1.9 * draw()
                        pair[axis] = -magnitude if draw() < 0.5 else magnitude
            couplings.append(pair)
            times.append([draw() for _ in range(_NO_GO_TIMES)])
        yield np.array(couplings), 0.25 + 2.75 * np.array(times)


def no_go_certificate(trials: int, seed: int) -> NoGoReport:
    """Check, over random two-qubit couplings, the equivalence

        vanishing transport defect on the protected space
            <=> restricted Hamiltonian is zero
            <=> restricted propagator is the identity at all sampled times,

    and that the protected space stays invariant under the evolution. Counts
    configurations and counterexamples; also evaluates the explicit witness
    with unit XY coupling, whose restricted Hamiltonian is exactly sigma_x.

    The trials arrive from ``_no_go_draws`` in chunks of at most
    ``_NO_GO_CHUNK``: one batched ``Spectrum`` and one batched ``frames``
    call per chunk, which evolves only the two protected columns, with
    every check an array reduction, so memory stays the same whatever the
    trial count. ``trials`` >= 1 and ``seed`` >= 0 are taken as given, as
    ``certify`` takes its steps: ``cli`` checks them where they enter.
    """
    r_x, r_y = exchange_term(2, ("x", 1, 2)), exchange_term(2, ("y", 1, 2))
    eye = np.eye(2)

    trivial = counterexamples = 0
    max_invariance = 0.0
    max_trivial_transport = 0.0
    min_nontrivial_transport = math.inf

    for couplings, times in _no_go_draws(trials, seed):
        # Summed onto zeros, as recipe_hamiltonian sums its terms.
        h = np.zeros((len(couplings), 4, 4), dtype=np.complex128)
        h += couplings[:, 0, None, None] * r_x
        h += couplings[:, 1, None, None] * r_y

        h_norm = np.abs(h[:, _DFS, _DFS]).max(axis=(1, 2))
        frames = Spectrum(h).frames(times, np.eye(4)[:, _DFS])
        inside = frames[..., _DFS, :]
        outside = frames[..., _OUTSIDE_DFS, :]
        # On the full h: nothing is assumed about where h vanishes.
        transport = np.abs(dagger(frames) @ h[:, None] @ frames).max(axis=(1, 2, 3))
        identity_dist = np.linalg.norm(inside - eye, axis=(2, 3)).max(axis=1)

        zero_h = h_norm <= NO_GO_TOL
        agree = (zero_h == (transport <= NO_GO_TOL)) & (zero_h == (identity_dist <= NO_GO_TOL))
        counterexamples += int(np.count_nonzero(~agree))
        trivial += int(np.count_nonzero(zero_h))
        max_invariance = float(np.linalg.norm(outside, axis=(2, 3)).max(initial=max_invariance))
        max_trivial_transport = float(transport[zero_h].max(initial=max_trivial_transport))
        min_nontrivial_transport = float(transport[~zero_h].min(initial=min_nontrivial_transport))

    witness_error = float(np.abs(r_x[_DFS, _DFS] - SIGMA_X).max())

    nontrivial = trials - trivial
    return NoGoReport(
        trials=trials,
        seed=seed,
        trivial_count=trivial,
        nontrivial_count=nontrivial,
        counterexamples=counterexamples,
        max_dfs_invariance_defect=max_invariance,
        max_trivial_transport_defect=max_trivial_transport,
        min_nontrivial_transport_defect=min_nontrivial_transport
        if nontrivial
        else 0.0,
        witness_error=witness_error,
    )
