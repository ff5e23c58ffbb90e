"""Target gates, end-to-end realizations, and the two-qubit no-go check.

``realize`` runs the full pipeline for one recipe: build the Hamiltonian,
exponentiate, restrict to the logical basis, certify the holonomic
character, and compare against the target both phase-aligned on the logical
subspace and entrywise on the ancilla-completed basis (where the ancilla
picks up a physical -1).
"""

from __future__ import annotations

import math

import numpy as np

from .holonomy import HolonomyReport, certify
from .model import GateRecipe, exchange_term, recipe_hamiltonian
from .operators import SIGMA_X, Spectrum, dagger, phase_aligned_distance
from .serialize import Record
from .subspace import BasisSet, dfs_product_basis, invariance_defect, restrict

DEFAULT_CHAIN_STEPS = 4096


def target_uxz(phi: float) -> np.ndarray:
    """Bit-flip gate with phase: [[0, e^{-i phi}], [e^{i phi}, 0]]."""
    return np.array(
        [[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]], dtype=np.complex128
    )


def target_uzx(phi: float) -> np.ndarray:
    """Phase-flip gate with rotation: [[cos, i sin], [-i sin, -cos]]."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, 1j * s], [-1j * s, -c]], dtype=np.complex128)


def target_cnot() -> np.ndarray:
    """First logical qubit controls: |10> <-> |11>, identity elsewhere."""
    m = np.eye(4, dtype=np.complex128)
    m[2, 2] = m[3, 3] = 0.0
    m[2, 3] = m[3, 2] = 1.0
    return m


def target_for(recipe: GateRecipe) -> np.ndarray:
    if recipe.kind == "XZ":
        return target_uxz(recipe.phase)
    if recipe.kind == "ZX":
        return target_uzx(recipe.phase)
    return target_cnot()


def ancilla_completed_target(recipe: GateRecipe) -> np.ndarray:
    """The quoted gate matrix on the ancilla-completed basis.

    Single-qubit gates: 3 x 3 with the -1 ancilla entry. CNOT: the 5 x 5
    matrix diag(-1, 1, 1) + trailing swap block.
    """
    logical = target_for(recipe)
    full = np.zeros(
        (logical.shape[0] + 1, logical.shape[1] + 1), dtype=np.complex128
    )
    full[0, 0] = -1.0
    full[1:, 1:] = logical
    return full


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


def realize(
    recipe: GateRecipe,
    steps: int = DEFAULT_CHAIN_STEPS,
    spectrum: Spectrum | None = None,
) -> GateRealization:
    """Recipe -> propagator -> restriction -> certification -> comparison.

    The register holds ``max(recipe.blocks)`` blocks, those the recipe does
    not name idle in |0>_L. A given ``spectrum`` is that of the recipe's
    Hamiltonian, shared by recipes differing only in duration. Detuned
    recipes are reported, not rejected: the holonomy preconditions genuinely
    fail off the pulse-area condition, so their report carries the
    condition defects without a reconstruction.
    """
    if spectrum is None:
        spectrum = Spectrum(recipe_hamiltonian(recipe))
    propagator = spectrum.propagator(recipe.duration)

    protected = dfs_product_basis(recipe.blocks)
    logical = dfs_product_basis(recipe.blocks, "01")
    restricted = restrict(propagator, logical)
    target = target_for(recipe)
    distance = phase_aligned_distance(restricted, target)

    # Ancilla-completed: the all-ancilla state, then the logical basis.
    check_basis = BasisSet(
        np.column_stack([protected.vectors[:, 0], logical.vectors]),
        protected.labels[:1] + logical.labels,
    )
    dfs_restricted = restrict(propagator, check_basis)
    dfs_target = ancilla_completed_target(recipe)
    dfs_error = float(np.abs(dfs_restricted - dfs_target).max())

    holonomy = certify(
        spectrum, logical, recipe.duration, steps, propagator, reconstruct=not recipe.detuned
    )

    return GateRealization(
        recipe=recipe,
        n_blocks=max(recipe.blocks),
        spectator="0L",
        distance=distance,
        invariance_defect=invariance_defect(propagator, protected),
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


def two_qubit_dfs() -> BasisSet:
    """The protected two-state space of two collectively dephasing qubits."""
    return BasisSet(np.eye(4)[:, 1:3], ("01", "10"))


NO_GO_TOL = 1e-10
# Evolution times sampled per no-go trial, and the trials stacked per chunk.
# Memory stays flat whatever the trial count; 128- to 512-trial chunks saved
# at most about 1 ms of a 500-trial call and raised its peak RSS from 37.4
# to 38.2-40.3 MB.
_NO_GO_TIMES = 4
_NO_GO_CHUNK = 64
# Raw words one trial can take: its coupling flag, a zero flag and a
# magnitude per axis, one fresh word for its two signs, and its times.
_NO_GO_WORDS = 1 + 2 * 2 + 1 + _NO_GO_TIMES


def _no_go_draws(trials: int, seed: int):
    """Yield the couplings and evolution times of each chunk of trials.

    They equal, bit for bit, the per-trial ``default_rng(seed)`` draws:
    ``random() >= 0.25`` couples the trial; then per axis J is zero if
    ``random() < 0.2``, else ``uniform(0.1, 2.0) * choice([-1, 1])``; then
    ``uniform(0.25, 3.0, size=4)`` gives the times. They are read in that
    order from raw PCG64 words w: a double is ``(w >> 11) * 2**-53``; a sign
    is the top bit of the next 32-bit half (Lemire's bounded draw), the low
    half of a fresh word first and the high half kept for the next sign.
    Each chunk reads at most ``_NO_GO_WORDS`` words per trial; unused words
    carry over. The words are those of ``numpy.random.PCG64(seed)``, read by
    ``PCG64Words`` so that ``numpy.random`` is never imported.
    """
    from .pcg64 import PCG64Words  # local: only nogo compiles the reader

    bits = PCG64Words(seed, _NO_GO_WORDS * _NO_GO_CHUNK)
    words, high = np.empty(0, dtype=np.uint64), None
    for start in range(0, trials, _NO_GO_CHUNK):
        size = min(_NO_GO_CHUNK, trials - start)
        words = np.concatenate([words, bits.random_raw(max(0, _NO_GO_WORDS * size - len(words)))])
        unit = (words >> 11) * 2.0**-53
        flags, raw = unit.tolist(), words.tolist()
        couplings, time_at, pos = [], [], 0
        for _ in range(size):
            pair = [0.0, 0.0]
            pos += 1
            if flags[pos - 1] >= 0.25:
                for axis in (0, 1):
                    pos += 1
                    if flags[pos - 1] >= 0.2:
                        magnitude = 0.1 + (2.0 - 0.1) * flags[pos]
                        pos += 1
                        if high is None:
                            sign, high = raw[pos] >> 31 & 1, raw[pos] >> 63
                            pos += 1
                        else:
                            sign, high = high, None
                        pair[axis] = magnitude if sign else -magnitude
            couplings.append(pair)
            time_at.append(pos)
            pos += _NO_GO_TIMES
        times = 0.25 + (3.0 - 0.25) * unit[np.add.outer(time_at, range(_NO_GO_TIMES))]
        words = words[pos:]
        yield np.array(couplings), times


def no_go_certificate(trials: int, seed: int) -> NoGoReport:
    """Check, over random two-qubit couplings, the equivalence

        vanishing transport defect on the protected space
            <=> restricted Hamiltonian is zero
            <=> restricted propagator is the identity at all sampled times,

    and that the protected space stays invariant under the evolution. Counts
    configurations and counterexamples; also evaluates the explicit witness
    with unit XY coupling, whose restricted Hamiltonian is exactly sigma_x.

    The trials arrive from ``_no_go_draws`` in chunks of at most
    ``_NO_GO_CHUNK``: one stacked ``Spectrum`` and one stacked propagator
    call per chunk, with every check an array reduction, so memory stays
    the same whatever the trial count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dfs = two_qubit_dfs()
    v = dfs.vectors
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

        h_norm = np.abs(restrict(h, dfs)).max(axis=(1, 2))
        u = Spectrum(h).propagator(times)
        frames = u @ v
        inside = dagger(v) @ frames
        outside = frames - v @ inside
        transport = np.abs(dagger(frames) @ h[:, None] @ frames).max(axis=(1, 2, 3))
        identity_dist = np.linalg.norm(inside - eye, axis=(2, 3)).max(axis=1)

        zero_h = h_norm <= NO_GO_TOL
        agree = (zero_h == (transport <= NO_GO_TOL)) & (zero_h == (identity_dist <= NO_GO_TOL))
        counterexamples += int(np.count_nonzero(~agree))
        trivial += int(np.count_nonzero(zero_h))
        max_invariance = float(np.linalg.norm(outside, axis=(2, 3)).max(initial=max_invariance))
        max_trivial_transport = float(transport[zero_h].max(initial=max_trivial_transport))
        min_nontrivial_transport = float(transport[~zero_h].min(initial=min_nontrivial_transport))

    witness = restrict(r_x, dfs)
    witness_error = float(np.abs(witness - SIGMA_X).max())

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
