"""End-to-end gate realizations and the two-qubit no-go check.

``realize`` runs the full pipeline for one recipe: build the Hamiltonian,
exponentiate, restrict to the logical basis, certify the holonomic
character, and compare against the target both phase-aligned on the logical
subspace and entrywise on the ancilla-completed basis (where the ancilla
picks up a physical -1). ``no_go_certificate`` draws its trials from raw
PCG64 words, read by ``PCG64Words`` without ``numpy.random``.
"""

from __future__ import annotations

import math

import numpy as np

from .holonomy import DEFAULT_CHAIN_STEPS, HolonomyReport, certify
from .model import GateRecipe, exchange_term, recipe_hamiltonian, target_for
from .operators import Spectrum, dagger, phase_aligned_distance
from .serialize import InputError, Record
from .subspace import BasisSet, dfs_product_basis, invariance_defect, restrict


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
    propagator = spectrum.propagator(recipe.duration)

    protected = dfs_product_basis(recipe.blocks)
    logical = dfs_product_basis(recipe.blocks, "01")
    restricted = restrict(propagator, logical)
    target = target_for(recipe)
    distance = phase_aligned_distance(restricted, target)

    # Ancilla-completed: the all-ancilla state, then the logical basis.
    check_basis = BasisSet(np.column_stack([protected.vectors[:, 0], logical.vectors]))
    dfs_restricted = restrict(propagator, check_basis)
    dfs_target = np.pad(target, (1, 0))
    dfs_target[0, 0] = -1.0
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


# Basis states 1 and 2, |01> and |10>, span the protected space of two
# collectively dephasing qubits; states 0 and 3 lie outside it.
_DFS, _OUTSIDE_DFS = slice(1, 3), [0, 3]

NO_GO_TOL = 1e-10
# Evolution times sampled per no-go trial, and the trials batched per chunk.
# Memory stays flat whatever the trial count; 128- to 512-trial chunks saved
# at most about 1 ms of a 500-trial call and raised its peak RSS from 37.4
# to 38.2-40.3 MB.
_NO_GO_TIMES = 4
_NO_GO_CHUNK = 64
# Raw words one trial can take: its coupling flag, a zero flag and a
# magnitude per axis, one fresh word for its two signs, and its times.
_NO_GO_WORDS = 1 + 2 * 2 + 1 + _NO_GO_TIMES
# Pauli X: the no-go witness restricts to it exactly.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)

# PCG64's 128-bit LCG multiplier.
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints,
    for a seed >= 0."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 limbs of 128-bit integers."""
    pairs = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8")
    return pairs[1::2].astype(np.uint64), pairs[0::2].astype(np.uint64)


# Array-typed constants: a Python int operand costs a conversion per ufunc call.
_LOW32, _32, _58, _63 = (np.uint64(v) for v in (_MASK32, 32, 58, 63))


class PCG64Words:
    """The raw output words of NumPy's PCG64 bit generator, without
    ``numpy.random``, read in requests of at most one chunk of no-go trials.

    ``PCG64Words(seed).random_raw(n)`` returns, bit for bit, the words that
    ``numpy.random.PCG64(seed).random_raw(n)`` returns over the same sequence
    of calls, for any ``n`` up to ``_NO_GO_WORDS * _NO_GO_CHUNK``. The seed,
    an int >= 0, is hashed as NumPy's ``SeedSequence`` hashes it. PCG64
    (O'Neill, HMC-CS-2014-0905, 2014) steps a 128-bit LCG and emits the
    XSL-RR permutation of each state. The k-th next state is
    ``A_k s + C_k`` (mod 2^128), read off a table of jump-ahead multipliers
    and offsets (Brown, "Random number generation with arbitrary strides",
    1994) built once per generator, so a request is one vectorized pass over
    uint64 limbs.
    """

    def __init__(self, seed: int):
        words = _seed_words(seed)
        increment = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = ((increment + (words[0] << 64 | words[1])) * _MULTIPLIER + increment) & _MASK128
        multipliers, offsets = [_MULTIPLIER], [increment]
        for _ in range(_NO_GO_WORDS * _NO_GO_CHUNK - 1):
            multipliers.append(multipliers[-1] * _MULTIPLIER & _MASK128)
            offsets.append((offsets[-1] * _MULTIPLIER + increment) & _MASK128)
        self._mult_hi, self._mult_lo = _limbs(multipliers)
        self._mult_lo_halves = self._mult_lo & _LOW32, self._mult_lo >> _32
        self._offset_hi, self._offset_lo = _limbs(offsets)

    def random_raw(self, size: int) -> np.ndarray:
        """The next ``size`` output words, as uint64, for 0 <= size <= its table's length."""
        if size == 0:
            return np.empty(0, dtype=np.uint64)
        high, low = np.uint64(self._state >> 64), np.uint64(self._state & _MASK64)
        # The high limb of mult_lo * low (the 128-bit product), from 32-bit
        # halves; no partial sum below exceeds 2^64 - 1.
        a0, a1 = (half[:size] for half in self._mult_lo_halves)
        b0, b1 = low & _LOW32, low >> _32
        lower = a1 * b0 + (a0 * b0 >> _32)
        upper = a0 * b1 + (lower & _LOW32)
        state_hi = a1 * b1 + (lower >> _32) + (upper >> _32)
        # state_k = multiplier_k * state + offset_k (mod 2^128), k = 1 .. size.
        mult_lo, offset_lo = self._mult_lo[:size], self._offset_lo[:size]
        state_lo = mult_lo * low + offset_lo
        state_hi += mult_lo * high
        state_hi += self._mult_hi[:size] * low
        state_hi += self._offset_hi[:size]
        state_hi += state_lo < offset_lo
        self._state = int(state_hi[-1]) << 64 | int(state_lo[-1])
        # XSL-RR: the two halves xor-ed, rotated right by the top six bits.
        mixed, rotation = state_hi ^ state_lo, state_hi >> _58
        return mixed >> rotation | mixed << (-rotation & _63)


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
    bits = PCG64Words(seed)
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
    ``_NO_GO_CHUNK``: one batched ``Spectrum`` and one batched propagator
    call per chunk, with every check an array reduction, so memory stays
    the same whatever the trial count. A trial count below 1 or a negative
    seed raises InputError here.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
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
        u = Spectrum(h).propagator(times)
        frames = u[..., _DFS]
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
