"""Controllable spin-chain Hamiltonians and gate recipes.

The building blocks are the excitation-conserving two-body exchange terms

    R^x_kl = (sx_k sx_l + sy_k sy_l) / 2        (XY coupling)
    R^y_kl = (sx_k sy_l - sy_k sx_l) / 2        (Dzyaloshinskii-Moriya coupling)

plus four-body products of two such terms on disjoint qubit pairs. All of
them commute with the collective dephasing generator sum_k sz_k, which is
what makes the single-excitation encoding decoherence-free. Logical qubit n
occupies the contiguous physical qubits (3n-2, 3n-1, 3n).

``exchange_term`` writes any product of these terms by index,
``recipe_hamiltonian`` sums a gate recipe's terms straight from the recipe,
and ``target_for`` is the logical gate the recipe aims at.
"""

from __future__ import annotations

import math

import numpy as np

from .serialize import Record, as_float, as_int, replace

GATE_KINDS = ("XZ", "ZX", "CNOT")

# Dimensionless pulse areas strength * duration that close each gate loop.
PULSE_AREAS = {
    "XZ": math.pi / math.sqrt(2.0),
    "ZX": math.pi,
    "CNOT": math.pi / math.sqrt(2.0),
}

PULSE_AREA_TOL = 1e-12

# Register budget: block indices run from 1 to MAX_BLOCKS, so a register has
# at most 9 qubits (512-dim): the universal set's two blocks and an idle one.
MAX_BLOCKS = 3


class GateRecipe(Record):
    """Pulse prescription for one gate: kind, phase, strength, duration, blocks.
    The phase defaults to 0 and a CNOT takes none; a bare-int ``blocks`` is
    one block.

    The constructor enforces the exact pulse-area condition for the kind
    (pi/sqrt(2) for XZ and CNOT, pi for ZX) unless ``detuned`` is set, which
    admits arbitrary areas for robustness sweeps and is flagged in reports.
    """

    kind: str
    phase: float = 0.0
    strength: float
    duration: float
    blocks: tuple[int, ...]
    detuned: bool = False

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"kind must be one of {GATE_KINDS}, got {self.kind!r}")
        if not isinstance(self.detuned, bool):
            raise ValueError(f"detuned must be true or false, got {self.detuned!r}")
        for name in ("phase", "strength", "duration"):
            value = getattr(self, name)
            if name == "phase" or value != -math.inf:  # -inf is refused as non-positive
                object.__setattr__(self, name, as_float(value, name))
        if self.strength <= 0 or self.duration <= 0:
            raise ValueError("strength and duration must be positive")
        blocks = (self.blocks,) if isinstance(self.blocks, int) else self.blocks
        object.__setattr__(self, "blocks", tuple(as_int(b, "block index") for b in blocks))
        expected = 2 if self.kind == "CNOT" else 1
        if len(self.blocks) != expected:
            raise ValueError(f"{self.kind} recipe needs {expected} block index(es)")
        if any(b < 1 for b in self.blocks):
            raise ValueError(f"block indices must be >= 1, got {self.blocks}")
        if max(self.blocks) > MAX_BLOCKS:
            raise ValueError(f"block indices must be <= {MAX_BLOCKS}, got {self.blocks}")
        if self.kind == "CNOT" and self.blocks[0] == self.blocks[1]:
            raise ValueError("CNOT control and target blocks must differ")
        if self.kind == "CNOT" and self.phase != 0:
            raise ValueError(f"a CNOT recipe takes no phase, got {self.phase!r}")
        if not self.detuned:
            area = self.strength * self.duration
            if abs(area - PULSE_AREAS[self.kind]) > PULSE_AREA_TOL:
                raise ValueError(
                    f"pulse area {area!r} violates the {self.kind} condition "
                    f"{PULSE_AREAS[self.kind]!r}; use detune() for deliberate offsets"
                )
        # Every kind's eigenvalues lie within sqrt(2) * strength of zero, up
        # to roundoff, so this bound keeps each phase lambda * t finite.
        if not math.isfinite(1.5 * self.strength * self.duration):
            raise ValueError("pulse area too large: 1.5 * strength * duration must be finite")

    # Overrides the record layout: the input echoed as given, floats unrounded.
    def to_json_dict(self) -> dict:
        return self.as_dict()


def detune(recipe: GateRecipe, area_scale: float) -> GateRecipe:
    """Recipe with pulse area scaled by ``area_scale`` > 0, flagged as detuned."""
    return replace(recipe, duration=recipe.duration * area_scale, detuned=True)


def target_for(recipe: GateRecipe) -> np.ndarray:
    """The gate ``recipe`` aims at on its logical basis. XZ is the bit flip
    with phase [[0, e^{-i phi}], [e^{i phi}, 0]], ZX the phase flip with
    rotation [[cos phi, i sin phi], [-i sin phi, -cos phi]], and CNOT, its
    first block controlling, swaps |10>_L and |11>_L."""
    phi = recipe.phase
    if recipe.kind == "XZ":
        return np.array([[0, np.exp(-1j * phi)], [np.exp(1j * phi), 0]], dtype=np.complex128)
    if recipe.kind == "ZX":
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, 1j * s], [-1j * s, -c]], dtype=np.complex128)
    return np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]


def exchange_term(n: int, *hops: tuple[str, int, int]) -> np.ndarray:
    """Product of exchange terms R^axis_kl, one per ``(axis, k, l)`` hop, on
    an n-qubit register; the rightmost hop acts first.

    Built by index. A hop annihilates the basis states where qubits k and l
    are equal and flips both bits otherwise, so it moves the one excitation
    (a 1 bit) between them: with amplitude 1 for R^x, and for R^y with +i
    when qubit k holds the excitation and -i when qubit l does. Every column
    of the product therefore holds at most one entry, and the product
    conserves total excitation number.
    """
    rows = np.arange(2 ** n)
    amplitudes = np.ones(2 ** n, dtype=np.complex128)
    for axis, k, l in reversed(hops):
        on_k, on_l = rows >> (n - k) & 1, rows >> (n - l) & 1
        amplitudes *= on_k ^ on_l if axis == "x" else 1j * (on_k - on_l)
        rows ^= (1 << (n - k)) | (1 << (n - l))
    term = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    term[rows, np.arange(2 ** n)] = amplitudes
    return term


def collective_z(n: int) -> np.ndarray:
    """Diagonal of the collective dephasing generator sum_k sz_k, which is
    diagonal: the float64 array n - 2 * popcount of each basis index."""
    popcounts = (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).sum(axis=1)
    return (n - 2 * popcounts).astype(np.float64)


def recipe_hamiltonian(recipe: GateRecipe) -> np.ndarray:
    """Gate Hamiltonian of ``recipe`` on the register its blocks span: the
    2^(3 max(blocks)) states of blocks 1 to max(blocks).

    Single-block gates couple qubits (3b-2, 3b-1) and (3b-2, 3b) of block
    b; the CNOT with control block c and target block t couples (3c-2, 3c)
    with (3t-2, 3t-1) and (3t-2, 3t). The terms are summed onto one zero
    matrix in the order listed; ``GateRecipe`` caps max(blocks) at ``MAX_BLOCKS``.
    """
    n = 3 * max(recipe.blocks)
    J = recipe.strength
    if recipe.kind == "CNOT":
        ctl, tgt = recipe.blocks
        terms = [
            (J, [("x", 3 * ctl - 2, 3 * ctl), ("x", 3 * tgt - 2, 3 * tgt - 1)]),
            (-J, [("x", 3 * ctl - 2, 3 * ctl), ("x", 3 * tgt - 2, 3 * tgt)]),
        ]
    else:
        (b,) = recipe.blocks
        q1, q2, q3 = 3 * b - 2, 3 * b - 1, 3 * b
        c = math.cos(recipe.phase / 2.0)
        s = math.sin(recipe.phase / 2.0)
        if recipe.kind == "XZ":
            terms = [
                (J * c, [("x", q1, q2)]),
                (-J * s, [("y", q1, q2)]),
                (-J * c, [("x", q1, q3)]),
                (-J * s, [("y", q1, q3)]),
            ]
        else:
            terms = [
                (J * s, [("y", q1, q2)]),
                (-J * c, [("x", q1, q3)]),
            ]
    h = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for value, hops in terms:
        h += value * exchange_term(n, *hops)
    return h
