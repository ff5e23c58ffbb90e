"""Controllable spin-chain Hamiltonians and gate recipes.

The building blocks are the excitation-conserving two-body exchange terms

    R^x_kl = (sx_k sx_l + sy_k sy_l) / 2        (XY coupling)
    R^y_kl = (sx_k sy_l - sy_k sx_l) / 2        (Dzyaloshinskii-Moriya coupling)

plus four-body products of two such terms on disjoint qubit pairs. All of
them commute with the collective dephasing generator sum_k sz_k, which is
what makes the single-excitation encoding decoherence-free. Logical qubit n
occupies the contiguous physical qubits (3n-2, 3n-1, 3n).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .operators import check_dimension_cap, pauli_on
from .serialize import Record, as_float, as_int, replace
from .subspace import LogicalBlock

TwoBodyKey = tuple[int, int, str]          # (k, l, axis in {x, y})
FourBodyKey = tuple[int, int, int, int, str]  # (k, l, p, q, axes in {xx, xy, yx, yy})

GATE_KINDS = ("XZ", "ZX", "CNOT")

# Dimensionless pulse areas strength * duration that close each gate loop.
PULSE_AREAS = {
    "XZ": math.pi / math.sqrt(2.0),
    "ZX": math.pi,
    "CNOT": math.pi / math.sqrt(2.0),
}

PULSE_AREA_TOL = 1e-12

_TWO_AXES = ("x", "y")
_FOUR_AXES = ("xx", "xy", "yx", "yy")


class CouplingConfig(Record):
    """Coupling constants of one Hamiltonian instance (energy units, hbar=1).

    Absent keys mean zero coupling. Four-body keys require k < l, p < q and
    disjoint pairs.
    """

    n_qubits: int
    two_body: Mapping[TwoBodyKey, float] = {}
    four_body: Mapping[FourBodyKey, float] = {}

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        check_dimension_cap(self.n_qubits)
        for (k, l, axis), value in self.two_body.items():
            self._check_pair(k, l)
            if axis not in _TWO_AXES:
                raise ValueError(f"two-body axis must be 'x' or 'y', got {axis!r}")
            float(value)
        for (k, l, p, q, axes), value in self.four_body.items():
            self._check_pair(k, l)
            self._check_pair(p, q)
            if {k, l} & {p, q}:
                raise ValueError(
                    f"four-body pairs ({k},{l}) and ({p},{q}) must be disjoint"
                )
            if axes not in _FOUR_AXES:
                raise ValueError(f"four-body axes must be one of {_FOUR_AXES}, got {axes!r}")
            float(value)

    def _check_pair(self, k: int, l: int) -> None:
        if not (1 <= k < l <= self.n_qubits):
            raise ValueError(
                f"coupling indices must satisfy 1 <= k < l <= {self.n_qubits}, got ({k},{l})"
            )

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "two_body": [
                {"k": k, "l": l, "axis": axis, "value": float(v)}
                for (k, l, axis), v in sorted(self.two_body.items())
            ],
            "four_body": [
                {"k": k, "l": l, "p": p, "q": q, "axes": axes, "value": float(v)}
                for (k, l, p, q, axes), v in sorted(self.four_body.items())
            ],
        }


class GateRecipe(Record):
    """Pulse prescription for one gate: kind, phase, strength, duration, blocks.

    The constructor enforces the exact pulse-area condition for the kind
    (pi/sqrt(2) for XZ and CNOT, pi for ZX) unless ``detuned`` is set, which
    admits arbitrary areas for robustness sweeps and is flagged in reports.
    """

    kind: str
    phase: float
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
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.strength <= 0 or self.duration <= 0:
            raise ValueError("strength and duration must be positive")
        object.__setattr__(self, "blocks", tuple(as_int(b, "block index") for b in self.blocks))
        expected = 2 if self.kind == "CNOT" else 1
        if len(self.blocks) != expected:
            raise ValueError(f"{self.kind} recipe needs {expected} block index(es)")
        if any(b < 1 for b in self.blocks):
            raise IndexError(f"block indices must be >= 1, got {self.blocks}")
        check_dimension_cap(3 * max(self.blocks))
        if self.kind == "CNOT" and self.blocks[0] == self.blocks[1]:
            raise ValueError("CNOT control and target blocks must differ")
        if not self.detuned:
            area = self.strength * self.duration
            if abs(area - PULSE_AREAS[self.kind]) > PULSE_AREA_TOL:
                raise ValueError(
                    f"pulse area {area!r} violates the {self.kind} condition "
                    f"{PULSE_AREAS[self.kind]!r}; use detune() for deliberate offsets"
                )

    @classmethod
    def xz(cls, phase: float, strength: float = 1.0, block: int = 1) -> "GateRecipe":
        return cls("XZ", phase, strength, PULSE_AREAS["XZ"] / strength, (block,))

    @classmethod
    def zx(cls, phase: float, strength: float = 1.0, block: int = 1) -> "GateRecipe":
        return cls("ZX", phase, strength, PULSE_AREAS["ZX"] / strength, (block,))

    @classmethod
    def cnot(cls, strength: float = 1.0, blocks: tuple[int, int] = (1, 2)) -> "GateRecipe":
        return cls("CNOT", 0.0, strength, PULSE_AREAS["CNOT"] / strength, tuple(blocks))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "strength": self.strength,
            "duration": self.duration,
            "blocks": list(self.blocks),
            "detuned": self.detuned,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GateRecipe":
        blocks = data["blocks"]
        return cls(
            kind=data["kind"],
            phase=data.get("phase", 0.0),
            strength=data["strength"],
            duration=data["duration"],
            blocks=(blocks,) if isinstance(blocks, int) else blocks,
            detuned=data.get("detuned", False),
        )


def detune(recipe: GateRecipe, area_scale: float) -> GateRecipe:
    """Recipe with pulse area scaled by ``area_scale``, flagged as detuned."""
    if area_scale <= 0:
        raise ValueError("area_scale must be positive")
    return replace(recipe, duration=recipe.duration * area_scale, detuned=True)


def r_op(axis: str, k: int, l: int, n: int) -> np.ndarray:
    """Two-body exchange term R^axis_kl on an n-qubit register.

    Both variants annihilate states where qubits k and l are equal and hop a
    single excitation between them; they conserve total excitation number.
    """
    if axis not in _TWO_AXES:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if not (1 <= k < l <= n):
        raise IndexError(f"need 1 <= k < l <= n, got k={k}, l={l}, n={n}")
    if axis == "x":
        term = pauli_on("x", k, n) @ pauli_on("x", l, n) + pauli_on("y", k, n) @ pauli_on("y", l, n)
    else:
        term = pauli_on("x", k, n) @ pauli_on("y", l, n) - pauli_on("y", k, n) @ pauli_on("x", l, n)
    return 0.5 * term


def collective_z(n: int) -> np.ndarray:
    """Diagonal of the collective dephasing generator sum_k sz_k, which is
    diagonal: the float64 array n - 2 * popcount of each basis index."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    check_dimension_cap(n)
    popcounts = (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).sum(axis=1)
    return (n - 2 * popcounts).astype(np.float64)


def assemble_two_body(config: CouplingConfig) -> np.ndarray:
    """H = sum over two-body couplings of J^axis_kl R^axis_kl."""
    n = config.n_qubits
    h = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for (k, l, axis), value in config.two_body.items():
        h += value * r_op(axis, k, l, n)
    return h


def assemble_four_body(config: CouplingConfig) -> np.ndarray:
    """Sum of coupling * R^a_kl R^b_pq products over the four-body entries.

    Hermitian because the two factors act on disjoint qubit pairs and hence
    commute.
    """
    n = config.n_qubits
    h = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for (k, l, p, q, axes), value in config.four_body.items():
        h += value * (r_op(axes[0], k, l, n) @ r_op(axes[1], p, q, n))
    return h


def assemble(config: CouplingConfig) -> np.ndarray:
    return assemble_two_body(config) + assemble_four_body(config)


def recipe_coupling_config(recipe: GateRecipe, n_blocks: int) -> CouplingConfig:
    """Coupling constants realizing ``recipe`` on a 3*n_blocks qubit register.

    Single-block gates use the pattern on couplings (3n-2, 3n-1) and
    (3n-2, 3n); the CNOT on blocks (m, n) couples (3m-2, 3m) with
    (3n-2, 3n-1) and (3n-2, 3n).
    """
    if any(b > n_blocks for b in recipe.blocks):
        raise IndexError(f"recipe blocks {recipe.blocks} exceed n_blocks={n_blocks}")
    n = 3 * n_blocks
    J = recipe.strength
    if recipe.kind == "XZ":
        q1, q2, q3 = LogicalBlock(recipe.blocks[0]).physical_qubits
        c = math.cos(recipe.phase / 2.0)
        s = math.sin(recipe.phase / 2.0)
        two_body = {
            (q1, q2, "x"): J * c,
            (q1, q2, "y"): -J * s,
            (q1, q3, "x"): -J * c,
            (q1, q3, "y"): -J * s,
        }
        return CouplingConfig(n, two_body=two_body)
    if recipe.kind == "ZX":
        q1, q2, q3 = LogicalBlock(recipe.blocks[0]).physical_qubits
        two_body = {
            (q1, q2, "y"): J * math.sin(recipe.phase / 2.0),
            (q1, q3, "x"): -J * math.cos(recipe.phase / 2.0),
        }
        return CouplingConfig(n, two_body=two_body)
    m1, _, m3 = LogicalBlock(recipe.blocks[0]).physical_qubits
    n1, n2, n3 = LogicalBlock(recipe.blocks[1]).physical_qubits
    four_body = {
        (m1, m3, n1, n2, "xx"): J,
        (m1, m3, n1, n3, "xx"): -J,
    }
    return CouplingConfig(n, four_body=four_body)


def recipe_hamiltonian(recipe: GateRecipe, n_blocks: int) -> np.ndarray:
    """Gate Hamiltonian of ``recipe`` on the full 2^(3 n_blocks) register."""
    return assemble(recipe_coupling_config(recipe, n_blocks))

