"""Decoherence-free and logical subspaces of the single-excitation encoding.

One logical qubit lives on three physical qubits. The single-excitation
states |100>, |010>, |001> share the collective-dephasing eigenvalue +1 and
span the protected space; the logical basis is |0>_L = |010>, |1>_L = |001>
with |a> = |100> as the ancilla through which gate evolution transits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .operators import as_complex_matrix, dagger
from .serialize import Record, as_float, as_int

ORTHONORMALITY_TOL = 1e-12

# Bit patterns of the protected-space basis on one block, qubit 1 = MSB.
_BLOCK_PATTERNS = {"a": "100", "0L": "010", "1L": "001"}


class LogicalBlock(Record):
    """Logical qubit ``index`` on physical qubits (3n-2, 3n-1, 3n)."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise IndexError(f"block index must be >= 1, got {self.index}")

    @property
    def physical_qubits(self) -> tuple[int, int, int]:
        return (3 * self.index - 2, 3 * self.index - 1, 3 * self.index)


def bit_state(bits: str) -> np.ndarray:
    """Computational basis vector for a bitstring, qubit 1 = most significant."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"expected a nonempty bitstring, got {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[int(bits, 2)] = 1.0
    return vec


class BasisSet(Record):
    """Ordered orthonormal vectors spanning a subspace, with unique labels.

    ``vectors`` holds the k basis vectors as the columns of a
    (dim_ambient, k) array.
    """

    vectors: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        v = as_complex_matrix(self.vectors)
        object.__setattr__(self, "vectors", v)
        if isinstance(self.labels, str) or not all(isinstance(s, str) for s in self.labels):
            raise ValueError(f"labels must be a sequence of strings, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != v.shape[1]:
            raise ValueError(
                f"{v.shape[1]} vectors but {len(self.labels)} labels"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be unique, got {self.labels}")
        if v.shape[1] > v.shape[0]:
            raise ValueError("more basis vectors than ambient dimensions")
        gram = dagger(v) @ v
        defect = np.linalg.norm(gram - np.eye(v.shape[1]))
        if defect > ORTHONORMALITY_TOL * max(v.shape[1], 1):
            raise ContractViolation(
                f"basis is not orthonormal: ||G - I||_F = {defect:.3e}"
            )

    @property
    def dim_ambient(self) -> int:
        return self.vectors.shape[0]

    def projector(self) -> np.ndarray:
        """P = sum |b_i><b_i| built from the stored vectors."""
        return self.vectors @ dagger(self.vectors)

    @classmethod
    def from_json_dict(cls, data) -> "BasisSet":
        cols = [
            np.array([complex(as_float(re, "re"), as_float(im, "im")) for re, im in column])
            for column in data["vectors"]
        ]
        basis = cls(np.column_stack(cols), data["labels"])
        if as_int(data["dim_ambient"], "dim_ambient") != basis.dim_ambient:
            raise ValueError(f"dim_ambient {data['dim_ambient']!r} is not {basis.dim_ambient}")
        return basis


def _check_block_fits(block: LogicalBlock, n_total: int) -> None:
    if 3 * block.index > n_total:
        raise IndexError(
            f"block {block.index} needs qubits up to {3 * block.index}, register has {n_total}"
        )


# Single-block states a basis ranges over, mapped to their label tokens.
_DFS_STATES = {"a": "a", "0L": "0L", "1L": "1L"}
_LOGICAL_STATES = {"0L": "0", "1L": "1"}


def _product_basis(
    blocks: Sequence[LogicalBlock], n_total: int, spectator: str, states: dict[str, str]
) -> BasisSet:
    """Every assignment of ``states`` to ``blocks``, other blocks in ``spectator``.

    Lexicographic order with the first listed block most significant; each
    label joins the blocks' tokens.
    """
    if not blocks or len({b.index for b in blocks}) != len(blocks):
        raise ValueError(f"blocks must be nonempty and distinct, got {[b.index for b in blocks]}")
    for block in blocks:
        _check_block_fits(block, n_total)
    if n_total % 3 != 0:
        raise ValueError(f"register size must be a multiple of 3, got {n_total}")
    if spectator not in _BLOCK_PATTERNS:
        raise ValueError(f"spectator must be one of {sorted(_BLOCK_PATTERNS)}")
    assignments = [()]
    for _ in blocks:
        assignments = [a + (name,) for a in assignments for name in states]
    columns = []
    for assignment in assignments:
        pattern = [_BLOCK_PATTERNS[spectator]] * (n_total // 3)
        for block, name in zip(blocks, assignment):
            pattern[block.index - 1] = _BLOCK_PATTERNS[name]
        columns.append(bit_state("".join(pattern)))
    labels = tuple("".join(states[name] for name in a) for a in assignments)
    return BasisSet(np.column_stack(columns), labels)


def logical_basis(
    blocks: Sequence[LogicalBlock], n_total: int, spectator: str = "0L"
) -> BasisSet:
    """Computational basis of the logical register spanned by ``blocks``.

    Lexicographic ordering with the first listed block as the most
    significant logical qubit: one block gives (|0>_L, |1>_L), two give
    (|00>_L, |01>_L, |10>_L, |11>_L).
    """
    return _product_basis(blocks, n_total, spectator, _LOGICAL_STATES)


def invariant_check_basis(
    blocks: Sequence[LogicalBlock], n_total: int, spectator: str = "0L"
) -> BasisSet:
    """Ancilla-completed basis on which the gate matrices are quoted.

    One block: (|a>, |0>_L, |1>_L). Two blocks: the five-state invariant
    family (|aa>, |00>_L, |01>_L, |10>_L, |11>_L).
    """
    if len(blocks) == 1:
        return dfs_product_basis(blocks, n_total, spectator)
    if len(blocks) != 2:
        raise ValueError("invariant check basis is defined for 1 or 2 blocks")
    ancilla = _product_basis(blocks, n_total, spectator, {"a": "a"})
    logical = logical_basis(blocks, n_total, spectator)
    return BasisSet(
        np.column_stack([ancilla.vectors, logical.vectors]), ancilla.labels + logical.labels
    )


def dfs_product_basis(
    blocks: Sequence[LogicalBlock], n_total: int, spectator: str = "0L"
) -> BasisSet:
    """Full protected space of several blocks (3^len(blocks) states)."""
    return _product_basis(blocks, n_total, spectator, _DFS_STATES)


def restrict(op: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Matrix of entries <b_i| op |b_j> in basis order, for one operator or
    for each in a stack.

    The restriction of a unitary is unitary exactly when the span is
    invariant; see :func:`invariance_defect`.
    """
    op = as_complex_matrix(op, stacked=True)
    if op.shape[-2:] != (basis.dim_ambient, basis.dim_ambient):
        raise ValueError(
            f"operator shape {op.shape} does not match ambient dimension {basis.dim_ambient}"
        )
    return dagger(basis.vectors) @ op @ basis.vectors


def invariance_defect(u: np.ndarray, basis: BasisSet) -> float:
    """|| (I - P) u P ||_F; zero iff span(basis) is invariant under u."""
    u = as_complex_matrix(u)
    if u.shape != (basis.dim_ambient, basis.dim_ambient):
        raise ValueError(
            f"operator shape {u.shape} does not match ambient dimension {basis.dim_ambient}"
        )
    mapped = u @ basis.vectors                      # u P, column form
    outside = mapped - basis.vectors @ (dagger(basis.vectors) @ mapped)
    return float(np.linalg.norm(outside))
