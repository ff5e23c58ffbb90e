"""Decoherence-free and logical subspaces of the single-excitation encoding.

One logical qubit lives on three physical qubits. The single-excitation
states |100>, |010>, |001> share the collective-dephasing eigenvalue +1 and
span the protected space; the logical basis is |0>_L = |010>, |1>_L = |001>
with |a> = |100> as the ancilla through which gate evolution transits.
Every basis the package certifies on is a product of these states over a
recipe's blocks, built by ``dfs_product_basis``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .operators import as_complex_matrix, dagger
from .serialize import Record, as_float, as_int

ORTHONORMALITY_TOL = 1e-12


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


# Bit pattern of each single-block state on its three qubits, qubit 1 = MSB.
_BLOCK_BITS = {"a": 0b100, "0": 0b010, "1": 0b001}


def dfs_product_basis(blocks: Sequence[int], states: str = "a01") -> BasisSet:
    """Every assignment of ``states`` to ``blocks`` on the register they
    span, blocks 1 to max(blocks); the blocks not listed sit in |0>_L.

    Each character of ``states`` names a single-block state: "a" is |a>,
    "0" is |0>_L and "1" is |1>_L. Columns run in lexicographic order with
    the first listed block most significant, and each label joins the
    blocks' characters: blocks (1, 2) with states "01" give |00>_L, |01>_L,
    |10>_L, |11>_L, labelled "00", "01", "10", "11". Each column's single 1
    is written by index.
    """
    if not blocks or len(set(blocks)) != len(blocks):
        raise ValueError(f"blocks must be nonempty and distinct, got {list(blocks)}")
    if min(blocks) < 1:
        raise IndexError(f"block indices must be >= 1, got {list(blocks)}")
    n_blocks = max(blocks)
    rows, labels = [int("010" * n_blocks, 2)], [""]
    for block in blocks:
        shift = 3 * (n_blocks - block)
        rows = [row & ~(0b111 << shift) | _BLOCK_BITS[s] << shift for row in rows for s in states]
        labels = [label + s for label in labels for s in states]
    vectors = np.zeros((2 ** (3 * n_blocks), len(rows)), dtype=np.complex128)
    vectors[rows, np.arange(len(rows))] = 1.0
    return BasisSet(vectors, tuple(labels))


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
