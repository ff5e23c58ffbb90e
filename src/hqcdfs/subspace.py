"""Decoherence-free and logical subspaces of the single-excitation encoding.

One logical qubit lives on three physical qubits. The single-excitation
states |100>, |010>, |001> share the collective-dephasing eigenvalue +1 and
span the protected space; the logical basis is |0>_L = |010>, |1>_L = |001>
with |a> = |100> as the ancilla through which gate evolution transits.
This module holds the bases only: ``dfs_product_basis`` builds the products
of these states over a recipe's blocks, and ``BasisSet`` reads any --basis.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .operators import ContractViolation, dagger
from .serialize import Record, as_float, matrix_to_json

ORTHONORMALITY_TOL = 1e-12


class BasisSet(Record):
    """Ordered orthonormal vectors spanning a subspace.

    ``vectors`` holds the k basis vectors as the columns of a (d, k) array,
    d the dimension of the register.
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or min(v.shape) < 1:
            raise ValueError(f"expected a 2-d matrix, got shape {v.shape}")
        object.__setattr__(self, "vectors", v)
        if v.shape[1] > v.shape[0]:
            raise ValueError("more basis vectors than ambient dimensions")
        # Huge entries overflow to inf or NaN, which the guard refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1]))
        if not defect <= ORTHONORMALITY_TOL * v.shape[1]:
            raise ContractViolation(
                f"basis is not orthonormal: ||G - I||_F = {defect:.3e}"
            )

    @classmethod
    def from_json_dict(cls, data) -> "BasisSet":
        """The basis of the columns under ``vectors``, each a list of
        [re, im] pairs; other keys are ignored."""
        cols = [
            np.array([complex(as_float(re, "re"), as_float(im, "im")) for re, im in column])
            for column in data["vectors"]
        ]
        return cls(np.column_stack(cols))

    def to_json_dict(self) -> dict:
        """The ``--basis`` document that ``from_json_dict`` reads back."""
        return {"vectors": matrix_to_json(self.vectors.T)}


# Bit pattern of each single-block state on its three qubits, qubit 1 = MSB.
_BLOCK_BITS = {"a": 0b100, "0": 0b010, "1": 0b001}


def dfs_product_basis(blocks: Sequence[int], states: str = "a01") -> BasisSet:
    """Every assignment of ``states`` to ``blocks`` on the register they
    span, blocks 1 to max(blocks); the blocks not listed sit in |0>_L.

    Each character of ``states`` names a single-block state: "a" is |a>,
    "0" is |0>_L and "1" is |1>_L. Columns run in lexicographic order with
    the first listed block most significant: blocks (1, 2) with states "01"
    give |00>_L, |01>_L, |10>_L, |11>_L. Each column's single 1 is written
    by index.
    """
    n_blocks = max(blocks)
    rows = [int("010" * n_blocks, 2)]
    for block in blocks:
        shift = 3 * (n_blocks - block)
        rows = [row & ~(0b111 << shift) | _BLOCK_BITS[s] << shift for row in rows for s in states]
    vectors = np.zeros((2 ** (3 * n_blocks), len(rows)), dtype=np.complex128)
    vectors[rows, np.arange(len(rows))] = 1.0
    return BasisSet(vectors)
