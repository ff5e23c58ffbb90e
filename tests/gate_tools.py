"""Test-side tools that compose or inspect gates ``hqcdfs`` already certifies.

No command reports them: the pulse-area-closed recipe of each gate kind,
the three gate recipes at one strength, the rotation and Euler
compositions of the realized gates (acceptance criterion 5, universality
by composition), the leakage profile of an evolution, the decoder of
report matrices and the encoder of ``--basis`` documents.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from hqcdfs.model import PULSE_AREAS, GateRecipe, recipe_hamiltonian, target_for
from hqcdfs.operators import Spectrum, dagger
from hqcdfs.subspace import ORTHONORMALITY_TOL, BasisSet, dfs_product_basis


def matrix_from_json(data) -> np.ndarray:
    """The complex matrix of a report's nested [re, im] pairs."""
    return np.array(
        [[complex(re, im) for re, im in row] for row in data], dtype=np.complex128
    )


def basis_to_json(basis: BasisSet) -> dict:
    """The ``--basis`` document of ``basis``, which ``BasisSet.from_json_dict``
    reads back: each vector a list of [re, im] pairs."""
    return {
        "vectors": [[[float(z.real), float(z.imag)] for z in column] for column in basis.vectors.T],
    }


def xz(phase: float, strength: float = 1.0, block: int = 1) -> GateRecipe:
    """The XZ recipe whose duration closes the pulse area at ``strength``."""
    return GateRecipe("XZ", phase, strength, PULSE_AREAS["XZ"] / strength, (block,))


def zx(phase: float, strength: float = 1.0, block: int = 1) -> GateRecipe:
    """The ZX recipe whose duration closes the pulse area at ``strength``."""
    return GateRecipe("ZX", phase, strength, PULSE_AREAS["ZX"] / strength, (block,))


def cnot(strength: float = 1.0, blocks: tuple[int, int] = (1, 2)) -> GateRecipe:
    """The CNOT recipe, control block first, whose duration closes the pulse
    area at ``strength``."""
    return GateRecipe("CNOT", 0.0, strength, PULSE_AREAS["CNOT"] / strength, tuple(blocks))


def universal_recipes(strength: float = 1.0, phase: float = 0.0) -> tuple[GateRecipe, ...]:
    """The three gate recipes at a common coupling strength (CNOT on blocks 1,2)."""
    return xz(phase, strength), zx(phase, strength), cnot(strength)


def restrict(op: np.ndarray, basis: BasisSet) -> np.ndarray:
    """B^dag op B for the columns B of ``basis``, for one operator or a stack."""
    return dagger(basis.vectors) @ op @ basis.vectors


def realized_logical(recipe: GateRecipe) -> np.ndarray:
    """Fast path: the propagator restricted to the logical basis only."""
    propagator = Spectrum(recipe_hamiltonian(recipe)).frames(recipe.duration)
    return restrict(propagator, dfs_product_basis(recipe.blocks, "01"))


def rotation_sequence(axis: str, angle: float) -> list[GateRecipe]:
    """Two-pulse sequence composing to a rotation about z or x.

    The list is in application (chronological) order; composing the
    corresponding gate matrices right-to-left yields exp(-i angle/2 Z_L) for
    axis 'z' and exp(-i angle/2 X_L) for axis 'x'.
    """
    if axis == "z":
        return [xz(-angle / 2.0), xz(0.0)]
    if axis == "x":
        return [zx(-angle / 2.0), zx(0.0)]
    raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")


def compose_targets(recipes: Sequence[GateRecipe]) -> np.ndarray:
    """Product of target matrices, recipes given in application order."""
    out = np.eye(2, dtype=np.complex128)
    for recipe in recipes:
        out = target_for(recipe) @ out
    return out


def compose_realized(recipes: Sequence[GateRecipe]) -> np.ndarray:
    """Product of realized logical gates, recipes in application order."""
    out = realized_logical(recipes[0])
    for recipe in recipes[1:]:
        out = realized_logical(recipe) @ out
    return out


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]],
        dtype=np.complex128,
    )


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _wrap_angle(x: float) -> float:
    """Wrap to the canonical branch (-pi, pi]."""
    w = math.remainder(x, 2.0 * math.pi)
    return math.pi if w <= -math.pi else w


_AXIS_TOL = 1e-12


def euler_angles(target: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with target = e^{i delta} Rz(a) Rx(b) Rz(g).

    Canonical branch: beta in [0, pi], alpha and gamma in (-pi, pi], and
    gamma = 0 whenever beta is 0 or pi (where only alpha + gamma or
    alpha - gamma is defined).
    """
    u = np.asarray(target, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 unitary, got {u.shape}")
    assert np.linalg.norm(dagger(u) @ u - np.eye(2)) <= 2e-10, "target is not unitary"
    v = np.exp(-0.5j * np.angle(np.linalg.det(u))) * u
    beta = 2.0 * math.atan2(abs(v[0, 1]), abs(v[0, 0]))
    if abs(v[0, 1]) <= _AXIS_TOL:
        alpha, beta, gamma = _wrap_angle(-2.0 * np.angle(v[0, 0])), 0.0, 0.0
    elif abs(v[0, 0]) <= _AXIS_TOL:
        alpha = _wrap_angle(-2.0 * (np.angle(v[0, 1]) + math.pi / 2.0))
        beta, gamma = math.pi, 0.0
    else:
        total = -2.0 * np.angle(v[0, 0])
        diff = -2.0 * (np.angle(v[0, 1]) + math.pi / 2.0)
        alpha = _wrap_angle(0.5 * (total + diff))
        gamma = _wrap_angle(0.5 * (total - diff))
    # Wrapping alpha and gamma independently can move the rotation product
    # to the other sheet of the SU(2) double cover; the sign belongs to the
    # discarded global phase, so read delta off the finished product.
    rebuilt = rz_matrix(alpha) @ rx_matrix(beta) @ rz_matrix(gamma)
    delta = float(np.angle(np.trace(dagger(rebuilt) @ u)))
    return alpha, beta, gamma, delta


def euler_compose(target: np.ndarray) -> list[GateRecipe]:
    """Recipes whose composed gates reproduce ``target`` up to global phase.

    Axis-aligned targets collapse to a single two-pulse sequence; the
    general case emits the six-pulse z-x-z chain. The returned list is in
    application order.
    """
    alpha, beta, gamma, _ = euler_angles(target)
    if beta <= _AXIS_TOL:
        return rotation_sequence("z", _wrap_angle(alpha + gamma))
    if abs(alpha) <= _AXIS_TOL and abs(gamma) <= _AXIS_TOL:
        return rotation_sequence("x", beta)
    return (
        rotation_sequence("z", gamma)
        + rotation_sequence("x", beta)
        + rotation_sequence("z", alpha)
    )


def leakage_profile(
    h: np.ndarray,
    basis_inner: BasisSet,
    basis_outer: BasisSet,
    tau: float,
    steps: int,
) -> list[tuple[float, float, float]]:
    """Worst-case populations leaving the nested subspaces during evolution.

    Returns (t, outer_leakage, inner_leakage) on a uniform grid of
    ``steps + 1`` times in [0, tau]: for each time the max over initial
    inner-basis states of the population outside span(basis_outer) and
    outside span(basis_inner). Requires span(inner) within span(outer).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    outer = basis_outer.vectors
    inside = outer @ (dagger(outer) @ basis_inner.vectors)
    nesting = np.linalg.norm(basis_inner.vectors - inside)
    if nesting > ORTHONORMALITY_TOL * basis_inner.vectors.shape[0]:
        raise ValueError(
            f"inner basis is not contained in outer span (defect {nesting:.3e})"
        )
    spectrum = Spectrum(h)
    profile = []
    for j in range(steps + 1):
        t = tau * j / steps
        evolved = spectrum.frames(t, basis_inner.vectors)
        pop_outer = 1.0 - np.sum(np.abs(dagger(basis_outer.vectors) @ evolved) ** 2, axis=0)
        pop_inner = 1.0 - np.sum(np.abs(dagger(basis_inner.vectors) @ evolved) ** 2, axis=0)
        profile.append((t, float(pop_outer.max()), float(pop_inner.max())))
    return profile
