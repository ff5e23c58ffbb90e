"""Validated dense operator algebra for multi-qubit systems.

All operators are plain ``numpy.ndarray`` values of dtype complex128,
checked where they are made: ``Spectrum`` checks its generator Hermitian
and each propagator unitary, ``subspace.BasisSet`` its vectors orthonormal,
each raising :class:`ContractViolation`, and their consumers trust them and
check no shapes. Every check is written so that a NaN fails it, so no entry
is scanned for one. The register's size is bounded once, by ``model.GateRecipe``,
before any operator on it is built. Basis-state indexing convention, fixed
package-wide: qubit 1 is the most significant bit of the computational-basis
index, so for three qubits ``|100>`` is index 4.
"""

from __future__ import annotations

import numpy as np

# Per-dimension tolerance scales for double-precision spectral methods.
ALGEBRA_TOL = 1e-12
UNITARITY_TOL = 1e-10
# Smallest singular value a matrix may have and still be unitarized.
MIN_SINGULAR = 1e-12


class ContractViolation(ValueError):
    """An algebraic contract failed: a non-Hermitian or non-unitary operator,
    a non-orthonormal basis, a rank-deficient chain or an unmet precondition."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _require(contract: str, residual: np.ndarray, tol: float, norm: str) -> None:
    """Raise ContractViolation unless the Frobenius norm ``norm`` of
    ``residual``, worst over a matrix or each of a stack, is at most ``tol``
    per dimension; a NaN residual never is."""
    tol *= residual.shape[-1]
    defect = float(np.linalg.norm(residual, axis=(-2, -1)).max())
    if not defect <= tol:
        raise ContractViolation(f"operator is not {contract}: {norm} = {defect:.3e} > {tol:.3e}")


class Spectrum:
    """Eigendecomposition of one constant Hermitian generator (hbar = 1), or
    of a (T, d, d) stack of them.

    Hermiticity is validated and ``np.linalg.eigh`` runs once, at
    construction, over the whole stack; every propagator and evolved frame
    of the generator is then read off ``values`` and ``vectors``.
    """

    def __init__(self, h):
        self.h = np.asarray(h, dtype=np.complex128)
        _require("Hermitian", self.h - dagger(self.h), ALGEBRA_TOL, "||A - A^dag||_F")
        self.values, self.vectors = np.linalg.eigh(self.h)

    def propagator(self, t) -> np.ndarray:
        """exp(-i h t), exact to roundoff and checked unitary, of shape
        ``t.shape + (d, d)``.

        One generator takes a scalar time or a 1-d array of them; a (T, d, d)
        stack takes times shaped (T, k), k per generator. Both run the one
        batched formula, a scalar time as a time axis of length one.
        """
        t = np.asarray(t, dtype=np.float64)
        times = t.reshape(self.values.shape[:-1] + (-1,))
        phases = np.exp(-1j * self.values[..., None, :] * times[..., None])
        vectors = self.vectors[..., None, :, :]
        u = (vectors * phases[..., None, :]) @ dagger(vectors)
        _require("unitary", dagger(u) @ u - np.eye(u.shape[-1]), UNITARITY_TOL, "||U^dag U - I||_F")
        return u.reshape(t.shape + u.shape[-2:])


def polar_unitary(m) -> np.ndarray:
    """Unitary factor of the polar decomposition m = U P, P positive.

    U is the Frobenius-closest unitary to m. Raises ContractViolation when
    m is (numerically) rank-deficient, its smallest singular value at most
    MIN_SINGULAR, in which case no meaningful unitary factor exists.
    """
    u, s, vh = np.linalg.svd(m)
    if not s.min() > MIN_SINGULAR:
        raise ContractViolation(
            f"matrix is rank-deficient (smallest singular value {s.min():.3e})"
        )
    return u @ vh


def phase_aligned_distance(u, v) -> float:
    """min over phi of ||u - e^{i phi} v||_F for equal-dimension unitaries.

    Zero iff u and v agree up to a global phase. The minimizing phase is
    phi* = arg Tr(v^dag u) in closed form; evaluating the norm at phi*
    directly is algebraically the same as sqrt(2 d - 2 |Tr(v^dag u)|) but
    avoids the cancellation that caps that expression near sqrt(eps).
    """
    phase = np.angle(np.trace(dagger(v) @ u))
    return float(np.linalg.norm(u - np.exp(1j * phase) * v))
