"""Certification of holonomic evolution and frame-free reconstruction.

A constant-Hamiltonian evolution acts as a pure holonomy on a subspace when
(i) the subspace returns to itself at the final time and (ii) the
Hamiltonian's matrix elements vanish on the transported subspace, so no
dynamical phase accumulates. Both conditions are measured as defects here,
and the holonomy itself is rebuilt independently of the frame by discrete
parallel transport (the overlap-chain, or Wilson-loop, construction of
Fukui, Hatsugai & Suzuki, JPSJ 74, 1674 (2005)): chaining the evolved
projectors P(t_N) ... P(t_1) over a uniform time grid and unitarizing the
resulting overlap matrix.

All three are computed on the k-dim span B (k = 2 or 4) from two evolved
frames of it, read from ``Spectrum.frames`` with no d x d propagator. The
one span stage, ``evolve_span``, reads B^dag U(tau) B and both defects from
U(tau) B for ``certify``, ``sweep`` and ``noise``. Every link
V_{j+1}^dag V_j of the chain equals the same k x k matrix B^dag U(-tau/N) B,
from the frame evolved one step back, so the chain is evaluated in closed
form as (B^dag U(tau) B) link^N with O(log N) products. The test oracles
keep the sampled frames, the projectors and the explicit projector product
as the reference.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import ContractViolation, Spectrum, dagger, phase_aligned_distance, polar_unitary
from .serialize import Record
from .subspace import BasisSet, invariance_defect, restrict

# Conditions (i)/(ii) must hold at this level before reconstruction runs.
PRECONDITION_TOL = 1e-8

# The --steps range, which cli checks; certify takes the steps it is given.
DEFAULT_CHAIN_STEPS = 4096
MIN_CHAIN_STEPS = 8
# Above about 1e15 steps the roundoff of the link, raised to the power steps,
# swamps the chain (XZ at 1e15 reads reconstruction distance 0.013); at 2^30
# the chain defect of XZ, ZX and CNOT is at most 9.3e-7.
MAX_CHAIN_STEPS = 2 ** 30


def evolve_span(spectrum: Spectrum, basis: BasisSet, tau: float) -> tuple[np.ndarray, float, float]:
    """The span stage: (B^dag U(tau) B, cyclicity defect, transport defect)
    of the span B of ``basis`` under the propagator of ``spectrum``, from
    one evolved frame U(tau) B.

    The cyclicity defect is || P(tau) - P(0) ||_F with P(t) the evolved
    projector of the span: sqrt(2) || (I - P) U(tau) B ||_F, which is equal
    for unitary U(tau). The transport defect is max over k, l of
    |<phi_k(t)| h |phi_l(t)>| with phi_k(t) = exp(-i h t) b_k: h commutes
    with its own propagator, so at every t this is max |(B^dag h B)_kl|,
    the value at t = 0.
    """
    frames = spectrum.frames(tau, basis.vectors)
    return (
        dagger(basis.vectors) @ frames,
        math.sqrt(2.0) * invariance_defect(frames, basis),
        float(np.abs(restrict(spectrum.h, basis)).max()),
    )


class HolonomyReport(Record):
    """Certification artifact for one (hamiltonian, basis, tau) triple.

    ``reconstruction_distance`` is the phase-aligned distance between the
    unitarized chain and the restricted propagator; ``chain_defect`` is the
    Frobenius distance of the raw (pre-unitarization) chained overlap matrix
    from the restricted propagator, the quantity that shrinks at the
    documented O(1/steps) rate. Fields are None when reconstruction was
    skipped because the preconditions fail (detuned pulses).
    """

    cyclicity_defect: float
    transport_defect: float
    reconstruction_distance: float | None
    chain_defect: float | None
    holonomy_matrix: np.ndarray | None
    steps: int
    tau: float


def certify(
    spectrum: Spectrum, basis: BasisSet, tau: float, steps: int, reconstruct=True
) -> HolonomyReport:
    """Condition defects, plus the holonomy rebuilt by the projector chain
    when ``reconstruct`` is set, all from the span stage ``evolve_span``.

    With ``reconstruct`` false the report carries only the two defects,
    whatever their size, and the reconstruction fields are None: the
    preconditions genuinely fail off the pulse-area condition. Otherwise it
    refuses to reconstruct (ContractViolation) when conditions (i) or (ii)
    fail; their defects are never assumed away. The chained overlap matrix
    is unitarized by polar decomposition, which raises ContractViolation
    instead of silently regularizing a rank-deficient chain. ``steps`` is
    taken as given: ``cli.main`` checks it where it enters.
    """
    restricted, cyc, tra = evolve_span(spectrum, basis, tau)
    if not reconstruct:
        return HolonomyReport(cyc, tra, None, None, None, steps, tau)
    if not cyc <= PRECONDITION_TOL or not tra <= PRECONDITION_TOL:
        raise ContractViolation(
            f"not a holonomic evolution on this subspace: cyclicity defect "
            f"{cyc:.3e}, transport defect {tra:.3e} (tolerance {PRECONDITION_TOL:.0e})"
        )
    link = dagger(basis.vectors) @ spectrum.frames(-tau / steps, basis.vectors)
    raw = restricted @ np.linalg.matrix_power(link, steps)
    holonomy_matrix = polar_unitary(raw)
    return HolonomyReport(
        cyclicity_defect=cyc,
        transport_defect=tra,
        holonomy_matrix=holonomy_matrix,
        reconstruction_distance=phase_aligned_distance(holonomy_matrix, restricted),
        chain_defect=float(np.linalg.norm(raw - restricted)),
        steps=steps,
        tau=tau,
    )
