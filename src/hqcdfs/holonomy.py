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

Because the generator is constant, every link V_{j+1}^dag V_j of that chain
equals the same small matrix B = V_0^dag U(-tau/N) V_0, so the chain is
evaluated in closed form as restrict(U(tau)) B^N with O(log N) products.
The explicit projector product is kept as the reference in the test
oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .operators import Spectrum, dagger, phase_aligned_distance, polar_unitary
from .serialize import Record
from .subspace import BasisSet, restrict

# Conditions (i)/(ii) must hold at this level before reconstruction runs.
PRECONDITION_TOL = 1e-8

MIN_CHAIN_STEPS = 8
# Above about 1e15 steps the roundoff of the link, raised to the power steps,
# swamps the chain (XZ at 1e15 reads reconstruction distance 0.039); at 2^30
# the chain defect of XZ, ZX and CNOT is at most 9.3e-7.
MAX_CHAIN_STEPS = 2 ** 30

# Times in [0, tau] at which the transport defect is sampled.
TRANSPORT_SAMPLES = 101
# Bytes of one (times, d, k) complex stack per block of transport times. A
# block holds about four such stacks, 256 KB, which fits a per-core L2
# cache and keeps a CNOT call near the peak RSS of the 8-dim ones (all 101
# times at once trace 1.3 MB on the 64-dim register). The 8-dim XZ and ZX
# registers take all 101 times in one block, the 64-dim CNOT register 16.
TRANSPORT_BLOCK_BYTES = 2 ** 16


def cyclicity_defect(propagator: np.ndarray, basis: BasisSet) -> float:
    """|| P(tau) - P(0) ||_F with P(t) the evolved projector of the span and
    ``propagator`` = U(tau)."""
    p0 = basis.projector()
    return float(np.linalg.norm(propagator @ p0 @ dagger(propagator) - p0))


def transport_defect(spectrum: Spectrum, basis: BasisSet, tau: float) -> float:
    """max over TRANSPORT_SAMPLES times t in [0, tau] and k, l of
    |<phi_k(t)| h |phi_l(t)>|.

    The transported states are phi_k(t) = exp(-i h t) b_k. For a constant
    generator this equals the t = 0 value because h commutes with its own
    propagator; the time sampling keeps the check honest against that very
    assumption.

    The times run ``TRANSPORT_BLOCK_BYTES // (16 d k)`` per block, each
    through the same per-slice products, so the maximum does not depend on
    the blocking; ``np.maximum`` keeps a NaN of any block.
    """
    d, k = basis.vectors.shape
    block = max(1, TRANSPORT_BLOCK_BYTES // (16 * d * k))
    step = tau / (TRANSPORT_SAMPLES - 1)
    coeffs = dagger(spectrum.vectors) @ basis.vectors
    worst = 0.0
    for start in range(0, TRANSPORT_SAMPLES, block):
        times = np.arange(start, min(start + block, TRANSPORT_SAMPLES)) * step
        phases = np.exp(-1j * np.outer(times, spectrum.values))
        frames = spectrum.vectors @ (phases[..., None] * coeffs)
        couplings = frames.conj().swapaxes(1, 2) @ (spectrum.h @ frames)
        worst = np.maximum(worst, np.abs(couplings).max())
    return float(worst)


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
    spectrum: Spectrum, basis: BasisSet, tau: float, steps: int, propagator=None, reconstruct=True
) -> HolonomyReport:
    """Condition defects, plus the holonomy rebuilt by the projector chain
    when ``reconstruct`` is set; ``propagator`` is U(tau), read off
    ``spectrum`` when not given, and serves the cyclicity check and the
    chain.

    With ``reconstruct`` false the report carries only the two defects,
    whatever their size, and the reconstruction fields are None: the
    preconditions genuinely fail off the pulse-area condition. Otherwise it
    refuses to reconstruct (PreconditionError) when conditions (i) or (ii)
    fail; their defects are never assumed away. The chained overlap matrix
    is unitarized by polar decomposition, which raises SingularChainError
    instead of silently regularizing a rank-deficient chain.
    """
    if not MIN_CHAIN_STEPS <= steps <= MAX_CHAIN_STEPS:
        raise ValueError(f"steps must be in [{MIN_CHAIN_STEPS}, {MAX_CHAIN_STEPS}], got {steps}")
    if propagator is None:
        propagator = spectrum.propagator(tau)
    cyc = cyclicity_defect(propagator, basis)
    tra = transport_defect(spectrum, basis, tau)
    if not reconstruct:
        return HolonomyReport(cyc, tra, None, None, None, steps, tau)
    if cyc > PRECONDITION_TOL or tra > PRECONDITION_TOL:
        raise PreconditionError(
            f"not a holonomic evolution on this subspace: cyclicity defect "
            f"{cyc:.3e}, transport defect {tra:.3e} (tolerance {PRECONDITION_TOL:.0e})"
        )
    restricted = restrict(propagator, basis)
    link = restrict(spectrum.propagator(-tau / steps), basis)
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
