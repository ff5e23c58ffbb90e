"""Holonomic quantum gates on decoherence-free encoded qubits.

Simulation and certification toolkit: spin-chain gate Hamiltonians, exact
propagators, subspace diagnostics, frame-free holonomy reconstruction,
collective-dephasing noise ensembles, and a JSON-reporting command line.
"""

from .errors import (
    ContractViolation,
    DimensionCapError,
    PreconditionError,
    SingularChainError,
)
from .gates import (
    GateRealization,
    NoGoReport,
    no_go_certificate,
    realize,
    target_cnot,
    target_for,
    target_uxz,
    target_uzx,
)
from .holonomy import (
    HolonomyReport,
    certify,
    cyclicity_defect,
    transport_defect,
)
from .model import (
    CouplingConfig,
    GateRecipe,
    assemble_four_body,
    assemble_two_body,
    collective_z,
    detune,
    r_op,
    recipe_coupling_config,
    recipe_hamiltonian,
)
from .noise import (
    KickDistribution,
    NoiseEnsemble,
    NoisyGateResult,
    noisy_realize,
)
from .operators import (
    Spectrum,
    evolve,
    pauli_on,
    phase_aligned_distance,
    polar_unitary,
)
from .subspace import (
    BasisSet,
    LogicalBlock,
    bit_state,
    dfs_product_basis,
    invariance_defect,
    invariant_check_basis,
    logical_basis,
    restrict,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "ContractViolation",
    "CouplingConfig",
    "DimensionCapError",
    "GateRealization",
    "GateRecipe",
    "HolonomyReport",
    "KickDistribution",
    "LogicalBlock",
    "NoGoReport",
    "NoiseEnsemble",
    "NoisyGateResult",
    "PreconditionError",
    "SingularChainError",
    "Spectrum",
    "assemble_four_body",
    "assemble_two_body",
    "bit_state",
    "certify",
    "collective_z",
    "cyclicity_defect",
    "detune",
    "dfs_product_basis",
    "evolve",
    "invariance_defect",
    "invariant_check_basis",
    "logical_basis",
    "no_go_certificate",
    "noisy_realize",
    "pauli_on",
    "phase_aligned_distance",
    "polar_unitary",
    "r_op",
    "realize",
    "recipe_coupling_config",
    "recipe_hamiltonian",
    "restrict",
    "target_cnot",
    "target_for",
    "target_uxz",
    "target_uzx",
    "transport_defect",
]
