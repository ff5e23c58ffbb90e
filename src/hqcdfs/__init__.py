"""Holonomic quantum gates on decoherence-free encoded qubits.

Simulation and certification toolkit: spin-chain gate Hamiltonians, one
exact evolution formula (``Spectrum.frames``) for propagators and evolved
frames, encoded bases, span defects, frame-free holonomy reconstruction,
collective-dephasing noise ensembles, and a JSON-reporting command line.
"""

__version__ = "0.1.0"
