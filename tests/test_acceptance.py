"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s or in the
failure output) and asserts the criterion. Tolerances are pinned here, not
configurable.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hqcdfs.gates import no_go_certificate, realize
from hqcdfs.holonomy import certify
from hqcdfs.model import collective_z, recipe_hamiltonian
from hqcdfs.noise import NoiseEnsemble, noisy_realize
from hqcdfs.operators import Spectrum, phase_aligned_distance
from hqcdfs.subspace import dfs_product_basis

from gate_tools import (
    cnot,
    compose_realized,
    euler_compose,
    restrict,
    rotation_sequence,
    rx_matrix,
    rz_matrix,
    universal_recipes,
    xz,
    zx,
)
from oracles import (
    PAULI,
    bare_fidelity,
    loglog_slope,
    r_op_bruteforce,
    random_unitary,
    two_qubit_dfs,
)


def _report(criterion: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} ({detail})")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_xz_gate_matrix():
    start = time.perf_counter()
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False):
        real = realize(xz(float(phi)), steps=4096)
        worst = max(worst, real.dfs_error)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "bit-flip gate reproduces its quoted 3x3 matrix",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst entrywise error {worst:.2e}, {elapsed:.2f}s for 25 phases",
    )


def test_criterion_2_zx_gate_matrix():
    start = time.perf_counter()
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False):
        real = realize(zx(float(phi)), steps=4096)
        worst = max(worst, real.dfs_error)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "phase-flip gate reproduces its quoted 3x3 matrix",
        worst <= 1e-10 and elapsed < 1.0,
        f"worst entrywise error {worst:.2e}, {elapsed:.2f}s for 25 phases",
    )


def test_criterion_3_cnot_matrix():
    start = time.perf_counter()
    real = realize(cnot(), steps=4096)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "CNOT reproduces its quoted 5x5 matrix on six qubits",
        real.dfs_error <= 1e-10 and elapsed < 1.0,
        f"entrywise error {real.dfs_error:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_holonomy_certification():
    failures = []
    details = []
    for recipe in universal_recipes(strength=1.0, phase=0.3):
        spectrum = Spectrum(recipe_hamiltonian(recipe))
        basis = dfs_product_basis(recipe.blocks, "01")

        step_grid = (512, 1024, 2048, 4096, 8192)
        chain_defects = []
        for steps in step_grid:
            report = certify(spectrum, basis, recipe.duration, steps)
            chain_defects.append(report.chain_defect)
            if steps == 4096:
                if report.cyclicity_defect > 1e-10:
                    failures.append(f"{recipe.kind} cyclicity {report.cyclicity_defect:.2e}")
                if report.transport_defect > 1e-12:
                    failures.append(f"{recipe.kind} transport {report.transport_defect:.2e}")
                if report.reconstruction_distance > 1e-3:
                    failures.append(
                        f"{recipe.kind} reconstruction {report.reconstruction_distance:.2e}"
                    )
        # Convergence order of the chained-overlap defect, the quantity the
        # reconstruction contracts away at O(1/steps); the unitarized
        # holonomy itself is exact to roundoff for these constant
        # generators (see decision ledger).
        order = -loglog_slope(step_grid, chain_defects)
        details.append(f"{recipe.kind} order {order:.3f}")
        if not 0.5 <= order <= 1.5:
            failures.append(f"{recipe.kind} convergence order {order:.3f}")
    _report(
        4,
        "holonomy conditions certify and the chain converges at first order",
        not failures,
        "; ".join(details + failures),
    )


def test_criterion_5_universality_composition():
    rng = np.random.default_rng(101)
    failures = []
    worst_rotation = 0.0
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, 20):
        dz = phase_aligned_distance(
            compose_realized(rotation_sequence("z", theta)), rz_matrix(theta)
        )
        dx = phase_aligned_distance(
            compose_realized(rotation_sequence("x", theta)), rx_matrix(theta)
        )
        worst_rotation = max(worst_rotation, dz, dx)
    if worst_rotation > 1e-9:
        failures.append(f"rotation identity error {worst_rotation:.2e}")

    worst_euler = 0.0
    for _ in range(100):
        target = random_unitary(rng, 2)
        sequence = euler_compose(target)
        worst_euler = max(
            worst_euler, phase_aligned_distance(compose_realized(sequence), target)
        )
    if worst_euler > 1e-8:
        failures.append(f"euler reconstruction error {worst_euler:.2e}")

    _report(
        5,
        "axis rotations and Euler decompositions compose as claimed",
        not failures,
        f"worst rotation {worst_rotation:.2e}, worst euler {worst_euler:.2e}",
    )


def test_criterion_6_dfs_protection():
    failures = []
    worst_min = 1.0
    for recipe in universal_recipes(strength=1.0, phase=0.7):
        for kick_count in (1, 4, 16):
            ensemble = NoiseEnsemble(
                kick_count, {"type": "uniform", "params": {}}, samples=200, seed=2024
            )
            result = noisy_realize(recipe, ensemble)
            worst_min = min(worst_min, result.min_fidelity)
            if result.min_fidelity < 1.0 - 1e-10:
                failures.append(
                    f"{recipe.kind} kicks={kick_count} min fidelity {result.min_fidelity:.12f}"
                )

    baseline = bare_fidelity(
        0.0, NoiseEnsemble(1, {"type": "uniform", "params": {}}, samples=10_000, seed=9)
    )
    if abs(baseline - 0.5) > 0.02:
        failures.append(f"bare baseline {baseline:.4f} outside 0.5 +/- 0.02")

    worst_comm = 0.0
    for recipe in universal_recipes(strength=1.0, phase=0.7):
        n = 3 * max(recipe.blocks)
        h = recipe_hamiltonian(recipe)
        z = np.diag(collective_z(n))
        comm = np.linalg.norm(h @ z - z @ h) / 2 ** n
        worst_comm = max(worst_comm, comm)
        if comm > 1e-12:
            failures.append(f"{recipe.kind} commutator {comm:.2e} per dim")

    _report(
        6,
        "encoded gates are kick-immune while a bare qubit dephases",
        not failures,
        f"worst min fidelity {worst_min:.12f}, baseline {baseline:.4f}, "
        f"worst commutator/dim {worst_comm:.2e}",
    )


def test_criterion_7_two_qubit_no_go():
    report = no_go_certificate(1000, seed=7)
    witness = restrict(r_op_bruteforce("x", 1, 2, 2), two_qubit_dfs())
    exact_witness = np.array_equal(witness, PAULI["x"])
    passed = report.counterexamples == 0 and exact_witness and report.witness_error == 0.0
    _report(
        7,
        "transport-free two-qubit evolutions are exactly trivial",
        passed,
        f"{report.trials} trials, {report.counterexamples} counterexamples, "
        f"witness exact: {exact_witness}, reported witness error {report.witness_error}",
    )


def test_criterion_8_property_suites():
    # Re-run every module's randomized property class as its own pytest
    # session; the seeds inside are fixed, so this is deterministic.
    tests_dir = Path(__file__).parent
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-k", "Properties", str(tests_dir)],
        capture_output=True,
        text=True,
        cwd=tests_dir.parent,
    )
    elapsed = time.perf_counter() - start
    passed = result.returncode == 0 and elapsed < 60.0
    tail = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else "no output"
    _report(
        8,
        "randomized property harness is green",
        passed,
        f"{tail}, {elapsed:.1f}s",
    )
