"""Checks one CLI invocation's output from outside the program.

Targets are the closed-form gate matrices quoted in the README, written
here in plain Python rather than imported from ``hqcdfs.gates``, so a
defect in the program's own targets cannot hide a wrong result. Tolerances
are the CLI's documented ones (``hqcdfs.cli.TOLERANCES``).
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

from workloads import Invocation

TOL_DISTANCE = 1e-10
TOL_DFS_ERROR = 1e-10
TOL_CYCLICITY = 1e-10
TOL_TRANSPORT = 1e-12
TOL_RECONSTRUCTION = 1e-3
TOL_FIDELITY_DEFICIT = 1e-10
# Sweep parameters are printed with 12 significant digits.
TOL_GRID = 1e-9


class VerificationError(Exception):
    """The output of an invocation is wrong or malformed."""


def _reject_constant(name: str):
    raise VerificationError(f"non-finite JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse JSON, refusing NaN and Infinity."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"output is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise VerificationError("output is not a JSON object")
    return doc


def strict_csv(text: str, header: list[str]) -> list[list[float]]:
    """Parse CSV with the given header into rows of finite floats."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise VerificationError(f"CSV header {rows[:1]} is not {header}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise VerificationError(f"CSV row {row} has the wrong width")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise VerificationError(f"CSV row {row} is not numeric") from exc
        if not all(math.isfinite(v) for v in values):
            raise VerificationError(f"CSV row {row} is not finite")
        out.append(values)
    return out


def target(gate: str, phase: float) -> list[list[complex]]:
    """Logical gate matrix of the README's table."""
    if gate == "XZ":
        return [[0, cmath.exp(-1j * phase)], [cmath.exp(1j * phase), 0]]
    if gate == "ZX":
        c, s = math.cos(phase), math.sin(phase)
        return [[c, 1j * s], [-1j * s, -c]]
    if gate == "CNOT":
        return [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    raise ValueError(f"unknown gate {gate!r}")


def ancilla_completed(logical: list[list[complex]]) -> list[list[complex]]:
    """The target on the ancilla-completed basis: the ancilla picks up -1."""
    n = len(logical) + 1
    full = [[0j] * n for _ in range(n)]
    full[0][0] = -1
    for i, row in enumerate(logical):
        full[i + 1][1:] = row
    return full


def matrix_from_json(data) -> list[list[complex]]:
    try:
        m = [[complex(float(re), float(im)) for re, im in row] for row in data]
    except (TypeError, ValueError) as exc:
        raise VerificationError(f"malformed matrix: {exc}") from exc
    if not m or any(len(row) != len(m) for row in m):
        raise VerificationError("matrix is not square")
    if not all(cmath.isfinite(z) for row in m for z in row):
        raise VerificationError("matrix is not finite")
    return m


def phase_aligned_distance(u, v) -> float:
    """min over phi of ||u - e^{i phi} v||_F."""
    if len(u) != len(v):
        raise VerificationError(f"dimension {len(u)} is not {len(v)}")
    overlap = sum(v[i][j].conjugate() * u[i][j] for i in range(len(u)) for j in range(len(u)))
    phase = cmath.exp(1j * cmath.phase(overlap))
    return math.sqrt(
        sum(abs(u[i][j] - phase * v[i][j]) ** 2 for i in range(len(u)) for j in range(len(u)))
    )


def max_entry_error(u, v) -> float:
    if len(u) != len(v):
        raise VerificationError(f"dimension {len(u)} is not {len(v)}")
    return max(abs(u[i][j] - v[i][j]) for i in range(len(u)) for j in range(len(u)))


def _within(name: str, value, bound: float) -> None:
    # Written so that NaN fails: NaN <= bound is false.
    if not isinstance(value, (int, float)) or not value <= bound:
        raise VerificationError(f"{name} = {value!r} exceeds {bound:g}")


def _envelope(doc: dict, command: str) -> dict:
    if doc.get("command") != command:
        raise VerificationError(f"report command {doc.get('command')!r} is not {command!r}")
    if doc.get("violations") != []:
        raise VerificationError(f"report lists violations {doc.get('violations')!r}")
    return doc["report"]


def _check_holonomy(hol: dict, goal) -> None:
    _within("cyclicity_defect", hol["cyclicity_defect"], TOL_CYCLICITY)
    _within("transport_defect", hol["transport_defect"], TOL_TRANSPORT)
    _within("reconstruction_distance", hol["reconstruction_distance"], TOL_RECONSTRUCTION)
    holonomy = matrix_from_json(hol["holonomy_matrix"])
    _within("holonomy vs target", phase_aligned_distance(holonomy, goal), TOL_RECONSTRUCTION)


def _verify_gate(inv: Invocation, doc: dict) -> None:
    report = _envelope(doc, "gate")
    goal = target(inv.expect["gate"], inv.expect["phase"])
    restricted = matrix_from_json(report["restricted"])
    _within("restricted vs target", phase_aligned_distance(restricted, goal), TOL_DISTANCE)
    dfs = matrix_from_json(report["dfs_restricted"])
    _within("dfs_restricted vs target", max_entry_error(dfs, ancilla_completed(goal)), TOL_DFS_ERROR)
    _check_holonomy(report["holonomy"], goal)


def _verify_holonomy(inv: Invocation, doc: dict) -> None:
    report = _envelope(doc, "holonomy")
    _check_holonomy(report, target(inv.expect["gate"], inv.expect["phase"]))


def _verify_noise(inv: Invocation, text: str) -> None:
    samples = inv.expect["samples"]
    if inv.expect["format"] == "csv":
        rows = strict_csv(text, ["sample", "fidelity"])
        fidelities = [row[1] for row in rows]
    else:
        report = _envelope(strict_json(text), "noise")
        fidelities = report["per_sample"]
        _within("1 - min_fidelity", 1.0 - report["min_fidelity"], TOL_FIDELITY_DEFICIT)
    if len(fidelities) != samples:
        raise VerificationError(f"{len(fidelities)} fidelities for {samples} samples")
    _within("1 - min per-sample fidelity", 1.0 - min(fidelities), TOL_FIDELITY_DEFICIT)


def _verify_sweep(inv: Invocation, text: str) -> None:
    rows = strict_csv(text, ["parameter", "distance", "cyclicity_defect", "transport_defect"])
    grid = inv.expect["grid"]
    if len(rows) != len(grid):
        raise VerificationError(f"{len(rows)} sweep rows for {len(grid)} grid points")
    for row, value in zip(rows, grid):
        if abs(row[0] - value) > TOL_GRID:
            raise VerificationError(f"sweep row at {row[0]} where {value} was requested")


def _verify_nogo(inv: Invocation, doc: dict) -> None:
    report = _envelope(doc, "nogo")
    if report["trials"] != inv.expect["trials"] or report["seed"] != inv.expect["seed"]:
        raise VerificationError("no-go report echoes the wrong trials or seed")
    if report["counterexamples"] != 0:
        raise VerificationError(f"{report['counterexamples']} no-go counterexamples")
    if report["trivial_count"] + report["nontrivial_count"] != report["trials"]:
        raise VerificationError("trivial + nontrivial counts do not add up to trials")
    _within("witness_error", report["witness_error"], 0.0)


def verify(inv: Invocation, returncode: int, text: str) -> None:
    """Raise VerificationError unless the invocation succeeded and its
    output matches the closed-form results."""
    if returncode != 0:
        raise VerificationError(f"exit status {returncode}")
    try:
        if inv.command == "gate":
            _verify_gate(inv, strict_json(text))
        elif inv.command == "holonomy":
            _verify_holonomy(inv, strict_json(text))
        elif inv.command == "noise":
            _verify_noise(inv, text)
        elif inv.command == "sweep":
            _verify_sweep(inv, text)
        elif inv.command == "nogo":
            _verify_nogo(inv, strict_json(text))
        else:
            raise VerificationError(f"unknown command {inv.command!r}")
    except (KeyError, TypeError) as exc:
        raise VerificationError(f"report is missing or mistypes {exc}") from exc
