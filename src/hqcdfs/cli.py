"""Command-line front end emitting machine-readable reports.

Commands: ``gate``, ``holonomy``, ``noise``, ``sweep``, ``nogo``. Every
report embeds the full input configuration and the tool version. Exit
status contract: 0 all checks within tolerance, 1 tolerance violations
(listed in the report), 2 unparseable input, 3 internal contract violation
or any other internal failure (one stderr line, no traceback).
The environment variable HQC_DFS_TOLERANCE_SCALE (default 1) multiplies
every documented tolerance for exploratory runs and is recorded in reports.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ContractViolation, SingularChainError
from .gates import DEFAULT_CHAIN_STEPS, realize, no_go_certificate
from .holonomy import MAX_CHAIN_STEPS, MIN_CHAIN_STEPS, certify
from .model import GateRecipe, detune, recipe_hamiltonian
from .noise import NoiseEnsemble, noisy_realize
from .operators import Spectrum
from .serialize import FORMAT_CHUNK, encode_json, replace
from .subspace import BasisSet, dfs_product_basis

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_CONTRACT = 3

# Documented tolerances; multiplied by HQC_DFS_TOLERANCE_SCALE at run time.
TOLERANCES = {
    "distance": 1e-10,
    "dfs_error": 1e-10,
    "invariance_defect": 1e-10,
    "cyclicity_defect": 1e-10,
    "transport_defect": 1e-12,
    "reconstruction_distance": 1e-3,
    "fidelity_deficit": 1e-10,
    "excess_fidelity": 1e-10,
    "counterexamples": 0,
    "witness_error": 0.0,
}


# Checked quantities per command: (tolerance name, getter on the command's report).
_CHECKS = {
    "gate": (
        ("distance", lambda g: g.distance),
        ("dfs_error", lambda g: g.dfs_error),
        ("invariance_defect", lambda g: g.invariance_defect),
        ("cyclicity_defect", lambda g: g.holonomy.cyclicity_defect),
        ("transport_defect", lambda g: g.holonomy.transport_defect),
        ("reconstruction_distance", lambda g: g.holonomy.reconstruction_distance),
    ),
    "holonomy": (
        ("cyclicity_defect", lambda h: h.cyclicity_defect),
        ("transport_defect", lambda h: h.transport_defect),
        ("reconstruction_distance", lambda h: h.reconstruction_distance),
    ),
    "noise": (
        ("fidelity_deficit", lambda n: 1.0 - n.min_fidelity),
        # F > 1 means the propagation inflated the norm; the deficit passes it.
        ("excess_fidelity", lambda n: float(np.max(n.per_sample)) - 1.0),
    ),
    "nogo": (
        ("counterexamples", lambda r: r.counterexamples),
        ("witness_error", lambda r: r.witness_error),
    ),
}


class InputError(Exception):
    """Unparseable or invalid command input (exit status 2)."""


def tolerance_scale() -> float:
    raw = os.environ.get("HQC_DFS_TOLERANCE_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise InputError(f"HQC_DFS_TOLERANCE_SCALE={raw!r} is not a number") from exc
    if not 0 < scale < float("inf"):
        raise InputError(f"HQC_DFS_TOLERANCE_SCALE must be positive and finite, got {scale}")
    return scale


def _load_json_input(source: str) -> dict:
    """Accept a file path or inline JSON (anything starting with '{')."""
    try:
        if source.lstrip().startswith("{"):
            return json.loads(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON input {source!r}: {exc}") from exc


def _parse(cls, source: str):
    """An instance of ``cls`` decoded by its ``from_json_dict`` from a path or inline JSON."""
    doc = _load_json_input(source)
    try:
        return cls.from_json_dict(doc)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InputError(f"invalid {cls.__name__}: {exc}") from exc


def _violations(command: str, report, scale: float) -> list:
    """The checks of ``command`` that ``report`` fails. A zero tolerance is
    exact and keeps its type, so the integer bound on counterexamples is
    reported as 0."""
    violations = []
    for name, get in _CHECKS[command]:
        value, bound = get(report), TOLERANCES[name] and TOLERANCES[name] * scale
        if not value <= bound:  # a NaN never passes
            violations.append({"check": name, "value": value, "tolerance": bound})
    return violations


def _emit(args: argparse.Namespace, *parts: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out!r}: {exc}") from exc
    else:
        sys.stdout.writelines(parts)


def _emit_report(
    args: argparse.Namespace, scale: float, input_doc: dict, report: dict, violations: list
) -> int:
    """Emit the JSON report envelope; return the exit status it implies."""
    doc = {
        "tool": {"name": "hqcdfs", "version": __version__},
        "command": args.command,
        "tolerance_scale": scale,
        "input": input_doc,
        "report": report,
        "violations": violations,
    }
    try:
        chunks = encode_json(doc)
    except ValueError as exc:
        raise ContractViolation(f"report holds a non-finite number: {exc}") from exc
    _emit(args, *chunks, "\n")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _run_gate(args: argparse.Namespace, scale: float) -> int:
    recipe = _parse(GateRecipe, args.recipe)
    realization = realize(recipe, steps=args.steps)
    violations = [] if recipe.detuned else _violations("gate", realization, scale)
    input_doc = {"recipe": recipe.to_json_dict(), "steps": args.steps}
    return _emit_report(args, scale, input_doc, realization.to_json_dict(), violations)


def _run_holonomy(args: argparse.Namespace, scale: float) -> int:
    recipe = _parse(GateRecipe, args.recipe)
    spectrum = Spectrum(recipe_hamiltonian(recipe))
    if args.basis:
        basis = _parse(BasisSet, args.basis)
        if basis.dim_ambient != spectrum.h.shape[0]:
            raise InputError(
                f"basis ambient dimension {basis.dim_ambient} does not match "
                f"the {spectrum.h.shape[0]}-dimensional register of this recipe"
            )
    else:
        basis = dfs_product_basis(recipe.blocks, "01")
    report = certify(spectrum, basis, recipe.duration, args.steps, reconstruct=not recipe.detuned)
    violations = [] if recipe.detuned else _violations("holonomy", report, scale)
    input_doc = {"recipe": recipe.to_json_dict(), "steps": args.steps}
    return _emit_report(args, scale, input_doc, report.to_json_dict(), violations)


def _run_noise(args: argparse.Namespace, scale: float) -> int:
    recipe = _parse(GateRecipe, args.recipe)
    ensemble = _parse(NoiseEnsemble, args.ensemble)
    result = noisy_realize(recipe, ensemble)
    violations = [] if recipe.detuned else _violations("noise", result, scale)
    if args.format == "csv":
        # csv.writer's bytes (nothing needs quoting, "\r\n" ends rows), one
        # part per chunk of the fidelity array, so the text is held once.
        parts = ["sample,fidelity\r\n"]
        for start in range(0, ensemble.samples, FORMAT_CHUNK):
            rows = enumerate(result.per_sample[start:start + FORMAT_CHUNK].tolist(), start)
            parts.append("".join(f"{i},{f:.12g}\r\n" for i, f in rows))
        _emit(args, *parts)
        return EXIT_VIOLATIONS if violations else EXIT_OK
    input_doc = {"recipe": recipe.to_json_dict(), "ensemble": ensemble.to_json_dict()}
    return _emit_report(args, scale, input_doc, result.to_json_dict(), violations)


def _run_sweep(args: argparse.Namespace, scale: float) -> int:
    param, start, stop, points = args.param, args.start, args.stop, args.points
    if points < 2:
        raise InputError(f"sweep needs at least 2 points, got {points}")
    if param == "pulse_area_detuning" and min(start, stop) <= -1.0:
        raise InputError("detuning must stay above -1 to keep the pulse area positive")
    template = _parse(GateRecipe, args.recipe)
    if param == "phase" and template.kind == "CNOT":
        raise InputError("phase sweep is undefined for CNOT recipes")
    # ``detune`` changes only the duration: every point shares one spectrum.
    spectrum = None
    if param == "pulse_area_detuning":
        spectrum = Spectrum(recipe_hamiltonian(template))

    # csv.writer's bytes, as for ``noise --format csv``.
    buffer = io.StringIO()
    buffer.write("parameter,distance,cyclicity_defect,transport_defect\r\n")
    for i in range(points):
        value = start + (stop - start) * i / (points - 1)
        try:
            if param == "phase":
                recipe = replace(template, phase=value)
            else:
                recipe = detune(template, 1.0 + value) if value != 0.0 else template
        except ValueError as exc:
            raise InputError(f"invalid sweep point {value!r}: {exc}") from exc
        realization = realize(recipe, steps=args.steps, spectrum=spectrum)
        hol = realization.holonomy
        buffer.write(
            f"{value:.12g},{realization.distance:.12g},"
            f"{hol.cyclicity_defect:.12g},{hol.transport_defect:.12g}\r\n"
        )
    _emit(args, buffer.getvalue())
    return EXIT_OK


def _run_nogo(args: argparse.Namespace, scale: float) -> int:
    if args.trials < 1:
        raise InputError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    report = no_go_certificate(args.trials, args.seed)
    violations = _violations("nogo", report, scale)
    input_doc = {"trials": args.trials, "seed": args.seed}
    return _emit_report(args, scale, input_doc, report.to_json_dict(), violations)


_RUNNERS = {
    "gate": _run_gate,
    "holonomy": _run_holonomy,
    "noise": _run_noise,
    "sweep": _run_sweep,
    "nogo": _run_nogo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqcdfs",
        description="Simulate and certify holonomic gates on decoherence-free encoded qubits.",
    )
    parser.add_argument("--version", action="version", version=f"hqcdfs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gate = sub.add_parser("gate", help="realize a gate recipe and report the comparison")
    gate.add_argument("--recipe", required=True, help="recipe file path or inline JSON")
    gate.add_argument("--steps", type=int, default=DEFAULT_CHAIN_STEPS)

    hol = sub.add_parser("holonomy", help="certify the holonomic character of a recipe")
    hol.add_argument("--recipe", required=True)
    hol.add_argument(
        "--basis",
        default=None,
        help="basis-set JSON (path or inline) to certify instead of the logical basis",
    )
    hol.add_argument("--steps", type=int, default=DEFAULT_CHAIN_STEPS)

    noise = sub.add_parser("noise", help="gate fidelity under collective phase kicks")
    noise.add_argument("--recipe", required=True)
    noise.add_argument("--ensemble", required=True, help="ensemble file path or inline JSON")
    noise.add_argument("--format", choices=("json", "csv"), default="json")

    sweep = sub.add_parser("sweep", help="sweep a recipe parameter, one CSV row per point")
    sweep.add_argument("--param", required=True, choices=("phase", "pulse_area_detuning"))
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--recipe", required=True)
    sweep.add_argument("--steps", type=int, default=DEFAULT_CHAIN_STEPS)

    nogo = sub.add_parser("nogo", help="randomized two-qubit no-go certificate")
    nogo.add_argument("--trials", type=int, default=1000)
    nogo.add_argument("--seed", type=int, default=0)

    for command in sub.choices.values():
        command.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and run one command; returns the process exit status.

    Bad input exits 2. Any other failure, such as an exhausted allocation,
    exits 3 with one line on stderr and no traceback, so exit 1 keeps
    meaning tolerance violations only.
    """
    args = build_parser().parse_args(argv)
    try:
        if "steps" in args and not MIN_CHAIN_STEPS <= args.steps <= MAX_CHAIN_STEPS:
            raise InputError(
                f"steps must be in [{MIN_CHAIN_STEPS}, {MAX_CHAIN_STEPS}] "
                f"for {args.command}, got {args.steps}"
            )
        return _RUNNERS[args.command](args, tolerance_scale())
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (ContractViolation, SingularChainError) as exc:
        sys.stderr.write(f"contract violation: {exc}\n")
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"internal error: {message}\n")
    return EXIT_CONTRACT


def entry() -> None:
    status = main()
    # Frozen objects skip the shutdown's cycle collection; the OS frees them.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
