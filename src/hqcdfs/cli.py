"""Command-line front end emitting machine-readable reports.

Commands: ``gate``, ``holonomy``, ``noise``, ``sweep``, ``nogo``. Every JSON
report embeds the full input configuration, the tool version and its
violations; the CSV reports, ``sweep`` and ``noise --format csv``, print
their rows only. Exit status contract: 0 all checks within tolerance, 1
tolerance violations (listed in the JSON report, or on one stderr line
beside a CSV report), 2 unparseable input, 3 internal contract violation
or any other internal failure (one stderr line, no traceback).
The environment variable HQC_DFS_TOLERANCE_SCALE (default 1) multiplies
every documented tolerance for exploratory runs and is recorded in JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .gates import no_go_certificate, realize
from .holonomy import DEFAULT_CHAIN_STEPS, certify, check_chain_steps, cyclicity_defect, transport_defect
from .model import GateRecipe, detune, recipe_hamiltonian, target_for
from .noise import NoiseEnsemble, noisy_realize
from .operators import ContractViolation, Spectrum, phase_aligned_distance
from .serialize import InputError, Record, encode_csv, encode_json, replace
from .subspace import BasisSet, dfs_product_basis, restrict

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


# Checked quantities per command (a sweep has none): (tolerance name, getter on the report).
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

# Most points a sweep may ask for: its rows grow by about 0.3 KB a point. An
# XZ phase sweep of 2^14 points ran 5.6 s and peaked at 36.4 MB RSS, 5.5 MB
# above a two-point one (2-core x86-64, Python 3.11, numpy 2.4); 2^16 points
# ran 24 s and peaked at 51.1 MB.
MAX_SWEEP_POINTS = 2 ** 14


def tolerance_scale() -> float:
    raw = os.environ.get("HQC_DFS_TOLERANCE_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise InputError(f"HQC_DFS_TOLERANCE_SCALE={raw!r} is not a number") from exc
    if not 0 < scale < float("inf"):
        raise InputError(f"HQC_DFS_TOLERANCE_SCALE must be positive and finite, got {scale}")
    return scale


def _parse(cls, source: str):
    """An instance of ``cls`` decoded by its ``from_json_dict`` from a file
    path or inline JSON (anything starting with '{')."""
    try:
        if source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read JSON input {source!r}: {exc}") from exc
    try:
        return cls.from_json_dict(doc)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InputError(f"invalid {cls.__name__}: {exc}") from exc


def _violations(command: str, report, scale: float) -> list:
    """The checks of ``command`` that ``report`` fails. A zero tolerance is
    exact and keeps its type, so the integer bound on counterexamples is
    reported as 0."""
    violations = []
    for name, get in _CHECKS.get(command, ()):
        value, bound = get(report), TOLERANCES[name] and TOLERANCES[name] * scale
        if not value <= bound:  # a NaN never passes
            violations.append({"check": name, "value": value, "tolerance": bound})
    return violations


def _emit(out: str | None, parts: list[str]) -> None:
    if out:
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write report to {out!r}: {exc}") from exc
        with fh:  # a failed write or close is an internal failure, as on stdout
            fh.writelines(parts)
    elif sys.stdout is None:  # descriptor 1 was closed at start
        raise OSError("stdout is closed")
    else:
        sys.stdout.writelines(parts)
        sys.stdout.flush()


def _run_gate(args: argparse.Namespace):
    recipe = _parse(GateRecipe, args.recipe)
    return realize(recipe, steps=args.steps), {"recipe": recipe, "steps": args.steps}, None


def _run_holonomy(args: argparse.Namespace):
    recipe = _parse(GateRecipe, args.recipe)
    basis = dfs_product_basis(recipe.blocks, "01")
    inputs = {"recipe": recipe, "steps": args.steps}
    if args.basis:
        custom = _parse(BasisSet, args.basis)
        if custom.dim_ambient != basis.dim_ambient:
            raise InputError(
                f"basis ambient dimension {custom.dim_ambient} does not match "
                f"the {basis.dim_ambient}-dimensional register of this recipe"
            )
        basis = inputs["basis"] = custom
    spectrum = Spectrum(recipe_hamiltonian(recipe))
    report = certify(spectrum, basis, recipe.duration, args.steps, reconstruct=not recipe.detuned)
    return report, inputs, None


def _run_noise(args: argparse.Namespace):
    recipe = _parse(GateRecipe, args.recipe)
    ensemble = _parse(NoiseEnsemble, args.ensemble)
    result = noisy_realize(recipe, ensemble)
    table = ("sample,fidelity", range(ensemble.samples), result.per_sample)
    return result, {"recipe": recipe, "ensemble": ensemble}, table if args.format == "csv" else None


def _run_sweep(args: argparse.Namespace):
    param, start, stop, points = args.param, args.start, args.stop, args.points
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise InputError(f"sweep needs 2 to {MAX_SWEEP_POINTS} points, got {points}")
    if not all(math.isfinite(x) for x in (start, stop, stop - start)):
        raise InputError(f"--from {start!r} and --to {stop!r} must be finite and a finite distance apart")
    template = _parse(GateRecipe, args.recipe)

    def point(i: int):
        value = start + (stop - start) * i / (points - 1)
        try:
            if param == "phase":
                return value, replace(template, phase=value)
            return value, detune(template, 1.0 + value)
        except ValueError as exc:
            raise InputError(f"invalid sweep point {value!r}: {exc}") from exc

    # The values run monotonically from start to stop, and a recipe's
    # validity changes at most once along them (a detuned duration scales
    # linearly, any finite phase is valid but a CNOT's, which must be 0):
    # valid ends make every point valid.
    point(0)
    point(points - 1)
    logical = dfs_product_basis(template.blocks, "01")
    # ``detune`` changes only the duration: every point shares one spectrum.
    shared = Spectrum(recipe_hamiltonian(template)) if param == "pulse_area_detuning" else None
    rows = []
    for i in range(points):
        value, recipe = point(i)
        spectrum = shared or Spectrum(recipe_hamiltonian(recipe))
        u = spectrum.propagator(recipe.duration)
        distance = phase_aligned_distance(restrict(u, logical), target_for(recipe))
        transport = transport_defect(spectrum, logical, recipe.duration)
        rows.append((value, distance, cyclicity_defect(u, logical), transport))
    return None, {}, ("parameter,distance,cyclicity_defect,transport_defect", *zip(*rows))


def _run_nogo(args: argparse.Namespace):
    report = no_go_certificate(args.trials, args.seed)
    return report, {"trials": args.trials, "seed": args.seed}, None


# Each runner returns (report, inputs, table): the report to check, the inputs
# the JSON envelope echoes, and the CSV header and columns, or None for JSON.
_RUNNERS = {
    "gate": _run_gate,
    "holonomy": _run_holonomy,
    "noise": _run_noise,
    "sweep": _run_sweep,
    "nogo": _run_nogo,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose failures raise InputError, for ``main`` to report,
    instead of printing the usage text and exiting."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hqcdfs",
        description="Simulate and certify holonomic gates on decoherence-free encoded qubits.",
    )
    parser.add_argument("--version", action="version", version=f"hqcdfs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gate = sub.add_parser("gate", help="realize a gate recipe and report the comparison")
    gate.add_argument("--recipe", required=True, help="recipe file path or inline JSON")

    hol = sub.add_parser("holonomy", help="certify the holonomic character of a recipe")
    hol.add_argument("--recipe", required=True)
    hol.add_argument("--basis", help="basis-set JSON (path or inline) instead of the logical basis")

    noise = sub.add_parser("noise", help="gate fidelity under collective phase kicks")
    noise.add_argument("--recipe", required=True)
    noise.add_argument("--ensemble", required=True, help="ensemble file path or inline JSON")
    noise.add_argument("--format", choices=("json", "csv"), default="json")

    sweep = sub.add_parser(
        "sweep",
        help="sweep a recipe parameter, one CSV row per point",
        description="Sweep a recipe parameter, one CSV row per point. "
        "Both grid ends are checked before any point runs.",
    )
    sweep.add_argument("--param", required=True, choices=("phase", "pulse_area_detuning"))
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--recipe", required=True)

    nogo = sub.add_parser("nogo", help="randomized two-qubit no-go certificate")
    nogo.add_argument("--trials", type=int, default=1000)
    nogo.add_argument("--seed", type=int, default=0)

    for command in (gate, hol):
        command.add_argument("--steps", type=int, default=DEFAULT_CHAIN_STEPS)
    for command in sub.choices.values():
        command.add_argument("--out")
    return parser


def _join_float_values(argv: list[str]) -> list[str]:
    """``argv`` with ``--from X`` and ``--to X`` joined as ``--from=X``, which
    argparse parses even where X reads as an option name, as ``-1e-3`` does;
    so is every prefix that argparse resolves to them, ``--fro X`` or ``--t X``."""
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        spells = len(option) > 2 and ("--from".startswith(option) or "--to".startswith(option))
        if spells and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    """Parse and run one command, check its report (a detuned recipe's
    not), then write and flush it; returns the exit status, 0 after
    ``--help`` and ``--version`` too. The program's one way out: bad
    input, argparse's included, exits 2, and any other failure, such as
    an exhausted allocation or a failed write, exits 3, each with one
    stderr line and no traceback, so exit 1 keeps meaning tolerance
    violations only. A CSV report holds no violations list, so its exit 1
    names them on one ``violations:`` stderr line.
    """
    try:
        argv = sys.argv[1:] if argv is None else argv
        try:
            args = build_parser().parse_args(_join_float_values(argv))
        except SystemExit:  # --help or --version wrote its text; error() raises
            if sys.stdout is not None:
                sys.stdout.flush()
            return EXIT_OK
        if "steps" in args:
            check_chain_steps(args.steps)
        scale = tolerance_scale()
        report, inputs, table = _RUNNERS[args.command](args)
        detuned = "recipe" in inputs and inputs["recipe"].detuned
        violations = [] if detuned else _violations(args.command, report, scale)
        if table is None:
            doc = {
                "tool": {"name": "hqcdfs", "version": __version__},
                "command": args.command,
                "tolerance_scale": scale,
                "input": {k: v.to_json_dict() if isinstance(v, Record) else v for k, v in inputs.items()},
                "report": report.to_json_dict(),
                "violations": violations,
            }
        try:
            text = encode_json(doc) + ["\n"] if table is None else encode_csv(*table)
        except ValueError as exc:
            raise ContractViolation(f"report holds a non-finite number: {exc}") from exc
        _emit(args.out, text)
        # A JSON report lists its violations; a CSV report's go to stderr.
        if table is None or not violations:
            return EXIT_VIOLATIONS if violations else EXIT_OK
        checks = (f"{v['check']} = {v['value']:.3e}, tolerance {v['tolerance']:.3e}" for v in violations)
        status, line = EXIT_VIOLATIONS, "violations: " + "; ".join(checks)
    except InputError as exc:
        status, line = EXIT_PARSE, f"error: {exc}"
    except ContractViolation as exc:
        status, line = EXIT_CONTRACT, f"contract violation: {exc}"
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        status, line = EXIT_CONTRACT, f"internal error: {message}"
    try:  # as argparse does: a closed (None) or failing stderr keeps the status
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass
    return status


def entry() -> None:
    """The ``hqcdfs`` console script: ``main``, whose output is already
    flushed, then ``os._exit``, which skips the interpreter's teardown."""
    os._exit(main())


if __name__ == "__main__":
    entry()
