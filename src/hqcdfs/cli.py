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

import json
import math
import os
import sys

import numpy as np

from . import __version__
from .gates import no_go_certificate, realize
from .holonomy import DEFAULT_CHAIN_STEPS, MAX_CHAIN_STEPS, MIN_CHAIN_STEPS, certify, evolve_span
from .model import GateRecipe, detune, recipe_hamiltonian, target_for
from .noise import NoiseEnsemble, noisy_realize
from .operators import ContractViolation, Spectrum, phase_aligned_distance
from .serialize import Record, encode_csv, encode_json, replace
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


# Most points a sweep may ask for: its rows grow by about 0.3 KB a point. An
# XZ phase sweep of 2^14 points ran 5.6 s and peaked at 36.4 MB RSS, 5.5 MB
# above a two-point one (2-core x86-64, Python 3.11, numpy 2.4); 2^16 points
# ran 24 s and peaked at 51.1 MB.
MAX_SWEEP_POINTS = 2 ** 14


class InputError(ValueError):
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
    for name, get in COMMANDS[command][3]:
        value, bound = get(report), TOLERANCES[name] and TOLERANCES[name] * scale
        if not value <= bound:  # a NaN never passes
            violations.append({"check": name, "value": value, "tolerance": bound})
    return violations


def _emit(out: str | None, parts: list[str]) -> None:
    if out is not None:
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


def _run_gate(args: dict):
    recipe = _parse(GateRecipe, args["recipe"])
    return realize(recipe, steps=args["steps"]), {"recipe": recipe, "steps": args["steps"]}, None


def _run_holonomy(args: dict):
    recipe = _parse(GateRecipe, args["recipe"])
    basis = dfs_product_basis(recipe.blocks, "01")
    inputs = {"recipe": recipe, "steps": args["steps"]}
    if args["basis"] is not None:
        custom = _parse(BasisSet, args["basis"])
        if custom.dim_ambient != basis.dim_ambient:
            raise InputError(
                f"basis ambient dimension {custom.dim_ambient} does not match "
                f"the {basis.dim_ambient}-dimensional register of this recipe"
            )
        basis = inputs["basis"] = custom
    spectrum = Spectrum(recipe_hamiltonian(recipe))
    report = certify(spectrum, basis, recipe.duration, args["steps"], reconstruct=not recipe.detuned)
    return report, inputs, None


def _run_noise(args: dict):
    recipe = _parse(GateRecipe, args["recipe"])
    ensemble = _parse(NoiseEnsemble, args["ensemble"])
    result = noisy_realize(recipe, ensemble)
    table = ("sample,fidelity", range(ensemble.samples), result.per_sample)
    return result, {"recipe": recipe, "ensemble": ensemble}, table if args["format"] == "csv" else None


def _run_sweep(args: dict):
    param, start, stop, points = args["param"], args["from"], args["to"], args["points"]
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise InputError(f"sweep needs 2 to {MAX_SWEEP_POINTS} points, got {points}")
    if not all(math.isfinite(x) for x in (start, stop, stop - start)):
        raise InputError(f"--from {start!r} and --to {stop!r} must be finite and a finite distance apart")
    template = _parse(GateRecipe, args["recipe"])

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
        restricted, cyclicity, transport = evolve_span(spectrum, logical, recipe.duration)
        rows.append((value, phase_aligned_distance(restricted, target_for(recipe)), cyclicity, transport))
    return None, {}, ("parameter,distance,cyclicity_defect,transport_defect", *zip(*rows))


def _run_nogo(args: dict):
    trials, seed = args["trials"], args["seed"]
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if seed < 0:  # random.Random would take abs(seed)
        raise InputError(f"seed must be >= 0, got {seed}")
    return no_go_certificate(trials, seed), {"trials": trials, "seed": seed}, None


# The command line, one table: the program's options, then per command its
# help line, its options in the order --help lists them, its runner and its
# checks. An option maps its spellings, joined by "/", to (type, default,
# help): a tuple type lists the choices, the default _REQUIRED makes it
# required, and the type None marks -h/--help and --version, which print
# instead of a report. A runner returns (report, inputs, table): the report to
# check, the inputs the JSON envelope echoes, and the CSV header and columns,
# or None for JSON. A check pairs a tolerance name with a getter on the report.
_REQUIRED = object()
_HELP = {"-h/--help": (None, None, "show this help message and exit")}
PROGRAM = ("Simulate and certify holonomic gates on decoherence-free encoded qubits.", {
    **_HELP, "--version": (None, None, "show program's version number and exit")})
COMMANDS = {
    "gate": ("realize a gate recipe and report the comparison", {**_HELP,
        "--recipe": (str, _REQUIRED, "recipe file path or inline JSON"),
        "--steps": (int, DEFAULT_CHAIN_STEPS, ""),
        "--out": (str, None, "")}, _run_gate, (
        ("distance", lambda g: g.distance),
        ("dfs_error", lambda g: g.dfs_error),
        ("invariance_defect", lambda g: g.invariance_defect),
        ("cyclicity_defect", lambda g: g.holonomy.cyclicity_defect),
        ("transport_defect", lambda g: g.holonomy.transport_defect),
        ("reconstruction_distance", lambda g: g.holonomy.reconstruction_distance))),
    "holonomy": ("certify the holonomic character of a recipe", {**_HELP,
        "--recipe": (str, _REQUIRED, ""),
        "--basis": (str, None, "basis-set JSON (path or inline) instead of the logical basis"),
        "--steps": (int, DEFAULT_CHAIN_STEPS, ""),
        "--out": (str, None, "")}, _run_holonomy, (
        ("cyclicity_defect", lambda h: h.cyclicity_defect),
        ("transport_defect", lambda h: h.transport_defect),
        ("reconstruction_distance", lambda h: h.reconstruction_distance))),
    "noise": ("gate fidelity under collective phase kicks", {**_HELP,
        "--recipe": (str, _REQUIRED, ""),
        "--ensemble": (str, _REQUIRED, "ensemble file path or inline JSON"),
        "--format": (("json", "csv"), "json", ""),
        "--out": (str, None, "")}, _run_noise, (
        ("fidelity_deficit", lambda n: 1.0 - n.min_fidelity),
        # F > 1 means the propagation inflated the norm; the deficit passes it.
        ("excess_fidelity", lambda n: float(np.max(n.per_sample)) - 1.0))),
    "sweep": ("sweep a recipe parameter, one CSV row per point", {**_HELP,
        "--param": (("phase", "pulse_area_detuning"), _REQUIRED, ""),
        "--from": (float, _REQUIRED, ""),
        "--to": (float, _REQUIRED, ""),
        "--points": (int, _REQUIRED, ""),
        "--recipe": (str, _REQUIRED, ""),
        "--out": (str, None, "")}, _run_sweep, ()),
    "nogo": ("randomized two-qubit no-go certificate", {**_HELP,
        "--trials": (int, 1000, ""),
        "--seed": (int, 0, ""),
        "--out": (str, None, "")}, _run_nogo, (
        ("counterexamples", lambda r: r.counterexamples),
        ("witness_error", lambda r: r.witness_error))),
}


def _option(token: str, options: dict) -> str | None:
    """The name in ``options`` of the option that ``token``, up to any "=",
    spells exactly or, for a long option, by a unique prefix; None if none."""
    spelled = token.partition("=")[0] if token.startswith("--") else token
    spellings = {spelling: name for name in options for spelling in name.split("/")}
    matches = [s for s in spellings if s == spelled] or [
        s for s in spellings if len(spelled) > 2 and spelled.startswith("--") and s.startswith(spelled)
    ]
    if len(matches) > 1:
        raise InputError(f"ambiguous option: {token} could match {', '.join(matches)}")
    return spellings[matches[0]] if matches else None


def _value(name: str, kind, value: str):
    """``value`` read as the argument ``name`` of type ``kind``, a callable
    or a tuple of choices."""
    if not isinstance(kind, tuple):
        try:
            return kind(value)
        except ValueError:
            raise InputError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None
    if value not in kind:
        listed = ", ".join(map(repr, kind))
        raise InputError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _help(command: str | None) -> str:
    """The -h/--help text of ``command``, or of the program for None."""
    about, options = (COMMANDS[command] if command else PROGRAM)[:2]
    usage, rows = ["usage: hqcdfs" + (f" {command}" if command else "")], []
    for name, (kind, default, text) in options.items():
        metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else name[2:].upper()
        spelled = name.split("/")[0] if kind is None else f"{name} {metavar}"
        usage.append(spelled if default is _REQUIRED else f"[{spelled}]")
        rows.append((name if kind is None else spelled, text))
    if command is None:
        usage.append("{%s} ..." % ",".join(COMMANDS))
        rows += [(name, entry[0]) for name, entry in COMMANDS.items()]
    width = 2 + max(len(left) for left, _ in rows)
    rows = [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    return "\n".join([" ".join(usage), "", about, "", *rows]) + "\n"


def parse_args(argv: list[str]) -> dict | str:
    """The options of ``argv`` by name, ``command`` among them and each
    default filled in, or the text that -h/--help or --version asks for. A
    long option may be a unique prefix, its value joined by "=" or the next
    token verbatim, so ``--from -1e-3`` parses; the last value wins. Each
    failure raises InputError in argparse's words."""
    args, extras, options = {}, [], PROGRAM[1]
    tokens = iter(argv)
    for token in tokens:
        name = _option(token, options)
        if name is None:
            if "command" in args or token.startswith("-"):
                extras.append(token)  # reported after the required options
            else:
                args["command"] = _value("command", tuple(COMMANDS), token)
                options = COMMANDS[token][1]
            continue
        kind = options[name][0]
        _, joined, value = token.partition("=")
        if kind is None:
            return _help(args.get("command")) if name == "-h/--help" else f"hqcdfs {__version__}\n"
        if not joined and (value := next(tokens, None)) is None:
            raise InputError(f"argument {name}: expected one argument")
        args[name[2:]] = _value(name, kind, value)
    missing = [name for name, option in options.items() if option[1] is _REQUIRED and name[2:] not in args]
    if missing or "command" not in args:  # the program's own options are never required
        raise InputError(f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        raise InputError(f"unrecognized arguments: {' '.join(extras)}")
    return {name[2:]: option[1] for name, option in options.items() if option[0] is not None} | args


def main(argv: list[str] | None = None) -> int:
    """Parse and run one command, check its report (a detuned recipe's
    not), then write and flush it; returns the exit status, 0 after
    ``--help`` and ``--version`` too. The program's one way out: bad
    input, the command line's included, exits 2, and any other failure,
    such as an exhausted allocation or a failed write, exits 3, each with
    one stderr line and no traceback, so exit 1 keeps meaning tolerance
    violations only. A CSV report holds no violations list, so its exit 1
    names them on one ``violations:`` stderr line.
    """
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the text of --help or --version, never checked
            args, text, table, violations = {"out": None}, [args], None, []
        else:
            if "steps" in args and not MIN_CHAIN_STEPS <= args["steps"] <= MAX_CHAIN_STEPS:
                raise InputError(
                    f"steps must be in [{MIN_CHAIN_STEPS}, {MAX_CHAIN_STEPS}], got {args['steps']}")
            scale = tolerance_scale()
            report, inputs, table = COMMANDS[args["command"]][2](args)
            detuned = "recipe" in inputs and inputs["recipe"].detuned
            violations = [] if detuned else _violations(args["command"], report, scale)
            if table is None:
                doc = {
                    "tool": {"name": "hqcdfs", "version": __version__},
                    "command": args["command"],
                    "tolerance_scale": scale,
                    "input": {k: v.to_json_dict() if isinstance(v, Record) else v for k, v in inputs.items()},
                    "report": report.to_json_dict(),
                    "violations": violations,
                }
            try:
                text = encode_json(doc) + ["\n"] if table is None else encode_csv(*table)
            except ValueError as exc:
                raise ContractViolation(f"report holds a non-finite number: {exc}") from exc
        _emit(args["out"], text)
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
    try:  # a closed (None) or failing stderr keeps the status
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
