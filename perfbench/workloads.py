"""Seeded invocation generator for the hqcdfs CLI benchmark.

A workload is an endless sequence of rounds. Every round holds the same
multiset of invocation kinds (so the proportions are fixed); the seed only
picks their order and their parameters (phases, strengths, block order,
ensemble and trial seeds, sweep spans). Parameters are chosen so that the
cost of an invocation depends on its kind and not on the seed: the chain
step count, the noise sample and kick counts, the sweep point count and the
no-go trial count are all constants.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

PULSE_AREAS = {"XZ": math.pi / math.sqrt(2.0), "ZX": math.pi, "CNOT": math.pi / math.sqrt(2.0)}

# Noise Monte-Carlo sizes, chosen so an XZ and a CNOT noise invocation cost
# about the same; with one cost class the latency percentiles of the
# robustness workload never sit on a class boundary.
NOISE_SAMPLES = {"XZ": 10000, "CNOT": 2000}
NOISE_KICKS = 4
# Even point counts on grids symmetric about zero: every sweep point is
# detuned, so the sweep never runs the projector chain.
SWEEP_POINTS = 6
# Half the CLI default and the README's documented call (`--trials 1000`),
# measured so that latency_tail_s has a tail. On a shared 2-vCPU x86-64
# Xeon VM in a slow phase, a 30 s run held 20 invocations at 1000 trials
# (1.7 s each), so the highest percentile with 10 samples beyond it was the
# median itself, and 32 at 500 trials (0.98 s each; p69). Interpreter
# start-up (about 0.25 s there) is then about a quarter of an invocation.
NOGO_TRIALS = 500

# Kinds per round. A "1q" kind is an XZ or ZX gate, drawn by the seed; the
# two cost the same on the 8-dim register. certify: CNOT is 4 of 6
# invocations, so both latency percentiles sit inside the CNOT cost class.
ROUNDS = {
    "certify": ["gate-1q", "holonomy-1q", "gate-CNOT", "gate-CNOT", "holonomy-CNOT", "holonomy-CNOT"],
    "robustness": [
        "noise-XZ-uniform",
        "noise-XZ-gaussian",
        "noise-XZ-fixed",
        "noise-CNOT-uniform",
        "noise-CNOT-gaussian",
        "noise-CNOT-fixed",
        "sweep-XZ",
        "sweep-CNOT",
    ],
    "nogo": ["nogo"] * 4,
}

WORKLOADS = tuple(ROUNDS)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``kind`` names its cost class, ``args`` is the argv
    after the program name, ``expect`` holds what the verifier needs."""

    kind: str
    args: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.args[0]


def _recipe(rng: random.Random, gate: str) -> dict:
    strength = rng.uniform(0.5, 2.0)
    if gate == "CNOT":
        phase = 0.0
        blocks = rng.choice([[1, 2], [2, 1]])
    else:
        phase = rng.uniform(-math.pi, math.pi)
        blocks = [1]
    return {
        "kind": gate,
        "phase": phase,
        "strength": strength,
        "duration": PULSE_AREAS[gate] / strength,
        "blocks": blocks,
    }


def _distribution(rng: random.Random, name: str) -> dict:
    if name == "gaussian":
        params = {"mean": rng.uniform(-1.0, 1.0), "stddev": rng.uniform(0.1, 2.0)}
    elif name == "fixed":
        params = {"theta": rng.uniform(0.0, 2.0 * math.pi)}
    else:
        params = {}
    return {"type": name, "params": params}


def _invocation(rng: random.Random, kind: str) -> Invocation:
    parts = kind.split("-")
    command = parts[0]
    if command in ("gate", "holonomy"):
        gate = rng.choice(["XZ", "ZX"]) if parts[1] == "1q" else parts[1]
        recipe = _recipe(rng, gate)
        args = (command, "--recipe", json.dumps(recipe))
        return Invocation(kind, args, {"gate": gate, "phase": recipe["phase"]})
    if command == "noise":
        gate, dist = parts[1], parts[2]
        recipe = _recipe(rng, gate)
        ensemble = {
            "kick_count": NOISE_KICKS,
            "distribution": _distribution(rng, dist),
            "samples": NOISE_SAMPLES[gate],
            "seed": rng.randrange(2**31),
        }
        # Fixed kicks report CSV, the others JSON, so both formats are checked.
        fmt = "csv" if dist == "fixed" else "json"
        args = (
            "noise",
            "--recipe",
            json.dumps(recipe),
            "--ensemble",
            json.dumps(ensemble),
            "--format",
            fmt,
        )
        return Invocation(kind, args, {"samples": ensemble["samples"], "format": fmt})
    if command == "sweep":
        recipe = _recipe(rng, parts[1])
        span = rng.uniform(0.02, 0.3)
        args = (
            "sweep",
            "--param",
            "pulse_area_detuning",
            "--from",
            repr(-span),
            "--to",
            repr(span),
            "--points",
            str(SWEEP_POINTS),
            "--recipe",
            json.dumps(recipe),
        )
        grid = [-span + 2.0 * span * i / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS)]
        return Invocation(kind, args, {"grid": grid})
    if command == "nogo":
        seed = rng.randrange(2**31)
        args = ("nogo", "--trials", str(NOGO_TRIALS), "--seed", str(seed))
        return Invocation(kind, args, {"trials": NOGO_TRIALS, "seed": seed})
    raise ValueError(f"unknown invocation kind {kind!r}")


def rounds(workload: str, seed: int) -> Iterator[list[Invocation]]:
    """Endless rounds of ``workload``; the same seed gives the same rounds."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        kinds = list(ROUNDS[workload])
        rng.shuffle(kinds)
        yield [_invocation(rng, kind) for kind in kinds]
