import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqcdfs
from hqcdfs import __version__
from hqcdfs.cli import COMMANDS, MAX_SWEEP_POINTS, TOLERANCES, main
from hqcdfs.holonomy import DEFAULT_CHAIN_STEPS, MAX_CHAIN_STEPS
from hqcdfs.model import MAX_BLOCKS, GateRecipe, detune
from hqcdfs.noise import ENSEMBLE_CAP
from hqcdfs.subspace import BasisSet, dfs_product_basis

from gate_tools import basis_to_json, cnot, matrix_from_json, xz, zx
from oracles import bitstring_state, pauli_kron, report_from_oracles, two_qubit_dfs


def write_recipe(path, recipe):
    path.write_text(json.dumps(recipe.to_json_dict()))
    return str(path)


def write_ensemble(path, kick_count=2, samples=20, seed=4, dist=None):
    doc = {
        "kick_count": kick_count,
        "distribution": dist or {"type": "uniform", "params": {}},
        "samples": samples,
        "seed": seed,
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestGateCommand:
    def test_xz_recipe_passes(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "recipe.json", xz(0.3))
        out_path = tmp_path / "report.json"
        status = main(
            ["gate", "--recipe", recipe_path, "--steps", "512", "--out", str(out_path)]
        )
        assert status == 0
        doc = json.loads(out_path.read_text())
        assert doc["tool"] == {"name": "hqcdfs", "version": __version__}
        assert doc["violations"] == []
        assert doc["report"]["distance"] <= 1e-10
        assert doc["input"]["recipe"]["kind"] == "XZ"

    def test_inline_json_recipe(self, tmp_path, capsys):
        inline = json.dumps(zx(1.0).to_json_dict())
        status = main(["gate", "--recipe", inline, "--steps", "512"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["distance"] <= 1e-10

    def test_malformed_json_exits_2_without_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_path = tmp_path / "nope.json"
        status = main(["gate", "--recipe", str(bad), "--out", str(out_path)])
        assert status == 2
        assert not out_path.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["gate", "--recipe", str(tmp_path / "none.json")]) == 2

    def test_invalid_pulse_area_exits_2(self, tmp_path):
        doc = xz(0.3).to_json_dict()
        doc["duration"] *= 1.5
        bad = tmp_path / "bad_recipe.json"
        bad.write_text(json.dumps(doc))
        assert main(["gate", "--recipe", str(bad)]) == 2

    def test_largest_pulse_area_runs(self, capsys):
        # 1e308 is within the bound that rejects 1.3e308 (see BAD_INPUT).
        assert main(gate_argv(strength=1e154, duration=1e154, detuned=True)) == 0
        assert json.loads(capsys.readouterr().out)["input"]["recipe"]["strength"] == 1e154

    @pytest.mark.parametrize(
        "recipe", [xz(0.3, block=MAX_BLOCKS), cnot(blocks=(1, MAX_BLOCKS))], ids=["XZ-3", "CNOT-1-3"]
    )
    def test_largest_register_runs(self, recipe, tmp_path):
        # A 512-dim register, the largest a recipe may span.
        out_path = tmp_path / "report.json"
        argv = ["gate", "--recipe", json.dumps(recipe.to_json_dict()), "--steps", "64"]
        assert main(argv + ["--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["report"]["n_blocks"] == MAX_BLOCKS

    def test_recipe_document_read_by_field_name(self, capsys):
        # No phase or detuned key, a bare-int block and a key no field names.
        doc = {"kind": "XZ", "strength": 1.0, "duration": XZ["duration"], "blocks": 1, "note": "x"}
        assert main(["gate", "--recipe", json.dumps(doc), "--steps", "64"]) == 0
        echo = json.loads(capsys.readouterr().out)["input"]["recipe"]
        assert echo == {
            "kind": "XZ", "phase": 0.0, "strength": 1.0, "duration": XZ["duration"],
            "blocks": [1], "detuned": False,
        }

    def test_too_few_steps_exits_2(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.0))
        assert main(["gate", "--recipe", recipe_path, "--steps", "4"]) == 2

    def test_detuned_recipe_reported_without_violations(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", detune(xz(0.3), 1.05))
        status = main(["gate", "--recipe", recipe_path, "--steps", "512"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["distance"] > 1e-4
        assert doc["violations"] == []

    def test_tolerance_scale_env(self, tmp_path, capsys, monkeypatch):
        # A scale tiny enough to trip the distance check turns a clean run
        # into exit status 1 with a populated violations list.
        monkeypatch.setenv("HQC_DFS_TOLERANCE_SCALE", "1e-12")
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.3))
        status = main(["gate", "--recipe", recipe_path, "--steps", "512"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance_scale"] == 1e-12
        if doc["violations"]:
            assert status == 1
            assert all("check" in v and "tolerance" in v for v in doc["violations"])
        else:
            assert status == 0

    def test_report_matrices_reload_unitary(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", cnot())
        out_path = tmp_path / "cnot.json"
        assert main(["gate", "--recipe", recipe_path, "--steps", "512", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        for key, dim in (("propagator", 64), ("restricted", 4), ("dfs_restricted", 5)):
            matrix = matrix_from_json(doc["report"][key])
            defect = np.linalg.norm(matrix.conj().T @ matrix - np.eye(dim))
            assert defect <= 1e-10 * dim


# Keys a --basis document may hold beside its vectors: a basis is its
# vectors, and the other keys are ignored.
BASIS_EXTRA_KEYS = {
    "basis-labels-int": {"labels": [0, 1]},
    "basis-labels-repeated": {"labels": ["a", "a"]},
    "basis-2-vectors-1-label": {"labels": ["0"]},
    "basis-dim-ambient-string": {"dim_ambient": "3"},
    "basis-labels-and-dim-ambient": {"labels": ["0", "1"], "dim_ambient": 64},
}


class TestHolonomyCommand:
    def test_certifies_recipe(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", zx(0.7))
        status = main(["holonomy", "--recipe", recipe_path, "--steps", "1024"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        report = doc["report"]
        assert report["cyclicity_defect"] <= 1e-10
        assert report["transport_defect"] <= 1e-12
        assert report["reconstruction_distance"] <= 1e-3
        matrix = matrix_from_json(report["holonomy_matrix"])
        assert np.linalg.norm(matrix.conj().T @ matrix - np.eye(2)) <= 1e-8

    def test_accepts_custom_basis_json(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.4))
        basis = dfs_product_basis([1], "01")
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis_to_json(basis)))
        status = main(
            ["holonomy", "--recipe", recipe_path, "--basis", str(basis_path), "--steps", "512"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["transport_defect"] <= 1e-12

    def test_basis_is_echoed_as_its_document(self):
        status, out, _ = run_captured(basis_argv())
        assert status == 0
        echo = json.loads(out)["input"]
        assert list(echo) == ["recipe", "steps", "basis"]
        assert echo["basis"] == LOGICAL_BASIS
        # Read back as --basis, the echo gives the same stdout, byte for byte.
        assert run_captured(basis_argv(**echo["basis"])) == (status, out, "")

    @pytest.mark.parametrize("extra", BASIS_EXTRA_KEYS.values(), ids=BASIS_EXTRA_KEYS.keys())
    def test_basis_keys_beside_vectors_are_ignored(self, extra):
        vectors_only = run_captured(basis_argv())
        assert vectors_only[0] == 0
        assert run_captured(basis_argv(**extra)) == vectors_only

    def test_rejects_mismatched_basis(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.4))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis_to_json(two_qubit_dfs())))
        assert main(["holonomy", "--recipe", recipe_path, "--basis", str(basis_path)]) == 2

    @pytest.mark.parametrize("basis", ["missing", "8-dim"])
    def test_bad_basis_exits_2_before_any_compute(self, basis, tmp_path, capsys, monkeypatch):
        from hqcdfs import cli

        def refuse(*args, **kwargs):
            raise AssertionError("the Hamiltonian was built before --basis was read")

        monkeypatch.setattr(cli, "recipe_hamiltonian", refuse)
        monkeypatch.setattr(cli, "Spectrum", refuse)
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.4, block=3))
        basis_path = tmp_path / "basis.json"
        if basis == "8-dim":
            basis_path.write_text(json.dumps(LOGICAL_BASIS))
        assert main(["holonomy", "--recipe", recipe_path, "--basis", str(basis_path)]) == 2
        err = capsys.readouterr().err
        if basis == "8-dim":
            assert err == (
                "error: basis ambient dimension 8 does not match "
                "the 512-dimensional register of this recipe\n"
            )
        else:
            assert err.startswith(f"error: cannot read JSON input {str(basis_path)!r}")

    def test_non_holonomic_basis_exits_3(self, tmp_path):
        # The ancilla/logical pair carries Hamiltonian coupling, so
        # certification refuses it: an in-run contract failure, not a
        # parse error.
        pair = dfs_product_basis([1], "a0")
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.4))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(basis_to_json(pair)))
        status = main(
            ["holonomy", "--recipe", recipe_path, "--basis", str(basis_path), "--steps", "512"]
        )
        assert status == 3


class TestStrengthGrid:
    @pytest.mark.parametrize("strength", [1e-4, 1.0, 1e4, 1e150])
    @pytest.mark.parametrize("recipe", [xz, zx, cnot], ids=["XZ", "ZX", "CNOT-12"])
    @pytest.mark.parametrize("command", ["gate", "holonomy"])
    def test_exact_recipe_passes_at_any_strength(self, command, recipe, strength, monkeypatch):
        # The logical entries of h are exact zeros at every strength, so the
        # transport defect, an energy checked against an absolute
        # tolerance, reads 0 however strong the coupling.
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        exact = cnot(strength) if recipe is cnot else recipe(0.3, strength)
        status, out, err = run_captured([command, "--recipe", json.dumps(exact.to_json_dict())])
        assert (status, err) == (0, "")
        assert json.loads(out)["violations"] == []


class TestNoiseCommand:
    def test_json_summary(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.2))
        ensemble_path = write_ensemble(tmp_path / "e.json")
        status = main(["noise", "--recipe", recipe_path, "--ensemble", ensemble_path])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["min_fidelity"] >= 1 - 1e-10
        assert len(doc["report"]["per_sample"]) == 20

    def test_csv_per_sample(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.2))
        ensemble_path = write_ensemble(tmp_path / "e.json", samples=7)
        status = main(
            ["noise", "--recipe", recipe_path, "--ensemble", ensemble_path, "--format", "csv"]
        )
        assert status == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["sample", "fidelity"]
        assert len(rows) == 8

    def test_bad_ensemble_exits_2(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.2))
        assert main(["noise", "--recipe", recipe_path, "--ensemble", '{"kick_count": 1}']) == 2

    def test_unknown_distribution_names_type(self):
        status, out, err = run_captured(noise_argv({"type": "poisson"}))
        assert (status, out) == (2, "")
        assert err == (
            "error: invalid NoiseEnsemble: type must be one of "
            "('uniform', 'gaussian', 'fixed'), got 'poisson'\n"
        )

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    def test_csv_text_ignores_the_chunk(self, chunk, monkeypatch):
        from hqcdfs import serialize
        from hqcdfs.noise import NoiseEnsemble, noisy_realize

        ensemble = {**ENSEMBLE, "samples": 2500}
        result = noisy_realize(GateRecipe.from_json_dict(XZ), NoiseEnsemble.from_json_dict(ensemble))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["sample", "fidelity"])
        writer.writerows((i, f"{f:.12g}") for i, f in enumerate(result.per_sample.tolist()))
        if chunk is not None:
            monkeypatch.setattr(serialize, "FORMAT_CHUNK", chunk)
        status, out, _ = run_captured(noise_argv(samples=2500) + ["--format", "csv"])
        assert status == 0
        assert out == expected.getvalue()


# Negative --from values, each with the exit status and stderr of its sweep.
NEGATIVE_STARTS = {
    "-1e-3": (0, ""),
    "-inf": (2, "error: --from -inf and --to 0.1 must be finite and a finite distance apart\n"),
    "-1e308": (2, "error: invalid sweep point -1e+308: strength and duration must be positive\n"),
}
# Prefixes that the parser resolves to --from or --to, each spaced from a
# negative value, with the exit status of the sweep from -0.1 to 0.1 it edits.
NEGATIVE_PREFIXES = {
    "--f -1e-3": 0,
    "--fr -1e-3": 0,
    "--fro -1e-3": 0,
    "--fro -inf": 2,
    "--t -0.05": 0,
    "--t -1e308": 2,
}


class TestSweepCommand:
    def test_phase_sweep(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.0))
        out_path = tmp_path / "sweep.csv"
        status = main(
            [
                "sweep", "--param", "phase", "--from", "0", "--to", "6.283185307179586",
                "--points", "9", "--recipe", recipe_path,
                "--out", str(out_path),
            ]
        )
        assert status == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert rows[0] == ["parameter", "distance", "cyclicity_defect", "transport_defect"]
        assert len(rows) == 10
        assert all(float(r[1]) <= 1e-10 for r in rows[1:])

    def test_detuning_sweep_distance_nondecreasing(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.4))
        out_path = tmp_path / "detuning.csv"
        status = main(
            [
                "sweep", "--param", "pulse_area_detuning", "--from", "0", "--to", "0.1",
                "--points", "11", "--recipe", recipe_path,
                "--out", str(out_path),
            ]
        )
        assert status == 0
        rows = list(csv.reader(out_path.read_text().splitlines()))[1:]
        assert len(rows) == 11
        distances = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))

    def test_two_point_sweep(self, tmp_path, capsys):
        recipe_path = write_recipe(tmp_path / "r.json", zx(0.0))
        status = main(
            ["sweep", "--param", "phase", "--from", "0", "--to", "1",
             "--points", "2", "--recipe", recipe_path]
        )
        assert status == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3

    @pytest.mark.parametrize("detuning", [0.0, 0.03], ids=["pulse-area", "detuned"])
    @pytest.mark.parametrize(
        "recipe", [xz(0.3), zx(0.3, block=2), cnot(blocks=(1, 2))], ids=["XZ-1", "ZX-2", "CNOT-12"]
    )
    def test_defects_agree_with_holonomy(self, recipe, detuning):
        # A sweep from v to v and ``holonomy`` on the recipe detuned by v
        # print the same two defects, to the last printed digit.
        value = repr(detuning)
        status, out, _ = run_captured(
            ["sweep", "--param", "pulse_area_detuning", "--from", value, "--to", value,
             "--points", "2", "--recipe", json.dumps(recipe.to_json_dict())]
        )
        assert status == 0
        certified = detune(recipe, 1.0 + detuning) if detuning else recipe
        status, printed, _ = run_captured(["holonomy", "--recipe", json.dumps(certified.to_json_dict())])
        assert status == 0
        report = strict_json(printed)["report"]
        rows = csv_rows(out)
        assert rows[0][2:] == ["cyclicity_defect", "transport_defect"]
        for row in rows[1:]:
            assert row[2:] == [report["cyclicity_defect"], report["transport_defect"]]

    def test_single_point_rejected(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", zx(0.0))
        assert main(
            ["sweep", "--param", "phase", "--from", "0", "--to", "1",
             "--points", "1", "--recipe", recipe_path]
        ) == 2

    def test_points_cap_is_inclusive(self, monkeypatch):
        from hqcdfs import cli

        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
        assert run_captured(sweep_argv("-0.1", "0.1", 3))[0] == 0
        assert run_captured(sweep_argv("-0.1", "0.1", 4)) == (2, "", "error: sweep needs 2 to 3 points, got 4\n")

    def test_phase_sweep_of_cnot_rejected(self, tmp_path):
        # The recipe owns the rule, so the grid-end check names the point.
        recipe_path = write_recipe(tmp_path / "r.json", cnot())
        assert run_captured(
            ["sweep", "--param", "phase", "--from", "0", "--to", "1",
             "--points", "3", "--recipe", recipe_path]
        ) == (2, "", "error: invalid sweep point 1.0: a CNOT recipe takes no phase, got 1.0\n")

    def test_phase_sweep_of_cnot_at_zero_runs(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", cnot())
        status, out, err = run_captured(
            ["sweep", "--param", "phase", "--from", "0", "--to", "0",
             "--points", "2", "--recipe", recipe_path]
        )
        assert (status, err) == (0, "")
        assert [row[0] for row in csv_rows(out)[1:]] == [0.0, 0.0]

    def test_steps_is_not_an_option(self):
        # Only gate and holonomy run the projector chain that --steps sets.
        argv = sweep_argv("-0.1", "0.1", 3) + ["--steps", "512"]
        assert run_captured(argv) == (2, "", "error: unrecognized arguments: --steps 512\n")

    def test_detuning_below_minus_one_rejected(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.0))
        assert main(
            ["sweep", "--param", "pulse_area_detuning", "--from", "-2", "--to", "0",
             "--points", "3", "--recipe", recipe_path]
        ) == 2

    @pytest.mark.parametrize("start", NEGATIVE_STARTS)
    def test_spaced_negative_value_parses_as_joined(self, start):
        # A spaced "-1e-3" or "-inf" reads like an option name.
        spaced = run_captured(sweep_argv(start, "0.1", 2))
        joined = sweep_argv(start, "0.1", 2)
        joined[3:5] = [f"--from={start}"]
        assert spaced == run_captured(joined)
        assert (spaced[0], spaced[2]) == NEGATIVE_STARTS[start]

    @pytest.mark.parametrize("spelling", NEGATIVE_PREFIXES)
    def test_spaced_negative_value_after_a_prefix_parses_as_joined(self, spelling):
        option, value = spelling.split()
        at = 3 if "--from".startswith(option) else 5
        spaced = sweep_argv("-0.1", "0.1", 2)
        spaced[at:at + 2] = [option, value]
        joined = sweep_argv("-0.1", "0.1", 2)
        joined[at:at + 2] = [f"{option}={value}"]
        status, out, err = run_captured(spaced)
        assert (status, out, err) == run_captured(joined)
        assert status == NEGATIVE_PREFIXES[spelling]
        assert (out == "") == (status == 2) and err.count("\n") == (status == 2)

    def test_unwritable_output_exits_2(self, tmp_path):
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.0))
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(
            ["gate", "--recipe", recipe_path, "--steps", "512", "--out", str(missing_dir)]
        ) == 2


class TestNogoCommand:
    def test_seeded_run_is_clean(self, tmp_path):
        out_path = tmp_path / "nogo.json"
        status = main(["nogo", "--trials", "1000", "--seed", "7", "--out", str(out_path)])
        assert status == 0
        doc = json.loads(out_path.read_text())
        assert doc["report"]["counterexamples"] == 0
        assert doc["report"]["witness_error"] == 0.0
        assert doc["report"]["trials"] == 1000

    def test_witness_error_is_a_violation(self, monkeypatch):
        # Against -sigma_x the exact witness misses by 2 in every entry.
        from hqcdfs import gates

        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        monkeypatch.setattr(gates, "SIGMA_X", -gates.SIGMA_X)
        status, out, _ = run_captured(["nogo", "--trials", "5", "--seed", "3"])
        assert status == 1
        doc = json.loads(out)
        assert doc["report"]["counterexamples"] == 0
        assert doc["violations"] == [{"check": "witness_error", "value": 2.0, "tolerance": 0.0}]
        # The whole report, pinned byte for byte.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5b7ec494a10526ed75726fa1af2bc2bc9dac0f32b5c1cbc539fbf03903b11a95"
        )


XZ = xz(0.3).to_json_dict()
ENSEMBLE = {
    "kick_count": 1,
    "distribution": {"type": "uniform", "params": {}},
    "samples": 3,
    "seed": 1,
}


def gate_argv(**changes):
    return ["gate", "--recipe", json.dumps({**XZ, **changes}), "--steps", "64"]


def noise_argv(distribution=None, **changes):
    ensemble = {**ENSEMBLE, **changes}
    if distribution is not None:
        ensemble["distribution"] = distribution
    return ["noise", "--recipe", json.dumps(XZ), "--ensemble", json.dumps(ensemble)]


def sweep_argv(start, stop, points, param="pulse_area_detuning"):
    return [
        "sweep", "--param", param, "--from", start, "--to", stop,
        "--points", str(points), "--recipe", json.dumps(XZ),
    ]


LOGICAL_BASIS = basis_to_json(dfs_product_basis([1], "01"))


def basis_argv(**changes):
    basis = json.dumps({**LOGICAL_BASIS, **changes})
    return ["holonomy", "--recipe", json.dumps(XZ), "--basis", basis, "--steps", "64"]


# A 64-dimensional basis, the logical basis of block 2, for the
# 8-dimensional register of the one-block XZ recipe.
BASIS_64_ARGV = basis_argv(**basis_to_json(dfs_product_basis([2], "01")))


def gaussian(**params):
    return {"type": "gaussian", "params": {"mean": 0.0, "stddev": 1.0, **params}}


BAD_INPUT = {
    "blocks-over-dimension-cap": (gate_argv(blocks=[5]), None),
    "blocks-string": (gate_argv(blocks="1"), None),
    "blocks-fractional": (gate_argv(blocks=[1.7]), None),
    "phase-nan": (gate_argv(phase=float("nan")), None),
    "phase-inf": (gate_argv(phase=float("inf")), None),
    "strength-nan": (gate_argv(strength=float("nan")), None),
    "strength-inf": (gate_argv(strength=float("inf")), None),
    "duration-nan": (gate_argv(duration=float("nan")), None),
    "phase-int-beyond-float": (gate_argv(phase=10 ** 400), None),
    "pulse-area-inf": (gate_argv(strength=1e300, duration=1e300, detuned=True), None),
    "pulse-area-1.3e308": (gate_argv(strength=1e154, duration=1.3e154, detuned=True), None),
    "ensemble-seed-negative": (noise_argv(seed=-1), None),
    "ensemble-seed-fractional": (noise_argv(seed=1.5), None),
    "distribution-unknown": (noise_argv({"type": "cauchy", "params": {}}), None),
    "mean-nan": (noise_argv(gaussian(mean=float("nan"))), None),
    "mean-inf": (noise_argv(gaussian(mean=float("inf"))), None),
    "stddev-nan": (noise_argv(gaussian(stddev=float("nan"))), None),
    "stddev-inf": (noise_argv(gaussian(stddev=float("inf"))), None),
    "mean-int-beyond-float": (noise_argv(gaussian(mean=-(10 ** 400))), None),
    "samples-over-cap": (noise_argv(kick_count=0, samples=ENSEMBLE_CAP + 1), None),
    "kicks-over-cap": (noise_argv(kick_count=ENSEMBLE_CAP + 1), None),
    "kick-count-1e18": (noise_argv(kick_count=1e18), None),
    "detuned-string": (gate_argv(duration=0.5, detuned="false"), None),
    "strength-string": (gate_argv(strength="1.0"), None),
    "mean-bool": (noise_argv(gaussian(mean=True)), None),
    "kind-int": (gate_argv(kind=1), None),
    "nogo-seed-negative": (["nogo", "--trials", "3", "--seed", "-1"], None),
    "nogo-trials-0": (["nogo", "--trials", "0"], None),
    # An empty path names no file; it is not the default.
    "holonomy-basis-empty": (["holonomy", "--recipe", json.dumps(XZ), "--basis", ""], None),
    "nogo-out-empty": (["nogo", "--trials", "2", "--out", ""], None),
    "sweep-phase-from-inf": (sweep_argv("inf", "0.1", 3, param="phase"), None),
    "sweep-detuning-from-nan": (sweep_argv("nan", "0.1", 3), None),
    "sweep-detuning-to-1e308": (sweep_argv("-0.1", "1e308", 3), None),
    "sweep-points-over-cap": (sweep_argv("-0.1", "0.1", MAX_SWEEP_POINTS + 1), None),
    # A sweep runs no projector chain and takes no --steps.
    "sweep-steps-exact-point": (sweep_argv("-0.1", "0.1", 3) + ["--steps", "4"], None),
    "sweep-steps-all-detuned": (sweep_argv("-0.1", "0.1", 2) + ["--steps", "4"], None),
    "sweep-steps-negative": (sweep_argv("-0.1", "0.1", 3) + ["--steps", "-5"], None),
    "sweep-steps-over-max": (
        sweep_argv("-0.1", "0.1", 3) + ["--steps", str(MAX_CHAIN_STEPS + 1)],
        None,
    ),
    "gate-steps-over-max": (gate_argv() + ["--steps", str(MAX_CHAIN_STEPS + 1)], None),
    "holonomy-steps-1e15": (basis_argv() + ["--steps", str(10 ** 15)], None),
    "holonomy-steps-1e18": (basis_argv() + ["--steps", str(10 ** 18)], None),
    "basis-component-bool": (
        basis_argv(
            vectors=[
                [[True, 0] if z == [1.0, 0.0] else z for z in column]
                for column in LOGICAL_BASIS["vectors"]
            ]
        ),
        None,
    ),
    "basis-dim-ambient-64": (BASIS_64_ARGV, None),
    "basis-9-vectors-in-8-dims": (
        basis_argv(vectors=[[[float(i == j), 0.0] for i in range(8)] for j in [*range(8), 0]]),
        None,
    ),
    "tolerance-scale-nan": (gate_argv(), "nan"),
    "tolerance-scale-inf": (gate_argv(), "inf"),
    "tolerance-scale-abc": (gate_argv(), "abc"),
}


# Files the JSON decoder cannot read: bytes that are not UTF-8, arrays
# nested past the recursion limit, and an integer past Python's int-digit
# limit.
UNDECODABLE = {
    "non-utf8": b'{"kind": "\xff"}',
    "nested-200000": b"[" * 200_000 + b"]" * 200_000,
    "int-5000-digits": b'{"x": ' + b"1" * 5000 + b"}",
}
# Sweep grids that fail at an end, with their one stderr line.
BAD_SWEEP_GRIDS = {
    "sweep-phase-from-inf": "--from inf and --to 0.1 must be finite and a finite distance apart",
    # The last point's interpolation overflows: (1e308 + 0.1) * 2 / 2.
    "sweep-detuning-to-1e308": "invalid sweep point inf: duration must be a finite number, got inf",
    "sweep-points-over-cap": f"sweep needs 2 to {MAX_SWEEP_POINTS} points, got {MAX_SWEEP_POINTS + 1}",
}
# Each rule of the three input records that no other row reaches, with its
# one stderr line: the record is the rule's only owner, and the library
# takes the values it checked without checking them again.
RECORD_RULES = {
    "cnot-one-block": (
        gate_argv(kind="CNOT", blocks=[1]),
        "GateRecipe: CNOT recipe needs 2 block index(es)",
    ),
    "xz-no-blocks": (gate_argv(blocks=[]), "GateRecipe: XZ recipe needs 1 block index(es)"),
    "cnot-same-blocks": (
        gate_argv(kind="CNOT", blocks=[2, 2]),
        "GateRecipe: CNOT control and target blocks must differ",
    ),
    "cnot-phase": (
        gate_argv(kind="CNOT", blocks=[1, 2], phase=0.7),
        "GateRecipe: a CNOT recipe takes no phase, got 0.7",
    ),
    "block-0": (gate_argv(blocks=[0]), "GateRecipe: block indices must be >= 1, got (0,)"),
    "kick-count-negative": (noise_argv(kick_count=-1), "NoiseEnsemble: kick_count must be >= 0"),
    "samples-0": (noise_argv(samples=0), "NoiseEnsemble: samples must be >= 1"),
    "basis-vectors-equal": (
        basis_argv(vectors=[LOGICAL_BASIS["vectors"][0]] * 2),
        "BasisSet: basis is not orthonormal: ||G - I||_F = 1.414e+00",
    ),
    "basis-vectors-empty": (
        basis_argv(vectors=[[]]),
        "BasisSet: expected a 2-d matrix, got shape (0, 1)",
    ),
    # Its Gram matrix overflows, with no warning printed.
    "basis-vector-overflows": (
        basis_argv(vectors=[[[1e308, 1e308]] * 8]),
        "BasisSet: basis is not orthonormal: ||G - I||_F = nan",
    ),
}
# A recipe for each command on a block past MAX_BLOCKS.
OVER_BUDGET_XZ = json.dumps({**XZ, "blocks": [MAX_BLOCKS + 1]})
OVER_BUDGET = {
    "gate": ["gate", "--recipe", OVER_BUDGET_XZ],
    "holonomy": ["holonomy", "--recipe", OVER_BUDGET_XZ],
    "noise": ["noise", "--recipe", OVER_BUDGET_XZ, "--ensemble", json.dumps(ENSEMBLE)],
    "sweep": [
        "sweep", "--param", "pulse_area_detuning", "--from", "0", "--to", "0.1", "--points", "2",
        "--recipe", json.dumps({**cnot().to_json_dict(), "blocks": [1, MAX_BLOCKS + 1]}),
    ],
}
# Command lines that the parser refuses, each with the option its one stderr
# line names, or with that whole line (a row ending in a newline), in
# argparse's words and with no usage text.
PARSER_FAILURES = {
    "gate-without-recipe": (["gate"], "--recipe"),
    "steps-abc": (gate_argv()[:3] + ["--steps", "abc"], "--steps"),
    "param-bad": (sweep_argv("0", "0.1", 2, param="bad"), "--param"),
    "unknown-option": (gate_argv() + ["--bogus", "1"], "--bogus"),
    "to-without-value": (sweep_argv("0", "0.1", 2)[:5] + ["--to"], "--to"),
    "ambiguous-prefix": (
        ["sweep", "--p", *sweep_argv("0", "0.1", 2)[2:]],
        "error: ambiguous option: --p could match --param, --points\n",
    ),
    "no-command": ([], "error: the following arguments are required: command\n"),
    "unknown-command": (
        ["frob"],
        "error: argument command: invalid choice: 'frob' "
        "(choose from 'gate', 'holonomy', 'noise', 'sweep', 'nogo')\n",
    ),
    "format-joined-bad": (
        noise_argv() + ["--format=xml"],
        "error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n",
    ),
    "steps-without-value": (gate_argv()[:3] + ["--steps"], "error: argument --steps: expected one argument\n"),
}
# Command lines the parser accepts, each with the plain spelling whose run it
# must match: a joined value, and a repeated option, whose last value wins.
PARSER_SPELLINGS = {
    "recipe-joined": (["gate", f"--recipe={json.dumps(XZ)}", "--steps", "64"], gate_argv()),
    "trials-repeated": (["nogo", "--trials", "0", "--trials", "3"], ["nogo", "--trials", "3"]),
}
# Bad no-go command lines, each with its one stderr line: the trial count is
# checked first.
NOGO_REFUSALS = {
    "trials-0": (["nogo", "--trials", "0"], "trials must be >= 1, got 0"),
    "seed-negative": (["nogo", "--trials", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
    "trials-0-seed-negative": (["nogo", "--trials", "0", "--seed", "-1"], "trials must be >= 1, got 0"),
}
# Each command given --steps, on an XZ recipe.
STEPS_ARGV = {
    "gate": ["gate", "--recipe", json.dumps(XZ)],
    "holonomy": ["holonomy", "--recipe", json.dumps(XZ)],
    "sweep": sweep_argv("-0.1", "0.1", 3),
}
# Files whose JSON is not an object, so no field can be read from them.
NON_OBJECTS = {"list": b"[1, 2]", "int": b"42", "null": b"null", "string": b'"XZ"'}
# Each input file option, in the command that reads it, and the record it decodes.
FILE_OPTIONS = {
    "recipe": lambda path: ["gate", "--recipe", path],
    "ensemble": lambda path: ["noise", "--recipe", json.dumps(XZ), "--ensemble", path],
    "basis": lambda path: basis_argv()[:3] + ["--basis", path],
}
FILE_RECORDS = {"recipe": "GateRecipe", "ensemble": "NoiseEnsemble", "basis": "BasisSet"}


# Malformed ensembles, each with the message its one stderr line ends with,
# as recorded before the distribution was validated inside NoiseEnsemble.
# None where Python, not the package, wrote the message: only the prefix is
# pinned then.
MALFORMED_ENSEMBLES = {
    "missing-stddev": ({"type": "gaussian", "params": {"mean": 0.0}}, "'stddev'"),
    "negative-stddev": (gaussian(stddev=-1.0), "stddev must be >= 0"),
    "string-theta": (
        {"type": "fixed", "params": {"theta": "1.0"}},
        "theta must be a finite number, got '1.0'",
    ),
    "unknown-type": (
        {"type": "cauchy", "params": {}},
        "type must be one of ('uniform', 'gaussian', 'fixed'), got 'cauchy'",
    ),
    "list": ([1, 2], None),
    "string": ("uniform", None),
    "empty": ({}, "'type'"),
    "params-null": ({"type": "gaussian", "params": None}, None),
    "number": (42, None),
    "missing": (None, "'distribution'"),
}


class TestBadInputExits2:
    @pytest.mark.parametrize(
        "distribution, message", MALFORMED_ENSEMBLES.values(), ids=MALFORMED_ENSEMBLES.keys()
    )
    def test_malformed_ensemble_line(self, distribution, message):
        ensemble = {**ENSEMBLE, "distribution": distribution}
        if distribution is None:
            del ensemble["distribution"]
        argv = ["noise", "--recipe", json.dumps(XZ), "--ensemble", json.dumps(ensemble)]
        status, out, err = run_captured(argv)
        assert (status, out) == (2, "")
        prefix = "error: invalid NoiseEnsemble: "
        assert err.startswith(prefix) and err.count("\n") == 1
        if message is not None:
            assert err == prefix + message + "\n"

    @pytest.mark.parametrize("argv, scale", BAD_INPUT.values(), ids=BAD_INPUT.keys())
    def test_one_line_error(self, argv, scale, capsys, monkeypatch):
        if scale is not None:
            monkeypatch.setenv("HQC_DFS_TOLERANCE_SCALE", scale)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("option", FILE_OPTIONS)
    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_undecodable_file(self, content, option, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main(FILE_OPTIONS[option](str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("option", FILE_OPTIONS)
    @pytest.mark.parametrize("content", NON_OBJECTS.values(), ids=NON_OBJECTS.keys())
    def test_non_object_file(self, content, option, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        status, out, err = run_captured(FILE_OPTIONS[option](str(path)))
        assert (status, out) == (2, "")
        assert err.startswith(f"error: invalid {FILE_RECORDS[option]}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, key",
        [({}, "kind"), ({"strength": 1.0}, "kind"), ({"kind": "XZ"}, "strength")],
        ids=["empty", "strength-only", "kind-only"],
    )
    def test_missing_recipe_field_is_named(self, doc, key):
        # Fields are read in order, and phase and detuned have defaults.
        status, out, err = run_captured(["gate", "--recipe", json.dumps(doc)])
        assert (status, out, err) == (2, "", f"error: invalid GateRecipe: {key!r}\n")

    @pytest.mark.parametrize("row", BAD_SWEEP_GRIDS)
    def test_bad_sweep_grid_exits_2_before_any_point(self, row, capsys, monkeypatch):
        from hqcdfs import model

        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built before the grid was checked")

        # Every recipe Hamiltonian is a sum of exchange terms.
        monkeypatch.setattr(model, "exchange_term", refuse)
        assert main(BAD_INPUT[row][0]) == 2
        assert capsys.readouterr().err == f"error: {BAD_SWEEP_GRIDS[row]}\n"

    @pytest.mark.parametrize("argv, message", RECORD_RULES.values(), ids=RECORD_RULES.keys())
    def test_record_rule_is_one_line(self, argv, message):
        assert run_captured(argv) == (2, "", f"error: invalid {message}\n")

    @pytest.mark.parametrize("argv, option", PARSER_FAILURES.values(), ids=PARSER_FAILURES.keys())
    def test_parser_failure_is_one_line(self, argv, option):
        status, out, err = run_captured(argv)
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert option in err and "usage:" not in err
        if option.endswith("\n"):
            assert err == option

    @pytest.mark.parametrize("steps", [4, MAX_CHAIN_STEPS + 1])
    @pytest.mark.parametrize("command", STEPS_ARGV)
    def test_bad_steps_exit_2_before_any_hamiltonian(self, command, steps, monkeypatch):
        from hqcdfs import model

        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built before --steps was checked")

        monkeypatch.setattr(model, "exchange_term", refuse)
        status, out, err = run_captured(STEPS_ARGV[command] + ["--steps", str(steps)])
        line = f"steps must be in [8, {MAX_CHAIN_STEPS}], got {steps}"
        if command == "sweep":  # a sweep runs no projector chain and takes no --steps
            line = f"unrecognized arguments: --steps {steps}"
        assert (status, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv, line", NOGO_REFUSALS.values(), ids=NOGO_REFUSALS.keys())
    def test_bad_nogo_exits_2_before_any_draw(self, argv, line, monkeypatch):
        from hqcdfs import gates

        def refuse(*args, **kwargs):
            raise AssertionError("a no-go trial ran before --trials and --seed were checked")

        # Every trial's Hamiltonian is a sum of the two exchange terms.
        monkeypatch.setattr(gates, "exchange_term", refuse)
        assert run_captured(argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv", OVER_BUDGET.values(), ids=OVER_BUDGET.keys())
    def test_register_over_budget_exits_2_before_any_hamiltonian(self, argv, monkeypatch):
        from hqcdfs import model

        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built for a register past MAX_BLOCKS")

        # Every recipe Hamiltonian is a sum of exchange terms.
        monkeypatch.setattr(model, "exchange_term", refuse)
        status, out, err = run_captured(argv)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: invalid GateRecipe: block indices must be <= {MAX_BLOCKS}")
        assert err.count("\n") == 1


class TestParserSpellings:
    @pytest.mark.parametrize("argv, plain", PARSER_SPELLINGS.values(), ids=PARSER_SPELLINGS.keys())
    def test_spelling_runs_as_the_plain_one(self, argv, plain):
        status, out, err = run_captured(argv)
        assert (status, err) == (0, "")
        assert (status, out, err) == run_captured(plain)


class TestExitStatusContract:
    def test_internal_contract_violation_exits_3(self, tmp_path, monkeypatch):
        from hqcdfs import cli
        from hqcdfs.operators import ContractViolation

        def explode(*args, **kwargs):
            raise ContractViolation("synthetic contract failure")

        monkeypatch.setattr(cli, "realize", explode)
        recipe_path = write_recipe(tmp_path / "r.json", xz(0.1))
        assert main(["gate", "--recipe", recipe_path]) == 3

    @pytest.mark.parametrize(
        "error",
        [RuntimeError("synthetic failure\nsecond line"), MemoryError()],
        ids=["RuntimeError", "MemoryError"],
    )
    def test_any_other_exception_exits_3(self, error, capsys, monkeypatch):
        from hqcdfs import cli

        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "no_go_certificate", explode)
        assert main(["nogo", "--trials", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: {type(error).__name__}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_hamiltonian_leaving_the_noise_sector_exits_3(self, monkeypatch):
        from hqcdfs import noise
        from hqcdfs.model import recipe_hamiltonian

        def leaky(recipe):
            return recipe_hamiltonian(recipe) + pauli_kron("x", 1, 3 * max(recipe.blocks))

        monkeypatch.setattr(noise, "recipe_hamiltonian", leaky)
        status, out, err = run_captured(noise_argv())
        assert status == 3
        assert out == ""
        assert err.startswith("contract violation: Hamiltonian couples the collective-Z sector")

    def test_logical_rows_in_two_noise_sectors_exit_3(self, monkeypatch):
        from hqcdfs import noise

        def split(blocks, states):
            return BasisSet(np.column_stack([bitstring_state("010"), bitstring_state("011")]))

        monkeypatch.setattr(noise, "dfs_product_basis", split)
        status, out, err = run_captured(noise_argv())
        assert status == 3
        assert out == ""
        assert err.startswith("contract violation: logical basis spans collective-Z values")

    def test_fidelity_above_one_is_a_violation(self, monkeypatch):
        from hqcdfs import cli
        from hqcdfs.noise import NoisyGateResult

        result = NoisyGateResult(1.0, 1.0, (1.0, 1.0 + 1e-9))
        monkeypatch.setattr(cli, "noisy_realize", lambda recipe, ensemble: result)
        status, out, _ = run_captured(noise_argv())
        assert status == 1
        assert [v["check"] for v in json.loads(out)["violations"]] == ["excess_fidelity"]

    def test_csv_report_names_its_violations_on_stderr(self, monkeypatch):
        # The rows print as they would pass; one line lists what the JSON
        # report's violations would.
        from hqcdfs import cli
        from hqcdfs.noise import NoisyGateResult

        result = NoisyGateResult(0.75, 0.5, (0.5, 1.0 + 1e-9))
        monkeypatch.setattr(cli, "noisy_realize", lambda recipe, ensemble: result)
        status, out, err = run_captured(noise_argv(samples=2) + ["--format", "csv"])
        assert (status, out) == (1, "sample,fidelity\r\n0,0.5\r\n1,1.000000001\r\n")
        assert err == (
            "violations: fidelity_deficit = 5.000e-01, tolerance 1.000e-10; "
            "excess_fidelity = 1.000e-09, tolerance 1.000e-10\n"
        )

    def test_nan_never_passes_a_check(self):
        from hqcdfs.cli import _violations
        from hqcdfs.noise import NoisyGateResult

        result = NoisyGateResult(float("nan"), float("nan"), (1.0,))
        violations = _violations("noise", result, 1e6)
        assert [v["check"] for v in violations] == ["fidelity_deficit"]


def run_captured(argv):
    """Exit status, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestReportEnvelope:
    def test_envelope_is_indented_json(self):
        status, out, _ = run_captured(noise_argv(samples=40))
        assert status == 0
        assert out == json.dumps(strict_json(out), indent=2) + "\n"

    def test_non_finite_report_writes_nothing(self, monkeypatch):
        from hqcdfs import cli
        from hqcdfs.noise import NoisyGateResult

        per_sample = (1.0,) * 50 + (float("nan"),)
        result = NoisyGateResult(float("nan"), float("nan"), per_sample)
        monkeypatch.setattr(cli, "noisy_realize", lambda recipe, ensemble: result)
        status, out, err = run_captured(noise_argv())
        assert status == 3
        assert out == ""
        assert err.startswith("contract violation: report holds a non-finite number")

    def test_non_finite_csv_writes_nothing(self, monkeypatch):
        # The same exit status and stderr line as the JSON report's.
        from hqcdfs import cli
        from hqcdfs.noise import NoisyGateResult

        per_sample = (1.0,) * 50 + (float("nan"),)
        result = NoisyGateResult(float("nan"), float("nan"), per_sample)
        monkeypatch.setattr(cli, "noisy_realize", lambda recipe, ensemble: result)
        argv = noise_argv(samples=len(per_sample))
        status, out, err = run_captured(argv)
        assert (status, out) == (3, "") and err.count("\n") == 1
        assert run_captured(argv + ["--format", "csv"]) == (status, out, err)


# ``hqcdfs noise`` cases whose stdout is pinned byte for byte: exact and
# detuned recipes under each kick distribution, 3 kicks, 25 samples.
PINNED_RECIPES = {
    "XZ": xz(0.3, 0.7),
    "ZX": zx(1.4),
    "CNOT": cnot(1.3, (2, 1)),
    "XZ-detuned": detune(xz(0.3, 0.7), 1.05),
    "CNOT-detuned": detune(cnot(1.3, (2, 1)), 0.97),
}
PINNED_DISTRIBUTIONS = {
    "uniform": ({"type": "uniform", "params": {}}, 5),
    "gaussian": ({"type": "gaussian", "params": {"mean": 0.3, "stddev": 1.7}}, 6),
    "fixed": ({"type": "fixed", "params": {"theta": 2.2}}, 7),
}
# SHA-256 of stdout as the full-register propagation printed it, with one
# round_sig call per float and one csv.writer row per sample. The envelope
# holds the tool version, so a version bump changes the JSON hashes.
PINNED_NOISE_SHA256 = {
    ("XZ", "uniform", "json"): "e2ac9935747dfb547c8e32450abcd9a95ce5a64880b4b4177e2064dacf5263f9",
    ("XZ", "uniform", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("XZ", "gaussian", "json"): "babcd147ba2896dd056fefef5b054de244415e4957db30ce7c06161297311731",
    ("XZ", "gaussian", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("XZ", "fixed", "json"): "aae684e1ed3c0ecb2a53d12f560d830e5f8c5e5fd5a9c0e032b98a8c28ef4c5b",
    ("XZ", "fixed", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("ZX", "uniform", "json"): "fb4743ac86794c1e28786cb4e23348987b1605ec38819cef206383a0c59b66c7",
    ("ZX", "uniform", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("ZX", "gaussian", "json"): "b9404ec4a7452ad61672460caca847d7e1af538ddee5c7e1a8cc5fe2f04143d5",
    ("ZX", "gaussian", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("ZX", "fixed", "json"): "2104ca7e15b3d1ea99c213784b6373c6db448a47a057aef89fc2a2bf1bea2825",
    ("ZX", "fixed", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("CNOT", "uniform", "json"): "8fe4a2c704ba882b544adf4bdb7a09ad3bb315127141c21202524044fef6043a",
    ("CNOT", "uniform", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("CNOT", "gaussian", "json"): "1da6e0eb02277f8552e1186950626f1a14dd30439ce438abe6a56bf16f8a97e1",
    ("CNOT", "gaussian", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("CNOT", "fixed", "json"): "a224762c799f92a4cc555993562eb4b86072f2885d149595b182c14cf88c8a5f",
    ("CNOT", "fixed", "csv"): "98f0f6c9b10b53ccb0888b5e5d7e25d07de0050deac499cb9bf43f6038854325",
    ("XZ-detuned", "uniform", "json"): "57401fd5c61597daca4a258316cb692a2c22ea97c5be5e78d7704b9e96977a0d",
    ("XZ-detuned", "uniform", "csv"): "5b353f1f847c5a639f0acb0266ebd41006c277e19e9e772e3a6c1f1866a4179b",
    ("CNOT-detuned", "uniform", "json"): "95c90d5b05421239cf78123d4f35fd6ad8a5c93226bc51459bb40addfca9e4ab",
    ("CNOT-detuned", "uniform", "csv"): "2403bac8788e0cb46fa637d4abac74f8b5419119b8cd6ca82e70c42b261dd418",
}


class TestPinnedNoiseReports:
    @pytest.mark.parametrize(
        "gate, dist, fmt", PINNED_NOISE_SHA256, ids=["-".join(k) for k in PINNED_NOISE_SHA256]
    )
    def test_stdout_bytes(self, gate, dist, fmt, monkeypatch):
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        distribution, seed = PINNED_DISTRIBUTIONS[dist]
        ensemble = {"kick_count": 3, "distribution": distribution, "samples": 25, "seed": seed}
        recipe = PINNED_RECIPES[gate].to_json_dict()
        argv = ["noise", "--recipe", json.dumps(recipe), "--ensemble", json.dumps(ensemble)]
        status, out, _ = run_captured(argv + ["--format", fmt])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_NOISE_SHA256[gate, dist, fmt]

    @pytest.mark.parametrize(
        "gate, dist, fmt", PINNED_NOISE_SHA256, ids=["-".join(k) for k in PINNED_NOISE_SHA256]
    )
    def test_report_matches_the_oracles(self, gate, dist, fmt, monkeypatch):
        # The same document, or its CSV rows, rebuilt from the test oracles.
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        distribution, seed = PINNED_DISTRIBUTIONS[dist]
        ensemble = {"kick_count": 3, "distribution": distribution, "samples": 25, "seed": seed}
        recipe = PINNED_RECIPES[gate]
        argv = ["noise", "--recipe", json.dumps(recipe.to_json_dict())]
        status, out, _ = run_captured(argv + ["--ensemble", json.dumps(ensemble), "--format", fmt])
        assert status == 0
        expected = report_from_oracles("noise", recipe, ensemble=ensemble)
        if fmt == "json":
            printed = json.loads(out)
            assert_documents_agree(printed, expected)
        else:
            oracle = [[float(i), f] for i, f in enumerate(expected["report"]["per_sample"])]
            rows = csv_rows(out)
            assert_documents_agree(rows, [["sample", "fidelity"]] + oracle)
            fidelities = [fidelity for _, fidelity in rows[1:]]
            printed = {"report": {"min_fidelity": min(fidelities), "per_sample": fidelities}}
        assert_checks_agree("noise", printed, expected)


# ``hqcdfs gate`` and ``hqcdfs holonomy`` cases whose stdout is pinned byte for
# byte at the default 4096 chain steps: the CNOT on both block orders, and
# one detuned recipe per command.
PINNED_CERTIFY_RECIPES = {
    "XZ": PINNED_RECIPES["XZ"],
    "ZX": PINNED_RECIPES["ZX"],
    "CNOT-12": cnot(1.3, (1, 2)),
    "CNOT-21": PINNED_RECIPES["CNOT"],
    "XZ-detuned": PINNED_RECIPES["XZ-detuned"],
    "CNOT-detuned": PINNED_RECIPES["CNOT-detuned"],
}
# SHA-256 of stdout as the pure-Python indent-2 JSON encoder printed it, with
# one round_sig call per float.
PINNED_CERTIFY_SHA256 = {
    ("gate", "XZ"): "d0c7961fba85cbbec68fbddb89634c40224cae119259d7f1cb1e3258ea4e0f5a",
    ("gate", "ZX"): "d8a2d29345590b8dae5e96501d5c0ab44eae0103b2a4886e41c719938e238cb3",
    ("gate", "CNOT-12"): "1b3efc694807dd065d96f498850c33bdbbcc8b15431cc40fa92b140d76d2e4d2",
    ("gate", "CNOT-21"): "4b3ca417b866853ca5a082706dc89162e16174935900b3d8b4c8f8d4b140c51c",
    ("gate", "XZ-detuned"): "bb20ce87117b7fa41291ba8573b9c7b70fef53d1f21ae259f7e7857812552e78",
    ("holonomy", "XZ"): "c130592b78b9e3b9eb67473d7695caf1fbdad30736e2ae504fc2e4defc2bd05d",
    ("holonomy", "ZX"): "31a2c2ba5ef0ea37028db717b314e7e33722c74baafade9d6b6b5bc07d62d809",
    ("holonomy", "CNOT-12"): "a27dceff142108df9d762c022932202bd9c6d50ef46f5381c5810c84f54a120d",
    ("holonomy", "CNOT-21"): "69bfd37469c00f2a69734855f25137ed51bccd26995191f7cc965d9cd827b182",
    ("holonomy", "CNOT-detuned"): "d8407f3bb931cdc183a30cc7120279ea40a07b84917369b5d0e7e60f45de5aa3",
}
# Recipes on the 512-dim register of three blocks, checked against the
# oracles only: a ``gate`` report there prints 13 MB.
THREE_BLOCK_RECIPES = {
    "XZ-3": xz(0.3, 0.7, block=3),
    "CNOT-13": cnot(1.3, (1, 3)),
    "XZ-3-detuned": detune(xz(0.3, 0.7, block=3), 1.05),
}
THREE_BLOCK_CASES = [
    ("gate", "XZ-3"),
    ("holonomy", "XZ-3"),
    ("gate", "CNOT-13"),
    ("holonomy", "CNOT-13"),
    ("gate", "XZ-3-detuned"),
]


class TestPinnedCertifyReports:
    @pytest.mark.parametrize(
        "command, gate", PINNED_CERTIFY_SHA256, ids=["-".join(k) for k in PINNED_CERTIFY_SHA256]
    )
    def test_stdout_bytes(self, command, gate, monkeypatch):
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        recipe = json.dumps(PINNED_CERTIFY_RECIPES[gate].to_json_dict())
        status, out, _ = run_captured([command, "--recipe", recipe])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CERTIFY_SHA256[command, gate]

    @pytest.mark.parametrize("gate", [g for c, g in PINNED_CERTIFY_SHA256 if c == "holonomy"])
    def test_holonomy_report_matches_the_oracles(self, gate, monkeypatch):
        # The same document rebuilt from the test oracles and no Spectrum.
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        recipe = PINNED_CERTIFY_RECIPES[gate]
        status, out, _ = run_captured(["holonomy", "--recipe", json.dumps(recipe.to_json_dict())])
        assert status == 0
        printed = json.loads(out)
        expected = report_from_oracles("holonomy", recipe, DEFAULT_CHAIN_STEPS)
        assert_documents_agree(printed, expected)
        assert_checks_agree("holonomy", printed, expected)

    @pytest.mark.parametrize("gate", [g for c, g in PINNED_CERTIFY_SHA256 if c == "gate"])
    def test_gate_report_matches_the_oracles(self, gate, monkeypatch):
        # The same document rebuilt from the test oracles and no Spectrum.
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        recipe = PINNED_CERTIFY_RECIPES[gate]
        status, out, _ = run_captured(["gate", "--recipe", json.dumps(recipe.to_json_dict())])
        assert status == 0
        printed = json.loads(out)
        expected = report_from_oracles("gate", recipe, DEFAULT_CHAIN_STEPS)
        assert_documents_agree(printed, expected)
        assert_checks_agree("gate", printed, expected)

    @pytest.mark.parametrize(
        "command, gate", THREE_BLOCK_CASES, ids=["-".join(case) for case in THREE_BLOCK_CASES]
    )
    def test_three_block_report_matches_the_oracles(self, command, gate, monkeypatch):
        # The 512-dim register, the largest a recipe may ask for, at the
        # fewest chain steps, which keeps the oracle's chain to six Pade
        # propagators. At the pulse area U(tau) is Hermitian, so only the
        # detuned gate report reads the direction of time.
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        recipe = THREE_BLOCK_RECIPES[gate]
        argv = [command, "--recipe", json.dumps(recipe.to_json_dict()), "--steps", "8"]
        status, out, _ = run_captured(argv)
        assert status == 0
        printed = json.loads(out)
        expected = report_from_oracles(command, recipe, 8)
        assert_documents_agree(printed, expected)
        assert_checks_agree(command, printed, expected)


def as_namespace(doc):
    """A report document whose fields read as attributes, as a check's
    getter in ``COMMANDS`` reads a report."""
    if isinstance(doc, dict):
        return types.SimpleNamespace(**{key: as_namespace(value) for key, value in doc.items()})
    return doc


def assert_checks_agree(command, printed, expected):
    """Every check of ``command`` that the oracle document can evaluate
    falls on the same side of its tolerance in both documents, each read by
    the getter of the command's ``COMMANDS`` entry."""
    for name, get in COMMANDS[command][3]:
        value, oracle = (get(as_namespace(doc["report"])) for doc in (printed, expected))
        if oracle is not None:
            assert (value <= TOLERANCES[name]) == (oracle <= TOLERANCES[name]), name


def csv_rows(text):
    """The rows of a CSV report: the header's names, then each row's
    numbers as floats."""
    header, *rows = csv.reader(io.StringIO(text))
    return [header] + [[float(cell) for cell in row] for row in rows]


def assert_documents_agree(printed, expected, path="$", atol=1e-11, relative=False):
    """The same keys in the same order, list lengths, strings, ints, bools
    and None, and floats within ``atol``, or within max(1, |x|) * ``atol``
    of the expected x when ``relative``."""
    if isinstance(expected, dict):
        assert isinstance(printed, dict) and list(printed) == list(expected), path
        for key in expected:
            assert_documents_agree(printed[key], expected[key], f"{path}.{key}", atol, relative)
    elif isinstance(expected, list):
        assert isinstance(printed, list) and len(printed) == len(expected), path
        for i, (a, b) in enumerate(zip(printed, expected)):
            assert_documents_agree(a, b, f"{path}[{i}]", atol, relative)
    elif isinstance(expected, float):
        bound = atol * max(1.0, abs(expected)) if relative else atol
        assert isinstance(printed, float) and abs(printed - expected) <= bound, (path, printed, expected)
    else:
        assert type(printed) is type(expected) and printed == expected, (path, printed, expected)


# ``hqcdfs nogo`` stdout pinned byte for byte across chunk boundaries
# (64 trials per chunk), as the per-value ``random.Random`` draws print it.
PINNED_NOGO_SHA256 = {
    (0, 1): "da911d76adc2ffc2dcd183ada59b30de2ce2995365eba77bfdfc0884ce1adc68",
    (0, 63): "32254b59a665b08a46634db834f5034c03885f3fb5821bc5cf1c0c5134624612",
    (0, 64): "cdc92c5ad6bbc5225169e1d86419854f79b95c2d52c58f9d85f018933ecfdee8",
    (0, 65): "e09f5e3bcbb5d45f9820497aa5d3907b2b59db1fa7d93da8a401d0c561de21e0",
    (0, 500): "820a0ffaf16fbb1d3103f9324f6b7a5e9264c19334dc6cf576bf005e1a2c9e16",
    (0, 1000): "19037d015216a890d88bde5e750825437aceb97ffdd819ac47dbb669002b870e",
    (3, 1): "a3d6554aec7afed7443865df79aa25dec894128f82a146c2d04341ac8652c79a",
    (3, 63): "03997178b7f1cd017704de4ea61ee1eec18ea36e7c1f204f660211956e9b2d53",
    (3, 64): "8eb588d1231477b99599c6af2da453a2e16f623e6b5c300108314c98233438c1",
    (3, 65): "6c39468d1cc2f56a1cefe129d3e500a2f4e7d7518ae20bfc531c6bb8ea7782a1",
    (3, 500): "b6783313cb343b008cc2f8196de685ccda71d32a0fdb1d088c5fc254030e19d0",
    (3, 1000): "0b5c1bc1d97d8a0b8db5fc33a09d767e0f60c845abd64d8fd6506a1fa60ac26b",
    (7, 1): "7f94181d948978cacd64ee34b0369a5a41e6c135b6a728429279cf30fd3b6281",
    (7, 63): "f00fc82214c057abd67032cc244076fed23f7e85bd45a5e2797014c057b38f38",
    (7, 64): "517c60d577ba813fbce7cc412631fe7a49d53db0913d92552df97ff1a7d3973c",
    (7, 65): "8dd788550eeb6ad5e2bff637fd819af00bb12d328c9a7c655b3dd057c4c04ff0",
    (7, 500): "0abb2b1fcba263e47c6aae032e484797f193f0218a0534b1b31bd390b3de057d",
    (7, 1000): "438bf3c614cb146f3ddcf1332651aa7247f0140b8492b23ade43535a7dd200b6",
    (11, 1): "4a1f8e3a061e9d556d00b3686616ef9169419102d2b9c0c10b446e073406f2e3",
    (11, 63): "8f89877fbd0c169259b31fa24dd59bf57adcf427988c20b54a9112dd1ea2162f",
    (11, 64): "ad3c198f62861ab2232868ad8c6c782fe87b7e1e07e73b4a209591f219c45dd6",
    (11, 65): "d732e4e5b5c09221eb3490e9ae3265a336df4439de5538010598b3a49ff856c8",
    (11, 500): "cbe2cedcd24b89ed183f11bccea00962bd13e2ea4c0e4f3c0c056750a7db2a46",
    (11, 1000): "6c6bbb4f478a03a2175d5098c48d977933a4077b1c8d5c8c3ba4878c11104191",
}


class TestPinnedNoGoReports:
    @pytest.mark.parametrize(
        "seed, trials", PINNED_NOGO_SHA256, ids=[f"seed{s}-trials{t}" for s, t in PINNED_NOGO_SHA256]
    )
    def test_stdout_bytes(self, seed, trials, monkeypatch):
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        status, out, _ = run_captured(["nogo", "--trials", str(trials), "--seed", str(seed)])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_NOGO_SHA256[seed, trials]


# Five-point ``hqcdfs sweep`` runs, (param, recipe, from, to) each; stdout
# pinned byte for byte as csv.writer printed it. Flipping the sign of R^y
# maps an XZ phase phi to -phi, which changes the gate by a global phase
# only at multiples of pi/2: the points of the quarter-period grid. The
# off-quarter grid is the one that reads that sign.
PINNED_SWEEPS = {
    "phase": ("phase", PINNED_RECIPES["XZ"], "0", "6.283185307179586"),
    "pulse_area_detuning": ("pulse_area_detuning", PINNED_RECIPES["CNOT"], "-0.05", "0.05"),
    "phase-off-quarter": ("phase", PINNED_RECIPES["XZ"], "0.3", "2.5"),
}
PINNED_SWEEP_SHA256 = {
    "phase": "33f2e0b7b692bd1d7d6eac2fc9e974294aae9fd6e59fe3ceece11ba97f18e6e1",
    "pulse_area_detuning": "140fa9bd9483c00f289c1ba8422079f99e27c6d1667b9c898565a56732a643c5",
    "phase-off-quarter": "bc943d80957a1af001f1cdda686f5c2271c15d692fdd6edd5367ffda5ebf1947",
}


class TestPinnedSweepReports:
    @pytest.mark.parametrize("name", PINNED_SWEEP_SHA256)
    def test_stdout_bytes(self, name, monkeypatch):
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        param, recipe, start, stop = PINNED_SWEEPS[name]
        argv = ["sweep", "--param", param, "--from", start, "--to", stop, "--points", "5"]
        status, out, _ = run_captured(argv + ["--recipe", json.dumps(recipe.to_json_dict())])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEP_SHA256[name]

    @pytest.mark.parametrize("name", PINNED_SWEEP_SHA256)
    def test_rows_match_the_oracles(self, name):
        # Each point rebuilt from the test oracles, each value on the same
        # side of its tolerance as the oracle's.
        param, recipe, start, stop = PINNED_SWEEPS[name]
        argv = ["sweep", "--param", param, "--from", start, "--to", stop, "--points", "5"]
        status, out, _ = run_captured(argv + ["--recipe", json.dumps(recipe.to_json_dict())])
        assert status == 0
        rows = csv_rows(out)
        expected = report_from_oracles("sweep", recipe, grid=(param, float(start), float(stop), 5))
        assert_documents_agree(rows, expected)
        names = expected[0][1:]
        for row, oracle in zip(rows[1:], expected[1:]):
            for name, value, rebuilt in zip(names, row[1:], oracle[1:]):
                assert (value <= TOLERANCES[name]) == (rebuilt <= TOLERANCES[name]), (row[0], name)


@st.composite
def drawn_sweeps(draw):
    """An XZ or ZX recipe and a sweep of 2 to 4 points over its phase,
    with ends within 1 of it, or over a detuning in [-0.5, 0.5]."""
    factory = draw(st.sampled_from([xz, zx]))
    recipe = factory(draw(st.floats(-7.0, 7.0)), draw(st.floats(0.2, 5.0)))
    param = draw(st.sampled_from(["phase", "pulse_area_detuning"]))
    center, reach = (recipe.phase, 1.0) if param == "phase" else (0.0, 0.5)
    start, stop = (center + draw(st.floats(-reach, reach)) for _ in range(2))
    return recipe, (param, start, stop, draw(st.integers(2, 4)))


class TestDrawnSweepReports:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(drawn_sweeps())
    def test_rows_match_the_oracles(self, case):
        # Each float within max(1, |x|) * 1e-11: a row prints 12 significant
        # digits, so the rounding of a value above 1 grows with it.
        recipe, grid = case
        param, start, stop, points = grid
        argv = ["sweep", "--param", param, "--from", repr(start), "--to", repr(stop)]
        argv += ["--points", str(points), "--recipe", json.dumps(recipe.to_json_dict())]
        status, out, err = run_captured(argv)
        assert (status, err) == (0, "")
        rows = csv_rows(out)
        expected = report_from_oracles("sweep", recipe, grid=grid)
        assert rows[0] == expected[0] and len(rows) == len(expected)
        for row, oracle in zip(rows[1:], expected[1:]):
            for name, value, rebuilt in zip(expected[0], row, oracle):
                assert abs(value - rebuilt) <= max(1.0, abs(rebuilt)) * 1e-11, (row[0], name)


@st.composite
def drawn_recipes(draw):
    """An XZ or ZX recipe on block 1, in half of the draws detuned by a
    pulse-area factor in [0.5, 1.5], and a chain step count."""
    factory = draw(st.sampled_from([xz, zx]))
    recipe = factory(draw(st.floats(-7.0, 7.0)), draw(st.floats(0.2, 5.0)))
    if draw(st.booleans()):
        recipe = detune(recipe, draw(st.floats(0.5, 1.5)))
    return recipe, draw(st.sampled_from([8, 64, 512, DEFAULT_CHAIN_STEPS]))


@st.composite
def drawn_cnot_recipes(draw):
    """A CNOT recipe on blocks (1, 2) or (2, 1), in half of the draws
    detuned as ``drawn_recipes`` detunes, and a chain step count short
    enough for the oracle's projector chain on the 64-dim register."""
    blocks = (2, 1) if draw(st.booleans()) else (1, 2)
    recipe = cnot(draw(st.floats(0.2, 5.0)), blocks)
    if draw(st.booleans()):
        recipe = detune(recipe, draw(st.floats(0.5, 1.5)))
    return recipe, draw(st.sampled_from([8, 64, 512]))


class TestDrawnCertifyReports:
    @pytest.mark.parametrize("command", ["gate", "holonomy"])
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(case=drawn_recipes())
    def test_report_matches_the_oracles(self, command, case):
        self.check_report(command, *case)

    @pytest.mark.parametrize("command", ["gate", "holonomy"])
    @settings(max_examples=3, derandomize=True, deadline=None)
    @given(case=drawn_cnot_recipes())
    def test_cnot_report_matches_the_oracles(self, command, case):
        self.check_report(command, *case)

    @staticmethod
    def check_report(command, recipe, steps):
        # Each float within max(1, |x|) * 1e-11, as in a drawn sweep.
        argv = [command, "--recipe", json.dumps(recipe.to_json_dict()), "--steps", str(steps)]
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
            status, out, err = run_captured(argv)
        expected = report_from_oracles(command, recipe, steps)
        assert (status, err) == (1 if expected["violations"] else 0, "")
        printed = json.loads(out)
        assert_documents_agree(printed, expected, relative=True)
        assert_checks_agree(command, printed, expected)


@st.composite
def drawn_noise_cases(draw):
    """An XZ or ZX recipe on block 1 or a CNOT on blocks (1, 2) or (2, 1),
    in half of the draws detuned by a pulse-area factor in [0.5, 1.5]; an
    ensemble of any kick distribution, with drawn parameters, 1 to 64
    samples and 0 to 8 kicks; and an output format."""
    if draw(st.integers(0, 3)) == 0:
        recipe = cnot(draw(st.floats(0.2, 5.0)), draw(st.sampled_from([(1, 2), (2, 1)])))
    else:
        factory = draw(st.sampled_from([xz, zx]))
        recipe = factory(draw(st.floats(-7.0, 7.0)), draw(st.floats(0.2, 5.0)))
    if draw(st.booleans()):
        recipe = detune(recipe, draw(st.floats(0.5, 1.5)))
    # Each parameter's range, in the order the report echoes them.
    kind, ranges = draw(
        st.sampled_from(
            [
                ("uniform", {}),
                ("gaussian", {"mean": (-10.0, 10.0), "stddev": (0.0, 5.0)}),
                ("fixed", {"theta": (-10.0, 10.0)}),
            ]
        )
    )
    params = {name: draw(st.floats(*bounds)) for name, bounds in ranges.items()}
    ensemble = {
        "kick_count": draw(st.integers(0, 8)),
        "distribution": {"type": kind, "params": params},
        "samples": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 2 ** 32)),
    }
    return recipe, ensemble, draw(st.sampled_from(["json", "csv"]))


class TestDrawnNoiseReports:
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(case=drawn_noise_cases())
    def test_report_matches_the_oracles(self, case):
        # Each float within max(1, |x|) * 1e-11, as in a drawn sweep; a CSV
        # report is its rows, and its violations the stderr line.
        recipe, ensemble, fmt = case
        argv = ["noise", "--recipe", json.dumps(recipe.to_json_dict())]
        argv += ["--ensemble", json.dumps(ensemble), "--format", fmt]
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
            status, out, err = run_captured(argv)
        expected = report_from_oracles("noise", recipe, ensemble=ensemble)
        assert status == (1 if expected["violations"] else 0)
        if fmt == "json":
            assert err == ""
            printed = json.loads(out)
            assert_documents_agree(printed, expected, relative=True)
        else:
            assert err.startswith("violations: ") == bool(status)
            oracle = [[float(i), f] for i, f in enumerate(expected["report"]["per_sample"])]
            rows = csv_rows(out)
            assert_documents_agree(rows, [["sample", "fidelity"]] + oracle, relative=True)
            fidelities = [fidelity for _, fidelity in rows[1:]]
            printed = {"report": {"min_fidelity": min(fidelities), "per_sample": fidelities}}
        assert_checks_agree("noise", printed, expected)


# Wrong values a field of the JSON input may take instead of a valid one:
# missing (see ``mutated``), mistyped, non-finite, negative, or huge. Huge
# counts exceed a cap, so a fuzzed run never allocates much.
BAD_VALUES = [None, "1", [], True, float("nan"), float("inf"), -1, -2.5, 1e300, 10 ** 400]


@st.composite
def mutated(draw, doc, counts=(0, 1, 1, 2)):
    """``doc`` with some of its fields, as many as drawn from ``counts``,
    dropped or given a bad value."""
    out = dict(doc)
    count = draw(st.sampled_from(counts))
    for key in draw(st.permutations(sorted(doc)))[:count]:
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(st.sampled_from(BAD_VALUES))
    return out


@st.composite
def recipes(draw, counts=(0, 1, 1, 2)):
    kind = draw(st.sampled_from(["XZ", "ZX", "CNOT"]))
    strength = draw(st.floats(0.5, 2.0))
    if kind == "CNOT":
        recipe = cnot(strength, draw(st.sampled_from([(1, 2), (2, 1)])))
    else:
        factory = xz if kind == "XZ" else zx
        recipe = factory(draw(st.floats(-math.pi, math.pi)), strength, draw(st.sampled_from([1, 2])))
    if draw(st.booleans()):
        recipe = detune(recipe, draw(st.floats(0.5, 1.5)))
    return draw(mutated(recipe.to_json_dict(), counts))


@st.composite
def ensembles(draw):
    distribution = draw(
        st.sampled_from(
            [
                {"type": "uniform", "params": {}},
                {"type": "gaussian", "params": {"mean": 0.4, "stddev": 1.3}},
                {"type": "fixed", "params": {"theta": 2.1}},
            ]
        )
    )
    distribution = draw(mutated({**distribution, "params": draw(mutated(distribution["params"]))}))
    doc = {
        "kick_count": draw(st.integers(0, 8)),
        "distribution": distribution,
        "samples": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 2 ** 32)),
    }
    return draw(mutated(doc))


class TestExitStatusFuzz:
    """Whatever the recipe and ensemble JSON hold, the exit status keeps its
    contract, stdout is strict JSON or empty, and no failure is reported as
    an internal error: bad input exits 2, a failed numerical contract 3."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        case=st.one_of(
            st.tuples(st.just("gate"), recipes(), st.none()),
            st.tuples(st.just("noise"), recipes(counts=(0, 0, 0, 1)), ensembles()),
        )
    )
    def test_exit_status_and_stdout(self, case):
        command, recipe, ensemble = case
        argv = [command, "--recipe", json.dumps(recipe)]
        argv += ["--steps", "64"] if command == "gate" else ["--ensemble", json.dumps(ensemble)]
        with np.errstate(all="ignore"):
            status, out, err = run_captured(argv)
        assert status in (0, 1, 2, 3)
        if status in (0, 1):
            assert isinstance(strict_json(out), dict)
        else:
            assert out == ""
            assert err.count("\n") == 1
        assert "internal error" not in err
        assert "Traceback" not in err


class TestConsoleScript:
    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "hqcdfs.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert __version__ in result.stdout

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], b"usage: hqcdfs "), (["gate", "--help"], b"usage: hqcdfs gate ")],
        ids=["hqcdfs", "gate"],
    )
    def test_help_flag(self, argv, usage):
        status, out, err = run_entry(argv)
        assert (status, err) == (0, "")
        assert out.startswith(usage)


# The full --help text of the program and of each command: a help row
# dropped, reordered or reworded fails.
HELP_TEXTS = {
    "hqcdfs": (
        "usage: hqcdfs [-h] [--version] {gate,holonomy,noise,sweep,nogo} ...\n"
        "\n"
        "Simulate and certify holonomic gates on decoherence-free encoded qubits.\n"
        "\n"
        "  -h/--help  show this help message and exit\n"
        "  --version  show program's version number and exit\n"
        "  gate       realize a gate recipe and report the comparison\n"
        "  holonomy   certify the holonomic character of a recipe\n"
        "  noise      gate fidelity under collective phase kicks\n"
        "  sweep      sweep a recipe parameter, one CSV row per point\n"
        "  nogo       randomized two-qubit no-go certificate\n"
    ),
    "gate": (
        "usage: hqcdfs gate [-h] --recipe RECIPE [--steps STEPS] [--out OUT]\n"
        "\n"
        "realize a gate recipe and report the comparison\n"
        "\n"
        "  -h/--help        show this help message and exit\n"
        "  --recipe RECIPE  recipe file path or inline JSON\n"
        "  --steps STEPS\n"
        "  --out OUT\n"
    ),
    "holonomy": (
        "usage: hqcdfs holonomy [-h] --recipe RECIPE [--basis BASIS] [--steps STEPS] [--out OUT]\n"
        "\n"
        "certify the holonomic character of a recipe\n"
        "\n"
        "  -h/--help        show this help message and exit\n"
        "  --recipe RECIPE\n"
        "  --basis BASIS    basis-set JSON (path or inline) instead of the logical basis\n"
        "  --steps STEPS\n"
        "  --out OUT\n"
    ),
    "noise": (
        "usage: hqcdfs noise [-h] --recipe RECIPE --ensemble ENSEMBLE [--format {json,csv}] [--out OUT]\n"
        "\n"
        "gate fidelity under collective phase kicks\n"
        "\n"
        "  -h/--help            show this help message and exit\n"
        "  --recipe RECIPE\n"
        "  --ensemble ENSEMBLE  ensemble file path or inline JSON\n"
        "  --format {json,csv}\n"
        "  --out OUT\n"
    ),
    "sweep": (
        "usage: hqcdfs sweep [-h] --param {phase,pulse_area_detuning} --from FROM --to TO"
        " --points POINTS --recipe RECIPE [--out OUT]\n"
        "\n"
        "sweep a recipe parameter, one CSV row per point\n"
        "\n"
        "  -h/--help                            show this help message and exit\n"
        "  --param {phase,pulse_area_detuning}\n"
        "  --from FROM\n"
        "  --to TO\n"
        "  --points POINTS\n"
        "  --recipe RECIPE\n"
        "  --out OUT\n"
    ),
    "nogo": (
        "usage: hqcdfs nogo [-h] [--trials TRIALS] [--seed SEED] [--out OUT]\n"
        "\n"
        "randomized two-qubit no-go certificate\n"
        "\n"
        "  -h/--help        show this help message and exit\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"
        "  --out OUT\n"
    ),
}


class TestHelpAndVersion:
    """``--help`` and ``--version`` return 0 from ``main``, their text on
    stdout, as every other run returns its status."""

    def test_version_returns_0(self):
        assert run_captured(["--version"]) == (0, f"hqcdfs {__version__}\n", "")

    def test_command_help_returns_0(self):
        status, out, err = run_captured(["gate", "--help"])
        assert (status, err) == (0, "")
        assert out.startswith("usage: hqcdfs gate ") and "--recipe" in out

    @pytest.mark.parametrize("name", HELP_TEXTS)
    def test_help_text_is_pinned(self, name):
        argv = ["--help"] if name == "hqcdfs" else [name, "--help"]
        assert run_captured(argv) == (0, HELP_TEXTS[name], "")


ANCILLA_PAIR_BASIS = basis_to_json(dfs_product_basis([1], "a0"))

# One small call per command, and one per failing exit status: (argv,
# HQC_DFS_TOLERANCE_SCALE or None, exit status).
ENTRY_CASES = {
    "gate": (gate_argv(), None, 0),
    "holonomy": (basis_argv(), None, 0),
    "noise-csv": (noise_argv() + ["--format", "csv"], None, 0),
    "sweep": (sweep_argv("-0.1", "0.1", 3), None, 0),
    "nogo": (["nogo", "--trials", "20", "--seed", "3"], None, 0),
    "exit-1": (gate_argv(), "1e-30", 1),
    # Roundoff moves the XZ fidelity off 1, by 4.4e-16 on x86-64, past 1e-40.
    "exit-1-csv": (noise_argv() + ["--format", "csv"], "1e-30", 1),
    "exit-2": (BASIS_64_ARGV, None, 2),
    # Certification refuses the ancilla/logical pair, which the recipe couples.
    "exit-3": (basis_argv(**ANCILLA_PAIR_BASIS), None, 3),
}


def run_python(args, stdout=subprocess.PIPE, preexec_fn=None):
    """The finished ``python *args`` process, with the package on its path
    and every warning an error; stderr is captured, and stdout unless it is
    given. ``preexec_fn`` runs in the child before Python starts."""
    src = str(Path(hqcdfs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, preexec_fn=preexec_fn
    )


def run_entry(argv):
    """Exit status, stdout bytes and stderr text of ``python -m hqcdfs.cli``."""
    result = run_python(["-m", "hqcdfs.cli", *argv])
    return result.returncode, result.stdout, result.stderr.decode()


class TestEntryPoint:
    """The console entry point (``cli.entry``, which ends the process by
    ``os._exit`` with the status of ``main``, whose output is already
    flushed) prints, writes and exits as ``main``."""

    @pytest.mark.parametrize("argv, scale, status", ENTRY_CASES.values(), ids=ENTRY_CASES.keys())
    def test_matches_in_process_main(self, argv, scale, status, monkeypatch):
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        if scale is not None:
            monkeypatch.setenv("HQC_DFS_TOLERANCE_SCALE", scale)
        expected_status, out, err = run_captured(argv)
        assert expected_status == status
        assert run_entry(argv) == (status, out.encode(), err)
        assert "Traceback" not in err
        # Exit 1 lists its violations in a JSON report, and beside a CSV
        # report on one stderr line; 2 and 3 print one line.
        csv_violations = status == 1 and "csv" in argv
        assert err.count("\n") == (status >= 2 or csv_violations)
        assert err.startswith("violations: ") == csv_violations
        assert (out == "") == (status >= 2)

    @pytest.mark.parametrize("name", ["gate", "noise-csv", "sweep", "nogo", "exit-1"])
    def test_out_writes_the_whole_report(self, name, tmp_path, monkeypatch):
        argv, scale, status = ENTRY_CASES[name]
        monkeypatch.delenv("HQC_DFS_TOLERANCE_SCALE", raising=False)
        if scale is not None:
            monkeypatch.setenv("HQC_DFS_TOLERANCE_SCALE", scale)
        _, out, _ = run_captured(argv)
        path = tmp_path / "report"
        assert run_entry(argv + ["--out", str(path)]) == (status, b"", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_out_write_failure_exits_3(self):
        # The file opens but its write fails: an internal failure, not bad input.
        status, out, err = run_entry(["nogo", "--trials", "5", "--out", "/dev/full"])
        assert (status, out) == (3, b"")
        assert err == "internal error: OSError: [Errno 28] No space left on device\n"

    def test_out_that_cannot_be_opened_exits_2(self, tmp_path):
        path = str(tmp_path / "missing" / "x")
        status, out, err = run_entry(["nogo", "--trials", "5", "--out", path])
        assert (status, out) == (2, b"")
        reason = f"[Errno 2] No such file or directory: {path!r}"
        assert err == f"error: cannot write report to {path!r}: {reason}\n"

    def test_closed_stdout_exits_3(self):
        # As ``>&-`` does: descriptor 1 is closed before Python starts, which
        # then sets sys.stdout to None; in process, redirect_stdout does. The
        # help and version texts leave as a report does, and fail as it does.
        line = "internal error: OSError: stdout is closed\n"
        for argv in (["nogo", "--trials", "5"], ["--help"], ["gate", "--help"], ["--version"]):
            result = run_python(["-m", "hqcdfs.cli", *argv], stdout=None, preexec_fn=lambda: os.close(1))
            assert (result.returncode, result.stderr.decode()) == (3, line), argv
            err = io.StringIO()
            with contextlib.redirect_stdout(None), contextlib.redirect_stderr(err):
                assert main(argv) == 3
            assert err.getvalue() == line

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["gate", "--recipe", "{bad"], 2),
            pytest.param(
                ["nogo", "--trials", "3", "--out", "/dev/full"],
                3,
                marks=pytest.mark.skipif(
                    not os.path.exists("/dev/full"), reason="needs the /dev/full device"
                ),
            ),
        ],
        ids=["bad-input", "out-write-failure"],
    )
    def test_closed_stderr_keeps_the_status(self, argv, status):
        # As ``2>&-`` does: Python sets sys.stderr to None, so the failure
        # line is lost, but exit 1 still means tolerance violations only.
        result = run_python(["-m", "hqcdfs.cli", *argv], preexec_fn=lambda: os.close(2))
        assert (result.returncode, result.stdout) == (status, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_stderr_keeps_the_status(self):
        def full_stderr():
            os.dup2(os.open("/dev/full", os.O_WRONLY), 2)

        argv = ["-m", "hqcdfs.cli", "gate", "--recipe", "{bad"]
        result = run_python(argv, preexec_fn=full_stderr)
        assert (result.returncode, result.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [["nogo", "--trials", "5"], ["gate", "--recipe", json.dumps(cnot().to_json_dict())]],
        ids=["nogo", "gate-cnot"],
    )
    def test_full_stdout_exits_3(self, argv, monkeypatch):
        # Buffered stdout: the small nogo report fails at the final flush,
        # the 0.2 MB CNOT report while main writes it.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        with open("/dev/full", "w") as full:
            result = run_python(["-m", "hqcdfs.cli", *argv], stdout=full)
        assert result.returncode == 3
        assert result.stderr.decode() == "internal error: OSError: [Errno 28] No space left on device\n"

    def test_main_leaves_the_collector_unfrozen(self):
        before = gc.get_freeze_count()
        for argv, _, _ in ENTRY_CASES.values():
            run_captured(argv)
        assert gc.get_freeze_count() == before


def imported_modules(args):
    """Exit status and the names of every module ``python -X importtime *args`` imports."""
    result = run_python(["-X", "importtime", *args])
    lines = result.stderr.decode().splitlines()
    return result.returncode, {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}


class TestImportGuard:
    """No command imports ``numpy.random`` (and OpenSSL under it) or
    ``numpy.ma``: ``nogo`` draws its trials from the standard library's
    ``random.Random``, and ``noise`` draws no angles at all."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["nogo", "--trials", "20", "--seed", "3"],
            noise_argv({"type": "fixed", "params": {"theta": 0.4}}),
            noise_argv(),
            noise_argv(gaussian()),
            ENTRY_CASES["gate"][0],
            ENTRY_CASES["holonomy"][0],
            ENTRY_CASES["sweep"][0],
        ],
        ids=["nogo", "noise-fixed", "noise-uniform", "noise-gaussian", "gate", "holonomy", "sweep"],
    )
    def test_numpy_random_only_where_drawn(self, argv):
        status, modules = imported_modules(["-m", "hqcdfs.cli", *argv])
        assert status == 0
        assert "numpy" in modules
        assert "numpy.random" not in modules
        assert "numpy.ma" not in modules
        assert not {"argparse", "gettext", "locale"} & modules

    def test_cli_import_skips_the_reader(self):
        # ``numpy.random`` stays out, and every package module is loaded:
        # ``perfbench/run.py --trace 1`` reads each from sys.modules.
        status, modules = imported_modules(["-c", "import hqcdfs.cli"])
        assert status == 0
        package = {f"hqcdfs.{path.stem}" for path in Path(hqcdfs.__file__).parent.glob("[!_]*.py")}
        assert "hqcdfs.cli" in package
        assert package <= modules
        assert "numpy.random" not in modules
        assert not {"argparse", "gettext", "locale"} & modules
