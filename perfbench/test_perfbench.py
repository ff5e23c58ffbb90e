"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import spans
import verify
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def add_span(tracer, name, start, end, parent=-1):
    tracer.name_id.append(tracer.intern(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer) - 1


class TestSelfTime:
    def test_nested_tree(self):
        t = spans.Tracer()
        root = add_span(t, "cli.main", 0.0, 10.0)
        a = add_span(t, "gates.realize", 1.0, 4.0, root)
        add_span(t, "linalg.eigh", 2.0, 3.0, a)
        add_span(t, "holonomy.certify", 5.0, 9.0, root)
        assert spans.self_times(t) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        t = spans.Tracer()
        root = add_span(t, "cli.main", 0.0, 10.0)
        add_span(t, "gates.realize", 5.0, 9.0, root)
        add_span(t, "noise.noisy_realize", 8.0, 11.0, root)
        assert spans.self_times(t)[0] == pytest.approx(5.0)

    def test_layer_metrics_sum_self_time_per_layer(self):
        t = spans.Tracer()
        root = add_span(t, "cli.main", 0.0, 10.0)
        h = add_span(t, "model.recipe_hamiltonian", 0.5, 1.0, root)
        add_span(t, "model.assemble_two_body", 0.6, 0.8, h)
        e = add_span(t, "operators.evolve", 1.0, 3.0, root)
        add_span(t, "linalg.eigh", 1.5, 2.5, e)
        add_span(t, "linalg.eigh", 4.0, 4.5, root)
        m = spans.layer_metrics(t, invocations=2, noise_samples=0, report_bytes=100)
        assert m["cli.self_s"][0] == pytest.approx((10.0 - 0.5 - 2.0 - 0.5) / 2)
        assert m["model.self_s"][0] == pytest.approx(0.5 / 2)
        assert m["operators.self_s"][0] == pytest.approx(1.0 / 2)
        assert m["linalg.eigh_calls"][0] == 1.0
        # The nested builder is part of one Hamiltonian, not a second one.
        assert m["model.hamiltonians"][0] == 0.5
        assert m["linalg.eigh_per_hamiltonian"][0] == 2.0
        assert m["cli.report_bytes"][0] == 50.0


class TestInstrument:
    @pytest.fixture
    def hqcdfs(self):
        sys.path.insert(0, str(SRC))
        try:
            import hqcdfs.cli  # noqa: F401

            yield {layer: sys.modules[f"hqcdfs.{layer}"] for layer in spans.LAYERS}
        finally:
            sys.path.remove(str(SRC))

    def test_traced_nogo_counts_and_restore(self, hqcdfs):
        import numpy

        before = {layer: dict(vars(mod)) for layer, mod in hqcdfs.items()}
        eigh = numpy.linalg.eigh
        tracer = spans.Tracer()
        uninstall = spans.instrument(tracer, hqcdfs, numpy.linalg)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = hqcdfs["cli"].main(["nogo", "--trials", "5", "--seed", "3"])
        finally:
            uninstall()
        assert status == 0
        assert numpy.linalg.eigh is eigh
        assert {layer: dict(vars(mod)) for layer, mod in hqcdfs.items()} == before
        assert tracer.span_name(0) == "cli.main" and tracer.parent[0] == -1
        m = spans.layer_metrics(tracer, invocations=1, noise_samples=0, report_bytes=0)
        # Four evolutions per trial; the witness Hamiltonian is never diagonalized.
        assert m["linalg.eigh_calls"][0] == 20
        assert m["model.hamiltonians"][0] == 6
        assert m["operators.evolve_calls"][0] == 20
        assert m["holonomy.self_s"][0] == 0.0 and m["noise.self_s"][0] == 0.0


class TestWorkloads:
    @staticmethod
    def first_rounds(workload, seed, count=3):
        gen = workloads.rounds(workload, seed)
        return [next(gen) for _ in range(count)]

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_argv(self, workload):
        a = self.first_rounds(workload, 11)
        b = self.first_rounds(workload, 11)
        assert [[i.args for i in r] for r in a] == [[i.args for i in r] for r in b]

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_other_seed_same_kind_counts(self, workload):
        for seed in (1, 2, 3):
            for batch in self.first_rounds(workload, seed):
                assert collections.Counter(i.kind for i in batch) == collections.Counter(
                    workloads.ROUNDS[workload]
                )
        assert [i.args for i in self.first_rounds(workload, 1)[0]] != [
            i.args for i in self.first_rounds(workload, 2)[0]
        ]

    def test_sweep_grid_excludes_zero(self):
        for batch in self.first_rounds("robustness", 5, count=10):
            for inv in batch:
                if inv.command == "sweep":
                    assert len(inv.expect["grid"]) % 2 == 0
                    assert all(v != 0.0 for v in inv.expect["grid"])


def run_cli(args):
    sys.path.insert(0, str(SRC))
    try:
        import hqcdfs.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = hqcdfs.cli.main(list(args))
        return status, out.getvalue()
    finally:
        sys.path.remove(str(SRC))


def find(workload, command):
    for batch in workloads.rounds(workload, 0):
        for inv in batch:
            if inv.kind == command:
                return inv


class TestVerifier:
    def test_targets_are_unitary_and_distance_is_phase_free(self):
        for gate in ("XZ", "ZX", "CNOT"):
            u = verify.target(gate, 0.4)
            shifted = [[z * complex(math.cos(1.1), math.sin(1.1)) for z in row] for row in u]
            assert verify.phase_aligned_distance(shifted, u) < 1e-15

    def test_accepts_gate_and_rejects_tampered_reports(self):
        inv = find("certify", "gate-1q")
        status, text = run_cli(inv.args)
        verify.verify(inv, status, text)

        with pytest.raises(verify.VerificationError):
            verify.verify(inv, 1, text)
        doc = json.loads(text)
        doc["report"]["holonomy"]["transport_defect"] = float("nan")
        with pytest.raises(verify.VerificationError, match="non-finite"):
            verify.verify(inv, status, json.dumps(doc))
        doc = json.loads(text)
        doc["report"]["restricted"][0][1][0] += 1e-8
        with pytest.raises(verify.VerificationError, match="restricted vs target"):
            verify.verify(inv, status, json.dumps(doc))

    def test_rejects_missing_sweep_row_and_nan_row(self):
        inv = find("robustness", "sweep-XZ")
        status, text = run_cli(inv.args)
        verify.verify(inv, status, text)
        lines = text.splitlines()
        with pytest.raises(verify.VerificationError, match="sweep rows"):
            verify.verify(inv, status, "\n".join(lines[:-1]) + "\n")
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        with pytest.raises(verify.VerificationError, match="not finite"):
            verify.verify(inv, status, "\n".join(lines) + "\n")

    def test_rejects_nogo_counterexample(self):
        inv = workloads.Invocation(
            "nogo", ("nogo", "--trials", "7", "--seed", "2"), {"trials": 7, "seed": 2}
        )
        status, text = run_cli(inv.args)
        verify.verify(inv, status, text)
        doc = json.loads(text)
        doc["report"]["counterexamples"] = 1
        with pytest.raises(verify.VerificationError, match="counterexamples"):
            verify.verify(inv, status, json.dumps(doc))


def test_tail_latency_keeps_ten_samples_beyond():
    import run

    walls = [float(i) for i in range(40)]
    value, percentile = run.tail_latency(walls)
    assert sum(w > value for w in walls) == 10
    assert percentile == 75.0
