"""The report encoder against the stdlib encoder, and the immutable records."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcdfs import cli, serialize
from hqcdfs.gates import no_go_certificate, realize
from hqcdfs.model import PULSE_AREAS, GateRecipe, detune
from hqcdfs.noise import KickDistribution, NoiseEnsemble, NoisyGateResult
from hqcdfs.serialize import Record, matrix_to_json, replace, round_sig
from hqcdfs.serialize import encode_json as encode_chunks

from gate_tools import cnot, xz
from oracles import round_all

STDLIB = json.JSONEncoder(indent=2, allow_nan=False)

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, 1.7976931348623157e308, 0.1, 1e-7]
EDGE_STRINGS = ["", '"quoted" \\ back', "line\nbreak\ttab\x00\x1f", "é ß 中文 😀", " ﻿"]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2 ** 53, 2 ** 200),
    floats,
    st.sampled_from(EDGE_STRINGS),
    st.text(max_size=8),
)
# Regular float blocks, the bulk path: float lists and [re, im] matrices
# of any shape, the 1 x 1 and non-square ones included.
blocks = st.one_of(
    st.lists(floats, min_size=1, max_size=8),
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.tuples(floats, floats).map(list), min_size=cols, max_size=cols),
            min_size=1,
            max_size=4,
        )
    ),
)
documents = st.recursive(
    st.one_of(scalars, blocks),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.sampled_from(EDGE_STRINGS)), children, max_size=4),
    ),
    max_leaves=16,
)


def stdlib(doc):
    return "".join(STDLIB.iterencode(doc))


def encode_json(doc):
    return "".join(encode_chunks(doc))


class TestEncoderMatchesStdlib:
    @settings(max_examples=200, deadline=None)
    @given(documents)
    def test_identical_text(self, doc):
        assert encode_json(doc) == stdlib(doc)

    @settings(max_examples=50, deadline=None)
    @given(documents, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 4))
    def test_non_finite_anywhere_raises(self, doc, bad, where):
        wrapped = [
            [doc, bad],
            {"a": doc, "b": bad},
            [0.5, 1.5, bad],
            [[[0.5, bad]], [[1.0, 2.0]]],
            [1, 2.5, [bad]],
        ][where]
        with pytest.raises(ValueError, match="not JSON compliant"):
            stdlib(wrapped)
        with pytest.raises(ValueError, match="not JSON compliant"):
            encode_json(wrapped)

    @pytest.mark.parametrize("shape", [(3 * 4096 + 5,), (2, 5000), (700, 9, 2), (1, 1, 2), (3, 1, 2), (1, 4, 2)])
    def test_blocks_across_chunk_boundaries(self, shape):
        rng = np.random.default_rng(3)
        block = rng.normal(size=shape).tolist()
        assert encode_json({"block": block}) == stdlib({"block": block})

    def test_non_finite_in_a_late_chunk_raises(self):
        values = [0.25] * 9000 + [math.inf]
        with pytest.raises(ValueError, match="compliant: inf"):
            encode_json({"per_sample": values})

    def test_unsupported_values_raise_type_error(self):
        with pytest.raises(TypeError):
            encode_json({"a": np.int64(3)})
        with pytest.raises(TypeError):
            encode_json({1: 2.0})


class TestBulkRounding:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(floats, st.sampled_from([math.nan, math.inf, -math.inf])), max_size=50))
    def test_round_all_is_round_sig_per_value(self, values):
        expected = [round_sig(v) for v in values]
        assert [repr(v) for v in round_all(values)] == [repr(v) for v in expected]

    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (64, 64)])
    def test_matrix_to_json_rounds_each_part(self, shape):
        rng = np.random.default_rng(11)
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        expected = [[[round_sig(float(z.real)), round_sig(float(z.imag))] for z in row] for row in m]
        assert encode_json({"m": matrix_to_json(m)}) == stdlib({"m": expected})

    def test_per_sample_report_values(self):
        per_sample = (1.0, 0.1234567890123456, 1.0 - 3e-16, 5e-324)
        report = NoisyGateResult(0.5, 0.1, per_sample).to_json_dict()
        rounded = [round_sig(f) for f in per_sample]
        assert json.loads(encode_json(report))["per_sample"] == rounded
        assert encode_json(report) == stdlib({**report, "per_sample": rounded})

    # Whole numbers, exponents 12 to 16 (where "%.12g" and repr lay out
    # differently), subnormals and values that round up to 1.
    ARRAY_EDGES = [1.0, -0.0, 3.0, 1e12, 123456789012.0, 1.5e15, -1e16, 5e-324, 1e-5, 0.9999999999995]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(floats, st.sampled_from(ARRAY_EDGES)), min_size=1, max_size=50))
    def test_array_is_encoded_as_its_round_all_list(self, values):
        for shape in [(len(values),), (1, len(values)), (len(values), 1)]:
            array = np.reshape(values, shape)
            expected = np.reshape(round_all(values), shape).tolist()
            assert encode_json({"a": array}) == stdlib({"a": expected})

    @pytest.mark.parametrize("shape", [(3 * 4096 + 5,), (2, 5000), (700, 9, 2)])
    def test_array_across_chunk_boundaries(self, shape):
        array = 1.0 - np.random.default_rng(5).exponential(1e-9, size=shape)
        array.flat[::7] = 1.0
        expected = np.reshape(round_all(array.ravel()), shape).tolist()
        assert encode_json({"a": array}) == stdlib({"a": expected})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_raises(self, bad):
        array = np.full(9000, 0.25)
        array[-1] = bad
        with pytest.raises(ValueError, match=f"compliant: {bad!r}"):
            encode_json({"per_sample": array})


def as_rounded_lists(doc):
    """``doc`` with every float64 array replaced by its ``round_all`` nested
    list: what the stdlib encoder needs to print the same text."""
    if isinstance(doc, np.ndarray):
        return np.reshape(round_all(doc.ravel()), doc.shape).tolist()
    if isinstance(doc, dict):
        return {k: as_rounded_lists(v) for k, v in doc.items()}
    return doc


class TestFormatChunk:
    """The report text does not depend on how many floats a pass formats."""

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    def test_report_text_ignores_the_chunk(self, chunk, monkeypatch):
        rng = np.random.default_rng(8)
        doc = {
            "gate": realize(cnot(1.3, (1, 2)), steps=64).to_json_dict(),
            "per_sample": 1.0 - rng.exponential(1e-9, size=2500),
            "list": rng.normal(size=2500).tolist(),
            "rows": rng.normal(size=(300, 5)).tolist(),
        }
        expected = stdlib(as_rounded_lists(doc))
        if chunk is not None:
            monkeypatch.setattr(serialize, "FORMAT_CHUNK", chunk)
            monkeypatch.setattr(cli, "FORMAT_CHUNK", chunk)
        assert encode_json(doc) == expected


class TestRecords:
    def test_equal_field_by_field(self):
        assert xz(0.3) == xz(0.3)
        assert hash(xz(0.3)) == hash(xz(0.3))
        assert xz(0.3) != xz(0.4)
        assert xz(0.3) != ("XZ", 0.3)

    def test_positional_keyword_and_default_fields(self):
        area = PULSE_AREAS["XZ"]
        by_position = GateRecipe("XZ", 0.1, 1.0, area, (2,))
        assert by_position == GateRecipe(blocks=(2,), duration=area, kind="XZ", strength=1.0, phase=0.1)
        assert by_position.detuned is False
        assert by_position.as_dict() == {
            "kind": "XZ", "phase": 0.1, "strength": 1.0, "duration": area, "blocks": (2,), "detuned": False
        }

    @pytest.mark.parametrize(
        "args, kwargs",
        [(("uniform", {}, 1.0), {}), (("uniform",), {"type": "fixed"}), ((), {"angle": 1.0}), ((), {})],
        ids=["too-many", "repeated", "unknown", "missing"],
    )
    def test_bad_field_sets_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            KickDistribution(*args, **kwargs)

    def test_assignment_and_deletion_raise(self):
        recipe = xz(0.3)
        with pytest.raises(AttributeError):
            recipe.phase = 1.0
        with pytest.raises(AttributeError):
            del recipe.phase
        assert recipe.phase == 0.3

    def test_replace_validates_again(self):
        with pytest.raises(ValueError):
            replace(xz(0.3), duration=-1.0)
        with pytest.raises(ValueError, match="pulse area"):
            replace(xz(0.3), strength=2.0)
        moved = replace(xz(0.3), phase=0.5)
        assert moved == xz(0.5)
        assert detune(xz(0.3), 1.1).detuned

    def test_post_init_normalizes(self):
        recipe = GateRecipe("CNOT", 0, 1, cnot().duration, [1, 2])
        assert recipe.blocks == (1, 2) and isinstance(recipe.phase, float)

    def test_record_subclass_without_validation(self):
        class Pair(Record):
            left: int
            right: int = 2

        assert Pair(1) == Pair(left=1, right=2)
        assert repr(Pair(1)) == "Pair(left=1, right=2)"


# Every result record a command reports, built as the commands build it.
RESULT_RECORDS = {
    "holonomy-certified": lambda: realize(xz(0.3), steps=64).holonomy,
    "holonomy-defects-only": lambda: realize(detune(xz(0.3), 1.04), steps=64).holonomy,
    "gate-xz": lambda: realize(xz(0.3), steps=64),
    "gate-cnot": lambda: realize(cnot(), steps=64),
    "nogo": lambda: no_go_certificate(5, 3),
    "noisy-gate-result": lambda: NoisyGateResult(0.5, 0.25, (0.25, 0.75)),
    "noise-ensemble": lambda: NoiseEnsemble(3, KickDistribution("gaussian", {"mean": 0.1, "stddev": 0.5}), 7, 2),
}


class TestReportLayout:
    @pytest.mark.parametrize("build", RESULT_RECORDS.values(), ids=RESULT_RECORDS.keys())
    def test_keys_are_the_fields_in_order(self, build):
        record = build()
        doc = record.to_json_dict()
        assert list(doc) == list(record._fields)
        for field, value in record.as_dict().items():
            if isinstance(value, Record):
                assert encode_json(doc[field]) == encode_json(value.to_json_dict())
        assert list(json.loads(encode_json(doc))) == list(record._fields)

    def test_per_sample_is_float64(self):
        result = RESULT_RECORDS["noisy-gate-result"]()
        assert isinstance(result.per_sample, np.ndarray) and result.per_sample.dtype == np.float64


def test_cli_import_does_not_load_dataclasses():
    code = "import sys, hqcdfs.cli; print('dataclasses' in sys.modules, 'csv' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
