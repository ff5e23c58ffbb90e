"""Immutable records, input validation and the JSON report encoder.

Records validate in ``__post_init__``, also when ``replace`` derives one
from another; ``as_float`` and ``as_int`` reject NaN, Inf, bools, strings
and fractional counts there. ``Record.from_json_dict`` is the one input
decode rule, by field name, and ``Record.to_json_dict`` the one report
layout: complex matrices become nested [re, im] pairs and every float is
rounded to 12 significant digits so emitted reports diff stably.
``encode_json`` writes the indent-2 report text and rounds float64 arrays,
such as those of ``matrix_to_json``, as it writes them; ``encode_csv``
writes the CSV reports.
"""

from __future__ import annotations

import math
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np


class Record:
    """Immutable record whose fields are the class annotations, in order.

    Fields are given positionally or by keyword. A field with a class-level
    value defaults to it. ``__post_init__`` then validates the fields and
    may normalise them with ``object.__setattr__``. Records compare equal
    field by field, and assigning or deleting an attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)}")
        values = dict(zip(self._fields, args))
        unknown = kwargs.keys() - set(self._fields[len(args):])
        if unknown:
            raise TypeError(f"{name} got unexpected or repeated fields {sorted(unknown)}")
        values.update(kwargs)
        for field in self._fields:
            if field in values:
                value = values[field]
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name} is missing field {field!r}")
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def as_dict(self) -> dict:
        """Field name to value, in field order."""
        return {field: getattr(self, field) for field in self._fields}

    @classmethod
    def from_json_dict(cls, doc) -> "Record":
        """The record of an input document: each field's value under its
        name, or its class default where the key is missing. Other keys are
        ignored."""
        return cls(**{f: doc[f] for f in cls._fields if f in doc or f not in cls._defaults})

    def to_json_dict(self) -> dict:
        """The report layout: each field under its name, in field order. A
        float is rounded by ``round_sig``, a complex array becomes the
        [re, im] pairs of ``matrix_to_json``, a nested record writes its own
        ``to_json_dict``, and anything else is left as it is."""
        doc = {}
        for field, value in self.as_dict().items():
            if isinstance(value, float):
                value = round_sig(value)
            elif isinstance(value, np.ndarray) and np.iscomplexobj(value):
                value = matrix_to_json(value)
            elif isinstance(value, Record):
                value = value.to_json_dict()
            doc[field] = value
        return doc

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self.as_dict().values()) == tuple(other.as_dict().values())

    def __hash__(self):
        return hash(tuple(self.as_dict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A new record of the same type with ``changes`` applied, validated again."""
    return type(record)(**{**record.as_dict(), **changes})


# Significant digits of every float in a report.
SIG_DIGITS = 12


def round_sig(x: float) -> float:
    return float(f"{x:.{SIG_DIGITS}g}")


# Floats formatted per pass, so that bulk formatting keeps memory flat. A
# pass holds its floats, their texts and the joined text: encoding a 64 x 64
# [re, im] matrix traces about 0.17 MB beyond its text at 2^10 floats, and
# 0.55 MB at 2^12.
FORMAT_CHUNK = 2 ** 10
_NON_FINITE = "Out of range float values are not JSON compliant: "


def as_int(value, name: str) -> int:
    """``value`` as an int; rejects bools, strings and non-integral numbers."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """``value`` as a finite float; rejects bools, strings, NaN and Inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def matrix_to_json(m: np.ndarray) -> np.ndarray:
    """The float64 array of [re, im] pairs; ``encode_json`` rounds it as it
    writes it, so no nested list of rounded floats is built."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1)


def _template(shape: list[int], level: int) -> str:
    """Indent-2 layout of a float block of ``shape`` at ``level``, one %s per float."""
    if not shape:
        return "%s"
    inner = "\n" + "  " * (level + 1)
    items = ("," + inner).join([_template(shape[1:], level + 1)] * shape[0])
    return "[" + inner + items + "\n" + "  " * level + "]"


def _rounded_reprs(values: np.ndarray) -> list[str]:
    """``float.__repr__(round_sig(x))`` of each value, from its "%.12g" text.
    The texts differ only for whole numbers ("1", not "1.0") and exponent
    forms (1e+12 to 1e+15, subnormals), which take the round trip."""
    text = (f"%.{SIG_DIGITS}g " * len(values)) % tuple(values.tolist())
    return [
        t + ".0" if t.lstrip("-").isdigit() else float.__repr__(float(t)) if "e" in t else t
        for t in text.split()
    ]


def _finite(text: str) -> str:
    """Formatted numbers ``text``, unless a NaN or an infinity is among them."""
    if "n" in text:  # only "nan", "inf" and "-inf" put an "n" in formatted numbers
        raise ValueError(_NON_FINITE + next(t for t in text.replace(",", " ").split() if "n" in t))
    return text


def _encode_block(shape: list[int], leaves: np.ndarray, level: int, out: list) -> None:
    """Append the layout of a float64 array, formatting whole rows at a
    time and writing each float as ``round_sig`` of it."""
    row = _template(shape[1:], level + 1)
    per_row = len(leaves) // shape[0]
    rows = max(1, FORMAT_CHUNK // per_row)
    inner = "\n" + "  " * (level + 1)
    out.append("[" + inner)
    for start in range(0, shape[0], rows):
        count = min(rows, shape[0] - start)
        part = leaves[start * per_row:(start + count) * per_row]
        text = _finite(("," + inner).join([row] * count) % tuple(_rounded_reprs(part)))
        out.append(text if start == 0 else "," + inner + text)
    out.append("\n" + "  " * level + "]")


def _encode(o, level: int, out: list) -> None:
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_finite(float.__repr__(o)))
    elif isinstance(o, np.ndarray) and o.size:
        _encode_block(list(o.shape), o.ravel(), level, out)
    elif isinstance(o, (list, tuple, dict)):
        if isinstance(o, dict):  # a non-str key raises TypeError here
            items, close = [(encode_basestring_ascii(k) + ": ", v) for k, v in o.items()], "}"
        else:
            items, close = [("", item) for item in o], "]"
        opening = "{" if close == "}" else "["
        if not items:
            out.append(opening + close)
            return
        inner = "\n" + "  " * (level + 1)
        for i, (prefix, item) in enumerate(items):
            out.append((opening + inner if i == 0 else "," + inner) + prefix)
            _encode(item, level + 1, out)
        out.append("\n" + "  " * level + close)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def encode_json(doc) -> list[str]:
    """Chunks of the text that ``json.JSONEncoder(indent=2, allow_nan=False)``
    makes of ``doc``, for documents of dicts with string keys, lists, tuples,
    strings, ints, floats, bools and None.

    Lists and tuples are written item by item, each float as ``json``
    writes it. A nonempty float64 array, such as an [re, im] matrix of
    ``matrix_to_json``, is written in bulk, one layout template per chunk of
    rows, as the nested list of ``round_sig`` of its values, straight from
    its "%.12g" text, so that list is never built. A NaN or an infinity
    anywhere raises ValueError, before anything is returned. The chunks are
    not joined, so a large report is not held twice.
    """
    out: list[str] = []
    _encode(doc, 0, out)
    return out


def encode_csv(header: str, *columns) -> list[str]:
    """Chunks of the text ``csv.writer`` makes, nothing quoted and "\r\n"
    after each row: ``header``, then row i of the equal-length ``columns``
    to SIG_DIGITS significant digits, FORMAT_CHUNK rows per chunk so that
    the text is held once; a NaN or an infinity raises as in ``encode_json``."""
    line = ",".join([f"%.{SIG_DIGITS}g"] * len(columns)) + "\r\n"
    out = [header + "\r\n"]
    for start in range(0, len(columns[0]), FORMAT_CHUNK):
        rows = zip(*(np.asarray(c[start:start + FORMAT_CHUNK]).tolist() for c in columns))
        out.append(_finite("".join(line % row for row in rows)))
    return out
