"""JSON encoding helpers for report documents and input validation.

Complex matrices are encoded as nested [re, im] pairs; all floats are
rounded to 12 significant digits so emitted reports diff stably. Input
records validate their numeric fields with ``as_float`` and ``as_int``, so
NaN, Inf, bools, strings and fractional counts are rejected where the
record is built.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def round_sig(x: float, sig: int = 12) -> float:
    if x is None or not math.isfinite(x):
        return x
    return float(f"{x:.{sig}g}")


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


def matrix_to_json(m: np.ndarray, sig: int = 12) -> list:
    return [
        [[round_sig(float(z.real), sig), round_sig(float(z.imag), sig)] for z in row]
        for row in np.asarray(m, dtype=np.complex128)
    ]


def matrix_from_json(data) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in data], dtype=np.complex128
    )
