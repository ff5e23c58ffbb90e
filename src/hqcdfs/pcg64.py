"""Raw output words of NumPy's PCG64 bit generator, without ``numpy.random``.

``PCG64Words(seed, block).random_raw(n)`` returns, bit for bit, the words
that ``numpy.random.PCG64(seed).random_raw(n)`` returns over the same
sequence of calls, for any ``n`` up to ``block``. The integer seed is hashed
as NumPy's ``SeedSequence`` hashes it. PCG64 (O'Neill, HMC-CS-2014-0905,
2014) steps a 128-bit LCG and emits the XSL-RR permutation of each state.
The k-th next state, for k = 1 .. block, is ``A_k s + C_k`` (mod 2^128),
read off a table of jump-ahead multipliers and offsets (Brown, "Random
number generation with arbitrary strides", 1994) built once per generator,
so a request is one vectorized pass over uint64 limbs.
"""

from __future__ import annotations

import operator

import numpy as np

from .serialize import InputError

_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _limbs(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 limbs of 128-bit integers."""
    pairs = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8")
    return pairs[1::2].astype(np.uint64), pairs[0::2].astype(np.uint64)


# Array-typed constants: a Python int operand costs a conversion per ufunc call.
_LOW32, _32, _58, _63 = (np.uint64(v) for v in (_MASK32, 32, 58, 63))


class PCG64Words:
    """One PCG64 stream, read in requests of at most ``block`` words."""

    def __init__(self, seed: int, block: int):
        words = _seed_words(operator.index(seed))
        increment = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = ((increment + (words[0] << 64 | words[1])) * _MULTIPLIER + increment) & _MASK128
        multipliers, offsets = [_MULTIPLIER], [increment]
        for _ in range(block - 1):
            multipliers.append(multipliers[-1] * _MULTIPLIER & _MASK128)
            offsets.append((offsets[-1] * _MULTIPLIER + increment) & _MASK128)
        self._block = block
        self._mult_hi, self._mult_lo = _limbs(multipliers)
        self._mult_lo_halves = self._mult_lo & _LOW32, self._mult_lo >> _32
        self._offset_hi, self._offset_lo = _limbs(offsets)

    def random_raw(self, size: int) -> np.ndarray:
        """The next ``size`` output words, as uint64, for 0 <= size <= block."""
        if size == 0:
            return np.empty(0, dtype=np.uint64)
        high, low = np.uint64(self._state >> 64), np.uint64(self._state & _MASK64)
        # The high limb of mult_lo * low (the 128-bit product), from 32-bit
        # halves; no partial sum below exceeds 2^64 - 1.
        a0, a1 = (half[:size] for half in self._mult_lo_halves)
        b0, b1 = low & _LOW32, low >> _32
        lower = a1 * b0 + (a0 * b0 >> _32)
        upper = a0 * b1 + (lower & _LOW32)
        state_hi = a1 * b1 + (lower >> _32) + (upper >> _32)
        # state_k = multiplier_k * state + offset_k (mod 2^128), k = 1 .. size.
        mult_lo, offset_lo = self._mult_lo[:size], self._offset_lo[:size]
        state_lo = mult_lo * low + offset_lo
        state_hi += mult_lo * high
        state_hi += self._mult_hi[:size] * low
        state_hi += self._offset_hi[:size]
        state_hi += state_lo < offset_lo
        self._state = int(state_hi[-1]) << 64 | int(state_lo[-1])
        # XSL-RR: the two halves xor-ed, rotated right by the top six bits.
        mixed, rotation = state_hi ^ state_lo, state_hi >> _58
        return mixed >> rotation | mixed << (-rotation & _63)
