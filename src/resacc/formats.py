"""Bit-exact numeric formats and single-bit flips.

Values live in one of three storage formats (FP32, FP16, INT8). A fault is a
single toggled bit in the stored pattern; flips are performed on the raw
integer view so that IEEE-754 / two's-complement semantics fall out for free.
"""

from __future__ import annotations

import enum
from functools import cached_property

import numpy as np


class NumericFormat(enum.Enum):
    FP32 = "FP32"
    FP16 = "FP16"
    INT8 = "INT8"

    # Cached on each member: the engine reads these on every layer, and each
    # dict lookup would hash the member with the Python-level Enum.__hash__.
    @cached_property
    def width(self) -> int:
        return _WIDTH[self]

    @cached_property
    def dtype(self) -> np.dtype:
        return _DTYPE[self]

    @cached_property
    def bits_dtype(self) -> np.dtype:
        """Unsigned integer dtype of the same width, used as the bit view."""
        return _BITS[self]


_WIDTH = {NumericFormat.FP32: 32, NumericFormat.FP16: 16, NumericFormat.INT8: 8}
_DTYPE = {
    NumericFormat.FP32: np.dtype(np.float32),
    NumericFormat.FP16: np.dtype(np.float16),
    NumericFormat.INT8: np.dtype(np.int8),
}
_BITS = {
    NumericFormat.FP32: np.dtype(np.uint32),
    NumericFormat.FP16: np.dtype(np.uint16),
    NumericFormat.INT8: np.dtype(np.uint8),
}

# (first exponent bit, number of exponent bits) for the float formats.
_EXP_FIELD = {NumericFormat.FP32: (23, 8), NumericFormat.FP16: (10, 5)}


def flip_bits(values, bits, fmt: NumericFormat) -> np.ndarray:
    """``values`` stored in ``fmt`` with one bit of the pattern toggled, for
    each of ``bits`` in turn: (len(bits), *shape), one XOR for all of them.

    The result may be Inf/NaN for float formats; it propagates through
    subsequent arithmetic under the usual IEEE rules.
    """
    if bits and not (0 <= min(bits) and max(bits) < fmt.width):
        raise ValueError(f"bit positions {bits} out of range for {fmt.value}")
    v = np.asarray(values, dtype=fmt.dtype)
    masks = np.array([1 << b for b in bits], dtype=fmt.bits_dtype)
    return (v.view(fmt.bits_dtype) ^ masks.reshape((-1,) + (1,) * v.ndim)).view(fmt.dtype)


def flip_bit(value, bit_pos: int, fmt: NumericFormat):
    """:func:`flip_bits` of a scalar or an array and one bit, of the same shape."""
    return flip_bits(value, [bit_pos], fmt)[0]


def default_bp_drop(fmt: NumericFormat) -> dict[int, float]:
    """Default per-bit assumed accuracy drops for the bit-position sampling
    heuristic: 15 points for the most significant exponent bit, 8 points for
    the next four exponent bits, zero elsewhere.

    INT8 has no exponent; the sign bit and the next four magnitude bits play
    the analogous roles.
    """
    if fmt in _EXP_FIELD:
        lo, n = _EXP_FIELD[fmt]
        msb = lo + n - 1
        drops = {msb: 0.15}
        for b in range(msb - 1, max(lo - 1, msb - 5), -1):
            drops[b] = 0.08
        return drops
    # INT8
    drops = {7: 0.15}
    for b in range(6, 2, -1):
        drops[b] = 0.08
    return drops
