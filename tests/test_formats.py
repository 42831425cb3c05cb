"""Numeric-format and bit-flip behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resacc.formats import (
    NumericFormat,
    default_bp_drop,
    flip_bit,
    flip_bits,
)

ALL_FORMATS = list(NumericFormat)


def _random_values(fmt: NumericFormat, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if fmt is NumericFormat.INT8:
        return rng.integers(-128, 128, size=n).astype(np.int8)
    # sample raw bit patterns so NaN/Inf/denormal payloads are covered too
    bits = rng.integers(0, 2**fmt.width, size=n, dtype=np.uint64)
    return bits.astype(fmt.bits_dtype).view(fmt.dtype)


class TestKnownFlips:
    def test_fp32_sign_flip(self):
        assert flip_bit(np.float32(1.0), 31, NumericFormat.FP32) == np.float32(-1.0)

    def test_fp16_exponent_msb_to_inf(self):
        one = np.uint16(0x3C00).view(np.float16)
        flipped = flip_bit(one, 14, NumericFormat.FP16)
        assert flipped.view(np.uint16) == 0x7C00
        assert np.isinf(flipped) and flipped > 0

    def test_int8_bit1(self):
        assert flip_bit(np.int8(5), 1, NumericFormat.INT8) == np.int8(7)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_involution_exhaustive(fmt):
    vals = _random_values(fmt, 10_000, seed=13)
    for bit in range(fmt.width):
        twice = flip_bit(flip_bit(vals, bit, fmt), bit, fmt)
        assert np.array_equal(
            twice.view(fmt.bits_dtype), vals.view(fmt.bits_dtype)
        ), f"{fmt} bit {bit} is not an involution"


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_flip_changes_exactly_one_bit(fmt):
    vals = _random_values(fmt, 500, seed=3)
    for bit in range(fmt.width):
        x = vals.view(fmt.bits_dtype).astype(np.int64)
        y = flip_bit(vals, bit, fmt).view(fmt.bits_dtype).astype(np.int64)
        assert np.all((x ^ y) == (1 << bit))


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_scalar_matches_array(fmt):
    vals = _random_values(fmt, 64, seed=5)
    for bit in (0, fmt.width // 2, fmt.width - 1):
        arr = flip_bit(vals, bit, fmt)
        for i in range(len(vals)):
            s = flip_bit(vals[i], bit, fmt)
            assert s.view(fmt.bits_dtype) == arr[i].view(fmt.bits_dtype)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
def test_flip_bits_equals_one_flip_per_bit(fmt):
    """One XOR for all bits toggles just that bit of each value's pattern,
    for each of the bits, for every bit pattern class (NaN, Inf and
    subnormal patterns included) and for a strided view, as the engine
    passes a column of its cache."""
    rng = np.random.default_rng(fmt.width)
    patterns = rng.integers(0, 1 << fmt.width, size=(64, 3), dtype=np.uint64)
    values = patterns.astype(fmt.bits_dtype).view(fmt.dtype)[:, 1]
    bits = list(range(fmt.width))
    got = flip_bits(values, bits, fmt)
    want = [[int(p) ^ (1 << b) for p in patterns[:, 1]] for b in bits]
    assert got.dtype == fmt.dtype and got.shape == (fmt.width, 64)
    assert got.view(fmt.bits_dtype).tolist() == want
    assert (flip_bits(values[:1], [3, 0], fmt).view(fmt.bits_dtype).tolist()
            == [want[3][:1], want[0][:1]])
    for bad in ([fmt.width], [0, -1]):
        with pytest.raises(ValueError):
            flip_bits(values, bad, fmt)


def test_bit_pos_out_of_range():
    with pytest.raises(ValueError):
        flip_bit(np.float32(1.0), 32, NumericFormat.FP32)


class TestBpDrop:
    def test_fp32_default(self):
        drops = default_bp_drop(NumericFormat.FP32)
        assert drops[30] == 0.15
        assert all(drops[b] == 0.08 for b in (29, 28, 27, 26))
        assert set(drops) == {30, 29, 28, 27, 26}

    def test_fp16_default(self):
        drops = default_bp_drop(NumericFormat.FP16)
        assert drops[14] == 0.15
        assert all(drops[b] == 0.08 for b in (13, 12, 11, 10))

    def test_int8_default(self):
        drops = default_bp_drop(NumericFormat.INT8)
        assert drops[7] == 0.15
        assert all(drops[b] == 0.08 for b in (6, 5, 4, 3))


@given(
    fmt=st.sampled_from(ALL_FORMATS),
    payload=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_involution_property(fmt, payload, data):
    bit = data.draw(st.integers(min_value=0, max_value=fmt.width - 1))
    raw = np.uint64(payload % (2**fmt.width)).astype(fmt.bits_dtype)
    x = raw.view(fmt.dtype)
    y = flip_bit(flip_bit(x, bit, fmt), bit, fmt)
    assert y.view(fmt.bits_dtype) == x.view(fmt.bits_dtype)
