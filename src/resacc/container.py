"""Flat binary container for network weights and evaluation sets.

Network file layout (little-endian):
    magic   6s   b"RANET\\0"
    version u8   1
    format  u8   0=FP32 1=FP16 2=INT8
    ndim    u8   input shape rank, then u16 per dim
    nlayers u8
    per layer:
      kind  u8   1=CONV2D 2=FC 3=RELU 4=MAXPOOL 5=FLATTEN 6=SOFTMAX
      CONV2D: u16 out_c,in_c,kh,kw; u8 stride,pad; weight bytes (C order)
      FC:     u16 out,in; weight bytes
      MAXPOOL:u8 kernel, stride

Evalset file layout:
    magic   6s   b"RAEVS\\0"
    version u8   1
    format  u8
    count   u32
    ndim    u8, then u16 per dim (per-input shape)
    labels  u16[count]
    data    count * prod(shape) values in the storage dtype
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .formats import NumericFormat
from .microdnn import FC, Conv2D, EvalSet, Flatten, MaxPool2D, MicroNetwork, ReLU, Softmax

_NET_MAGIC = b"RANET\0"
_EVS_MAGIC = b"RAEVS\0"
_FMT_TAG = {NumericFormat.FP32: 0, NumericFormat.FP16: 1, NumericFormat.INT8: 2}
_TAG_FMT = {v: k for k, v in _FMT_TAG.items()}
_KIND = {Conv2D: 1, FC: 2, ReLU: 3, MaxPool2D: 4, Flatten: 5, Softmax: 6}


class ContainerError(ValueError):
    pass


def _write_shape(parts: list[bytes], shape):
    parts.append(struct.pack("<B", len(shape)))
    for d in shape:
        parts.append(struct.pack("<H", d))


def _read_shape(buf: memoryview, off: int):
    (ndim,) = struct.unpack_from("<B", buf, off)
    off += 1
    dims = struct.unpack_from(f"<{ndim}H", buf, off)
    return tuple(dims), off + 2 * ndim


def save_network(net: MicroNetwork, path: str | Path) -> None:
    parts: list[bytes] = [_NET_MAGIC, struct.pack("<BB", 1, _FMT_TAG[net.numeric_format])]
    _write_shape(parts, net.input_shape)
    parts.append(struct.pack("<B", len(net.layers)))
    for layer in net.layers:
        parts.append(struct.pack("<B", _KIND[type(layer)]))
        if isinstance(layer, Conv2D):
            oc, ic, kh, kw = layer.weight.shape
            parts.append(struct.pack("<4H2B", oc, ic, kh, kw, layer.stride, layer.pad))
            parts.append(np.ascontiguousarray(layer.weight).tobytes())
        elif isinstance(layer, FC):
            out, fan_in = layer.weight.shape
            parts.append(struct.pack("<2H", out, fan_in))
            parts.append(np.ascontiguousarray(layer.weight).tobytes())
        elif isinstance(layer, MaxPool2D):
            parts.append(struct.pack("<2B", layer.kernel, layer.stride))
    Path(path).write_bytes(b"".join(parts))


def _read_array(buf: memoryview, off: int, shape, dtype, path):
    n = math.prod(shape) * np.dtype(dtype).itemsize  # Python ints: no wrap-around
    if off + n > len(buf):
        raise ContainerError(
            f"{path}: truncated container: data ends at byte {len(buf)}, needs {off + n}"
        )
    return np.frombuffer(buf[off : off + n], dtype=dtype).reshape(shape).copy(), off + n


def _check_end(buf: memoryview, off: int, path) -> None:
    if off != len(buf):
        raise ContainerError(f"{path}: {len(buf) - off} trailing bytes after the container")


def _format(tag: int, path) -> NumericFormat:
    if tag not in _TAG_FMT:
        raise ContainerError(f"{path}: unknown numeric format tag {tag}")
    return _TAG_FMT[tag]


def load_network(path: str | Path) -> MicroNetwork:
    buf = memoryview(Path(path).read_bytes())
    if bytes(buf[:6]) != _NET_MAGIC:
        raise ContainerError(f"{path}: not a network container")
    try:
        return _parse_network(buf, path)
    except struct.error as e:
        raise ContainerError(f"{path}: truncated container: {e}") from e


def _parse_network(buf: memoryview, path) -> MicroNetwork:
    version, fmt_tag = struct.unpack_from("<BB", buf, 6)
    if version != 1:
        raise ContainerError(f"{path}: unsupported container version {version}")
    fmt = _format(fmt_tag, path)
    off = 8
    input_shape, off = _read_shape(buf, off)
    (nlayers,) = struct.unpack_from("<B", buf, off)
    off += 1
    layers: list = []
    for _ in range(nlayers):
        (kind,) = struct.unpack_from("<B", buf, off)
        off += 1
        if kind == 1:
            oc, ic, kh, kw, stride, pad = struct.unpack_from("<4H2B", buf, off)
            w, off = _read_array(buf, off + 10, (oc, ic, kh, kw), fmt.dtype, path)
            layers.append(Conv2D(weight=w, stride=stride, pad=pad))
        elif kind == 2:
            out, fan_in = struct.unpack_from("<2H", buf, off)
            w, off = _read_array(buf, off + 4, (out, fan_in), fmt.dtype, path)
            layers.append(FC(weight=w))
        elif kind == 3:
            layers.append(ReLU())
        elif kind == 4:
            kernel, stride = struct.unpack_from("<2B", buf, off)
            off += 2
            layers.append(MaxPool2D(kernel=kernel, stride=stride))
        elif kind == 5:
            layers.append(Flatten())
        elif kind == 6:
            layers.append(Softmax())
        else:
            raise ContainerError(f"{path}: unknown layer kind tag {kind}")
    _check_end(buf, off, path)
    try:
        return MicroNetwork(layers=layers, input_shape=input_shape, numeric_format=fmt)
    except ValueError as e:  # a layer the header describes cannot run
        raise ContainerError(f"{path}: {e}") from e


def save_evalset(evalset: EvalSet, fmt: NumericFormat, path: str | Path) -> None:
    shape = evalset.inputs.shape[1:]
    parts = [_EVS_MAGIC, struct.pack("<BBI", 1, _FMT_TAG[fmt], evalset.size)]
    _write_shape(parts, shape)
    parts.append(np.asarray(evalset.labels, dtype=np.uint16).tobytes())
    parts.append(np.ascontiguousarray(evalset.inputs, dtype=fmt.dtype).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_evalset(path: str | Path) -> tuple[EvalSet, NumericFormat]:
    buf = memoryview(Path(path).read_bytes())
    if bytes(buf[:6]) != _EVS_MAGIC:
        raise ContainerError(f"{path}: not an evalset container")
    try:
        version, fmt_tag, count = struct.unpack_from("<BBI", buf, 6)
        if version != 1:
            raise ContainerError(f"{path}: unsupported container version {version}")
        fmt = _format(fmt_tag, path)
        shape, off = _read_shape(buf, 12)
    except struct.error as e:
        raise ContainerError(f"{path}: truncated container: {e}") from e
    labels, off = _read_array(buf, off, (count,), np.uint16, path)
    inputs, off = _read_array(buf, off, (count,) + shape, fmt.dtype, path)
    _check_end(buf, off, path)
    return EvalSet(inputs=inputs, labels=labels.astype(np.int64)), fmt
