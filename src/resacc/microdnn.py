"""Minimal fault-injectable inference engine.

A MicroNetwork is an ordered list of layers (CONV2D, FC, RELU, MAXPOOL,
FLATTEN, SOFTMAX) with weights stored bit-exactly in one numeric format.
Faults are single bit flips at a software fault site; the engine supports
three corruption semantics:

* FullCorruption — the flipped value is seen by every use in the inference
  (the software-injection baseline behaviour).
* ReuseBounded(r) — the flipped value is seen by exactly r consecutive uses,
  starting at a deterministic offset derived from the site; pristine
  elsewhere. This models the bounded residency of a value in one FF.
* Crash — no inference result at all (global-control faults).

Faults are evaluated a chunk of variables of one (layer, type) class at a
time, over every requested bit of each and every input of the evalset in
one batch (:func:`prediction_batches`, :func:`faulty_predictions`). The
clean activations of the whole evalset, the weights in float64 and the
window tables of each max-pool layer are computed once
(:class:`ActivationCache`). Only the elements of the faulted layer's output
that read a flipped value inside its reuse window are recomputed, those of
all the chunk's variables in one sum. They form the fault frontier: per
variable, the positions of the elements it changed and their values under
every bit and input. The frontier, not whole rows, goes through the layers
that sum nothing: ReLU on its values, Flatten as it is, and max-pool by
recomputing only the windows that cover a changed position. At the first
conv, FC or softmax layer (or the end of the net), only the vars x bits x
inputs rows whose values differ in bits from the clean ones are built dense
and run on as one forward; the rest take the clean prediction. Before each
later conv and FC layer of that forward, the rows whose bits equal the
layer's cached clean input are dropped too. Local-control variables are
grouped by the layer their hashed weight lands in. A chunk holds as many
variables as keep its widest float64 activation within BATCH_BYTES; a
single variable too large for that goes in chunks of inputs, a recompute in
chunks of output elements whose (elements, bits, inputs, fan-in + 1)
float64 sums fit in BATCH_BYTES, and a frontier max-pool in chunks of
windows whose patches fit in it. No chunking changes a result.

Bit-exactness: a recomputed element is summed sequentially in float64 from
0.0 over its fan-in, in the order of ``kernels.conv2d_elem`` /
``kernels.fc_elem``; every other element is the cached clean value, which
the whole-layer kernels produce. A frontier max-pool window takes the same
fmax chain over the same members as ``kernels.maxpool2d``. The batched
kernels give every batch item the bits they give it alone, so a faulty
inference does not depend on what else is in its batch, nor on which rows
were dropped. Max-pool quiets signalling NaNs first, since numpy's fmax
answers those by code path; the recompute of a fault at a max-pool input is
the one exception (see :func:`_faulty_outputs`). FP16
ReLU works on the bit patterns and FP16 max-pool in float64, since numpy
does FP16 arithmetic in software; both give the FP16 results. The shared
network and the cache are never mutated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .formats import NumericFormat
from .profile import (
    CONTROL_LAYER,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
)


# --- layers ----------------------------------------------------------------

@dataclass
class Conv2D:
    weight: np.ndarray  # (out_c, in_c, kh, kw), storage dtype
    stride: int = 1
    pad: int = 0


@dataclass
class FC:
    weight: np.ndarray  # (out, in), storage dtype


@dataclass
class ReLU:
    pass


@dataclass
class MaxPool2D:
    kernel: int
    stride: int


@dataclass
class Flatten:
    pass


@dataclass
class Softmax:
    pass


Layer = Conv2D | FC | ReLU | MaxPool2D | Flatten | Softmax


def _conv_out_hw(ih, iw, kh, kw, stride, pad):
    return (ih + 2 * pad - kh) // stride + 1, (iw + 2 * pad - kw) // stride + 1


@dataclass
class MicroNetwork:
    layers: list[Layer]
    input_shape: tuple[int, ...]
    numeric_format: NumericFormat
    _shapes: list[tuple[int, ...]] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._shapes = [tuple(self.input_shape)]
        shape = tuple(self.input_shape)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, (Conv2D, MaxPool2D)) and layer.stride < 1:
                raise ValueError(f"layer {i}: stride must be >= 1, got {layer.stride}")
            if isinstance(layer, Conv2D):
                oc, ic, kh, kw = layer.weight.shape
                if len(shape) != 3 or shape[0] != ic:
                    raise ValueError(f"layer {i}: conv expects ({ic}, H, W), got {shape}")
                oh, ow = _conv_out_hw(shape[1], shape[2], kh, kw, layer.stride, layer.pad)
                if oh < 1 or ow < 1:
                    raise ValueError(f"layer {i}: empty conv output for input {shape}")
                shape = (oc, oh, ow)
            elif isinstance(layer, FC):
                fan_out, fan_in = layer.weight.shape
                if len(shape) != 1 or shape[0] != fan_in:
                    raise ValueError(f"layer {i}: fc expects ({fan_in},), got {shape}")
                shape = (fan_out,)
            elif isinstance(layer, MaxPool2D):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: maxpool expects (C, H, W), got {shape}")
                if layer.kernel < 1:
                    raise ValueError(f"layer {i}: pool kernel must be >= 1, got {layer.kernel}")
                oh = (shape[1] - layer.kernel) // layer.stride + 1
                ow = (shape[2] - layer.kernel) // layer.stride + 1
                if oh < 1 or ow < 1:
                    raise ValueError(f"layer {i}: empty pool output for input {shape}")
                shape = (shape[0], oh, ow)
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, (ReLU, Softmax)):
                pass
            else:
                raise ValueError(f"unsupported layer kind: {type(layer).__name__}")
            self._shapes.append(shape)
        for layer in self.layers:
            w = getattr(layer, "weight", None)
            if w is not None:
                if w.dtype != self.numeric_format.dtype:
                    raise ValueError("weight dtype does not match numeric_format")
                if np.issubdtype(w.dtype, np.floating) and not np.all(np.isfinite(w)):
                    raise ValueError("weights must be finite in the fault-free state")

    def input_shape_of(self, i: int) -> tuple[int, ...]:
        return self._shapes[i]

    def output_shape_of(self, i: int) -> tuple[int, ...]:
        return self._shapes[i + 1]


# --- faults ----------------------------------------------------------------

class FaultMode(enum.Enum):
    FULL_CORRUPTION = "full"
    REUSE_BOUNDED = "reuse"
    CRASH = "crash"


@dataclass(frozen=True)
class FaultSpec:
    site: SoftwareFaultSite
    mode: FaultMode
    reuse: int = 1  # uses that see the flip; only meaningful for REUSE_BOUNDED

    def __post_init__(self):
        if self.mode is FaultMode.REUSE_BOUNDED and self.reuse < 1:
            raise ValueError(f"reuse factor {self.reuse} of {self.site} is below 1")


class FaultSemantics(enum.Enum):
    """How a raw fault site maps to corruption behaviour.

    TRUE: reuse-bounded datapath corruption, global-control faults crash,
    local-control faults corrupt one deterministically chosen weight.
    SW: full corruption of weights/activations; control sites unsupported
    (the software-injection baseline does not model them).
    """

    TRUE = "true"
    SW = "sw"


def make_fault(
    site: SoftwareFaultSite,
    config: AcceleratorConfig,
    semantics: FaultSemantics = FaultSemantics.TRUE,
) -> FaultSpec:
    """Resolve a fault site into a concrete corruption mode using the
    accelerator's per-type reuse factors."""
    if semantics is FaultSemantics.SW:
        if site.var_type in (FFType.CONTROL_GLOBAL, FFType.CONTROL_LOCAL):
            raise ValueError("SW semantics do not model control fault sites")
        return FaultSpec(site, FaultMode.FULL_CORRUPTION)
    if site.var_type is FFType.CONTROL_GLOBAL:
        return FaultSpec(site, FaultMode.CRASH)
    if site.var_type is FFType.CONTROL_LOCAL:
        return FaultSpec(site, FaultMode.REUSE_BOUNDED, reuse=config.reuse[FFType.WEIGHT])
    return FaultSpec(site, FaultMode.REUSE_BOUNDED, reuse=config.reuse[site.var_type])


def _window(var_index, total_uses, fault: FaultSpec):
    """(start, count) of the uses that see the flipped value; elementwise
    over arrays of variables and their use counts."""
    if fault.mode is FaultMode.FULL_CORRUPTION:
        r = total_uses
    else:
        r = np.minimum(fault.reuse, total_uses)
    return var_index % (total_uses - r + 1), r


# --- forward pass ----------------------------------------------------------

def _cast(a: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    # Corrupted values may overflow the storage format or be NaN; saturating
    # to +/-Inf (or clipping, for integers) is the modeled behavior, so the
    # cast warnings are noise here.
    with np.errstate(over="ignore", invalid="ignore"):
        if fmt is NumericFormat.INT8:
            return np.clip(np.rint(np.nan_to_num(a)), -128, 127).astype(np.int8)
        return a.astype(fmt.dtype, copy=False)


def _quiet(a: np.ndarray, fmt: NumericFormat, out: np.ndarray | None = None) -> np.ndarray:
    """``a`` in the dtype max-pool takes its maxima in, signalling NaNs made
    quiet (into ``out``, if given). Multiplying by 1.0 quiets them:
    float32/float64 fmax ignores those or not by code path, so by what else
    is in the batch, and FP16 fmax always ignores them. A maximum is one of
    its inputs, so float64 holds it exactly; FP16 goes through float64
    because numpy's FP16 arithmetic is software."""
    with np.errstate(invalid="ignore"):
        if fmt is NumericFormat.FP16:
            return np.multiply(a, 1.0, dtype=np.float64, out=out)
        if fmt is NumericFormat.FP32:
            return np.multiply(a, np.float32(1.0), out=out)
    return a


def _apply_layer(
    layer: Layer, a: np.ndarray, fmt: NumericFormat, w64: np.ndarray | None = None
) -> np.ndarray:
    """One layer over a batch: ``a`` has a leading batch axis. ``w64`` is the
    layer's weight in float64, converted here when not given."""
    if isinstance(layer, Conv2D):
        w64 = layer.weight.astype(np.float64) if w64 is None else w64
        return _cast(kernels.conv2d(a.astype(np.float64), w64, layer.stride, layer.pad), fmt)
    if isinstance(layer, FC):
        w64 = layer.weight.astype(np.float64) if w64 is None else w64
        return _cast(kernels.fc(a.astype(np.float64), w64), fmt)
    if isinstance(layer, ReLU):
        if fmt is NumericFormat.FP16:
            # On the bit patterns, as numpy's FP16 arithmetic is software:
            # b - 0x8001 wraps the negatives from the one after -0 down to
            # -Inf (0x8001-0xFC00) onto 0-0x7BFF, and those become +0; -0 and
            # the NaNs stay, as np.maximum leaves them.
            b = a.view(np.uint16)
            return (b * ((b - np.uint16(0x8001)) >= 0x7C00)).view(np.float16)
        return np.maximum(a, a.dtype.type(0))
    if isinstance(layer, MaxPool2D):
        return _cast(kernels.maxpool2d(_quiet(a, fmt), layer.kernel, layer.stride), fmt)
    if isinstance(layer, Flatten):
        return a.reshape(len(a), -1)
    if isinstance(layer, Softmax):
        z = a.reshape(len(a), -1).astype(np.float64)
        hi = z.max(axis=1, keepdims=True, where=np.isfinite(z), initial=-np.inf)
        hi[hi == -np.inf] = 0.0  # no finite value in the row
        e = np.exp(z - hi)
        return _cast(e / e.sum(axis=1, keepdims=True), fmt).reshape(a.shape)
    raise ValueError(f"unsupported layer kind: {type(layer).__name__}")


def _predict(logits: np.ndarray) -> np.ndarray:
    """Argmax of each batch item, NaN losing every comparison; ties break to
    the lowest index."""
    z = logits.reshape(len(logits), -1).astype(np.float64)
    z[np.isnan(z)] = -np.inf
    return np.argmax(z, axis=1)


def _layer_outputs(net: MicroNetwork, inputs: np.ndarray, weights64=None):
    """The batch ``inputs`` in the storage format, then each layer's output;
    ``weights64`` holds each layer's float64 weight, if given."""
    a = np.asarray(inputs, dtype=net.numeric_format.dtype)
    if a.shape[1:] != tuple(net.input_shape):
        raise ValueError(f"input shape {a.shape[1:]} != {net.input_shape}")
    yield a
    with np.errstate(all="ignore"):
        for i, layer in enumerate(net.layers):
            a = _apply_layer(layer, a, net.numeric_format,
                             None if weights64 is None else weights64[i])
            yield a


def _forward(net: MicroNetwork, inputs: np.ndarray) -> np.ndarray:
    for a in _layer_outputs(net, inputs):
        pass
    return a


def forward(net: MicroNetwork, x: np.ndarray) -> np.ndarray:
    return _forward(net, np.asarray(x)[None])[0]


def infer(net: MicroNetwork, x: np.ndarray) -> int:
    return int(_predict(_forward(net, np.asarray(x)[None]))[0])


def clean_activations(net: MicroNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer inputs plus the final output of one input, all in the
    storage format."""
    return [a[0] for a in _layer_outputs(net, np.asarray(x)[None])]


# --- faulty forward --------------------------------------------------------

CRASHED = -1  # the prediction recorded for an inference the fault crashed
# Bound, in bytes, on each float64 array of a faulty batch: the widest
# activation over the batch's variables, bits and inputs, and the
# recompute's products and sums.
BATCH_BYTES = 1 << 20


def total_weight_count(net: MicroNetwork) -> int:
    return sum(l.weight.size for l in net.layers if hasattr(l, "weight"))


def _local_control_target(
    net: MicroNetwork, profile: NetworkProfile, var_index: int
) -> tuple[int, int]:
    """Deterministic mapping from a local-control variable to the datapath
    weight it corrupts: a Knuth-hashed index into the flattened weights."""
    total = total_weight_count(net)
    if total == 0:
        raise ValueError("network has no weights for local-control mapping")
    gidx = (var_index * 2654435761) % total
    for layer_stats in profile.layers:
        layer = net.layers[layer_stats.net_index]
        w = getattr(layer, "weight", None)
        if w is None:
            continue
        if gidx < w.size:
            return layer_stats.layer_id, gidx
        gidx -= w.size
    raise AssertionError("unreachable")


def _flipped(values: np.ndarray, bits: list[int], fmt: NumericFormat) -> np.ndarray:
    """``values`` with one bit flipped, for each of ``bits``: (F, *shape)."""
    if bits and not (0 <= min(bits) and max(bits) < fmt.width):
        raise ValueError(f"bit positions {bits} out of range for {fmt.value}")
    masks = np.array([1 << b for b in bits], dtype=fmt.bits_dtype)
    masks = masks.reshape((-1,) + (1,) * values.ndim)
    return (values.view(fmt.bits_dtype) ^ masks).view(fmt.dtype)


def _check_vars(vs: np.ndarray, count: int, var_type: FFType) -> None:
    listed = vs.tolist()
    if listed and not (0 <= min(listed) and max(listed) < count):
        raise ValueError(f"var_index out of range for {var_type.value}: [0, {count})")


def _spread(count, n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each element's variable and its rank among that variable's elements,
    for ``count`` elements per variable (an array, or one count for all),
    and the count of each variable."""
    counts = np.zeros(n_vars, dtype=np.int64) + count
    return *np.nonzero(np.arange(counts.max(initial=0)) < counts[:, None]), counts


def _covering(i: np.ndarray, k: int, stride: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """First and number of the outputs whose window of ``k`` positions, one
    every ``stride``, covers position ``i``, for each of ``i``; they are
    consecutive."""
    d = i[:, None] - np.arange(n_out) * stride
    hit = (d >= 0) & (d < k)
    return hit.argmax(axis=1), hit.sum(axis=1)


def _conv_terms(layer: Conv2D, w64: np.ndarray, x: np.ndarray, o, y, z):
    """Clean products x * w of conv output elements (o[e], y[e], z[e]) over n
    inputs, fan-in-major: (K, E, n), 0.0 where the element kernel skips a
    padded position; with the fan-in positions' input values in float64
    (K, E, n) and whether they lie inside the input (K, E)."""
    _, ih, iw = x.shape[1:]
    _, ic, kh, kw = w64.shape
    c, ky, kz = (g.reshape(-1, 1) for g in np.indices((ic, kh, kw)))
    sy = y * layer.stride - layer.pad + ky
    sz = z * layer.stride - layer.pad + kz
    inside = (sy >= 0) & (sy < ih) & (sz >= 0) & (sz < iw)
    xs = x.transpose(1, 2, 3, 0)[c, np.clip(sy, 0, ih - 1), np.clip(sz, 0, iw - 1)]
    xs = xs.astype(np.float64)
    w = w64.reshape(len(w64), -1)[o].T
    return np.where(inside[:, :, None], xs * w[:, :, None], 0.0), xs, inside


def _faulty_outputs(
    layer: Layer,
    w64: np.ndarray | None,
    x: np.ndarray,
    clean: np.ndarray,
    fmt: NumericFormat,
    var_type: FFType,
    var_indices: np.ndarray,
    bits: list[int],
    fault: FaultSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """The fault frontier of one layer's output over a batch of n inputs,
    with each of its variables ``var_indices`` flipped in turn, for each of
    ``bits``: (pos, vals). ``pos`` (V, P) holds the flat positions, within
    one output, of the elements each variable changes, padded to P by
    repeating its last; ``vals`` (V, P, F, n) holds their values. A
    variable that changes no element has position 0 with its clean value.
    Every other element is that of ``clean``.

    ``x`` and ``clean`` are the layer's cached clean input and output, and
    ``w64`` its weight in float64. The output elements that read a flipped
    value inside its reuse window are recomputed, those of all the
    variables in one batch, each summed sequentially
    (``kernels.dot_sequential``).
    """
    n, n_bits = len(x), len(bits)
    vs = np.asarray(var_indices, dtype=np.int64)
    if var_type is FFType.OUTPUT_ACTIVATION:
        values = clean.reshape(n, -1)
        _check_vars(vs, values.shape[1], var_type)
        return vs[:, None], _flipped(values[:, vs].T, bits, fmt).swapaxes(0, 1)[:, None]
    if var_type is FFType.INPUT_ACTIVATION:
        _check_vars(vs, x[0].size, var_type)
        xf = _flipped(x.reshape(n, -1)[:, vs].T, bits, fmt).swapaxes(0, 1)  # (V, F, n)
        if isinstance(layer, ReLU):
            return vs[:, None], np.where(xf < 0, xf.dtype.type(0), xf)[:, None]
        xf64 = xf.astype(np.float64)

    # Each branch names the output elements to recompute (elems), the
    # variable each belongs to (owner) and its rank among that variable's
    # elements, and recompute(sel) -> (E, F, n), the float64 values of the
    # elements [sel]. A summing branch also names the fan-in position at
    # which each element reads the flipped value (hit_k).
    if var_type is FFType.WEIGHT:
        if w64 is None:
            raise ValueError("weight fault on a layer without weights")
        _check_vars(vs, w64.size, var_type)
        wf = _flipped(layer.weight.reshape(-1)[vs], bits, fmt).astype(np.float64)  # (F, V)
        if isinstance(layer, FC):
            # Each FC weight is read once per inference.
            elems, hit_k = np.divmod(vs, w64.shape[1])
            owner, rank = np.arange(len(vs)), np.zeros(len(vs), dtype=np.int64)
            counts = rank + 1
            xt = x.astype(np.float64).T  # (K, n)

            def recompute(sel):
                terms = xt[:, None, :] * w64[elems[sel]].T[:, :, None]
                faulty = wf[:, owner[sel]].T[:, :, None] * xt[hit_k[sel]][:, None, :]
                return kernels.dot_sequential(terms, hit_k[sel], faulty)
        else:
            assert isinstance(layer, Conv2D)
            _, oh, ow = clean.shape[1:]
            o, k = np.divmod(vs, w64[0].size)
            start, count = _window(vs, oh * ow, fault)
            owner, rank, counts = _spread(count, len(vs))
            u = start[owner] + rank
            oc, hit_k = o[owner], k[owner]
            elems = oc * oh * ow + u
            y, z = np.divmod(u, ow)

            def recompute(sel):
                terms, xs, inside = _conv_terms(layer, w64, x, oc[sel], y[sel], z[sel])
                at = hit_k[sel], np.arange(terms.shape[1])
                faulty = np.where(inside[at][:, None, None],
                                  wf[:, owner[sel]].T[:, :, None] * xs[at][:, None, :], 0.0)
                return kernels.dot_sequential(terms, hit_k[sel], faulty)
    else:
        assert var_type is FFType.INPUT_ACTIVATION
        if isinstance(layer, FC):
            start, count = _window(vs, w64.shape[0], fault)
            owner, rank, counts = _spread(count, len(vs))
            elems = start[owner] + rank
            hit_k = vs[owner]
            xt = x.astype(np.float64).T  # (K, n)

            def recompute(sel):
                w = w64[elems[sel]]
                faulty = xf64[owner[sel]] * w[np.arange(len(w)), hit_k[sel]][:, None, None]
                return kernels.dot_sequential(xt[:, None, :] * w.T[:, :, None], hit_k[sel], faulty)
        elif isinstance(layer, Conv2D):
            c, iy, iz = np.unravel_index(vs, x.shape[1:])
            n_oc, _, kh, kw = w64.shape
            _, oh, ow = clean.shape[1:]
            s, pad = layer.stride, layer.pad
            # The output positions whose receptive field covers (iy, iz), in
            # row-major order; each is used once per output channel.
            y0, ny = _covering(iy + pad, kh, s, oh)
            z0, nz = _covering(iz + pad, kw, s, ow)
            start, count = _window(vs, ny * nz * n_oc, fault)
            owner, rank, counts = _spread(count, len(vs))
            p, o = np.divmod(start[owner] + rank, n_oc)
            py, pz = np.divmod(p, nz[owner])
            y, z = y0[owner] + py, z0[owner] + pz
            elems = (o * oh + y) * ow + z
            ky, kz = iy[owner] + pad - y * s, iz[owner] + pad - z * s
            hit_k = (c[owner] * kh + ky) * kw + kz
            w_hit = w64[o, c[owner], ky, kz]

            def recompute(sel):
                terms, _, _ = _conv_terms(layer, w64, x, o[sel], y[sel], z[sel])
                faulty = xf64[owner[sel]] * w_hit[sel, None, None]
                return kernels.dot_sequential(terms, hit_k[sel], faulty)
        elif isinstance(layer, MaxPool2D):
            c, iy, iz = np.unravel_index(vs, x.shape[1:])
            k, s = layer.kernel, layer.stride
            _, oh, ow = clean.shape[1:]
            y0, ny = _covering(iy, k, s, oh)
            z0, nz = _covering(iz, k, s, ow)
            start, count = _window(vs, ny * nz, fault)
            owner, rank, counts = _spread(count, len(vs))
            py, pz = np.divmod(start[owner] + rank, nz[owner])
            y, z = y0[owner] + py, z0[owner] + pz
            elems = (c[owner] * oh + y) * ow + z
            hit = (iy[owner] - y * s) * k + iz[owner] - z * s
            ky, kz = (g.reshape(-1) for g in np.indices((k, k)))
            xt = x.transpose(1, 2, 3, 0)

            def recompute(sel):
                e = np.arange(len(hit[sel]))
                # Unlike every other max-pool here, this one does not quiet
                # signalling NaNs: a flipped input that is one (a flipped
                # exponent can make one) wins every window it is in, as
                # numpy's fmax.reduce answers it on a contiguous axis, which
                # is why the patches are C-ordered (on a strided axis it
                # gives the other operand). The reference engine does the
                # same, and the committed benchmark archive records it;
                # tests/test_engine.py pins four A(j) that quieting would
                # move. (E, F, n, k*k)
                patches = np.empty((len(e), n_bits, n, k * k))
                patches[:] = xt[c[owner[sel], None], (y[sel] * s)[:, None] + ky,
                                (z[sel] * s)[:, None] + kz].swapaxes(1, 2)[:, None]
                patches[e, :, :, hit[sel]] = xf64[owner[sel]]
                return np.fmax.reduce(patches, axis=3)
        else:
            raise ValueError(f"input-activation fault unsupported on {type(layer).__name__}")
    # Elements go in chunks whose (E, F, n, fan-in + 1) sums, or (E, F, n,
    # k*k) pool patches, stay within BATCH_BYTES; each element is computed
    # alone, so chunking changes no result.
    per_elem = k * k if isinstance(layer, MaxPool2D) else w64[0].size + 1
    step = max(1, BATCH_BYTES // (8 * n * n_bits * per_elem))
    pos = np.zeros((len(vs), max(1, int(counts.max()))), dtype=np.int64)
    pos[owner, rank] = elems
    vals = np.empty(pos.shape + (n_bits, n), dtype=clean.dtype)
    for i in range(0, len(elems), step):
        sel = slice(i, i + step)
        vals[owner[sel], rank[sel]] = _cast(recompute(sel), fmt)
    if counts.min() < pos.shape[1]:
        _repeat_last(pos, counts)
        _repeat_last(vals, counts)
        vals[counts == 0] = clean.reshape(n, -1)[:, 0]
    return pos, vals


def prediction_batches(
    net: MicroNetwork,
    fault: FaultSpec,
    profile: NetworkProfile,
    cache: ActivationCache,
    bits,
    var_indices,
):
    """Predicted class of every cached input with each of ``var_indices``
    flipped in turn, for each of ``bits``, a batch of variables at a time:
    yields (positions, preds), preds an int array (len(positions),
    len(bits), n_inputs) for the variables ``var_indices[positions]``,
    CRASHED where the fault crashes the accelerator. The variables are of
    ``fault.site``'s (layer, type) class and take its mode; the site's
    ``var_index`` and ``bit_pos`` are not read.

    Each batch recomputes the faulted layer's changed elements once
    (:func:`_faulty_outputs`) and carries them through the layers that sum
    nothing; from the first layer that sums, only the vars x bits x inputs
    rows the fault still touches run on, as one forward
    (:func:`_frontier_predictions`). Local-control variables are batched by
    the layer their hashed weight lands in.
    """
    bits = [int(b) for b in bits]
    vs = np.asarray(var_indices, dtype=np.int64).reshape(-1)
    n = len(cache.acts[0])
    if fault.mode is FaultMode.CRASH:
        if len(vs):
            yield np.arange(len(vs)), np.full((len(vs), len(bits), n), CRASHED)
        return
    var_type = fault.site.var_type
    if var_type is FFType.CONTROL_LOCAL:
        targets = np.array([_local_control_target(net, profile, v) for v in vs.tolist()],
                           dtype=np.int64).reshape(-1, 2)
        groups = [(lid, np.flatnonzero(targets[:, 0] == lid)) for lid in np.unique(targets[:, 0])]
        var_type, vs = FFType.WEIGHT, targets[:, 1]
    elif fault.site.layer_id == CONTROL_LAYER:
        raise ValueError("control-global sites must carry CRASH mode")
    else:
        groups = [(fault.site.layer_id, np.arange(len(vs)))]
    fmt = net.numeric_format
    for layer_id, positions in groups:
        k = profile.layer(int(layer_id)).net_index
        if k < 0 or k >= len(net.layers):
            raise ValueError(f"profile layer {layer_id} has no backing network layer")
        # A batch holds as many variables as keep its widest float64
        # activation within BATCH_BYTES; a variable too large for that goes in
        # chunks of inputs. Every kernel treats batch items alone, so chunking
        # changes no result.
        rows = max(1, BATCH_BYTES // (8 * max(map(math.prod, net._shapes[k:]))))
        var_step = max(1, rows // max(1, len(bits) * n))
        in_step = max(1, rows // max(1, len(bits)))
        for i in range(0, len(positions), var_step):
            pos = positions[i : i + var_step]
            preds = []
            with np.errstate(all="ignore"):
                for j in range(0, n, in_step):
                    cols = slice(j, min(n, j + in_step))
                    front = _faulty_outputs(
                        net.layers[k], cache.weights64[k], cache.acts[k][cols],
                        cache.acts[k + 1][cols], fmt, var_type, vs[pos], bits, fault,
                    )
                    preds.append(_frontier_predictions(net, cache, k + 1, *front, cols))
            yield pos, np.concatenate(preds, axis=2)


def _repeat_last(a: np.ndarray, counts: np.ndarray) -> None:
    """Fill each row ``a[v]`` past its first ``counts[v]`` slots with a
    repeat of the last of those; a row with none stays as it is."""
    v, j = np.nonzero((np.arange(a.shape[1]) >= counts[:, None]) & (counts[:, None] > 0))
    a[v, j] = a[v, counts[v] - 1]


def _pool_frontier(
    layer: MaxPool2D, pool: _PoolTables, cols: slice, pos: np.ndarray, vals: np.ndarray,
    fmt: NumericFormat,
) -> tuple[np.ndarray, np.ndarray]:
    """The fault frontier of a max-pool layer's output from that of its
    input, ``pos`` (V, P) and ``vals`` (V, P, F, n) over the cached inputs
    ``cols``.

    Only the windows that cover a changed position are recomputed, as
    :func:`_apply_layer` computes them: the clean members from ``pool``
    with the changed ones scattered in, quieted (:func:`_quiet`), fmax'd
    in the (ky, kz) order of ``kernels.maxpool2d``, and cast. Each
    variable's windows are sorted and made distinct, and each changed
    position goes to its member slot of each window that covers it, so the
    scatter takes O(P) index work. Windows go in chunks whose (k*k + 1, V,
    windows, F, n) patches stay within BATCH_BYTES; slot k*k takes the
    changed values that no window of the chunk reads.
    """
    n_vars = len(pos)
    k2 = layer.kernel ** 2
    rows = np.arange(n_vars)[:, None]
    win = pool.cover[pos].reshape(n_vars, -1)  # (V, P*Q)
    order = win.argsort(axis=1)
    ws = win[rows, order]
    rank = np.zeros_like(ws)  # of each sorted window among the variable's distinct ones
    np.cumsum(ws[:, 1:] != ws[:, :-1], axis=1, out=rank[:, 1:])
    counts = rank[:, -1] + 1
    new_pos = np.empty((n_vars, int(counts.max())), dtype=np.int64)
    new_pos[rows, rank] = ws
    padded = counts.min() < new_pos.shape[1]
    if padded:
        _repeat_last(new_pos, counts)
    slot = np.empty_like(rank)
    slot[rows, order] = rank
    slot = slot.reshape(pos.shape + (-1,))
    member = pool.slot[pos]
    changed = vals[:, :, None]  # (V, P, 1, F, n)
    clean = pool.clean[:, cols]
    n_win, shape = new_pos.shape[1], vals.shape[2:]
    step = max(1, BATCH_BYTES // (8 * (k2 + 1) * n_vars * math.prod(shape)))
    out = []
    for a in range(0, n_win, step):
        b = min(n_win, a + step)
        m, s = member, slot
        if b - a < n_win:
            m = np.where((slot >= a) & (slot < b), member, k2)
            s = np.clip(slot - a, 0, b - a - 1)
        patches = np.empty((k2 + 1, n_vars, b - a) + shape, dtype=clean.dtype)
        patches[:k2] = clean[pool.members[new_pos[:, a:b]].transpose(2, 0, 1)][:, :, :, None]
        patches[m, rows[:, :, None], s] = changed
        _quiet(patches, fmt, out=patches)
        # kernels.maxpool2d starts from a copy of member 0 and fmaxes member 0 into it
        best = np.fmax(patches[0], patches[0])
        for j in range(1, k2):
            np.fmax(best, patches[j], out=best)
        out.append(_cast(best, fmt))
    out = out[0] if len(out) == 1 else np.concatenate(out, axis=1)
    if padded:
        _repeat_last(out, counts)
    return new_pos, out


def _frontier_predictions(
    net: MicroNetwork, cache: ActivationCache, i: int, pos: np.ndarray, vals: np.ndarray,
    cols: slice,
) -> np.ndarray:
    """Predicted class of each (var, bit, input) row of the fault frontier
    (``pos``, ``vals``, see :func:`_faulty_outputs`) of layer i's input over
    the cached inputs ``cols``: (V, F, n).

    The frontier goes through ReLU on its values, through Flatten as it is
    and through max-pool by :func:`_pool_frontier`. At the first conv, FC
    or softmax layer, or the end of the net, the rows whose values differ
    in bits from the clean ones are built dense, each a clean input with
    the frontier scattered in, and run on (:func:`_downstream`); the others
    take the clean prediction. Comparing bits, not values, keeps every row
    with a NaN or a zero of the other sign.
    """
    fmt = net.numeric_format
    while i < len(net.layers) and not isinstance(net.layers[i], (Conv2D, FC, Softmax)):
        if isinstance(net.layers[i], ReLU):
            vals = _apply_layer(net.layers[i], vals, fmt)
        elif isinstance(net.layers[i], MaxPool2D):
            pos, vals = _pool_frontier(net.layers[i], cache.pools[i], cols, pos, vals, fmt)
        i += 1
    x = cache.acts[i][cols]
    clean = x.reshape(len(x), -1)
    b = fmt.bits_dtype
    n_vars, _, n_bits, n = vals.shape
    live = np.flatnonzero(np.logical_or.reduce(
        vals.view(b) != clean.T[pos].view(b)[:, :, None], axis=1))
    preds = np.empty((n_vars, n_bits, n), dtype=np.intp)
    preds[...] = cache.preds[cols]
    if len(live):
        # Scattering one (F, n) block per changed position into a copy of
        # every row and then taking the live ones costs a fraction of a
        # scatter per live row.
        a = np.empty((n_vars, n_bits) + clean.shape, dtype=clean.dtype)
        a[...] = clean
        a[np.arange(n_vars)[:, None], :, :, pos] = vals
        a = a.reshape((-1,) + x.shape[1:]).take(live, axis=0)
        preds.put(live, _downstream(net, cache, i, a, cols.start + live % n))
    return preds


def _downstream(
    net: MicroNetwork, cache: ActivationCache, i: int, a: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """Predicted class of each row of ``a``, an input of layer i whose row r
    comes from cached input ``inputs[r]`` and differs from it.

    Before each later conv and FC layer, the rows whose bits equal the clean
    input of that layer are dropped: ReLU and max-pooling mask many faults,
    and a row the fault no longer touches takes the clean prediction.
    Comparing bits, not values, keeps every row with a NaN or a zero of the
    other sign. Every kernel treats batch items alone, so this changes no
    result.
    """
    fmt = net.numeric_format
    preds = cache.preds[inputs]
    rows = np.arange(len(a))
    for j in range(i, len(net.layers)):
        layer = net.layers[j]
        if j > i and isinstance(layer, (Conv2D, FC)):
            clean = cache.acts[j].take(inputs[rows], axis=0)
            differ = a.view(fmt.bits_dtype) != clean.view(fmt.bits_dtype)
            live = np.flatnonzero(np.logical_or.reduce(differ.reshape(len(rows), -1), axis=1))
            a, rows = a.take(live, axis=0), rows[live]
            if not len(rows):
                return preds
        a = _apply_layer(layer, a, fmt, cache.weights64[j])
    preds[rows] = _predict(a)
    return preds


def faulty_predictions(
    net: MicroNetwork,
    fault: FaultSpec,
    profile: NetworkProfile,
    cache: ActivationCache,
    bits,
    var_indices=None,
) -> np.ndarray:
    """Predicted class of every cached input with the fault's variable
    flipped, for each of ``bits``: an int array (len(bits), n_inputs),
    CRASHED where the fault crashes the accelerator. ``fault.site`` names the
    variable; its ``bit_pos`` is not read.

    Given ``var_indices``, each of those variables of ``fault.site``'s
    (layer, type) class is flipped in turn instead, in batches of variables
    (:func:`prediction_batches`): (len(var_indices), len(bits), n_inputs).
    """
    bits = [int(b) for b in bits]
    vs = [fault.site.var_index] if var_indices is None else var_indices
    preds = np.empty((len(vs), len(bits), len(cache.acts[0])), dtype=np.intp)
    for pos, p in prediction_batches(net, fault, profile, cache, bits, vs):
        preds[pos] = p
    return preds[0] if var_indices is None else preds


# --- evaluation ------------------------------------------------------------

@dataclass
class EvalSet:
    inputs: np.ndarray  # (n, *input_shape)
    labels: np.ndarray  # (n,), int

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels disagree in length")
        if len(self.inputs) < 1:
            raise ValueError("evalset must hold at least one input")

    @property
    def size(self) -> int:
        return len(self.inputs)


class _PoolTables(NamedTuple):
    """What the fault frontier needs of one max-pool layer (see
    :func:`_pool_frontier`); positions are flat within one input or
    output."""

    clean: np.ndarray  # (positions, n_inputs): the clean input, quieted (_quiet)
    members: np.ndarray  # (windows, k*k): each window's input positions, in (ky, kz) order
    cover: np.ndarray  # (positions, Q): the windows covering each position, in order
    slot: np.ndarray  # (positions, Q): its member slot in each; k*k where no window reads it


def _pool_tables(layer: MaxPool2D, x: np.ndarray, fmt: NumericFormat) -> _PoolTables:
    """The tables of a max-pool layer whose clean input is ``x`` (n, C, H,
    W). A position covered by fewer than Q windows repeats its last; one
    that no window reads names window 0 and slot k*k, which no maximum
    reads."""
    n, c, h, w = x.shape
    k, s, k2 = layer.kernel, layer.stride, layer.kernel ** 2
    ch, y, z = (g.reshape(-1, 1) for g in np.indices((c, (h - k) // s + 1, (w - k) // s + 1)))
    ky, kz = np.divmod(np.arange(k2), k)
    members = (ch * h + y * s + ky) * w + z * s + kz
    at = np.argsort(members, axis=None, kind="stable")  # by position, then window
    position = members.reshape(-1)[at]
    counts = np.bincount(position, minlength=c * h * w)
    cover = np.zeros((len(counts), max(1, int(counts.max()))), dtype=np.int64)
    slot = np.full(cover.shape, k2, dtype=np.int64)
    rank = np.arange(len(at)) - (np.cumsum(counts) - counts)[position]
    cover[position, rank], slot[position, rank] = np.divmod(at, k2)
    _repeat_last(cover, counts)
    _repeat_last(slot, counts)
    return _PoolTables(np.ascontiguousarray(_quiet(x, fmt).reshape(n, -1).T), members, cover, slot)


class ActivationCache:
    """Clean activations of a whole evalset, shared across fault evaluations:
    ``acts[i]`` is the input of layer i stacked over the inputs,
    (n_inputs, *shape), ``acts[-1]`` the network output and ``preds`` each
    input's predicted class. ``weights64[i]`` is layer i's weight in float64,
    None for a layer without one; ``pools[i]`` the tables of max-pool layer
    i (:class:`_PoolTables`), None for another layer."""

    def __init__(self, net: MicroNetwork, evalset: EvalSet):
        self.weights64 = [
            layer.weight.astype(np.float64) if isinstance(layer, (Conv2D, FC)) else None
            for layer in net.layers
        ]
        self.acts = list(_layer_outputs(net, evalset.inputs, self.weights64))
        self.preds = _predict(self.acts[-1])
        self.pools = [
            _pool_tables(layer, self.acts[i], net.numeric_format)
            if isinstance(layer, MaxPool2D) else None
            for i, layer in enumerate(net.layers)
        ]


def bit_accuracies(
    net: MicroNetwork,
    evalset: EvalSet,
    fault: FaultSpec,
    profile: NetworkProfile,
    cache: ActivationCache,
    bits,
) -> np.ndarray:
    """Accuracy with the fault's variable flipped, for each of ``bits``
    (see :func:`faulty_predictions`). A crashed inference counts as
    incorrect."""
    preds = faulty_predictions(net, fault, profile, cache, bits)
    return np.count_nonzero(preds == evalset.labels, axis=1) / evalset.size


def accuracy(
    net: MicroNetwork,
    evalset: EvalSet,
    fault: FaultSpec | None = None,
    profile: NetworkProfile | None = None,
    cache: ActivationCache | None = None,
) -> float:
    """Fraction of correct predictions; the standard accuracy when no fault
    is given. A crashed inference counts as incorrect."""
    if fault is None:
        preds = _predict(_forward(net, evalset.inputs))
        return np.count_nonzero(preds == evalset.labels) / evalset.size
    if fault.mode is FaultMode.CRASH:
        return 0.0
    if profile is None:
        raise ValueError("faulty accuracy requires the network profile")
    if cache is None:
        cache = ActivationCache(net, evalset)
    return float(bit_accuracies(net, evalset, fault, profile, cache, [fault.site.bit_pos])[0])
