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

Faults are evaluated one variable at a time, over every requested bit of it
and every input of the evalset in one batch (:func:`faulty_predictions`).
The clean activations of the whole evalset are computed once
(:class:`ActivationCache`). The faulted layer's output starts as a copy of
its cached clean output; only the elements that read the flipped value
inside its reuse window are recomputed, and the bits x inputs batch then
runs through the downstream layers as one forward. A batch too large for
BATCH_BYTES goes in chunks of inputs, and a recompute in chunks of output
elements whose (bits, inputs, elements, fan-in + 1) float64 sums fit in
BATCH_BYTES; neither changes a result.

Bit-exactness: a recomputed element is summed sequentially in float64 from
0.0 over its fan-in, in the order of ``kernels.conv2d_elem`` /
``kernels.fc_elem``; every other element is the cached clean value, which
the whole-layer kernels produce. The batched kernels give every batch item
the bits they give it alone, so a faulty inference does not depend on what
else is in its batch. The shared network and the cache are never mutated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
    reuse: int = 1  # only meaningful for REUSE_BOUNDED


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


def _window(var_index: int, total_uses: int, fault: FaultSpec) -> tuple[int, int]:
    """(start, count) of the uses that see the flipped value."""
    if total_uses < 1:
        return 0, 0
    if fault.mode is FaultMode.FULL_CORRUPTION:
        return 0, total_uses
    r = min(max(fault.reuse, 1), total_uses)
    start = var_index % (total_uses - r + 1)
    return start, r


# --- forward pass ----------------------------------------------------------

def _cast(a: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    # Corrupted values may overflow the storage format or be NaN; saturating
    # to +/-Inf (or clipping, for integers) is the modeled behavior, so the
    # cast warnings are noise here.
    with np.errstate(over="ignore", invalid="ignore"):
        if fmt is NumericFormat.INT8:
            return np.clip(np.rint(np.nan_to_num(a)), -128, 127).astype(np.int8)
        return a.astype(fmt.dtype)


def _apply_layer(layer: Layer, a: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    """One layer over a batch: ``a`` has a leading batch axis."""
    if isinstance(layer, Conv2D):
        out = kernels.conv2d(
            a.astype(np.float64), layer.weight.astype(np.float64), layer.stride, layer.pad
        )
        return _cast(out, fmt)
    if isinstance(layer, FC):
        return _cast(kernels.fc(a.astype(np.float64), layer.weight.astype(np.float64)), fmt)
    if isinstance(layer, ReLU):
        return np.maximum(a, a.dtype.type(0))
    if isinstance(layer, MaxPool2D):
        # A maximum is one of its inputs, so it needs no float64 copy.
        return _cast(kernels.maxpool2d(a, layer.kernel, layer.stride), fmt)
    if isinstance(layer, Flatten):
        return a.reshape(len(a), -1)
    if isinstance(layer, Softmax):
        z = a.reshape(len(a), -1).astype(np.float64)
        finite = np.isfinite(z)
        hi = np.where(finite, z, -np.inf).max(axis=1, keepdims=True)
        hi[~finite.any(axis=1)] = 0.0
        e = np.exp(z - hi)
        return _cast(e / e.sum(axis=1, keepdims=True), fmt).reshape(a.shape)
    raise ValueError(f"unsupported layer kind: {type(layer).__name__}")


def _predict(logits: np.ndarray) -> np.ndarray:
    """Argmax of each batch item, NaN losing every comparison; ties break to
    the lowest index."""
    z = logits.reshape(len(logits), -1).astype(np.float64)
    z[np.isnan(z)] = -np.inf
    return np.argmax(z, axis=1)


def _layer_outputs(net: MicroNetwork, inputs: np.ndarray):
    """The batch ``inputs`` in the storage format, then each layer's output."""
    a = np.asarray(inputs, dtype=net.numeric_format.dtype)
    if a.shape[1:] != tuple(net.input_shape):
        raise ValueError(f"input shape {a.shape[1:]} != {net.input_shape}")
    yield a
    with np.errstate(all="ignore"):
        for layer in net.layers:
            a = _apply_layer(layer, a, net.numeric_format)
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
# activation over the batch's inputs, and the recompute's products and sums.
BATCH_BYTES = 1 << 25


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
    masks = np.left_shift(1, bits).astype(fmt.bits_dtype).reshape((-1,) + (1,) * values.ndim)
    return (values.view(fmt.bits_dtype) ^ masks).view(fmt.dtype)


def _conv_terms(layer: Conv2D, x: np.ndarray, o, y, z):
    """Clean products x * w of conv output elements (o[e], y[e], z[e]) over n
    inputs, in fan-in order: (n, E, K), 0.0 where the element kernel skips a
    padded position; with the fan-in positions' input values in float64
    (n, E, K) and whether they lie inside the input (E, K)."""
    _, ih, iw = x.shape[1:]
    _, ic, kh, kw = layer.weight.shape
    c, ky, kz = (g.reshape(-1) for g in np.indices((ic, kh, kw)))
    sy = (y * layer.stride - layer.pad)[:, None] + ky
    sz = (z * layer.stride - layer.pad)[:, None] + kz
    inside = (sy >= 0) & (sy < ih) & (sz >= 0) & (sz < iw)
    xs = x[:, c, np.clip(sy, 0, ih - 1), np.clip(sz, 0, iw - 1)].astype(np.float64)
    w64 = layer.weight.astype(np.float64).reshape(len(layer.weight), -1)
    return np.where(inside, xs * w64[o], 0.0), xs, inside


def _faulty_outputs(
    layer: Layer,
    x: np.ndarray,
    clean: np.ndarray,
    fmt: NumericFormat,
    var_type: FFType,
    var_index: int,
    bits: list[int],
    fault: FaultSpec,
) -> np.ndarray:
    """One layer's output over a batch of inputs with one of its variables
    flipped, for each of ``bits``: (F, *clean.shape).

    ``x`` and ``clean`` are the layer's cached clean input and output. The
    output elements that read the flipped value inside its reuse window are
    recomputed, summed sequentially (``kernels.dot_sequential``); every other
    element is copied from ``clean``.
    """
    n = len(x)
    out = np.broadcast_to(clean, (len(bits),) + clean.shape).copy()
    flat = out.reshape(len(bits), n, -1)
    if var_type is FFType.OUTPUT_ACTIVATION:
        values = clean.reshape(n, -1)
        if var_index >= values.shape[1]:
            raise ValueError("var_index out of range for output activation")
        flat[:, :, var_index] = _flipped(values[:, var_index], bits, fmt)
        return out
    if var_type is FFType.INPUT_ACTIVATION:
        xf = _flipped(x.reshape(n, -1)[:, var_index], bits, fmt)  # (F, n)
        if isinstance(layer, ReLU):
            flat[:, :, var_index] = np.where(xf < 0, xf.dtype.type(0), xf)
            return out
        xf64 = xf.astype(np.float64)

    # Each summing branch names the output elements to recompute (elems), the
    # fan-in position at which each reads the flipped value (hit_k), and
    # part(sel) -> (terms, faulty) for the elements elems[sel], as
    # kernels.dot_sequential takes them.
    if var_type is FFType.WEIGHT:
        w = getattr(layer, "weight", None)
        if w is None:
            raise ValueError("weight fault on a layer without weights")
        wf = _flipped(w.reshape(-1)[var_index : var_index + 1], bits, fmt).astype(np.float64)
        if isinstance(layer, FC):
            # Each FC weight is read once per inference.
            r, c = divmod(var_index, w.shape[1])
            elems = np.array([r])
            hit_k = np.array([c])
            x64 = x.astype(np.float64)

            def part(sel):
                terms = (x64 * w[r].astype(np.float64))[:, None, :]
                return terms, wf[:, :, None] * x64[:, c][None, :, None]
        else:
            assert isinstance(layer, Conv2D)
            o, c, ky, kz = np.unravel_index(var_index, w.shape)
            _, oh, ow = clean.shape[1:]
            start, count = _window(var_index, oh * ow, fault)
            u = np.arange(start, start + count)
            elems = o * oh * ow + u
            oc, (y, z) = np.full(count, o), np.divmod(u, ow)
            k = np.ravel_multi_index((c, ky, kz), w.shape[1:])
            hit_k = np.full(count, k)

            def part(sel):
                terms, xs, inside = _conv_terms(layer, x, oc[sel], y[sel], z[sel])
                return terms, np.where(inside[:, k], wf[:, :, None] * xs[None, :, :, k], 0.0)
    else:
        assert var_type is FFType.INPUT_ACTIVATION
        if isinstance(layer, FC):
            start, count = _window(var_index, layer.weight.shape[0], fault)
            elems = np.arange(start, start + count)
            hit_k = np.full(count, var_index)
            x64 = x.astype(np.float64)

            def part(sel):
                w64 = layer.weight[elems[sel]].astype(np.float64)
                return x64[:, None, :] * w64[None], xf64[:, :, None] * w64[:, var_index]
        elif isinstance(layer, Conv2D):
            c, iy, iz = np.unravel_index(var_index, x.shape[1:])
            n_oc, _, kh, kw = layer.weight.shape
            _, oh, ow = clean.shape[1:]
            # Output positions whose receptive field covers (iy, iz), row-major;
            # each is used once per output channel.
            dy = iy - (np.arange(oh) * layer.stride - layer.pad)
            dz = iz - (np.arange(ow) * layer.stride - layer.pad)
            py, pz = np.meshgrid(np.flatnonzero((dy >= 0) & (dy < kh)),
                                 np.flatnonzero((dz >= 0) & (dz < kw)), indexing="ij")
            py, pz = py.reshape(-1), pz.reshape(-1)
            start, count = _window(var_index, len(py) * n_oc, fault)
            p, o = np.divmod(np.arange(start, start + count), n_oc)
            y, z = py[p], pz[p]
            elems = (o * oh + y) * ow + z
            ky, kz = dy[y], dz[z]
            hit_k = (c * kh + ky) * kw + kz
            w_hit = layer.weight[o, c, ky, kz].astype(np.float64)

            def part(sel):
                terms, _, _ = _conv_terms(layer, x, o[sel], y[sel], z[sel])
                return terms, xf64[:, :, None] * w_hit[sel]
        elif isinstance(layer, MaxPool2D):
            c, iy, iz = np.unravel_index(var_index, x.shape[1:])
            k, s = layer.kernel, layer.stride
            _, oh, ow = clean.shape[1:]
            dy = iy - np.arange(oh) * s
            dz = iz - np.arange(ow) * s
            wy, wz = np.meshgrid(np.flatnonzero((dy >= 0) & (dy < k)),
                                 np.flatnonzero((dz >= 0) & (dz < k)), indexing="ij")
            wy, wz = wy.reshape(-1), wz.reshape(-1)
            start, count = _window(var_index, len(wy), fault)
            y, z = wy[start : start + count], wz[start : start + count]
            ky, kz = (g.reshape(-1) for g in np.indices((k, k)))
            patches = x[:, c, (y * s)[:, None] + ky, (z * s)[:, None] + kz].astype(np.float64)
            # C order: numpy's fmax.reduce gives NaN for a signalling NaN (a
            # flipped exponent can make one) on a contiguous axis, but the
            # other operand on a strided one; the reference takes the former.
            # (F, n, E, k*k)
            patches = np.broadcast_to(patches, (len(bits),) + patches.shape).copy()
            patches[:, :, np.arange(count), dy[y] * k + dz[z]] = xf64[:, :, None]
            flat[:, :, (c * oh + y) * ow + z] = _cast(np.fmax.reduce(patches, axis=3), fmt)
            return out
        else:
            raise ValueError(f"input-activation fault unsupported on {type(layer).__name__}")
    # Elements go in chunks whose (F, n, E, fan-in + 1) sums stay within
    # BATCH_BYTES; each element is summed alone, so chunking changes no result.
    fan_in = layer.weight[0].size
    step = max(1, BATCH_BYTES // (8 * n * len(bits) * (fan_in + 1)))
    for i in range(0, len(elems), step):
        sel = slice(i, i + step)
        terms, faulty = part(sel)
        flat[:, :, elems[sel]] = _cast(kernels.dot_sequential(terms, hit_k[sel], faulty), fmt)
    return out


def faulty_predictions(
    net: MicroNetwork,
    fault: FaultSpec,
    profile: NetworkProfile,
    cache: ActivationCache,
    bits,
) -> np.ndarray:
    """Predicted class of every cached input with the fault's variable
    flipped, for each of ``bits``: an int array (len(bits), n_inputs),
    CRASHED where the fault crashes the accelerator. ``fault.site`` names the
    variable; its ``bit_pos`` is not read.

    The faulted layer's output starts from its cached clean output, and the
    bits x inputs batch then runs through the downstream layers as one
    forward (in chunks of inputs, for a large evalset).
    """
    bits = [int(b) for b in bits]
    n = len(cache.acts[0])
    if fault.mode is FaultMode.CRASH:
        return np.full((len(bits), n), CRASHED)
    site = fault.site
    if site.var_type is FFType.CONTROL_LOCAL:
        layer_id, widx = _local_control_target(net, profile, site.var_index)
        site = SoftwareFaultSite(layer_id, FFType.WEIGHT, widx, site.bit_pos)
    if site.layer_id == CONTROL_LAYER:
        raise ValueError("control-global sites must carry CRASH mode")

    net_index = profile.layer(site.layer_id).net_index
    if net_index < 0 or net_index >= len(net.layers):
        raise ValueError(f"profile layer {site.layer_id} has no backing network layer")
    fmt = net.numeric_format
    # Inputs go in chunks whose float64 activations stay within BATCH_BYTES;
    # every kernel treats batch items alone, so chunking changes no result.
    widest = max(map(math.prod, net._shapes[net_index:]))
    step = max(1, BATCH_BYTES // (8 * len(bits) * widest))
    preds = []
    with np.errstate(all="ignore"):
        for i in range(0, n, step):
            a = _faulty_outputs(
                net.layers[net_index], cache.acts[net_index][i : i + step],
                cache.acts[net_index + 1][i : i + step], fmt,
                site.var_type, site.var_index, bits, fault,
            )
            a = a.reshape((-1,) + a.shape[2:])
            for layer in net.layers[net_index + 1 :]:
                a = _apply_layer(layer, a, fmt)
            preds.append(_predict(a).reshape(len(bits), -1))
    return np.concatenate(preds, axis=1)


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


class ActivationCache:
    """Clean activations of a whole evalset, shared across fault evaluations:
    ``acts[i]`` is the input of layer i stacked over the inputs,
    (n_inputs, *shape), and ``acts[-1]`` the network output."""

    def __init__(self, net: MicroNetwork, evalset: EvalSet):
        self.acts = list(_layer_outputs(net, evalset.inputs))


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
