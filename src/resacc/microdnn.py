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
one batch (:func:`prediction_batches`, :func:`faulty_predictions`); the
accuracy of one site (:func:`accuracy`) counts the correct labels of such a
batch. The flipped values come from ``formats.flip_bits``. The clean
activations of the whole evalset, the weights in float64 and the receptive
field of each conv, FC and max-pool layer are computed once
(:class:`ActivationCache`). A receptive field (:class:`_ReceptiveField`)
names the input position each fan-in slot of each window reads and, the
other way, the windows that read each position and the slot at which they
do. A conv window is one spatial output position, read by every output
channel; an FC layer is one window; a max-pool window is one output element.
It is the one place the engine works out which outputs a value reaches:
weight (o, k) is read at slot k of every window, for output channel o, and
an input position by each window that covers it, once per output channel.
Only the elements of the faulted layer's output that read a flipped value
inside its reuse window are recomputed, those of all the chunk's variables
in one sum. They form the fault frontier, a flat list with one entry per
changed element: its variable, its flat position and its values under
every bit and input; a variable that changes nothing has no entry. The
frontier, not whole rows, goes through the layers that sum nothing: ReLU on
its values, Flatten as it is, and max-pool by recomputing only the windows
that cover a changed position, one entry per variable and window. At the
first conv, FC or softmax layer (or the end of the net), only the vars x
bits x inputs rows whose values differ in bits from the clean ones are
built dense and run on to the argmax in one loop
(:func:`_frontier_predictions`); the rest take the clean prediction. A
chunk of several variables finds those live rows by one float32 product of
a one-hot (variable, entry) matrix and the entries' differing values
(:func:`_live_rows`). That is the one filter: few live rows turn clean
again before a later conv or FC layer (on the benchmark's LeNet-5, 56 of
2,517 before FC1 over the sites an importance-sampled run draws), and
every kernel treats batch items alone, so carrying them on changes no
result. Local-control variables are grouped by the layer their hashed
weight lands in. A chunk holds as many variables as keep its rows within
BATCH_BYTES in float64, each row sized by the most elements it holds at once
(:func:`_row_width`): the widest activation from the first conv, FC or
softmax layer after the faulted one on, the variable's frontier before
that, or the terms of one recomputed element, whichever is largest. The
frontier has one entry per use of the flipped value inside its reuse
window, and each max-pool on the way may spread an entry to every window
that covers it, up to its output size. A single variable too large for
that goes in chunks of inputs, a recompute in chunks of output elements
whose (elements, bits, inputs, fan-in + 1) float64 sums fit in
BATCH_BYTES, and a frontier max-pool in chunks of entries whose window
patches fit in it. No chunking changes a result.

A live call (:func:`accuracy` of one site: one variable, one bit, every
input) takes this path once, as a chunk of one variable and one bit. Its
live rows are then the inputs whose frontier values differ, found by one
OR over the entries and built from their clean inputs alone, and its one
flipped term is summed in place of the clean one (``kernels.dot_sequential``).
On the benchmark's LeNet-5 (20 inputs, one core of a shared 2-vCPU host,
numpy 2.4.6), a call costs about 0.3 ms. About two fifths of that is the
per-row arithmetic of the dense layers (conv2's and the FC layers' BLAS
products, softmax); the rest is per-call numpy work whose cost does not
depend on the number of inputs, so a pass over 1 input costs about half of
one over 20.

Bit-exactness: a recomputed element is summed sequentially in float64 from
0.0 over its fan-in, in the order of ``kernels.conv2d_elem`` /
``kernels.fc_elem``; a padded slot reads a stored 0.0, which adds nothing
to such a sum, and a flipped weight's product there, which may be Inf or
NaN, is taken as 0.0. Every other element is the cached clean value, which
the whole-layer kernels produce. A frontier max-pool window takes the same
fmax chain over the same members as ``kernels.maxpool2d``. The batched
kernels give every batch item the bits they give it alone, so a faulty
inference does not depend on what else is in its batch, nor on which rows
were dropped. Max-pool quiets signalling NaNs first, since numpy's fmax
answers those by code path; the recompute of a fault at a max-pool input is
the one exception (see :func:`_faulty_outputs`). FP16
ReLU works on the bit patterns and FP16 max-pool in float64, since numpy
does FP16 arithmetic in software; both give the FP16 results. Softmax works
class-major, on a (classes, batch) copy, and sums its classes in the order
numpy's pairwise row sum adds them (``kernels.sum_pairwise``), the order
of a one-input softmax. The shared network and the cache are never
mutated.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels
from .formats import NumericFormat, flip_bits
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
    _shapes: list[tuple[int, ...]] = field(init=False, repr=False)

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

_LOWEST = np.finfo(np.float64).min


def _cast(a: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    """``a`` in the storage format, C-contiguous. Corrupted values may
    overflow the storage format or be NaN; saturating to +/-Inf (or
    clipping, for integers) is the modeled behavior, so its callers, like
    every caller of :func:`_apply_layer`, run under
    ``np.errstate(all="ignore")``."""
    if fmt is NumericFormat.INT8:
        # Clipping takes +/-Inf to the bounds and leaves NaN, which becomes 0.
        r = np.clip(np.rint(a), -128, 127)
        r[np.isnan(r)] = 0
        return r.astype(np.int8, order="C")
    return a.astype(fmt.dtype, order="C", copy=False)


def _quiet(a: np.ndarray, fmt: NumericFormat, out: np.ndarray | None = None) -> np.ndarray:
    """``a`` in the dtype max-pool takes its maxima in, signalling NaNs made
    quiet (into ``out``, if given). Multiplying by 1.0 quiets them:
    float32/float64 fmax ignores those or not by code path, so by what else
    is in the batch, and FP16 fmax always ignores them. A maximum is one of
    its inputs, so float64 holds it exactly; FP16 goes through float64
    because numpy's FP16 arithmetic is software. Quieting raises numpy's
    invalid-value warning, which the caller silences."""
    if fmt is NumericFormat.FP16:
        return np.multiply(a, 1.0, dtype=np.float64, out=out)
    if fmt is NumericFormat.FP32:
        return np.multiply(a, np.float32(1.0), out=out)
    return a


def _apply_layer(
    layer: Layer, a: np.ndarray, fmt: NumericFormat, w64: np.ndarray | None = None
) -> np.ndarray:
    """One layer over a batch: ``a`` has a leading batch axis. ``w64`` is the
    layer's weight in float64, converted here when not given. The caller
    silences numpy's floating-point warnings: faulty values overflow and
    meet NaN and Inf as a matter of course.

    Softmax works class-major, on a (classes, batch) float64 copy, so that
    its reductions and broadcasts run along the batch, not along rows of a
    few logits: the largest finite logit of each item, then exp, the class
    sum in the order numpy's row sum adds (``kernels.sum_pairwise``), and
    one cast back to (batch, classes)."""
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
        if a.ndim != 2:
            return _apply_layer(layer, a.reshape(len(a), -1), fmt).reshape(a.shape)
        z = a.T.astype(np.float64, order="C")
        # An item with no finite logit may take any finite shift: its logits
        # minus it stay -Inf, +Inf and NaN.
        z -= np.maximum.reduce(z, axis=0, where=np.isfinite(z), initial=_LOWEST)
        np.exp(z, out=z)
        z /= kernels.sum_pairwise(z)
        return _cast(z.T, fmt)
    raise ValueError(f"unsupported layer kind: {type(layer).__name__}")


def _predict(logits: np.ndarray) -> np.ndarray:
    """Argmax of each batch item, NaN losing every comparison; ties break to
    the lowest index."""
    z = logits.reshape(len(logits), -1).astype(np.float64)
    z[np.isnan(z)] = -np.inf
    return z.argmax(axis=1)


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


def clean_activations(net: MicroNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Per-layer inputs plus the final output of one input, all in the
    storage format."""
    return [a[0] for a in _layer_outputs(net, np.asarray(x)[None])]


# --- faulty forward --------------------------------------------------------

CRASHED = -1  # the prediction recorded for an inference the fault crashed
# Bound, in bytes, on each float64 array of a faulty batch: its rows, each
# as wide as the most elements one (var, bit, input) row holds at once
# (_row_width), and the recompute's products and sums and the frontier
# max-pool's patches.
BATCH_BYTES = 1 << 20


def _local_control_targets(
    net: MicroNetwork, profile: NetworkProfile, var_indices
) -> tuple[np.ndarray, np.ndarray]:
    """The datapath weight each local-control variable of ``var_indices``
    corrupts, as (layer ids, flat weight indices): variable v takes weight
    (v * 2654435761) mod W of the network's W weights, a Knuth
    multiplicative hash, counted through the profile's layers in order."""
    total = sum(l.weight.size for l in net.layers if hasattr(l, "weight"))
    if total == 0:
        raise ValueError("network has no weights for local-control mapping")
    held = [(l.layer_id, net.layers[l.net_index].weight.size) for l in profile.layers
            if hasattr(net.layers[l.net_index], "weight")]
    layer_ids, sizes = np.array(held, dtype=np.int64).reshape(-1, 2).T
    ends = np.cumsum(sizes)
    # v is reduced first, so the product stays below W**2 and inside int64.
    gidx = np.asarray(var_indices, dtype=np.int64) % total * (2654435761 % total) % total
    at = np.searchsorted(ends, gidx, side="right")
    if np.any(at == len(ends)):
        raise ValueError("the profile's layers hold fewer weights than the network")
    return layer_ids[at], gidx - (ends - sizes)[at]


def _check_vars(vs: np.ndarray, count: int, var_type: FFType) -> None:
    listed = vs.tolist()
    if listed and not (0 <= min(listed) and max(listed) < count):
        raise ValueError(f"var_index out of range for {var_type.value}: [0, {count})")


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's variable and its rank among that variable's elements,
    in variable order, for ``counts[v]`` elements of variable v."""
    return np.nonzero(np.arange(counts.max(initial=0)) < counts[:, None])


def _faulty_outputs(
    net: MicroNetwork,
    cache: ActivationCache,
    i: int,
    cols: slice,
    var_type: FFType,
    var_indices: np.ndarray,
    bits: list[int],
    fault: FaultSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fault frontier of layer i's output over the cached inputs
    ``cols``, with each of its variables ``var_indices`` flipped in turn,
    for each of ``bits``: (owner, pos, vals), one entry per changed output
    element. ``owner`` (E,) is the entry's variable, as an index into
    ``var_indices``, ``pos`` (E,) the element's flat position within one
    output and ``vals`` (E, F, n) its values under each bit and input.
    Entries are in owner order; a variable that changes no element has
    none. Every element without an entry is that of the cached output.

    The output elements that read a flipped value inside its reuse window
    are looked up in the layer's receptive field (:class:`_ReceptiveField`)
    and recomputed, those of all the variables in one batch: a conv or FC
    element summed sequentially (``kernels.dot_sequential``), a max-pool
    element as an fmax over its window.
    """
    layer, fmt = net.layers[i], net.numeric_format
    w64, rf = cache.weights64[i], cache.fields[i]
    x, clean = cache.acts[i][cols], cache.acts[i + 1][cols]
    n, n_bits = len(x), len(bits)
    vs = np.asarray(var_indices, dtype=np.int64)
    if var_type is FFType.OUTPUT_ACTIVATION:
        values = clean.reshape(n, -1)
        _check_vars(vs, values.shape[1], var_type)
        return np.arange(len(vs)), vs, flip_bits(values[:, vs].T, bits, fmt).swapaxes(0, 1)

    # Each output element to recompute is named by its output channel o and
    # window u, the variable it belongs to (owner), in variable order, and
    # the window slot at which it reads the flipped value (hit_k).
    if var_type is FFType.WEIGHT:
        if w64 is None:
            raise ValueError("weight fault on a layer without weights")
        _check_vars(vs, w64.size, var_type)
        wf = flip_bits(layer.weight.reshape(-1)[vs], bits, fmt).astype(np.float64)  # (F, V)
        # Weight (o, k) is read by output channel o at slot k of every window,
        # so every variable has the same number of elements.
        o, k = np.divmod(vs, rf.reads.shape[1])
        start, count = _window(vs, len(rf.reads), fault)
        owner, rank = np.divmod(np.arange(len(vs) * count), count)
        o, u, hit_k = o[owner], start[owner] + rank, k[owner]
    else:
        assert var_type is FFType.INPUT_ACTIVATION
        _check_vars(vs, x[0].size, var_type)
        xf = flip_bits(x.reshape(n, -1)[:, vs].T, bits, fmt).swapaxes(0, 1)  # (V, F, n)
        if isinstance(layer, ReLU):
            return np.arange(len(vs)), vs, _apply_layer(layer, xf, fmt)
        if rf is None:
            raise ValueError(f"input-activation fault unsupported on {type(layer).__name__}")
        xf64 = xf.astype(np.float64)
        # Position p is read by count[p] windows, each once per output
        # channel (a max-pool window has one): window-major, channel-minor.
        n_oc = 1 if w64 is None else len(w64)
        start, count = _window(vs, rf.count[vs] * n_oc, fault)
        owner, rank = _spread(count)
        q, o = np.divmod(start[owner] + rank, n_oc)
        u, hit_k = rf.cover[vs[owner], q], rf.slot[vs[owner], q]
    n_win, n_slots = rf.reads.shape
    elems = o * n_win + u

    # recompute(sel) -> (E, F, n), the float64 values of the elements [sel].
    if w64 is None:
        xt = x.reshape(n, -1).T

        def recompute(sel):
            e = np.arange(len(u[sel]))
            # Unlike every other max-pool here, this one does not quiet
            # signalling NaNs: a flipped input that is one (a flipped
            # exponent can make one) wins every window it is in, as
            # numpy's fmax.reduce answers it on a contiguous axis, which
            # is why the patches are C-ordered (on a strided axis it
            # gives the other operand). The reference engine does the
            # same, and the committed benchmark archive records it;
            # tests/test_engine.py pins four A(j) that quieting would
            # move. (E, F, n, k*k)
            patches = np.empty((len(e), n_bits, n, n_slots))
            patches[:] = xt.take(rf.reads[u[sel]], axis=0).swapaxes(1, 2)[:, None]
            patches[e, :, :, hit_k[sel]] = xf64[owner[sel]]
            return np.fmax.reduce(patches, axis=3)
    else:
        w = w64.reshape(len(w64), -1)
        xt = rf.clean[:, cols]
        pads = getattr(layer, "pad", 0) > 0

        def recompute(sel):
            reads, wk = rf.reads[u[sel]].T, w[o[sel]].T  # (K, E)
            xs = xt.take(reads, axis=0)  # (K, E, n)
            at = hit_k[sel], np.arange(reads.shape[1])
            if var_type is FFType.WEIGHT:
                # A flipped weight may be Inf or NaN: where its slot reads
                # padding it is zeroed, so the product is the 0.0 stored
                # there, not NaN. (E, F)
                w_hit = wf[:, owner[sel]].T
                if pads:
                    w_hit[reads[at] >= len(rf.count)] = 0.0
                faulty = w_hit[:, :, None] * xs[at][:, None, :]
            else:
                faulty = xf64[owner[sel]] * wk[at][:, None, None]
            xs *= wk[:, :, None]  # the clean products
            return kernels.dot_sequential(xs, hit_k[sel], faulty)
    # Elements go in chunks whose (E, F, n, fan-in + 1) sums, or (E, F, n,
    # k*k) pool patches, stay within BATCH_BYTES; each element is computed
    # alone, so chunking changes no result.
    per_elem = n_slots if w64 is None else n_slots + 1
    step = max(1, BATCH_BYTES // (8 * n * n_bits * per_elem))
    # A lone chunk is returned as cast; no elements make no recompute call
    # (dot_sequential takes the least hit position).
    if 0 < len(elems) <= step:
        return owner, elems, _cast(recompute(slice(None)), fmt)
    vals = np.empty((len(elems), n_bits, n), dtype=clean.dtype)
    for j in range(0, len(elems), step):
        vals[j : j + step] = _cast(recompute(slice(j, j + step)), fmt)
    return owner, elems, vals


def _row_width(cache: ActivationCache, k: int, var_type: FFType, fault: FaultSpec) -> int:
    """The most elements one (var, bit, input) row of a ``var_type`` fault
    at layer k holds at once: its dense part, the widest activation from
    the first conv, FC or softmax layer after k on (or the output), its
    fault frontier, the entries of one variable at any layer before that,
    or the terms of one recomputed element of layer k, whichever is
    largest. The recompute goes in chunks of elements, but takes at least
    one over all the batch's rows: a fan-in far wider than the layers after
    it would otherwise take many times BATCH_BYTES.

    The frontier of layer k's output has one entry per use of the flipped
    value inside its reuse window: a weight is used once per window, an
    input position once per output channel of each window that reads it
    (at most ``cover.shape[1]`` windows), and an output activation or a
    ReLU input once. Each max-pool on the way spreads an entry to every
    window that covers it, up to the pool's output size. The per-layer
    parts are in ``cache.onward``.
    """
    dense, pools, recomputed = cache.onward[k]
    terms, uses = recomputed.get(var_type, (0, 1))
    # The window length of _window, in Python ints: a live call pays this.
    entries = uses if fault.mode is FaultMode.FULL_CORRUPTION else min(fault.reuse, uses)
    width = max(dense, terms, entries)
    for spread, size in pools:
        entries = min(entries * spread, size)
        width = max(width, entries)
    return width


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
        layer_ids, vs = _local_control_targets(net, profile, vs)
        groups = [(lid, np.flatnonzero(layer_ids == lid)) for lid in np.unique(layer_ids)]
        var_type = FFType.WEIGHT
    elif fault.site.layer_id == CONTROL_LAYER:
        raise ValueError("control-global sites must carry CRASH mode")
    else:
        groups = [(fault.site.layer_id, np.arange(len(vs)))]
    fmt = net.numeric_format
    for layer_id, positions in groups:
        k = profile.layer(int(layer_id)).net_index
        if k < 0 or k >= len(net.layers):
            raise ValueError(f"profile layer {layer_id} has no backing network layer")
        # A batch holds as many (var, bit, input) rows as keep each row's
        # widest part (:func:`_row_width`) within BATCH_BYTES in float64; a
        # variable too large for that goes in chunks of inputs. Every kernel
        # treats batch items alone, so chunking changes no result.
        rows = max(1, BATCH_BYTES // (8 * _row_width(cache, k, var_type, fault)))
        var_step = max(1, rows // max(1, len(bits) * n))
        in_step = max(1, rows // max(1, len(bits)))
        for i in range(0, len(positions), var_step):
            pos = positions[i : i + var_step]
            preds = []
            with np.errstate(all="ignore"):
                for j in range(0, n, in_step):
                    cols = slice(j, min(n, j + in_step))
                    front = _faulty_outputs(net, cache, k, cols, var_type, vs[pos], bits, fault)
                    preds.append(_frontier_predictions(net, cache, k + 1, len(pos), *front,
                                                       cols))
            yield pos, preds[0] if len(preds) == 1 else np.concatenate(preds, axis=2)


def _pool_frontier(
    rf: _ReceptiveField, cols: slice, owner: np.ndarray, pos: np.ndarray, vals: np.ndarray,
    fmt: NumericFormat,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fault frontier (owner, pos, vals) of a max-pool layer's output
    from that of its input (see :func:`_faulty_outputs`) over the cached
    inputs ``cols``.

    Only the windows that cover a changed position are recomputed, as
    :func:`_apply_layer` computes them: the clean members from the layer's
    receptive field ``rf`` with the changed ones scattered in, quieted
    (:func:`_quiet`), fmax'd in the (ky, kz) order of ``kernels.maxpool2d``,
    and cast. One output entry is made per distinct (owner, window) pair,
    and each input entry goes to its slot of each window that covers it, so
    the scatter takes O(E) index work. Output entries go in chunks whose
    (k*k + 1, entries, F, n) patches stay within BATCH_BYTES; slot k*k
    takes the changed values that no window of the chunk reads.
    """
    n_win, k2 = rf.reads.shape
    covering = owner[:, None] * n_win + rf.cover[pos]  # (E, Q)
    # The distinct keys, as np.unique finds them, for a fraction of its cost
    # on a few entries.
    key = np.sort(covering, axis=None)
    distinct = np.empty(len(key), dtype=bool)
    distinct[:1] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    key = key[distinct]
    entry = np.searchsorted(key, covering)  # the output entry of each covering window
    new_owner, new_pos = np.divmod(key, n_win)
    member = rf.slot[pos]
    changed = vals[:, None]  # (E, 1, F, n)
    clean = rf.clean[:, cols]
    shape = vals.shape[1:]
    out = np.empty((len(key),) + shape, dtype=vals.dtype)
    step = max(1, BATCH_BYTES // (8 * (k2 + 1) * math.prod(shape)))
    for a in range(0, len(key), step):
        b = min(len(key), a + step)
        m, s = member, entry
        if b - a < len(key):
            m = np.where((entry >= a) & (entry < b), member, k2)
            s = np.clip(entry - a, 0, b - a - 1)
        patches = np.empty((k2 + 1, b - a) + shape, dtype=clean.dtype)
        patches[:k2] = clean.take(rf.reads[new_pos[a:b]].T, axis=0)[:, :, None]
        patches[m, s] = changed
        _quiet(patches, fmt, out=patches)
        # kernels.maxpool2d starts from a copy of member 0 and fmaxes member 0 into it
        best = np.fmax(patches[0], patches[0])
        for j in range(1, k2):
            np.fmax(best, patches[j], out=best)
        out[a:b] = _cast(best, fmt)
    return new_owner, new_pos, out


def _live_rows(n_vars: int, owner: np.ndarray, differ: np.ndarray) -> np.ndarray:
    """The flat (var, bit, input) indices of the rows of ``n_vars``
    variables in which a frontier entry differs from the clean value:
    ``differ`` (E, F, n) flags the values of each entry, whose variable is
    ``owner`` (E,).

    Several variables count their differing entries by one product of a
    one-hot (V, E) matrix and the (E, F*n) flags. A count is at most E,
    which BATCH_BYTES keeps far below 2**24, so float32 holds it exactly."""
    _, n_bits, n = differ.shape
    if n_vars == 1:
        return np.logical_or.reduce(differ, axis=0).reshape(-1).nonzero()[0]
    one_hot = (owner == np.arange(n_vars)[:, None]).astype(np.float32)
    counts = one_hot @ differ.reshape(len(owner), n_bits * n).astype(np.float32)
    return counts.reshape(-1).nonzero()[0]


def _frontier_predictions(
    net: MicroNetwork, cache: ActivationCache, i: int, n_vars: int, owner: np.ndarray,
    pos: np.ndarray, vals: np.ndarray, cols: slice,
) -> np.ndarray:
    """Predicted class of each (var, bit, input) row of the fault frontier
    (``owner``, ``pos``, ``vals``, see :func:`_faulty_outputs`) of layer i's
    input over the cached inputs ``cols``, for ``n_vars`` variables:
    (n_vars, F, n). A variable with no entry takes the clean predictions.

    The frontier goes through ReLU on its values, through Flatten as it is
    and through max-pool by :func:`_pool_frontier`. At the first conv, FC
    or softmax layer, or the end of the net, the rows whose values differ
    in bits from the clean ones are built dense, each a clean input with
    the frontier scattered in, and run on to the argmax; the others take
    the clean prediction. Comparing bits, not values, keeps every row with
    a NaN or a zero of the other sign. Every kernel treats batch items
    alone, so which rows run changes no result.
    """
    fmt = net.numeric_format
    while i < len(net.layers) and not isinstance(net.layers[i], (Conv2D, FC, Softmax)):
        if isinstance(net.layers[i], ReLU):
            vals = _apply_layer(net.layers[i], vals, fmt)
        elif isinstance(net.layers[i], MaxPool2D):
            owner, pos, vals = _pool_frontier(cache.fields[i], cols, owner, pos, vals, fmt)
        i += 1
    x = cache.acts[i][cols]
    clean = x.reshape(len(x), -1)
    b = fmt.bits_dtype
    _, n_bits, n = vals.shape
    live = _live_rows(n_vars, owner, vals.view(b) != clean.T[pos].view(b)[:, None])
    preds = np.empty((n_vars, n_bits, n), dtype=np.intp)
    preds[...] = cache.preds[cols]
    if not len(live):
        return preds
    if n_vars == 1:
        # Every entry is in every row: each live row is its clean input with
        # the entries' values for its bit and input scattered in.
        a = clean.take(live % n, axis=0)
        a[:, pos] = vals.reshape(len(pos), -1)[:, live].T
    else:
        # Scattering one (F, n) block per entry into a copy of every row and
        # then taking the live ones costs a fraction of a scatter per live row.
        a = np.empty((n_vars, n_bits) + clean.shape, dtype=clean.dtype)
        a[...] = clean
        a[owner, :, :, pos] = vals
        a = a.reshape(-1, clean.shape[1]).take(live, axis=0)
    a = a.reshape((-1,) + x.shape[1:])
    for j in range(i, len(net.layers)):
        a = _apply_layer(net.layers[j], a, fmt, cache.weights64[j])
    preds.put(live, _predict(a))
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
        if len(pos) == len(vs):
            preds = p  # one batch of every variable, as a live call makes
        else:
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


class _ReceptiveField(NamedTuple):
    """Which input positions each output of one conv, FC or max-pool layer
    reads, and the reverse; positions are flat within one input. A window
    is one spatial output position of a conv (read by every output
    channel), the one output of an FC layer, or one output element of a
    max-pool; its K slots are the fan-in of an output element in the order
    the element kernels sum it, (channel, row, column) for a conv, and the
    (ky, kz) order of ``kernels.maxpool2d`` for a max-pool. Each input
    position has Q cover slots, Q the most windows that read any one
    position: one per window that reads it, in window order, and each slot
    left over names its first window (window 0 if none reads it) and slot
    K, which no window has."""

    reads: np.ndarray  # (windows, K): the position each slot reads; P, the input size, for padding
    cover: np.ndarray  # (P, Q): the windows that read each position, in order
    slot: np.ndarray  # (P, Q): its slot in each of those windows
    count: np.ndarray  # (P,): how many windows read each position
    # (P + 1, n_inputs): the clean input in float64, position P (padding)
    # 0.0; for a max-pool (P, n_inputs), quieted (_quiet)
    clean: np.ndarray


def _receptive_field(layer: Layer, x: np.ndarray, fmt: NumericFormat) -> _ReceptiveField:
    """The receptive field of a conv, FC or max-pool layer whose clean input
    is ``x`` (n, *shape); see :class:`_ReceptiveField`."""
    n, size = len(x), x[0].size
    if isinstance(layer, FC):
        reads = np.arange(size)[None]
    else:
        c, h, w = x.shape[1:]
        if isinstance(layer, Conv2D):
            (kh, kw), pad = layer.weight.shape[2:], layer.pad
        else:
            (kh, kw), pad = (layer.kernel,) * 2, 0
        oh, ow = _conv_out_hw(h, w, kh, kw, layer.stride, pad)
        # In the padded input, each slot is a fixed offset from its window's
        # origin; a table takes padded positions to positions, and padding
        # to P.
        hp, wp = h + 2 * pad, w + 2 * pad
        table = np.full((c, hp, wp), size)
        table[:, pad : pad + h, pad : pad + w] = np.arange(size).reshape(c, h, w)
        origin = (np.arange(oh)[:, None] * wp + np.arange(ow)).reshape(-1) * layer.stride
        offset = (np.arange(kh)[:, None] * wp + np.arange(kw)).reshape(-1)
        channel = np.arange(c)[:, None] * (hp * wp)
        # A conv window reads every channel, a max-pool window one.
        if isinstance(layer, Conv2D):
            offset = (channel + offset).reshape(-1)
        else:
            origin = (channel + origin).reshape(-1)
        reads = table.reshape(-1)[origin[:, None] + offset]
    k, flat = reads.shape[1], reads.reshape(-1)
    count = np.bincount(flat, minlength=size + 1)[:size]
    # By position, then window; padding sorts last and is dropped. A stable
    # sort of the narrowest unsigned type that holds the positions is a
    # radix sort, up to 16 bits.
    at = np.argsort(flat.astype(np.min_scalar_type(size)), kind="stable")[: count.sum()]
    window = at // k
    first, read = np.zeros(size, dtype=np.int32), count > 0
    first[read] = window[(np.cumsum(count) - count)[read]]
    # int32 halves the tables; an input of 2**31 positions could not be cached.
    cover = np.repeat(first[:, None], max(1, int(count.max())), axis=1)
    slot = np.full(cover.shape, k, dtype=np.int32)
    # The cover slots in use, in row-major order, are those of ``at``.
    used = np.arange(cover.shape[1]) < count[:, None]
    cover[used] = window
    slot[used] = at - window * k
    if isinstance(layer, MaxPool2D):
        clean = np.ascontiguousarray(_quiet(x, fmt).reshape(n, -1).T)
    else:
        clean = np.zeros((size + 1, n))
        clean[:size] = x.reshape(n, -1).T
    return _ReceptiveField(reads.astype(np.int32), cover, slot, count.astype(np.int32), clean)


class ActivationCache:
    """Clean activations of a whole evalset, shared across fault evaluations:
    ``acts[i]`` is the input of layer i stacked over the inputs,
    (n_inputs, *shape), ``acts[-1]`` the network output and ``preds`` each
    input's predicted class. ``weights64[i]`` is layer i's weight in float64,
    None for a layer without one; ``fields[i]`` the receptive field of conv,
    FC or max-pool layer i (:class:`_ReceptiveField`), None for another
    layer. ``onward[k]`` holds what sizes a batch of faults at layer k
    (:func:`_row_width`): (dense, pools, recomputed), dense the most
    elements of one input to j, the first conv, FC or softmax layer after
    k, or to any later layer, or of the output; pools the
    (``cover.shape[1]``, output size) of each max-pool between k and j;
    and recomputed, for each fault type whose changed elements layer k
    recomputes, (terms, uses): the terms of one element (fan-in + 1 float64
    sums, or k*k max-pool patches) and the most uses of one variable."""

    def __init__(self, net: MicroNetwork, evalset: EvalSet):
        widest = list(itertools.accumulate(map(math.prod, net._shapes[::-1]), max))[::-1]
        self.weights64 = [
            layer.weight.astype(np.float64) if isinstance(layer, (Conv2D, FC)) else None
            for layer in net.layers
        ]
        self.acts = list(_layer_outputs(net, evalset.inputs, self.weights64))
        self.preds = _predict(self.acts[-1])
        with np.errstate(all="ignore"):
            self.fields = [
                _receptive_field(layer, self.acts[i], net.numeric_format)
                if isinstance(layer, (Conv2D, FC, MaxPool2D)) else None
                for i, layer in enumerate(net.layers)
            ]
        self.onward = []
        for k, (rf, w64) in enumerate(zip(self.fields, self.weights64)):
            j, pools = k + 1, []
            while j < len(net.layers) and not isinstance(net.layers[j], (Conv2D, FC, Softmax)):
                if isinstance(net.layers[j], MaxPool2D):
                    pools.append((self.fields[j].cover.shape[1], math.prod(net._shapes[j + 1])))
                j += 1
            recomputed = {}
            if rf is not None:
                terms = rf.reads.shape[1] + (w64 is not None)
                n_oc = 1 if w64 is None else len(w64)
                recomputed[FFType.INPUT_ACTIVATION] = (terms, rf.cover.shape[1] * n_oc)
                if w64 is not None:
                    recomputed[FFType.WEIGHT] = (terms, len(rf.reads))
            self.onward.append((widest[j], pools, recomputed))


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
    elif fault.mode is FaultMode.CRASH:
        return 0.0
    elif profile is None:
        raise ValueError("faulty accuracy requires the network profile")
    else:
        cache = ActivationCache(net, evalset) if cache is None else cache
        preds = faulty_predictions(net, fault, profile, cache, [fault.site.bit_pos])
    return float(np.count_nonzero(preds == evalset.labels) / evalset.size)
