"""A deliberately naive fault engine, the reference the batched engine in
``resacc.microdnn`` is checked against.

One faulty inference per (input, bit): copy the value, flip it, recompute the
whole faulted layer for that input alone, overwrite the elements that see the
flip one by one with ``kernels.conv2d_elem`` / ``kernels.fc_elem``, and run
the rest of the network on that input alone. Nothing is cached or batched
beyond the kernels' batch of one. Keep it this way: its worth is in being
obviously right, not fast.
"""

from __future__ import annotations

import numpy as np

from resacc import kernels
from resacc.formats import NumericFormat, flip_bit
from resacc.microdnn import (
    FC,
    Conv2D,
    EvalSet,
    FaultMode,
    FaultSpec,
    Flatten,
    MaxPool2D,
    MicroNetwork,
    ReLU,
    Softmax,
    _cast,
    _conv_out_hw,
    _local_control_targets,
    _window,
)
from resacc.profile import CONTROL_LAYER, FFType, NetworkProfile, SoftwareFaultSite

CRASH = None  # what reference_infer returns for a crashed inference


def _apply_layer(layer, x: np.ndarray, fmt: NumericFormat) -> np.ndarray:
    """One layer on one input."""
    if isinstance(layer, Conv2D):
        out = kernels.conv2d(
            x.astype(np.float64)[None], layer.weight.astype(np.float64), layer.stride, layer.pad
        )[0]
        return _cast(out, fmt)
    if isinstance(layer, FC):
        out = kernels.fc(x.astype(np.float64)[None], layer.weight.astype(np.float64))[0]
        return _cast(out, fmt)
    if isinstance(layer, ReLU):
        return np.maximum(x, x.dtype.type(0))
    if isinstance(layer, MaxPool2D):
        # Multiplying by 1.0 quiets signalling NaNs, which numpy's fmax takes
        # or ignores by code path (so by the size of the output).
        with np.errstate(invalid="ignore"):
            x64 = x.astype(np.float64) * 1.0
        out = kernels.maxpool2d(x64[None], layer.kernel, layer.stride)[0]
        return _cast(out, fmt)
    if isinstance(layer, Flatten):
        return x.reshape(-1)
    if isinstance(layer, Softmax):
        z = x.astype(np.float64)
        finite = z[np.isfinite(z)]
        hi = finite.max() if finite.size else 0.0
        e = np.exp(z - hi)
        return _cast(e / e.sum(), fmt)
    raise ValueError(f"unsupported layer kind: {type(layer).__name__}")


def _argmax(logits: np.ndarray) -> int:
    z = np.asarray(logits, dtype=np.float64)
    z = np.where(np.isnan(z), -np.inf, z)
    return int(np.argmax(z))


def _conv_input_positions(layer: Conv2D, in_shape, iy: int, iz: int) -> list[tuple[int, int]]:
    """Output positions whose receptive field covers input (iy, iz), row-major."""
    _, ih, iw = in_shape
    _, _, kh, kw = layer.weight.shape
    oh, ow = _conv_out_hw(ih, iw, kh, kw, layer.stride, layer.pad)
    pos = []
    for y in range(oh):
        dy = iy - (y * layer.stride - layer.pad)
        if not 0 <= dy < kh:
            continue
        for z in range(ow):
            dz = iz - (z * layer.stride - layer.pad)
            if 0 <= dz < kw:
                pos.append((y, z))
    return pos


def _faulty_layer_output(layer, x, fmt, var_type, var_index, bit_pos, fault):
    """Apply one layer to one input with a bit flip in its weights or input."""
    if var_type is FFType.WEIGHT:
        w = getattr(layer, "weight", None)
        if w is None:
            raise ValueError("weight fault on a layer without weights")
        wf = w.copy()
        flat = wf.reshape(-1)
        flat[var_index] = flip_bit(flat[var_index], bit_pos, fmt)
        x64, w64, wf64 = x.astype(np.float64), w.astype(np.float64), wf.astype(np.float64)
        if isinstance(layer, FC):
            out = kernels.fc(x64[None], w64)[0]
            r, _ = divmod(var_index, w.shape[1])  # read once per inference
            out[r] = kernels.fc_elem(x64, wf64, r)
            return _cast(out, fmt)
        out = kernels.conv2d(x64[None], w64, layer.stride, layer.pad)[0]
        oc = np.unravel_index(var_index, w.shape)[0]
        ow = out.shape[2]
        start, count = _window(var_index, out.shape[1] * ow, fault)
        for u in range(start, start + count):
            y, z = divmod(u, ow)
            out[oc, y, z] = kernels.conv2d_elem(x64, wf64, int(oc), y, z, layer.stride, layer.pad)
        return _cast(out, fmt)

    assert var_type is FFType.INPUT_ACTIVATION
    xf = x.copy()
    flat = xf.reshape(-1)
    flat[var_index] = flip_bit(flat[var_index], bit_pos, fmt)
    xf64 = xf.astype(np.float64)
    if isinstance(layer, FC):
        w64 = layer.weight.astype(np.float64)
        out = kernels.fc(x.astype(np.float64)[None], w64)[0]
        start, count = _window(var_index, layer.weight.shape[0], fault)
        for r in range(start, start + count):
            out[r] = kernels.fc_elem(xf64, w64, r)
        return _cast(out, fmt)
    if isinstance(layer, Conv2D):
        _, iy, iz = np.unravel_index(var_index, x.shape)
        positions = _conv_input_positions(layer, x.shape, int(iy), int(iz))
        n_oc = layer.weight.shape[0]
        start, count = _window(var_index, len(positions) * n_oc, fault)
        w64 = layer.weight.astype(np.float64)
        out = kernels.conv2d(x.astype(np.float64)[None], w64, layer.stride, layer.pad)[0]
        for u in range(start, start + count):
            p, o = divmod(u, n_oc)
            y, z = positions[p]
            out[o, y, z] = kernels.conv2d_elem(xf64, w64, o, y, z, layer.stride, layer.pad)
        return _cast(out, fmt)
    if isinstance(layer, ReLU):
        out = np.maximum(x, x.dtype.type(0)).copy()
        v = flat[var_index]
        out.reshape(-1)[var_index] = max(v, v.dtype.type(0)) if v == v else v
        return out
    if isinstance(layer, MaxPool2D):
        c, iy, iz = np.unravel_index(var_index, x.shape)
        out64 = kernels.maxpool2d(x.astype(np.float64)[None], layer.kernel, layer.stride)[0]
        windows = []
        for y in range(out64.shape[1]):
            if not 0 <= iy - y * layer.stride < layer.kernel:
                continue
            for z in range(out64.shape[2]):
                if 0 <= iz - z * layer.stride < layer.kernel:
                    windows.append((y, z))
        start, count = _window(var_index, len(windows), fault)
        for y, z in windows[start : start + count]:
            patch = xf64[c, y * layer.stride : y * layer.stride + layer.kernel,
                         z * layer.stride : z * layer.stride + layer.kernel]
            out64[c, y, z] = np.fmax.reduce(patch, axis=None)
        return _cast(out64, fmt)
    raise ValueError(f"input-activation fault unsupported on {type(layer).__name__}")


def reference_infer(net: MicroNetwork, x: np.ndarray, fault: FaultSpec,
                    profile: NetworkProfile):
    """Predicted class of one input under one fault, or CRASH."""
    out = reference_output(net, x, fault, profile)
    return CRASH if out is CRASH else _argmax(out)


def reference_output(net: MicroNetwork, x: np.ndarray, fault: FaultSpec,
                     profile: NetworkProfile):
    """The network output of one input under one fault, or CRASH."""
    site = fault.site
    if fault.mode is FaultMode.CRASH:
        return CRASH
    if site.var_type is FFType.CONTROL_LOCAL:
        layer_ids, widx = _local_control_targets(net, profile, [site.var_index])
        site = SoftwareFaultSite(int(layer_ids[0]), FFType.WEIGHT, int(widx[0]), site.bit_pos)
    if site.layer_id == CONTROL_LAYER:
        raise ValueError("control-global sites must carry CRASH mode")
    fmt = net.numeric_format
    k = profile.layer(site.layer_id).net_index
    with np.errstate(all="ignore"):
        a = np.asarray(x, dtype=fmt.dtype)
        for layer in net.layers[:k]:
            a = _apply_layer(layer, a, fmt)
        if site.var_type is FFType.OUTPUT_ACTIVATION:
            a = _apply_layer(net.layers[k], a, fmt).copy()
            flat = a.reshape(-1)
            flat[site.var_index] = flip_bit(flat[site.var_index], site.bit_pos, fmt)
        else:
            a = _faulty_layer_output(net.layers[k], a, fmt, site.var_type, site.var_index,
                                     site.bit_pos, fault)
        for layer in net.layers[k + 1 :]:
            a = _apply_layer(layer, a, fmt)
    return a


def reference_accuracy(net: MicroNetwork, evalset: EvalSet, fault: FaultSpec,
                       profile: NetworkProfile) -> float:
    correct = 0
    for x, label in zip(evalset.inputs, evalset.labels):
        pred = reference_infer(net, x, fault, profile)
        if pred is not CRASH and pred == int(label):
            correct += 1
    return correct / evalset.size
