"""Seeded desk-scale networks, evalsets and accelerator configs.

These are the workloads the estimator is validated on: small enough that the
exhaustive ground truth over every fault site is computable in minutes, but
with realistic layer-MAC skew and FF distributions.

Evalsets are labeled by the network's own fault-free predictions (optionally
with a seeded fraction of label noise), so the standard accuracy is high by
construction without any training machinery.
"""

from __future__ import annotations

import numpy as np

from .formats import NumericFormat
from .microdnn import (
    FC,
    Conv2D,
    EvalSet,
    Flatten,
    MaxPool2D,
    MicroNetwork,
    ReLU,
    Softmax,
    _forward,
    _predict,
)
from .profile import AcceleratorConfig, FFType


def _weights(rng: np.random.Generator, shape, fmt: NumericFormat) -> np.ndarray:
    if fmt is NumericFormat.INT8:
        return rng.integers(-3, 4, size=shape).astype(np.int8)
    fan_in = int(np.prod(shape[1:]))
    w = rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), size=shape)
    return w.astype(fmt.dtype)


def _inputs(rng: np.random.Generator, shape, fmt: NumericFormat) -> np.ndarray:
    if fmt is NumericFormat.INT8:
        return rng.integers(-8, 9, size=shape).astype(np.int8)
    return rng.uniform(-1.0, 1.0, size=shape).astype(fmt.dtype)


def make_dense_toy(fmt: NumericFormat = NumericFormat.FP32, seed: int = 7) -> MicroNetwork:
    """Two FC layers (12->8->4) with a 3x MAC skew; the default small subject."""
    rng = np.random.default_rng(seed)
    return MicroNetwork(
        layers=[
            FC(_weights(rng, (8, 12), fmt)),
            ReLU(),
            FC(_weights(rng, (4, 8), fmt)),
            Softmax(),
        ],
        input_shape=(12,),
        numeric_format=fmt,
    )


def make_conv_toy(fmt: NumericFormat = NumericFormat.FP16, seed: int = 11) -> MicroNetwork:
    """CONV(1x6x6 -> 2ch 3x3) + FC head; exercises the conv fault paths."""
    rng = np.random.default_rng(seed)
    return MicroNetwork(
        layers=[
            Conv2D(_weights(rng, (2, 1, 3, 3), fmt)),
            ReLU(),
            Flatten(),
            FC(_weights(rng, (4, 32), fmt)),
            Softmax(),
        ],
        input_shape=(1, 6, 6),
        numeric_format=fmt,
    )


def make_skewed_toy(
    variant: int = 0, fmt: NumericFormat = NumericFormat.FP16, seed: int = 23
) -> MicroNetwork:
    """Dense nets with >= 10x layer-MAC skew, for convergence studies."""
    rng = np.random.default_rng(seed + 101 * variant)
    if variant % 2 == 0:
        dims = (24, 30, 2)  # 720 vs 60 MACs: 12x skew
    else:
        dims = (30, 24, 3)  # 720 vs 72 MACs: 10x skew
    d0, d1, d2 = dims
    return MicroNetwork(
        layers=[
            FC(_weights(rng, (d1, d0), fmt)),
            ReLU(),
            FC(_weights(rng, (d2, d1), fmt)),
            Softmax(),
        ],
        input_shape=(d0,),
        numeric_format=fmt,
    )


def make_pool_toy(fmt: NumericFormat = NumericFormat.FP32, seed: int = 31) -> MicroNetwork:
    """Conv + maxpool net; used by unit tests for the pooling fault path."""
    rng = np.random.default_rng(seed)
    return MicroNetwork(
        layers=[
            Conv2D(_weights(rng, (2, 1, 3, 3), fmt)),
            ReLU(),
            MaxPool2D(kernel=2, stride=2),
            Flatten(),
            FC(_weights(rng, (3, 8), fmt)),
            Softmax(),
        ],
        input_shape=(1, 6, 6),
        numeric_format=fmt,
    )


def make_evalset(
    net: MicroNetwork, n: int = 100, seed: int = 97, label_noise: float = 0.0
) -> EvalSet:
    rng = np.random.default_rng(seed)
    inputs = _inputs(rng, (n,) + tuple(net.input_shape), net.numeric_format)
    labels = _predict(_forward(net, inputs)).astype(np.int64)
    if label_noise > 0.0:
        n_classes = int(labels.max()) + 1
        flip = rng.random(n) < label_noise
        labels[flip] = rng.integers(0, max(n_classes, 2), size=int(flip.sum()))
    return EvalSet(inputs=inputs, labels=labels)


def make_config(
    fmt: NumericFormat = NumericFormat.FP32,
    total_ffs: int = 1000,
    raw_fit: float = 600.0,
    control_fit: float | None = None,
) -> AcceleratorConfig:
    """Systolic-array-like FF distribution (IA/W/OA/control roughly
    31/31/22/17 percent), output-stationary reuse factors."""
    n_ia = round(total_ffs * 0.3056)
    n_w = round(total_ffs * 0.3056)
    n_oa = round(total_ffs * 0.2187)
    n_ctl = total_ffs - n_ia - n_w - n_oa
    n_cg = round(n_ctl * 2 / 3)
    cf = raw_fit if control_fit is None else control_fit
    return AcceleratorConfig(
        ff_count={
            FFType.INPUT_ACTIVATION: n_ia,
            FFType.WEIGHT: n_w,
            FFType.OUTPUT_ACTIVATION: n_oa,
            FFType.CONTROL_GLOBAL: n_cg,
            FFType.CONTROL_LOCAL: n_ctl - n_cg,
        },
        raw_fit={
            FFType.INPUT_ACTIVATION: raw_fit,
            FFType.WEIGHT: raw_fit,
            FFType.OUTPUT_ACTIVATION: raw_fit,
            FFType.CONTROL_GLOBAL: cf,
            FFType.CONTROL_LOCAL: cf,
        },
        numeric_format=fmt,
        reuse={
            FFType.INPUT_ACTIVATION: 4,
            FFType.WEIGHT: 4,
            FFType.OUTPUT_ACTIVATION: 1,
            FFType.CONTROL_GLOBAL: 1,
            FFType.CONTROL_LOCAL: 1,
        },
    )


def make_convergence_config(fmt: NumericFormat = NumericFormat.FP16) -> AcceleratorConfig:
    """Crash-light config for convergence-speed studies: datapath FF types at
    a high uniform raw FIT rate, global control strongly hardened. With only
    a sliver of probability on crash (zero-accuracy) sites, sampling
    proportional to p(j) pays off and the strategies separate cleanly."""
    return make_config(fmt=fmt).with_raw_fit({
        FFType.INPUT_ACTIVATION: 5400.0,
        FFType.WEIGHT: 5400.0,
        FFType.OUTPUT_ACTIVATION: 5400.0,
        FFType.CONTROL_GLOBAL: 50.0,
        FFType.CONTROL_LOCAL: 600.0,
    })


def make_crash_heavy_config(fmt: NumericFormat = NumericFormat.FP32) -> AcceleratorConfig:
    """Config with an elevated global-control raw FIT rate, for the method
    comparison: a large crash share separates the true-probability RA from
    the uniform software-injection baselines."""
    return make_config(fmt=fmt).with_raw_fit({FFType.CONTROL_GLOBAL: 1800.0})
