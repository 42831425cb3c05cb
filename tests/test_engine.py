"""The batched fault engine against the naive reference engine.

Every A(j) and every faulty prediction of ``resacc.microdnn`` must equal,
bit for bit, what ``reference_engine`` computes one input and one bit at a
time.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_engine import CRASH, reference_accuracy, reference_infer
from resacc import kernels, microdnn
from resacc.formats import NumericFormat, flip_bit_array
from resacc.microdnn import (
    CRASHED,
    FC,
    ActivationCache,
    Conv2D,
    EvalSet,
    FaultMode,
    FaultSemantics,
    FaultSpec,
    Flatten,
    MaxPool2D,
    MicroNetwork,
    ReLU,
    Softmax,
    bit_accuracies,
    faulty_predictions,
    make_fault,
)
from resacc.oracle import exhaustive_ra
from resacc.probtransfer import build_table
from resacc.profile import CONTROL_LAYER, FFType, SoftwareFaultSite, derive_profile
from resacc.toynets import (
    make_config,
    make_conv_toy,
    make_dense_toy,
    make_evalset,
    make_pool_toy,
    make_skewed_toy,
)

TOYS = {
    "dense": make_dense_toy,
    "conv": make_conv_toy,
    "pool": make_pool_toy,
    "skew": lambda fmt: make_skewed_toy(0, fmt=fmt),
}
N_INPUTS = 3


def _classes(profile, config, semantics):
    """The fault classes a semantics models, and the table's bit width."""
    table = build_table(profile, config)
    return [
        c for c in table.classes
        # the software baseline does not model control sites
        if not (semantics is FaultSemantics.SW and c.layer_id == CONTROL_LAYER)
    ], table.bit_width


def _batched_archive(net, evalset, profile, config, semantics):
    """Batched A(j) arrays per (layer, type) class."""
    classes, bit_width = _classes(profile, config, semantics)
    cache = ActivationCache(net, evalset)
    return {
        (c.layer_id, c.var_type): np.array([
            bit_accuracies(net, evalset,
                           make_fault(SoftwareFaultSite(c.layer_id, c.var_type, v, 0), config,
                                      semantics),
                           profile, cache, range(bit_width))
            for v in range(c.var_count)
        ])
        for c in classes
    }


def _archives(net, evalset, profile, config, semantics):
    """(batched, reference) A(j) arrays per (layer, type) class."""
    classes, bit_width = _classes(profile, config, semantics)
    bits = range(bit_width)
    batched = _batched_archive(net, evalset, profile, config, semantics)
    reference = {}
    for c in classes:
        key = (c.layer_id, c.var_type)
        reference[key] = np.array([
            [reference_accuracy(net, evalset, make_fault(SoftwareFaultSite(*key, v, b), config,
                                                         semantics), profile)
             for b in bits]
            for v in range(c.var_count)
        ])
    return batched, reference


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
@pytest.mark.parametrize("toy", list(TOYS))
def test_archive_equals_reference(toy, fmt, semantics):
    net = TOYS[toy](fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, N_INPUTS, seed=3, label_noise=0.3)
    batched, reference = _archives(net, evalset, profile, config, semantics)
    for key, ref in reference.items():
        assert np.array_equal(batched[key], ref), key
    if semantics is FaultSemantics.TRUE:
        _, archive = exhaustive_ra(profile, config, net, evalset, semantics)
        for key, arr in archive.entries.items():
            expect = np.zeros_like(arr) if key[1] is FFType.CONTROL_GLOBAL else batched[key]
            assert np.array_equal(arr, expect), key


# --- random networks and sites -----------------------------------------------

def _weights(rng, shape, fmt):
    if fmt is NumericFormat.INT8:
        return rng.integers(-3, 4, size=shape).astype(np.int8)
    return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), size=shape).astype(fmt.dtype)


@st.composite
def cases(draw):
    """A small random conv -> relu -> [pool] -> flatten -> fc -> softmax net,
    a few inputs, one fault site with its corruption mode, and some bits."""
    fmt = draw(st.sampled_from(list(NumericFormat)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ic, oc = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    k, stride, pad = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    size = draw(st.integers(k, 7))
    layers = [Conv2D(_weights(rng, (oc, ic, k, k), fmt), stride=stride, pad=pad), ReLU()]
    conv_hw = (size + 2 * pad - k) // stride + 1
    if conv_hw >= 2 and draw(st.booleans()):
        pool_k = draw(st.integers(1, min(conv_hw, 3)))
        layers.append(MaxPool2D(kernel=pool_k, stride=draw(st.integers(1, 3))))
    probe = MicroNetwork(layers + [Flatten()], (ic, size, size), fmt)
    fan_in = probe.output_shape_of(len(probe.layers) - 1)[0]
    layers += [Flatten(), FC(_weights(rng, (draw(st.integers(2, 4)), fan_in), fmt)), Softmax()]
    net = MicroNetwork(layers, (ic, size, size), fmt)
    n = draw(st.integers(1, 4))
    if fmt is NumericFormat.INT8:
        inputs = rng.integers(-8, 9, size=(n, ic, size, size)).astype(np.int8)
    else:
        inputs = rng.uniform(-1, 1, size=(n, ic, size, size)).astype(fmt.dtype)

    config = make_config(fmt)
    profile = derive_profile(net, config)
    classes = [c for c in build_table(profile, config).classes if c.var_count > 0]
    c = draw(st.sampled_from(classes))
    site = SoftwareFaultSite(c.layer_id, c.var_type, draw(st.integers(0, c.var_count - 1)), 0)
    if c.var_type is FFType.CONTROL_GLOBAL:
        fault = FaultSpec(site, FaultMode.CRASH)
    else:
        mode = draw(st.sampled_from([FaultMode.FULL_CORRUPTION, FaultMode.REUSE_BOUNDED]))
        fault = FaultSpec(site, mode, reuse=draw(st.integers(1, 12)))
    bits = draw(st.lists(st.integers(0, fmt.width - 1), min_size=1, max_size=6))
    return net, inputs, profile, fault, bits


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_predictions_equal_reference_on_random_sites(case):
    net, inputs, profile, fault, bits = case
    cache = ActivationCache(net, EvalSet(inputs, np.zeros(len(inputs), dtype=np.int64)))
    got = faulty_predictions(net, fault, profile, cache, bits)
    for i, b in enumerate(bits):
        f = FaultSpec(SoftwareFaultSite(fault.site.layer_id, fault.site.var_type,
                                        fault.site.var_index, b), fault.mode, fault.reuse)
        for j, x in enumerate(inputs):
            ref = reference_infer(net, x, f, profile)
            assert got[i, j] == (CRASHED if ref is CRASH else ref), (b, j)



def test_pool_input_flips_match_reference_on_a_full_evalset():
    """A flipped FP16 exponent can make a signalling NaN, on which numpy's
    fmax answers by memory layout; every bit of every pool input must still
    give the reference's prediction on all 40 inputs of a benchmark-sized
    evalset."""
    fmt = NumericFormat.FP16
    net = make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 40, seed=0)
    cache = ActivationCache(net, evalset)
    pool = next(l for l in profile.layers if isinstance(net.layers[l.net_index], MaxPool2D))
    for v in range(profile.var_count(pool.layer_id, FFType.INPUT_ACTIVATION)):
        def fault(b):
            return make_fault(SoftwareFaultSite(pool.layer_id, FFType.INPUT_ACTIVATION, v, b),
                              config)

        got = faulty_predictions(net, fault(0), profile, cache, range(fmt.width))
        want = [[reference_infer(net, x, fault(b), profile) for x in evalset.inputs]
                for b in range(fmt.width)]
        assert np.array_equal(got, want), v


# --- kernels -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), st.integers(1, 4))
def test_batched_kernels_match_single_items(seed, stride, pad, kernel):
    """Each batch item gets the bits a batch of one gets."""
    rng = np.random.default_rng(seed)
    nb, ic, oc = rng.integers(2, 9), rng.integers(1, 4), rng.integers(1, 5)
    size = int(rng.integers(kernel, 10))
    x = rng.normal(size=(nb, ic, size, size))
    w = rng.normal(size=(oc, ic, kernel, kernel))
    x_fc, w_fc = x.reshape(nb, -1), rng.normal(size=(oc, ic * size * size))
    for batched, single in (
        (kernels.conv2d(x, w, stride, pad), [kernels.conv2d(xi[None], w, stride, pad) for xi in x]),
        (kernels.maxpool2d(x, kernel, stride), [kernels.maxpool2d(xi[None], kernel, stride)
                                                for xi in x]),
        (kernels.fc(x_fc, w_fc), [kernels.fc(xi[None], w_fc) for xi in x_fc]),
    ):
        assert np.array_equal(batched, np.concatenate(single))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["spread", "shared", "from_0"]))
def test_dot_sequential_sums_in_fan_in_order(seed, hits):
    """Bit for bit the sum the element kernels make: from 0.0, term by term,
    with the flipped product at each element's hit position and skipped
    (0.0) terms left out. Flipped products may be NaN, +-Inf or -0.0; the
    elements may all read the flip at one position (an FC or conv weight) or
    read it first at position 0."""
    rng = np.random.default_rng(seed)
    n, n_elems, n_terms, n_flips = (int(v) for v in rng.integers(1, [4, 6, 300, 4]))
    terms = rng.normal(size=(n, n_elems, n_terms)) * 10.0 ** rng.integers(-3, 4, n_terms)
    terms[:, :, rng.random(n_terms) < 0.2] = 0.0
    terms[rng.random(terms.shape) < 0.05] = -0.0
    hit_k = rng.integers(0, n_terms, n_elems)
    if hits == "shared":
        hit_k[:] = hit_k[0]
    elif hits == "from_0":
        hit_k[rng.integers(n_elems)] = 0
    faulty = rng.normal(size=(n_flips, n, n_elems)) * 10.0 ** rng.integers(-3, 4)
    special = rng.random(faulty.shape) < 0.3
    faulty[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], special.sum())
    got = kernels.dot_sequential(terms, hit_k, faulty)
    assert got.shape == faulty.shape
    for f in range(n_flips):
        for i in range(n):
            for e in range(n_elems):
                acc = 0.0
                for k in range(n_terms):
                    if k == hit_k[e]:
                        acc += faulty[f, i, e]
                    elif terms[i, e, k] != 0.0:
                        acc += terms[i, e, k]
                if np.isnan(acc):
                    assert np.isnan(got[f, i, e])
                else:
                    assert got[f, i, e] == acc and np.signbit(got[f, i, e]) == np.signbit(acc)


def test_dot_sequential_zero_sum_is_positive_zero():
    terms = np.full((2, 3, 5), -0.0)
    got = kernels.dot_sequential(terms, np.array([4, 2, 1]), np.full((2, 2, 3), -0.0))
    assert not np.signbit(got).any()


@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
def test_flipped_equals_one_flip_per_bit(fmt):
    """One XOR for all bits gives what ``flip_bit_array`` gives bit by bit,
    for every bit pattern class (NaN, Inf and subnormal patterns included)
    and for a strided view, as the engine passes a column of the cache."""
    rng = np.random.default_rng(fmt.width)
    patterns = rng.integers(0, 1 << fmt.width, size=(64, 3), dtype=np.uint64)
    values = patterns.astype(fmt.bits_dtype).view(fmt.dtype)[:, 1]
    bits = list(range(fmt.width))
    got = microdnn._flipped(values, bits, fmt)
    want = np.stack([flip_bit_array(values, b, fmt) for b in bits])
    assert got.dtype == fmt.dtype and got.shape == (fmt.width, 64)
    assert np.array_equal(got.view(fmt.bits_dtype), want.view(fmt.bits_dtype))
    assert np.array_equal(microdnn._flipped(values[:1], [3, 0], fmt).view(fmt.bits_dtype),
                          want[[3, 0], :1].view(fmt.bits_dtype))
    for bad in ([fmt.width], [0, -1]):
        with pytest.raises(ValueError):
            microdnn._flipped(values, bad, fmt)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from([1 << 8, kernels.IM2COL_BYTES]))
def test_numpy_conv2d_is_one_blas_product_per_item(seed, stride, pad, chunk_bytes):
    """conv2d gives each item what one BLAS product of its
    weights with its own contiguous im2col matrix gives, however the batch is
    chunked."""
    rng = np.random.default_rng(seed)
    nb, ic, oc, kh, kw = (int(v) for v in rng.integers(1, [6, 4, 5, 5, 5]))
    ih, iw = int(rng.integers(kh, 10)), int(rng.integers(kw, 10))
    x = rng.normal(size=(nb, ic, ih, iw))
    w = rng.normal(size=(oc, ic, kh, kw))
    oh, ow = (ih + 2 * pad - kh) // stride + 1, (iw + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    saved, kernels.IM2COL_BYTES = kernels.IM2COL_BYTES, chunk_bytes
    try:
        got = kernels.conv2d(x, w, stride, pad)
    finally:
        kernels.IM2COL_BYTES = saved
    for i in range(nb):
        cols = np.array([
            xp[i, c, ky : ky + oh * stride : stride, kz : kz + ow * stride : stride].ravel()
            for c in range(ic) for ky in range(kh) for kz in range(kw)
        ])
        assert np.array_equal(got[i], (w.reshape(oc, -1) @ cols).reshape(oc, oh, ow))


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
def test_chunked_batches_give_the_same_archive(monkeypatch, semantics):
    net = make_pool_toy(NumericFormat.FP16)
    config = make_config(NumericFormat.FP16)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 10, seed=4, label_noise=0.3)
    whole = _batched_archive(net, evalset, profile, config, semantics)
    monkeypatch.setattr(microdnn, "BATCH_BYTES", 1)  # one input and one element per batch
    chunked = _batched_archive(net, evalset, profile, config, semantics)
    for key, arr in whole.items():
        assert np.array_equal(chunked[key], arr), key


@pytest.mark.parametrize("n_bits", [1, 32])
def test_fully_corrupted_fc_input_stays_within_batch_bytes(monkeypatch, n_bits):
    """Under SW semantics an FC input fault recomputes every output element:
    its (inputs, outputs, fan-in) products must go in chunks too, for one bit
    (a live evaluation) as for all bits (the oracle)."""
    fmt = NumericFormat.FP32
    rng = np.random.default_rng(8)
    net = MicroNetwork([FC(_weights(rng, (128, 256), fmt)), Softmax()], (256,), fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 16, seed=2)
    cache = ActivationCache(net, evalset)
    fault = make_fault(SoftwareFaultSite(profile.layers[0].layer_id, FFType.INPUT_ACTIVATION,
                                         77, 0), config, FaultSemantics.SW)
    bits = range(fmt.width - n_bits, fmt.width)
    whole = faulty_predictions(net, fault, profile, cache, bits)
    monkeypatch.setattr(microdnn, "BATCH_BYTES", 1 << 18)
    tracemalloc.start()
    try:
        chunked = faulty_predictions(net, fault, profile, cache, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, whole)
    # Unchunked over elements, the products of one input chunk take up to
    # 16 x 128 x 256 x 8 B = 4 MiB.
    assert peak < 4 * microdnn.BATCH_BYTES, peak
