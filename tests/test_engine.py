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

from predictions import faulty_predictions
from reference_engine import CRASH, reference_accuracy, reference_infer, reference_output
from reference_engine import _apply_layer as reference_apply_layer
from resacc import kernels, microdnn
from resacc.formats import NumericFormat
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
    make_fault,
)
from resacc.oracle import exhaustive_ra, live_evaluator
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


def _weights(rng, shape, fmt):
    if fmt is NumericFormat.INT8:
        return rng.integers(-3, 4, size=shape).astype(np.int8)
    return rng.normal(0.0, 1.0 / np.sqrt(np.prod(shape[1:])), size=shape).astype(fmt.dtype)


def _skip_toy(fmt):
    """Max-pool windows that skip the conv output's last row and column."""
    rng = np.random.default_rng(13)
    return MicroNetwork([
        Conv2D(_weights(rng, (2, 1, 3, 3), fmt)), ReLU(), MaxPool2D(kernel=2, stride=2),
        Flatten(), FC(_weights(rng, (3, 2), fmt)), Softmax(),
    ], (1, 5, 5), fmt)


def _stride_toy(fmt):
    """A max-pool stride larger than its kernel: the conv output's middle
    row and column lie between windows."""
    rng = np.random.default_rng(14)
    return MicroNetwork([
        Conv2D(_weights(rng, (1, 1, 3, 3), fmt), pad=1), ReLU(), MaxPool2D(kernel=2, stride=3),
        Flatten(), FC(_weights(rng, (3, 4), fmt)), Softmax(),
    ], (1, 5, 5), fmt)


def _conv_stride_toy(fmt):
    """A conv stride larger than its kernel: rows and columns 2, 5, 8 and 9
    of the input are read by no output, so a flip there changes no element
    and the max-pool gets no frontier entry for it."""
    rng = np.random.default_rng(16)
    return MicroNetwork([
        Conv2D(_weights(rng, (2, 1, 2, 2), fmt), stride=3), ReLU(), MaxPool2D(kernel=2, stride=1),
        Flatten(), FC(_weights(rng, (3, 8), fmt)), Softmax(),
    ], (1, 10, 10), fmt)


def _tiny_pool_toy(fmt):
    """A max-pool output of two elements per input, fewer than the eight
    numpy's fmax takes on its SIMD path: a signalling NaN reaching the pool
    must be quieted by the reference as by the engine."""
    rng = np.random.default_rng(16)
    return MicroNetwork([
        Conv2D(_weights(rng, (2, 1, 2, 2), fmt), stride=3), ReLU(), MaxPool2D(kernel=2, stride=1),
        Flatten(), FC(_weights(rng, (3, 2), fmt)), Softmax(),
    ], (1, 7, 7), fmt)


def _wide_toy(fmt):
    """Ten classes, so the softmax sum takes numpy's eight-lane order."""
    rng = np.random.default_rng(18)
    return MicroNetwork([
        FC(_weights(rng, (16, 12), fmt)), ReLU(), FC(_weights(rng, (10, 16), fmt)), Softmax(),
    ], (12,), fmt)


def _lenet_toy(fmt):
    """LeNet's layer sequence at toy size: the fault frontier of a first-conv
    site passes a ReLU and a max-pool and enters a second conv, which runs
    only its live rows dense, as the benchmark LeNet's conv1 sites do; the
    rows are checked again before the first FC layer. The second conv is
    padded, so a flipped weight there also meets padding."""
    rng = np.random.default_rng(19)
    return MicroNetwork([
        Conv2D(_weights(rng, (1, 1, 2, 2), fmt)), ReLU(), MaxPool2D(kernel=2, stride=1),
        Conv2D(_weights(rng, (2, 1, 2, 2), fmt), stride=2, pad=1), ReLU(),
        MaxPool2D(kernel=2, stride=2), Flatten(), FC(_weights(rng, (2, 2), fmt)), ReLU(),
        FC(_weights(rng, (3, 2), fmt)), Softmax(),
    ], (1, 4, 4), fmt)


TOYS = {
    "dense": make_dense_toy,
    "conv": make_conv_toy,
    "pool": make_pool_toy,
    "skew": lambda fmt: make_skewed_toy(0, fmt=fmt),
    "skip": _skip_toy,
    "stride": _stride_toy,
    "conv_stride": _conv_stride_toy,
    "tiny_pool": _tiny_pool_toy,
    "wide": _wide_toy,
    "lenet": _lenet_toy,
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

    def accuracies(c, v):
        fault = make_fault(SoftwareFaultSite(c.layer_id, c.var_type, v, 0), config, semantics)
        preds = faulty_predictions(net, fault, profile, cache, range(bit_width))
        return np.count_nonzero(preds == evalset.labels, axis=1) / evalset.size

    return {
        (c.layer_id, c.var_type): np.array([accuracies(c, v) for v in range(c.var_count)])
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
def test_archive_equals_reference(monkeypatch, toy, fmt, semantics):
    net = TOYS[toy](fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, N_INPUTS, seed=3, label_noise=0.3)
    batched, reference = _archives(net, evalset, profile, config, semantics)
    for key, ref in reference.items():
        assert np.array_equal(batched[key], ref), key
    # Small batches drop their masked rows apart from those of other batches.
    monkeypatch.setattr(microdnn, "BATCH_BYTES", 1 << 9)
    small = _batched_archive(net, evalset, profile, config, semantics)
    for key, ref in reference.items():
        assert np.array_equal(small[key], ref), key
    if semantics is FaultSemantics.TRUE:
        _, archive = exhaustive_ra(profile, config, net, evalset, semantics)
        for key, arr in archive.entries.items():
            expect = np.zeros_like(arr) if key[1] is FFType.CONTROL_GLOBAL else batched[key]
            assert np.array_equal(arr, expect), key


MANTISSA_BITS = {NumericFormat.FP32: 23, NumericFormat.FP16: 10}


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("fmt", list(MANTISSA_BITS), ids=lambda f: f.name)
def test_live_evaluator_equals_reference_on_the_lenet_toy(fmt, semantics):
    """One live call per site, one variable and one bit, as an estimate on
    a network too large to enumerate makes them: three sites of every class
    the semantics models, control-local ones included, at the sign bit, the
    top and bottom exponent bits and the top and bottom mantissa bits."""
    net = _lenet_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 8, seed=4, label_noise=0.3)
    evaluate = live_evaluator(net, evalset, profile, config, semantics)
    m = MANTISSA_BITS[fmt]
    bits = [fmt.width - 1, fmt.width - 2, m, m - 1, 0]
    classes, _ = _classes(profile, config, semantics)
    rng = np.random.default_rng(fmt.width)
    assert any(c.var_type is FFType.CONTROL_LOCAL for c in classes) == (
        semantics is FaultSemantics.TRUE)
    for c in (c for c in classes if c.var_count):
        for v in rng.choice(c.var_count, size=min(3, c.var_count), replace=False):
            for b in bits:
                site = SoftwareFaultSite(c.layer_id, c.var_type, int(v), b)
                fault = make_fault(site, config, semantics)
                assert evaluate(site) == reference_accuracy(net, evalset, fault, profile), site


# --- random networks and sites -----------------------------------------------

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
    for v in range(profile.layer(pool.layer_id).var_count[FFType.INPUT_ACTIVATION]):
        def fault(b):
            return make_fault(SoftwareFaultSite(pool.layer_id, FFType.INPUT_ACTIVATION, v, b),
                              config)

        got = faulty_predictions(net, fault(0), profile, cache, range(fmt.width))
        want = [[reference_infer(net, x, fault(b), profile) for x in evalset.inputs]
                for b in range(fmt.width)]
        assert np.array_equal(got, want), v


def test_pool_input_signalling_nans_win_their_windows():
    """A pool-input fault's windows are recomputed without quieting
    signalling NaNs: a flipped input that is one wins its windows. These
    four A(j) of the benchmark's pool16 subject (its 40 inputs at seed 0)
    are what that rule gives; quieting would give 0.675, 0.325, 0.325 and
    0.5 and change the committed benchmark digest."""
    fmt = NumericFormat.FP16
    net = make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 40, seed=0)
    cache = ActivationCache(net, evalset)
    pool = next(l for l in profile.layers if isinstance(net.layers[l.net_index], MaxPool2D))
    fault = make_fault(SoftwareFaultSite(pool.layer_id, FFType.INPUT_ACTIVATION, 0, 14), config)
    preds = faulty_predictions(net, fault, profile, cache, [14], [5, 23, 29, 31])
    got = np.count_nonzero(preds[:, 0] == evalset.labels, axis=1) / evalset.size
    assert got.tolist() == [0.65, 0.275, 0.275, 0.475]


@pytest.mark.parametrize("value", [1.0, 1.5], ids=["to_inf", "to_nan"])
@pytest.mark.parametrize("fmt", [NumericFormat.FP32, NumericFormat.FP16], ids=lambda f: f.name)
def test_a_flipped_weight_multiplies_no_padding(fmt, value):
    """A conv weight whose top exponent bit flips to Inf (1.0) or NaN (1.5)
    is seen, with a reuse of 1, by output (0, 0) alone, where it meets
    padding: the element kernel skips that term, so the engine must not
    multiply the flip by a stored 0.0. No ReLU or max-pool sits between the
    conv and the FC layer, so a NaN element would reach every logit."""
    rng = np.random.default_rng(21)
    w = _weights(rng, (1, 1, 3, 3), fmt)
    w[0, 0, 0, 0] = value
    net = MicroNetwork([Conv2D(w, pad=1), Flatten(), FC(_weights(rng, (3, 16), fmt)), Softmax()],
                       (1, 4, 4), fmt)
    profile = derive_profile(net, make_config(fmt))
    inputs = rng.uniform(-1, 1, size=(6, 1, 4, 4)).astype(fmt.dtype)
    cache = ActivationCache(net, EvalSet(inputs, np.zeros(len(inputs), dtype=np.int64)))
    site = SoftwareFaultSite(profile.layers[0].layer_id, FFType.WEIGHT, 0, 0)
    got = faulty_predictions(net, FaultSpec(site, FaultMode.REUSE_BOUNDED), profile, cache,
                             range(fmt.width))
    want = [[reference_infer(net, x, FaultSpec(site._replace(bit_pos=b), FaultMode.REUSE_BOUNDED),
                             profile) for x in inputs] for b in range(fmt.width)]
    assert got.tolist() == want
    assert {p for row in want for p in row} != {0}  # NaN logits would all give class 0


# --- receptive fields ------------------------------------------------------------

class _Reads:
    """Stands in for an array given to an element kernel: answers each
    index with the flat positions it names, as float64, and records them."""

    def __init__(self, shape):
        self.shape = shape
        self.pos = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
        self.read = []

    def __getitem__(self, index):
        got = self.pos[index]
        self.read.append(got)
        return got


def _check_cover(rf, size):
    """Each position's cover slots list the (window, slot) pairs that read
    it, each once, in window order; the slots left over name its first
    window (window 0 if none) and slot K."""
    n_slots = rf.reads.shape[1]
    for p in range(size):
        pairs = list(zip(*(a.tolist() for a in np.nonzero(rf.reads == p))))
        used = int(rf.count[p])
        assert used == len(pairs)
        assert list(zip(rf.cover[p, :used].tolist(), rf.slot[p, :used].tolist())) == pairs
        assert np.all(rf.slot[p, used:] == n_slots)
        assert np.all(rf.cover[p, used:] == (pairs[0][0] if pairs else 0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2))
def test_receptive_fields_name_what_the_element_kernels_read(seed, stride, pad):
    """A conv, FC or max-pool window read through ``reads``, padding left
    out, gives the input positions ``kernels.conv2d_elem``, ``fc_elem`` and
    ``maxpool2d`` read, in their order, with the weight slot each is
    multiplied by; ``cover`` and ``slot`` invert it."""
    rng = np.random.default_rng(seed)
    fmt = NumericFormat.FP32
    ic, oc = (int(v) for v in rng.integers(1, 4, size=2))
    h, w = (int(v) for v in rng.integers(1, 9, size=2))
    kh, kw = (int(rng.integers(1, min(4, n + 2 * pad) + 1)) for n in (h, w))
    x = rng.normal(size=(2, ic, h, w)).astype(fmt.dtype)
    size = x[0].size

    conv = Conv2D(rng.normal(size=(oc, ic, kh, kw)).astype(fmt.dtype), stride, pad)
    rf = microdnn._receptive_field(conv, x, fmt)
    oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    assert rf.reads.shape == (oh * ow, ic * kh * kw)
    for u in range(oh * ow):
        xr, wr = _Reads(x.shape[1:]), _Reads(conv.weight.shape)
        kernels.conv2d_elem(xr, wr, 0, *divmod(u, ow), stride, pad)
        inside = rf.reads[u] < size
        assert rf.reads[u][inside].tolist() == xr.read
        assert np.flatnonzero(inside).tolist() == wr.read  # output channel 0: slot k is weight k
    _check_cover(rf, size)
    assert np.array_equal(rf.clean[:size], x.reshape(2, -1).T) and not rf.clean[size].any()

    fan_in = size
    fc = FC(rng.normal(size=(oc, fan_in)).astype(fmt.dtype))
    rf = microdnn._receptive_field(fc, x.reshape(2, -1), fmt)
    xr, wr = _Reads((fan_in,)), _Reads(fc.weight.shape)
    kernels.fc_elem(xr, wr, 0)
    assert rf.reads.tolist() == [xr.read] and wr.read == xr.read
    _check_cover(rf, fan_in)

    for kernel in range(1, min(3, h, w) + 1):
        for pool_stride in (1, 2, 3):  # overlapping, tiling and gapped windows
            pool = MaxPool2D(kernel, pool_stride)
            rf = microdnn._receptive_field(pool, x, fmt)
            xr = _Reads((1,) + x.shape[1:])
            kernels.maxpool2d(xr, kernel, pool_stride)
            first, *members = xr.read  # the copy of member 0, then every member
            assert np.array_equal(first, members[0])
            assert np.array_equal(rf.reads, np.reshape(members, (kernel**2, -1)).T)
            _check_cover(rf, size)
            assert np.array_equal(rf.clean, x.reshape(2, -1).T)


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
    # dot_sequential takes terms fan-in-major (K, E, n) and faulty (E, F, n).
    got = kernels.dot_sequential(terms.transpose(2, 1, 0), hit_k, faulty.transpose(2, 0, 1))
    assert got.shape == (n_elems, n_flips, n)
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
                    assert np.isnan(got[e, f, i])
                else:
                    assert got[e, f, i] == acc and np.signbit(got[e, f, i]) == np.signbit(acc)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dot_sequential_of_one_flip_equals_a_flip_of_many(seed):
    """One flip is summed in place of its term, several over a shared head;
    each flip of a batch gives the bits it gives alone."""
    rng = np.random.default_rng(seed)
    n, n_elems, n_terms, n_flips = (int(v) for v in rng.integers([1, 1, 1, 2], [4, 6, 200, 5]))
    terms = rng.normal(size=(n_terms, n_elems, n)) * 10.0 ** rng.integers(-3, 4, (n_terms, 1, 1))
    terms[rng.random(terms.shape) < 0.1] = -0.0
    hit_k = rng.integers(0, n_terms, n_elems)
    faulty = rng.normal(size=(n_elems, n_flips, n))
    special = rng.random(faulty.shape) < 0.3
    faulty[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], special.sum())
    many = kernels.dot_sequential(terms.copy(), hit_k, faulty)
    for f in range(n_flips):
        one = kernels.dot_sequential(terms.copy(), hit_k, faulty[:, f : f + 1])
        assert np.array_equal(one[:, 0], many[:, f], equal_nan=True)
        assert np.array_equal(np.signbit(one[:, 0]), np.signbit(many[:, f]))


def test_dot_sequential_zero_sum_is_positive_zero():
    terms = np.full((5, 3, 2), -0.0)
    got = kernels.dot_sequential(terms, np.array([4, 2, 1]), np.full((3, 2, 2), -0.0))
    assert not np.signbit(got).any()


@pytest.mark.parametrize("columns", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [2, 3, 17, 128, 600])
def test_sum_rows_adds_in_row_order(columns, n_rows):
    """The row sum under dot_sequential adds its rows one after another, as
    a Python loop does, however few the columns: a single column is where
    add.reduce would add pairwise."""
    rng = np.random.default_rng(columns * 1000 + n_rows)
    for _ in range(20):
        a = rng.normal(size=(n_rows, columns)) * 10.0 ** rng.integers(-8, 9, size=(n_rows, 1))
        want = a[0].copy()
        for row in a[1:]:
            want = want + row
        assert np.array_equal(kernels._sum_rows(a), want)
        # the same terms as E = ``columns`` elements of one input under one
        # flip, whose flipped product at position 0 is the clean one
        got = kernels.dot_sequential(a[:, :, None], np.zeros(columns, dtype=np.int64),
                                     a[0][:, None, None])
        assert np.array_equal(got[:, 0, 0], 0.0 + want)


def test_sum_pairwise_adds_in_numpy_row_sum_order():
    """The class sum of softmax adds in the order of numpy's own row sum,
    which the reference engine's ``e.sum()`` takes. This pins that order:
    a numpy that splits its pairwise sum differently fails here."""
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        a = rng.normal(size=(7, n)) * 10.0 ** rng.integers(-8, 9, size=(7, n))
        got = kernels.sum_pairwise(np.ascontiguousarray(a.T))
        assert np.array_equal(got, a.sum(axis=1)), n


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


@pytest.mark.parametrize("var_type", [FFType.WEIGHT, FFType.INPUT_ACTIVATION],
                         ids=lambda t: t.name)
def test_fully_corrupted_conv_before_an_overlapping_pool_stays_within_batch_bytes(
        monkeypatch, var_type):
    """Under SW semantics a conv weight fault changes a whole output channel,
    which an overlapping max-pool then reads from every window: the pool's
    patches must go in chunks of windows, as the recompute goes in chunks
    of elements."""
    fmt = NumericFormat.FP32
    rng = np.random.default_rng(9)
    net = MicroNetwork([
        Conv2D(_weights(rng, (1, 1, 3, 3), fmt), pad=1), ReLU(), MaxPool2D(kernel=3, stride=1),
        Flatten(), FC(_weights(rng, (3, 196), fmt)), Softmax(),
    ], (1, 16, 16), fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, make_evalset(net, 8, seed=2))
    fault = make_fault(SoftwareFaultSite(profile.layers[0].layer_id, var_type, 4, 0), config,
                       FaultSemantics.SW)
    bits = range(fmt.width)
    whole = faulty_predictions(net, fault, profile, cache, bits)
    monkeypatch.setattr(microdnn, "BATCH_BYTES", 1 << 18)
    tracemalloc.start()
    try:
        chunked = faulty_predictions(net, fault, profile, cache, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, whole)
    # Unchunked, the (k*k + 1, windows, bits, inputs) patches of one input
    # chunk of the weight fault take 10 x 196 x 32 x 4 x 8 B = 2 MiB.
    assert peak < 4 * microdnn.BATCH_BYTES, peak


# --- local-control mapping -----------------------------------------------------

def _hashed_weight(net, profile, var_index):
    """The documented local-control rule in Python ints: weight (v *
    2654435761) mod W of the network's W weights, counted through the
    profile's weight layers in order."""
    layers = [(l.layer_id, net.layers[l.net_index].weight.size) for l in profile.layers
              if hasattr(net.layers[l.net_index], "weight")]
    g = var_index * 2654435761 % sum(size for _, size in layers)
    for layer_id, size in layers:
        if g < size:
            return layer_id, g
        g -= size
    raise AssertionError("the profile's layers hold fewer weights than the network")


def _four_weight_layer_net(fmt):
    rng = np.random.default_rng(15)
    return MicroNetwork([
        Conv2D(_weights(rng, (2, 1, 3, 3), fmt)), ReLU(), Conv2D(_weights(rng, (3, 2, 2, 2), fmt)),
        Flatten(), FC(_weights(rng, (5, 27), fmt)), ReLU(), FC(_weights(rng, (3, 5), fmt)),
        Softmax(),
    ], (1, 6, 6), fmt)


@pytest.mark.parametrize("make_net", [make_pool_toy, _four_weight_layer_net],
                         ids=["pool", "four_weight_layers"])
def test_local_control_targets_follow_the_knuth_hash(make_net):
    """Every local-control variable, and var indices whose product with the
    hash constant passes 2**63, land where the Python-int rule puts them."""
    net = make_net(NumericFormat.FP32)
    profile = derive_profile(net, make_config())
    count = profile.control_var_count[FFType.CONTROL_LOCAL]
    vs = list(range(count)) + [2**40, 2**40 + 12_345, 2**62 + 3, 2**63 - 1]
    assert vs[-4] * 2654435761 > 2**63
    layer_ids, widx = microdnn._local_control_targets(net, profile, vs)
    assert list(zip(layer_ids.tolist(), widx.tolist())) == [
        _hashed_weight(net, profile, v) for v in vs]


def test_repeated_rows_name_only_equivalent_faults():
    """Local control repeats the weight rows its hash picks, under TRUE
    semantics and the weight's own mode and reuse only; a ReLU input repeats
    the output activations of the profile layer before it, and a class with
    no such layer, or of another kind, repeats nothing."""
    fmt = NumericFormat.FP16
    net, config = make_pool_toy(fmt), make_config(fmt)
    profile = derive_profile(net, config)

    def rows_of(site, semantics=FaultSemantics.TRUE, fault=None, n=None):
        fault = fault or make_fault(site, config, semantics)
        count = n or profile.layer(site.layer_id).var_count[site.var_type]
        return microdnn.repeated_rows(net, profile, config, semantics, fault, count)

    n = profile.control_var_count[FFType.CONTROL_LOCAL]
    local = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_LOCAL, 0, 0)
    groups = rows_of(local, n=n)
    layer_ids, widx = microdnn._local_control_targets(net, profile, np.arange(n))
    assert sorted(np.concatenate([pos for _, pos, _ in groups]).tolist()) == list(range(n))
    for (lid, t), pos, rows in groups:
        assert t is FFType.WEIGHT and (layer_ids[pos] == lid).all()
        assert np.array_equal(rows, widx[pos])
    reuse = config.reuse[FFType.WEIGHT]
    for fault, semantics in [
        (FaultSpec(local, FaultMode.REUSE_BOUNDED, reuse + 1), FaultSemantics.TRUE),
        (FaultSpec(local, FaultMode.FULL_CORRUPTION), FaultSemantics.TRUE),
        (FaultSpec(local, FaultMode.FULL_CORRUPTION), FaultSemantics.SW),
    ]:
        assert rows_of(local, semantics, fault, n) == []

    relu_input = SoftwareFaultSite(1, FFType.INPUT_ACTIVATION, 0, 0)
    n = profile.layer(1).var_count[FFType.INPUT_ACTIVATION]
    for semantics in FaultSemantics:
        [(source, pos, rows)] = rows_of(relu_input, semantics)
        assert source == (0, FFType.OUTPUT_ACTIVATION)
        assert pos.tolist() == rows.tolist() == list(range(n))
    for lid, t in [(0, FFType.INPUT_ACTIVATION), (0, FFType.WEIGHT), (1, FFType.OUTPUT_ACTIVATION),
                   (2, FFType.INPUT_ACTIVATION), (3, FFType.INPUT_ACTIVATION)]:
        assert rows_of(SoftwareFaultSite(lid, t, 0, 0)) == [], (lid, t)

    # A Flatten before the ReLU: no profile layer produces its input.
    rng = np.random.default_rng(4)
    flat = MicroNetwork([Conv2D(_weights(rng, (2, 1, 3, 3), fmt)), Flatten(), ReLU(),
                         FC(_weights(rng, (3, 32), fmt)), Softmax()], (1, 6, 6), fmt)
    fault = make_fault(relu_input, config)
    assert microdnn.repeated_rows(flat, derive_profile(flat, config), config,
                                  FaultSemantics.TRUE, fault, 32) == []


# --- batches of variables ------------------------------------------------------

def _overlap_toy(fmt):
    """A padded conv and an overlapping max-pool: inputs near the border
    are read by fewer outputs, so the variables of a class have windows of
    different sizes and starts."""
    rng = np.random.default_rng(12)
    return MicroNetwork([
        Conv2D(_weights(rng, (2, 1, 3, 3), fmt), stride=1, pad=1), ReLU(),
        MaxPool2D(kernel=3, stride=1), Flatten(), FC(_weights(rng, (3, 32), fmt)), Softmax(),
    ], (1, 6, 6), fmt)


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
@pytest.mark.parametrize("toy", ["dense", "pool", "skew", "overlap", "skip", "stride",
                                 "conv_stride", "lenet"])
def test_batches_of_variables_equal_one_variable_at_a_time(monkeypatch, toy, fmt, semantics):
    """A class evaluated in batches of variables gives, bit for bit, the
    predictions of each variable evaluated alone. Small BATCH_BYTES values
    split the classes into batches of several variables, and single
    variables into chunks of inputs and of recomputed elements; the test
    checks that each of these boundaries occurs."""
    net = _overlap_toy(fmt) if toy == "overlap" else TOYS[toy](fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 4, seed=6)
    classes, bit_width = _classes(profile, config, semantics)
    bits = range(bit_width)
    cache = ActivationCache(net, evalset)

    def fault(c, v):
        return make_fault(SoftwareFaultSite(c.layer_id, c.var_type, v, 0), config, semantics)

    alone = {c: np.array([faulty_predictions(net, fault(c, v), profile, cache, bits)
                          for v in range(c.var_count)]) for c in classes}

    seen = set()
    sums = []
    faulty_outputs, dot_sequential = microdnn._faulty_outputs, kernels.dot_sequential

    def spy_outputs(net, cache, i, cols, var_type, var_indices, bits, fault):
        sums.append(0)
        out = faulty_outputs(net, cache, i, cols, var_type, var_indices, bits, fault)
        if 1 < len(var_indices) < c.var_count:
            seen.add("variables")
        if len(range(evalset.size)[cols]) < evalset.size:
            seen.add("inputs")
        if sums[-1] > 1:
            seen.add("elements")
        return out

    def spy_sum(*args):
        sums[-1] += 1
        return dot_sequential(*args)

    monkeypatch.setattr(microdnn, "_faulty_outputs", spy_outputs)
    monkeypatch.setattr(kernels, "dot_sequential", spy_sum)
    for batch_bytes in (1 << 9, 1 << 13, 1 << 17):
        monkeypatch.setattr(microdnn, "BATCH_BYTES", batch_bytes)
        for c in classes:
            got = faulty_predictions(net, fault(c, 0), profile, cache, bits,
                                     np.arange(c.var_count))
            assert np.array_equal(got, alone[c]), (batch_bytes, c)
    assert seen == {"variables", "inputs", "elements"}


def _funnel_toy(fmt):
    """A wide conv output into an overlapping max-pool of nine outputs: a
    fully corrupted conv weight changes 144 elements, 16 times the dense
    part of its rows."""
    rng = np.random.default_rng(20)
    return MicroNetwork([
        Conv2D(_weights(rng, (1, 1, 3, 3), fmt), pad=1), ReLU(), MaxPool2D(kernel=6, stride=3),
        Flatten(), FC(_weights(rng, (3, 9), fmt)), Softmax(),
    ], (1, 12, 12), fmt)


def _head_toy(fmt):
    """An FC layer of fan-in 256 into two classes: one recomputed element
    sums 257 terms, 128 times the dense part of its rows."""
    rng = np.random.default_rng(21)
    return MicroNetwork([FC(_weights(rng, (2, 256), fmt)), Softmax()], (256,), fmt)


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
@pytest.mark.parametrize("toy", ["pool", "overlap", "funnel", "head"])
def test_oracle_batches_of_variables_stay_within_batch_bytes(monkeypatch, toy, semantics):
    """A batch is sized by the most elements one (var, bit, input) row holds
    at once: its dense part, its frontier or one recomputed element. That
    width is a bound on memory, not a guess. Over every class the oracle
    evaluates, in batches of several variables, the tracemalloc peak stays
    under 4 x BATCH_BYTES and the predictions equal the unpatched ones. The
    overlapping max-pools spread a frontier entry to up to nine windows.
    Sized without their frontier, the funnel's conv weight rows under SW
    would peak at 17 x BATCH_BYTES; sized without the sums of one
    recomputed element, the head's FC rows would peak at 6 x and the
    overlap toy's at 4.4 x."""
    fmt = NumericFormat.FP32
    net = {"pool": make_pool_toy, "overlap": _overlap_toy, "funnel": _funnel_toy,
           "head": _head_toy}[toy](fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, make_evalset(net, 4, seed=6))
    classes, bit_width = _classes(profile, config, semantics)
    faults = [(c, make_fault(SoftwareFaultSite(c.layer_id, c.var_type, 0, 0), config, semantics))
              for c in classes]
    faults = [(c, f) for c, f in faults if f.mode is not FaultMode.CRASH]
    bits = range(bit_width)
    whole = [faulty_predictions(net, f, profile, cache, bits, np.arange(c.var_count))
             for c, f in faults]
    monkeypatch.setattr(microdnn, "BATCH_BYTES", 1 << 16)
    most_vars = 0
    tracemalloc.start()
    try:
        for (c, fault), expect in zip(faults, whole):
            for positions, preds in microdnn.prediction_batches(net, fault, profile, cache, bits,
                                                                np.arange(c.var_count)):
                assert np.array_equal(preds, expect[positions]), c
                most_vars = max(most_vars, len(positions))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert most_vars > 1
    assert peak < 4 * microdnn.BATCH_BYTES, peak


def test_pool16_oracle_batch_count_per_class():
    """The FP16 pool toy over 40 inputs, the benchmark's oracle workload,
    takes 20 batches besides the crash class's one. Sized by the widest
    activation from the faulted layer on, as it once was, it took 49: each
    class of the conv and the ReLU, and the max-pool's input, went in 4 to
    8 batches."""
    fmt = NumericFormat.FP16
    net = make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, make_evalset(net, 40, seed=0))
    classes, bit_width = _classes(profile, config, FaultSemantics.TRUE)
    counts = {}
    for c in classes:
        fault = make_fault(SoftwareFaultSite(c.layer_id, c.var_type, 0, 0), config)
        batches = microdnn.prediction_batches(net, fault, profile, cache, range(bit_width),
                                              np.arange(c.var_count))
        counts[c.layer_id, c.var_type] = sum(1 for _ in batches)
    ia, w, oa = FFType.INPUT_ACTIVATION, FFType.WEIGHT, FFType.OUTPUT_ACTIVATION
    assert counts == {
        (0, ia): 2, (0, w): 1, (0, oa): 2, (1, ia): 2, (1, oa): 2, (2, ia): 2, (2, oa): 1,
        (3, ia): 1, (3, w): 2, (3, oa): 1,
        (CONTROL_LAYER, FFType.CONTROL_GLOBAL): 1, (CONTROL_LAYER, FFType.CONTROL_LOCAL): 4,
    }


@pytest.mark.parametrize("seed", range(4))
def test_live_rows_are_the_rows_any_entry_changes(seed):
    """The one-hot product finds the rows a per-variable np.any finds,
    with no entry at all, and with variables that have no entry."""
    rng = np.random.default_rng(seed)
    n_bits, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    for n_vars in (1, 2, 7):
        for n_entries in (0, 1, 5, 40):
            owner = np.sort(rng.integers(0, n_vars, size=n_entries))
            if n_vars > 2 and n_entries:
                owner[owner == 1] = 0  # variable 1 has no entry
            differ = rng.random((n_entries, n_bits, n)) < rng.choice([0.0, 0.1, 0.5])
            expect = np.array([differ[owner == v].any(axis=0) for v in range(n_vars)])
            got = microdnn._live_rows(n_vars, owner, differ)
            assert np.array_equal(got, np.flatnonzero(expect)), (n_vars, n_entries)


@pytest.mark.parametrize("semantics", list(FaultSemantics), ids=lambda s: s.name)
def test_batch_of_variables_with_an_empty_frontier_gives_clean_predictions(
        monkeypatch, semantics):
    """Input positions that no conv window reads change no element: a batch
    of several of them has no frontier entry at all, and every prediction
    is the clean one."""
    fmt = NumericFormat.FP32
    net = _conv_stride_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, make_evalset(net, 4, seed=6))
    unread = np.flatnonzero(cache.fields[0].count == 0)
    assert len(unread) > 1
    fault = make_fault(SoftwareFaultSite(0, FFType.INPUT_ACTIVATION, 0, 0), config, semantics)
    shapes = []
    live_rows = microdnn._live_rows

    def spy(n_vars, owner, differ):
        shapes.append((n_vars, differ.shape))
        return live_rows(n_vars, owner, differ)

    monkeypatch.setattr(microdnn, "_live_rows", spy)
    got = faulty_predictions(net, fault, profile, cache, range(fmt.width), unread)
    assert shapes == [(len(unread), (0, fmt.width, 4))]
    assert np.array_equal(got, np.broadcast_to(cache.preds, got.shape))


def test_oracle_progress_rises_to_the_total(monkeypatch):
    """``progress`` is called once per injected batch and once per gathered
    class with a strictly rising count of sites done that ends at the total;
    a caller may divide by the step."""
    fmt = NumericFormat.FP16
    net = make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 5, seed=2)
    table = build_table(profile, config)
    crash_sites = sum(c.var_count for c in table.classes
                      if c.var_type is FFType.CONTROL_GLOBAL) * table.bit_width
    # Local control repeats the weights' rows and the ReLU's input the conv's
    # output activations: each is gathered in one step.
    gathered = {(CONTROL_LAYER, FFType.CONTROL_LOCAL), (1, FFType.INPUT_ACTIVATION)}
    injected = [c for c in table.classes if c.var_type is not FFType.CONTROL_GLOBAL
                and (c.layer_id, c.var_type) not in gathered]
    n_steps = sum(c.var_count for c in injected) + len(gathered)
    for batch_bytes in (1, microdnn.BATCH_BYTES):
        monkeypatch.setattr(microdnn, "BATCH_BYTES", batch_bytes)
        calls = []
        exhaustive_ra(profile, config, net, evalset, progress=lambda d, t: calls.append((d, t)))
        done = [d for d, _ in calls]
        assert all(b > a for a, b in zip([0] + done, done)), done
        assert {t for _, t in calls} == {table.total_sites - crash_sites}
        assert done[-1] == table.total_sites - crash_sites
        # one call per injected variable when every batch holds one, plus one
        # per gathered class; fewer otherwise
        assert len(calls) == n_steps if batch_bytes == 1 else len(calls) < n_steps


# --- masked rows -----------------------------------------------------------------

def _masking_net():
    """FC -> ReLU -> FC -> Softmax in FP32 with four inputs. The first layer
    copies input 0 and input 1 to units 0 and 1, and unit 2 is minus a
    quarter of the input sum; all three are exact:

    unit 0: -1.5, 1.0, -1.0, -0.5 (flipping bit 30 gives -NaN, +Inf, -Inf, -2**127)
    unit 1: 0.5, -0.5, 0.75, -0.25
    unit 2: negative for every input
    """
    fmt = NumericFormat.FP32
    w1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-0.25] * 4], dtype=np.float32)
    w2 = np.array([[1, -1, 0.5], [-1, 1, 0.5], [0.5, 0.5, -1]], dtype=np.float32)
    net = MicroNetwork([FC(w1), ReLU(), FC(w2), Softmax()], (4,), fmt)
    inputs = np.array([[-1.5, 0.5, 1.0, 0.5], [1.0, -0.5, 0.5, 0.25],
                       [-1.0, 0.75, 0.5, 0.5], [-0.5, -0.25, 0.25, 0.75]], dtype=np.float32)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, EvalSet(inputs, np.zeros(len(inputs), dtype=np.int64)))
    assert np.array_equal(cache.acts[1][:, :2], inputs[:, :2])
    assert np.all(cache.acts[1][:, 2] < 0)
    return net, profile, config, cache


def _rows_into_fc(monkeypatch):
    """The number of rows of each later ``kernels.fc`` call."""
    rows = []
    fc = kernels.fc

    def spy(x, w):
        rows.append(len(x))
        return fc(x, w)

    monkeypatch.setattr(kernels, "fc", spy)
    return rows


def _masked_run(monkeypatch, var, bits):
    """Faulty predictions with output activation ``var`` of the first layer
    flipped, each equal to the reference engine's, and the rows that reached
    the second FC layer."""
    net, profile, config, cache = _masking_net()
    layer_id = next(l.layer_id for l in profile.layers if l.net_index == 0)
    fault = make_fault(SoftwareFaultSite(layer_id, FFType.OUTPUT_ACTIVATION, var, 0), config)
    rows = _rows_into_fc(monkeypatch)
    got = faulty_predictions(net, fault, profile, cache, bits)
    rows = rows[:]  # the reference engine calls kernels.fc too
    for i, b in enumerate(bits):
        f = make_fault(SoftwareFaultSite(layer_id, FFType.OUTPUT_ACTIVATION, var, b), config)
        assert list(got[i]) == [reference_infer(net, x, f, profile) for x in cache.acts[0]], b
    return got, rows, cache


def test_masked_rows_skip_the_next_fc_layer(monkeypatch):
    """A low-mantissa flip of a negative value before a ReLU is masked:
    those rows do not reach the next FC layer and take the clean prediction.
    The flips of positive values reach it."""
    got, rows, cache = _masked_run(monkeypatch, 1, [0])
    assert rows == [2]
    assert np.array_equal(got[0, [1, 3]], cache.preds[[1, 3]])


def test_nan_and_inf_rows_are_kept(monkeypatch):
    """Flipping bit 30 makes -1.5 a NaN, which ReLU keeps, and 1.0 +Inf:
    both rows reach the next FC layer. -Inf and -2**127 become +0 in the
    ReLU, as the clean values do, and are dropped."""
    got, rows, cache = _masked_run(monkeypatch, 0, [30])
    assert rows == [2]
    assert np.array_equal(got[0, [2, 3]], cache.preds[[2, 3]])


def test_fully_masked_batch_gives_clean_predictions(monkeypatch):
    """Every mantissa flip of a value that is negative for every input is
    masked: no row reaches the next FC layer, and every prediction is the
    clean one."""
    got, rows, cache = _masked_run(monkeypatch, 2, range(23))
    assert rows == []
    assert np.array_equal(got, np.broadcast_to(cache.preds, got.shape))


# --- the fault frontier ---------------------------------------------------------

def _unread(net, pool_index):
    """Flat positions of the max-pool input that no window reads."""
    layer = net.layers[pool_index]
    c, h, w = net.input_shape_of(pool_index)
    _, oh, ow = net.output_shape_of(pool_index)
    read = np.zeros((c, h, w), dtype=bool)
    for y in range(oh):
        for z in range(ow):
            read[:, y * layer.stride : y * layer.stride + layer.kernel,
                 z * layer.stride : z * layer.stride + layer.kernel] = True
    return np.flatnonzero(~read)


@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
@pytest.mark.parametrize("toy", ["skip", "stride"])
def test_elements_no_window_reads_give_the_clean_prediction(monkeypatch, toy, fmt):
    """Flipping any bit of a conv output or ReLU element that no max-pool
    window reads changes no prediction, and no row reaches the FC layer."""
    net = TOYS[toy](fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    cache = ActivationCache(net, make_evalset(net, 4, seed=6))
    unread = _unread(net, 2)
    assert len(unread)
    rows = _rows_into_fc(monkeypatch)
    for layer_id, var_type in [(0, FFType.OUTPUT_ACTIVATION), (1, FFType.INPUT_ACTIVATION),
                               (1, FFType.OUTPUT_ACTIVATION)]:
        fault = make_fault(SoftwareFaultSite(layer_id, var_type, 0, 0), config)
        got = faulty_predictions(net, fault, profile, cache, range(fmt.width), unread)
        assert np.array_equal(got, np.broadcast_to(cache.preds, got.shape)), (layer_id, var_type)
    assert rows == []


def test_pool_sees_no_faulty_row_and_fc_only_changed_ones(monkeypatch):
    """After a conv, ReLU-input or ReLU-output fault on the pool toy, only
    the max-pool windows that cover a changed element are recomputed, so
    ``kernels.maxpool2d`` never sees a faulty row; ``kernels.fc`` receives
    exactly the rows whose pooled values differ in bits from the clean ones,
    as the reference engine computes them."""
    fmt = NumericFormat.FP32
    net = make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config)
    evalset = make_evalset(net, 4, seed=2)
    cache = ActivationCache(net, evalset)
    fc = next(i for i, layer in enumerate(net.layers) if isinstance(layer, FC))
    head = MicroNetwork(net.layers[:fc], net.input_shape, fmt)
    head_profile = derive_profile(head, config)
    clean_pool_rows = {r.tobytes() for r in cache.acts[2] * np.float32(1.0)}
    bits = range(fmt.width)
    seen = {"maxpool2d": [], "fc": []}
    for name in seen:
        kernel = getattr(kernels, name)

        def spy(x, *args, kernel=kernel, rows=seen[name]):
            rows.extend(x)
            return kernel(x, *args)

        monkeypatch.setattr(kernels, name, spy)
    for layer_id, var_type in [(0, FFType.WEIGHT), (0, FFType.INPUT_ACTIVATION),
                               (0, FFType.OUTPUT_ACTIVATION), (1, FFType.INPUT_ACTIVATION),
                               (1, FFType.OUTPUT_ACTIVATION)]:
        vs = range(0, profile.layer(layer_id).var_count[var_type], 3)
        for rows in seen.values():
            rows.clear()
        faulty_predictions(net, make_fault(SoftwareFaultSite(layer_id, var_type, 0, 0), config),
                           profile, cache, bits, vs)
        assert all(r.tobytes() in clean_pool_rows for r in seen["maxpool2d"]), var_type
        got = sorted(r.tobytes() for r in seen["fc"])
        want = []  # the reference engine's own kernel calls come after these
        for v in vs:
            for b in bits:
                f = make_fault(SoftwareFaultSite(layer_id, var_type, v, b), config)
                for i, x in enumerate(evalset.inputs):
                    out = reference_output(head, x, f, head_profile)
                    if out.tobytes() != cache.acts[fc][i].tobytes():  # bits differ
                        want.append(out.astype(np.float64).tobytes())
        assert got == sorted(want), (layer_id, var_type)


# --- softmax ----------------------------------------------------------------------

def _softmax_logits(rng, fmt, n_rows, n_classes):
    """Random logits, the last rows special: only NaN, only +Inf, only
    -Inf, only the largest finite value or its negative; one of each among
    random logits; all of them in one row; and a row of equal logits. INT8
    has no NaN or Inf, so its special values are 127 and -128."""
    if fmt is NumericFormat.INT8:
        x = rng.integers(-128, 128, size=(n_rows, n_classes)).astype(np.int8)
        specials = [np.int8(127), np.int8(-128)]
    else:
        x = rng.normal(0.0, 4.0, size=(n_rows, n_classes)).astype(fmt.dtype)
        big = np.finfo(fmt.dtype).max
        specials = [np.nan, np.inf, -np.inf, big, -big]
    rows = [np.full(n_classes, v) for v in specials]  # only one value
    for j, v in enumerate(specials):  # one value among random ones
        row = x[j].astype(np.float64)
        row[(7 * j) % n_classes] = v
        rows.append(row)
    mixed = x[0].astype(np.float64)
    for j, v in enumerate(specials):
        mixed[j :: len(specials) + 1] = v
    rows.append(mixed)
    tie = x[1].astype(np.float64)
    tie[:] = tie.max()
    rows.append(tie)
    for i, row in enumerate(rows[: n_rows]):
        x[n_rows - 1 - i] = row.astype(fmt.dtype)
    return x


@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
@pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 9, 10, 16, 17, 128, 129, 300])
def test_softmax_equals_reference_bit_for_bit(fmt, n_classes):
    """Class-major softmax over a batch gives, bit for bit, what the
    reference engine gives each input alone, as a C-contiguous (rows,
    classes) array, on batches of 1, 2 and 37 rows with NaN, +-Inf and
    huge logits. (The cast to the storage format hides almost every change
    in the order of the float64 class sum, so
    test_sum_pairwise_adds_in_numpy_row_sum_order pins that.)"""
    rng = np.random.default_rng(n_classes)
    x = _softmax_logits(rng, fmt, 37, n_classes)
    with np.errstate(all="ignore"):
        want = np.stack([reference_apply_layer(Softmax(), xi, fmt) for xi in x])
        for rows in [slice(None)] + [slice(i, i + k) for k in (1, 2) for i in range(37 - k + 1)]:
            got = microdnn._apply_layer(Softmax(), x[rows], fmt)
            assert got.dtype == fmt.dtype and got.flags.c_contiguous
            assert np.array_equal(got.view(fmt.bits_dtype), want[rows].view(fmt.bits_dtype)), rows


def test_softmax_keeps_the_shape_of_its_input():
    """A softmax over a (C, H, W) activation normalises each item over
    all its elements and keeps the shape."""
    x = np.random.default_rng(1).normal(size=(5, 2, 3, 4)).astype(np.float32)
    with np.errstate(all="ignore"):
        got = microdnn._apply_layer(Softmax(), x, NumericFormat.FP32)
        want = np.stack([reference_apply_layer(Softmax(), xi, NumericFormat.FP32) for xi in x])
    assert got.shape == x.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


# --- FP16 elementwise layers ---------------------------------------------------

def test_fp16_relu_on_bit_patterns_equals_maximum():
    x = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
    got = microdnn._apply_layer(ReLU(), x.reshape(4, -1), NumericFormat.FP16)
    with np.errstate(invalid="ignore"):
        want = np.maximum(x, np.float16(0))
    assert got.dtype == np.float16
    assert np.array_equal(got.view(np.uint16).reshape(-1), want.view(np.uint16))


def _fp16_patterns(rng, shape, specials):
    """Random FP16 bit patterns, half of them drawn from ``specials``; the
    random ones that are signalling NaNs are made quiet."""
    bits = rng.integers(0, 1 << 16, size=shape).astype(np.uint16)
    signalling = ((bits & 0x7C00) == 0x7C00) & ((bits & 0x3FF) != 0) & ((bits & 0x200) == 0)
    bits[signalling] |= 0x200
    pick = rng.random(shape) < 0.5
    bits[pick] = rng.choice(np.array(specials, dtype=np.uint16), pick.sum())
    return bits.view(np.float16)


# +-0, +-Inf, quiet NaNs of both signs, the smallest subnormals, the largest finite values
FP16_SPECIALS = [0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7E01, 0xFF2A,
                 0x0001, 0x8001, 0x7BFF, 0xFBFF]
POOLS = [(1, 1), (2, 2), (3, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("kernel,stride", POOLS)
def test_fp16_maxpool_equals_reference(kernel, stride):
    """On FP16 patterns with quiet NaNs, +-0 and +-Inf, max-pool over a
    batch gives the bits the reference engine gives each input alone."""
    rng = np.random.default_rng(kernel * 10 + stride)
    x = _fp16_patterns(rng, (16, 2, 7, 7), FP16_SPECIALS)
    layer = MaxPool2D(kernel=kernel, stride=stride)
    got = microdnn._apply_layer(layer, x, NumericFormat.FP16)
    want = np.stack([reference_apply_layer(layer, xi, NumericFormat.FP16) for xi in x])
    assert got.dtype == np.float16
    assert np.array_equal(got.view(np.uint16), want.view(np.uint16))


@pytest.mark.parametrize("kernel,stride", POOLS)
def test_fp16_maxpool_ignores_signalling_nans_as_fp16_does(kernel, stride):
    """A flipped exponent can make a signalling NaN. FP16 max-pool ignores
    it like any NaN, as FP16 fmax does, whatever the batch. (numpy's float64
    fmax answers a signalling NaN by memory layout, which is why both
    engines quiet it first.)"""
    rng = np.random.default_rng(kernel * 10 + stride)
    x = _fp16_patterns(rng, (16, 2, 7, 7), FP16_SPECIALS + [0x7C01, 0xFC2A, 0x7D00])
    layer = MaxPool2D(kernel=kernel, stride=stride)
    with np.errstate(invalid="ignore"):
        fp16 = kernels.maxpool2d(x, kernel, stride)
        for batch in (slice(None), slice(0, 1), slice(5, 7)):
            got = microdnn._apply_layer(layer, x[batch], NumericFormat.FP16)
            # equal values: NaN where FP16 gives NaN, +0 and -0 alike
            assert np.array_equal(got, fp16[batch], equal_nan=True)


def _fp32_patterns(rng, shape, specials):
    """Random FP32 bit patterns, half of them drawn from ``specials``."""
    bits = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64).astype(np.uint32)
    pick = rng.random(shape) < 0.5
    bits[pick] = rng.choice(np.array(specials, dtype=np.uint32), pick.sum())
    return bits.view(np.float32)


# +-0, +-Inf, quiet and signalling NaNs of both signs, the smallest
# subnormals, the largest finite values
FP32_SPECIALS = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000,
                 0x7F800001, 0xFF812345, 0x7FA00000, 0x00000001, 0x80000001, 0x7F7FFFFF,
                 0xFF7FFFFF]


@pytest.mark.parametrize("shape", [(16, 2, 4, 4), (16, 2, 7, 7)])
@pytest.mark.parametrize("kernel,stride", POOLS)
def test_fp32_maxpool_ignores_signalling_nans_whatever_the_batch(kernel, stride, shape):
    """A flipped exponent can make a signalling NaN. FP32 max-pool ignores
    it like any NaN and gives each input the values the reference engine
    gives it alone, whatever else is in the batch. (numpy's float32 fmax
    answers a signalling NaN by code path, and so by the batch.)"""
    rng = np.random.default_rng(kernel * 10 + stride)
    x = _fp32_patterns(rng, shape, FP32_SPECIALS)
    layer = MaxPool2D(kernel=kernel, stride=stride)
    with np.errstate(invalid="ignore"):
        want = np.stack([reference_apply_layer(layer, xi, NumericFormat.FP32) for xi in x])
        for batch in (slice(None), slice(0, 1), slice(5, 7), slice(3, 11)):
            got = microdnn._apply_layer(layer, x[batch], NumericFormat.FP32)
            assert got.dtype == np.float32
            # equal values: NaN where the reference gives NaN, +0 and -0 alike
            assert np.array_equal(got, want[batch], equal_nan=True), batch
