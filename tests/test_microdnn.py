"""Micro inference engine and fault-injection semantics."""

import dataclasses

import numpy as np
import pytest

from resacc.container import (
    ContainerError,
    load_evalset,
    load_network,
    save_evalset,
    save_network,
)
from resacc.formats import NumericFormat
from resacc.microdnn import (
    CRASHED,
    FC,
    ActivationCache,
    EvalSet,
    FaultMode,
    FaultSemantics,
    FaultSpec,
    MicroNetwork,
    Softmax,
    accuracy,
    clean_activations,
    forward,
    make_fault,
)
from resacc.profile import FFType, SoftwareFaultSite, CONTROL_LAYER, derive_profile
from resacc import microdnn, toynets
from resacc.toynets import (
    make_config,
    make_conv_toy,
    make_dense_toy,
    make_evalset,
    make_pool_toy,
    make_skewed_toy,
)

from predictions import faulty_predictions


def infer(net, x) -> int:
    """Predicted class of one clean input."""
    return int(microdnn._predict(microdnn._forward(net, np.asarray(x)[None]))[0])


def predict(net, x, fault, prof, bits=None):
    """Predicted class of one input under the fault, for each of ``bits``
    (default: the fault's own bit)."""
    cache = ActivationCache(net, EvalSet(np.asarray(x)[None], np.zeros(1, dtype=np.int64)))
    bits = [fault.site.bit_pos] if bits is None else bits
    return faulty_predictions(net, fault, prof, cache, bits)[:, 0]


@pytest.fixture(scope="module")
def dense():
    net = make_dense_toy(seed=3)
    config = make_config()
    return net, config, derive_profile(net, config)


class TestCleanInference:
    def test_identity_fc_predicts_hot_index(self):
        w = np.eye(5, dtype=np.float32)
        net = MicroNetwork(layers=[FC(w)], input_shape=(5,),
                           numeric_format=NumericFormat.FP32)
        for hot in range(5):
            x = np.zeros(5, dtype=np.float32)
            x[hot] = 1.0
            assert infer(net, x) == hot

    def test_zero_weights_tie_break_first_class(self):
        w = np.zeros((4, 6), dtype=np.float32)
        net = MicroNetwork(layers=[FC(w), Softmax()], input_shape=(6,),
                           numeric_format=NumericFormat.FP32)
        assert infer(net, np.ones(6, dtype=np.float32)) == 0

    def test_pinned_prediction(self):
        # recorded once from the reference run; guards cross-run stability
        net = make_dense_toy(seed=3)
        x = np.linspace(-1, 1, 12).astype(np.float32)
        assert infer(net, x) == 1

    def test_bad_input_shape_rejected(self):
        net = make_dense_toy()
        with pytest.raises(ValueError):
            infer(net, np.zeros(13, dtype=np.float32))

    def test_clean_activations_match_forward(self):
        net = make_conv_toy()
        x = np.linspace(-1, 1, 36).reshape(1, 6, 6).astype(np.float16)
        acts = clean_activations(net, x)
        assert len(acts) == len(net.layers) + 1
        assert int(np.argmax(acts[-1])) == infer(net, x)


class TestFaultSemantics:
    def test_make_fault_true_semantics(self, dense):
        net, config, prof = dense
        w_site = SoftwareFaultSite(0, FFType.WEIGHT, 0, 0)
        f = make_fault(w_site, config, FaultSemantics.TRUE)
        assert f.mode is FaultMode.REUSE_BOUNDED and f.reuse == 4
        cg = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_GLOBAL, 0, 0)
        assert make_fault(cg, config).mode is FaultMode.CRASH
        cl = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_LOCAL, 0, 0)
        assert make_fault(cl, config).mode is FaultMode.REUSE_BOUNDED

    def test_sw_semantics_full_corruption_only(self, dense):
        net, config, prof = dense
        site = SoftwareFaultSite(0, FFType.WEIGHT, 0, 0)
        assert make_fault(site, config, FaultSemantics.SW).mode is (
            FaultMode.FULL_CORRUPTION
        )
        cg = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_GLOBAL, 0, 0)
        with pytest.raises(ValueError):
            make_fault(cg, config, FaultSemantics.SW)

    def test_reuse_below_one_is_rejected(self, dense):
        net, config, prof = dense
        site = SoftwareFaultSite(0, FFType.WEIGHT, 0, 0)
        zero = dataclasses.replace(config, reuse={**config.reuse, FFType.WEIGHT: 0})
        with pytest.raises(ValueError, match="reuse factor 0"):
            make_fault(site, zero)
        with pytest.raises(ValueError, match="reuse factor -2"):
            FaultSpec(site, FaultMode.REUSE_BOUNDED, -2)

    def test_reuse_bounded_total_equals_full(self, dense):
        net, config, prof = dense
        x = np.linspace(-1, 1, 12).astype(np.float32)
        uses = prof.layer(0).mac_count // prof.layer(0).var_count[FFType.WEIGHT]
        for var in (0, 17, 95):
            site = SoftwareFaultSite(0, FFType.WEIGHT, var, 0)
            full = FaultSpec(site, FaultMode.FULL_CORRUPTION, 0)
            bounded = FaultSpec(site, FaultMode.REUSE_BOUNDED, uses)
            bits = [30, 12, 0]
            assert np.array_equal(predict(net, x, full, prof, bits),
                                  predict(net, x, bounded, prof, bits))

    def test_crash_regardless_of_input(self, dense):
        net, config, prof = dense
        cg = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_GLOBAL, 0, 0)
        fault = make_fault(cg, config)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-1, 1, 12).astype(np.float32)
            assert predict(net, x, fault, prof).tolist() == [CRASHED]

    def test_no_state_leak(self, dense):
        net, config, prof = dense
        before = [l.weight.copy() for l in net.layers if hasattr(l, "weight")]
        x = np.linspace(-1, 1, 12).astype(np.float32)
        cache = ActivationCache(net, EvalSet(x[None], np.zeros(1, dtype=np.int64)))
        cached = [a.copy() for a in cache.acts]
        for t in (FFType.WEIGHT, FFType.INPUT_ACTIVATION, FFType.OUTPUT_ACTIVATION):
            site = SoftwareFaultSite(0, t, 0, 28)
            faulty_predictions(net, make_fault(site, config), prof, cache, [28, 30])
        after = [l.weight for l in net.layers if hasattr(l, "weight")]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        for b, a in zip(cached, cache.acts):
            assert np.array_equal(b, a)

    def test_faulty_inference_deterministic(self, dense):
        net, config, prof = dense
        x = np.linspace(-1, 1, 12).astype(np.float32)
        site = SoftwareFaultSite(0, FFType.INPUT_ACTIVATION, 3, 29)
        fault = make_fault(site, config)
        preds = {tuple(predict(net, x, fault, prof)) for _ in range(5)}
        assert len(preds) == 1

    def test_benign_site_exists(self, dense):
        # brute-force search: some weight-bit flip leaves the argmax unchanged
        net, config, prof = dense
        x = np.linspace(-1, 1, 12).astype(np.float32)
        clean = infer(net, x)
        found = False
        for var in range(prof.layer(0).var_count[FFType.WEIGHT]):
            site = SoftwareFaultSite(0, FFType.WEIGHT, var, 0)
            if predict(net, x, make_fault(site, config), prof)[0] == clean:
                found = True
                break
        assert found

    def test_local_control_maps_to_weight_fault(self, dense):
        net, config, prof = dense
        x = np.linspace(-1, 1, 12).astype(np.float32)
        site = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_LOCAL, 5, 30)
        (out,) = predict(net, x, make_fault(site, config), prof)
        assert out != CRASHED and 0 <= out < net.output_shape_of(len(net.layers) - 1)[0]

    def test_conv_and_pool_fault_paths(self):
        net = make_pool_toy()
        config = make_config()
        prof = derive_profile(net, config)
        x = np.linspace(-1, 1, 36).reshape(1, 6, 6).astype(np.float32)
        for lid in (l.layer_id for l in prof.layers):
            for t in (FFType.INPUT_ACTIVATION, FFType.OUTPUT_ACTIVATION):
                site = SoftwareFaultSite(lid, t, 0, 31)
                (out,) = predict(net, x, make_fault(site, config), prof)
                assert 0 <= out < net.output_shape_of(len(net.layers) - 1)[0]


class TestAccuracy:
    def test_no_fault_gives_sa(self, dense):
        net, config, prof = dense
        evalset = make_evalset(net, 30, seed=2)
        assert accuracy(net, evalset, None, prof) == 1.0  # self-labeled

    def test_crash_fault_zero_accuracy(self, dense):
        net, config, prof = dense
        evalset = make_evalset(net, 10, seed=2)
        cg = SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_GLOBAL, 0, 0)
        assert accuracy(net, evalset, make_fault(cg, config), prof) == 0.0

    def test_fraction_lsb_flip_near_sa(self, dense):
        net, config, prof = dense
        evalset = make_evalset(net, 30, seed=2)
        sa = accuracy(net, evalset, None, prof)
        site = SoftwareFaultSite(0, FFType.WEIGHT, 11, 0)
        a = accuracy(net, evalset, make_fault(site, config), prof)
        assert a >= sa - 0.05

    def test_exponent_msb_worse_than_lsb_aggregate(self, dense):
        net, config, prof = dense
        evalset = make_evalset(net, 30, seed=2)
        cache = ActivationCache(net, evalset)
        n = prof.layer(0).var_count[FFType.WEIGHT]
        lo = hi = 0.0
        for var in range(0, n, 4):
            hi += accuracy(net, evalset, make_fault(
                SoftwareFaultSite(0, FFType.WEIGHT, var, 30), config), prof, cache)
            lo += accuracy(net, evalset, make_fault(
                SoftwareFaultSite(0, FFType.WEIGHT, var, 0), config), prof, cache)
        assert hi < lo

    def test_label_noise_lowers_sa(self):
        net = make_dense_toy(seed=3)
        prof = derive_profile(net, make_config())
        noisy = make_evalset(net, 200, seed=2, label_noise=0.3)
        assert accuracy(net, noisy, None, prof) < 1.0


TOYS = {
    "dense": make_dense_toy,
    "conv": make_conv_toy,
    "pool": make_pool_toy,
    "skew0": lambda fmt: make_skewed_toy(0, fmt=fmt),
    "skew1": lambda fmt: make_skewed_toy(1, fmt=fmt),
}


@pytest.mark.parametrize("label_noise", [0.0, 0.3])
@pytest.mark.parametrize("fmt", list(NumericFormat), ids=lambda f: f.name)
@pytest.mark.parametrize("toy", list(TOYS))
def test_evalset_labels_equal_one_inference_per_input(monkeypatch, toy, fmt, label_noise):
    """``make_evalset`` labels its inputs with one batched forward; the
    labels, noisy ones included, are those of one inference per input."""
    net = TOYS[toy](fmt)
    got = make_evalset(net, 60, seed=4, label_noise=label_noise)
    if label_noise == 0.0:
        assert got.labels.tolist() == [infer(net, x) for x in got.inputs]
    monkeypatch.setattr(toynets, "_forward",
                        lambda net, inputs: np.stack([forward(net, x) for x in inputs]))
    want = make_evalset(net, 60, seed=4, label_noise=label_noise)
    assert np.array_equal(got.inputs, want.inputs)
    assert got.labels.dtype == want.labels.dtype == np.int64
    assert np.array_equal(got.labels, want.labels)


class TestContainers:
    def test_network_round_trip(self, tmp_path):
        for net in (make_dense_toy(), make_conv_toy(), make_pool_toy()):
            p = tmp_path / "net.bin"
            save_network(net, p)
            back = load_network(p)
            assert back.numeric_format is net.numeric_format
            assert tuple(back.input_shape) == tuple(net.input_shape)
            x = np.zeros(net.input_shape, dtype=net.numeric_format.dtype)
            assert infer(back, x.reshape(net.input_shape)) == infer(
                net, x.reshape(net.input_shape)
            )
            for a, b in zip(net.layers, back.layers):
                if hasattr(a, "weight"):
                    assert np.array_equal(a.weight, b.weight)

    def test_evalset_round_trip(self, tmp_path):
        net = make_dense_toy()
        ev = make_evalset(net, 17, seed=9)
        p = tmp_path / "ev.bin"
        save_evalset(ev, net.numeric_format, p)
        back, fmt = load_evalset(p)
        assert fmt is net.numeric_format
        assert np.array_equal(back.inputs, ev.inputs)
        assert np.array_equal(back.labels, ev.labels)

    def test_corrupt_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTAMAGIC" + b"\x00" * 64)
        with pytest.raises(ContainerError):
            load_network(p)
        with pytest.raises(ContainerError):
            load_evalset(p)
