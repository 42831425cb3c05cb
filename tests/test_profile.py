"""Network profiling: MAC/variable statistics, validation, serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resacc.formats import NumericFormat
from resacc.microdnn import FC, Conv2D, MicroNetwork, ReLU, Softmax
from resacc.profile import (
    CONTROL_LAYER,
    AcceleratorConfig,
    FFType,
    SoftwareFaultSite,
    config_from_text,
    config_to_text,
    derive_profile,
    profile_from_text,
    profile_to_text,
    validate_profile,
)
from resacc.toynets import make_config, make_conv_toy, make_dense_toy, make_pool_toy


def _fc_net(fan_in, fan_out, fmt=NumericFormat.FP32):
    w = np.zeros((fan_out, fan_in), dtype=fmt.dtype)
    return MicroNetwork(layers=[FC(w)], input_shape=(fan_in,), numeric_format=fmt)


class TestDeriveProfile:
    def test_fc_macs(self):
        net = _fc_net(10, 4)
        prof = derive_profile(net, make_config())
        layer = prof.layers[0]
        assert layer.mac_count == 40
        assert layer.var_count[FFType.WEIGHT] == 40
        assert layer.var_count[FFType.INPUT_ACTIVATION] == 10
        assert layer.var_count[FFType.OUTPUT_ACTIVATION] == 4

    def test_conv_macs(self):
        w = np.zeros((2, 1, 3, 3), dtype=np.float32)
        net = MicroNetwork(
            layers=[Conv2D(w, stride=1, pad=0)],
            input_shape=(1, 8, 8),
            numeric_format=NumericFormat.FP32,
        )
        prof = derive_profile(net, make_config())
        assert prof.layers[0].mac_count == 2 * 6 * 6 * 1 * 3 * 3 == 648
        assert prof.layers[0].var_count[FFType.WEIGHT] == 18

    def test_total_macs_sum(self):
        w1 = np.zeros((2, 1, 3, 3), dtype=np.float32)
        w2 = np.zeros((4, 10), dtype=np.float32)
        conv_net = MicroNetwork(
            layers=[Conv2D(w1)], input_shape=(1, 8, 8),
            numeric_format=NumericFormat.FP32,
        )
        config = make_config()
        conv_macs = derive_profile(conv_net, config).total_macs
        fc_macs = derive_profile(_fc_net(10, 4), config).total_macs
        assert conv_macs + fc_macs == 648 + 40 == 688

    def test_flatten_softmax_produce_no_layers(self):
        net = make_conv_toy()
        prof = derive_profile(net, make_config(fmt=net.numeric_format))
        # Conv, ReLU, FC profiled; Flatten and Softmax skipped
        assert len(prof.layers) == 3

    def test_control_vars_follow_ff_counts(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        for t in (FFType.CONTROL_GLOBAL, FFType.CONTROL_LOCAL):
            assert prof.control_var_count[t] == config.ff_count[t]

    def test_utilization_override(self):
        prof = derive_profile(make_dense_toy(), make_config(), utilization={0: 0.5})
        assert prof.layers[0].utilization == 0.5
        assert prof.layers[1].utilization == 1.0

    def test_pool_layer_profiled(self):
        net = make_pool_toy()
        prof = derive_profile(net, make_config())
        kinds = [set(l.var_count) for l in prof.layers]
        # pooling layers own activations but no weights
        assert {FFType.INPUT_ACTIVATION, FFType.OUTPUT_ACTIVATION} in kinds


class TestValidateProfile:
    def test_valid_profile_is_clean(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        assert validate_profile(prof, config) == []

    def test_bad_utilization_names_layer_and_field(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        bad = dataclasses.replace(prof.layers[1], utilization=1.2)
        prof = dataclasses.replace(prof, layers=[prof.layers[0], bad] + prof.layers[2:])
        problems = validate_profile(prof, config)
        assert len(problems) == 1
        assert "layer 1" in problems[0] and "utilization" in problems[0]

    def test_all_zero_raw_fit_flagged(self):
        config = make_config(raw_fit=0.0)
        prof = derive_profile(make_dense_toy(), config)
        problems = validate_profile(prof, config)
        assert any("raw_fit" in p for p in problems)


class TestSerialization:
    def test_config_round_trip(self):
        config = make_config(fmt=NumericFormat.FP16, total_ffs=512, raw_fit=321.5)
        restored = config_from_text(config_to_text(config))
        assert restored == config

    def test_profile_round_trip(self):
        prof = derive_profile(make_dense_toy(), make_config(), utilization={1: 0.75})
        restored = profile_from_text(profile_to_text(prof))
        assert restored == prof

    def test_config_rejects_garbage(self):
        with pytest.raises((ValueError, KeyError)):
            config_from_text("numeric_format = FP13\n")


class TestSoftwareFaultSite:
    def test_hashable_and_frozen(self):
        s = SoftwareFaultSite(0, FFType.WEIGHT, 3, 7)
        assert s in {s}
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.bit_pos = 8

    def test_control_pseudo_layer_constant(self):
        assert CONTROL_LAYER == -1


@given(seed=st.integers(0, 2**16), fmt=st.sampled_from(list(NumericFormat)))
@settings(max_examples=20, deadline=None)
def test_derive_profile_deterministic(seed, fmt):
    config = make_config(fmt=fmt)
    a = derive_profile(make_dense_toy(fmt=fmt, seed=seed), config)
    b = derive_profile(make_dense_toy(fmt=fmt, seed=seed), config)
    assert a == b
    assert a.total_macs == sum(l.mac_count for l in a.layers)


def test_fault_site_repr_and_fields():
    s = SoftwareFaultSite(0, FFType.WEIGHT, 3, 7)
    assert repr(s) == ("SoftwareFaultSite(layer_id=0, var_type=<FFType.WEIGHT: 'weight'>, "
                       "var_index=3, bit_pos=7)")
    assert SoftwareFaultSite._fields == ("layer_id", "var_type", "var_index", "bit_pos")
    with pytest.raises(dataclasses.FrozenInstanceError):
        del s.layer_id
