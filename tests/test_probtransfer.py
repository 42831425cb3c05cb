"""Probability transfer: hardware FF statistics -> per-site probabilities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resacc.formats import NumericFormat
from resacc.microdnn import FC, MicroNetwork
from resacc.probtransfer import (
    RAResult,
    build_table,
    fit_normalization,
    ra_expected,
    type_prob,
)
from resacc.profile import (
    CONTROL_LAYER,
    CONTROL_TYPES,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    LayerStats,
    NetworkProfile,
    SoftwareFaultSite,
    derive_profile,
)
from resacc.toynets import make_config, make_dense_toy, make_pool_toy, make_skewed_toy


def _profile(mac_counts, var_counts, control=None):
    layers = [
        LayerStats(layer_id=i, mac_count=m, var_count=dict(v), utilization=1.0)
        for i, (m, v) in enumerate(zip(mac_counts, var_counts))
    ]
    return NetworkProfile(layers=layers, control_var_count=control or {})


def _config(ff_count, raw_fit=None, fmt=NumericFormat.FP32, reuse=None):
    return AcceleratorConfig(
        ff_count=ff_count,
        raw_fit=raw_fit or {t: 600.0 for t in ff_count},
        numeric_format=fmt,
        reuse=reuse or {t: 1 for t in FFType},
    )


# --- per-site reference ---------------------------------------------------
# The probability of one site, stated factor by factor. `build_table` states
# the same product once per (layer, type) class; these check it.

def layer_prob(profile: NetworkProfile, layer_id: int) -> float:
    """Share of execution time (cells) owned by a layer; control pseudo-layer
    spans the full run and gets 1."""
    if layer_id == CONTROL_LAYER:
        return 1.0
    return profile.layer(layer_id).mac_count / profile.total_macs


def var_count(profile: NetworkProfile, layer_id: int, t: FFType) -> int:
    if layer_id == CONTROL_LAYER:
        return profile.control_var_count.get(t, 0)
    return profile.layer(layer_id).var_count.get(t, 0)


def var_prob(profile: NetworkProfile, layer_id: int, t: FFType) -> float:
    n = var_count(profile, layer_id, t)
    if n < 1:
        raise ValueError(f"layer {layer_id} has no variables of type {t.value}")
    return 1.0 / n


def cell_fault_prob(config: AcceleratorConfig, t: FFType, cell_count: float) -> float:
    """Probability that one specific cell of type t receives the fault."""
    if cell_count <= 0:
        raise ValueError("cell_count must be positive")
    return config.raw_fit.get(t, 0.0) / (cell_count * fit_normalization(config))


def occupied_mass(profile: NetworkProfile, config: AcceleratorConfig) -> float:
    """Probability that the fault lands on a cell holding a variable: on a
    cell of type t while a layer with a variable of type t runs. A fault on
    any other cell hits nothing, so site probabilities are conditioned on
    this event."""
    layers = [(l.layer_id, DATAPATH_TYPES) for l in profile.layers]
    mass = 0.0
    for layer_id, types in layers + [(CONTROL_LAYER, CONTROL_TYPES)]:
        for t in types:
            if var_count(profile, layer_id, t) >= 1:
                mass += (layer_prob(profile, layer_id) * type_prob(config, t)
                         * cell_fault_prob(config, t, 1.0))
    return mass


def site_prob(
    profile: NetworkProfile,
    config: AcceleratorConfig,
    site: SoftwareFaultSite,
    cell_count: float = 1.0,
) -> float:
    """Probability of one software fault site. The conceptual cell count
    cancels algebraically, so any positive value gives the same result."""
    if not 0 <= site.bit_pos < config.bit_width:
        raise ValueError(f"bit_pos {site.bit_pos} out of range")
    n_vars = var_count(profile, site.layer_id, site.var_type)
    if not 0 <= site.var_index < n_vars:
        raise ValueError(
            f"var_index {site.var_index} out of range for "
            f"(layer {site.layer_id}, {site.var_type.value})"
        )
    cells = (
        cell_count
        * layer_prob(profile, site.layer_id)
        * type_prob(config, site.var_type)
        * var_prob(profile, site.layer_id, site.var_type)
    )
    return (
        cells
        * cell_fault_prob(config, site.var_type, cell_count)
        / (config.bit_width * occupied_mass(profile, config))
    )


class TestFactors:
    def test_layer_prob_single_layer(self):
        prof = _profile([100], [{FFType.WEIGHT: 10, FFType.INPUT_ACTIVATION: 5}])
        assert layer_prob(prof, 0) == 1.0

    def test_layer_prob_share(self):
        prof = _profile(
            [648, 40],
            [{FFType.WEIGHT: 18}, {FFType.WEIGHT: 40}],
        )
        assert layer_prob(prof, 0) == pytest.approx(648 / 688)

    def test_layer_prob_two_thirds(self):
        # the illustrative grid: first layer owns 2/3 of the cells
        prof = _profile([2, 1], [{FFType.WEIGHT: 1}, {FFType.WEIGHT: 1}])
        assert layer_prob(prof, 0) == pytest.approx(2 / 3)

    def test_control_layer_prob_is_one(self):
        prof = _profile([10], [{FFType.WEIGHT: 1}], {FFType.CONTROL_GLOBAL: 3})
        assert layer_prob(prof, CONTROL_LAYER) == 1.0

    def test_type_prob_systolic_shares(self):
        config = make_config(total_ffs=10000)
        assert type_prob(config, FFType.WEIGHT) == pytest.approx(0.3056)

    def test_type_prob_single_type(self):
        config = _config({FFType.WEIGHT: 64})
        assert type_prob(config, FFType.WEIGHT) == 1.0

    def test_type_prob_quarter(self):
        config = _config({FFType.INPUT_ACTIVATION: 1, FFType.WEIGHT: 3})
        assert type_prob(config, FFType.INPUT_ACTIVATION) == 0.25

    def test_var_prob(self):
        prof = _profile([40], [{FFType.WEIGHT: 40, FFType.OUTPUT_ACTIVATION: 1}])
        assert var_prob(prof, 0, FFType.WEIGHT) == pytest.approx(0.025)
        assert var_prob(prof, 0, FFType.OUTPUT_ACTIVATION) == 1.0

    def test_var_prob_control_is_per_ff(self):
        prof = _profile([10], [{FFType.WEIGHT: 1}], {FFType.CONTROL_GLOBAL: 1})
        assert var_prob(prof, CONTROL_LAYER, FFType.CONTROL_GLOBAL) == 1.0


class TestCellFaultProb:
    def test_uniform_fit_reduces_to_1_over_m(self):
        # uniform raw FIT: every type's per-cell probability is 1/cells
        config = make_config()
        cells = 12345.0
        for t in FFType:
            assert cell_fault_prob(config, t, cells) == pytest.approx(1.0 / cells)

    def test_dice_hardened_third(self):
        config = make_config(control_fit=200.0)
        cells = 100.0
        p_ctl = cell_fault_prob(config, FFType.CONTROL_GLOBAL, cells)
        p_w = cell_fault_prob(config, FFType.WEIGHT, cells)
        assert p_ctl / p_w == pytest.approx(200.0 / 600.0)


class TestSiteProb:
    def test_single_site_system(self):
        prof = _profile([1], [{FFType.WEIGHT: 1}])
        config = _config({FFType.WEIGHT: 4}, fmt=NumericFormat.INT8)
        config = dataclasses.replace(config, bit_width=1)
        site = SoftwareFaultSite(0, FFType.WEIGHT, 0, 0)
        assert site_prob(prof, config, site) == pytest.approx(1.0)

    def test_symmetric_quarter(self):
        prof = _profile(
            [10, 10], [{FFType.WEIGHT: 2}, {FFType.WEIGHT: 2}]
        )
        config = _config({FFType.WEIGHT: 8})
        config = dataclasses.replace(config, bit_width=1)
        for lid in (0, 1):
            for v in (0, 1):
                site = SoftwareFaultSite(lid, FFType.WEIGHT, v, 0)
                assert site_prob(prof, config, site) == pytest.approx(0.25)

    def test_cell_count_cancels(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        site = SoftwareFaultSite(0, FFType.WEIGHT, 5, 3)
        a = site_prob(prof, config, site, cell_count=1.0)
        b = site_prob(prof, config, site, cell_count=3.7e9)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_ratio_tracks_mac_ratio(self):
        # first vs last layer weight sites differ by ~ the MAC ratio
        config = make_config(fmt=NumericFormat.FP16)
        net = make_skewed_toy(0)
        prof = derive_profile(net, config)
        first = SoftwareFaultSite(0, FFType.WEIGHT, 0, 0)
        last_lid = prof.layers[-1].layer_id
        last = SoftwareFaultSite(last_lid, FFType.WEIGHT, 0, 0)
        p_ratio = site_prob(prof, config, first) / site_prob(prof, config, last)
        mac_ratio = prof.layers[0].mac_count / prof.layers[-1].mac_count
        var_ratio = (
            prof.layer(last_lid).var_count[FFType.WEIGHT]
            / prof.layer(0).var_count[FFType.WEIGHT]
        )
        assert p_ratio == pytest.approx(mac_ratio * var_ratio, rel=1e-12)


class TestTable:
    def test_matches_site_prob(self):
        """Every class of every toy, format and hardening-study configuration
        holds the per-site probability of its first and last site."""
        for make_net in (make_dense_toy, make_pool_toy, make_skewed_toy):
            for fmt in (NumericFormat.FP32, NumericFormat.FP16, NumericFormat.INT8):
                base = make_config(fmt=fmt)
                prof = derive_profile(make_net(fmt=fmt), base)
                configs = [base, base.with_raw_fit({t: 200.0 for t in FFType})]
                configs += [base.with_raw_fit({t: 200.0}) for t in FFType]
                for config in configs:
                    table = build_table(prof, config)
                    for c in table.classes:
                        for v, b in ((0, 0), (c.var_count - 1, table.bit_width - 1)):
                            site = SoftwareFaultSite(c.layer_id, c.var_type, v, b)
                            assert c.per_var_per_bit_prob == pytest.approx(
                                site_prob(prof, config, site), rel=1e-12, abs=0.0
                            )

    def test_normalization(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        table = build_table(prof, config)
        assert table.total_prob() == pytest.approx(1.0, abs=1e-9)

    def test_probability_spread_across_layers(self):
        config = make_config(fmt=NumericFormat.FP16)
        prof = derive_profile(make_skewed_toy(0), config)
        table = build_table(prof, config)
        probs = [
            c.per_var_per_bit_prob for c in table.classes
            if c.var_type is FFType.OUTPUT_ACTIVATION
        ]
        assert max(probs) / min(probs) > 10

    def test_hardening_shifts_mass(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        before = build_table(prof, config)
        after = build_table(
            prof, config.with_raw_fit({FFType.WEIGHT: 200.0})
        )
        for c_b, c_a in zip(before.classes, after.classes):
            if c_b.var_type is FFType.WEIGHT:
                assert c_a.per_var_per_bit_prob < c_b.per_var_per_bit_prob
            else:
                assert c_a.per_var_per_bit_prob > c_b.per_var_per_bit_prob

    @pytest.mark.parametrize("var_counts,raw_fit", [
        ({}, {}),
        ({FFType.WEIGHT: 4}, {FFType.WEIGHT: 0.0}),
    ], ids=["no_class", "occupied_types_at_zero_fit"])
    def test_no_occupied_site_rejected(self, var_counts, raw_fit):
        """The first profile occupies no cell; the second occupies only
        weight cells, whose raw FIT is 0 while input cells' is not."""
        prof = _profile([10], [var_counts])
        config = _config({FFType.WEIGHT: 4, FFType.INPUT_ACTIVATION: 4},
                         raw_fit={FFType.WEIGHT: 600.0, FFType.INPUT_ACTIVATION: 600.0, **raw_fit})
        with pytest.raises(ValueError, match="no occupied fault sites"):
            build_table(prof, config)

    def test_zero_mac_layer_rejected(self):
        # zero-MAC layers are invalid input: the validator flags them and the
        # factor computation refuses to divide by a zero MAC total
        from resacc.profile import validate_profile

        prof = _profile([0], [{FFType.WEIGHT: 1}])
        config = make_config()
        assert any("mac_count" in p for p in validate_profile(prof, config))
        with pytest.raises((ValueError, ZeroDivisionError)):
            layer_prob(prof, 0)


class TestRAExpected:
    def _one_site(self):
        prof = _profile([1], [{FFType.WEIGHT: 1}])
        config = _config({FFType.WEIGHT: 4}, fmt=NumericFormat.INT8)
        config = dataclasses.replace(config, bit_width=1)
        return build_table(prof, config)

    def test_all_accuracies_equal_sa(self):
        table = self._one_site()
        res = ra_expected(table, lambda s: 0.9, sa=0.9)
        assert res.ra == pytest.approx(0.9)

    def test_uf_zero_gives_sa(self):
        config, net = make_config(), make_dense_toy()
        layers = derive_profile(net, config).layers
        prof = derive_profile(net, config, utilization={l.layer_id: 0.0 for l in layers})
        table = build_table(prof, config)
        res = ra_expected(table, lambda s: 0.0, sa=0.875)
        control_mass = sum(
            c.total_prob(table.bit_width)
            for c in table.classes if c.layer_id == CONTROL_LAYER
        )
        # control classes always use UF=1 (accuracy 0 here), the rest gives sa
        assert res.ra == pytest.approx(0.875 * (1 - control_mass))

    def test_two_site_expected_value(self):
        prof = _profile(
            [10, 10], [{FFType.WEIGHT: 1}, {FFType.WEIGHT: 1}]
        )
        config = _config({FFType.WEIGHT: 8})
        config = dataclasses.replace(config, bit_width=1)
        table = build_table(prof, config)
        res = ra_expected(
            table, lambda s: 1.0 if s.layer_id == 0 else 0.0, sa=1.0
        )
        assert res.ra == pytest.approx(0.5)


class TestNormalizationProperty:
    @given(
        seed=st.integers(0, 10_000),
        fmt=st.sampled_from(list(NumericFormat)),
        fits=st.lists(
            st.floats(min_value=1.0, max_value=10_000.0), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, seed, fmt, fits):
        rng = np.random.default_rng(seed)
        dims = rng.integers(2, 14, size=3)
        w1 = np.zeros((dims[1], dims[0]), dtype=fmt.dtype)
        w2 = np.zeros((dims[2], dims[1]), dtype=fmt.dtype)
        net = MicroNetwork(
            layers=[FC(w1), FC(w2)], input_shape=(int(dims[0]),),
            numeric_format=fmt,
        )
        config = make_config(fmt=fmt, total_ffs=int(rng.integers(50, 3000)))
        config = config.with_raw_fit(dict(zip(FFType, fits)))
        prof = derive_profile(net, config)
        table = build_table(prof, config)
        assert table.total_prob() == pytest.approx(1.0, abs=1e-9)

    def test_m_independence(self):
        config = make_config()
        prof = derive_profile(make_dense_toy(), config)
        small = build_table(prof, config)
        big_cfg = dataclasses.replace(
            config,
            ff_count={t: n * 17 for t, n in config.ff_count.items()},
        )
        prof_big = derive_profile(make_dense_toy(), big_cfg)
        big = build_table(prof_big, big_cfg)
        for c_s, c_b in zip(small.classes, big.classes):
            if c_s.layer_id == CONTROL_LAYER:
                continue  # control var counts scale with M by design
            assert c_b.per_var_per_bit_prob == pytest.approx(
                c_s.per_var_per_bit_prob, rel=1e-12, abs=0.0
            )
