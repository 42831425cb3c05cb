"""Exhaustive ground-truth oracle and the flip-flop x cycle grid simulator."""

from __future__ import annotations

import numpy as np
import pytest

from resacc.estimator import hardening_study
from resacc.formats import NumericFormat
from resacc.microdnn import FaultSemantics, accuracy
from resacc.oracle import (
    GridModel,
    ScaleGuardExceeded,
    SiteArchive,
    analytical_class_probs,
    evaluate_classes,
    exhaustive_ra,
    grid_simulate,
    live_evaluator,
)
from resacc.probtransfer import ProbClass, SiteProbabilityTable, build_table, ra_expected
from resacc.profile import (
    CONTROL_LAYER,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    LayerStats,
    NetworkProfile,
    SoftwareFaultSite,
    derive_profile,
)
from resacc.toynets import make_config, make_dense_toy, make_evalset, make_pool_toy

from conftest import build_context


def measured_uf(grid: GridModel) -> dict[int, float]:
    """Per-layer fraction of datapath cells holding live data."""
    out = {}
    dp_rows = sum(grid.rows[t] for t in DATAPATH_TYPES)
    for layer in grid.profile.layers:
        total = dp_rows * grid.cols[layer.layer_id]
        if total == 0:
            out[layer.layer_id] = 0.0
            continue
        occupied = 0.0
        for t in DATAPATH_TYPES:
            if layer.var_count.get(t, 0) >= 1:
                occupied += grid.rows[t] * grid.cols[layer.layer_id] * layer.utilization
        out[layer.layer_id] = occupied / total
    return out


# --- exhaustive oracle ------------------------------------------------------

def test_exhaustive_ra_equals_archive_weighted_sum(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    total = 0.0
    for c in dense_ctx.table.classes:
        arr = arch.entries[(c.layer_id, c.var_type)]
        total += c.per_var_per_bit_prob * arr.sum()
    assert res.ra == pytest.approx(total, rel=1e-12)
    assert res.sa == arch.sa


def test_accuracies_reach_library_callers_as_python_floats(dense_ctx, dense_oracle):
    """SA, A(j) of a live call and the RAs of the oracle and of the
    hardening study are ``float``, as annotated, not numpy scalars."""
    res, arch = dense_oracle
    site = SoftwareFaultSite(dense_ctx.table.classes[0].layer_id,
                             dense_ctx.table.classes[0].var_type, 0, 30)
    live = live_evaluator(dense_ctx.net, dense_ctx.evalset, dense_ctx.profile, dense_ctx.config)
    study = hardening_study(dense_ctx.profile, dense_ctx.config, arch.evaluator, arch.sa)
    values = {
        "accuracy": accuracy(dense_ctx.net, dense_ctx.evalset),
        "live A(j)": live(site),
        "archive sa": arch.sa,
        "exhaustive sa": res.sa,
        "exhaustive ra": res.ra,
    } | {f"hardening {k} ra": r.ra for k, r in study.items()}
    assert {k: type(v) for k, v in values.items() if type(v) is not float} == {}


@pytest.mark.parametrize("with_uf", [False, True], ids=["uf_none", "uf"])
@pytest.mark.parametrize("toy", ["dense", "pool"])
def test_exhaustive_ra_is_bit_exact_to_ra_expected_over_the_archive(toy, with_uf):
    """The oracle's RA, summed over its own arrays, is the RA `ra_expected`
    gives by asking the archive one site at a time, to the last bit."""
    make = {"dense": lambda: make_dense_toy(seed=3), "pool": make_pool_toy}[toy]
    net, config = make(), make_config()
    # The map leaves the last layer out, so it also takes the 1.0 default.
    layers = derive_profile(net, config).layers[:-1]
    util = {layer.layer_id: 0.3 + 0.2 * i for i, layer in enumerate(layers)}
    ctx = build_context(net, config, utilization=util if with_uf else None)
    res, arch = exhaustive_ra(ctx.profile, ctx.config, ctx.net, ctx.evalset)
    want = ra_expected(ctx.table, arch.evaluator, arch.sa)
    assert res.ra == want.ra
    assert res.components == want.components
    assert res.sa == want.sa == arch.sa


def test_crash_classes_archived_as_zero(dense_oracle):
    _, arch = dense_oracle
    assert np.all(arch.entries[(CONTROL_LAYER, FFType.CONTROL_GLOBAL)] == 0.0)


def test_single_site_ra_identity():
    """A one-site system reduces RA to UF * A + (1 - UF) * SA exactly."""
    table = SiteProbabilityTable(
        classes=[ProbClass(0, FFType.INPUT_ACTIVATION, 1, 1.0, utilization=0.3)],
        bit_width=1,
    )
    res = ra_expected(table, lambda s: 0.2, sa=1.0)
    assert res.ra == pytest.approx(0.3 * 0.2 + 0.7 * 1.0, rel=1e-15)


def test_scale_guard_trips(dense_ctx):
    with pytest.raises(ScaleGuardExceeded):
        exhaustive_ra(
            dense_ctx.profile,
            dense_ctx.config,
            dense_ctx.net,
            dense_ctx.evalset,
            FaultSemantics.TRUE,
            max_inferences=100,
        )


def test_archive_save_load_round_trip(dense_oracle, tmp_path):
    _, arch = dense_oracle
    path = tmp_path / "archive.npz"
    arch.save(path)
    loaded = SiteArchive.load(path)
    assert loaded.sa == arch.sa
    assert loaded.semantics is arch.semantics
    assert set(loaded.entries) == set(arch.entries)
    for key, arr in arch.entries.items():
        assert np.array_equal(loaded.entries[key], arr)


def test_class_mean_matches_entries(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    c = dense_ctx.table.classes[0]
    arr = arch.entries[(c.layer_id, c.var_type)]
    for b in (0, dense_ctx.table.bit_width - 1):
        assert arch.class_mean(c.layer_id, c.var_type, b) == pytest.approx(
            arr[:, b].mean()
        )


def test_crash_free_variant_has_strictly_higher_ra(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    cfg = dense_ctx.config.with_raw_fit({FFType.CONTROL_GLOBAL: 1e-12})
    table = build_table(dense_ctx.profile, cfg)
    crash_free = ra_expected(table, arch.evaluator, arch.sa)
    assert crash_free.ra > res.ra


def test_live_evaluator_matches_archive(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    ev = live_evaluator(
        dense_ctx.net, dense_ctx.evalset, dense_ctx.profile, dense_ctx.config
    )
    rng = np.random.default_rng(0)
    sites = []
    for c in dense_ctx.table.classes:
        if c.var_type is FFType.CONTROL_GLOBAL:
            continue
        for _ in range(3):
            sites.append(
                SoftwareFaultSite(
                    c.layer_id,
                    c.var_type,
                    int(rng.integers(c.var_count)),
                    int(rng.integers(dense_ctx.table.bit_width)),
                )
            )
    for s in sites:
        a = ev(s)
        assert a == arch.evaluator(s)
        assert ev(s) == a  # a second evaluation agrees


def test_sw_oracle_with_control_classes_raises_before_evaluating(dense_ctx, monkeypatch):
    """SW semantics do not model control sites: every class's fault is
    resolved before any inference, so a table with control classes fails
    at once, not after every datapath class ran."""
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a fault was evaluated before the semantics were checked")

    monkeypatch.setattr("resacc.oracle.ActivationCache", no_evaluation)
    monkeypatch.setattr("resacc.oracle.prediction_batches", no_evaluation)
    with pytest.raises(ValueError, match="SW semantics do not model control fault sites"):
        exhaustive_ra(dense_ctx.profile, dense_ctx.config, dense_ctx.net, dense_ctx.evalset,
                      FaultSemantics.SW)


def test_sw_archive_of_the_datapath_classes_matches_live_injection(dense_ctx):
    table = dense_ctx.table
    datapath = [c for c in table.classes if c.layer_id != CONTROL_LAYER]
    arch = evaluate_classes(dense_ctx.net, dense_ctx.evalset, dense_ctx.profile,
                            dense_ctx.config, datapath, table.bit_width, FaultSemantics.SW)
    assert list(arch.entries) == [(c.layer_id, c.var_type) for c in datapath]
    assert arch.sa == dense_ctx.sa
    ev = live_evaluator(dense_ctx.net, dense_ctx.evalset, dense_ctx.profile, dense_ctx.config,
                        FaultSemantics.SW)
    rng = np.random.default_rng(1)
    for c in datapath:
        for v, b in zip(rng.integers(c.var_count, size=4), rng.integers(table.bit_width, size=4)):
            site = SoftwareFaultSite(c.layer_id, c.var_type, int(v), int(b))
            assert arch.evaluator(site) == ev(site), site


def test_live_evaluator_sw_rejects_crash_sites(dense_ctx):
    ev = live_evaluator(
        dense_ctx.net,
        dense_ctx.evalset,
        dense_ctx.profile,
        dense_ctx.config,
        FaultSemantics.SW,
    )
    with pytest.raises(ValueError):
        ev(SoftwareFaultSite(CONTROL_LAYER, FFType.CONTROL_GLOBAL, 0, 0))


# --- grid simulator ---------------------------------------------------------

def _two_ff_grid(utilization: float = 1.0) -> GridModel:
    """One 4-MAC layer on a machine with one weight FF and one input FF."""
    profile = NetworkProfile(
        layers=[
            LayerStats(
                layer_id=0,
                mac_count=4,
                var_count={FFType.INPUT_ACTIVATION: 4, FFType.WEIGHT: 4},
                utilization=utilization,
            )
        ]
    )
    config = AcceleratorConfig(
        ff_count={FFType.INPUT_ACTIVATION: 1, FFType.WEIGHT: 1},
        raw_fit={FFType.INPUT_ACTIVATION: 600.0, FFType.WEIGHT: 600.0},
        numeric_format=NumericFormat.FP32,
        reuse={FFType.INPUT_ACTIVATION: 1, FFType.WEIGHT: 1},
    )
    return GridModel.build(profile, config, target_cols=4)


def test_hand_sized_grid_shape_and_frequencies():
    grid = _two_ff_grid()
    assert grid.total_cols == 4 and grid.cell_count() == 8
    tally = grid_simulate(grid, pin_count=200_000, seed=1)
    assert tally.idle == 0
    for t in (FFType.WEIGHT, FFType.INPUT_ACTIVATION):
        freq = tally.empirical(0, t)
        sigma = np.sqrt(0.25 / tally.pins)
        assert abs(freq - 0.5) <= 4 * sigma


def test_half_utilized_grid_idles_half_the_pins():
    grid = _two_ff_grid(utilization=0.5)
    tally = grid_simulate(grid, pin_count=200_000, seed=2)
    sigma = np.sqrt(0.25 * tally.pins)
    assert abs(tally.idle - 0.5 * tally.pins) <= 4 * sigma
    # conditioned on landing in live cells, the class split is unchanged
    assert abs(tally.empirical(0, FFType.WEIGHT) - 0.5) < 0.01
    assert measured_uf(grid)[0] == pytest.approx(0.5)


def test_grid_pin_conservation(dense_ctx):
    grid = GridModel.build(dense_ctx.profile, dense_ctx.config)
    tally = grid_simulate(grid, pin_count=100_000, seed=3)
    assert tally.occupied_pins() + tally.idle == tally.pins


def test_grid_rejects_bad_pin_count(dense_ctx):
    grid = GridModel.build(dense_ctx.profile, dense_ctx.config)
    with pytest.raises(ValueError):
        grid_simulate(grid, pin_count=0, seed=0)


def test_full_utilization_grid_matches_analytical(dense_ctx):
    grid = GridModel.build(dense_ctx.profile, dense_ctx.config)
    pins = 10**6
    tally = grid_simulate(grid, pins, seed=4)
    analytical = analytical_class_probs(dense_ctx.profile, dense_ctx.config)
    emp = np.array([tally.empirical(*k) for k in analytical])
    ana = np.array([analytical[k] for k in analytical])
    assert np.corrcoef(emp, ana)[0, 1] >= 0.999
    sigma = np.sqrt(ana * (1.0 - ana) / pins)
    assert np.all(np.abs(emp - ana) <= 3.5 * sigma)


def test_partial_utilization_shifts_mass_and_uf_closes_gap():
    """The utilization-unaware analytical table overestimates how often an
    underutilized layer is hit; scaling each layer's analytical mass by its
    utilization recovers the grid frequencies."""
    net = make_dense_toy(seed=3)
    cfg = make_config()
    util = {0: 0.4, 1: 1.0}
    profile = derive_profile(net, cfg, utilization=util)
    grid = GridModel.build(profile, cfg)
    tally = grid_simulate(grid, 10**6, seed=5)
    analytical = analytical_class_probs(profile, cfg)
    keys = list(analytical)

    def layer_share(freqs):
        return sum(f for k, f in zip(keys, freqs) if k[0] == 0)

    emp = [tally.empirical(*k) for k in keys]
    ana = [analytical[k] for k in keys]
    assert layer_share(emp) < layer_share(ana)
    corrected = np.array(
        [a * (util.get(k[0], 1.0) if k[0] != CONTROL_LAYER else 1.0)
         for k, a in zip(keys, ana)]
    )
    corrected /= corrected.sum()
    assert np.all(np.abs(np.array(emp) - corrected) < 0.003)
    assert measured_uf(grid)[0] == pytest.approx(0.4)


def test_grid_utilization_matches_exhaustive_uf_ra(dense_oracle):
    """UF-weighted expected RA from the analytical path agrees with the
    exhaustive oracle on a profile of the same utilization, and lies above
    the RA of the fully utilized profile."""
    full, arch = dense_oracle
    ctx = build_context(make_dense_toy(seed=3), make_config(),
                        utilization={0: 0.7, 1: 0.9})
    res, _ = exhaustive_ra(ctx.profile, ctx.config, ctx.net, ctx.evalset, FaultSemantics.TRUE)
    manual = ra_expected(ctx.table, arch.evaluator, arch.sa)
    assert res.ra == pytest.approx(manual.ra, rel=1e-12)
    assert res.ra > full.ra


# --- archive reads ------------------------------------------------------------

@pytest.fixture(scope="module")
def pool16_oracle():
    ctx = build_context(make_pool_toy(NumericFormat.FP16), make_config(NumericFormat.FP16))
    return exhaustive_ra(ctx.profile, ctx.config, ctx.net, ctx.evalset)


@pytest.mark.parametrize("which", ["pool16", "skew0"])
def test_archive_evaluator_reads_every_site_as_its_float(request, which):
    """Each read is a Python float with the archived bits, for every site; a
    site outside the archive still raises."""
    _, arch = request.getfixturevalue(f"{which}_oracle")
    for (lid, t), arr in arch.entries.items():
        n, width = arr.shape
        got = [arch.evaluator(SoftwareFaultSite(lid, t, v, b))
               for v in range(n) for b in range(width)]
        assert all(type(a) is float for a in got)
        assert np.array(got).tobytes() == np.ascontiguousarray(arr).tobytes()
        with pytest.raises(IndexError):
            arch.evaluator(SoftwareFaultSite(lid, t, n, 0))
        with pytest.raises(IndexError):
            arch.evaluator(SoftwareFaultSite(lid, t, 0, width))
    with pytest.raises(KeyError):
        arch.evaluator(SoftwareFaultSite(99, FFType.WEIGHT, 0, 0))
