"""Monte Carlo estimator: sampling PDFs, convergence detection, baselines,
failure-rate metrics, and the hardening study."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from resacc.estimator import (
    DiscretePDF,
    PoCCriteria,
    SamplingStrategy,
    build_pdf,
    build_zero_variance_pdf,
    detect_poc,
    estimate_ra,
    fit_sdc_rates,
    hardening_study,
    ra_true_nc,
)
from resacc.formats import NumericFormat, default_bp_drop
from resacc.probtransfer import (
    SiteProbabilityTable,
    build_table,
    class_accuracies,
    ra_expected,
)
from resacc.profile import CONTROL_LAYER, FFType, SoftwareFaultSite, derive_profile
from resacc.toynets import make_config, make_dense_toy, make_pool_toy

ALL_STRATEGIES = list(SamplingStrategy)


def _flat_table(table: SiteProbabilityTable) -> SiteProbabilityTable:
    """Same classes, all per-var-per-bit probabilities equal (renormalized)."""
    n_sites = table.total_sites
    classes = [
        dataclasses.replace(c, per_var_per_bit_prob=1.0 / n_sites)
        for c in table.classes
    ]
    return dataclasses.replace(table, classes=classes)


# --- PDF construction and sampling ----------------------------------------

def test_pdf_draw_frequencies_match_weights(dense_ctx):
    pdf = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    n = 60_000
    units, _ = pdf.draw_batch(np.random.default_rng(7), n)
    counts = np.bincount(units, minlength=pdf.n_units)
    p = pdf.unit_prob()
    sigma = np.sqrt(n * p * (1.0 - p))
    assert np.all(np.abs(counts - n * p) <= 4.0 * np.maximum(sigma, 1.0))


def test_pdf_draws_are_seed_deterministic(dense_ctx):
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    u1, v1 = pdf.draw_batch(np.random.default_rng(42), 500)
    u2, v2 = pdf.draw_batch(np.random.default_rng(42), 500)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    u3, _ = pdf.draw_batch(np.random.default_rng(43), 500)
    assert not np.array_equal(u1, u3)


def test_single_unit_pdf_always_draws_it():
    pdf = DiscretePDF(
        layer_ids=np.array([0]),
        type_codes=np.array([1]),
        bit_pos=np.array([3]),
        var_index=np.array([2]),
        members=np.array([5]),
        weights=np.array([0.7]),
        site_probs=np.array([0.1]),
        utilization=np.array([1.0]),
    )
    units, vars_ = pdf.draw_batch(np.random.default_rng(0), 100)
    assert np.all(units == 0) and np.all(vars_ == 2)
    site = pdf.site_at(0, 2)
    assert (site.layer_id, site.var_index, site.bit_pos) == (0, 2, 3)


def test_pdf_rejects_bad_weights():
    kw = dict(
        layer_ids=np.array([0]),
        type_codes=np.array([0]),
        bit_pos=np.array([0]),
        var_index=np.array([-1]),
        members=np.array([1]),
        site_probs=np.array([0.5]),
        utilization=np.array([1.0]),
    )
    with pytest.raises(ValueError):
        DiscretePDF(weights=np.array([0.0]), **kw)
    with pytest.raises(ValueError):
        DiscretePDF(weights=np.array([-1.0]), **kw)


def test_uniform_equals_importance_on_flat_table(dense_ctx):
    flat = _flat_table(dense_ctx.table)
    uni = build_pdf(SamplingStrategy.UNIFORM, flat, dense_ctx.profile)
    imp = build_pdf(SamplingStrategy.IMPORTANCE, flat, dense_ctx.profile)
    assert np.allclose(uni.unit_prob(), imp.unit_prob())


def test_importance_bp_is_importance_on_bits_with_no_assumed_drop(dense_ctx):
    """is-b weights a unit by p(j) * (SA - its bit's assumed drop), so on
    the bits the default prior assumes no drop its unit probabilities are
    is's times one constant."""
    imp = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    bp = build_pdf(SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile, sa=0.9)
    free = ~np.isin(bp.bit_pos, list(default_bp_drop(NumericFormat.FP32)))
    assert free.any() and not free.all()
    ratio = bp.unit_prob()[free] / imp.unit_prob()[free]
    assert np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)


def _layout_toy(name: str):
    """(profile, table) of a toy with layer 0 at utilization 0.5."""
    fmt = NumericFormat.FP32 if name == "dense" else NumericFormat.FP16
    net = make_dense_toy(seed=3) if name == "dense" else make_pool_toy(fmt)
    config = make_config(fmt)
    profile = derive_profile(net, config, utilization={0: 0.5})
    return profile, build_table(profile, config)


@pytest.mark.parametrize("toy", ["dense", "pool16"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_pdf_units_are_the_class_bits_of_the_table(toy, strategy):
    """One unit per (class, bit), class-major and bit-minor (mac leaves out
    global control), each with its class's columns and uniform over its
    variables."""
    profile, table = _layout_toy(toy)
    pdf = build_pdf(strategy, table, profile, sa=1.0)
    classes = [c for c in table.classes if strategy is not SamplingStrategy.MAC_WEIGHTED
               or c.var_type is not FFType.CONTROL_GLOBAL]
    if strategy is SamplingStrategy.MAC_WEIGHTED:
        assert len(classes) < len(table.classes)  # the toy has global control
    got = list(zip(pdf.layer_ids.tolist(), pdf.type_codes.tolist(), pdf.bit_pos.tolist(),
                   pdf.members.tolist(), pdf.site_probs.tolist(), pdf.utilization.tolist(),
                   pdf.var_index.tolist()))
    assert got == [(c.layer_id, list(FFType).index(c.var_type), b, c.var_count,
                    c.per_var_per_bit_prob, c.utilization, -1)
                   for c in classes for b in range(table.bit_width)]


@pytest.mark.parametrize("toy", ["dense", "pool16"])
def test_zero_variance_units_are_the_positive_integrand_sites(toy):
    """One unit per site of positive integrand, in (class, var, bit) order,
    with its class's columns, its var and one member."""
    profile, table = _layout_toy(toy)
    sa = 0.25  # an idle cell keeps SA: layer 0's A(j) = 0 sites stay positive

    def evaluator(site):
        return (site.var_index + site.bit_pos) % 3 / 2

    pdf = build_zero_variance_pdf(table, evaluator, sa)
    got = list(zip(pdf.layer_ids.tolist(), pdf.type_codes.tolist(), pdf.bit_pos.tolist(),
                   pdf.var_index.tolist(), pdf.members.tolist(), pdf.site_probs.tolist(),
                   pdf.utilization.tolist(), pdf.weights.tolist()))
    want = []
    for c in table.classes:
        p, u = c.per_var_per_bit_prob, c.utilization
        for v in range(c.var_count):
            for b in range(table.bit_width):
                f = p * (u * evaluator(SoftwareFaultSite(c.layer_id, c.var_type, v, b))
                         + (1.0 - u) * sa)
                if f > 0.0:
                    want.append((c.layer_id, list(FFType).index(c.var_type), b, v, 1, p, u, f))
    assert 0 < len(want) < table.total_sites
    assert got == want


def test_importance_bp_requires_sa(dense_ctx):
    with pytest.raises(ValueError):
        build_pdf(SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile)


def test_importance_bp_names_a_bit_width_no_format_has(dense_ctx):
    table = dataclasses.replace(dense_ctx.table, bit_width=12)
    with pytest.raises(ValueError, match="12 bits"):
        build_pdf(SamplingStrategy.IMPORTANCE_BP, table, dense_ctx.profile, sa=1.0)


@pytest.mark.parametrize("sa,bits", [(0.1, [30]), (0.08, [26, 27, 28, 29, 30])])
def test_importance_bp_rejects_sa_at_most_a_bits_drop(dense_ctx, sa, bits):
    """is-b weights a unit by SA less its bit's assumed drop, floored at 0.
    At SA <= that drop the bit's units would never be drawn, though their
    p(j) * A(j) need not be 0, so the estimate would read low."""
    message = f"is-b: SA {sa} is at most the assumed accuracy drop of bits {bits}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_pdf(SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile, sa=sa)


def test_importance_bp_accepts_sa_above_every_drop(dense_ctx):
    pdf = build_pdf(SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile,
                    sa=0.150001)
    assert np.all(pdf.weights[pdf.site_probs > 0] > 0)


def test_importance_bp_downweights_high_impact_bits(dense_ctx):
    """Bits predicted to hurt accuracy most get less sampling weight than the
    plain probability-proportional PDF gives them."""
    imp = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    bp = build_pdf(
        SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile, sa=1.0
    )
    assert np.array_equal(imp.bit_pos, bp.bit_pos)
    ratio = bp.unit_prob() / imp.unit_prob()
    hit = imp.bit_pos == 30  # exponent MSB of FP32: largest predicted drop
    assert ratio[hit].mean() < ratio[~hit].mean()


def test_mac_pdf_skips_global_control_covers_local(dense_ctx):
    pdf = build_pdf(SamplingStrategy.MAC_WEIGHTED, dense_ctx.table, dense_ctx.profile)
    codes = {list(FFType)[c] for c in pdf.type_codes}
    assert FFType.CONTROL_GLOBAL not in codes
    assert FFType.CONTROL_LOCAL in codes


def test_mac_pdf_weights_follow_layer_mac_counts(dense_ctx):
    pdf = build_pdf(SamplingStrategy.MAC_WEIGHTED, dense_ctx.table, dense_ctx.profile)
    macs = {l.layer_id: l.mac_count for l in dense_ctx.profile.layers}
    w_code = list(FFType).index(FFType.WEIGHT)
    sel = pdf.type_codes == w_code
    lids = pdf.layer_ids[sel]
    expected = np.array([macs[l] for l in lids], dtype=float)
    assert np.allclose(pdf.weights[sel] / pdf.weights[sel].sum(),
                       expected / expected.sum())


# --- convergence detection -------------------------------------------------

def test_poc_constant_trace_at_truth_detected_at_window():
    trace = np.full(1000, 0.9)
    assert detect_poc(trace, 0.9) == PoCCriteria().window


def test_poc_trace_off_truth_never_detected():
    trace = np.full(1000, 0.9 * 1.05)  # 5% relative error
    assert detect_poc(trace, 0.9) is None


def test_poc_short_trace_returns_none():
    assert detect_poc(np.full(299, 0.9), 0.9) is None


def test_poc_detects_first_qualifying_window():
    trace = np.concatenate([np.full(500, 0.5), np.full(600, 0.9)])
    idx = detect_poc(trace, 0.9)
    # the mean tolerance (0.003 * 0.9) admits at most two stale 0.5 samples
    # in the trailing window, so detection lands two short of 500 + window
    assert idx == 798


def test_poc_criteria_validation():
    with pytest.raises(ValueError):
        PoCCriteria(window=0)
    with pytest.raises(ValueError):
        PoCCriteria(mean_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PoCCriteria(mean_tol=bad)
        with pytest.raises(ValueError):
            PoCCriteria(var_thresh=bad)


# --- estimator core --------------------------------------------------------

def test_estimator_needs_budget_or_criteria(dense_ctx):
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    with pytest.raises(ValueError):
        estimate_ra(pdf, dense_ctx.table, lambda s: 1.0)


def test_estimator_refuses_criteria_without_ground_truth(dense_ctx):
    """Criteria with nothing to test them against would be ignored; the run
    is refused before any site is asked."""
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    calls = []
    with pytest.raises(ValueError, match="criteria.*ground_truth"):
        estimate_ra(pdf, dense_ctx.table, lambda s: calls.append(s) or 1.0, samples=500,
                    criteria=PoCCriteria(window=10))
    assert calls == []


@pytest.mark.parametrize("batch", [0, -1])
def test_estimator_rejects_batch_below_one(dense_ctx, batch):
    """A batch of 0 would draw nothing and loop forever; a negative one
    would reach numpy as a negative size."""
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    calls = []
    with pytest.raises(ValueError, match="batch"):
        estimate_ra(pdf, dense_ctx.table, lambda s: calls.append(s) or 1.0, samples=10,
                    batch=batch)
    assert calls == []


def test_estimator_uf_needs_sa(dense_ctx):
    """A unit below full utilization weighs SA, so a run without it is refused
    before any site is asked."""
    profile = derive_profile(dense_ctx.net, dense_ctx.config, utilization={0: 0.5})
    table = build_table(profile, dense_ctx.config)
    pdf = build_pdf(SamplingStrategy.UNIFORM, table, profile)
    calls = []
    with pytest.raises(ValueError, match="fault-free accuracy"):
        estimate_ra(pdf, table, lambda s: calls.append(s) or 1.0, samples=10)
    assert calls == []


def test_coverage_check_rejects_pdf_missing_a_class(dense_ctx):
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    w_code = list(FFType).index(FFType.WEIGHT)
    keep = pdf.type_codes != w_code
    truncated = DiscretePDF(
        layer_ids=pdf.layer_ids[keep],
        type_codes=pdf.type_codes[keep],
        bit_pos=pdf.bit_pos[keep],
        var_index=pdf.var_index[keep],
        members=pdf.members[keep],
        weights=pdf.weights[keep],
        site_probs=pdf.site_probs[keep],
        utilization=pdf.utilization[keep],
    )
    with pytest.raises(ValueError, match="zero weight"):
        estimate_ra(truncated, dense_ctx.table, lambda s: 1.0, samples=10)


def test_constant_accuracy_importance_contributions_are_constant(dense_ctx):
    """With probability-proportional sampling the contribution is exactly
    A(j); a constant evaluator therefore gives zero estimator variance."""
    pdf = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    est = estimate_ra(pdf, dense_ctx.table, lambda s: 0.75, samples=512, seed=1)
    assert np.allclose(est.contribs, 0.75, rtol=1e-12)
    assert est.variance < 1e-24
    assert est.mean == pytest.approx(0.75)


def test_estimator_is_seed_deterministic(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    a = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=400, seed=9)
    b = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=400, seed=9)
    assert np.array_equal(a.contribs, b.contribs)
    assert a.mean == b.mean


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_estimates_converge_to_exhaustive_ra(dense_ctx, dense_oracle, strategy):
    res, arch = dense_oracle
    pdf = build_pdf(strategy, dense_ctx.table, dense_ctx.profile, sa=arch.sa)
    est = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=20_000, seed=5)
    se = np.sqrt(est.variance / est.samples_drawn)
    assert abs(est.mean - res.ra) < 4.0 * se + 1e-12


def test_estimator_error_shrinks_with_samples(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    def mae(k):
        errs = [
            abs(estimate_ra(pdf, dense_ctx.table, arch.evaluator,
                            samples=k, seed=s).mean - res.ra)
            for s in range(12)
        ]
        return float(np.mean(errs))
    assert mae(6400) < mae(200)


def test_poc_stopping_caps_at_max_samples(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    # an unreachable ground truth forces the cap
    est = estimate_ra(pdf, dense_ctx.table, arch.evaluator,
                      criteria=PoCCriteria(), ground_truth=0.1,
                      seed=0, max_samples=1500, batch=512)
    assert est.poc_index is None and est.samples_drawn == 1500


def test_poc_run_allocates_for_what_it_draws_not_for_its_cap(dense_ctx, dense_oracle):
    """A cap of 10**12 samples, far beyond memory, only caps the run: it
    stops where a run capped at 4,096 stops, with the same trace."""
    res, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    small, huge = (estimate_ra(pdf, dense_ctx.table, arch.evaluator, criteria=PoCCriteria(),
                               ground_truth=res.ra, seed=4, max_samples=cap, batch=512)
                   for cap in (4096, 10**12))
    assert small.poc_index is not None
    assert (huge.poc_index, huge.mean) == (small.poc_index, small.mean)
    assert huge.trace.tobytes() == small.trace.tobytes()


def test_fixed_budget_too_large_to_allocate_fails_before_the_first_draw(dense_ctx):
    """A `samples=N` run allocates its N draws before the first one. 10**15
    draws need 16 PB, more than a process's address space, so under any
    overcommit policy the run raises MemoryError (the CLI's scale-guard
    exit) with no site asked."""
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)

    def no_site(site):
        raise AssertionError(f"site {site} asked before the buffer was allocated")

    with pytest.raises(MemoryError):
        estimate_ra(pdf, dense_ctx.table, no_site, samples=10**15)


def test_zero_variance_pdf_contributions_all_equal(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    pdf = build_zero_variance_pdf(dense_ctx.table, arch.evaluator, arch.sa)
    est = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=256, seed=2)
    assert np.all(np.abs(est.contribs / est.contribs[0] - 1.0) < 1e-9)
    assert est.mean == pytest.approx(res.ra, rel=1e-9)


# --- baselines and studies -------------------------------------------------

def test_nc_baseline_exceeds_true_ra(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    nc = ra_true_nc(dense_ctx.table, arch.evaluator, arch.sa)
    assert nc.ra > res.ra  # crash sites pinned to fault-free accuracy


def test_fit_rate_threshold_validation(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            fit_sdc_rates(arch.evaluator, dense_ctx.table, dense_ctx.config,
                          bad, arch.sa)


def test_fit_rate_includes_crashes_sdc_excludes(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    fit, sdc = fit_sdc_rates(arch.evaluator, dense_ctx.table, dense_ctx.config,
                             0.2, arch.sa)
    assert fit > sdc >= 0.0
    # near-total-failure threshold: crash sites still fail, and their
    # contribution alone accounts for the FIT/SDC gap
    fit_hi, sdc_hi = fit_sdc_rates(arch.evaluator, dense_ctx.table,
                                   dense_ctx.config, 0.999, arch.sa)
    cg, = [c for c in dense_ctx.table.classes if c.var_type is FFType.CONTROL_GLOBAL]
    crash_mass = cg.total_prob(dense_ctx.table.bit_width)
    fit_mass = sum(dense_ctx.config.ff_count.get(t, 0)
                   * dense_ctx.config.raw_fit.get(t, 0.0) for t in FFType)
    assert fit_hi - sdc_hi == pytest.approx(crash_mass * fit_mass, rel=1e-9)


def test_fit_rate_monotone_in_threshold(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    rates = [fit_sdc_rates(arch.evaluator, dense_ctx.table, dense_ctx.config,
                           t, arch.sa)[0] for t in (0.2, 0.4, 0.8)]
    assert rates[0] >= rates[1] >= rates[2]


def test_hardening_study_brackets_and_improves(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    hs = hardening_study(dense_ctx.profile, dense_ctx.config, arch.evaluator,
                         arch.sa)
    lo, hi = hs["none"].ra, hs["all"].ra
    assert lo < hi <= arch.sa + 1e-12
    for t in FFType:
        assert lo - 1e-12 <= hs[t.value].ra <= hi + 1e-12


def test_hardening_low_reuse_outputs_gain_less(skew0_ctx, skew0_oracle):
    """With equal FF counts, hardening the reuse-1 output registers buys less
    accuracy than hardening the reuse-4 input registers: a single-use output
    fault corrupts one downstream value, a reused input corrupts several."""
    _, arch = skew0_oracle
    cfg = dataclasses.replace(
        skew0_ctx.config,
        ff_count={**skew0_ctx.config.ff_count,
                  FFType.INPUT_ACTIVATION: 262,
                  FFType.OUTPUT_ACTIVATION: 262},
    )
    prof = derive_profile(skew0_ctx.net, cfg)
    hs = hardening_study(prof, cfg, arch.evaluator, arch.sa)
    base = hs["none"].ra
    gain_in = hs[FFType.INPUT_ACTIVATION.value].ra - base
    gain_out = hs[FFType.OUTPUT_ACTIVATION.value].ra - base
    assert 0.0 < gain_out < gain_in


def test_expected_ra_with_uf_zero_is_sa_on_datapath(dense_ctx, dense_oracle):
    """UF=0 idles every datapath fault; only control mass still hurts."""
    res_full, arch = dense_oracle
    idle = {layer.layer_id: 0.0 for layer in dense_ctx.profile.layers}
    profile = derive_profile(dense_ctx.net, dense_ctx.config, utilization=idle)
    table = build_table(profile, dense_ctx.config)
    r0 = ra_expected(table, arch.evaluator, arch.sa)
    ctl = sum(c.total_prob(table.bit_width)
              for c in table.classes if c.layer_id == CONTROL_LAYER)
    ctl_acc = (r0.components[FFType.CONTROL_GLOBAL]
               + r0.components[FFType.CONTROL_LOCAL])
    assert r0.ra == pytest.approx((1.0 - ctl) * arch.sa + ctl_acc, rel=1e-12)
    assert r0.ra > res_full.ra  # idling can only help here (SA is the max)


# --- per-site paths: the sites the memo and the gather build ----------------

class _Recorder:
    """Evaluator that records every site asked and answers from an archive,
    or None from the `none_at`-th call on."""

    def __init__(self, fn, none_at: int | None = None):
        self.fn = fn
        self.none_at = none_at
        self.calls = []

    def __call__(self, site):
        self.calls.append(site)
        return None if len(self.calls) - 1 == self.none_at else self.fn(site)


def _assert_built_like(got: list, want: list):
    """`got` are the sites `want` spells out with the constructor: equal,
    hashing equal, of the same type, with Python int fields."""
    assert got == want
    assert [hash(s) for s in got] == [hash(s) for s in want]
    for s in got:
        assert type(s) is SoftwareFaultSite
        assert all(type(f) is int for f in (s.layer_id, s.var_index, s.bit_pos))
        assert type(s.var_type) is FFType


def test_gather_builds_the_sites_of_a_var_major_loop(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    table = dense_ctx.table
    ev = _Recorder(arch.evaluator)
    class_accuracies(table.classes, table.bit_width, ev)
    _assert_built_like(ev.calls, [
        SoftwareFaultSite(c.layer_id, c.var_type, v, b)
        for c in table.classes for v in range(c.var_count) for b in range(table.bit_width)
    ])


def test_memo_builds_the_sites_of_a_first_draw_loop(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    ev = _Recorder(arch.evaluator)
    estimate_ra(pdf, dense_ctx.table, ev, samples=3000, batch=3000, seed=4)
    units, vars_ = pdf.draw_batch(np.random.default_rng(4), 3000)
    want = list(dict.fromkeys(pdf.site_at(u, v) for u, v in zip(units, vars_)))
    _assert_built_like(ev.calls, want)


def test_gather_names_the_first_missing_site_and_asks_no_further(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    table = dense_ctx.table
    c0, c1 = table.classes[:2]
    k = c0.var_count * table.bit_width + 2 * table.bit_width + 5  # class 1, var 2, bit 5
    ev = _Recorder(arch.evaluator, none_at=k)
    missing = SoftwareFaultSite(c1.layer_id, c1.var_type, 2, 5)
    with pytest.raises(ValueError) as err:
        class_accuracies(table.classes, table.bit_width, ev)
    assert str(err.value) == f"no accuracy available for site {missing}"
    assert len(ev.calls) == k + 1 and ev.calls[-1] == missing


def test_memo_names_the_first_missing_site_and_asks_no_further(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    ev = _Recorder(arch.evaluator, none_at=7)
    with pytest.raises(ValueError) as err:
        estimate_ra(pdf, dense_ctx.table, ev, samples=500, batch=500, seed=2)
    units, vars_ = pdf.draw_batch(np.random.default_rng(2), 500)
    missing = list(dict.fromkeys(pdf.site_at(u, v) for u, v in zip(units, vars_)))[7]
    assert str(err.value) == f"no accuracy available for site {missing}"
    assert len(ev.calls) == 8 and ev.calls[-1] == missing
