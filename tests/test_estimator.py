"""Monte Carlo estimator: sampling PDFs, convergence detection, baselines,
failure-rate metrics, and the hardening study."""

from __future__ import annotations

import dataclasses
import math

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
    ra_sw_baseline,
    ra_true_nc,
    uniform_site_mean,
)
from resacc.probtransfer import (
    SiteProbabilityTable,
    build_table,
    class_accuracies,
    ra_expected,
)
from resacc.profile import CONTROL_LAYER, FFType, SoftwareFaultSite, derive_profile

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


def test_importance_bp_with_zero_drop_equals_importance(dense_ctx):
    imp = build_pdf(SamplingStrategy.IMPORTANCE, dense_ctx.table, dense_ctx.profile)
    bp = build_pdf(
        SamplingStrategy.IMPORTANCE_BP,
        dense_ctx.table,
        dense_ctx.profile,
        sa=1.0,
        bp_model={},
    )
    assert np.allclose(imp.unit_prob(), bp.unit_prob())


def test_importance_bp_requires_sa(dense_ctx):
    with pytest.raises(ValueError):
        build_pdf(SamplingStrategy.IMPORTANCE_BP, dense_ctx.table, dense_ctx.profile)


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


def test_estimator_uf_needs_sa(dense_ctx):
    pdf = build_pdf(SamplingStrategy.UNIFORM, dense_ctx.table, dense_ctx.profile)
    with pytest.raises(ValueError):
        estimate_ra(pdf, dense_ctx.table, lambda s: 1.0, samples=10,
                    uf=lambda lid: 0.5)


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


def test_zero_variance_pdf_contributions_all_equal(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    pdf = build_zero_variance_pdf(dense_ctx.table, arch.evaluator, arch.sa)
    est = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=256, seed=2)
    assert np.all(np.abs(est.contribs / est.contribs[0] - 1.0) < 1e-9)
    assert est.mean == pytest.approx(res.ra, rel=1e-9)


# --- baselines and studies -------------------------------------------------

def test_sw_baseline_matches_uniform_datapath_mean(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    exact = uniform_site_mean(arch.evaluator, dense_ctx.table, include_control=False)
    est = ra_sw_baseline(arch.evaluator, dense_ctx.table, samples=20_000, seed=3)
    se = np.sqrt(est.variance / est.samples_drawn)
    assert abs(est.mean - exact) < 4.0 * se + 1e-12
    assert np.all((est.contribs >= 0.0) & (est.contribs <= 1.0))


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
    cg = dense_ctx.table.class_for(CONTROL_LAYER, FFType.CONTROL_GLOBAL)
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
    r0 = ra_expected(dense_ctx.table, arch.evaluator, arch.sa, uf=lambda lid: 0.0)
    ctl = sum(c.total_prob(dense_ctx.table.bit_width)
              for c in dense_ctx.table.classes if c.layer_id == CONTROL_LAYER)
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
