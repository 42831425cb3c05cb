"""The array-based estimator and studies against the naive loops of
``tests/reference_estimator.py``: bit-equal results and, where the evaluator
is a live injection in real use, the same evaluator calls in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_estimator as ref
from resacc.estimator import (
    PoCCriteria,
    SamplingStrategy,
    build_pdf,
    build_zero_variance_pdf,
    estimate_ra,
    fit_sdc_rates,
    hardening_study,
    ra_true_nc,
    uniform_site_mean,
)
from resacc.probtransfer import build_table, ra_expected, sequential_sum
from resacc.profile import CONTROL_LAYER, FFType, derive_profile


class Recorder:
    """Evaluator that forwards to an archive and records every site asked."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, site):
        self.calls.append(site)
        return self.fn(site)


def _uf(lid: int) -> float:
    return 0.3 + 0.15 * (lid % 4)


def _at_utilization(ctx, uf):
    """(profile, table, uf for the reference loops) of `ctx`'s net with each
    layer at utilization uf(layer id); `ctx`'s own, and None, when uf is None."""
    if uf is None:
        return ctx.profile, ctx.table, None
    util = {layer.layer_id: uf(layer.layer_id) for layer in ctx.profile.layers}
    profile = derive_profile(ctx.net, ctx.config, utilization=util)
    return profile, build_table(profile, ctx.config), lambda lid: profile.layer(lid).utilization


def _bits(x) -> bytes:
    """Bit pattern of a float or float array; unlike ==, tells -0.0 from 0.0."""
    return np.asarray(x, dtype=np.float64).tobytes()


def _same_result(got, want):
    assert _bits(got.ra) == _bits(want.ra)
    assert got.sa == want.sa
    assert {t: _bits(v) for t, v in got.components.items()} == {
        t: _bits(v) for t, v in want.components.items()
    }


@pytest.fixture(params=["dense", "skew0"])
def case(request):
    ctx = request.getfixturevalue(f"{request.param}_ctx")
    _, arch = request.getfixturevalue(f"{request.param}_oracle")
    return ctx, arch


PDFS = [s.value for s in SamplingStrategy] + ["zero-variance"]


def _pdf(name, profile, table, arch):
    if name == "zero-variance":
        return build_zero_variance_pdf(table, arch.evaluator, arch.sa)
    return build_pdf(SamplingStrategy(name), table, profile, sa=arch.sa)


# Batches smaller than the run, so the memo spans batches; with truth, also
# batches below, at and just over the 300-draw window, so windows span them.
# At 299 the zero-variance PDF's PoC, 300, is the first draw of a batch.
MODES = [pytest.param("fixed", 700, id="fixed"),
         pytest.param("fixed-with-truth", 700, id="fixed-with-truth"),
         pytest.param("poc", 333, id="poc")] + [
    pytest.param(mode, batch, id=f"{mode}-batch{batch}")
    for mode in ("fixed-with-truth", "poc") for batch in (97, 299, 300, 301)]


@pytest.mark.parametrize("mode,batch", MODES)
@pytest.mark.parametrize("uf", [None, _uf], ids=["uf1", "uf"])
@pytest.mark.parametrize("pdf_name", PDFS)
def test_estimate_ra_matches_per_sample_loop(case, pdf_name, uf, mode, batch):
    ctx, arch = case
    profile, table, ref_uf = _at_utilization(ctx, uf)
    pdf = _pdf(pdf_name, profile, table, arch)
    truth = ref.ra_expected(table, arch.evaluator, arch.sa, ref_uf).ra
    if mode == "poc":
        kw = dict(criteria=PoCCriteria(), ground_truth=truth, max_samples=5000, batch=batch)
    else:
        kw = dict(samples=3000, batch=batch)
        if mode == "fixed-with-truth":
            kw["ground_truth"] = truth
    got_ev, want_ev = Recorder(arch.evaluator), Recorder(arch.evaluator)
    est = estimate_ra(pdf, table, got_ev, seed=11, sa=arch.sa, **kw)
    contribs, trace, poc = ref.estimate_ra(
        pdf, table, want_ev, seed=11, sa=arch.sa, uf=ref_uf, **kw
    )
    assert _bits(est.contribs) == _bits(contribs)
    assert _bits(est.trace) == _bits(trace)
    assert est.poc_index == poc
    assert est.samples_drawn == len(contribs)
    assert got_ev.calls == want_ev.calls
    assert len(got_ev.calls) == len(set(got_ev.calls)) < est.samples_drawn


@pytest.mark.parametrize("uf", [None, _uf], ids=["uf1", "uf"])
def test_ra_expected_matches_site_loop(case, uf):
    ctx, arch = case
    _, table, ref_uf = _at_utilization(ctx, uf)
    got_ev, want_ev = Recorder(arch.evaluator), Recorder(arch.evaluator)
    _same_result(ra_expected(table, got_ev, arch.sa),
                 ref.ra_expected(table, want_ev, arch.sa, ref_uf))
    assert got_ev.calls == want_ev.calls


def test_ra_expected_rejects_missing_accuracy(dense_ctx):
    with pytest.raises(ValueError, match="no accuracy available"):
        ra_expected(dense_ctx.table, lambda s: None, 1.0)


@pytest.mark.parametrize("include_control", [False, True])
def test_uniform_site_mean_matches_site_loop(case, include_control):
    ctx, arch = case
    got_ev, want_ev = Recorder(arch.evaluator), Recorder(arch.evaluator)
    got = uniform_site_mean(got_ev, ctx.table, include_control)
    want = ref.uniform_site_mean(want_ev, ctx.table, include_control)
    assert _bits(got) == _bits(want)
    assert got_ev.calls == want_ev.calls


def test_uniform_site_mean_asks_only_the_included_classes(dense_ctx, dense_oracle):
    """An SW evaluator refuses control sites; the datapath mean never asks."""
    _, arch = dense_oracle

    def datapath_only(site):
        assert site.layer_id != CONTROL_LAYER
        return arch.evaluator(site)

    got = uniform_site_mean(datapath_only, dense_ctx.table, include_control=False)
    assert got == ref.uniform_site_mean(arch.evaluator, dense_ctx.table, False)


@pytest.mark.parametrize("uf", [None, _uf], ids=["uf1", "uf"])
def test_ra_true_nc_matches_site_loop(case, uf):
    ctx, arch = case
    _, table, ref_uf = _at_utilization(ctx, uf)
    got_ev, want_ev = Recorder(arch.evaluator), Recorder(arch.evaluator)
    _same_result(ra_true_nc(table, got_ev, arch.sa),
                 ref.ra_true_nc(table, want_ev, arch.sa, ref_uf))
    assert got_ev.calls == want_ev.calls
    assert all(s.var_type is not FFType.CONTROL_GLOBAL for s in got_ev.calls)


@pytest.mark.parametrize("threshold", [0.05, 0.2, 0.4, 0.999])
def test_fit_sdc_rates_match_site_loop(case, threshold):
    ctx, arch = case
    got = fit_sdc_rates(arch.evaluator, ctx.table, ctx.config, threshold, arch.sa)
    want = ref.fit_sdc_rates(arch.evaluator, ctx.table, ctx.config, threshold, arch.sa)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("uf", [None, _uf], ids=["uf1", "uf"])
def test_hardening_study_matches_per_config_loops(case, uf):
    ctx, arch = case
    profile, _, ref_uf = _at_utilization(ctx, uf)
    got_ev, want_ev = Recorder(arch.evaluator), Recorder(arch.evaluator)
    got = hardening_study(profile, ctx.config, got_ev, arch.sa)
    want = ref.hardening_study(profile, ctx.config, want_ev, arch.sa, uf=ref_uf)
    assert list(got) == list(want)
    for name in want:
        _same_result(got[name], want[name])
    # one gather instead of one per configuration
    assert len(want_ev.calls) == len(want) * len(got_ev.calls)
    assert got_ev.calls == want_ev.calls[: len(got_ev.calls)]


@pytest.mark.parametrize("uf", [None, _uf], ids=["uf1", "uf"])
def test_zero_variance_pdf_matches_site_loop(case, uf):
    ctx, arch = case
    _, table, ref_uf = _at_utilization(ctx, uf)
    pdf = build_zero_variance_pdf(table, arch.evaluator, arch.sa)
    units = ref.zero_variance_units(table, arch.evaluator, arch.sa, ref_uf)
    cols = np.array([u[:4] for u in units], dtype=np.int64)
    assert np.array_equal(pdf.layer_ids, cols[:, 0])
    assert np.array_equal(pdf.type_codes, cols[:, 1])
    assert np.array_equal(pdf.var_index, cols[:, 2])
    assert np.array_equal(pdf.bit_pos, cols[:, 3])
    assert np.all(pdf.members == 1)
    assert _bits(pdf.weights) == _bits([u[4] for u in units])
    # the key trap: one-member units whose var index runs past members.max()
    assert pdf.var_index.max() > pdf.members.max()


def test_sequential_sum_is_a_running_total():
    rng = np.random.default_rng(0)
    terms = rng.random(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
    total = 0.0
    for t in terms.tolist():
        total += t
    assert _bits(sequential_sum(terms)) == _bits(total)
    assert _bits(sequential_sum(np.array([-0.0, -0.0]))) == _bits(0.0)
    assert sequential_sum(np.empty(0)) == 0.0
