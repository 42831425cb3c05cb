"""Deliberately naive estimator and studies, the reference the array-based
``resacc.estimator`` and ``resacc.probtransfer`` are checked against.

One Python step per drawn sample and one evaluator call per site per study:
every sum is a running ``+=`` in site order, every draw looks its site up in
a dictionary keyed by (layer, type, var, bit). Keep it this way: its worth
is in being obviously right, not fast.
"""

from __future__ import annotations

import numpy as np

from resacc.estimator import PoCCriteria, _check_coverage, detect_poc
from resacc.probtransfer import RAResult, build_table
from resacc.profile import CONTROL_LAYER, FFType, SoftwareFaultSite


def estimate_ra(pdf, table, evaluator, *, samples=None, criteria=None,
                ground_truth=None, seed=0, sa=None, uf=None,
                max_samples=200_000, batch=2048):
    """(contribs, trace, poc_index) of one run, drawn as ``estimate_ra``
    draws it."""
    _check_coverage(pdf, table)
    limit = samples if samples is not None else max_samples
    rng = np.random.default_rng(seed)
    site_pdf = pdf.site_pdf()
    cache = {}
    contribs = np.empty(limit, dtype=np.float64)
    drawn = 0
    poc = None
    while drawn < limit:
        n = min(batch, limit - drawn)
        units, vars_ = pdf.draw_batch(rng, n)
        for i in range(n):
            u = int(units[i])
            v = int(vars_[i])
            key = (int(pdf.layer_ids[u]), int(pdf.type_codes[u]), v, int(pdf.bit_pos[u]))
            a = cache.get(key)
            if a is None:
                a = evaluator(pdf.site_at(u, v))
                cache[key] = a
            if uf is not None:
                lid = key[0]
                w = 1.0 if lid == CONTROL_LAYER else uf(lid)
                f = pdf.site_probs[u] * (w * a + (1.0 - w) * sa)
            else:
                f = pdf.site_probs[u] * a
            contribs[drawn + i] = f / site_pdf[u]
        drawn += n
        if samples is None:
            trace = np.cumsum(contribs[:drawn]) / np.arange(1, drawn + 1)
            poc = detect_poc(trace, ground_truth, criteria)
            if poc is not None:
                break
    c = contribs[:drawn]
    trace = np.cumsum(c) / np.arange(1, drawn + 1)
    if samples is not None and ground_truth is not None:
        poc = detect_poc(trace, ground_truth, criteria or PoCCriteria())
    return c, trace, poc


def _sites(table, c):
    for v in range(c.var_count):
        for b in range(table.bit_width):
            yield SoftwareFaultSite(c.layer_id, c.var_type, v, b)


def ra_expected(table, accuracies, sa, uf=None):
    ra = 0.0
    components = {t: 0.0 for t in FFType}
    for c in table.classes:
        u = 1.0 if uf is None or c.layer_id == CONTROL_LAYER else uf(c.layer_id)
        p = c.per_var_per_bit_prob
        acc = 0.0
        for site in _sites(table, c):
            a = accuracies(site)
            if a is None:
                raise ValueError(f"no accuracy available for site {site}")
            acc += p * (u * a + (1.0 - u) * sa)
        ra += acc
        components[c.var_type] += acc
    return RAResult(ra=ra, sa=sa, components=components)


def uniform_site_mean(evaluator, table, include_control):
    total = 0.0
    count = 0
    for c in table.classes:
        if not include_control and c.layer_id == CONTROL_LAYER:
            continue
        for site in _sites(table, c):
            total += evaluator(site)
            count += 1
    return total / count


def ra_true_nc(table, evaluator, sa, uf=None):
    def ev(site):
        if site.var_type is FFType.CONTROL_GLOBAL:
            return sa
        return evaluator(site)

    return ra_expected(table, ev, sa, uf)


def _fit_mass(config):
    return sum(config.ff_count.get(t, 0) * config.raw_fit.get(t, 0.0) for t in FFType)


def fit_sdc_rates(evaluator, table, config, threshold, sa):
    fit = 0.0
    sdc = 0.0
    for c in table.classes:
        for site in _sites(table, c):
            if sa - evaluator(site) > threshold:
                fit += c.per_var_per_bit_prob
                if site.var_type is not FFType.CONTROL_GLOBAL:
                    sdc += c.per_var_per_bit_prob
    return fit * _fit_mass(config), sdc * _fit_mass(config)


def hardening_study(profile, config, evaluator, sa, hardened_fit=200.0, uf=None):
    base_mass = _fit_mass(config)

    def blended(cfg):
        cond = ra_expected(build_table(profile, cfg), evaluator, sa, uf)
        r = _fit_mass(cfg) / base_mass
        return RAResult(ra=r * cond.ra + (1.0 - r) * sa, sa=sa, components=cond.components)

    results = {"none": blended(config)}
    for t in FFType:
        results[t.value] = blended(config.with_raw_fit({t: hardened_fit}))
    results["all"] = blended(config.with_raw_fit({t: hardened_fit for t in FFType}))
    return results


def zero_variance_units(table, evaluator, sa, uf=None):
    """(layer, type code, var, bit, weight) of every unit of the zero-
    variance PDF, in unit order."""
    types = list(FFType)
    units = []
    for c in table.classes:
        u = 1.0 if (uf is None or c.layer_id == CONTROL_LAYER) else uf(c.layer_id)
        for site in _sites(table, c):
            a = evaluator(site)
            f = c.per_var_per_bit_prob * (u * a + (1.0 - u) * sa)
            if f <= 0.0:
                continue
            units.append((c.layer_id, types.index(c.var_type), site.var_index,
                          site.bit_pos, f))
    return units
