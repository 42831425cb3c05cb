"""Monte Carlo RA estimation with importance sampling.

The estimand is the expected accuracy under one fault, sum_j p(j) * A(j)
(optionally utilization-weighted). Sampling runs over (layer, type, bit)
equivalence classes with uniform selection inside a class; same-class sites
share p(j), so the per-sample contribution p(X) * A(X) / PDF(X) keeps the
estimator unbiased for any of the supported PDFs:

* Uniform        — constant over all sites.
* MacWeighted    — proportional to the MAC operations a variable takes part in.
* Importance     — proportional to p(j), assuming A is constant.
* ImportanceBP   — proportional to p(j) * (SA - assumed drop for the bit).

All draws flow from one seeded generator in a defined order, so results are
reproducible for a given seed and `batch`; the stream is not independent of
`batch` (each batch draws its units, then its vars), so another batch size
draws other sites.

A(j) is read once per distinct site of a run, in first-draw order, and every
weight and contribution is an array operation over the batch. The exact sums
and studies gather A(j) into one array per (layer, type) class
(`probtransfer.class_accuracies`) and reduce over those arrays, summing
sequentially in site order (`probtransfer.sequential_sum`), so every result
equals that of a per-site running sum bit for bit. Neither per-site loop runs
a Python frame of its own: both build their sites with `map` over column
lists (`profile.fault_sites`) and map the evaluator over them into one array
(`probtransfer.gather_accuracies`), so the evaluator's frame is the only one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .formats import default_bp_drop
from .probtransfer import (
    RAResult,
    SiteProbabilityTable,
    build_table,
    class_accuracies,
    gather_accuracies,
    ra_from_accuracies,
    sequential_sum,
)
from .profile import (
    CONTROL_LAYER,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
    fault_sites,
)

Evaluator = Callable[[SoftwareFaultSite], float]
UFMap = Callable[[int], float]

_FFTYPES = list(FFType)


class SamplingStrategy(enum.Enum):
    UNIFORM = "uniform"
    MAC_WEIGHTED = "mac"
    IMPORTANCE = "is"
    IMPORTANCE_BP = "is-b"


@dataclass
class PoCCriteria:
    """Point-of-convergence test: the trailing-window mean of the running
    estimate must sit within `mean_tol` (relative) of the ground truth and
    the window variance of the running mean must stay below `var_thresh`."""

    window: int = 300
    mean_tol: float = 0.003
    var_thresh: float = 1e-2

    def __post_init__(self):
        tols = (self.mean_tol, self.var_thresh)
        if self.window < 1 or not all(math.isfinite(t) and t > 0 for t in tols):
            raise ValueError(
                f"invalid convergence criteria: window {self.window}, mean tolerance "
                f"{self.mean_tol}, variance threshold {self.var_thresh}"
            )


@dataclass
class DiscretePDF:
    """Sampling units: one per (layer, type, bit) class, or per single site
    when `var_index >= 0`. `members` sites share each unit uniformly."""

    layer_ids: np.ndarray
    type_codes: np.ndarray  # index into list(FFType)
    bit_pos: np.ndarray
    var_index: np.ndarray  # -1 = uniform over the class members
    members: np.ndarray
    weights: np.ndarray
    site_probs: np.ndarray  # per-var-per-bit p(j) of each unit's sites
    exact_integrand: bool = False  # built from oracle p*A; zero weights are safe
    _cum: np.ndarray = field(init=False, repr=False)
    # each unit's (layer, type, bit) class, numbered in sorted order
    _unit_class: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.weights < 0) or not np.any(self.weights > 0):
            raise ValueError("PDF weights must be >= 0 with at least one > 0")
        self._cum = np.cumsum(self.weights / self.weights.sum())
        self._cum[-1] = 1.0
        layer, code, bit = (np.asarray(a, dtype=np.int64)
                            for a in (self.layer_ids, self.type_codes, self.bit_pos))
        key = ((layer - layer.min()) * len(_FFTYPES) + code) * (bit.max() + 1) + bit
        self._unit_class = np.unique(key, return_inverse=True)[1]

    @property
    def n_units(self) -> int:
        return len(self.weights)

    def unit_prob(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    def site_pdf(self) -> np.ndarray:
        """Probability of drawing one specific site of each unit."""
        return self.unit_prob() / self.members

    def draw_batch(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        u = rng.random(n)
        units = np.searchsorted(self._cum, u, side="right")
        units = np.minimum(units, self.n_units - 1)
        vars_ = rng.integers(0, self.members[units])
        explicit = self.var_index[units] >= 0
        vars_ = np.where(explicit, self.var_index[units], vars_)
        return units, vars_

    def site_at(self, unit: int, var: int) -> SoftwareFaultSite:
        return SoftwareFaultSite(
            int(self.layer_ids[unit]),
            _FFTYPES[int(self.type_codes[unit])],
            int(var),
            int(self.bit_pos[unit]),
        )


def _units_from_table(table: SiteProbabilityTable, include_types) -> dict[str, list]:
    cols = {"layer": [], "type": [], "bit": [], "members": [], "p": []}
    for c in table.classes:
        if c.var_type not in include_types:
            continue
        for b in range(table.bit_width):
            cols["layer"].append(c.layer_id)
            cols["type"].append(_FFTYPES.index(c.var_type))
            cols["bit"].append(b)
            cols["members"].append(c.var_count)
            cols["p"].append(c.per_var_per_bit_prob)
    return cols


def _make_pdf(cols, weights, exact=False) -> DiscretePDF:
    return DiscretePDF(
        layer_ids=np.asarray(cols["layer"], dtype=np.int64),
        type_codes=np.asarray(cols["type"], dtype=np.int64),
        bit_pos=np.asarray(cols["bit"], dtype=np.int64),
        var_index=np.asarray(cols.get("var", [-1] * len(cols["layer"])), dtype=np.int64),
        members=np.asarray(cols["members"], dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
        site_probs=np.asarray(cols["p"], dtype=np.float64),
        exact_integrand=exact,
    )


def build_pdf(
    strategy: SamplingStrategy,
    table: SiteProbabilityTable,
    profile: NetworkProfile,
    sa: float | None = None,
    bp_model: dict[int, float] | None = None,
) -> DiscretePDF:
    """Construct the sampling PDF for one strategy.

    MacWeighted covers local-control sites via the average per-weight MAC
    count of the datapath variable they corrupt, and skips global-control
    sites (their integrand is exactly zero: a crash has accuracy 0). The
    other strategies cover every site.
    """
    if strategy in (SamplingStrategy.UNIFORM, SamplingStrategy.IMPORTANCE):
        cols = _units_from_table(table, set(FFType))
        if strategy is SamplingStrategy.UNIFORM:
            weights = np.asarray(cols["members"], dtype=np.float64)
        else:
            weights = np.asarray(cols["p"]) * np.asarray(cols["members"], dtype=np.float64)
        return _make_pdf(cols, weights)
    if strategy is SamplingStrategy.IMPORTANCE_BP:
        if sa is None:
            raise ValueError("ImportanceBP needs the fault-free accuracy")
        drops = bp_model if bp_model is not None else default_bp_drop_for(table)
        cols = _units_from_table(table, set(FFType))
        ahat = np.asarray([max(0.0, sa - drops.get(b, 0.0)) for b in cols["bit"]])
        weights = np.asarray(cols["p"]) * np.asarray(cols["members"], dtype=np.float64) * ahat
        return _make_pdf(cols, weights)
    assert strategy is SamplingStrategy.MAC_WEIGHTED
    include = set(DATAPATH_TYPES) | {FFType.CONTROL_LOCAL}
    cols = _units_from_table(table, include)
    total_macs = profile.total_macs
    n_weights = sum(l.var_count.get(FFType.WEIGHT, 0) for l in profile.layers)
    weights = []
    for lid, tcode in zip(cols["layer"], cols["type"]):
        t = _FFTYPES[tcode]
        if t is FFType.CONTROL_LOCAL:
            per_var = total_macs / max(n_weights, 1)
            weights.append(per_var * profile.control_var_count.get(t, 1))
        else:
            weights.append(float(profile.layer(lid).mac_count))
    return _make_pdf(cols, weights)


def default_bp_drop_for(table: SiteProbabilityTable) -> dict[int, float]:
    from .formats import NumericFormat

    fmt = {32: NumericFormat.FP32, 16: NumericFormat.FP16, 8: NumericFormat.INT8}[
        table.bit_width
    ]
    return default_bp_drop(fmt)


def build_zero_variance_pdf(
    table: SiteProbabilityTable,
    evaluator: Evaluator,
    sa: float,
    uf: UFMap | None = None,
) -> DiscretePDF:
    """PDF exactly proportional to the integrand, from oracle-supplied
    accuracies: one unit per site, weight p(j) * A_uf(j). With this PDF every
    sample contributes the same value (the estimator variance is zero)."""
    cols: dict[str, list] = {k: [] for k in ("layer", "type", "bit", "members", "p", "var")}
    weights = []
    accs = class_accuracies(table.classes, table.bit_width, evaluator)
    for c, a in zip(table.classes, accs):
        u = 1.0 if (uf is None or c.layer_id == CONTROL_LAYER) else uf(c.layer_id)
        f = c.per_var_per_bit_prob * (u * a + (1.0 - u) * sa)
        vars_, bits = np.nonzero(~(f <= 0.0))  # var-major, as the sites run
        n = len(vars_)
        cols["layer"].append(np.full(n, c.layer_id))
        cols["type"].append(np.full(n, _FFTYPES.index(c.var_type)))
        cols["bit"].append(bits)
        cols["members"].append(np.ones(n, dtype=np.int64))
        cols["p"].append(np.full(n, c.per_var_per_bit_prob))
        cols["var"].append(vars_)
        weights.append(f[vars_, bits])
    cols = {k: np.concatenate(v) for k, v in cols.items()}
    return _make_pdf(cols, np.concatenate(weights), exact=True)


@dataclass
class RAEstimate:
    mean: float
    variance: float
    samples_drawn: int
    trace: np.ndarray  # running mean after each sample
    seed: int
    poc_index: int | None = None
    contribs: np.ndarray | None = None  # per-sample contributions p*A/PDF


def detect_poc(
    trace: np.ndarray,
    ground_truth: float,
    criteria: PoCCriteria = PoCCriteria(),
) -> int | None:
    """Earliest sample count whose trailing window meets the criteria, or
    None. The variance tested is that of the running-mean trace within the
    window (what the convergence plots show)."""
    t = np.asarray(trace, dtype=np.float64)
    w = criteria.window
    if len(t) < w:
        return None
    c1 = np.concatenate([[0.0], np.cumsum(t)])
    c2 = np.concatenate([[0.0], np.cumsum(t * t)])
    wsum = c1[w:] - c1[:-w]
    wsq = c2[w:] - c2[:-w]
    wmean = wsum / w
    wvar = np.maximum(wsq / w - wmean**2, 0.0)
    ok = (np.abs(wmean - ground_truth) <= criteria.mean_tol * abs(ground_truth)) & (
        wvar < criteria.var_thresh
    )
    idx = np.flatnonzero(ok)
    return int(idx[0]) + w if idx.size else None


def _check_coverage(pdf: DiscretePDF, table: SiteProbabilityTable):
    if pdf.exact_integrand:
        return
    covered = set(zip(pdf.layer_ids.tolist(), pdf.type_codes.tolist()))
    for c in table.classes:
        key = (c.layer_id, _FFTYPES.index(c.var_type))
        if key not in covered and c.var_type is not FFType.CONTROL_GLOBAL:
            raise ValueError(
                f"PDF assigns zero weight to class (layer {c.layer_id}, "
                f"{c.var_type.value}) whose integrand may be nonzero"
            )


class _SiteMemo:
    """A(j) of every site drawn so far in one run. Each draw is keyed by an
    integer unique to its site: the (layer, type, bit) of its unit times a
    span above every var index, plus its var. Sites missing from the memo
    are built from the batch's columns and evaluated in first-draw order
    through `gather_accuracies`, so the evaluator sees the calls a
    per-sample loop with a site dictionary would make."""

    def __init__(self, pdf: DiscretePDF, evaluator: Evaluator):
        self.pdf = pdf
        self.evaluator = evaluator
        self.span = max(int(pdf.members.max()), int(pdf.var_index.max()) + 1)
        self.keys = np.empty(0, dtype=np.int64)  # sorted
        self.values = np.empty(0)

    def lookup(self, units: np.ndarray, vars_: np.ndarray) -> np.ndarray:
        """A(j) of each draw (units[i], vars_[i])."""
        keys = self.pdf._unit_class[units] * self.span + vars_
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        pos = np.searchsorted(self.keys, uniq)
        known = pos < len(self.keys)
        known[known] = self.keys[pos[known]] == uniq[known]
        vals = np.empty(len(uniq))
        vals[known] = self.values[pos[known]]
        fresh = np.flatnonzero(~known)
        fresh = fresh[np.argsort(first[fresh])]
        if len(fresh):
            pdf, at = self.pdf, first[fresh]
            u = units[at]
            sites = fault_sites(
                pdf.layer_ids[u].tolist(), map(_FFTYPES.__getitem__, pdf.type_codes[u].tolist()),
                vars_[at].tolist(), pdf.bit_pos[u].tolist(),
            )
            vals[fresh] = gather_accuracies(
                self.evaluator, sites, len(fresh), lambda i: pdf.site_at(u[i], vars_[at[i]])
            )
            keys = np.concatenate([self.keys, uniq[fresh]])
            order = np.argsort(keys)
            self.keys = keys[order]
            self.values = np.concatenate([self.values, vals[fresh]])[order]
        return vals[inverse]


def estimate_ra(
    pdf: DiscretePDF,
    table: SiteProbabilityTable,
    evaluator: Evaluator,
    *,
    samples: int | None = None,
    criteria: PoCCriteria | None = None,
    ground_truth: float | None = None,
    seed: int = 0,
    sa: float | None = None,
    uf: UFMap | None = None,
    max_samples: int = 200_000,
    batch: int = 2048,
) -> RAEstimate:
    """Run the Monte Carlo estimator.

    Stops after `samples` draws, or (when `criteria` and `ground_truth` are
    given instead) at the point of convergence, capped at `max_samples`.
    The evaluator is called once per distinct site of the run, at the
    site's first draw; repeated draws reuse that A(j).
    """
    if samples is None and (criteria is None or ground_truth is None):
        raise ValueError("need either a sample count or criteria + ground truth")
    if uf is not None and sa is None:
        raise ValueError("utilization weighting needs the fault-free accuracy")
    _check_coverage(pdf, table)
    name, limit = ("samples", samples) if samples is not None else ("max_samples", max_samples)
    if limit < 1:
        raise ValueError(f"{name} = {limit} must be at least 1")
    rng = np.random.default_rng(seed)
    site_pdf = pdf.site_pdf()
    if uf is not None:
        layers = np.unique(pdf.layer_ids)
        util = np.array([1.0 if lid == CONTROL_LAYER else uf(int(lid)) for lid in layers])
        w = util[np.searchsorted(layers, pdf.layer_ids)]
    memo = _SiteMemo(pdf, evaluator)
    contribs = np.empty(limit, dtype=np.float64)
    drawn = 0
    poc = None
    while drawn < limit:
        n = min(batch, limit - drawn)
        units, vars_ = pdf.draw_batch(rng, n)
        a = memo.lookup(units, vars_)
        if uf is not None:
            wu = w[units]
            f = pdf.site_probs[units] * (wu * a + (1.0 - wu) * sa)
        else:
            f = pdf.site_probs[units] * a
        contribs[drawn : drawn + n] = f / site_pdf[units]
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
    return RAEstimate(
        mean=float(trace[-1]),
        variance=float(np.var(c, ddof=1)) if drawn > 1 else 0.0,
        samples_drawn=drawn,
        trace=trace,
        seed=seed,
        poc_index=poc,
        contribs=c,
    )


# --- baselines and studies -------------------------------------------------

def ra_sw_baseline(
    evaluator: Evaluator,
    table: SiteProbabilityTable,
    samples: int,
    seed: int = 0,
) -> RAEstimate:
    """The software-injection baseline: uniform averaging of A(j) over
    weight/activation sites only (no control sites, no site weighting)."""
    if samples < 1:
        raise ValueError(f"samples = {samples} must be at least 1")
    cols = _units_from_table(table, set(DATAPATH_TYPES))
    pdf = _make_pdf(cols, np.asarray(cols["members"], dtype=np.float64), exact=True)
    rng = np.random.default_rng(seed)
    units, vars_ = pdf.draw_batch(rng, samples)
    vals = _SiteMemo(pdf, evaluator).lookup(units, vars_)
    trace = np.cumsum(vals) / np.arange(1, samples + 1)
    return RAEstimate(
        mean=float(trace[-1]),
        variance=float(np.var(vals, ddof=1)) if samples > 1 else 0.0,
        samples_drawn=samples,
        trace=trace,
        seed=seed,
        contribs=vals,
    )


def uniform_site_mean(
    evaluator: Evaluator, table: SiteProbabilityTable, include_control: bool
) -> float:
    """Exact uniform average of A(j), over datapath sites or over all sites."""
    classes = [c for c in table.classes if include_control or c.layer_id != CONTROL_LAYER]
    accs = class_accuracies(classes, table.bit_width, evaluator)
    values = np.concatenate([a.ravel() for a in accs])
    return sequential_sum(values) / len(values)


def ra_true_nc(
    table: SiteProbabilityTable, evaluator: Evaluator, sa: float, uf: UFMap | None = None
) -> RAResult:
    """RA under the true site probabilities but with global-control FFs
    assumed fault-free (their accuracy pinned to SA, never evaluated)."""
    live = [c for c in table.classes if c.var_type is not FFType.CONTROL_GLOBAL]
    got = iter(class_accuracies(live, table.bit_width, evaluator))
    accs = [
        np.full((c.var_count, table.bit_width), sa)
        if c.var_type is FFType.CONTROL_GLOBAL else next(got)
        for c in table.classes
    ]
    return ra_from_accuracies(table, accs, sa, uf)


def fit_sdc_rates(
    evaluator: Evaluator,
    table: SiteProbabilityTable,
    config: AcceleratorConfig,
    threshold: float,
    sa: float,
    crash_sites: Callable[[SoftwareFaultSite], bool] | None = None,
) -> tuple[float, float]:
    """(FIT-style, SDC-style) failure rates at an accuracy-drop threshold.

    A site counts as failing when SA - A(j) > threshold. The FIT-style rate
    includes crash sites; the SDC-style rate excludes them. Both are scaled
    by the configured raw FIT mass (sum of ff_count * raw_fit), so they are
    comparable across hardening configurations. `crash_sites` is asked only
    about failing sites; by default the global-control ones crash.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    fit_terms = []
    sdc_terms = []
    accs = class_accuracies(table.classes, table.bit_width, evaluator)
    for c, a in zip(table.classes, accs):
        fails = np.flatnonzero(sa - a > threshold)  # var-major, as the sites run
        if crash_sites is None:
            crash = np.full(len(fails), c.var_type is FFType.CONTROL_GLOBAL)
        else:
            crash = np.array([
                crash_sites(SoftwareFaultSite(c.layer_id, c.var_type, *divmod(j, table.bit_width)))
                for j in fails.tolist()
            ], dtype=bool)
        fit_terms.append(np.full(len(fails), c.per_var_per_bit_prob))
        sdc_terms.append(np.full(np.count_nonzero(~crash), c.per_var_per_bit_prob))
    fit_mass = _fit_mass(config)
    return (sequential_sum(np.concatenate(fit_terms)) * fit_mass,
            sequential_sum(np.concatenate(sdc_terms)) * fit_mass)


def _fit_mass(config: AcceleratorConfig) -> float:
    return sum(config.ff_count.get(t, 0) * config.raw_fit.get(t, 0.0) for t in FFType)


def hardening_study(
    profile: NetworkProfile,
    config: AcceleratorConfig,
    evaluator: Evaluator,
    sa: float,
    hardened_fit: float = 200.0,
    uf: UFMap | None = None,
) -> dict[str, RAResult]:
    """Re-derive RA with one FF type's raw FIT rate lowered to the hardened
    value at a time, plus the None/All brackets.

    The reported RA is exposure-weighted against the unhardened baseline:
    hardening shrinks the absolute fault incidence (sum of ff_count *
    raw_fit), so only the surviving fraction r of the baseline incidence
    experiences the conditional per-fault RA, the rest runs at SA:
    RA = r * RA_cond + (1 - r) * SA. Conditional RA alone cannot rank
    hardening choices — scaling every type's rate equally leaves the fault-
    site distribution, and hence conditional RA, unchanged.

    Raw FIT rates change only the class probabilities, not the classes, so
    A(j) is gathered once and every configuration reduces over it.
    """
    configs = {"none": config}
    for t in FFType:
        configs[t.value] = config.with_raw_fit({t: hardened_fit})
    configs["all"] = config.with_raw_fit({t: hardened_fit for t in FFType})
    tables = {name: build_table(profile, cfg) for name, cfg in configs.items()}
    base = tables["none"]

    def sites(t: SiteProbabilityTable) -> list:
        return [t.bit_width] + [(c.layer_id, c.var_type, c.var_count) for c in t.classes]

    same = all(sites(t) == sites(base) for t in tables.values())
    assert same, "hardening changed the fault-site classes"
    accs = class_accuracies(base.classes, base.bit_width, evaluator)
    base_mass = _fit_mass(config)
    results: dict[str, RAResult] = {}
    for name, cfg in configs.items():
        cond = ra_from_accuracies(tables[name], accs, sa, uf)
        r = _fit_mass(cfg) / base_mass
        results[name] = RAResult(
            ra=r * cond.ra + (1.0 - r) * sa, sa=sa, components=cond.components
        )
    return results
