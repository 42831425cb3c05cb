"""Monte Carlo RA estimation with importance sampling.

The estimand is the expected accuracy under one fault, sum_j p(j) * A(j),
each site's term weighted by the utilization u of its layer as
`probtransfer.ra_integrand` weights it. The table carries p(j) and u per
(layer, type) class, and a PDF carries both per unit. Sampling runs over
(layer, type, bit) equivalence classes with uniform selection inside a
class; same-class sites share p(j) and u, so the per-sample contribution
ra_integrand(X) / PDF(X) keeps the estimator unbiased for any of the
supported PDFs:

* Uniform        — constant over all sites.
* MacWeighted    — proportional to the MAC operations a variable takes part in.
* Importance     — proportional to p(j), assuming A is constant.
* ImportanceBP   — proportional to p(j) * (SA - assumed drop for the bit).

All draws flow from one seeded generator in a defined order, so results are
reproducible for a given seed and `batch`; the stream is not independent of
`batch` (each batch draws its units, then its vars), so another batch size
draws other sites. Fixed-budget and PoC runs share one loop, which carries
the running sums of the contributions, of the trace and of its square, each
continued in sequence, so each equals a whole-run `np.cumsum` bit for bit.
The one window test thus reads only each batch's windows: cost is linear.

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

import numpy as np

from .formats import NumericFormat, default_bp_drop
from .probtransfer import (
    Evaluator,
    ProbClass,
    RAResult,
    SiteProbabilityTable,
    build_table,
    class_accuracies,
    gather_accuracies,
    ra_from_accuracies,
    ra_integrand,
    sequential_sum,
)
from .profile import (
    CONTROL_LAYER,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
    fault_sites,
)

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
    """Sampling units, no two of which share a site: one per (layer, type,
    bit) class, or per single site when `var_index >= 0`. `members` sites
    share each unit uniformly."""

    layer_ids: np.ndarray
    type_codes: np.ndarray  # index into list(FFType)
    bit_pos: np.ndarray
    var_index: np.ndarray  # -1 = uniform over the class members
    members: np.ndarray
    weights: np.ndarray
    site_probs: np.ndarray  # per-var-per-bit p(j) of each unit's sites
    utilization: np.ndarray  # u of each unit's layer, as in its table class
    exact_integrand: bool = False  # built from oracle p*A; zero weights are safe
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(self.weights < 0) or not np.any(self.weights > 0):
            raise ValueError("PDF weights must be >= 0 with at least one > 0")
        self._cum = np.cumsum(self.weights / self.weights.sum())
        self._cum[-1] = 1.0

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


def _unit_columns(classes: list[ProbClass], bit_width: int) -> dict[str, np.ndarray]:
    """`DiscretePDF` columns of the (class, bit) units of `classes`, class-major
    and bit-minor, each uniform over its class's variables."""
    def per_class(values, dtype):
        return np.repeat(np.asarray(values, dtype=dtype), bit_width)

    return dict(
        layer_ids=per_class([c.layer_id for c in classes], np.int64),
        type_codes=per_class([_FFTYPES.index(c.var_type) for c in classes], np.int64),
        bit_pos=np.tile(np.arange(bit_width, dtype=np.int64), len(classes)),
        var_index=np.full(len(classes) * bit_width, -1, dtype=np.int64),
        members=per_class([c.var_count for c in classes], np.int64),
        site_probs=per_class([c.per_var_per_bit_prob for c in classes], np.float64),
        utilization=per_class([c.utilization for c in classes], np.float64),
    )


def build_pdf(
    strategy: SamplingStrategy,
    table: SiteProbabilityTable,
    profile: NetworkProfile,
    sa: float | None = None,
) -> DiscretePDF:
    """Construct the sampling PDF for one strategy over the table's (class,
    bit) units.

    MacWeighted covers local-control sites via the average per-weight MAC
    count of the datapath variable they corrupt, and skips global-control
    sites (their integrand is exactly zero: a crash has accuracy 0). The
    other strategies cover every site. ImportanceBP weights each bit by the
    format's `default_bp_drop` prior and raises a ValueError when SA is at
    most a bit's assumed drop, which would give that bit's non-crash sites
    of nonzero p(j) no weight.
    """
    classes = table.classes
    if strategy is SamplingStrategy.MAC_WEIGHTED:
        classes = [c for c in classes if c.var_type is not FFType.CONTROL_GLOBAL]
    cols = _unit_columns(classes, table.bit_width)
    members = cols["members"].astype(np.float64)
    if strategy is SamplingStrategy.UNIFORM:
        weights = members
    elif strategy is SamplingStrategy.IMPORTANCE:
        weights = cols["site_probs"] * members
    elif strategy is SamplingStrategy.MAC_WEIGHTED:
        n_weights = sum(l.var_count.get(FFType.WEIGHT, 0) for l in profile.layers)
        local = (profile.total_macs / max(n_weights, 1)
                 * profile.control_var_count.get(FFType.CONTROL_LOCAL, 1))
        weights = np.repeat([local if c.var_type is FFType.CONTROL_LOCAL
                             else float(profile.layer(c.layer_id).mac_count)
                             for c in classes], table.bit_width)
    else:  # ImportanceBP
        if sa is None:
            raise ValueError("ImportanceBP needs the fault-free accuracy")
        fmt = next((f for f in NumericFormat if f.width == table.bit_width), None)
        if fmt is None:
            raise ValueError(f"no numeric format is {table.bit_width} bits wide")
        drops = default_bp_drop(fmt)
        ahat = np.tile([max(0.0, sa - drops.get(b, 0.0)) for b in range(table.bit_width)],
                       len(classes))
        # A unit the prior gives no accuracy would never be drawn, though
        # its sites' p(j) * A(j) need not be 0: only a crash's is.
        p = cols["site_probs"]
        crash = cols["type_codes"] == _FFTYPES.index(FFType.CONTROL_GLOBAL)
        lost = (ahat == 0.0) & (p > 0.0) & ~crash
        if lost.any():
            bits = np.unique(cols["bit_pos"][lost]).tolist()
            raise ValueError(
                f"is-b: SA {float(sa)!r} is at most the assumed accuracy drop of bits {bits}, "
                f"so their sites would never be drawn"
            )
        weights = p * members * ahat
    return DiscretePDF(**cols, weights=weights)


def build_zero_variance_pdf(
    table: SiteProbabilityTable, evaluator: Evaluator, sa: float
) -> DiscretePDF:
    """PDF exactly proportional to the integrand, from oracle-supplied
    accuracies: one unit per site of positive integrand, in (class, var,
    bit) order, weight `ra_integrand`. Each takes its (class, bit) unit's
    columns, with `members` 1 and its var in `var_index`. With this PDF
    every sample contributes the same value (the estimator variance is zero)."""
    bw = table.bit_width
    parts = []
    accs = class_accuracies(table.classes, bw, evaluator)
    for k, (c, a) in enumerate(zip(table.classes, accs)):
        f = ra_integrand(c.per_var_per_bit_prob, c.utilization, a, sa)
        vars_, bits = np.nonzero(~(f <= 0.0))  # var-major, as the sites run
        parts.append((k * bw + bits, vars_, f[vars_, bits]))
    unit, var, weights = (np.concatenate(x) for x in zip(*parts))
    cols = {name: col[unit] for name, col in _unit_columns(table.classes, bw).items()}
    cols.update(var_index=var, members=np.ones_like(var))
    return DiscretePDF(**cols, weights=weights, exact_integrand=True)


@dataclass
class RAEstimate:
    mean: float
    variance: float
    samples_drawn: int
    trace: np.ndarray  # running mean after each sample
    seed: int
    poc_index: int | None = None
    contribs: np.ndarray | None = None  # per-sample contributions p*A/PDF


def _continued(sums: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`sums`, then the running sums of `x` from `sums[-1]` on, added in
    sequence as one `np.cumsum` over the whole series adds them."""
    out = np.concatenate((sums, x))
    np.cumsum(out[len(sums) - 1 :], out=out[len(sums) - 1 :])
    return out


class _PoCTest:
    """The PoC test over a trace fed in pieces: it keeps the running sums of the
    trace and its square at the last `window` counts, to test only new windows."""

    def __init__(self, ground_truth: float, criteria: PoCCriteria):
        self.truth, self.crit = ground_truth, criteria
        self.count, self.sums, self.squares = 0, np.zeros(1), np.zeros(1)

    def feed(self, trace: np.ndarray) -> int | None:
        truth, crit, w = self.truth, self.crit, self.crit.window
        start = self.count + 1 - len(self.sums)  # the sample count of c1[0]
        c1, c2 = _continued(self.sums, trace), _continued(self.squares, trace * trace)
        self.count += len(trace)
        self.sums, self.squares = c1[-w:], c2[-w:]
        wmean = (c1[w:] - c1[:-w]) / w
        wvar = np.maximum((c2[w:] - c2[:-w]) / w - wmean**2, 0.0)
        ok = (np.abs(wmean - truth) <= crit.mean_tol * abs(truth)) & (wvar < crit.var_thresh)
        idx = np.flatnonzero(ok)
        return start + int(idx[0]) + w if idx.size else None


def detect_poc(trace: np.ndarray, ground_truth: float,
               criteria: PoCCriteria = PoCCriteria()) -> int | None:
    """Earliest sample count whose trailing window meets the criteria, or
    None: the whole trace fed at once through `estimate_ra`'s PoC test."""
    return _PoCTest(ground_truth, criteria).feed(np.asarray(trace, dtype=np.float64))


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
    """A(j) of every site drawn so far in one run. A draw is keyed by its unit
    times a span above every var index, plus its var: an integer unique to
    its site, as no two units of a PDF share one. Sites missing from the memo
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
        keys = units * self.span + vars_
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
    max_samples: int = 200_000,
    batch: int = 2048,
) -> RAEstimate:
    """Run the Monte Carlo estimator.

    Stops after `samples` draws, or (when `criteria` and `ground_truth` are
    given instead) at the point of convergence (PoC), capped at `max_samples`;
    a fixed run with `ground_truth` reports its first PoC under `criteria`
    (default `PoCCriteria()`). Both share one loop and one window test, in time
    linear in the draws. The evaluator is called once per distinct site, at its
    first draw. `sa` may be left out only when every unit is fully utilized.
    """
    if (samples is None and criteria is None) or (criteria is not None and ground_truth is None):
        raise ValueError("need a sample count or criteria, and criteria need a ground_truth")
    if sa is None:
        if np.any(pdf.utilization < 1.0):
            raise ValueError("utilization weighting needs the fault-free accuracy")
        sa = 0.0
    _check_coverage(pdf, table)
    name, limit = ("samples", samples) if samples is not None else ("max_samples", max_samples)
    if limit < 1:
        raise ValueError(f"{name} = {limit} must be at least 1")
    if batch < 1:
        raise ValueError(f"batch = {batch} must be at least 1")
    rng = np.random.default_rng(seed)
    site_pdf = pdf.site_pdf()
    memo = _SiteMemo(pdf, evaluator)
    # Rows: each draw's contribution and the running mean after it. A PoC run
    # doubles them when full: its cap bounds what it draws, not what it holds.
    buf = np.empty((2, limit if samples is not None else min(limit, batch)))
    test = None if ground_truth is None else _PoCTest(ground_truth, criteria or PoCCriteria())
    sums = np.full(1, -0.0)  # -0.0 + x is x bit for bit, as np.cumsum starts
    drawn, poc = 0, None
    while drawn < limit and (poc is None or samples is not None):
        n = min(batch, limit - drawn)
        if drawn + n > buf.shape[1]:  # full: it holds batch * 2**k draws
            buf = np.hstack((buf, np.empty((2, min(limit, 2 * drawn) - drawn))))
        units, vars_ = pdf.draw_batch(rng, n)
        a = memo.lookup(units, vars_)
        f = ra_integrand(pdf.site_probs[units], pdf.utilization[units], a, sa)
        buf[0, drawn : drawn + n] = c = f / site_pdf[units]
        sums = _continued(sums[-1:], c)
        buf[1, drawn : drawn + n] = t = sums[1:] / np.arange(drawn + 1, drawn + n + 1)
        drawn += n
        if poc is None and test is not None:
            poc = test.feed(t)
    contribs, trace = buf[:, :drawn]
    return RAEstimate(
        mean=float(trace[-1]),
        variance=float(np.var(contribs, ddof=1)) if drawn > 1 else 0.0,
        samples_drawn=drawn,
        trace=trace,
        seed=seed,
        poc_index=poc,
        contribs=contribs,
    )


# --- baselines and studies -------------------------------------------------

def uniform_site_mean(
    evaluator: Evaluator, table: SiteProbabilityTable, include_control: bool
) -> float:
    """Exact uniform average of A(j), over datapath sites or over all sites."""
    classes = [c for c in table.classes if include_control or c.layer_id != CONTROL_LAYER]
    accs = class_accuracies(classes, table.bit_width, evaluator)
    values = np.concatenate([a.ravel() for a in accs])
    return sequential_sum(values) / len(values)


def ra_true_nc(table: SiteProbabilityTable, evaluator: Evaluator, sa: float) -> RAResult:
    """RA under the true site probabilities but with global-control FFs
    assumed fault-free (their accuracy pinned to SA, never evaluated)."""
    live = [c for c in table.classes if c.var_type is not FFType.CONTROL_GLOBAL]
    got = iter(class_accuracies(live, table.bit_width, evaluator))
    accs = [
        np.full((c.var_count, table.bit_width), sa)
        if c.var_type is FFType.CONTROL_GLOBAL else next(got)
        for c in table.classes
    ]
    return ra_from_accuracies(table, accs, sa)


def check_drop_threshold(threshold: float) -> None:
    """Refuse an accuracy-drop threshold of `fit_sdc_rates` outside (0, 1]."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} must be in (0, 1]")


def fit_sdc_rates(
    evaluator: Evaluator,
    table: SiteProbabilityTable,
    config: AcceleratorConfig,
    threshold: float,
    sa: float,
) -> tuple[float, float]:
    """(FIT-style, SDC-style) failure rates at an accuracy-drop threshold.

    A site counts as failing when SA - A(j) > threshold. The FIT-style rate
    includes crash sites; the SDC-style rate excludes them. Both are scaled
    by the configured raw FIT mass (sum of ff_count * raw_fit), so they are
    comparable across hardening configurations. The global-control sites
    are the ones that crash.
    """
    check_drop_threshold(threshold)
    fit_terms = []
    sdc_terms = []
    accs = class_accuracies(table.classes, table.bit_width, evaluator)
    for c, a in zip(table.classes, accs):
        fails = np.count_nonzero(sa - a > threshold)
        crash = c.var_type is FFType.CONTROL_GLOBAL
        fit_terms.append(np.full(fails, c.per_var_per_bit_prob))
        sdc_terms.append(np.full(0 if crash else fails, c.per_var_per_bit_prob))
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
        cond = ra_from_accuracies(tables[name], accs, sa)
        r = _fit_mass(cfg) / base_mass
        results[name] = RAResult(
            ra=r * cond.ra + (1.0 - r) * sa, sa=sa, components=cond.components
        )
    return results
