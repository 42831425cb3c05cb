"""Faulty-probability transfer from hardware statistics to software sites.

The probability that a given software fault site receives the (single)
transient fault factors into independent events: the fault lands while the
site's layer executes, in a flip-flop of the site's type, on the site's
variable among its same-type peers, and on the site's bit. The per-cell fault
probability additionally weights FF types by their raw FIT rates.

Same-type variables of one layer share one probability, so the table stores
one equivalence class per (layer, type) and expands to individual sites
lazily; control variables live in a pseudo-layer spanning the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat, takewhile
from operator import is_not
from typing import Callable, Iterable

import numpy as np

from .profile import (
    CONTROL_LAYER,
    CONTROL_TYPES,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
    fault_sites,
)

Evaluator = Callable[[SoftwareFaultSite], float]  # a site's accuracy A(j)


def type_prob(config: AcceleratorConfig, t: FFType) -> float:
    total = config.total_ffs
    if total <= 0:
        raise ValueError("config has no flip-flops")
    return config.ff_count.get(t, 0) / total


def fit_normalization(config: AcceleratorConfig) -> float:
    """Sum over types of TP(t) * rawFIT(t): the denominator of the per-cell
    fault probability, which weights each FF type by its raw FIT rate."""
    total = 0.0
    for t in FFType:
        total += type_prob(config, t) * config.raw_fit.get(t, 0.0)
    if total <= 0.0:
        raise ValueError("all raw FIT rates are zero")
    return total


@dataclass(frozen=True)
class ProbClass:
    """One (layer, type) equivalence class of sites sharing a probability,
    and the utilization of its layer (1.0 for control classes)."""

    layer_id: int
    var_type: FFType
    var_count: int
    per_var_per_bit_prob: float
    utilization: float = 1.0

    def total_prob(self, bit_width: int) -> float:
        return self.per_var_per_bit_prob * self.var_count * bit_width


@dataclass
class SiteProbabilityTable:
    classes: list[ProbClass]
    bit_width: int

    @property
    def total_sites(self) -> int:
        return sum(c.var_count for c in self.classes) * self.bit_width

    def total_prob(self) -> float:
        return sum(c.total_prob(self.bit_width) for c in self.classes)


def build_table(profile: NetworkProfile, config: AcceleratorConfig) -> SiteProbabilityTable:
    """Closed-form per-(layer, type) probabilities; sums to 1 over all sites.

    A class's raw mass is lp * TP(t) * rawFIT(t): its layer's share lp of
    the MACs (control classes span the whole run) times its type's share of
    the FFs, weighted by the type's raw FIT rate. Layers without weights
    (pooling, activation-only) leave their share of the weight-FF cells
    unoccupied, and a fault on an unoccupied cell hits nothing, so the
    probabilities are conditioned on an occupied cell: each mass is divided
    by `fit_normalization` times the occupied mass, the sum over classes of
    mass / `fit_normalization` (1 exactly when every layer populates every
    datapath FF type), and shared by the class's var_count * bit_width sites.
    """
    fit_norm = fit_normalization(config)
    spans = [(l.layer_id, l.var_count, l.mac_count / profile.total_macs, l.utilization,
              DATAPATH_TYPES) for l in profile.layers]
    spans.append((CONTROL_LAYER, profile.control_var_count, 1.0, 1.0, CONTROL_TYPES))
    found, occupied = [], 0.0
    for layer_id, counts, lp, u, types in spans:
        for t in types:
            n = counts.get(t, 0)
            if n >= 1:
                mass = lp * type_prob(config, t) * config.raw_fit.get(t, 0.0)
                found.append((layer_id, t, n, mass, u))
                occupied += mass / fit_norm
    if occupied <= 0.0:
        raise ValueError("no occupied fault sites")
    norm = fit_norm * occupied
    bw = config.bit_width
    table = SiteProbabilityTable(
        classes=[ProbClass(lid, t, n, mass / (n * norm * bw), u) for lid, t, n, mass, u in found],
        bit_width=bw,
    )
    total = table.total_prob()
    if not abs(total - 1.0) <= 1e-9:
        # finite rates near the float maximum overflow the denominators
        raise ValueError(
            f"site probabilities sum to {total!r}, not 1: raw FIT rates out of range"
        )
    return table


@dataclass
class RAResult:
    ra: float
    sa: float
    components: dict[FFType, float]


_has_accuracy = partial(is_not, None)


def gather_accuracies(
    accuracies: Evaluator,
    sites: Iterable[SoftwareFaultSite],
    count: int,
    site_at: Callable[[int], SoftwareFaultSite],
) -> np.ndarray:
    """A(j) of `count` sites as one float array, asking the evaluator once
    per site, in order. `map`, `takewhile` and `np.fromiter` run the loop in
    C, so the only Python frame per site is the evaluator's, and the values
    stream into the array. The first site with no accuracy (None) stops the
    loop, so no site after it is asked, and raises a ValueError naming it
    (`site_at(i)` rebuilds the i-th site)."""
    a = np.fromiter(takewhile(_has_accuracy, map(accuracies, sites)), dtype=np.float64)
    if len(a) < count:
        raise ValueError(f"no accuracy available for site {site_at(len(a))}")
    return a


def class_accuracies(
    classes: list[ProbClass], bit_width: int, accuracies: Evaluator
) -> list[np.ndarray]:
    """A(j) of every site of `classes`, one (var_count, bit_width) float
    array per class. The evaluator is called once per site, class by class,
    var-major; this is the one place that walks the sites of a table. The
    sites are built lazily from `itertools` columns and go through
    `gather_accuracies`, so no per-site Python frame or object is held."""
    out = []
    for c in classes:
        n = c.var_count * bit_width
        sites = fault_sites(
            repeat(c.layer_id, n), repeat(c.var_type, n),
            chain.from_iterable(map(repeat, range(c.var_count), repeat(bit_width))),
            chain.from_iterable(repeat(range(bit_width), c.var_count)),
        )
        a = gather_accuracies(
            accuracies, sites, n,
            lambda i: SoftwareFaultSite(c.layer_id, c.var_type, *divmod(i, bit_width)),
        )
        out.append(a.reshape(c.var_count, bit_width))
    return out


def sequential_sum(terms: np.ndarray) -> float:
    """Sum from 0.0 in array order, as a running `total += t` does. np.sum
    adds pairwise and differs in the last bits; `add.accumulate` is
    sequential but starts from the first term, and adding it to 0.0 gives
    the sign of zero a sum from 0.0 has."""
    terms = np.ravel(terms)
    return 0.0 + float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def ra_integrand(p, u, a, sa):
    """p(j) * (u * A(j) + (1 - u) * SA), a site's term of RA. RA is
    conditioned on a fault having occurred: a fault on a cell its layer
    leaves idle (chance 1 - u) corrupts nothing, so the run keeps SA. At
    u = 1 this is p(j) * A(j) bit for bit."""
    return p * (u * a + (1.0 - u) * sa)


def ra_from_accuracies(
    table: SiteProbabilityTable, accs: list[np.ndarray], sa: float
) -> RAResult:
    """`ra_expected` over A(j) already gathered by `class_accuracies` for
    the classes of `table`, in its class order."""
    ra = 0.0
    components: dict[FFType, float] = {t: 0.0 for t in FFType}
    for c, a in zip(table.classes, accs, strict=True):
        acc = sequential_sum(ra_integrand(c.per_var_per_bit_prob, c.utilization, a, sa))
        ra += acc
        components[c.var_type] += acc
    return RAResult(ra=ra, sa=sa, components=components)


def ra_expected(table: SiteProbabilityTable, accuracies: Evaluator, sa: float) -> RAResult:
    """Exact expected accuracy under one fault: the sum over sites of
    `ra_integrand`, each class at its utilization in `table`."""
    accs = class_accuracies(table.classes, table.bit_width, accuracies)
    return ra_from_accuracies(table, accs, sa)
