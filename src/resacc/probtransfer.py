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

Accuracies = Callable[[SoftwareFaultSite], float]


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


def occupied_mass(profile: NetworkProfile, config: AcceleratorConfig) -> float:
    """Fraction of the raw probability mass landing on cells that hold a real
    software variable.

    Layers without weights (pooling, activation-only) leave their share of the
    weight-FF cells unoccupied; a fault there hits nothing. Probabilities are
    conditioned on hitting an occupied site, so this is the normalizer that
    keeps the site probabilities summing to 1. It equals 1 exactly when every
    layer populates every datapath FF type.
    """
    norm = fit_normalization(config)
    mass = 0.0
    for layer in profile.layers:
        lp = layer.mac_count / profile.total_macs
        for t in DATAPATH_TYPES:
            if layer.var_count.get(t, 0) >= 1:
                mass += lp * type_prob(config, t) * config.raw_fit.get(t, 0.0) / norm
    for t in CONTROL_TYPES:
        if profile.control_var_count.get(t, 0) >= 1:
            mass += type_prob(config, t) * config.raw_fit.get(t, 0.0) / norm
    if mass <= 0.0:
        raise ValueError("no occupied fault sites")
    return mass


@dataclass(frozen=True)
class ProbClass:
    """One (layer, type) equivalence class of sites sharing a probability."""

    layer_id: int
    var_type: FFType
    var_count: int
    per_var_per_bit_prob: float

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

    def class_for(self, layer_id: int, var_type: FFType) -> ProbClass:
        for c in self.classes:
            if c.layer_id == layer_id and c.var_type == var_type:
                return c
        raise KeyError(f"no class (layer {layer_id}, {var_type.value})")


def build_table(profile: NetworkProfile, config: AcceleratorConfig) -> SiteProbabilityTable:
    """Closed-form per-(layer, type) probabilities; sums to 1 over all sites."""
    norm = fit_normalization(config) * occupied_mass(profile, config)
    classes: list[ProbClass] = []
    for layer in profile.layers:
        lp = layer.mac_count / profile.total_macs
        for t in DATAPATH_TYPES:
            n = layer.var_count.get(t, 0)
            if n < 1:
                continue
            w = config.raw_fit.get(t, 0.0)
            p = lp * type_prob(config, t) * w / (n * norm * config.bit_width)
            classes.append(ProbClass(layer.layer_id, t, n, p))
    for t in CONTROL_TYPES:
        n = profile.control_var_count.get(t, 0)
        if n < 1:
            continue
        w = config.raw_fit.get(t, 0.0)
        p = type_prob(config, t) * w / (n * norm * config.bit_width)
        classes.append(ProbClass(CONTROL_LAYER, t, n, p))
    if not classes:
        raise ValueError("profile yields no fault-site classes")
    table = SiteProbabilityTable(classes=classes, bit_width=config.bit_width)
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
    accuracies: Accuracies,
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
    classes: list[ProbClass], bit_width: int, accuracies: Accuracies
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


def ra_from_accuracies(
    table: SiteProbabilityTable,
    accs: list[np.ndarray],
    sa: float,
    uf: Callable[[int], float] | None = None,
) -> RAResult:
    """`ra_expected` over A(j) already gathered by `class_accuracies` for
    the classes of `table`, in its class order."""
    ra = 0.0
    components: dict[FFType, float] = {t: 0.0 for t in FFType}
    for c, a in zip(table.classes, accs, strict=True):
        u = 1.0 if uf is None or c.layer_id == CONTROL_LAYER else uf(c.layer_id)
        acc = sequential_sum(c.per_var_per_bit_prob * (u * a + (1.0 - u) * sa))
        ra += acc
        components[c.var_type] += acc
    return RAResult(ra=ra, sa=sa, components=components)


def ra_expected(
    table: SiteProbabilityTable,
    accuracies: Accuracies,
    sa: float,
    uf: Callable[[int], float] | None = None,
) -> RAResult:
    """Exact expected accuracy under one fault: sum over sites of
    p(j) * (UF(j) * A(j) + (1 - UF(j)) * SA).

    `uf` maps a layer id to its utilization; None means fully utilized.
    Control sites always use UF = 1 (control FFs are live for the whole run).
    """
    accs = class_accuracies(table.classes, table.bit_width, accuracies)
    return ra_from_accuracies(table, accs, sa, uf)
