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
from typing import Callable

import numpy as np

from .profile import (
    CONTROL_LAYER,
    CONTROL_TYPES,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
)

Accuracies = Callable[[SoftwareFaultSite], float]


def layer_prob(profile: NetworkProfile, layer_id: int) -> float:
    """Share of execution time (cells) owned by a layer; control pseudo-layer
    spans the full run and gets 1."""
    if layer_id == CONTROL_LAYER:
        return 1.0
    return profile.layer(layer_id).mac_count / profile.total_macs


def type_prob(config: AcceleratorConfig, t: FFType) -> float:
    total = config.total_ffs
    if total <= 0:
        raise ValueError("config has no flip-flops")
    return config.ff_count.get(t, 0) / total


def var_prob(profile: NetworkProfile, layer_id: int, t: FFType) -> float:
    n = profile.var_count(layer_id, t)
    if n < 1:
        raise ValueError(f"layer {layer_id} has no variables of type {t.value}")
    return 1.0 / n


def fit_normalization(config: AcceleratorConfig, avf_mode: bool = False) -> float:
    """Sum over types of TP(t) * rawFIT(t); the denominator of the per-cell
    fault probability. In AVF mode raw FIT rates are ignored (all 1)."""
    total = 0.0
    for t in FFType:
        w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
        total += type_prob(config, t) * w
    if total <= 0.0:
        raise ValueError("all raw FIT rates are zero")
    return total


def occupied_mass(
    profile: NetworkProfile, config: AcceleratorConfig, avf_mode: bool = False
) -> float:
    """Fraction of the raw probability mass landing on cells that hold a real
    software variable.

    Layers without weights (pooling, activation-only) leave their share of the
    weight-FF cells unoccupied; a fault there hits nothing. Probabilities are
    conditioned on hitting an occupied site, so this is the normalizer that
    keeps the site probabilities summing to 1. It equals 1 exactly when every
    layer populates every datapath FF type.
    """
    norm = fit_normalization(config, avf_mode)
    mass = 0.0
    for layer in profile.layers:
        lp = layer.mac_count / profile.total_macs
        for t in DATAPATH_TYPES:
            if layer.var_count.get(t, 0) >= 1:
                w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
                mass += lp * type_prob(config, t) * w / norm
    for t in CONTROL_TYPES:
        if profile.control_var_count.get(t, 0) >= 1:
            w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
            mass += type_prob(config, t) * w / norm
    if mass <= 0.0:
        raise ValueError("no occupied fault sites")
    return mass


def cell_fault_prob(
    config: AcceleratorConfig, t: FFType, cell_count: float, avf_mode: bool = False
) -> float:
    """Probability that one specific cell of type t receives the fault."""
    if cell_count <= 0:
        raise ValueError("cell_count must be positive")
    w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
    return w / (cell_count * fit_normalization(config, avf_mode))


def site_prob(
    profile: NetworkProfile,
    config: AcceleratorConfig,
    site: SoftwareFaultSite,
    cell_count: float = 1.0,
    avf_mode: bool = False,
) -> float:
    """Probability of one software fault site. The conceptual cell count
    cancels algebraically, so any positive value gives the same result."""
    if not 0 <= site.bit_pos < config.bit_width:
        raise ValueError(f"bit_pos {site.bit_pos} out of range")
    n_vars = profile.var_count(site.layer_id, site.var_type)
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
        * cell_fault_prob(config, site.var_type, cell_count, avf_mode)
        / (config.bit_width * occupied_mass(profile, config, avf_mode))
    )


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
    normalization: float  # sum of TP(t) * rawFIT(t)
    cell_count: float = 1.0  # conceptual M; probabilities do not depend on it

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

    def prob(self, site: SoftwareFaultSite) -> float:
        return self.class_for(site.layer_id, site.var_type).per_var_per_bit_prob


def build_table(
    profile: NetworkProfile, config: AcceleratorConfig, avf_mode: bool = False
) -> SiteProbabilityTable:
    """Closed-form per-(layer, type) probabilities; sums to 1 over all sites."""
    norm = fit_normalization(config, avf_mode) * occupied_mass(profile, config, avf_mode)
    classes: list[ProbClass] = []
    for layer in profile.layers:
        lp = layer.mac_count / profile.total_macs
        for t in DATAPATH_TYPES:
            n = layer.var_count.get(t, 0)
            if n < 1:
                continue
            w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
            p = lp * type_prob(config, t) * w / (n * norm * config.bit_width)
            classes.append(ProbClass(layer.layer_id, t, n, p))
    for t in CONTROL_TYPES:
        n = profile.control_var_count.get(t, 0)
        if n < 1:
            continue
        w = 1.0 if avf_mode else config.raw_fit.get(t, 0.0)
        p = type_prob(config, t) * w / (n * norm * config.bit_width)
        classes.append(ProbClass(CONTROL_LAYER, t, n, p))
    if not classes:
        raise ValueError("profile yields no fault-site classes")
    return SiteProbabilityTable(
        classes=classes, bit_width=config.bit_width, normalization=norm
    )


@dataclass
class RAResult:
    ra: float
    sa: float
    components: dict[FFType, float]


def _site_accuracies(c: ProbClass, bit_width: int, accuracies: Accuracies):
    for v in range(c.var_count):
        for b in range(bit_width):
            site = SoftwareFaultSite(c.layer_id, c.var_type, v, b)
            a = accuracies(site)
            if a is None:
                raise ValueError(f"no accuracy available for site {site}")
            yield a


def class_accuracies(
    classes: list[ProbClass], bit_width: int, accuracies: Accuracies
) -> list[np.ndarray]:
    """A(j) of every site of `classes`, one (var_count, bit_width) float
    array per class. The evaluator is called once per site, class by class,
    var-major; this is the one place that walks the sites of a table. The
    values stream into the array, so no per-site objects are held."""
    return [
        np.fromiter(
            _site_accuracies(c, bit_width, accuracies), dtype=np.float64,
            count=c.var_count * bit_width,
        ).reshape(c.var_count, bit_width)
        for c in classes
    ]


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
