"""Ground-truth generation: exhaustive RA and the cycle-by-FF grid simulator.

The exhaustive oracle enumerates every fault site of a desk-scale network and
evaluates the test-set accuracy under each, yielding the exact expected-value
RA plus a reusable per-site accuracy archive. It collapses equivalent faults,
as fault simulators do (Abramovici, Breuer & Friedman, *Digital Systems
Testing and Testable Design*, ch. 4): a class whose faults the engine runs as
those of an earlier class (``microdnn.repeated_rows``: local control under
TRUE semantics, a ReLU's input) takes that class's rows by one gather
instead of being injected again. The grid simulator drops pins
on a 2-D (flip-flop x cycle) cell grid and checks that empirical class
frequencies match the analytical site probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .microdnn import (
    ActivationCache,
    EvalSet,
    FaultMode,
    FaultSemantics,
    MicroNetwork,
    accuracy,
    make_fault,
    prediction_batches,
    repeated_rows,
)
from .probtransfer import (
    ProbClass,
    RAResult,
    build_table,
    ra_from_accuracies,
    sequential_sum,
)
from .profile import (
    CONTROL_LAYER,
    CONTROL_TYPES,
    DATAPATH_TYPES,
    AcceleratorConfig,
    FFType,
    NetworkProfile,
    SoftwareFaultSite,
)


class ScaleGuardExceeded(RuntimeError):
    """The exhaustive campaign would exceed the configured inference budget."""


@dataclass
class SiteArchive:
    """Per-site accuracies A(j), indexed by (layer, type) -> (var, bit).

    `evaluator` reads one A(j) with `ndarray.item`, which returns the Python
    float straight from the array, with no numpy scalar in between.
    """

    entries: dict[tuple[int, FFType], np.ndarray]
    sa: float
    semantics: FaultSemantics = FaultSemantics.TRUE

    def evaluator(self, site: SoftwareFaultSite) -> float:
        layer_id, var_type, var_index, bit_pos = site
        return self.entries[layer_id, var_type].item(var_index, bit_pos)

    def class_mean(self, layer_id: int, var_type: FFType, bit_pos: int) -> float:
        return float(self.entries[(layer_id, var_type)][:, bit_pos].mean())

    def save(self, path: str | Path) -> None:
        data = {
            f"{lid}|{t.value}": arr for (lid, t), arr in self.entries.items()
        }
        np.savez_compressed(
            path, __sa=np.float64(self.sa),
            __semantics=np.bytes_(self.semantics.value.encode()), **data,
        )

    @classmethod
    def load(cls, path: str | Path) -> "SiteArchive":
        with np.load(path) as z:
            sa = float(z["__sa"])
            semantics = FaultSemantics(bytes(z["__semantics"]).decode())
            entries = {}
            for key in z.files:
                if key.startswith("__"):
                    continue
                lid, tname = key.split("|")
                entries[(int(lid), FFType(tname))] = z[key]
        return cls(entries=entries, sa=sa, semantics=semantics)


def exhaustive_ra(
    profile: NetworkProfile,
    config: AcceleratorConfig,
    net: MicroNetwork,
    evalset: EvalSet,
    semantics: FaultSemantics = FaultSemantics.TRUE,
    max_inferences: int = 10**6,
    progress=None,
) -> tuple[RAResult, SiteArchive]:
    """Evaluate A(j) for every fault site and return the exact RA, weighted
    by the profile's utilization as in `ra_expected`, with the archive of
    every class of the table (:func:`evaluate_classes`, which takes
    `max_inferences` and `progress`)."""
    table = build_table(profile, config)
    archive = evaluate_classes(
        net, evalset, profile, config, table.classes, table.bit_width, semantics,
        max_inferences, progress,
    )
    accs = [archive.entries[(c.layer_id, c.var_type)] for c in table.classes]
    return ra_from_accuracies(table, accs, archive.sa), archive


def evaluate_classes(
    net: MicroNetwork,
    evalset: EvalSet,
    profile: NetworkProfile,
    config: AcceleratorConfig,
    classes: list[ProbClass],
    bit_width: int,
    semantics: FaultSemantics = FaultSemantics.TRUE,
    max_inferences: int = 10**6,
    progress=None,
) -> SiteArchive:
    """A(j) of every site of `classes`, as an archive.

    Each class is evaluated a chunk of variables at a time, over all their
    bits in one batch (`microdnn.prediction_batches`), unless its faults
    repeat those of classes evaluated before it in `classes`
    (`microdnn.repeated_rows`): then its rows are gathered from theirs, bit
    for bit the values an injection gives. A class whose source is missing,
    or comes after it, is injected. `progress`, when given, is called as
    progress(sites_done, sites_total) after each chunk and each gathered
    class, with `sites_done` strictly increasing up to `sites_total`. Crash
    classes cost no inference (their accuracy is 0 by definition), and the
    scale guard counts every other site, gathered ones included. Every class's
    fault is resolved before anything is evaluated, so a class the
    semantics do not model raises at once.
    Raises ScaleGuardExceeded when sites x evalset would exceed
    `max_inferences`.
    """
    faults = [
        make_fault(SoftwareFaultSite(c.layer_id, c.var_type, 0, 0), config, semantics)
        for c in classes
    ]
    live = [(c, f) for c, f in zip(classes, faults)
            if c.var_count and f.mode is not FaultMode.CRASH]
    n_eval_sites = sum(c.var_count for c, _ in live) * bit_width
    if n_eval_sites * evalset.size > max_inferences:
        raise ScaleGuardExceeded(
            f"{n_eval_sites} sites x {evalset.size} inputs exceeds "
            f"budget of {max_inferences} inferences"
        )
    cache = ActivationCache(net, evalset)
    sa = float(np.count_nonzero(cache.preds == evalset.labels) / evalset.size)
    entries = {
        (c.layer_id, c.var_type): np.zeros((c.var_count, bit_width), dtype=np.float64)
        for c in classes
    }
    bits = range(bit_width)
    done, filled = 0, set()

    def step(n_vars):
        nonlocal done
        done += n_vars * bit_width
        if progress is not None:
            progress(done, n_eval_sites)

    for c, fault in live:
        key = (c.layer_id, c.var_type)
        arr = entries[key]
        groups = repeated_rows(net, profile, config, semantics, fault, c.var_count)
        if groups and all(source in filled for source, _, _ in groups):
            for source, positions, rows in groups:
                arr[positions] = entries[source][rows]
            step(c.var_count)
        else:
            batches = prediction_batches(net, fault, profile, cache, bits, np.arange(c.var_count))
            for positions, preds in batches:
                arr[positions] = np.count_nonzero(preds == evalset.labels, axis=2) / evalset.size
                step(len(positions))
        filled.add(key)
    return SiteArchive(entries=entries, sa=sa, semantics=semantics)


def live_evaluator(
    net: MicroNetwork,
    evalset: EvalSet,
    profile: NetworkProfile,
    config: AcceleratorConfig,
    semantics: FaultSemantics = FaultSemantics.TRUE,
):
    """A site -> accuracy callable backed by live fault injection, with the
    clean activations precomputed once. Each call injects anew: the
    estimator asks each site once (``estimator._SiteMemo``)."""
    cache = ActivationCache(net, evalset)

    def evaluate(site: SoftwareFaultSite) -> float:
        return accuracy(net, evalset, make_fault(site, config, semantics), profile, cache)

    return evaluate


# --- grid simulator --------------------------------------------------------

@dataclass
class GridModel:
    """A (flip-flop row) x (cycle column) cell grid.

    Columns are partitioned across layers proportional to MAC counts; control
    rows span every column (a control variable lives in its FF for the whole
    run). A layer's cells are idle with probability (1 - utilization); cells
    of a datapath type a layer owns no variables of are unoccupied.
    """

    profile: NetworkProfile
    config: AcceleratorConfig
    cols: dict[int, int]  # layer_id -> column count
    rows: dict[FFType, int]
    total_cols: int = field(init=False)

    MAX_CELLS = 10**7

    def __post_init__(self):
        self.total_cols = sum(self.cols.values())

    @classmethod
    def build(
        cls,
        profile: NetworkProfile,
        config: AcceleratorConfig,
        target_cols: int = 100_000,
    ) -> "GridModel":
        """Scale columns so the grid stays within MAX_CELLS; a column may
        stand for a block of real cycles, which leaves the probability
        ratios untouched."""
        n_rows = config.total_ffs
        cols_budget = min(target_cols, cls.MAX_CELLS // max(n_rows, 1))
        cols_budget = max(cols_budget, len(profile.layers))
        total = profile.total_macs
        shares = [(l.layer_id, l.mac_count * cols_budget / total) for l in profile.layers]
        cols = {lid: max(int(s), 1) for lid, s in shares}
        # largest-remainder correction toward the exact budget
        remainder = cols_budget - sum(cols.values())
        for lid, s in sorted(shares, key=lambda t: t[1] - int(t[1]), reverse=True):
            if remainder <= 0:
                break
            cols[lid] += 1
            remainder -= 1
        rows = {t: config.ff_count.get(t, 0) for t in FFType}
        return cls(profile=profile, config=config, cols=cols, rows=rows)

    def cell_count(self) -> int:
        dp_rows = sum(self.rows[t] for t in DATAPATH_TYPES)
        ctl_rows = sum(self.rows[t] for t in CONTROL_TYPES)
        return dp_rows * self.total_cols + ctl_rows * self.total_cols


@dataclass
class GridTally:
    counts: dict[tuple[int, FFType], int]
    idle: int
    pins: int

    def occupied_pins(self) -> int:
        return sum(self.counts.values())

    def empirical(self, layer_id: int, var_type: FFType) -> float:
        return self.counts[(layer_id, var_type)] / self.occupied_pins()


def grid_simulate(grid: GridModel, pin_count: int, seed: int) -> GridTally:
    """Drop `pin_count` pins on the grid; pins land on a cell with
    probability proportional to the cell's row's raw FIT weight. Pins on
    idle or unoccupied cells are tallied separately."""
    if pin_count < 1:
        raise ValueError("pin_count must be >= 1")
    if grid.cell_count() <= 0:
        raise ValueError("empty grid")
    weights = grid.config.raw_fit
    # cell mass of a (layer, type) block = rows * cols * weight; None for
    # idle or unoccupied cells
    blocks: list[tuple[tuple[int, FFType] | None, float]] = []
    for layer in grid.profile.layers:
        ncols = grid.cols[layer.layer_id]
        for t in DATAPATH_TYPES:
            w = weights.get(t, 0.0) * grid.rows[t] * ncols
            if w <= 0:
                continue
            if layer.var_count.get(t, 0) >= 1:
                blocks.append(((layer.layer_id, t), w * layer.utilization))
                if layer.utilization < 1.0:
                    blocks.append((None, w * (1.0 - layer.utilization)))
            else:
                blocks.append((None, w))  # unoccupied: no variable lives here
    for t in CONTROL_TYPES:
        w = weights.get(t, 0.0) * grid.rows[t] * grid.total_cols
        if w <= 0:
            continue
        if grid.profile.control_var_count.get(t, 0) >= 1:
            blocks.append(((CONTROL_LAYER, t), w))
        else:
            blocks.append((None, w))
    mass = np.array([w for _, w in blocks], dtype=np.float64)
    mass_total = sequential_sum(mass)
    if mass_total <= 0:
        raise ValueError("grid carries no probability mass")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(pin_count, mass / mass_total)
    counts: dict[tuple[int, FFType], int] = {}
    idle = 0
    for (key, _), n in zip(blocks, draws):
        if key is None:
            idle += int(n)
        else:
            counts[key] = counts.get(key, 0) + int(n)
    return GridTally(counts=counts, idle=idle, pins=pin_count)


def analytical_class_probs(
    profile: NetworkProfile, config: AcceleratorConfig
) -> dict[tuple[int, FFType], float]:
    """Per-(layer, type) total site probability from the analytical table,
    for comparison against grid tallies."""
    table = build_table(profile, config)
    return {
        (c.layer_id, c.var_type): c.total_prob(table.bit_width)
        for c in table.classes
    }
