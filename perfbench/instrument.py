"""Which resacc entry points a traced run wraps, and the per-layer metrics
computed from the spans they record."""

from __future__ import annotations

import statistics
from time import perf_counter

from resacc import microdnn
from resacc.microdnn import FC, Conv2D, FaultMode, MaxPool2D, MicroNetwork, ReLU
from resacc.profile import FFType

from metrics import FAULT_PATHS, KERNELS, PER_LAYER, STRATEGIES, STUDIES
from spans import Tracer

ACCURACY = "microdnn.accuracy"
_KIND = {Conv2D: "conv", FC: "fc", MaxPool2D: "pool", ReLU: "relu"}


def fault_path(net, profile, fault) -> str:
    if fault is None:
        return "clean"
    if fault.mode is FaultMode.CRASH:
        return "crash"
    t = fault.site.var_type
    if t is FFType.CONTROL_LOCAL:
        return "local_control"
    if t is FFType.OUTPUT_ACTIVATION:
        return "output_act"
    layer = net.layers[profile.layer(fault.site.layer_id).net_index]
    return f"{_KIND[type(layer)]}_{'weight' if t is FFType.WEIGHT else 'input'}"


def install(tracer: Tracer) -> None:
    def accuracy_span(args, kwargs) -> str:
        bound = dict(zip(("net", "evalset", "fault", "profile"), args), **kwargs)
        fault = bound.get("fault")
        path = fault_path(bound["net"], bound.get("profile"), fault)
        if path not in ("clean", "crash"):
            key = "local_control" if path == "local_control" else (
                bound["profile"].layer(fault.site.layer_id).net_index)
            tracer.counts[("inferences", key)] += bound["evalset"].size
        return f"{ACCURACY}.{path}"

    tracer.wrap("resacc.profile.derive_profile")
    tracer.wrap("resacc.probtransfer.build_table")
    tracer.wrap("resacc.probtransfer.ra_expected")
    tracer.wrap("resacc.microdnn.accuracy", name=ACCURACY, namer=accuracy_span)
    tracer.wrap("resacc.microdnn.ActivationCache")
    for k in KERNELS:
        tracer.wrap(f"resacc.kernels.{k}")
    tracer.wrap("resacc.oracle.exhaustive_ra")
    tracer.wrap("resacc.estimator.build_pdf")
    tracer.wrap("resacc.estimator.estimate_ra")


def clean_forward_us(subject, counts: dict) -> float:
    """Mean cost of propagating one input from just after the faulted layer
    to the output with no fault, weighted by where the run's faults were.
    Local-control faults land on a weight chosen by hash, so they are spread
    over the weight layers by weight count."""
    net = subject.net
    weights = {k: n for (tag, k), n in counts.items()
               if tag == "inferences" and k != "local_control"}
    local = counts.get(("inferences", "local_control"), 0)
    if local:
        sizes = {i: l.weight.size for i, l in enumerate(net.layers) if hasattr(l, "weight")}
        total = sum(sizes.values())
        for i, size in sizes.items():
            weights[i] = weights.get(i, 0) + local * size / total
    if not weights:
        return 0.0
    acts = [microdnn.clean_activations(net, x) for x in subject.evalset.inputs]
    cost = {}
    for k in weights:
        suffix = MicroNetwork(net.layers[k + 1:], net.output_shape_of(k), net.numeric_format)
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            for a in acts:
                microdnn.forward(suffix, a[k + 1])
            best = min(best, (perf_counter() - t0) / len(acts))
        cost[k] = best
    return 1e6 * sum(cost[k] * w for k, w in weights.items()) / sum(weights.values())


def per_layer(tracer: Tracer, setup_stats: dict, n_setups: int, outs: list, subject,
              span_overhead_s: float) -> dict[str, float | None]:
    """Every PER_LAYER metric, per pass (set-up metrics per set-up); None
    where a span it needs could not be installed."""
    n = len(outs)
    st, below = tracer.stats, tracer.below
    values: dict[str, float | None] = {}

    def put(metric: str, value: float, *needs: str) -> None:
        values[metric] = None if any(s in tracer.missing for s in needs) else value

    def calls(name):
        return st[name][0] if name in st else 0

    def total(name):
        return st[name][1] if name in st else 0.0

    def pair(parent, child, i):
        return below[(parent, child)][i] if (parent, child) in below else 0

    acc = {p: f"{ACCURACY}.{p}" for p in FAULT_PATHS}
    acc_calls = sum(calls(a) for a in acc.values())
    acc_s = sum(total(a) for a in acc.values())
    put("microdnn.accuracy_calls", acc_calls / n, ACCURACY)
    put("microdnn.accuracy_s", acc_s / n, ACCURACY)
    inferences = sum(v for (tag, _), v in tracer.counts.items() if tag == "inferences")
    injected_s = acc_s - total(acc["crash"])
    put("microdnn.us_per_faulty_inference", 1e6 * injected_s / inferences if inferences else 0.0,
        ACCURACY)
    for p, a in acc.items():
        put(f"microdnn.accuracy_s.{p}", total(a) / n, ACCURACY)
    for p, a in acc.items():
        put(f"microdnn.accuracy_calls.{p}", calls(a) / n, ACCURACY)
    put("microdnn.clean_forward_us", clean_forward_us(subject, tracer.counts), ACCURACY)
    put("microdnn.activation_cache_s", total("microdnn.ActivationCache") / n,
        "microdnn.ActivationCache")

    kernel_in_acc = 0.0
    for k in KERNELS:
        name = f"kernels.{k}"
        put(f"kernels.{k}_calls", calls(name) / n, name)
        put(f"kernels.{k}_s", total(name) / n, name)
        kernel_in_acc += sum(pair(a, name, 1) for a in acc.values())
    put("kernels.share", kernel_in_acc / acc_s if acc_s else 0.0,
        ACCURACY, *(f"kernels.{k}" for k in KERNELS))

    ora = "oracle.exhaustive_ra"
    in_ora = [pair(ora, a, 1) for a in (*acc.values(), f"{ACCURACY}.clean")]
    evaluated = sum(pair(ora, a, 0) for a in acc.values())
    sites_total = sum(o.extra.get("sites_total", 0) for o in outs)
    put("oracle.exhaustive_ra_s", total(ora) / n, ora)
    put("oracle.exhaustive_ra_self_s", (total(ora) - sum(in_ora)) / n, ora, ACCURACY)
    put("oracle.sites_evaluated", evaluated / n, ora, ACCURACY)
    put("oracle.crash_sites_skipped", (sites_total - evaluated) / n if sites_total else 0.0,
        ora, ACCURACY)

    est = "estimator.estimate_ra"
    samples = sum(o.extra.get("estimator_samples", 0) for o in outs)
    ev_calls = pair(est, "estimator.evaluator", 0)
    est_self = st[est][1] - st[est][2] if est in st else 0.0
    put("estimator.build_pdf_s", total("estimator.build_pdf") / n, "estimator.build_pdf")
    put("estimator.estimate_ra_s", total(est) / n, est)
    put("estimator.self_us_per_sample", 1e6 * est_self / samples if samples else 0.0, est)
    put("estimator.evaluator_calls", ev_calls / n, est)
    put("estimator.fresh_site_ratio", ev_calls / samples if samples else 0.0, est)
    for s in STRATEGIES:
        pocs = [p if p is not None else float("inf")
                for o in outs for p in o.extra.get("poc", {}).get(s, [])]
        put(f"estimator.poc_samples_median.{s}", float(statistics.median(pocs)) if pocs else 0.0)
    for s in STUDIES:
        put(f"estimator.study_s.{s}", total(f"estimator.study.{s}") / n)
    put("estimator.study_evaluator_calls",
        sum(o.extra.get("study_evaluator_calls", 0) for o in outs) / n)

    put("probtransfer.build_table_s", total("probtransfer.build_table") / n,
        "probtransfer.build_table")
    put("probtransfer.ra_expected_calls", calls("probtransfer.ra_expected") / n,
        "probtransfer.ra_expected")
    put("probtransfer.ra_expected_s", total("probtransfer.ra_expected") / n,
        "probtransfer.ra_expected")
    derive = setup_stats.get("profile.derive_profile", [0, 0.0, 0.0])
    put("profile.derive_profile_s", derive[1] / n_setups, "profile.derive_profile")
    put("trace.overhead_s", tracer.spans * span_overhead_s / n)

    assert list(values) == [m.name for m in PER_LAYER], "per-layer catalogue out of step"
    return values
