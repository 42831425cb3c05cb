"""The benchmark's metric catalogue, read from ``BENCHMARK.json`` at the
repository root.

``END_TO_END`` is what a user of resacc sees; an untraced run reports all of
it. ``PER_LAYER`` comes from a traced run. ``MOVES`` names, for each
per-layer metric, the end-to-end metrics and workloads it should move, as
written down before any optimisation; ``BENCHMARK.json`` has no key for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


WORKLOADS = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = [Metric(**m) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [Metric(**m) for m in BENCHMARK["per_layer"]]

ORACLE, LIVE, ARCHIVE = "oracle-pool16", "live-lenet", "archive-skew0"
FAULT_PATHS = (
    "fc_weight", "fc_input", "conv_weight", "conv_input", "pool_input",
    "relu_input", "output_act", "local_control", "crash",
)
KERNELS = ("conv2d", "conv2d_elem", "fc", "fc_elem", "maxpool2d")
STRATEGIES = ("uniform", "mac", "is", "is-b")
STUDIES = ("hardening", "fitrate", "methods", "zero_variance")

_ENGINE = (
    ("wall_s", ORACLE), ("samples_per_s", LIVE),
    ("site_eval_ms_p50", LIVE), ("site_eval_ms_p99", LIVE),
)
_KERNEL = (("site_eval_ms_p99", LIVE), ("samples_per_s", LIVE))
_ORACLE = (("wall_s", ORACLE),)
_SAMPLING = (("samples_per_s", ARCHIVE), ("wall_s", ARCHIVE))
_STUDY = (("wall_s", ARCHIVE),)

MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    **{m: _ENGINE for m in (
        "microdnn.accuracy_calls", "microdnn.accuracy_s", "microdnn.us_per_faulty_inference",
        *(f"microdnn.accuracy_s.{p}" for p in FAULT_PATHS),
        *(f"microdnn.accuracy_calls.{p}" for p in FAULT_PATHS),
        "microdnn.clean_forward_us", "microdnn.activation_cache_s",
    )},
    **{f"kernels.{k}_{u}": _KERNEL for k in KERNELS for u in ("calls", "s")},
    "kernels.share": _KERNEL,
    **{m: _ORACLE for m in (
        "oracle.exhaustive_ra_s", "oracle.exhaustive_ra_self_s",
        "oracle.sites_evaluated", "oracle.crash_sites_skipped",
    )},
    **{m: _SAMPLING for m in (
        "estimator.build_pdf_s", "estimator.estimate_ra_s", "estimator.self_us_per_sample",
        "estimator.evaluator_calls", "estimator.fresh_site_ratio",
        *(f"estimator.poc_samples_median.{s}" for s in STRATEGIES),
    )},
    **{m: _STUDY for m in (
        *(f"estimator.study_s.{s}" for s in STUDIES), "estimator.study_evaluator_calls",
        "probtransfer.build_table_s", "probtransfer.ra_expected_calls",
        "probtransfer.ra_expected_s",
    )},
    "profile.derive_profile_s": tuple(("setup_s", w) for w in (ORACLE, LIVE, ARCHIVE)),
    "trace.overhead_s": (),
}
