"""Run one resacc benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload oracle-pool16 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

A run sets the workload up 31 times (``setup_s`` is the median), then
repeats its timed pass while the next pass is expected to end within
``--seconds``, then checks the outputs. ``--trace 0`` reports the end-to-end
metrics, with times corrected for the speed of a shared host (``hostspeed``);
``--trace 1`` reports the per-layer ones from spans around the calls into
each resacc module. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every pass ran and every check held, 1 otherwise, and 2 (with no result)
when the inputs are missing or do not match their committed sha256.
"""

from __future__ import annotations

import bench_env  # first: pins BLAS threads before numpy loads

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SETUP_REPS = 31


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description="resacc benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy's bundled OpenBLAS is found."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy
    from resacc import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": kernels.HAVE_NUMBA,
        "blas_threads": blas_threads(),
        "blas_threads_requested": bench_env.BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(wl, seconds: float, tracer):
    mark = wl.host.begin()
    setup_s = []
    for _ in range(SETUP_REPS):
        wl.host.begin()
        t0 = perf_counter()
        wl.setup()
        setup_s.append(perf_counter() - t0)
    wl.host.begin()
    _, setup_speed = wl.host.since(mark)
    setup_stats = {}
    if tracer is not None:
        setup_stats = dict(tracer.stats)
        tracer.reset()
    outs, errors = [], 0
    start = perf_counter()
    while True:
        try:
            outs.append(wl.run_pass())
        except Exception:
            traceback.print_exc()
            errors += 1
            break
        typical = statistics.median(o.wall_s for o in outs)
        if perf_counter() - start + typical > seconds:
            break
    return setup_s, setup_speed, setup_stats, outs, errors


def end_to_end(setup_s: list[float], setup_speed: float, outs, host, corrected: bool = True
               ) -> dict[str, float]:
    """The END_TO_END metrics, with times scaled by each pass's HostSpeed
    factor, and latencies by the factor around each, unless ``corrected`` is
    false."""
    import numpy as np

    def med(values):
        return float(statistics.median(values))

    def speed(o):
        return o.speed if corrected else 1.0

    # Passes that repeat the same work time the same requests in the same
    # order: take each request's median over its repeats, which drops the
    # slow spells of a shared host, then the percentiles over requests.
    repeats: dict = {}
    for o in outs:
        repeats.setdefault(o.result.get("sample_seed"), []).append(
            np.frombuffer(o.latencies_s) * (host.factors(o.stamps) if corrected else 1.0))
    latencies = np.concatenate([np.median(np.stack(r), axis=0) for r in repeats.values()])
    return {
        "setup_s": med(setup_s) * (setup_speed if corrected else 1.0),
        "wall_s": med(o.wall_s * speed(o) for o in outs),
        "samples_per_s": med(o.samples / (o.sampling_s * speed(o)) for o in outs),
        "site_evals_per_s": med(o.site_evals / (o.sampling_s * speed(o)) for o in outs),
        "site_eval_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
        "site_eval_ms_p99": 1e3 * float(np.percentile(latencies, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    out = {}
    for name, value in metrics.items():
        if value is None or not math.isfinite(value):
            out[name] = {"value": None, "unit": units[name], "missing": True}
        else:
            out[name] = {"value": value, "unit": units[name]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": out})


@dataclass
class Report:
    setup_s: list
    setup_speed: float
    outs: list
    checks: list
    attempted: int
    failed: int
    catalog: list
    values: dict
    raw: dict  # end-to-end values without the host-speed correction

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.outs)

    def line(self) -> str:
        return result_line(self.correct, self.attempted, self.failed, self.values,
                           {m.name: m.unit for m in self.catalog})


def run_workload(wl, seconds: float, tracer=None) -> Report:
    """Set up, run passes for about ``seconds``, check, and compute the
    end-to-end metrics (untraced) or per-layer metrics (traced)."""
    import instrument
    import metrics as catalogue
    import workloads

    setup_s, setup_speed, setup_stats, outs, errors = measure(wl, seconds, tracer)
    if tracer is not None:
        tracer.unwrap_all()
    # Before the checks, which may continue PoC runs far past the timed ones:
    # peak RSS is that of the timed work.
    values = raw = {}
    if tracer is None and outs:
        values = end_to_end(setup_s, setup_speed, outs, wl.host)
        raw = end_to_end(setup_s, setup_speed, outs, wl.host, corrected=False)
    checks = []
    if outs:
        try:
            checks = wl.checks(outs)
        except Exception:
            traceback.print_exc()
            checks = [workloads.Check("checks_ran", False, "raised")]
    catalog = catalogue.END_TO_END
    if tracer is not None:
        catalog = catalogue.PER_LAYER
        values = instrument.per_layer(
            tracer, setup_stats, len(setup_s), outs, wl.subject, tracer.per_span_overhead_s()
        ) if outs else {}
    return Report(
        setup_s=setup_s, setup_speed=setup_speed, outs=outs, checks=checks,
        attempted=len(outs) + errors + len(checks),
        failed=errors + sum(not c.ok for c in checks),
        catalog=catalog, values=values, raw=raw,
    )


def run_one(args) -> int:
    import instrument
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument.install(tracer)
    wl = workloads.WORKLOAD_TYPES[args.workload](args.seed, tracer)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(fingerprint()))
    try:
        r = run_workload(wl, args.seconds, tracer)
    except workloads.InputMismatch as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for c in r.checks:
        print(f"check {c.name} {'PASS' if c.ok else 'FAIL'} {c.detail}")
    if r.outs:
        res = r.outs[0].result
        print(f"result ra {res.get('ra', res.get('ra_estimate'))!r} "
              f"archive_digest {res.get('archive_digest')} "
              f"results_sha256 {workloads.result_digest(res)}")
    print(f"passes {len(r.outs)} setups {len(r.setup_s)} "
          f"site_evals_per_pass {[o.site_evals for o in r.outs]} "
          f"latency_samples_per_pass {[len(o.latencies_s) for o in r.outs]}")
    print(f"error_rate {r.failed}/{r.attempted} = {r.failed / r.attempted}")
    if r.raw:
        print(f"host_speed setup {r.setup_speed} passes {[o.speed for o in r.outs]}")
        for name, value in r.raw.items():
            print(f"raw {name} {value}")
    for m in r.catalog:
        if m.name in r.values:
            print(f"metric {m.name} {r.values[m.name]} {m.unit}")
    print(r.line())
    return 0 if r.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import metrics as catalogue

    merged, attempted, failed, correct, units = {}, 0, 0, True, {}
    for name in catalogue.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return 2
        try:
            res = json.loads(lines[-1])
        except ValueError:
            print(f"run.py: {name} printed no result", file=sys.stderr)
            return 1
        correct = correct and res["correct"] and proc.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            merged[f"{name}.{metric}"] = v["value"]
            units[f"{name}.{metric}"] = v["unit"]
    print(result_line(correct, attempted, failed, merged, units))
    return 0 if correct else 1


def main(argv=None) -> int:
    try:
        bench_env.require_source()
    except bench_env.MissingSource as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    import metrics

    args = parse_args(argv, metrics.WORKLOADS)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
