"""The three workloads: set-up, one timed pass, and the output checks.

A workload is built from its seed, set up (timed separately, several times),
then run pass after pass; passes repeat the same work (live-lenet cycles
through four draws of sites). Calls into resacc go through module attributes
(``oracle.exhaustive_ra``) so that a traced run can wrap them. The A(j)
evaluators handed to resacc are the benchmark's own: they time each request,
which is where ``site_eval_ms_*`` come from, and give ``HostSpeed`` its
chance to sample between requests.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from resacc import estimator, microdnn, oracle, probtransfer
from resacc.formats import NumericFormat
from resacc.microdnn import FaultSemantics
from resacc.profile import FFType, SoftwareFaultSite
from resacc.toynets import make_config

import subjects
from hostspeed import HostSpeed
from metrics import ARCHIVE, LIVE, ORACLE, STRATEGIES

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
SPOT_CHECKS = 8
SAMPLE_SETS = 4  # live-lenet's estimator seeds
POC_SAMPLES = 8192  # one PoC run of archive-skew0: the first batch of a criterion 3/4 run
POC_CAP = 10**6  # criterion 3's cap on a run's samples


class InputMismatch(RuntimeError):
    """A committed input differs from the one the references were made with."""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def result_digest(result: dict) -> str:
    """sha256 of a pass result, to compare traced and untraced runs."""
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassOut:
    """Times are raw, without the reference loop; ``speed`` corrects them,
    and ``HostSpeed.factors(stamps)`` the latencies."""

    wall_s: float  # the whole pass
    sampling_s: float  # inside exhaustive_ra / estimate_ra
    samples: int  # sites of the RA sum accounted for
    site_evals: int  # A(j) values produced
    latencies_s: array  # per site evaluation
    stamps: array  # perf_counter time at the end of each latency
    result: dict  # what must not change between passes or with tracing
    speed: float = 1.0  # HostSpeed factor of the pass
    extra: dict = field(default_factory=dict)  # facts for the per-layer metrics


class TimedEvaluator:
    """Site -> A(j) callable that times every request it forwards and keeps
    every ``stride``-th time."""

    def __init__(self, fn, host: HostSpeed, tracer=None, keep=False, stride=1):
        self.fn = fn if tracer is None else tracer.bind("estimator.evaluator", fn)
        self.host = host
        self.calls = 0
        self.stride = stride
        self.latencies_s = array("d")
        self.stamps = array("d")
        self.values: dict | None = {} if keep else None

    def __call__(self, site: SoftwareFaultSite) -> float:
        t0 = perf_counter()
        a = self.fn(site)
        dt = perf_counter() - t0
        if self.calls % self.stride == 0:
            self.latencies_s.append(dt)
            self.stamps.append(t0 + dt)
        self.calls += 1
        if self.values is not None:
            self.values[site] = a
        self.host.tick()
        return a


class CountingEvaluator:
    """Site -> A(j) callable that counts the requests it forwards."""

    def __init__(self, fn, host: HostSpeed, tracer=None):
        self.fn = fn if tracer is None else tracer.bind("estimator.study_evaluator", fn)
        self.host = host
        self.calls = 0

    def __call__(self, site: SoftwareFaultSite) -> float:
        self.calls += 1
        self.host.tick()
        return self.fn(site)


class ProgressTicks:
    """``exhaustive_ra`` progress hook: per-site time of each variable's sites."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.latencies_s = array("d")
        self.stamps = array("d")
        self.done = 0
        self.total = 0
        self.last = perf_counter()

    def __call__(self, done: int, total: int) -> None:
        now = perf_counter()
        self.latencies_s.append((now - self.last) / (done - self.done))
        self.stamps.append(now)
        self.done, self.total = done, total
        self.host.tick()
        self.last = perf_counter()


def uncached_spot_check(s: subjects.Subject, sites_values, seed: int) -> Check:
    """Recompute A(j) at seeded sites with no activation cache."""
    items = sorted(sites_values, key=lambda kv: (kv[0].layer_id, kv[0].var_type.value,
                                                 kv[0].var_index, kv[0].bit_pos))
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(items), size=min(SPOT_CHECKS, len(items)), replace=False)
    bad = []
    for i in picks:
        site, expect = items[i]
        fault = microdnn.make_fault(site, s.config, FaultSemantics.TRUE)
        got = microdnn.accuracy(s.net, s.evalset, fault, s.profile, cache=None)
        if got != expect:
            bad.append(f"{site}: {got} != {expect}")
    return Check("uncached_spot_check", not bad, f"{len(picks)} sites; mismatches {bad}")


def _z(mean: float, se: float, truth: float) -> float:
    if se > 0.0:
        return abs(mean - truth) / se
    return 0.0 if mean == truth else float("inf")


def _repeatable(outs: list[PassOut]) -> Check:
    """Passes that did the same work gave the same result."""
    first: dict = {}
    for o in outs:
        first.setdefault(o.result.get("sample_seed"), o.result)
    same = all(o.result == first[o.result.get("sample_seed")] for o in outs)
    return Check("same_result_on_repeat", same, f"{len(outs)} passes, {len(first)} distinct")


class Workload:
    name: str

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.host = HostSpeed(active=tracer is None)

    def span(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)


class OraclePool16(Workload):
    name = ORACLE

    def __init__(self, seed: int, tracer=None, n_inputs: int = 40):
        super().__init__(seed, tracer)
        self.n_inputs = n_inputs

    def setup(self) -> None:
        self.subject = subjects.pool16(self.seed, self.n_inputs)

    def run_pass(self) -> PassOut:
        s = self.subject
        ticks = ProgressTicks(self.host)
        mark = self.host.begin()
        t0 = ticks.last = perf_counter()
        result, archive = oracle.exhaustive_ra(
            s.profile, s.config, s.net, s.evalset, FaultSemantics.TRUE, progress=ticks
        )
        spent, speed = self.host.since(mark)
        wall = perf_counter() - t0 - spent
        self.archive = archive
        return PassOut(
            wall_s=wall, sampling_s=wall, samples=s.table.total_sites,
            site_evals=ticks.total, latencies_s=ticks.latencies_s, stamps=ticks.stamps,
            speed=speed,
            result={"ra": result.ra, "archive_digest": subjects.archive_digest(archive)},
            extra={"sites_total": s.table.total_sites},
        )

    def checks(self, outs: list[PassOut]) -> list[Check]:
        s = self.subject
        total = s.table.total_prob()
        evaluated = [
            (SoftwareFaultSite(lid, t, v, b), float(arr[v, b]))
            for (lid, t), arr in self.archive.entries.items()
            if t is not FFType.CONTROL_GLOBAL
            for v in range(arr.shape[0]) for b in range(arr.shape[1])
        ]
        out = [
            Check("probabilities_sum_to_1", abs(total - 1.0) <= 1e-12, f"sum {total!r}"),
            _repeatable(outs),
            uncached_spot_check(s, evaluated, self.seed),
        ]
        if self.seed == DEFAULT_SEED and self.n_inputs == 40:
            ref = load_reference()[ORACLE]
            res = outs[0].result
            digest = res["archive_digest"]
            out.append(Check("reference_archive_digest", digest == ref["archive_digest"], digest))
            out.append(Check("reference_ra", res["ra"] == ref["ra"], repr(res["ra"])))
        return out


class LiveLeNet(Workload):
    """Short passes, each a fresh evaluator and ``samples`` draws, cycling
    through ``SAMPLE_SETS`` fixed estimator seeds; the workload seed drives
    the evalset. Per-evaluation cost is bimodal (conv-layer sites cost about
    four times the rest, and are about half the draws), so the median moves
    by a fifth between one draw of 1,000 sites and another: drawing the same
    sites in every run keeps the work, and the metrics, comparable."""

    name = LIVE

    def __init__(self, seed: int, tracer=None, n_inputs: int = 20, samples: int = 250):
        super().__init__(seed, tracer)
        self.n_inputs = n_inputs
        self.samples = samples
        self.passes = 0

    def setup(self) -> None:
        self.subject = s = subjects.lenet(self.seed, self.n_inputs)
        self.pdf = estimator.build_pdf(
            estimator.SamplingStrategy.IMPORTANCE, s.table, s.profile, sa=s.sa
        )

    def run_pass(self) -> PassOut:
        s = self.subject
        sample_seed = self.passes % SAMPLE_SETS
        self.passes += 1
        mark = self.host.begin()
        t0 = perf_counter()
        ev = TimedEvaluator(
            oracle.live_evaluator(s.net, s.evalset, s.profile, s.config), self.host,
            self.tracer, keep=True,
        )
        t1 = perf_counter()
        est = estimator.estimate_ra(self.pdf, s.table, ev, samples=self.samples, seed=sample_seed)
        t2 = perf_counter()
        spent, speed = self.host.since(mark)
        self.values = ev.values
        return PassOut(
            wall_s=t2 - t0 - spent, sampling_s=t2 - t1 - spent, samples=est.samples_drawn,
            site_evals=ev.calls, latencies_s=ev.latencies_s, stamps=ev.stamps,
            speed=speed,
            result={"sample_seed": sample_seed, "ra_estimate": est.mean},
            extra={"estimator_samples": est.samples_drawn},
        )

    def checks(self, outs: list[PassOut]) -> list[Check]:
        out = [
            _repeatable(outs),
            uncached_spot_check(self.subject, self.values.items(), self.seed),
        ]
        if self.seed == DEFAULT_SEED and (self.n_inputs, self.samples) == (20, 250):
            ref = load_reference()[LIVE]["ra_estimate"]
            got = outs[0].result["ra_estimate"]
            out.append(Check("reference_ra_estimate", got == ref, repr(got)))
        return out


class ArchiveSkew0(Workload):
    """The PoC runs are those of criteria 3/4 on skew0: seeds 0 to
    ``n_seeds - 1``, whatever the workload seed, which drives the
    zero-variance estimate. Their checks are statistical tests that a correct
    estimator fails on some seeds (uniform PoC seed 804 needs 1,755,253
    samples, past ``POC_CAP``; another seed puts an is-b estimate 3.98
    standard errors out), so every run checks the seeds the acceptance
    criteria are stated for.

    Timed PoC runs take a fixed ``POC_SAMPLES`` draws in one batch, the
    draws of the first batch of a criterion 3/4 run, and find the PoC
    afterwards. Letting a run continue until its PoC, as the tests do, makes
    the timed work depend on the seed: 14% of uniform runs need more than one
    batch, a few need 70. The checks run those on to the PoC, untimed."""

    name = ARCHIVE

    def __init__(self, seed: int, tracer=None, n_seeds: int = 15, zv_samples: int = 1000):
        super().__init__(seed, tracer)
        self.poc_seeds = list(range(n_seeds))
        self.zv_samples = zv_samples

    def setup(self) -> None:
        ref = load_reference()["skew0_archive"]
        sha = subjects.file_sha256(subjects.SKEW0_ARCHIVE)
        if sha != ref["sha256"]:
            raise InputMismatch(
                f"{subjects.SKEW0_ARCHIVE.name} sha256 {sha} != {ref['sha256']}; "
                f"regenerate with: {ref['regenerate']}"
            )
        self.archive = oracle.SiteArchive.load(subjects.SKEW0_ARCHIVE)
        self.subject = subjects.skew0()

    def run_pass(self) -> PassOut:
        a, s = self.archive, self.subject
        # About 270,000 lookups a pass: keeping every time would make peak RSS
        # depend on the pass count.
        sampling = TimedEvaluator(a.evaluator, self.host, self.tracer, stride=64)
        study = CountingEvaluator(a.evaluator, self.host, self.tracer)
        mark = self.host.begin()
        t0 = perf_counter()
        truth = probtransfer.ra_expected(s.table, a.evaluator, a.sa).ra
        runs = {}
        sampling_s = 0.0
        for name in STRATEGIES:
            pdf = estimator.build_pdf(estimator.SamplingStrategy(name), s.table, s.profile, sa=a.sa)
            runs[name] = []
            for sd in self.poc_seeds:
                spent_before = self.host.spent
                t = perf_counter()
                est = estimator.estimate_ra(
                    pdf, s.table, sampling, samples=POC_SAMPLES, batch=POC_SAMPLES,
                    criteria=estimator.PoCCriteria(), ground_truth=truth, seed=sd,
                )
                sampling_s += perf_counter() - t - (self.host.spent - spent_before)
                se = float(np.sqrt(est.variance / est.samples_drawn))
                runs[name].append((est.mean, se, est.poc_index))
        with self.span("estimator.study.hardening"):
            hs = estimator.hardening_study(
                s.profile, make_config(NumericFormat.FP16), study, a.sa, hardened_fit=200.0
            )
        with self.span("estimator.study.fitrate"):
            rates = [estimator.fit_sdc_rates(study, s.table, s.config, th, a.sa)
                     for th in (0.2, 0.4)]
        with self.span("estimator.study.methods"):
            methods = (
                estimator.uniform_site_mean(study, s.table, include_control=False),
                estimator.uniform_site_mean(study, s.table, include_control=True),
                estimator.ra_true_nc(s.table, study, a.sa).ra,
            )
        with self.span("estimator.study.zero_variance"):
            zpdf = estimator.build_zero_variance_pdf(s.table, study, a.sa)
            zest = estimator.estimate_ra(
                zpdf, s.table, study, samples=self.zv_samples, seed=self.seed
            )
        spent, speed = self.host.since(mark)
        wall = perf_counter() - t0 - spent
        n_samples = len(STRATEGIES) * len(self.poc_seeds) * POC_SAMPLES
        return PassOut(
            wall_s=wall, sampling_s=sampling_s, samples=n_samples,
            site_evals=sampling.calls, latencies_s=sampling.latencies_s,
            stamps=sampling.stamps, speed=speed,
            result={
                "ra": truth, "archive_digest": subjects.archive_digest(a), "runs": runs,
                "hardening": {k: v.ra for k, v in hs.items()}, "rates": rates,
                "methods": methods, "zero_variance": zest.mean,
            },
            extra={
                "poc": {k: [r[2] for r in v] for k, v in runs.items()},
                "study_evaluator_calls": study.calls,
                "estimator_samples": n_samples + zest.samples_drawn,
            },
        )

    def poc_to_cap(self, strategy: str, seed: int, truth: float) -> int | None:
        """The PoC of one run drawn as criterion 3 draws it."""
        a, s = self.archive, self.subject
        pdf = estimator.build_pdf(estimator.SamplingStrategy(strategy), s.table, s.profile, sa=a.sa)
        return estimator.estimate_ra(
            pdf, s.table, a.evaluator, criteria=estimator.PoCCriteria(), ground_truth=truth,
            seed=seed, max_samples=POC_CAP, batch=POC_SAMPLES,
        ).poc_index

    def checks(self, outs: list[PassOut]) -> list[Check]:
        res = outs[0].result
        truth = res["ra"]
        ref = load_reference()["skew0_archive"]
        out = [
            _repeatable(outs),
            Check("archive_digest", res["archive_digest"] == ref["digest"], res["archive_digest"]),
            Check("archive_sa_matches_context", self.archive.sa == self.subject.sa,
                  f"{self.archive.sa} vs {self.subject.sa}"),
        ]
        for name, runs in res["runs"].items():
            late = [sd for sd, (_, _, poc) in zip(self.poc_seeds, runs) if poc is None]
            pocs = [self.poc_to_cap(name, sd, truth) for sd in late]
            out.append(Check(
                f"poc_reached.{name}", None not in pocs,
                f"{len(runs) - len(late)}/{len(runs)} runs reach PoC within {POC_SAMPLES} "
                f"samples; seeds {late} at {pocs} within {POC_CAP}",
            ))
            worst = max(_z(m, se, truth) for m, se, _ in runs)
            out.append(Check(f"within_4_se.{name}", worst <= 4.0, f"worst |z| {worst:.2f}"))
        zerr = abs(res["zero_variance"] - truth)
        out.append(Check("zero_variance_exact", zerr <= 1e-12, f"|error| {zerr:.1e}"))
        hs = res["hardening"]
        lo, hi = hs["none"], hs["all"]
        bracket = lo < hi and all(lo - 1e-12 <= hs[t.value] <= hi + 1e-12 for t in FFType)
        out.append(Check("hardening_brackets", bracket, f"none {lo:.6f} all {hi:.6f}"))
        return out


WORKLOAD_TYPES = {w.name: w for w in (OraclePool16, LiveLeNet, ArchiveSkew0)}
