"""Command-line entry point for reproducible RA experiments.

Subcommands: profile, probs, estimate, compare, oracle, gridsim, study.
Every output CSV opens with a comment line carrying a schema tag, the hash
of the run inputs, and the seed, so identical runs produce byte-identical
files. Exit codes: 0 success, 1 usage error, 2 validation failure, 3 scale
guard exceeded.

``compare`` is ``estimate --poc`` over lists of strategies and seeds, plus
median rows, through one driver. ``study`` runs the TRUE oracle once;
``study methods`` takes RA_SW from the batched engine under the scale guard.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from .container import ContainerError, load_evalset, load_network
from .estimator import (
    PoCCriteria,
    SamplingStrategy,
    build_pdf,
    estimate_ra,
    fit_sdc_rates,
    hardening_study,
    ra_true_nc,
    uniform_site_mean,
)
from .microdnn import FaultSemantics, accuracy
from .oracle import (
    GridModel,
    ScaleGuardExceeded,
    analytical_class_probs,
    evaluate_classes,
    exhaustive_ra,
    grid_simulate,
    live_evaluator,
)
from .probtransfer import build_table
from .profile import (
    CONTROL_LAYER,
    AcceleratorConfig,
    FFType,
    config_from_text,
    derive_profile,
    profile_to_text,
    validate_profile,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SCALE = 3

CSV_VERSION = "v1"


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- output plumbing -------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


class RunOutputs:
    """Tracks files written by one run so a failure leaves nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def write_csv(self, name: str, schema: str, rows, spec_hash: str, seed) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        lines = [f"# resacc-csv {CSV_VERSION} schema={schema} spec={spec_hash} seed={seed}"]
        lines.append(schema)
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
        self.written.append(path)
        return path

    def track(self, path: Path):
        self.written.append(path)

    def discard_all(self):
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


PROGRESS_INTERVAL_S = 2.0  # least time between two oracle progress lines


class OracleProgress:
    """``exhaustive_ra`` progress hook: a ``sites done / total`` line with an
    ETA on stderr, at most one every PROGRESS_INTERVAL_S, and always the
    last. Nothing of it reaches stdout or the output directory."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.start = self.shown = clock()

    def __call__(self, done: int, total: int) -> None:
        now = self.clock()
        if done < total and now - self.shown < PROGRESS_INTERVAL_S:
            return
        self.shown = now
        eta = (now - self.start) * (total - done) / done
        print(f"oracle: {done}/{total} sites ({100 * done / total:.0f}%), "
              f"eta {eta:.0f} s", file=sys.stderr)


def read_csv(path: str | Path, schema: str) -> list[list[str]]:
    """Read a resacc CSV, enforcing the schema line (mismatch is an error,
    never silent coercion)."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# resacc-csv"):
        raise ValidationError(f"{path}: not a resacc CSV")
    if lines[1] != schema:
        raise ValidationError(f"{path}: schema {lines[1]!r} != expected {schema!r}")
    return [line.split(",") for line in lines[2:] if line]


def _spec_hash(paths: list[Path], extra: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    h.update(extra.encode())
    return h.hexdigest()[:12]


# --- input loading ---------------------------------------------------------

def _load_config(path: str) -> AcceleratorConfig:
    try:
        return config_from_text(Path(path).read_text())
    except (OSError, ValueError, KeyError, OverflowError) as e:
        raise ValidationError(f"config {path}: {e}") from e


def _load_net(path: str):
    try:
        return load_network(path)
    except (OSError, ContainerError) as e:
        raise ValidationError(f"network {path}: {e}") from e


def _load_eval(path: str, net):
    try:
        evalset, fmt = load_evalset(path)
    except (OSError, ContainerError) as e:
        raise ValidationError(f"evalset {path}: {e}") from e
    if fmt is not net.numeric_format:
        raise ValidationError(
            f"evalset format {fmt.name} != network format {net.numeric_format.name}"
        )
    return evalset


def _parse_utilization(text: str | None) -> dict[int, float] | None:
    if not text:
        return None
    try:
        pairs = [(int(lid), float(frac)) for lid, frac in (p.split("=") for p in text.split(","))]
    except ValueError as e:
        raise ValidationError(f"bad --utilization {text!r}: {e}") from e
    out = dict(pairs)
    if len(out) < len(pairs):
        raise ValidationError(f"bad --utilization {text!r}: a layer id repeats")
    for lid, frac in out.items():
        if not 0.0 < frac <= 1.0:
            raise ValidationError(f"utilization for layer {lid} must be in (0, 1]")
    return out


def _apply_harden(config: AcceleratorConfig, args) -> AcceleratorConfig:
    fit = args.harden_fit
    if not (math.isfinite(fit) and fit >= 0):
        # also the rate `study --study harden` lowers each type to
        raise ValidationError(f"--harden-fit {fit!r} must be finite and >= 0")
    if not args.harden:
        return config
    return config.with_raw_fit({FFType(args.harden): fit})  # a choice of the parser


def _build_context(args, need_evalset: bool):
    config = _load_config(args.config)
    net = _load_net(args.network)
    if config.numeric_format is not net.numeric_format:
        # the sites would span the config's bit width, not the network's
        raise ValidationError(
            f"config format {config.numeric_format.name} != "
            f"network format {net.numeric_format.name}"
        )
    config = _apply_harden(config, args)
    util = _parse_utilization(getattr(args, "utilization", None))
    profile = derive_profile(net, config, utilization=util)
    problems = validate_profile(profile, config)
    if problems:
        raise ValidationError("; ".join(problems))
    evalset = _load_eval(args.evalset, net) if need_evalset else None
    return config, net, profile, evalset


def _hash_for(args, need_evalset: bool) -> str:
    paths = [Path(args.config), Path(args.network)]
    if need_evalset:
        paths.append(Path(args.evalset))
    # The input files count by their bytes, not by the paths that name them.
    extra = repr(sorted(
        (k, v) for k, v in vars(args).items()
        if k not in ("func", "out", "config", "network", "evalset")
    ))
    return _spec_hash(paths, extra)


def _semantics(args, table) -> FaultSemantics:
    """The fault semantics ``args`` ask for. SW semantics do not model
    control sites, so a table that holds any is rejected before anything
    is evaluated, not when the first one is drawn."""
    if args.semantics == "true":
        return FaultSemantics.TRUE
    if any(c.layer_id == CONTROL_LAYER for c in table.classes):
        raise ValidationError("--semantics sw needs a config with no control FFs")
    return FaultSemantics.SW


# --- subcommands -----------------------------------------------------------

def cmd_profile(args, out: RunOutputs) -> int:
    config, net, profile, _ = _build_context(args, need_evalset=False)
    out.out_dir.mkdir(parents=True, exist_ok=True)
    path = out.out_dir / "profile.txt"
    path.write_text(profile_to_text(profile))
    out.track(path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_probs(args, out: RunOutputs) -> int:
    config, net, profile, _ = _build_context(args, need_evalset=False)
    table = build_table(profile, config)
    rows = [
        (c.layer_id, c.var_type.value, c.per_var_per_bit_prob,
         c.total_prob(table.bit_width))
        for c in table.classes
    ]
    out.write_csv(
        "probs.csv",
        "layer_id,var_type,per_var_per_bit_prob,class_total_prob",
        rows,
        _hash_for(args, need_evalset=False),
        args.seed,
    )
    print(f"wrote {out.out_dir / 'probs.csv'}")
    return EXIT_OK


def _trace_rows(est):
    c = est.contribs
    n = len(c)
    idx = np.arange(1, n + 1)
    sq = np.cumsum(c * c)
    mean = est.trace
    var = np.zeros(n)
    if n > 1:
        var[1:] = np.maximum(sq[1:] - idx[1:] * mean[1:] ** 2, 0.0) / (idx[1:] - 1)
    return [(int(i), float(m), float(v)) for i, m, v in zip(idx, mean, var)]


def _at_least_one(**counts) -> None:
    for name, count in counts.items():
        if count is not None and count < 1:
            raise ValidationError(f"{name} = {count} must be at least 1")


def _distinct(option: str, values: list) -> None:
    repeated = sorted({str(v) for v in values if values.count(v) > 1})
    if repeated:
        raise UsageError(f"{option} repeats {','.join(repeated)}")


def _estimate(args, out: RunOutputs, strategies, seeds, medians: bool = False):
    """One ``estimate_ra`` per (strategy, seed), each strategy's PDF built
    once: a fixed-budget run over live injection or, with --poc, a run to
    the point of convergence over the exhaustive oracle's archive. The PDFs
    and the convergence test are built first, so a bad argument costs no
    oracle run. Writes each trace and ``summary.csv``, with each strategy's
    median row if ``medians``; returns the exhaustive RA (None without
    --poc) and the estimates."""
    _at_least_one(samples=args.samples, max_samples=args.max_samples)
    config, net, profile, evalset = _build_context(args, need_evalset=True)
    table = build_table(profile, config)
    semantics = _semantics(args, table)
    sa = accuracy(net, evalset, None, profile)
    spec_hash = _hash_for(args, need_evalset=True)
    pdfs = [build_pdf(s, table, profile, sa=sa) for s in strategies]
    truth, budget = None, {"samples": args.samples}
    if args.poc:
        criteria = PoCCriteria(mean_tol=args.threshold)
        result, archive = exhaustive_ra(profile, config, net, evalset, semantics)
        truth, evaluator = result.ra, archive.evaluator
        budget = {"criteria": criteria, "ground_truth": truth, "max_samples": args.max_samples}
    else:
        evaluator = live_evaluator(net, evalset, profile, config, semantics)
    rows, median_rows, ests = [], [], []
    for strategy, pdf in zip(strategies, pdfs):
        runs = [estimate_ra(pdf, table, evaluator, seed=s, sa=sa, **budget) for s in seeds]
        for seed, est in zip(seeds, runs):
            out.write_csv(f"trace_{strategy.value}_seed{seed}.csv",
                          "sample_index,running_mean,running_variance",
                          _trace_rows(est), spec_hash, seed)
            rows.append((strategy.value, seed, est.mean,
                         est.poc_index if est.poc_index is not None else ""))
        pocs = [e.poc_index for e in runs if e.poc_index is not None]
        median_rows.append((strategy.value, "median", float(np.median([e.mean for e in runs])),
                            float(np.median(pocs)) if pocs else ""))
        ests += runs
    out.write_csv("summary.csv", "strategy,seed,ra,samples_to_poc",
                  rows + (median_rows if medians else []), spec_hash, args.seed)
    return truth, ests


def cmd_estimate(args, out: RunOutputs) -> int:
    if args.samples is None and not args.poc:
        raise UsageError("need --samples K or --poc")
    if args.samples is not None and args.poc:
        raise UsageError("--samples budgets a run without --poc; --max-samples caps a --poc run")
    _, (est,) = _estimate(args, out, [SamplingStrategy(args.strategy)], [args.seed])
    print(f"strategy={args.strategy} seed={args.seed} ra={est.mean!r} "
          f"samples={est.samples_drawn} poc={est.poc_index}")
    return EXIT_OK


def cmd_compare(args, out: RunOutputs) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    if not seeds:
        raise UsageError("--seeds must name at least one seed")
    strategies = [SamplingStrategy(s) for s in args.strategies.split(",")]
    # A repeat would overwrite its own trace and count twice in the medians.
    _distinct("--seeds", seeds)
    _distinct("--strategies", [s.value for s in strategies])
    truth, _ = _estimate(args, out, strategies, seeds, medians=True)
    print(f"exhaustive ra={truth!r}; wrote {len(strategies) * len(seeds)} traces")
    return EXIT_OK


def cmd_oracle(args, out: RunOutputs) -> int:
    _at_least_one(max_inferences=args.max_inferences)
    config, net, profile, evalset = _build_context(args, need_evalset=True)
    table = build_table(profile, config)
    semantics = _semantics(args, table)
    spec_hash = _hash_for(args, need_evalset=True)
    result, archive = exhaustive_ra(
        profile, config, net, evalset, semantics, max_inferences=args.max_inferences,
        progress=OracleProgress(),
    )
    rows = []
    for c in table.classes:
        for b in range(table.bit_width):
            rows.append((c.layer_id, c.var_type.value, b,
                         archive.class_mean(c.layer_id, c.var_type, b)))
    out.write_csv(
        "oracle.csv", "layer_id,var_type,bit_pos,accuracy", rows, spec_hash, args.seed
    )
    out.out_dir.mkdir(parents=True, exist_ok=True)
    archive.save(out.out_dir / "archive.npz")
    out.track(out.out_dir / "archive.npz")
    print(f"exhaustive ra={result.ra!r} sa={result.sa!r}")
    return EXIT_OK


def cmd_gridsim(args, out: RunOutputs) -> int:
    config, net, profile, _ = _build_context(args, need_evalset=False)
    spec_hash = _hash_for(args, need_evalset=False)
    grid = GridModel.build(profile, config)
    tally = grid_simulate(grid, args.pins, args.seed)
    analytical = analytical_class_probs(profile, config)
    rows = []
    for (lid, t), p in analytical.items():
        emp = tally.empirical(lid, t) if (lid, t) in tally.counts else 0.0
        rows.append((lid, t.value, p, emp, tally.pins))
    out.write_csv(
        "gridsim.csv", "layer_id,var_type,analytical_p,empirical_p,pins",
        rows, spec_hash, args.seed,
    )
    print(f"pins={tally.pins} idle={tally.idle} occupied={tally.occupied_pins()}")
    return EXIT_OK


def cmd_study(args, out: RunOutputs) -> int:
    config, net, profile, evalset = _build_context(args, need_evalset=True)
    spec_hash = _hash_for(args, need_evalset=True)
    table = build_table(profile, config)
    true_res, archive = exhaustive_ra(profile, config, net, evalset, FaultSemantics.TRUE)
    sa = archive.sa
    if args.study == "methods":
        datapath = [c for c in table.classes if c.layer_id != CONTROL_LAYER]
        sw = evaluate_classes(
            net, evalset, profile, config, datapath, table.bit_width, FaultSemantics.SW
        )
        rows = [
            ("RA_True", true_res.ra),
            ("RA_True-nc", ra_true_nc(table, archive.evaluator, sa).ra),
            ("RA_SW", uniform_site_mean(sw.evaluator, table, include_control=False)),
            ("RA_SW-cA", uniform_site_mean(archive.evaluator, table, include_control=True)),
        ]
        out.write_csv("study_methods.csv", "method,ra", rows, spec_hash, args.seed)
    elif args.study == "harden":
        results = hardening_study(profile, config, archive.evaluator, sa,
                                  hardened_fit=args.harden_fit)
        rows = [(name, r.ra) for name, r in results.items()]
        out.write_csv("study_harden.csv", "hardened,ra", rows, spec_hash, args.seed)
    else:
        rows = [(t, *fit_sdc_rates(archive.evaluator, table, config, t, sa))
                for t in args.thresholds]
        out.write_csv(
            "study_fitrate.csv", "threshold,fit_rate,sdc_rate", rows, spec_hash, args.seed
        )
    print(f"wrote study_{args.study}.csv")
    return EXIT_OK


# --- argument wiring -------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="resacc", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="accelerator config text file")
    common.add_argument("--network", required=True, help="network weights container")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--utilization", default=None,
                        help="per-layer utilization overrides, e.g. 0=0.7,2=0.9")
    common.add_argument("--harden", default=None, choices=[t.value for t in FFType],
                        help="lower one FF type's raw FIT to --harden-fit")
    common.add_argument("--harden-fit", type=float, default=200.0, dest="harden_fit")

    evalc = argparse.ArgumentParser(add_help=False)
    evalc.add_argument("--evalset", required=True, help="evalset container")
    semc = argparse.ArgumentParser(add_help=False)
    semc.add_argument("--semantics", choices=["true", "sw"], default="true",
                      help="fault semantics: hardware-faithful or software-style "
                           "(sw needs a config with no control FFs)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("profile", parents=[common]).set_defaults(func=cmd_profile)
    sub.add_parser("probs", parents=[common]).set_defaults(func=cmd_probs)

    est = sub.add_parser("estimate", parents=[common, evalc, semc])
    est.add_argument("--strategy", required=True,
                     choices=[s.value for s in SamplingStrategy])
    est.add_argument("--samples", type=int, default=None)
    est.add_argument("--poc", action="store_true",
                     help="run until the point of convergence vs the exhaustive RA")
    est.add_argument("--threshold", type=float, default=0.003,
                     help="relative mean tolerance for convergence")
    est.add_argument("--max-samples", type=int, default=200_000, dest="max_samples")
    # `uf` is no option; it stays in the spec hash, so that runs without
    # --utilization keep the output bytes of earlier versions.
    est.set_defaults(func=cmd_estimate, uf="one")

    cmp_ = sub.add_parser("compare", parents=[common, evalc, semc])
    cmp_.add_argument("--strategies", default="uniform,mac,is,is-b")
    cmp_.add_argument("--seeds", default="0,1,2")
    cmp_.add_argument("--threshold", type=float, default=0.003)
    cmp_.add_argument("--max-samples", type=int, default=200_000, dest="max_samples")
    cmp_.set_defaults(func=cmd_compare, poc=True, samples=None, uf="one")

    orc = sub.add_parser("oracle", parents=[common, evalc, semc])
    orc.add_argument("--max-inferences", type=int, default=10**6, dest="max_inferences")
    orc.set_defaults(func=cmd_oracle)

    grd = sub.add_parser("gridsim", parents=[common])
    grd.add_argument("--pins", type=int, default=1_000_000)
    grd.set_defaults(func=cmd_gridsim)

    stu = sub.add_parser("study", parents=[common, evalc])
    stu.add_argument("--study", required=True, choices=["methods", "harden", "fitrate"])
    stu.add_argument("--thresholds", type=float, nargs="+", default=[0.2, 0.4])
    stu.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = RunOutputs(Path(args.out))
    try:
        return args.func(args, out)
    except UsageError as e:
        out.discard_all()
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScaleGuardExceeded as e:
        out.discard_all()
        print(f"scale guard: {e}", file=sys.stderr)
        return EXIT_SCALE
    except (ValidationError, ValueError) as e:
        out.discard_all()
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
