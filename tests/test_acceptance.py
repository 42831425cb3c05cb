"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line naming the property it certifies,
then asserts it. Run with `pytest -v` (add `-s` to see the lines inline).
"""

from __future__ import annotations

import numpy as np
import pytest

from resacc.cli import main as cli_main
from resacc.container import save_evalset, save_network
from resacc.estimator import (
    SamplingStrategy,
    PoCCriteria,
    build_pdf,
    build_zero_variance_pdf,
    estimate_ra,
    hardening_study,
    ra_true_nc,
    uniform_site_mean,
)
from resacc.formats import NumericFormat, flip_bit
from resacc.microdnn import FaultSemantics
from resacc.oracle import (
    GridModel,
    analytical_class_probs,
    exhaustive_ra,
    grid_simulate,
    live_evaluator,
)
from resacc.probtransfer import build_table, ra_expected
from resacc.profile import (
    CONTROL_LAYER,
    AcceleratorConfig,
    FFType,
    LayerStats,
    NetworkProfile,
    config_to_text,
    derive_profile,
)
from resacc.toynets import (
    make_config,
    make_crash_heavy_config,
    make_dense_toy,
    make_evalset,
)

from conftest import build_context

ALL_STRATEGIES = list(SamplingStrategy)
STRATEGY_ORDER = [
    SamplingStrategy.IMPORTANCE_BP,
    SamplingStrategy.IMPORTANCE,
    SamplingStrategy.MAC_WEIGHTED,
    SamplingStrategy.UNIFORM,
]
N_CONVERGENCE_SEEDS = 15


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# --- criterion 1: probability normalization --------------------------------

def _random_system(rng: np.random.Generator):
    fmt = rng.choice([NumericFormat.FP32, NumericFormat.FP16, NumericFormat.INT8])
    ff = {t: int(rng.integers(1, 500)) for t in FFType}
    fit = {t: float(rng.uniform(50.0, 5000.0)) for t in FFType}
    reuse = {FFType.INPUT_ACTIVATION: 4, FFType.WEIGHT: 4,
             FFType.OUTPUT_ACTIVATION: 1, FFType.CONTROL_GLOBAL: 1,
             FFType.CONTROL_LOCAL: 1}
    config = AcceleratorConfig(ff_count=ff, raw_fit=fit,
                               numeric_format=NumericFormat(fmt), reuse=reuse)
    layers = []
    for lid in range(int(rng.integers(1, 5))):
        vc = {FFType.INPUT_ACTIVATION: int(rng.integers(1, 60)),
              FFType.OUTPUT_ACTIVATION: int(rng.integers(1, 60))}
        if rng.random() < 0.7:  # activation-only layers leave weight FFs idle
            vc[FFType.WEIGHT] = int(rng.integers(1, 60))
        layers.append(LayerStats(layer_id=lid,
                                 mac_count=int(rng.integers(1, 1000)),
                                 var_count=vc))
    profile = NetworkProfile(
        layers=layers,
        control_var_count={FFType.CONTROL_GLOBAL: int(rng.integers(1, 40)),
                           FFType.CONTROL_LOCAL: int(rng.integers(1, 40))},
    )
    return profile, config


def test_criterion_01_probability_normalization():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(60):
        profile, config = _random_system(rng)
        total = build_table(profile, config).total_prob()
        worst = max(worst, abs(total - 1.0))
    _report(1, f"site probabilities sum to 1 for 60 random systems "
               f"(worst |error| {worst:.2e})", worst < 1e-9)


# --- criterion 2: grid-simulator agreement ---------------------------------

def test_criterion_02_grid_agreement(dense_ctx):
    grid = GridModel.build(dense_ctx.profile, dense_ctx.config)
    pins = 10**6
    tally = grid_simulate(grid, pins, seed=4)
    analytical = analytical_class_probs(dense_ctx.profile, dense_ctx.config)
    emp = np.array([tally.empirical(*k) for k in analytical])
    ana = np.array([analytical[k] for k in analytical])
    corr = float(np.corrcoef(emp, ana)[0, 1])
    sigma = np.sqrt(ana * (1.0 - ana) / pins)
    within = bool(np.all(np.abs(emp - ana) <= 3.0 * sigma))
    _report(2, f"grid frequencies vs analytical: corr {corr:.6f} >= 0.999, "
               f"all classes within 3 sigma", corr >= 0.999 and within)


# --- criteria 3 + 4: convergence on skewed toys ----------------------------

@pytest.fixture(scope="module")
def convergence_runs(skew0_ctx, skew1_ctx, skew0_oracle, skew1_oracle):
    """poc index and uniform-excursion data per (toy, strategy, seed)."""
    out = {}
    for name, ctx, (res, arch) in (
        ("skew0", skew0_ctx, skew0_oracle),
        ("skew1", skew1_ctx, skew1_oracle),
    ):
        runs = {}
        for strategy in ALL_STRATEGIES:
            pdf = build_pdf(strategy, ctx.table, ctx.profile, sa=arch.sa)
            per_seed = []
            for seed in range(N_CONVERGENCE_SEEDS):
                est = estimate_ra(
                    pdf, ctx.table, arch.evaluator,
                    criteria=PoCCriteria(), ground_truth=res.ra,
                    seed=seed, max_samples=10**6, batch=8192,
                )
                excursion = bool(np.any(est.trace[:est.samples_drawn] > 1.0 + 1e-9))
                per_seed.append((est.poc_index, excursion))
            runs[strategy] = per_seed
        out[name] = runs
    return out


def test_criterion_03_all_strategies_reach_poc(convergence_runs):
    missing = [
        (toy, strategy.value, seed)
        for toy, runs in convergence_runs.items()
        for strategy, per_seed in runs.items()
        for seed, (poc, _) in enumerate(per_seed)
        if poc is None
    ]
    _report(3, f"all 4 strategies reach convergence on every one of "
               f"{N_CONVERGENCE_SEEDS} seeds on both skewed toys "
               f"(missing: {missing})", not missing)


def test_criterion_04_convergence_ordering(convergence_runs):
    ok = True
    details = []
    for toy, runs in convergence_runs.items():
        medians = [
            float(np.median([poc for poc, _ in runs[s]])) for s in STRATEGY_ORDER
        ]
        ordered = all(a <= b for a, b in zip(medians, medians[1:]))
        excursion = any(exc for _, exc in runs[SamplingStrategy.UNIFORM])
        details.append(f"{toy} medians is-b/is/mac/uniform = {medians} "
                       f"uniform>1 excursion {excursion}")
        ok = ok and ordered and excursion
    _report(4, "; ".join(details), ok)


# --- criterion 5: unbiasedness ---------------------------------------------

def test_criterion_05_unbiasedness(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    ok = True
    details = []
    for strategy in ALL_STRATEGIES:
        pdf = build_pdf(strategy, dense_ctx.table, dense_ctx.profile, sa=arch.sa)
        means = np.array([
            estimate_ra(pdf, dense_ctx.table, arch.evaluator,
                        samples=2000, seed=seed).mean
            for seed in range(100)
        ])
        half_width = 2.576 * means.std(ddof=1) / np.sqrt(len(means))
        err = abs(means.mean() - res.ra)
        ok = ok and err <= half_width
        details.append(f"{strategy.value} |bias| {err:.2e} <= CI {half_width:.2e}")
    _report(5, "seed-averaged estimates inside 99% CI of exhaustive RA: "
               + "; ".join(details), ok)


# --- criterion 6: zero-variance limit --------------------------------------

def test_criterion_06_zero_variance_limit(dense_ctx, dense_oracle):
    res, arch = dense_oracle
    pdf = build_zero_variance_pdf(dense_ctx.table, arch.evaluator, arch.sa)
    est = estimate_ra(pdf, dense_ctx.table, arch.evaluator, samples=1000, seed=0)
    spread = float(np.max(np.abs(est.contribs / est.contribs[0] - 1.0)))
    _report(6, f"integrand-proportional PDF: contribution spread {spread:.2e} "
               f"< 1e-6 relative (mean {est.mean!r} vs exact {res.ra!r})",
            spread < 1e-6 and est.mean == pytest.approx(res.ra, rel=1e-9))


# --- criterion 7: utilization correction -----------------------------------

def test_criterion_07_utilization_correction():
    util = {0: 0.7, 1: 0.9}
    ctx = build_context(make_dense_toy(seed=3), make_config(), utilization=util)
    oracle_res, arch = exhaustive_ra(
        ctx.profile, ctx.config, ctx.net, ctx.evalset, FaultSemantics.TRUE
    )
    pdf = build_pdf(SamplingStrategy.IMPORTANCE, ctx.table, ctx.profile)
    est_actual = estimate_ra(
        pdf, ctx.table, arch.evaluator, samples=20_000, seed=2, sa=arch.sa
    ).mean
    # The same net's table at UF = 1. IS weights do not depend on utilization,
    # so the same seed draws the same sites.
    profile_one = derive_profile(ctx.net, ctx.config)
    table_one = build_table(profile_one, ctx.config)
    pdf_one = build_pdf(SamplingStrategy.IMPORTANCE, table_one, profile_one)
    est_one = estimate_ra(
        pdf_one, table_one, arch.evaluator, samples=20_000, seed=2,
    ).mean
    closer = abs(est_actual - oracle_res.ra) < abs(est_one - oracle_res.ra)
    lower = est_one < est_actual
    _report(7, f"UF-aware estimate {est_actual:.6f} closer to oracle "
               f"{oracle_res.ra:.6f} than UF=1 estimate {est_one:.6f}, "
               f"and UF=1 underestimates", closer and lower)


# --- criterion 8: method comparison ----------------------------------------

def test_criterion_08_method_comparison(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    config = make_crash_heavy_config()
    table = build_table(dense_ctx.profile, config)
    sa = arch.sa
    ra_true = ra_expected(table, arch.evaluator, sa).ra
    ra_nc = ra_true_nc(table, arch.evaluator, sa).ra
    sw_eval = live_evaluator(dense_ctx.net, dense_ctx.evalset, dense_ctx.profile,
                             dense_ctx.config, FaultSemantics.SW)
    ra_sw = uniform_site_mean(sw_eval, table, include_control=False)
    ra_sw_ca = uniform_site_mean(arch.evaluator, table, include_control=True)
    ok = ra_sw > ra_true and ra_nc > ra_sw and ra_sw_ca < ra_true
    _report(8, f"RA_SW {ra_sw:.4f} > RA_True {ra_true:.4f}; RA_True-nc "
               f"{ra_nc:.4f} > RA_SW; RA_SW-cA {ra_sw_ca:.4f} < RA_True", ok)


# --- criterion 9: hardening study ------------------------------------------

def test_criterion_09_hardening_study(dense_ctx, dense_oracle):
    _, arch = dense_oracle
    hs = hardening_study(dense_ctx.profile, dense_ctx.config, arch.evaluator,
                         arch.sa, hardened_fit=200.0)
    lo, hi = hs["none"].ra, hs["all"].ra
    bracket = all(
        lo - 1e-12 <= hs[t.value].ra <= hi + 1e-12 for t in FFType
    ) and lo < hi
    singles = {t.value: hs[t.value].ra for t in FFType}
    best = max(singles, key=singles.get)
    _report(9, f"RA(None) {lo:.6f} <= RA(one type) <= RA(All) {hi:.6f}; "
               f"largest single-type gain from {best}",
            bracket and best == FFType.CONTROL_GLOBAL.value)


# --- criterion 10: bit-flip correctness ------------------------------------

def test_criterion_10_bit_flip_correctness():
    rng = np.random.default_rng(99)
    involution = True
    for fmt in NumericFormat:
        if fmt is NumericFormat.INT8:
            vals = rng.integers(-128, 128, size=10_000).astype(np.int8)
        else:
            dt = np.float32 if fmt is NumericFormat.FP32 else np.float16
            vals = (rng.standard_normal(10_000) * 8).astype(dt)
        for b in range(fmt.width):
            back = flip_bit(flip_bit(vals, b, fmt), b, fmt)
            if not np.array_equal(back.view(fmt.bits_dtype),
                                  vals.view(fmt.bits_dtype)):
                involution = False
    examples = (
        float(flip_bit(np.float32(1.0), 31, NumericFormat.FP32)) == -1.0
        and np.isposinf(float(flip_bit(np.float16(1.0), 14, NumericFormat.FP16)))
        and int(flip_bit(np.int8(5), 1, NumericFormat.INT8)) == 7
    )
    _report(10, "flip involution over 10^4 values x every bit x 3 formats; "
                "sign/exponent/two's-complement examples exact",
            involution and examples)


# --- criterion 11: determinism ---------------------------------------------

def test_criterion_11_byte_identical_rerun(tmp_path):
    net = make_dense_toy(seed=3)
    (tmp_path / "config.txt").write_text(config_to_text(make_config()))
    save_network(net, tmp_path / "net.ranet")
    save_evalset(make_evalset(net, 40, seed=1), net.numeric_format,
                 tmp_path / "eval.raevs")
    base = ["compare", "--config", str(tmp_path / "config.txt"),
            "--network", str(tmp_path / "net.ranet"),
            "--evalset", str(tmp_path / "eval.raevs"),
            "--strategies", "uniform,is", "--seeds", "0,1"]
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(base + ["--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    _report(11, f"compare rerun produced {len(runs[0])} byte-identical files",
            runs[0] == runs[1])
