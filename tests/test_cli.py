"""Command-line interface: file contracts, schemas, exit codes, and
byte-identical reruns."""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_estimator as ref
import resacc
from resacc.cli import (
    EXIT_OK,
    EXIT_SCALE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    OracleProgress,
    ValidationError,
    main,
)
from resacc.container import load_evalset, load_network, save_evalset, save_network
from resacc.estimator import PoCCriteria, SamplingStrategy, build_pdf, uniform_site_mean
from resacc.microdnn import EvalSet, FaultSemantics, forward
from resacc.oracle import SiteArchive, live_evaluator
from resacc.probtransfer import build_table
from resacc.profile import CONTROL_TYPES, DATAPATH_TYPES, derive_profile
from resacc.formats import NumericFormat
from resacc.toynets import make_config, make_dense_toy, make_evalset, make_pool_toy

from textio import config_to_text, read_csv


@pytest.fixture(scope="session")
def cli_inputs(tmp_path_factory) -> dict:
    d = tmp_path_factory.mktemp("cli_inputs")
    net = make_dense_toy(seed=3)
    cfg = make_config()
    (d / "config.txt").write_text(config_to_text(cfg))
    save_network(net, d / "net.ranet")
    save_evalset(make_evalset(net, 40, seed=1), net.numeric_format, d / "eval.raevs")
    return {
        "config": str(d / "config.txt"),
        "network": str(d / "net.ranet"),
        "evalset": str(d / "eval.raevs"),
    }


def _common(inp, out: Path) -> list[str]:
    return ["--config", inp["config"], "--network", inp["network"],
            "--out", str(out)]


def _with_eval(inp, out: Path) -> list[str]:
    return _common(inp, out) + ["--evalset", inp["evalset"]]


def _tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_profile_writes_profile_txt(cli_inputs, tmp_path):
    assert main(["profile"] + _common(cli_inputs, tmp_path)) == EXIT_OK
    text = (tmp_path / "profile.txt").read_text()
    assert "mac_count" in text


def test_probs_schema_and_normalization(cli_inputs, tmp_path):
    assert main(["probs"] + _common(cli_inputs, tmp_path)) == EXIT_OK
    rows = read_csv(tmp_path / "probs.csv",
                    "layer_id,var_type,per_var_per_bit_prob,class_total_prob")
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_read_csv_rejects_wrong_schema(cli_inputs, tmp_path):
    main(["probs"] + _common(cli_inputs, tmp_path))
    with pytest.raises(ValidationError, match="schema"):
        read_csv(tmp_path / "probs.csv", "some,other,schema")
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError, match="not a resacc CSV"):
        read_csv(bogus, "a,b")


def test_estimate_without_budget_is_usage_error(cli_inputs, tmp_path, capsys):
    rc = main(["estimate"] + _with_eval(cli_inputs, tmp_path)
              + ["--strategy", "is"])
    assert rc == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_strategy_is_usage_error(cli_inputs, tmp_path):
    rc = main(["estimate"] + _with_eval(cli_inputs, tmp_path)
              + ["--strategy", "bogus", "--samples", "10"])
    assert rc == EXIT_USAGE


def test_missing_input_file_is_validation_error(cli_inputs, tmp_path, capsys):
    rc = main(["probs", "--config", "/nonexistent.txt",
               "--network", cli_inputs["network"], "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_bad_utilization_is_validation_error(cli_inputs, tmp_path, capsys):
    for value, message in [("0=1.5", "utilization for layer 0 must be in (0, 1]"),
                           ("99=0.5", "utilization names layers the profile lacks: [99]"),
                           ("0=0.7,0=0.9", "a layer id repeats")]:
        rc = main(["probs"] + _common(cli_inputs, tmp_path)
                  + ["--utilization", value])
        assert rc == EXIT_VALIDATION, value
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "compare"])
def test_uf_is_no_option(cli_inputs, tmp_path, command):
    """Utilization weights every TRUE-semantics RA through the table, so
    there is no separate switch for it."""
    args = ["--strategy", "is", "--poc"] if command == "estimate" else []
    rc = main([command] + _with_eval(cli_inputs, tmp_path) + args + ["--uf", "actual"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_inferences_below_one_is_validation_error(cli_inputs, tmp_path, capsys, monkeypatch,
                                                      value):
    """A budget below one inference is a bad argument, checked as a sample
    count below one is, not a campaign too large for its budget."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran before the arguments were checked")

    monkeypatch.setattr("resacc.cli.exhaustive_ra", no_oracle)
    rc = main(["oracle"] + _with_eval(cli_inputs, tmp_path) + ["--max-inferences", value])
    assert rc == EXIT_VALIDATION
    assert f"validation error: max_inferences = {value} must be at least 1" in (
        capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_scale_guard_exit_code_and_cleanup(cli_inputs, tmp_path):
    rc = main(["oracle"] + _with_eval(cli_inputs, tmp_path)
              + ["--max-inferences", "100"])
    assert rc == EXIT_SCALE
    assert not any(tmp_path.iterdir()) or not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command,args,error,message", [
    ("estimate", ["--strategy", "is", "--samples", "10"], MemoryError(), "out of memory"),
    ("compare", ["--strategies", "is,uniform", "--seeds", "0"],
     MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
], ids=["estimate", "compare"])
def test_memory_error_is_scale_guard_exit(cli_inputs, tmp_path, capsys, monkeypatch,
                                          command, args, error, message):
    """A sample budget too large to allocate exits as the scale guard does,
    leaving no file behind; compare's second strategy fails after the first
    wrote its trace."""
    from resacc import cli

    real = cli.estimate_ra
    calls = []

    def estimate_ra(pdf, *args, **kwargs):
        calls.append(pdf)
        if command == "estimate" or len(calls) > 1:
            raise error
        return real(pdf, *args, **kwargs)

    monkeypatch.setattr("resacc.cli.estimate_ra", estimate_ra)
    rc = main([command] + _with_eval(cli_inputs, tmp_path) + args)
    assert rc == EXIT_SCALE
    assert len(calls) == (1 if command == "estimate" else 2)
    assert f"scale guard: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_estimate_fixed_budget_outputs(cli_inputs, tmp_path):
    rc = main(["estimate"] + _with_eval(cli_inputs, tmp_path)
              + ["--strategy", "is", "--samples", "500", "--seed", "7"])
    assert rc == EXIT_OK
    trace = read_csv(tmp_path / "trace_is_seed7.csv",
                     "sample_index,running_mean,running_variance")
    assert len(trace) == 500
    summary = read_csv(tmp_path / "summary.csv",
                       "strategy,seed,ra,samples_to_poc")
    assert summary[0][0] == "is" and summary[0][1] == "7"
    assert 0.0 <= float(summary[0][2]) <= 1.0


def test_estimate_rerun_is_byte_identical(cli_inputs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--strategy", "uniform", "--samples", "300", "--seed", "11"]
    assert main(["estimate"] + _with_eval(cli_inputs, a) + args) == EXIT_OK
    assert main(["estimate"] + _with_eval(cli_inputs, b) + args) == EXIT_OK
    assert _tree_bytes(a) == _tree_bytes(b)


def test_outputs_do_not_depend_on_where_the_inputs_are(cli_inputs, tmp_path, monkeypatch):
    """Copies of the inputs in two directories, one named by a relative
    path, give the same bytes: the spec hash takes the inputs' contents,
    not their paths."""
    trees = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        for v in cli_inputs.values():
            (d / Path(v).name).write_bytes(Path(v).read_bytes())
        if name == "second":
            monkeypatch.chdir(tmp_path)
            d = d.relative_to(tmp_path)
        inp = {k: str(d / Path(v).name) for k, v in cli_inputs.items()}
        out = tmp_path / f"out_{name}"
        assert main(["estimate"] + _with_eval(inp, out)
                    + ["--strategy", "uniform", "--samples", "50", "--seed", "1"]) == EXIT_OK
        trees.append(_tree_bytes(out))
    assert trees[0] == trees[1] and trees[0]


def test_estimate_poc_reports_convergence_point(cli_inputs, tmp_path):
    rc = main(["estimate"] + _with_eval(cli_inputs, tmp_path)
              + ["--strategy", "is", "--poc", "--seed", "1"])
    assert rc == EXIT_OK
    summary = read_csv(tmp_path / "summary.csv",
                       "strategy,seed,ra,samples_to_poc")
    assert summary[0][3] != ""
    assert int(summary[0][3]) >= 300


def test_estimate_poc_max_samples_caps_without_allocating(cli_inputs, tmp_path):
    """A --poc run's buffer grows as it draws, so a cap far beyond memory
    gives the summary row of a run at the default cap."""
    rows = []
    for cap in ([], ["--max-samples", "1000000000000"]):
        out = tmp_path / f"cap{len(cap)}"
        rc = main(["estimate"] + _with_eval(cli_inputs, out)
                  + ["--strategy", "is", "--poc", "--seed", "1"] + cap)
        assert rc == EXIT_OK
        rows.append(read_csv(out / "summary.csv", "strategy,seed,ra,samples_to_poc"))
    assert rows[0] == rows[1] and rows[0][0][3] != ""


@pytest.mark.parametrize("command,args,count", [
    ("estimate", ["--strategy", "is", "--samples", "0"], "samples = 0"),
    ("estimate", ["--strategy", "is", "--samples", "-3"], "samples = -3"),
    ("estimate", ["--strategy", "is", "--poc", "--max-samples", "0"], "max_samples = 0"),
    ("compare", ["--seeds", "0", "--max-samples", "0"], "max_samples = 0"),
    ("estimate", ["--strategy", "is", "--samples", "50", "--max-samples", "-5"],
     "max_samples = -5"),
    ("estimate", ["--strategy", "is", "--samples", "50", "--max-samples", "0"], "max_samples = 0"),
])
def test_sample_count_below_one_is_validation_error(cli_inputs, tmp_path, capsys,
                                                    command, args, count):
    rc = main([command] + _with_eval(cli_inputs, tmp_path) + args)
    assert rc == EXIT_VALIDATION
    assert f"validation error: {count} must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("samples", ["0", "50"])
def test_samples_with_poc_is_usage_error(cli_inputs, tmp_path, capsys, monkeypatch, samples):
    """A --poc run is capped by --max-samples; a --samples given with it was
    ignored, whatever its value. It is refused before the oracle runs."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran before the arguments were checked")

    monkeypatch.setattr("resacc.cli.exhaustive_ra", no_oracle)
    rc = main(["estimate"] + _with_eval(cli_inputs, tmp_path)
              + ["--strategy", "is", "--poc", "--samples", samples])
    assert rc == EXIT_USAGE
    assert "usage error: --samples" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command,extra", [
    ("estimate", ["--strategy", "is", "--poc"]),
    ("compare", ["--seeds", "0"]),
    ("estimate", ["--strategy", "is", "--samples", "10"]),
], ids=["estimate", "compare", "estimate_samples"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_threshold_is_validation_error(cli_inputs, tmp_path, capsys,
                                                  command, extra, value):
    rc = main([command] + _with_eval(cli_inputs, tmp_path) + extra + ["--threshold", value])
    assert rc == EXIT_VALIDATION
    assert f"mean tolerance {float(value)!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command,args,message", [
    ("estimate", ["--strategy", "is", "--poc", "--max-samples", "0"],
     "max_samples = 0 must be at least 1"),
    ("estimate", ["--strategy", "is", "--poc", "--threshold", "nan"], "mean tolerance nan"),
    ("compare", ["--seeds", "0", "--max-samples", "-1"], "max_samples = -1 must be at least 1"),
    ("compare", ["--seeds", "0", "--threshold", "-0.1"], "mean tolerance -0.1"),
    ("study", ["--study", "fitrate", "--thresholds", "0.2", "0"], "threshold 0.0 must be in (0, 1]"),
    ("study", ["--study", "harden", "--thresholds", "nan"], "threshold nan must be in (0, 1]"),
])
def test_poc_arguments_are_checked_before_the_oracle(cli_inputs, tmp_path, capsys, monkeypatch,
                                                     command, args, message):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran before the arguments were checked")

    monkeypatch.setattr("resacc.cli.exhaustive_ra", no_oracle)
    rc = main([command] + _with_eval(cli_inputs, tmp_path) + args)
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command,args,message", [
    ("compare", ["--seeds", "0", "--strategies", "is,bogus"],
     "argument --strategies: invalid choice: 'bogus' (choose from 'uniform', 'mac', 'is', 'is-b')"),
    ("compare", ["--seeds", "0", "--strategies", ","], "--strategies must name at least one"),
    ("compare", ["--seeds", "0,a"], "argument --seeds: invalid seed 'a'"),
    ("compare", ["--seeds", "-1"], "argument --seeds: invalid seed '-1'"),
    ("estimate", ["--strategy", "is", "--poc", "--seed", "-1"], "argument --seed: invalid seed '-1'"),
    ("gridsim", ["--seed", "-1"], "argument --seed: invalid seed '-1'"),
], ids=["bogus_strategy", "no_strategy", "seed_a", "negative_seeds", "negative_estimate_seed",
        "negative_gridsim_seed"])
def test_bad_seed_or_strategy_list_is_usage_error(cli_inputs, tmp_path, capsys, monkeypatch,
                                                  command, args, message):
    """Seeds and strategies are parsed, list items too, before any work."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran before the arguments were checked")

    monkeypatch.setattr("resacc.cli.exhaustive_ra", no_oracle)
    inputs = (_common if command == "gridsim" else _with_eval)(cli_inputs, tmp_path)
    rc = main([command] + inputs + args)
    assert rc == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("command,args", [
    ("estimate", ["--strategy", "mac", "--samples", "3"]),
    ("compare", ["--seeds", "0"]),
    ("oracle", []),
])
def test_sw_semantics_with_control_ffs_is_validation_error(cli_inputs, tmp_path, capsys,
                                                           monkeypatch, command, args, seed):
    """SW semantics do not model control sites: whether a run drew one
    used to decide between an answer and an error. A config with control
    FFs is now rejected before any fault is evaluated."""
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a fault was evaluated before the semantics were checked")

    for name in ("accuracy", "exhaustive_ra", "live_evaluator"):
        monkeypatch.setattr(f"resacc.cli.{name}", no_evaluation)
    out = tmp_path / "out"
    rc = main([command] + _with_eval(cli_inputs, out) + args
              + ["--semantics", "sw", "--seed", str(seed)])
    assert rc == EXIT_VALIDATION
    assert "--semantics sw needs a config with no control FFs" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,args", [
    ("estimate", ["--strategy", "mac", "--samples", "3"]),
    ("oracle", []),
])
def test_sw_semantics_without_control_ffs_runs(cli_inputs, tmp_path, command, args):
    cfg = make_config()
    cfg.ff_count = {t: n for t, n in cfg.ff_count.items() if t not in CONTROL_TYPES}
    (tmp_path / "cfg.txt").write_text(config_to_text(cfg))
    inp = dict(cli_inputs, config=str(tmp_path / "cfg.txt"))
    rc = main([command] + _with_eval(inp, tmp_path / "out") + args + ["--semantics", "sw"])
    assert rc == EXIT_OK


def test_study_takes_no_semantics(cli_inputs, tmp_path):
    rc = main(["study"] + _with_eval(cli_inputs, tmp_path / "out")
              + ["--study", "methods", "--semantics", "sw"])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_compare_file_contract_and_medians(cli_inputs, tmp_path):
    rc = main(["compare"] + _with_eval(cli_inputs, tmp_path)
              + ["--seeds", "0,1"])
    assert rc == EXIT_OK
    traces = sorted(p.name for p in tmp_path.glob("trace_*.csv"))
    assert len(traces) == 4 * 2  # four strategies, two seeds
    summary = read_csv(tmp_path / "summary.csv",
                       "strategy,seed,ra,samples_to_poc")
    assert len(summary) == 8 + 4
    medians = [r for r in summary if r[1] == "median"]
    assert sorted(r[0] for r in medians) == sorted(
        ["uniform", "mac", "is", "is-b"]
    )


@pytest.mark.parametrize("args,message", [
    (["--seeds", "1,1"], "--seeds repeats 1"),
    (["--seeds", "0,2,0,2"], "--seeds repeats 0,2"),
    (["--seeds", "0", "--strategies", "is,is"], "--strategies repeats is"),
])
def test_compare_with_a_repeated_seed_or_strategy_is_usage_error(cli_inputs, tmp_path, capsys,
                                                                 monkeypatch, args, message):
    """A repeated run would write over its own trace and count twice in the
    median row; it is refused before the oracle runs."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran before the arguments were checked")

    monkeypatch.setattr("resacc.cli.exhaustive_ra", no_oracle)
    rc = main(["compare"] + _with_eval(cli_inputs, tmp_path) + args)
    assert rc == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_compare_rerun_is_byte_identical(cli_inputs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["--strategies", "is,uniform", "--seeds", "0,1"]
    assert main(["compare"] + _with_eval(cli_inputs, a) + args) == EXIT_OK
    assert main(["compare"] + _with_eval(cli_inputs, b) + args) == EXIT_OK
    assert _tree_bytes(a) == _tree_bytes(b)


@pytest.mark.parametrize("strategy,seed,extra", [
    ("is-b", 1, []),
    ("mac", 2, ["--utilization", "0=0.6"]),
])
def test_estimate_poc_is_compare_of_one_run(cli_inputs, tmp_path, strategy, seed, extra):
    """`estimate --poc` is `compare` over one strategy and one seed: the
    same trace and the same first summary row. Only the spec hash of the
    comment line differs, since the two commands take other arguments."""
    a, b = tmp_path / "estimate", tmp_path / "compare"
    assert main(["estimate"] + _with_eval(cli_inputs, a) + extra
                + ["--strategy", strategy, "--poc", "--seed", str(seed)]) == EXIT_OK
    assert main(["compare"] + _with_eval(cli_inputs, b) + extra
                + ["--strategies", strategy, "--seeds", str(seed)]) == EXIT_OK
    trace = f"trace_{strategy}_seed{seed}.csv"
    assert (a / trace).read_text().splitlines()[1:] == (b / trace).read_text().splitlines()[1:]
    schema = "strategy,seed,ra,samples_to_poc"
    assert read_csv(a / "summary.csv", schema)[0] == read_csv(b / "summary.csv", schema)[0]


def test_oracle_outputs(cli_inputs, tmp_path):
    rc = main(["oracle"] + _with_eval(cli_inputs, tmp_path))
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "oracle.csv", "layer_id,var_type,bit_pos,accuracy")
    assert (tmp_path / "archive.npz").exists()
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_oracle_progress_on_stderr_leaves_outputs_identical(cli_inputs, tmp_path, capsys):
    runs = []
    for d in (tmp_path / "a", tmp_path / "b"):
        assert main(["oracle"] + _with_eval(cli_inputs, d)) == EXIT_OK
        runs.append((capsys.readouterr(), _tree_bytes(d)))
    (first, files_a), (second, files_b) = runs
    assert first.out == second.out
    assert first.out.startswith("exhaustive ra=") and "sites" not in first.out
    assert files_a == files_b
    last = first.err.strip().splitlines()[-1]
    done, total = last.split()[1].split("/")
    assert done == total and int(total) > 0 and "(100%), eta 0 s" in last


def test_oracle_progress_is_throttled(capsys):
    t = iter([0.0, 0.5, 1.9, 2.5, 3.0, 3.1])
    progress = OracleProgress(clock=lambda: next(t))
    for done in (10, 20, 30, 40, 50):
        progress(done, 50)
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["oracle: 30/50 sites (60%), eta 2 s",
                     "oracle: 50/50 sites (100%), eta 0 s"]


@pytest.mark.parametrize("which", ["network", "evalset"])
def test_truncated_container_header_is_validation_error(cli_inputs, tmp_path, capsys, which):
    bad = tmp_path / "truncated"
    bad.write_bytes(Path(cli_inputs[which]).read_bytes()[:9])
    inp = dict(cli_inputs, **{which: str(bad)})
    assert main(["oracle"] + _with_eval(inp, tmp_path / "out")) == EXIT_VALIDATION
    assert "truncated container" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["network", "evalset"])
def test_unknown_format_tag_is_validation_error(cli_inputs, tmp_path, capsys, which):
    data = bytearray(Path(cli_inputs[which]).read_bytes())
    data[7] = 9  # the numeric format tag follows the 6-byte magic and the version
    bad = tmp_path / "badtag"
    bad.write_bytes(bytes(data))
    inp = dict(cli_inputs, **{which: str(bad)})
    assert main(["oracle"] + _with_eval(inp, tmp_path / "out")) == EXIT_VALIDATION
    assert "unknown numeric format tag 9" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["network", "evalset"])
def test_trailing_bytes_are_validation_error(cli_inputs, tmp_path, capsys, which):
    bad = tmp_path / "trailing"
    bad.write_bytes(Path(cli_inputs[which]).read_bytes() + b"junk")
    inp = dict(cli_inputs, **{which: str(bad)})
    assert main(["oracle"] + _with_eval(inp, tmp_path / "out")) == EXIT_VALIDATION
    assert "4 trailing bytes after the container" in capsys.readouterr().err


@pytest.mark.parametrize("layer,field,value,message", [
    (0, "stride", 0, "layer 0: stride must be >= 1, got 0"),
    (2, "stride", 0, "layer 2: stride must be >= 1, got 0"),
    (2, "kernel", 0, "layer 2: pool kernel must be >= 1, got 0"),
    (2, "kernel", 5, "layer 2: empty pool output for input (2, 4, 4)"),
])
def test_bad_conv_or_pool_geometry_is_validation_error(cli_inputs, tmp_path, capsys,
                                                        layer, field, value, message):
    net = make_pool_toy()  # conv (layer 0), ReLU, max-pool (layer 2), ...
    setattr(net.layers[layer], field, value)
    save_network(net, tmp_path / "bad.ranet")
    inp = dict(cli_inputs, network=str(tmp_path / "bad.ranet"))
    assert main(["profile"] + _common(inp, tmp_path / "out")) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_config_format_other_than_network_is_validation_error(cli_inputs, tmp_path, capsys):
    cfg = tmp_path / "fp16.txt"
    cfg.write_text(config_to_text(make_config(NumericFormat.FP16)))
    inp = dict(cli_inputs, config=str(cfg))
    rc = main(["estimate"] + _with_eval(inp, tmp_path / "out")
              + ["--strategy", "uniform", "--samples", "10"])
    assert rc == EXIT_VALIDATION
    assert "config format FP16 != network format FP32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oracle_outputs_do_not_depend_on_the_hash_seed(cli_inputs, tmp_path):
    """Two interpreters with different string hash seeds write the same
    bytes: no output depends on hash order (``FFType`` hashes by identity)."""
    src = str(Path(resacc.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"hashseed{seed}"
        subprocess.run([sys.executable, "-m", "resacc.cli", "oracle"] + _with_eval(cli_inputs, out),
                       env=env, capture_output=True, check=True)
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1] and outs[0]


def test_huge_weight_dims_are_a_truncated_container(cli_inputs, tmp_path, capsys):
    """A conv header of 65535^4 weights is larger than any file, not an
    int64 size that wraps."""
    save_network(make_pool_toy(), tmp_path / "pool.ranet")
    data = bytearray((tmp_path / "pool.ranet").read_bytes())
    data[17:25] = b"\xff" * 8  # the conv's out_c, in_c, kh, kw (u16 each)
    (tmp_path / "huge.ranet").write_bytes(bytes(data))
    inp = dict(cli_inputs, network=str(tmp_path / "huge.ranet"))
    assert main(["profile"] + _common(inp, tmp_path / "out")) == EXIT_VALIDATION
    assert "truncated container" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pool_inputs(tmp_path_factory) -> dict:
    d = tmp_path_factory.mktemp("pool_inputs")
    net = make_pool_toy()
    (d / "config.txt").write_text(config_to_text(make_config()))
    save_network(net, d / "net.ranet")
    save_evalset(make_evalset(net, 6, seed=1), net.numeric_format, d / "eval.raevs")
    return {"config": str(d / "config.txt"), "network": str(d / "net.ranet"),
            "evalset": str(d / "eval.raevs")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["network", "evalset"]), st.sampled_from(["cut", "overwrite", "append"]),
       st.data())
def test_mangled_container_gives_exit_0_or_2(pool_inputs, which, how, data):
    """A saved pool toy, cut short, partly overwritten or with bytes appended,
    is either still a valid input (exit 0) or a validation error (exit 2)
    with a message; nothing escapes as a traceback. ``profile`` reads the
    network; ``estimate`` also reads the evalset and runs a few injections."""
    raw = bytearray(Path(pool_inputs[which]).read_bytes())
    if how == "cut":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif how == "overwrite":
        for pos, byte in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                      st.integers(0, 255)),
                                            min_size=1, max_size=8), label="bytes"):
            raw[pos] = byte
    else:
        raw += data.draw(st.binary(min_size=1, max_size=64), label="tail")
    with tempfile.TemporaryDirectory() as d:
        bad = Path(d) / "mangled"
        bad.write_bytes(bytes(raw))
        inp = dict(pool_inputs, **{which: str(bad)})
        out = Path(d) / "out"
        argv = (["profile"] + _common(inp, out) if which == "network" else
                ["estimate"] + _with_eval(inp, out) + ["--strategy", "uniform", "--samples", "4"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
    if rc == EXIT_VALIDATION:
        assert err.getvalue().startswith("validation error: "), err.getvalue()


def test_gridsim_outputs(cli_inputs, tmp_path):
    rc = main(["gridsim"] + _common(cli_inputs, tmp_path)
              + ["--pins", "200000", "--seed", "2"])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "gridsim.csv",
                    "layer_id,var_type,analytical_p,empirical_p,pins")
    assert all(r[4] == "200000" for r in rows)
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("study,fname,schema,nrows", [
    ("methods", "study_methods.csv", "method,ra", 4),
    ("harden", "study_harden.csv", "hardened,ra", 7),
    ("fitrate", "study_fitrate.csv", "threshold,fit_rate,sdc_rate", 2),
])
def test_study_outputs(cli_inputs, tmp_path, study, fname, schema, nrows):
    rc = main(["study"] + _with_eval(cli_inputs, tmp_path)
              + ["--study", study])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / fname, schema)
    assert len(rows) == nrows
    # every value cell is a float literal, not the repr of a numpy scalar
    for row in rows:
        for value in row[1:]:
            float(value)


def test_study_methods_reads_ra_sw_from_the_batched_oracle(cli_inputs, tmp_path, monkeypatch):
    """RA_SW is the uniform mean of the SW accuracies of every datapath
    site, as the live SW evaluator gives them, but no site goes through it."""
    net = load_network(cli_inputs["network"])
    evalset, _ = load_evalset(cli_inputs["evalset"])
    config = make_config()
    profile = derive_profile(net, config)
    live = live_evaluator(net, evalset, profile, config, FaultSemantics.SW)
    want = uniform_site_mean(live, build_table(profile, config), include_control=False)

    def no_live(*args, **kwargs):
        raise AssertionError("study methods evaluated a site by live injection")

    monkeypatch.setattr("resacc.cli.live_evaluator", no_live)
    monkeypatch.setattr("resacc.oracle.live_evaluator", no_live)
    assert main(["study"] + _with_eval(cli_inputs, tmp_path) + ["--study", "methods"]) == EXIT_OK
    rows = dict(read_csv(tmp_path / "study_methods.csv", "method,ra"))
    assert float(rows["RA_SW"]) == want


def test_study_methods_with_zero_datapath_fit_rates_runs(cli_inputs, tmp_path):
    """With every datapath raw FIT rate 0 only control sites can be hit,
    yet RA_SW, a uniform mean over the datapath sites, is still defined."""
    cfg = make_config().with_raw_fit({t: 0.0 for t in DATAPATH_TYPES})
    (tmp_path / "cfg.txt").write_text(config_to_text(cfg))
    inp = dict(cli_inputs, config=str(tmp_path / "cfg.txt"))
    out = tmp_path / "out"
    assert main(["study"] + _with_eval(inp, out) + ["--study", "methods"]) == EXIT_OK
    assert len(read_csv(out / "study_methods.csv", "method,ra")) == 4


def test_utilization_weights_every_true_ra_bit_for_bit(cli_inputs, tmp_path, capsys):
    """With --utilization, `oracle`, `estimate --samples`, `compare` and the
    TRUE-semantics RAs of `study methods` and `study harden` equal, bit for
    bit, the naive loops given the same per-layer utilization. RA_SW-cA
    stays utilization-unaware."""
    config = make_config()
    profile = derive_profile(load_network(cli_inputs["network"]), config,
                             utilization={0: 0.7, 1: 0.9})
    table = build_table(profile, config)
    uf = lambda lid: profile.layer(lid).utilization  # noqa: E731

    def run(name, command, *args):
        out = tmp_path / name
        assert main([command] + _with_eval(cli_inputs, out)
                    + ["--utilization", "0=0.7,1=0.9", *args]) == EXIT_OK
        return out, capsys.readouterr().out

    out, printed = run("oracle", "oracle")
    arch = SiteArchive.load(out / "archive.npz")
    truth = ref.ra_expected(table, arch.evaluator, arch.sa, uf).ra
    assert truth != ref.ra_expected(table, arch.evaluator, arch.sa).ra
    assert printed == f"exhaustive ra={truth!r} sa={arch.sa!r}\n"

    summary = "strategy,seed,ra,samples_to_poc"
    out, _ = run("estimate", "estimate", "--strategy", "is", "--samples", "300", "--seed", "4")
    pdf = build_pdf(SamplingStrategy.IMPORTANCE, table, profile, sa=arch.sa)
    _, trace, _ = ref.estimate_ra(pdf, table, arch.evaluator, samples=300, seed=4,
                                  sa=arch.sa, uf=uf)
    assert read_csv(out / "summary.csv", summary)[0][2] == repr(float(trace[-1]))

    out, printed = run("compare", "compare", "--strategies", "is-b,mac", "--seeds", "1")
    assert printed.startswith(f"exhaustive ra={truth!r};")
    for strategy, _, ra, poc in read_csv(out / "summary.csv", summary)[:2]:
        pdf = build_pdf(SamplingStrategy(strategy), table, profile, sa=arch.sa)
        _, trace, want_poc = ref.estimate_ra(
            pdf, table, arch.evaluator, criteria=PoCCriteria(), ground_truth=truth,
            seed=1, sa=arch.sa, uf=uf,
        )
        assert (ra, poc) == (repr(float(trace[-1])), str(want_poc)), strategy

    out, _ = run("methods", "study", "--study", "methods")
    rows = dict(read_csv(out / "study_methods.csv", "method,ra"))
    assert rows["RA_True"] == repr(truth)
    assert rows["RA_True-nc"] == repr(ref.ra_true_nc(table, arch.evaluator, arch.sa, uf).ra)
    assert rows["RA_SW-cA"] == repr(ref.uniform_site_mean(arch.evaluator, table, True))

    out, _ = run("harden", "study", "--study", "harden")
    want = ref.hardening_study(profile, config, arch.evaluator, arch.sa, uf=uf)
    rows = read_csv(out / "study_harden.csv", "hardened,ra")
    assert rows == [[name, repr(float(r.ra))] for name, r in want.items()]


@pytest.mark.parametrize("command,args", [
    ("estimate", ["--strategy", "is-b", "--samples", "100"]),
    ("estimate", ["--strategy", "is-b", "--poc"]),
    ("compare", ["--seeds", "0"]),
])
def test_is_b_with_sa_at_most_a_bits_drop_is_validation_error(cli_inputs, tmp_path, capsys,
                                                              monkeypatch, command, args):
    """Labels that only 4 of 40 clean predictions match give SA = 0.1, below
    the 0.15 drop is-b assumes for FP32 bit 30: its sites would never be
    drawn, and is-b would read low without a word. The PDF is built, and
    rejected, before any fault is evaluated."""
    evalset, fmt = load_evalset(cli_inputs["evalset"])
    n_classes = forward(load_network(cli_inputs["network"]), evalset.inputs[0]).size
    labels = evalset.labels.copy()
    labels[4:] = (labels[4:] + 1) % n_classes
    save_evalset(EvalSet(evalset.inputs, labels), fmt, tmp_path / "low.raevs")
    inp = dict(cli_inputs, evalset=str(tmp_path / "low.raevs"))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("a fault was evaluated before the PDF was checked")

    for name in ("exhaustive_ra", "live_evaluator"):
        monkeypatch.setattr(f"resacc.cli.{name}", no_evaluation)
    out = tmp_path / "out"
    assert main([command] + _with_eval(inp, out) + args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "is-b: SA 0.1 is at most the assumed accuracy drop of bits [30]" in err
    assert not out.exists() or not any(out.iterdir())


# --- configs that used to give silently wrong output ------------------------

def _probs(inp, tmp_path, capsys, *extra: str, config_text: str | None = None):
    """Run `resacc probs`, optionally on another config text; (rc, stderr)."""
    if config_text is not None:
        (tmp_path / "cfg.txt").write_text(config_text)
        inp = dict(inp, config=str(tmp_path / "cfg.txt"))
    rc = main(["probs"] + _common(inp, tmp_path / "out") + list(extra))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return rc, err


def _config_with(key: str, value: str) -> str:
    """make_config()'s text with the line of `key` set to `value`."""
    lines = config_to_text(make_config()).splitlines()
    lines = [l for l in lines if l.split("=")[0].strip() != key] + [f"{key} = {value}"]
    return "\n".join(lines) + "\n"


def test_negative_harden_fit_is_validation_error(cli_inputs, tmp_path, capsys):
    rc, err = _probs(cli_inputs, tmp_path, capsys, "--harden", "weight", "--harden-fit", "-5")
    assert rc == EXIT_VALIDATION
    assert "validation error: --harden-fit -5.0 must be finite and >= 0" in err


def test_harden_fit_writes_the_rows_of_the_configured_rate(cli_inputs, tmp_path):
    """`--harden weight --harden-fit 200` rates weights as `raw_fit.weight = 200` does."""
    (tmp_path / "cfg.txt").write_text(_config_with("raw_fit.weight", "200.0"))
    configured = dict(cli_inputs, config=str(tmp_path / "cfg.txt"))
    runs = {"plain": (cli_inputs, []), "configured": (configured, []),
            "hardened": (cli_inputs, ["--harden", "weight", "--harden-fit", "200"])}
    rows = {}
    for name, (inp, extra) in runs.items():
        assert main(["probs"] + _common(inp, tmp_path / name) + extra) == EXIT_OK
        rows[name] = read_csv(tmp_path / name / "probs.csv",
                              "layer_id,var_type,per_var_per_bit_prob,class_total_prob")
    assert rows["hardened"] == rows["configured"] != rows["plain"]


@pytest.mark.parametrize("where", ["harden", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_fit_rate_is_validation_error(cli_inputs, tmp_path, capsys, where, value):
    if where == "harden":
        rc, err = _probs(cli_inputs, tmp_path, capsys, "--harden", "weight", "--harden-fit", value)
        assert f"--harden-fit {float(value)!r} must be finite" in err
    else:
        rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=_config_with("raw_fit.weight", value))
        assert f"raw_fit[weight] = {float(value)!r} must be finite and >= 0" in err
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["0", "-3"])
def test_reuse_below_one_is_validation_error(cli_inputs, tmp_path, capsys, value):
    rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=_config_with("reuse.weight", value))
    assert rc == EXIT_VALIDATION
    assert f"reuse[weight] = {value} must be >= 1" in err


def test_nan_control_global_fraction_is_validation_error(cli_inputs, tmp_path, capsys):
    text = _config_with("control_global_fraction", "nan")
    rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=text)
    assert rc == EXIT_VALIDATION
    assert "control_global_fraction nan outside [0, 1]" in err
    # Refused before it splits a combined control count, naming itself alone.
    for value in ("nan", "inf", "1.5"):
        lines = [l for l in _config_with("control_global_fraction", value).splitlines()
                 if not l.startswith("ff_count.control_")]
        text = "\n".join(lines + ["ff_count.control = 170"]) + "\n"
        rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=text)
        assert rc == EXIT_VALIDATION
        assert err.endswith(f"config: control_global_fraction {float(value)!r} outside [0, 1]\n")
        assert "ff_count" not in err


@pytest.mark.parametrize("key", ["bogus", "bitwidth", "reuse.control"])
def test_unknown_config_key_is_validation_error(cli_inputs, tmp_path, capsys, key):
    text = config_to_text(make_config()) + f"{key} = 3\n"
    rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=text)
    assert rc == EXIT_VALIDATION
    assert f"unrecognized config key: {key}" in err


def test_duplicate_config_key_is_validation_error(cli_inputs, tmp_path, capsys):
    """A second `raw_fit.weight` line used to override the first silently."""
    text = config_to_text(make_config()) + "raw_fit.weight = 5.0\n"
    rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=text)
    assert rc == EXIT_VALIDATION
    assert "duplicate key raw_fit.weight" in err


def test_fit_rate_near_float_max_is_validation_error(cli_inputs, tmp_path, capsys):
    """Finite rates whose denominators overflow gave all-zero probabilities."""
    text = _config_with("raw_fit.weight", "1e308")
    rc, err = _probs(cli_inputs, tmp_path, capsys, config_text=text)
    assert rc == EXIT_VALIDATION
    assert "site probabilities sum to 0.0, not 1" in err


def test_negative_harden_fit_fails_the_hardening_study(cli_inputs, tmp_path, capsys):
    rc = main(["study"] + _with_eval(cli_inputs, tmp_path / "out")
              + ["--study", "harden", "--harden-fit", "-5"])
    assert rc == EXIT_VALIDATION
    assert "--harden-fit -5.0 must be finite and >= 0" in capsys.readouterr().err


_FUZZ_VALUES = ["nan", "inf", "-1", "0", "1e308"]


@st.composite
def _mutated_config(draw) -> str:
    """make_config()'s text with 1-3 lines dropped, duplicated, set to an
    odd value or garbage, or an unknown key appended."""
    lines = config_to_text(make_config()).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "duplicate", "set", "append"]))
        value = draw(st.sampled_from(_FUZZ_VALUES) | st.text(max_size=8))
        if how == "append" or not lines:
            key = draw(st.text("abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=16))
            lines.append(f"{key} = {value}")
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = f"{lines[i].split('=')[0].strip()} = {value}"
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_mutated_config())
def test_mutated_config_gives_valid_probabilities_or_exit_2(cli_inputs, text):
    """`resacc probs` on a mutated config either writes probabilities that
    are finite, in [0, 1] and sum to 1, or is a validation error."""
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "config.txt"
        cfg.write_text(text)
        out = Path(d) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["probs"] + _common(dict(cli_inputs, config=str(cfg)), out))
        assert rc in (EXIT_OK, EXIT_VALIDATION), err.getvalue()
        if rc == EXIT_VALIDATION:
            assert err.getvalue().startswith("validation error: "), err.getvalue()
            return
        rows = read_csv(out / "probs.csv",
                        "layer_id,var_type,per_var_per_bit_prob,class_total_prob")
    probs = [float(r[2]) for r in rows]
    totals = [float(r[3]) for r in rows]
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs + totals), rows
    assert abs(math.fsum(totals) - 1.0) <= 1e-12, rows
