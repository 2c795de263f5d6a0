import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import aqss
from aqss import analysis, cli
from aqss.cli import (
    CSV_COLUMNS,
    Metric,
    ResultRecord,
    build_parser,
    main,
    render_csv,
    render_json,
)


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def metrics_by_name(record):
    return {m["name"]: m for m in record["metrics"]}


def test_key_cost_values(capsys):
    rc, out, _ = run_cli(["key-cost", "--d", "8", "--epsilon", "0.5", "--seed", "1"], capsys)
    assert rc == 0
    record = json.loads(out)
    metrics = metrics_by_name(record)
    assert metrics["perfect_bits"]["value"] == 12.0
    assert metrics["approx_bits"]["value"] == 26.0
    assert record["config"]["n_resolved"] == 4800


def test_aqss_demo_perfect_asserts_pass(capsys):
    rc, out, _ = run_cli(["aqss-demo", "--d", "2", "--perfect", "--seed", "1"], capsys)
    assert rc == 0
    metrics = metrics_by_name(json.loads(out))
    assert metrics["round_trip_distance_max"]["value"] <= 1e-12
    assert metrics["exterior_distance_max"]["value"] <= 1e-12
    assert metrics["interior_alice_distance_max"]["satisfied"]


def test_bound_sweep_reports_honest_flag(capsys):
    rc, out, _ = run_cli(
        [
            "bound-sweep", "--d", "4", "--n", "64", "--family", "product-pure",
            "--trials", "100", "--seed", "7",
        ],
        capsys,
    )
    record = json.loads(out)
    metrics = metrics_by_name(record)
    mean = metrics["mean_trace_distance"]
    assert mean["bound"] == pytest.approx(0.0625)
    # The satisfied flag must reflect the measured mean, and the exit code
    # must agree with the asserted checks.
    assert mean["satisfied"] == (mean["value"] <= mean["bound"] + 1e-12)
    assert metrics["jensen_mean_vs_rms"]["satisfied"]
    expected_rc = 0 if all(
        m["satisfied"] for m in record["metrics"] if m["asserted"]
    ) else 1
    assert rc == expected_rc


def test_bound_sweep_perfect_channels_pass(capsys):
    rc, out, _ = run_cli(
        ["bound-sweep", "--d", "4", "--n", "64", "--perfect", "--trials", "20",
         "--seed", "7"],
        capsys,
    )
    assert rc == 0
    metrics = metrics_by_name(json.loads(out))
    assert metrics["mean_trace_distance"]["value"] <= 1e-10


def test_locc_test_perfect(capsys):
    rc, out, _ = run_cli(["locc-test", "--d", "3", "--perfect", "--seed", "5"], capsys)
    assert rc == 0
    metrics = metrics_by_name(json.loads(out))
    assert metrics["locc_max_total_variation"]["value"] <= 1e-10
    assert metrics["locc_self_distance"]["value"] <= 1e-12


def test_multiparty_perfect(capsys):
    rc, out, _ = run_cli(
        ["multiparty", "--d", "2", "--m", "3", "--perfect", "--seed", "9"], capsys
    )
    assert rc == 0
    metrics = metrics_by_name(json.loads(out))
    assert metrics["collusion_victim_distance_max"]["value"] <= 1e-10


def test_randomize_reports_without_asserting(capsys):
    rc, out, _ = run_cli(["randomize", "--d", "4", "--n", "256", "--seed", "3"], capsys)
    assert rc == 0  # empirical draw: reported, never fatal
    metrics = metrics_by_name(json.loads(out))
    assert not metrics["max_randomizing_distance"]["asserted"]
    assert metrics["n_unitaries"]["value"] == 256.0


def test_randomize_holds_one_probe_at_a_time(capsys):
    # At d = 8 a list of 2000 Haar probes alone is about 2 MB; with --n 16
    # the channel is too small to hide it under its own peak.
    peaks = []
    for trials in (20, 2000):
        argv = ["randomize", "--d", "8", "--n", "16", "--trials", str(trials), "--seed", "0"]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert rc == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= 0.5e6, peaks


def test_usage_error_exit_code(capsys):
    rc, _, _ = run_cli(["bound-sweep", "--d", "4", "--epsilon", "1.5", "--seed", "1"], capsys)
    assert rc == 2
    rc, _, _ = run_cli(["bound-sweep", "--d", "4"], capsys)  # missing --seed
    assert rc == 2
    rc, _, _ = run_cli(["multiparty", "--d", "2", "--m", "2", "--seed", "1"], capsys)
    assert rc == 2


@pytest.mark.parametrize(
    "args",
    [
        # Each of these options would be ignored by the command, and its
        # record would then describe a run that did not happen.
        ["purity-check", "--d", "2", "--family", "separable"],
        ["randomize", "--d", "2", "--family", "max-entangled"],
        ["multiparty", "--d", "2", "--family", "separable"],
        ["key-cost", "--d", "4", "--family", "separable"],
        ["aqss-demo", "--d", "2", "--m", "3"],
        ["bound-sweep", "--d", "2", "--m", "2"],
        ["locc-test", "--d", "2", "--m", "2"],
        ["randomize", "--d", "2", "--m", "2"],
        ["purity-check", "--d", "2", "--m", "2"],
        ["key-cost", "--d", "4", "--perfect"],
    ],
)
def test_option_the_command_ignores_is_refused(args, capsys):
    rc, out, err = run_cli(args + ["--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_records_state_the_run(capsys):
    rc, out, _ = run_cli(
        ["bound-sweep", "--d", "2", "--n", "8", "--trials", "10", "--family", "separable",
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    record = json.loads(out)
    assert record["config"]["input_family"] == "separable"
    assert record["config"]["m"] == 2
    assert not metrics_by_name(record)["mean_trace_distance"]["asserted"]
    rc, out, _ = run_cli(["key-cost", "--d", "4", "--m", "3", "--seed", "1"], capsys)
    assert rc == 0
    record = json.loads(out)
    assert record["config"]["m"] == 3
    assert record["config"]["n_resolved"] == 2400
    assert metrics_by_name(record)["approx_bits"]["value"] == 3 * 12.0


@pytest.mark.parametrize("flag", ["--d", "--n", "--trials", "--epsilon"])
def test_empty_comma_list_is_usage_error(flag, capsys):
    args = ["bound-sweep", "--d", "2", "--trials", "10", "--seed", "1"]
    rc, out, err = run_cli(args + [flag, ","], capsys)
    assert rc == 2
    assert out == ""
    assert f"argument {flag}: expected comma-separated" in err


def test_unwritable_output_is_usage_error_before_any_run(capsys, monkeypatch, tmp_path):
    def refuse(cfg):
        raise AssertionError("a grid point ran despite the unwritable output")

    monkeypatch.setattr(cli, "run", refuse)
    out_path = tmp_path / "missing-dir" / "x.json"
    rc, out, err = run_cli(
        ["key-cost", "--d", "2,4", "--seed", "1", "--output", str(out_path)], capsys
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("aqss: error: cannot write --output")
    assert "Traceback" not in err


def run_module(*argv):
    """``python -m aqss <argv>`` in a fresh process, output captured."""
    src = str(Path(aqss.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "aqss", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("key-cost", "--d", "8", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["config"]["n_resolved"] == 4800


def test_resource_guard_exit_code(capsys):
    rc, _, err = run_cli(["multiparty", "--d", "4", "--m", "6", "--seed", "1"], capsys)
    assert rc == 3
    assert "joint dimension" in err
    # d^m has about 47700 digits here; the guard never forms or prints it.
    rc, out, err = run_cli(["multiparty", "--d", "3", "--m", "100000", "--seed", "0"], capsys)
    assert rc == 3
    assert out == ""
    assert err == "aqss: refused: joint dimension d^m exceeds the guard 1024 (d=3, m=100000)\n"
    rc, _, err = run_cli(["bound-sweep", "--d", "8", "--epsilon", "0.1", "--seed", "1"], capsys)
    assert rc == 3
    assert "exceeds the guard" in err


@pytest.mark.parametrize(
    "args",
    [
        ["randomize", "--d", "2", "--epsilon", "1e-200"],  # epsilon^2 underflows
        ["key-cost", "--d", "4", "--epsilon", "1e-200"],
        ["key-cost", "--d", "1" + "0" * 400],  # 150 d overflows a float
    ],
)
def test_uncomputable_sized_n_is_a_clean_usage_error(args, capsys):
    rc, out, err = run_cli(args + ["--seed", "0"], capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("aqss: error: n = ceil(150 d / epsilon^2)")


def test_key_cost_is_constant_time_in_m_and_refuses_what_a_float_cannot_hold(capsys):
    start = time.perf_counter()
    rc, out, _ = run_cli(["key-cost", "--d", "2", "--m", str(10**12), "--seed", "0"], capsys)
    assert time.perf_counter() - start < 0.5
    assert rc == 0
    metrics = metrics_by_name(json.loads(out))
    assert metrics["perfect_bits"]["value"] == 2e12
    assert metrics["approx_bits"]["value"] == 11e12  # m * ceil(log2 1200)
    rc, out, err = run_cli(["key-cost", "--d", "2", "--m", str(10**400), "--seed", "0"], capsys)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("aqss: error: key cost of m = 1000")


@pytest.mark.parametrize(
    "command, fewest",
    [
        ("bound-sweep", analysis.MIN_TRACE_DISTANCE_TRIALS),
        ("purity-check", analysis.MIN_PURITY_TRIALS),
    ],
)
def test_monte_carlo_trial_minimum_is_a_usage_error(command, fewest, capsys):
    rc, out, err = run_cli(
        [command, "--d", "2", "--trials", str(fewest - 1), "--seed", "0"], capsys
    )
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"aqss: error: {command} needs at least {fewest} trials, got {fewest - 1}"
    )


@pytest.mark.parametrize("extra, n", [(["--perfect"], 4), (["--n", "10"], 10)])
def test_tiny_epsilon_runs_when_n_is_not_sized_from_it(extra, n, capsys):
    rc, out, _ = run_cli(
        ["randomize", "--d", "2", "--epsilon", "1e-200", "--seed", "0"] + extra, capsys
    )
    assert rc == 0
    assert json.loads(out)["config"]["n_resolved"] == n


def test_grid_fails_fast_before_running(capsys, tmp_path):
    # One invalid point anywhere in the grid aborts everything: no output file.
    out_path = tmp_path / "results.json"
    rc, _, _ = run_cli(
        ["key-cost", "--d", "4,1", "--seed", "1", "--output", str(out_path)], capsys
    )
    assert rc == 2
    assert not out_path.exists()


def test_json_writes_non_finite_metric_values_as_null():
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    record = ResultRecord(
        command="randomize",
        config={"d": 2, "epsilon": 0.5, "n_resolved": 8, "trials": 1},
        metrics=(
            Metric(name="nan_value", value=float("nan"), bound=float("inf")),
            Metric(name="finite", value=0.25, bound=0.5, satisfied=True),
        ),
        wall_time_ms=1.0,
        version="test",
        seed=1,
    )
    metrics = metrics_by_name(json.loads(render_json([record]), parse_constant=reject))
    assert metrics["nan_value"]["value"] is None
    assert metrics["nan_value"]["bound"] is None
    assert metrics["finite"]["value"] == 0.25
    assert metrics["finite"]["bound"] == 0.5
    assert "randomize,2,0.5,8,8,1,1,nan_value,nan,inf," in render_csv([record])


def test_determinism_modulo_wall_time(capsys):
    args = ["bound-sweep", "--d", "2", "--n", "8", "--trials", "10", "--seed", "11"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
    assert r1 == r2


def test_csv_format_and_columns(capsys):
    rc, out, _ = run_cli(
        ["key-cost", "--d", "2,4,8", "--seed", "1", "--format", "csv"], capsys
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 3 * 3  # three metrics per grid point
    ratio_rows = [r for r in rows[1:] if r[7] == "ratio"]
    ratios = [float(r[8]) for r in ratio_rows]
    assert ratios == sorted(ratios, reverse=True)  # nonincreasing in d


def test_key_cost_ratio_monotone_over_power_grid(capsys):
    ds = ",".join(str(2**k) for k in range(1, 31))
    rc, out, _ = run_cli(["key-cost", "--d", ds, "--seed", "1"], capsys)
    assert rc == 0
    records = json.loads(out)
    ratios = [metrics_by_name(r)["ratio"]["value"] for r in records]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.7


def test_purity_sweep_stderr_shrinks(capsys):
    rc, out, _ = run_cli(
        ["purity-check", "--d", "2", "--n", "8", "--trials", "50,200", "--seed", "13"],
        capsys,
    )
    records = json.loads(out)
    stderrs = [metrics_by_name(r)["stderr"]["value"] for r in records]
    assert stderrs[1] < stderrs[0] * 0.75  # roughly 1/sqrt(4) with slack


def test_bound_sweep_means_decrease_with_n(capsys):
    rc, out, _ = run_cli(
        [
            "bound-sweep", "--d", "4", "--n", "16,32,64,128", "--trials", "40",
            "--seed", "17",
        ],
        capsys,
    )
    records = json.loads(out)
    means = [metrics_by_name(r)["mean_trace_distance"]["value"] for r in records]
    assert means == sorted(means, reverse=True)


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "record.json"
    rc, out, _ = run_cli(
        ["key-cost", "--d", "8", "--seed", "1", "--output", str(out_path)], capsys
    )
    assert rc == 0
    assert out == ""
    record = json.loads(out_path.read_text(encoding="utf-8"))
    assert record["command"] == "key-cost"


def test_monte_carlo_workers_never_write_the_record(tmp_path):
    # The trials run in forked workers; a worker that flushed or closed the
    # buffers it inherited would write the record a second time.
    argv = ["bound-sweep", "--d", "4", "--n", "16", "--trials", "40", "--seed", "3"]
    out_path = tmp_path / "record.json"
    to_file = run_module(*argv, "--output", str(out_path))
    to_stdout = run_module(*argv)
    assert to_file.returncode == to_stdout.returncode == 1  # the stated bound, red by design
    assert to_file.stdout == ""
    for text in (out_path.read_text(encoding="utf-8"), to_stdout.stdout):
        assert text.count('"version"') == 1
        assert json.loads(text)["command"] == "bound-sweep"
    assert "Traceback" not in to_file.stderr + to_stdout.stderr


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "randomize", "aqss-demo", "bound-sweep", "purity-check", "key-cost",
        "locc-test", "multiparty",
    ):
        assert name in text
