import argparse
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
from aqss import analysis, channels, cli
from aqss.cli import (
    CSV_COLUMNS,
    Metric,
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


def test_purity_check_perfect_runs_the_exact_channel_and_fails_the_stated_identity(capsys):
    # The exact channel maps every product input to I/d^2, whose purity is
    # 1/d^2; the stated identity 1/(n_A n_B) + 1/d^2 stays asserted, so the
    # run exits 1 by design. A sampled channel reads a mean purity near 0.39.
    rc, out, _ = run_cli(
        ["purity-check", "--d", "2", "--n", "8", "--trials", "30", "--perfect", "--seed", "0"],
        capsys,
    )
    assert rc == 1
    record = json.loads(out)
    metrics = metrics_by_name(record)
    assert record["config"]["n_resolved"] == 4
    assert abs(metrics["mean_purity"]["value"] - 0.25) <= 1e-15
    assert metrics["stderr"]["value"] <= 1e-15
    assert metrics["purity_identity_value"]["value"] == 0.3125
    deviation = metrics["purity_identity_deviation"]
    assert deviation["asserted"] and not deviation["satisfied"]


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


def test_factored_multiparty_forms_no_joint_matrix(capsys):
    # D = 4^5 = 1024: one D x D complex matrix is 16 MiB. A product plaintext
    # travels as its factor vectors from encoding through the audit, so the
    # whole run peaks far below a single joint matrix.
    argv = ["multiparty", "--d", "4", "--m", "5", "--perfect", "--trials", "1", "--seed", "0"]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 2 * 2**20, peak


def test_a_sampled_demo_holds_no_unitary_stack(capsys):
    # aqss-demo --d 16 samples two channels of n = 9600 unitaries, 37.5 MiB
    # each as a stack. Each is sampled by one pass that reads the rounds'
    # keyed unitaries and factor outputs as its chunks are drawn, so the run
    # holds one channel's real parts (18.75 MiB) while that channel is drawn
    # and a few chunks per taker: 20.4 MiB traced on one core and 21.1 MiB
    # on two, where the stacks took 77 MiB.
    argv = ["aqss-demo", "--d", "16", "--trials", "2", "--seed", "0"]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 24 * 2**20, peak


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
        ["key-cost", "--d", "4", "--trials", "2"],
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


def run_module(*argv, stdout=subprocess.PIPE, **environ):
    """``python -m aqss <argv>`` in a fresh process, stderr and (by default) stdout
    captured; keyword arguments are set in its environment."""
    src = str(Path(aqss.__file__).resolve().parents[1])
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "aqss", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("key-cost", "--d", "8", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["config"]["n_resolved"] == 4800


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("to_stdout", [False, True], ids=["output", "stdout"])
def test_failed_write_is_a_clean_usage_error(to_stdout):
    # /dev/full opens fine and fails every write with ENOSPC. The error must
    # come once, from main, and not again from the interpreter's exit flush.
    argv = ("key-cost", "--d", "2", "--seed", "0")
    if to_stdout:
        with open("/dev/full", "w") as full:
            proc = run_module(*argv, stdout=full)
        target = "stdout"
    else:
        proc = run_module(*argv, "--output", "/dev/full")
        target = "--output '/dev/full'"
    assert proc.returncode == 2
    assert proc.stderr == f"aqss: error: cannot write {target}: No space left on device\n"


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


@pytest.mark.parametrize(
    "argv, error",
    [
        # Points run in grid order, each checked in full before the next.
        ("aqss-demo --d 2,1 --trials 0 --seed 0", "--trials must be positive, got 0"),
        ("aqss-demo --d 1,2 --trials 0 --seed 0", "qudit dimension must be >= 2, got 1"),
        ("aqss-demo --d 2 --n 0 --seed 0", "n_per_channel must be positive, got 0"),
        # n is resolved before --trials is checked, unless --perfect fixes it at d^2.
        (
            "aqss-demo --d 2 --epsilon 1e-300 --trials 0 --seed 0",
            "n = ceil(150 d / epsilon^2) is too large to compute (epsilon=1e-300)",
        ),
        (
            "aqss-demo --d 2 --epsilon 1e-300 --trials 0 --perfect --seed 0",
            "--trials must be positive, got 0",
        ),
        # --trials >= 1, then --seed, then the command's fewest trials, then --m.
        (
            "bound-sweep --d 2 --trials 10,9 --seed -1",
            "--seed must be a nonnegative integer, got -1",
        ),
        ("bound-sweep --d 2 --trials 10,9 --seed 0", "bound-sweep needs at least 10 trials, got 9"),
        ("multiparty --d 2 --m 2 --trials 0 --seed 0", "--trials must be positive, got 0"),
        # Every usage error comes before any guard refusal (d = 64 alone exits 3).
        ("aqss-demo --d 64,1 --seed 0", "qudit dimension must be >= 2, got 1"),
    ],
)
def test_grid_reports_the_first_bad_value_of_the_first_bad_point(argv, error, capsys):
    rc, out, err = run_cli(argv.split(), capsys)
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1] == f"aqss: error: {error}"


def test_json_writes_non_finite_metric_values_as_null():
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    record = {
        "command": "randomize",
        "config": {"command": "randomize", "d": 2, "epsilon": 0.5, "n_resolved": 8, "trials": 1,
                   "seed": 1},
        "metrics": [
            Metric(name="nan_value", value=float("nan"), bound=float("inf")),
            Metric(name="finite", value=0.25, bound=0.5),
        ],
        "wall_time_ms": 1.0,
        "version": "test",
        "seed": 1,
    }
    metrics = metrics_by_name(json.loads(render_json([record]), parse_constant=reject))
    assert metrics["nan_value"]["value"] is None
    assert metrics["nan_value"]["bound"] is None
    assert metrics["finite"]["value"] == 0.25
    assert metrics["finite"]["bound"] == 0.5
    assert metrics["finite"]["satisfied"] is True
    assert metrics["nan_value"]["satisfied"] is False
    assert "randomize,2,0.5,8,8,1,1,nan_value,nan,inf," in render_csv([record])


def test_determinism_modulo_wall_time(capsys):
    args = ["bound-sweep", "--d", "2", "--n", "8", "--trials", "10", "--seed", "11"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_ms"), r2.pop("wall_time_ms")
    assert r1 == r2


def test_records_agree_across_blas_thread_counts():
    # At d = 16 the dense path's sums run in another order at 1 and 2 OpenBLAS
    # threads, and some printed digits differ (by 8.9e-16 at most).
    argv = ("aqss-demo", "--d", "16", "--family", "max-entangled", "--trials", "2",
            "--seed", "0")
    runs = [run_module(*argv, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert runs[0].returncode == runs[1].returncode == 0
    one, two = (json.loads(run.stdout)["metrics"] for run in runs)
    assert [(m["name"], m["satisfied"], m["asserted"]) for m in one] == [
        (m["name"], m["satisfied"], m["asserted"]) for m in two
    ]
    for a, b in zip(one, two):
        for key in ("value", "bound"):
            if a[key] is None or b[key] is None:
                assert a[key] == b[key]
            else:
                assert abs(a[key] - b[key]) <= 1e-12 * max(1.0, abs(a[key]))


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


def _valid_argv(name):
    """Every option the command takes, set away from its default."""
    argv = [name, "--d", "2,3", "--epsilon", "0.4", "--n", "8", "--seed", "3", "--format", "csv"]
    if name != "key-cost":
        argv += ["--trials", "2", "--perfect"]
    if name in cli._FAMILY_COMMANDS:
        argv += ["--family", "separable"]
    if name in cli._RECEIVER_COMMANDS:
        argv += ["--m", "4"]
    return argv


PARSER_BATTERY = [
    argv
    for name in cli.COMMANDS
    for argv in (
        [name, "--help"],
        _valid_argv(name),
        [name, "--d", "2", "--bogus", "--seed", "0"],
        [name, "--d", "two", "--seed", "0"],
        [name, "--d", "2"],
    )
]


def parsed(parser, argv, capsys):
    """Exit code, Namespace (None on exit), stdout and stderr of one parse."""
    try:
        code, args = 0, parser.parse_args(argv)
    except SystemExit as exc:
        code, args = exc.code, None
    captured = capsys.readouterr()
    return code, args, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_BATTERY, ids=" ".join)
def test_one_command_parser_parses_as_the_full_parser(argv, capsys):
    # main builds only the named command's parser; its help, its Namespace and
    # every usage error, the usage line included, must read as the full one's.
    assert parsed(build_parser(argv[0]), argv, capsys) == parsed(build_parser(), argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h", "aqss-demo"],
        ["nope", "--d", "2", "--seed", "0"],
        ["--", "key-cost", "--d", "2", "--seed", "0", "--format", "csv"],
        ["key-cost", "--d", "4", "--trials", "2", "--seed", "0"],
        ["multiparty", "--d", "2", "--m", "2", "--seed", "0"],
        ["aqss-demo", "--d", "64", "--seed", "0"],
        ["multiparty", "--d", "2", "--perfect", "--seed", "0", "--format", "csv"],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_main_answers_as_with_every_command_built(argv, monkeypatch, capsys):
    answer = run_cli(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert answer == run_cli(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["multiparty", "--d", "2", "--perfect", "--seed", "0", "--format", "csv"]],
    ids=" ".join,
)
def test_main_reads_sys_argv_when_given_none(argv, monkeypatch, capsys):
    # The aqss script calls main() with no argv.
    answer = run_cli(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["aqss", *argv])
    assert answer == run_cli(None, capsys)


def test_a_perfect_run_builds_one_parser_and_one_exact_channel(monkeypatch, capsys):
    # The top-level parser plus the one command's, and one exact channel that
    # every receiver of every round shares (8 parsers and 5 channels when every
    # command and every receiver's channel was built).
    made = {"parsers": 0, "channels": 0}

    def counted(cls, key):
        init = cls.__init__

        def counting(self, *args, **kwargs):
            made[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    counted(argparse.ArgumentParser, "parsers")
    counted(channels.RandomUnitaryChannel, "channels")
    argv = ["multiparty", "--d", "2", "--m", "5", "--perfect", "--trials", "2", "--seed", "0"]
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    assert made == {"parsers": 2, "channels": 1}


def test_family_choices_are_the_library_input_families():
    # --family spells each analysis.INPUT_FAMILIES entry with hyphens, in order,
    # and each choice reaches the run as the library's name.
    (commands,) = [a for a in build_parser()._actions if a.choices and "aqss-demo" in a.choices]
    for name in cli._FAMILY_COMMANDS:
        (family,) = [a for a in commands.choices[name]._actions if a.dest == "family"]
        assert family.choices == [f.replace("_", "-") for f in analysis.INPUT_FAMILIES]
        for choice, f in zip(family.choices, analysis.INPUT_FAMILIES):
            args = build_parser().parse_args([name, "--d", "2", "--family", choice, "--seed", "0"])
            assert [cfg.input_family for cfg in cli._grid(args)] == [f]


@pytest.mark.parametrize(
    "argv, factored",
    [
        (["multiparty", "--d", "2", "--m", "3"], True),
        (["aqss-demo", "--d", "2"], True),
        (["aqss-demo", "--d", "2", "--family", "separable"], False),
        (["aqss-demo", "--d", "2", "--family", "max-entangled"], False),
    ],
)
def test_product_plaintexts_reach_the_audit_as_factors(argv, factored):
    # Every m > 2 plaintext and the m = 2 product-pure default are products and
    # travel as factor vectors, ciphertext included; the entangled families
    # stay dense.
    args = build_parser().parse_args([*argv, "--perfect", "--trials", "2", "--seed", "4"])
    (cfg,) = cli._grid(args)
    sessions = list(cli._session_rounds(cfg))
    assert len(sessions) == 2
    for session in sessions:
        assert isinstance(session.plaintext, tuple) == factored
        assert isinstance(session.ciphertext, tuple) == factored


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["aqss-demo", "--d", "4", "--trials", "2"], 0),
        (["multiparty", "--d", "3", "--m", "3", "--perfect", "--trials", "1"], 0),
        (["bound-sweep", "--d", "2", "--n", "4", "--trials", "10"], 0),
        (["purity-check", "--d", "2", "--n", "4", "--trials", "30"], 0),
        (["locc-test", "--d", "2", "--n", "4", "--trials", "2"], 0),
        (["bound-sweep", "--d", "2", "--n", "4", "--trials", "10", "--family", "separable"], 20),
        (["locc-test", "--d", "2", "--n", "4", "--trials", "2", "--family", "max-entangled"], 2),
        (["bound-sweep", "--d", "2", "--trials", "10", "--perfect", "--family", "separable"], 1),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_superoperator_builds_per_run(argv, builds, monkeypatch, capsys):
    # A pure product input is its tuple of factor vectors, and every factor
    # output is read from its unitary stack, so the protocol commands, the
    # Monte Carlo estimators and locc-test build no superoperator on one. A
    # joint input is mapped through both channels' superoperators, built once
    # per channel: per trial in bound-sweep, once in locc-test. With --perfect
    # every receiver and trial shares one exact channel, whose superoperator
    # is built once per process. On one reported core every trial runs in
    # this process, where the builds are counted.
    superoperator = channels.RandomUnitaryChannel.__dict__["superoperator"]
    build, built = superoperator.func, []
    monkeypatch.setattr(superoperator, "func", lambda channel: built.append(1) or build(channel))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_cli([*argv, "--seed", "0"], capsys)
    assert len(built) == builds
