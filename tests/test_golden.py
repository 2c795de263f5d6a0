"""Golden outputs of the seven README example commands and of the benchmark
workloads.

``data/golden_readme.json`` holds, for each command, the exit code and every
metric it reported (name, value, bound, satisfied and, for JSON output,
asserted) when this test was added. A refactor must reproduce them: names,
flags and exit codes exactly, values to 1e-12 * max(1, |v|). Wall time is
not compared. Every printed flag must also follow from the printed value and
bound, and every command's CSV must print its numbers as floats.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

from aqss.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_readme.json").read_text(encoding="utf-8")
)
VALUE_TOL = 1e-12


def output_metrics(out):
    """Every metric of a CLI output, in order; CSV rows carry no asserted flag."""
    if out.startswith("command,"):
        flags = {"true": True, "false": False, "": None}
        return [
            {
                "name": row["metric"],
                "value": float(row["value"]),
                "bound": float(row["bound"]) if row["bound"] else None,
                "satisfied": flags[row["satisfied"]],
            }
            for row in csv.DictReader(io.StringIO(out))
        ]
    payload = json.loads(out)
    records = payload if isinstance(payload, list) else [payload]
    return [m for record in records for m in record["metrics"]]


def assert_printed_verdicts(metrics):
    """Each printed flag is value <= bound + 1e-12, and null without a bound;
    a value printed as null is skipped."""
    for m in metrics:
        if m["value"] is None:
            continue
        if m["bound"] is None:
            assert m["satisfied"] is None, m["name"]
        else:
            assert m["satisfied"] == (m["value"] <= m["bound"] + VALUE_TOL), m["name"]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["argv"][0])
def test_readme_example_matches_golden(case, capsys):
    rc = main(case["argv"])
    got = output_metrics(capsys.readouterr().out)
    assert rc == case["exit_code"]
    assert_printed_verdicts(got)
    assert [m["name"] for m in got] == [m["name"] for m in case["metrics"]]
    for have, want in zip(got, case["metrics"]):
        for key in ("value", "bound"):
            a, b = have[key], want[key]
            assert (a is None) == (b is None), (have["name"], key)
            if b is not None:
                assert abs(a - b) <= VALUE_TOL * max(1.0, abs(b)), (have["name"], key, a, b)
        for key in ("satisfied", "asserted"):
            assert have.get(key) == want.get(key), (have["name"], key)


BENCHMARK = Path(__file__).parents[1] / "perfbench"


def benchmark_workloads():
    """The benchmark's WORKLOADS table, read from ``perfbench/run.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCHMARK / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = benchmark_workloads()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_matches_its_reference(workload, capsys):
    """Each benchmark workload at seed 0, against its record
    ``perfbench/reference/<workload>.json`` (read, never written)."""
    path = BENCHMARK / "reference" / f"{workload}.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    assert main([*WORKLOADS[workload]["argv"], "--seed", "0"]) == 0
    got = output_metrics(capsys.readouterr().out)
    assert_printed_verdicts(got)
    assert [m["name"] for m in got] == [m["name"] for m in reference["metrics"]]
    for have, want in zip(got, reference["metrics"]):
        # A bound read from the samples (mc-small-d4's rms) is a value too.
        for key in ("value", "bound"):
            a, b = have[key], want[key]
            assert (a is None) == (b is None), (have["name"], key)
            if b is not None:
                assert abs(a - b) <= VALUE_TOL, (have["name"], key, a, b)
        for key in ("satisfied", "asserted"):
            assert have[key] == want[key], (have["name"], key)


CSV_ARGVS = (
    ["randomize", "--d", "2", "--n", "8", "--trials", "2"],
    ["aqss-demo", "--d", "2", "--n", "8", "--trials", "1"],
    ["bound-sweep", "--d", "2", "--n", "4", "--trials", "10"],
    ["purity-check", "--d", "2", "--n", "4", "--trials", "30"],
    ["key-cost", "--d", "4"],
    ["locc-test", "--d", "2", "--trials", "2"],
    ["multiparty", "--d", "2", "--m", "3", "--n", "8", "--trials", "1"],
)


@pytest.mark.parametrize("argv", CSV_ARGVS, ids=lambda argv: argv[0])
def test_csv_prints_every_number_as_a_float(argv, capsys):
    """CSV writes repr(value): a numpy scalar would print as np.float64(...)."""
    main([*argv, "--format", "csv", "--seed", "0"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows
    for row in rows:
        float(row["value"])
        if row["bound"]:
            float(row["bound"])
        assert row["satisfied"] in ("true", "false", ""), row["metric"]
