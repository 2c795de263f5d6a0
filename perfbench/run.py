"""Benchmark of the aqss CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sized-d16 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40   # every workload, one table

Load is a closed loop with one client: samples run one after another, each in
a fresh process (``child.py``) that imports aqss from ``src/`` and calls
``aqss.cli.main(argv)`` as the ``aqss`` entry point does, with ``--seed`` passed
through to the CLI. OPENBLAS_NUM_THREADS is pinned to nproc in the child's
environment before numpy is imported, so one process uses every core and no
more. Samples fill ``--seconds`` (at least one sample, at least three when
traced); a run never passes 170 s.

``--trace 0`` reports the end-to-end metrics:
  setup_s       median over every child of the time from spawn to aqss imported,
                including SETUP_PROBES import-only children per run
  run_s         median wall time of cli.main(argv)
  peak_rss_mib  median of the child's ru_maxrss
``--trace 1`` alternates traced and untraced samples and reports, for every
traced function, ``<layer>.<function>.calls`` and ``.self_s`` (the span minus
traced child spans; median over traced samples), plus the counts computed
from call arguments, ``linalg.spectral_calls_per_state`` and
``trace_overhead_s`` (traced minus untraced median run_s).

Correctness: a sample fails on a non-zero exit, a traceback, or a record that
breaks an invariant (command, seed and config echo the argv; the expected
metrics are present, finite and in range; every asserted metric is
satisfied and ``satisfied`` agrees with ``value <= bound + 1e-12``). At the
default seed the metrics must also match ``reference/<workload>.json``, the
record ``aqss <argv> --seed 0`` printed when the benchmark was added, to
1e-12. All records of a run, traced or not, must be identical apart from
fields outside RECORD_KEYS (such as ``wall_time_ms``), and every traced
sample of a run must make identical call counts. fail_frac, the failed
samples over those attempted, is printed with the end-to-end metrics.

Which layer metric should move which end-to-end metric:
  channels.superoperator.self_s      run_s and peak_rss_mib on sized-d16, run_s
                                     somewhat on mc-small-d4, nothing on
                                     exact-joint1024
  random.haar_unitaries.self_s,      run_s on mc-small-d4 first, sized-d16 second
  channels.RandomUnitaryChannel.self_s
  linalg.{assert_density_matrix,     run_s on exact-joint1024 only
  trace_norm,von_neumann_entropy}.self_s,
  channels.conjugate_subsystem.self_s,
  linalg.spectral_calls_per_state
  analysis.*.self_s                  run_s on mc-small-d4 only
  import-time changes                setup_s on every workload
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

DEFAULT_SEED = 0
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0
VALUE_TOL = 1e-12
# Record fields that must repeat across samples of one run; timing fields vary.
RECORD_KEYS = ("command", "config", "metrics", "version", "seed")

DISTANCE = (0.0, 2.0)
# Each workload stresses different layers (BENCHMARK.json says why): sized-d16
# is dominated by the superoperator build, exact-joint1024 by dense spectral
# work at D=1024, mc-small-d4 by per-call overhead over many small calls.
WORKLOADS = {
    "sized-d16": {
        "argv": ["aqss-demo", "--d", "16", "--trials", "2"],
        "config": {"command": "aqss-demo", "d": 16, "m": 2, "trials": 2, "perfect": False},
        "ranges": {
            "round_trip_distance_max": DISTANCE,
            "exterior_distance_max": DISTANCE,
            "exterior_entropy_deficit_max_bits": (-1e-9, 8.0),
            "interior_alice_distance_max": DISTANCE,
        },
    },
    "exact-joint1024": {
        "argv": ["multiparty", "--d", "4", "--m", "5", "--perfect", "--trials", "1"],
        "config": {"command": "multiparty", "d": 4, "m": 5, "trials": 1, "perfect": True},
        "ranges": {
            "round_trip_distance_max": DISTANCE,
            "exterior_distance_max": DISTANCE,
            "collusion_victim_distance_max": DISTANCE,
        },
    },
    "mc-small-d4": {
        "argv": [
            "bound-sweep", "--d", "4", "--n", "64", "--trials", "2000",
            "--family", "separable",
        ],
        "config": {"command": "bound-sweep", "d": 4, "m": 2, "trials": 2000, "perfect": False},
        "ranges": {
            "mean_trace_distance": DISTANCE,
            "stderr": DISTANCE,
            "jensen_mean_vs_rms": DISTANCE,
        },
    },
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _nproc():
    return len(os.sched_getaffinity(0))


def _child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(_nproc())
    return env


def _spawn(mode, argv, deadline):
    """Run one child; return (envelope or None, problem or None, spawn time)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, SRC, mode, *argv],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out", spawned
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr[-2000:]}", spawned
    if "Traceback" in proc.stderr:
        return None, f"traceback on stderr: {proc.stderr[-2000:]}", spawned
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None, spawned
    except (IndexError, ValueError):
        return None, f"unreadable child output: {proc.stdout[-500:]!r}", spawned


def _check_record(workload, seed, record, reference):
    """Problems with one result record, as a list of strings."""
    spec = WORKLOADS[workload]
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    problems = []
    if record.get("seed") != seed:
        problems.append(f"record seed {record.get('seed')!r} != {seed}")
    config = record.get("config", {})
    for key, want in spec["config"].items():
        if config.get(key) != want:
            problems.append(f"config {key} = {config.get(key)!r}, expected {want!r}")
    if record.get("command") != spec["config"]["command"]:
        problems.append(f"command {record.get('command')!r}")
    metrics = record.get("metrics", [])
    names = [m.get("name") for m in metrics]
    if names != list(spec["ranges"]):
        problems.append(f"metric names {names} != {list(spec['ranges'])}")
        return problems
    for metric in metrics:
        name, value = metric["name"], metric["value"]
        lo, hi = spec["ranges"][name]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name} = {value!r} is not finite")
            continue
        if not lo <= value <= hi:
            problems.append(f"{name} = {value!r} outside [{lo}, {hi}]")
        if metric.get("asserted") and not metric.get("satisfied"):
            problems.append(f"asserted metric {name} not satisfied")
        if metric.get("bound") is not None and metric.get("satisfied") is not None:
            if metric["satisfied"] != (value <= metric["bound"] + VALUE_TOL):
                problems.append(f"{name}: satisfied flag disagrees with value and bound")
    if reference is not None:
        for got, want in zip(metrics, reference["metrics"]):
            for key in ("value", "bound"):
                a, b = got.get(key), want.get(key)
                if (a is None) != (b is None) or (
                    a is not None and abs(a - b) > VALUE_TOL * max(1.0, abs(b))
                ):
                    problems.append(f"{got['name']}.{key} = {a!r}, reference {b!r}")
            for key in ("satisfied", "asserted"):
                if got.get(key) != want.get(key):
                    problems.append(f"{got['name']}.{key} differs from the reference")
    return problems


def _sample(workload, seed, mode, deadline, reference):
    argv = WORKLOADS[workload]["argv"] + ["--seed", str(seed)]
    envelope, problem, spawned = _spawn(mode, argv, deadline)
    sample = {"mode": mode, "problems": [problem] if problem else []}
    if envelope is None:
        return sample
    sample.update(
        setup_s=envelope["imported_at"] - spawned,
        run_s=envelope["run_s"],
        peak_rss_mib=envelope["peak_rss_mib"],
        trace=envelope.get("trace"),
    )
    if envelope.get("traceback"):
        sample["problems"].append(envelope["traceback"])
        return sample
    if envelope["exit_code"] != 0:
        sample["problems"].append(f"aqss exited {envelope['exit_code']}")
    try:
        record = json.loads(envelope["output"])
        sample["problems"] += _check_record(workload, seed, record, reference)
        sample["record"] = {key: record.get(key) for key in RECORD_KEYS}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        sample["problems"].append(f"malformed aqss output: {exc!r}")
    return sample


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "aqss")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _environment(child_info):
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        **child_info,
        "nproc": _nproc(),
        "blas_threads": int(_child_env()["OPENBLAS_NUM_THREADS"]),
        "cpu_model": _cpu_model(),
    }


def _load_reference(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return (result fields, detail for the log)."""
    reference = _load_reference(workload, seed)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups = []
    child_info = None
    for _ in range(SETUP_PROBES):
        envelope, problem, spawned = _spawn("setup", [], deadline)
        if envelope is None:
            raise BenchError(f"cannot import aqss from {SRC}: {problem}")
        setups.append(envelope["imported_at"] - spawned)
        child_info = envelope["environment"]

    min_samples = 3 if trace else 1
    samples = []
    last = 0.0
    # Another sample starts only if its predicted midpoint is before the end of
    # --seconds, so a run lasts --seconds on average whatever a sample takes.
    while len(samples) < min_samples or time.monotonic() + last / 2 < start + seconds:
        now = time.monotonic()
        if now + last > deadline:
            break
        mode = "traced" if trace and len(samples) % 2 == 0 else "plain"
        samples.append(_sample(workload, seed, mode, deadline, reference))
        last = time.monotonic() - now
        if samples[-1]["problems"] == ["timed out"]:
            break

    run_problems = []
    if len(samples) < min_samples:
        run_problems.append(f"only {len(samples)} samples before the time limit")
    records = [s["record"] for s in samples if "record" in s]
    if any(r != records[0] for r in records[1:]):
        run_problems.append("records differ between samples of one run")
    traces = [s["trace"] for s in samples if s.get("trace")]
    calls = [(t["calls"], t["counts"]) for t in traces]
    if any(c != calls[0] for c in calls[1:]):
        run_problems.append("call counts differ between traced samples")

    failed = sum(1 for s in samples if s["problems"])
    timed = [s for s in samples if "run_s" in s]
    plain = [s for s in timed if s["mode"] == "plain"]
    setups += [s["setup_s"] for s in timed]
    if trace:
        metrics = _layer_metrics(traces, timed, plain)
    else:
        metrics = _end_to_end_metrics(setups, plain)
    if metrics is None:
        run_problems.append("no sample finished")
        metrics = {}
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "argv": WORKLOADS[workload]["argv"] + ["--seed", str(seed)],
        "environment": _environment(child_info),
        "samples": {
            "attempted": len(samples),
            "plain": len(plain),
            "traced": len(traces),
            "setup": len(setups),
            "run_s": [s["run_s"] for s in timed],
        },
        "fail_frac": failed / len(samples),
        "problems": run_problems + [p for s in samples for p in s["problems"]],
    }
    if traces:
        detail["counts"] = {"calls": calls[0][0], **calls[0][1]}
    return result, detail


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end_metrics(setups, plain):
    if not plain:
        return None
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_s": _metric(statistics.median(s["run_s"] for s in plain), "s"),
        "peak_rss_mib": _metric(statistics.median(s["peak_rss_mib"] for s in plain), "MiB"),
    }


def _layer_metrics(traces, timed, plain):
    if not traces or not plain:
        return None
    metrics = {}
    for name, calls in traces[0]["calls"].items():
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(t["self_s"][name] for t in traces), "s"
        )
    counts = traces[0]["counts"]
    metrics["random.haar_unitaries.unitaries"] = _metric(
        counts["random.haar_unitaries.unitaries"], "count"
    )
    metrics["channels.superoperator.gflop_computed"] = _metric(
        counts["channels.superoperator.gflop_computed"], "GFLOP"
    )
    calls = traces[0]["calls"]
    spectral = sum(
        calls[f"linalg.{name}"]
        for name in ("assert_density_matrix", "trace_norm", "von_neumann_entropy")
    )
    metrics["linalg.spectral_calls_per_state"] = _metric(
        spectral / max(1, calls["linalg.assert_density_matrix"]), "calls/state"
    )
    traced_run = statistics.median(s["run_s"] for s in timed if s["mode"] == "traced")
    plain_run = statistics.median(s["run_s"] for s in plain)
    metrics["trace_overhead_s"] = _metric(traced_run - plain_run, "s")
    return metrics


def _summary(workload, result, detail):
    lines = [
        f"{workload}: {detail['samples']['attempted']} samples "
        f"({detail['samples']['plain']} untraced, {detail['samples']['traced']} traced), "
        f"fail_frac {detail['fail_frac']:.4g} ({result['failed']}/{result['attempted']})"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "aqss", "cli.py")):
        print(f"perfbench: no aqss sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(_summary(name, result, detail))
            print(json.dumps(detail))
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
