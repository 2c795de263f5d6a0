"""Batch experiment runner with seeded reproducibility and machine-readable output.

Every invocation resolves one or more experiment configurations (comma lists
on ``--d``, ``--epsilon``, ``--n`` and ``--trials`` form a grid), runs each
point, and emits one result record per point as JSON (default) or CSV.
Before anything runs, ``_grid`` resolves and checks each point once, in grid
order, and reports the first bad value of the first bad point; every usage
error comes before any resource-guard refusal. The seed is mandatory: in
one environment, identical command lines produce byte-identical output
apart from the wall-time field; across BLAS thread counts the sums run in
another order, and the metric values agree within 1e-12.

Exit codes: 0 when every asserted bound check passed, 1 when one failed,
2 for usage errors and output that cannot be written, 3 when a resource
guard refused the run.

Each run builds only what it reads: ``main`` builds the parser of the one
command its argv names (all seven for ``--help``, an empty argv or one that
does not start with a command), and ``--perfect`` builds one exact channel
per grid point, shared by every receiver and every trial.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import __version__, analysis, linalg
from .analysis import BoundCheck
from .channels import (
    ChannelFamily,
    apply_product,
    epsilon_randomizing_distance,
    perfect_pqc,
    sample_ruc,
)
from .protocol import (
    AqssSession,
    ProtocolConfig,
    ResourceGuardError,
    audit,
    charlie_encode,
    guard,
    key_cost,
)
from .random import random_pure_state, stream

CSV_COLUMNS = (
    "command",
    "d",
    "epsilon",
    "n_A",
    "n_B",
    "trials",
    "seed",
    "metric",
    "value",
    "bound",
    "satisfied",
)

# Stream ids below this are reserved for per-trial streams inside analysis.
_CLI_STREAM_BASE = 1_000_000

EXACT_TOL = 1e-12
TWIRL_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved grid point."""

    command: str
    d: int
    epsilon: float
    n_override: int | None
    trials: int
    input_family: str
    m: int
    seed: int
    perfect: bool
    n_resolved: int  # unitaries per channel: d^2 for the exact channel, else --n or sized

    @property
    def protocol(self) -> ProtocolConfig:
        """The protocol parameters, with n_resolved unitaries per channel."""
        return ProtocolConfig(self.d, self.epsilon, self.m, n_per_channel=self.n_resolved)


@dataclass(frozen=True)
class Metric:
    """One reported quantity, optionally checked against a bound.

    Only metrics with ``asserted=True`` count toward the exit status;
    empirical observations keep their bound for context but never fail
    the run.
    """

    name: str
    value: float
    bound: float | None = None
    satisfied: bool | None = None
    asserted: bool = False

    def to_dict(self) -> dict:
        """Fields as JSON values: a non-finite value or bound becomes None (null)."""
        out = asdict(self)
        for key in ("value", "bound"):
            if out[key] is not None and not math.isfinite(out[key]):
                out[key] = None
        return out


def _checked(name: str, check: BoundCheck, asserted: bool) -> Metric:
    return Metric(name, check.observed, check.bound, check.satisfied, asserted)


def _channel_factory(cfg: ExperimentConfig) -> analysis.ChannelFactory:
    """Channel sampler of the grid point. The exact channel is deterministic
    and frozen, so one is built and handed to every receiver and trial."""
    if not cfg.perfect:
        return sample_ruc
    exact = perfect_pqc(cfg.d)
    return lambda d, n, rng: exact


def _build_family(cfg: ExperimentConfig, rng: np.random.Generator) -> ChannelFamily:
    factory = _channel_factory(cfg)
    return ChannelFamily(tuple(factory(cfg.d, cfg.n_resolved, rng) for _ in range(cfg.m)))


def _randomized(name: str, distance: float, cfg: ExperimentConfig, exact_tol: float) -> Metric:
    """Distance from the maximally mixed target, asserted to exact_tol for the
    exact channels. A sampled draw is expected, not guaranteed, to land within
    epsilon; its flag reports the draw without failing the run."""
    bound = exact_tol if cfg.perfect else cfg.epsilon
    return _checked(name, BoundCheck.compare(distance, bound), asserted=cfg.perfect)


def _run_randomize(cfg: ExperimentConfig) -> list[Metric]:
    channel = _channel_factory(cfg)(cfg.d, cfg.n_resolved, stream(cfg.seed, _CLI_STREAM_BASE))
    # Lazy, so one Haar probe is alive at a time whatever --trials says.
    probes = itertools.chain(
        (
            random_pure_state(cfg.d, stream(cfg.seed, _CLI_STREAM_BASE + 1 + i))
            for i in range(cfg.trials)
        ),
        (np.diag(e) for e in np.eye(cfg.d, dtype=complex)),  # basis projectors
        [linalg.maximally_mixed(cfg.d)],
    )
    distances = [epsilon_randomizing_distance(channel, rho) for rho in probes]
    return [
        _randomized("max_randomizing_distance", max(distances), cfg, TWIRL_TOL),
        Metric(name="mean_randomizing_distance", value=float(np.mean(distances))),
        Metric(name="n_unitaries", value=float(channel.n)),
    ]


def _session_rounds(cfg: ExperimentConfig) -> Iterator[AqssSession]:
    """One channel family for the grid point; fresh keys and plaintext per round."""
    family = _build_family(cfg, stream(cfg.seed, _CLI_STREAM_BASE))
    config = cfg.protocol
    for i in range(cfg.trials):
        rng = stream(cfg.seed, _CLI_STREAM_BASE + 1 + i)
        plaintext = analysis.draw_input(cfg.input_family, cfg.d, rng, cfg.m)
        yield charlie_encode(config, plaintext, rng, channels=family)


def _run_aqss_demo(cfg: ExperimentConfig) -> list[Metric]:
    round_trip, exterior, deficit, interior = audit(_session_rounds(cfg), victims=[0])
    return [
        _checked(
            "round_trip_distance_max", BoundCheck.compare(round_trip, EXACT_TOL), asserted=True
        ),
        _randomized("exterior_distance_max", exterior, cfg, EXACT_TOL),
        Metric(name="exterior_entropy_deficit_max_bits", value=deficit),
        _randomized("interior_alice_distance_max", interior, cfg, TWIRL_TOL),
    ]


def _run_bound_sweep(cfg: ExperimentConfig) -> list[Metric]:
    stats, check = analysis.mc_expected_trace_distance(
        cfg.d,
        cfg.n_resolved,
        cfg.n_resolved,
        cfg.input_family,
        cfg.trials,
        cfg.seed,
        channel_factory=_channel_factory(cfg),
    )
    return [
        # The target d/sqrt(n_A n_B) is stated for product pure inputs;
        # the other families are measured, never asserted.
        _checked("mean_trace_distance", check, asserted=cfg.input_family == "product_pure"),
        Metric(name="stderr", value=stats.stderr),
        _checked("jensen_mean_vs_rms", analysis.jensen_chain_check(stats), asserted=True),
    ]


def _run_purity_check(cfg: ExperimentConfig) -> list[Metric]:
    stats, check = analysis.mc_purity(
        cfg.d, cfg.n_resolved, cfg.n_resolved, cfg.trials, cfg.seed,
        channel_factory=_channel_factory(cfg),
    )
    return [
        Metric(name="mean_purity", value=stats.mean),
        Metric(name="stderr", value=stats.stderr),
        _checked("purity_identity_deviation", check, asserted=True),
        Metric(
            name="purity_identity_value",
            value=analysis.purity_second_moment(cfg.d, cfg.n_resolved, cfg.n_resolved),
        ),
    ]


def _run_key_cost(cfg: ExperimentConfig) -> list[Metric]:
    report = key_cost(cfg.protocol)
    return [
        Metric(name="perfect_bits", value=report.perfect_bits),
        Metric(name="approx_bits", value=report.approx_bits),
        Metric(name="ratio", value=report.ratio),
    ]


def _run_locc_test(cfg: ExperimentConfig) -> list[Metric]:
    family = _build_family(cfg, stream(cfg.seed, _CLI_STREAM_BASE))
    plaintext = analysis.draw_input(cfg.input_family, cfg.d, stream(cfg.seed, _CLI_STREAM_BASE + 1))
    view = apply_product(family, plaintext)
    mixed = linalg.maximally_mixed(cfg.d * cfg.d)
    dims = (cfg.d, cfg.d)
    worst = analysis.locc_distinguishability(view, mixed, dims, cfg.trials, cfg.seed)
    self_dist = analysis.locc_distinguishability(view, view, dims, cfg.trials, cfg.seed)
    return [
        _randomized("locc_max_total_variation", worst, cfg, TWIRL_TOL),
        _checked("locc_self_distance", BoundCheck.compare(self_dist, EXACT_TOL), asserted=True),
    ]


def _run_multiparty(cfg: ExperimentConfig) -> list[Metric]:
    round_trip, exterior, _, collusion = audit(_session_rounds(cfg), victims=range(cfg.m))
    return [
        _checked(
            "round_trip_distance_max", BoundCheck.compare(round_trip, EXACT_TOL), asserted=True
        ),
        _randomized("exterior_distance_max", exterior, cfg, EXACT_TOL),
        _randomized("collusion_victim_distance_max", collusion, cfg, TWIRL_TOL),
    ]


# name -> (runner, default --trials, fewest --trials, help)
COMMANDS = {
    "randomize": (
        _run_randomize, 20, 1, "sample one channel and report its worst randomizing distance"
    ),
    "aqss-demo": (
        _run_aqss_demo, 5, 1,
        "run the two-receiver protocol end to end and report security metrics",
    ),
    "bound-sweep": (
        _run_bound_sweep, 100, analysis.MIN_TRACE_DISTANCE_TRIALS,
        "Monte Carlo mean trace distance of product-channel outputs vs its target",
    ),
    "purity-check": (
        _run_purity_check, 200, analysis.MIN_PURITY_TRIALS,
        "Monte Carlo mean output purity vs the second-moment identity",
    ),
    "key-cost": (
        _run_key_cost, 1, 1, "secret-bit accounting of the exact vs approximate schemes"
    ),
    "locc-test": (
        _run_locc_test, 50, 1, "local-measurement distinguishability of the outsider's view"
    ),
    "multiparty": (
        _run_multiparty, 3, 1,
        "m-receiver protocol round trip, exterior view and collusion margins",
    ),
}

# Commands that read --family and --m; no other command accepts them, so no
# record reports an option the run ignored. Every command but key-cost reads
# --trials and --perfect.
_FAMILY_COMMANDS = ("aqss-demo", "bound-sweep", "locc-test")
_RECEIVER_COMMANDS = ("multiparty", "key-cost")


def run(cfg: ExperimentConfig) -> dict:
    """Execute one grid point; the self-describing record is the dict that
    ``render_json`` prints, with the command and seed repeated at its top."""
    start = time.perf_counter()
    metrics = COMMANDS[cfg.command][0](cfg)
    return {
        "command": cfg.command,
        "config": asdict(cfg),
        "metrics": metrics,
        "wall_time_ms": (time.perf_counter() - start) * 1000.0,
        "version": __version__,
        "seed": cfg.seed,
    }


def _comma_list(text: str, parse, what: str) -> list:
    try:
        values = [parse(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _comma_list(text, int, "integers")


def _float_list(text: str) -> list[float]:
    return _comma_list(text, float, "numbers")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every command's, or only the named command's.

    A one-command parser spells all seven commands in its usage line, so its
    errors read as the full parser's. The full parser leaves the metavar
    unset, because argparse names the argument ``command`` in the errors
    about a missing or unknown command, which only it can report.
    """
    parser = argparse.ArgumentParser(
        prog="aqss",
        description=(
            "Seeded experiment runner for state sharing over random unitary "
            "channels. Comma lists on --d/--epsilon/--n/--trials run a grid."
        ),
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name in COMMANDS if command is None else (command,):
        p = sub.add_parser(name, help=COMMANDS[name][3])
        p.add_argument(
            "--d", type=_int_list, required=True,
            help="qudit dimension (comma list for a grid)",
        )
        p.add_argument(
            "--epsilon", type=_float_list, default=[0.5],
            help="security parameter in (0,1), default 0.5",
        )
        p.add_argument(
            "--n", type=_int_list, default=None,
            help="override unitaries per channel (default ceil(150 d/epsilon^2))",
        )
        if name != "key-cost":
            p.add_argument(
                "--trials", type=_int_list, default=None,
                help="Monte Carlo trials / protocol rounds / measurement settings / "
                "probe states, depending on the command",
            )
        if name in _FAMILY_COMMANDS:
            p.add_argument(
                "--family", choices=[f.replace("_", "-") for f in analysis.INPUT_FAMILIES],
                default="product-pure", help="input state family",
            )
        if name in _RECEIVER_COMMANDS:
            p.add_argument(
                "--m", type=int, default=3 if name == "multiparty" else 2,
                help="number of receivers",
            )
        p.add_argument(
            "--seed", type=int, required=True,
            help="master seed (recorded in every result)",
        )
        p.add_argument("--format", choices=["json", "csv"], default="json", help="output format")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if name != "key-cost":
            p.add_argument(
                "--perfect", action="store_true",
                help="use the exact generalized-Pauli channel instead of sampling",
            )
    return parser


def _grid(args: argparse.Namespace) -> list[ExperimentConfig]:
    """Every grid point, resolved and checked once, in grid order; ValueError
    names the first bad value of the first bad point."""
    command, m, seed = args.command, getattr(args, "m", 2), args.seed
    _, default_trials, fewest, _ = COMMANDS[command]
    family = getattr(args, "family", "product-pure").replace("-", "_")
    perfect = getattr(args, "perfect", False)
    grid = []
    for d, eps, n, t in itertools.product(
        args.d, args.epsilon, args.n or [None], getattr(args, "trials", None) or [default_trials]
    ):
        protocol = ProtocolConfig(d, eps, m, n_per_channel=n)  # checks d, epsilon, m and --n
        # Resolved first, so an epsilon too small to size n is named before a bad
        # --trials; the exact channel has n = d^2 unitaries whatever --n says.
        n_resolved = d * d if perfect else protocol.resolved_n
        if command == "key-cost":
            key_cost(protocol)  # its bit counts must fit a float
        if t < 1:
            raise ValueError(f"--trials must be positive, got {t}")
        if seed < 0:
            raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
        if t < fewest:
            raise ValueError(f"{command} needs at least {fewest} trials, got {t}")
        if command == "multiparty" and m < 3:
            raise ValueError(f"multiparty needs --m >= 3, got {m}")
        grid.append(ExperimentConfig(command, d, eps, n, t, family, m, seed, perfect, n_resolved))
    return grid


def render_json(records: Sequence[dict]) -> str:
    payload = records[0] if len(records) == 1 else list(records)
    return json.dumps(payload, indent=2, default=Metric.to_dict) + "\n"


def render_csv(records: Sequence[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        cfg = record["config"]
        for metric in record["metrics"]:
            writer.writerow(
                [
                    cfg["command"],
                    cfg["d"],
                    cfg["epsilon"],
                    cfg["n_resolved"],
                    cfg["n_resolved"],
                    cfg["trials"],
                    cfg["seed"],
                    metric.name,
                    repr(metric.value),
                    "" if metric.bound is None else repr(metric.bound),
                    "" if metric.satisfied is None else str(metric.satisfied).lower(),
                ]
            )
    return buffer.getvalue()


def _write(fh, text: str, close: bool) -> None:
    """Write text to fh, flush it and close it if close is set. On an OSError
    fh is closed before the error propagates: a closed stream drops its
    unwritten buffer, so no later flush retries the write."""
    try:
        fh.write(text)
        fh.flush()
        if close:
            fh.close()
    except OSError:
        with contextlib.suppress(OSError):
            fh.close()
        raise


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        try:
            grid = _grid(args)
        except ValueError as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        for cfg in grid:
            if cfg.command != "key-cost":  # pure arithmetic, any d is fine
                guard(cfg.protocol)
    except ResourceGuardError as exc:
        print(f"aqss: refused: {exc}", file=sys.stderr)
        return 3

    target = "stdout" if args.output is None else f"--output {args.output!r}"
    # Open the output before the first grid point runs, so a bad path costs nothing.
    try:
        sink = (
            contextlib.nullcontext(sys.stdout)
            if args.output is None
            else open(args.output, "w", encoding="utf-8")
        )
    except OSError as exc:
        print(f"aqss: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2

    with sink as fh:
        records = [run(cfg) for cfg in grid]
        try:
            _write(fh, render_csv(records) if args.format == "csv" else render_json(records),
                   close=args.output is not None)
        except OSError as exc:
            print(f"aqss: error: cannot write {target}: {exc.strerror}", file=sys.stderr)
            return 2
    return 0 if all(m.satisfied for r in records for m in r["metrics"] if m.asserted) else 1
