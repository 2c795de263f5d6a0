"""Batch experiment runner with seeded reproducibility and machine-readable output.

Every invocation resolves one or more experiment configurations (comma lists
on ``--d``, ``--epsilon``, ``--n`` and ``--trials`` form a grid), validates
the whole grid up front, runs each point, and emits one result record per
point as JSON (default) or CSV. The seed is mandatory: identical command
lines produce byte-identical output apart from the wall-time field.

Exit codes: 0 when every asserted bound check passed, 1 when one failed,
2 for usage errors, 3 when a resource guard refused the run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import __version__, analysis, linalg, protocol
from .channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply_product,
    epsilon_randomizing_distance,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from .protocol import (
    AqssSession,
    ProtocolConfig,
    ResourceGuardError,
    charlie_encode,
    collusion_attack,
    cooperate_decode,
    exterior_adversary_view,
    interior_attack_bob,
    key_cost,
)
from .random import _haar_vectors, random_pure_state, stream

COMMANDS = (
    "randomize",
    "aqss-demo",
    "bound-sweep",
    "purity-check",
    "key-cost",
    "locc-test",
    "multiparty",
)

MAX_N = 100_000

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
    output_format: str
    output_path: str | None
    perfect: bool

    @property
    def n(self) -> int:
        """Unitaries per channel: the override, or the sized default."""
        if self.perfect:
            return self.d * self.d
        if self.n_override is not None:
            return self.n_override
        return required_n(self.d, self.epsilon)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n_resolved"] = self.n
        return out


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


@dataclass(frozen=True)
class ResultRecord:
    """Self-describing result of one grid point."""

    command: str
    config: dict
    metrics: tuple[Metric, ...]
    wall_time_ms: float
    version: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "metrics": [m.to_dict() for m in self.metrics],
            "wall_time_ms": self.wall_time_ms,
            "version": self.version,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultRecord":
        return cls(
            command=data["command"],
            config=dict(data["config"]),
            metrics=tuple(Metric(**m) for m in data["metrics"]),
            wall_time_ms=data["wall_time_ms"],
            version=data["version"],
            seed=data["seed"],
        )

    @property
    def all_asserted_satisfied(self) -> bool:
        return all(m.satisfied for m in self.metrics if m.asserted)


def _bound_metric(name: str, value: float, bound: float, asserted: bool) -> Metric:
    return Metric(
        name=name,
        value=float(value),
        bound=float(bound),
        satisfied=bool(value <= bound + analysis.BOUND_SLACK),
        asserted=asserted,
    )


def _build_channel(cfg: ExperimentConfig, rng: np.random.Generator) -> RandomUnitaryChannel:
    if cfg.perfect:
        return perfect_pqc(cfg.d)
    return sample_ruc(cfg.d, cfg.n, rng)


def _build_family(cfg: ExperimentConfig, rng: np.random.Generator) -> ChannelFamily:
    return ChannelFamily(tuple(_build_channel(cfg, rng) for _ in range(cfg.m)))


def _plaintext(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.m == 2:
        return analysis.draw_input(cfg.input_family, cfg.d, rng)
    psi = _haar_vectors((cfg.d,) * cfg.m, 1, rng)[0]
    return np.outer(psi, psi.conj())


def _run_randomize(cfg: ExperimentConfig) -> list[Metric]:
    channel = _build_channel(cfg, stream(cfg.seed, _CLI_STREAM_BASE))
    probes = [
        random_pure_state(cfg.d, stream(cfg.seed, _CLI_STREAM_BASE + 1 + i))
        for i in range(cfg.trials)
    ]
    for k in range(cfg.d):
        basis = np.zeros((cfg.d, cfg.d), dtype=complex)
        basis[k, k] = 1.0
        probes.append(basis)
    probes.append(
        linalg.partial_trace(
            linalg.maximally_entangled_state(cfg.d), (cfg.d, cfg.d), keep=1
        )
    )
    distances = [epsilon_randomizing_distance(channel, rho) for rho in probes]
    # A random draw of the sized channel is expected, not guaranteed, to land
    # within epsilon; the flag reports the draw without failing the run.
    return [
        _bound_metric(
            "max_randomizing_distance",
            max(distances),
            TWIRL_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
        Metric(name="mean_randomizing_distance", value=float(np.mean(distances))),
        Metric(name="n_unitaries", value=float(channel.n)),
    ]


def _session_rounds(cfg: ExperimentConfig) -> list[AqssSession]:
    family = _build_family(cfg, stream(cfg.seed, _CLI_STREAM_BASE))
    pcfg = ProtocolConfig(
        d=cfg.d, epsilon=cfg.epsilon, parties=cfg.m, n_per_channel=cfg.n
    )
    sessions = []
    for i in range(cfg.trials):
        rng = stream(cfg.seed, _CLI_STREAM_BASE + 1 + i)
        sessions.append(charlie_encode(pcfg, _plaintext(cfg, rng), rng, channels=family))
    return sessions


def _run_aqss_demo(cfg: ExperimentConfig) -> list[Metric]:
    sessions = _session_rounds(cfg)
    d = cfg.d
    mixed = linalg.maximally_mixed(d * d)
    round_trip = 0.0
    exterior = 0.0
    deficit = 0.0
    interior = 0.0
    for session in sessions:
        round_trip = max(
            round_trip,
            linalg.trace_norm(cooperate_decode(session) - session.plaintext),
        )
        view = exterior_adversary_view(session)
        exterior = max(exterior, linalg.trace_norm(view - mixed))
        deficit = max(deficit, analysis.entropy_deficit(view, 2 * math.log2(d)))
        _, alice = interior_attack_bob(session)
        interior = max(interior, linalg.trace_norm(alice - linalg.maximally_mixed(d)))
    return [
        _bound_metric("round_trip_distance_max", round_trip, EXACT_TOL, asserted=True),
        _bound_metric(
            "exterior_distance_max",
            exterior,
            EXACT_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
        Metric(name="exterior_entropy_deficit_max_bits", value=deficit),
        _bound_metric(
            "interior_alice_distance_max",
            interior,
            TWIRL_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
    ]


def _run_bound_sweep(cfg: ExperimentConfig) -> list[Metric]:
    factory = (lambda d, n, rng: perfect_pqc(d)) if cfg.perfect else sample_ruc
    stats, check = analysis.mc_expected_trace_distance(
        cfg.d,
        cfg.n,
        cfg.n,
        cfg.input_family,
        cfg.trials,
        cfg.seed,
        channel_factory=factory,
    )
    jensen = analysis.jensen_chain_check(stats)
    return [
        Metric(
            name="mean_trace_distance",
            value=stats.mean,
            bound=check.bound,
            satisfied=check.satisfied,
            # The target d/sqrt(n_A n_B) is stated for product pure inputs;
            # the other families are measured, never asserted.
            asserted=cfg.input_family == "product_pure",
        ),
        Metric(name="stderr", value=stats.stderr),
        _bound_metric("jensen_mean_vs_rms", jensen.observed, jensen.bound, asserted=True),
    ]


def _run_purity_check(cfg: ExperimentConfig) -> list[Metric]:
    factory = (lambda d, n, rng: perfect_pqc(d)) if cfg.perfect else sample_ruc
    stats, check = analysis.mc_purity(
        cfg.d, cfg.n, cfg.n, cfg.trials, cfg.seed, channel_factory=factory
    )
    return [
        Metric(name="mean_purity", value=stats.mean),
        Metric(name="stderr", value=stats.stderr),
        Metric(
            name="purity_identity_deviation",
            value=check.observed,
            bound=check.bound,
            satisfied=check.satisfied,
            asserted=True,
        ),
        Metric(
            name="purity_identity_value",
            value=analysis.purity_second_moment(cfg.d, cfg.n, cfg.n),
        ),
    ]


def _run_key_cost(cfg: ExperimentConfig) -> list[Metric]:
    report = key_cost(
        ProtocolConfig(
            d=cfg.d, epsilon=cfg.epsilon, parties=cfg.m, n_per_channel=cfg.n_override
        )
    )
    return [
        Metric(name="perfect_bits", value=report.perfect_bits),
        Metric(name="approx_bits", value=report.approx_bits),
        Metric(name="ratio", value=report.ratio),
    ]


def _run_locc_test(cfg: ExperimentConfig) -> list[Metric]:
    family = _build_family(cfg, stream(cfg.seed, _CLI_STREAM_BASE))
    plaintext = _plaintext(cfg, stream(cfg.seed, _CLI_STREAM_BASE + 1))
    view = apply_product(family, plaintext)
    mixed = linalg.maximally_mixed(cfg.d * cfg.d)
    dims = (cfg.d, cfg.d)
    worst = analysis.locc_distinguishability(view, mixed, dims, cfg.trials, cfg.seed)
    self_dist = analysis.locc_distinguishability(view, view, dims, cfg.trials, cfg.seed)
    return [
        _bound_metric(
            "locc_max_total_variation",
            worst,
            TWIRL_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
        _bound_metric("locc_self_distance", self_dist, EXACT_TOL, asserted=True),
    ]


def _run_multiparty(cfg: ExperimentConfig) -> list[Metric]:
    sessions = _session_rounds(cfg)
    d, m = cfg.d, cfg.m
    mixed = linalg.maximally_mixed(d**m)
    single = linalg.maximally_mixed(d)
    round_trip = 0.0
    exterior = 0.0
    collusion = 0.0
    for session in sessions:
        round_trip = max(
            round_trip,
            linalg.trace_norm(cooperate_decode(session) - session.plaintext),
        )
        exterior = max(
            exterior, linalg.trace_norm(exterior_adversary_view(session) - mixed)
        )
        for victim in range(m):
            joint = collusion_attack(
                session, colluders=[k for k in range(m) if k != victim]
            )
            marginal = linalg.partial_trace(joint, (d,) * m, keep=victim)
            collusion = max(collusion, linalg.trace_norm(marginal - single))
    return [
        _bound_metric("round_trip_distance_max", round_trip, EXACT_TOL, asserted=True),
        _bound_metric(
            "exterior_distance_max",
            exterior,
            EXACT_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
        _bound_metric(
            "collusion_victim_distance_max",
            collusion,
            TWIRL_TOL if cfg.perfect else cfg.epsilon,
            asserted=cfg.perfect,
        ),
    ]


_RUNNERS = {
    "randomize": _run_randomize,
    "aqss-demo": _run_aqss_demo,
    "bound-sweep": _run_bound_sweep,
    "purity-check": _run_purity_check,
    "key-cost": _run_key_cost,
    "locc-test": _run_locc_test,
    "multiparty": _run_multiparty,
}

_DEFAULT_TRIALS = {
    "randomize": 20,
    "aqss-demo": 5,
    "bound-sweep": 100,
    "purity-check": 200,
    "key-cost": 1,
    "locc-test": 50,
    "multiparty": 3,
}


def run(cfg: ExperimentConfig) -> ResultRecord:
    """Execute one grid point and wrap the metrics in a self-describing record."""
    start = time.perf_counter()
    metrics = _RUNNERS[cfg.command](cfg)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return ResultRecord(
        command=cfg.command,
        config=cfg.to_dict(),
        metrics=tuple(metrics),
        wall_time_ms=wall_ms,
        version=__version__,
        seed=cfg.seed,
    )


def _guard(cfg: ExperimentConfig) -> None:
    """Refuse grid points whose dense-matrix work exceeds desk scale."""
    if cfg.command == "key-cost":
        return  # pure arithmetic, any d is fine
    joint = cfg.d**cfg.m if cfg.command in ("aqss-demo", "multiparty") else cfg.d * cfg.d
    if joint > protocol.MAX_JOINT_DIM:
        raise ResourceGuardError(
            f"joint dimension {joint} exceeds the guard "
            f"{protocol.MAX_JOINT_DIM} (d={cfg.d}, m={cfg.m})"
        )
    if cfg.n > MAX_N:
        raise ResourceGuardError(f"n = {cfg.n} exceeds the guard {MAX_N}")


def _validate(cfg: ExperimentConfig, parser: argparse.ArgumentParser) -> None:
    if cfg.d < 2:
        parser.error(f"--d must be >= 2, got {cfg.d}")
    if not 0.0 < cfg.epsilon < 1.0:
        parser.error(f"--epsilon must lie in (0, 1), got {cfg.epsilon}")
    if cfg.n_override is not None and cfg.n_override < 1:
        parser.error(f"--n must be positive, got {cfg.n_override}")
    if cfg.trials < 1:
        parser.error(f"--trials must be positive, got {cfg.trials}")
    if cfg.seed < 0:
        parser.error(f"--seed must be a nonnegative integer, got {cfg.seed}")
    if cfg.m < 2:
        parser.error(f"--m must be >= 2, got {cfg.m}")
    if cfg.command == "bound-sweep" and cfg.trials < 10:
        parser.error(f"bound-sweep needs at least 10 trials, got {cfg.trials}")
    if cfg.command == "purity-check" and cfg.trials < 30:
        parser.error(f"purity-check needs at least 30 trials, got {cfg.trials}")
    if cfg.command == "multiparty" and cfg.m < 3:
        parser.error(f"multiparty needs --m >= 3, got {cfg.m}")
    if (
        cfg.command in ("randomize", "aqss-demo", "bound-sweep", "purity-check", "locc-test")
        and cfg.m != 2
    ):
        parser.error(f"{cfg.command} is bipartite; --m is fixed at 2")


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqss",
        description=(
            "Seeded experiment runner for state sharing over random unitary "
            "channels. Comma lists on --d/--epsilon/--n/--trials run a grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "randomize": "sample one channel and report its worst randomizing distance",
        "aqss-demo": "run the two-receiver protocol end to end and report security metrics",
        "bound-sweep": "Monte Carlo mean trace distance of product-channel outputs vs its target",
        "purity-check": "Monte Carlo mean output purity vs the second-moment identity",
        "key-cost": "secret-bit accounting of the exact vs approximate schemes",
        "locc-test": "local-measurement distinguishability of the outsider's view",
        "multiparty": "m-receiver protocol round trip, exterior view and collusion margins",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
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
        p.add_argument(
            "--trials", type=_int_list, default=None,
            help="Monte Carlo trials / protocol rounds / measurement settings / "
            "probe states, depending on the command",
        )
        p.add_argument(
            "--family", choices=["product-pure", "separable", "max-entangled"],
            default="product-pure", help="input state family",
        )
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
        p.add_argument(
            "--perfect", action="store_true",
            help="use the exact generalized-Pauli channel instead of sampling",
        )
    return parser


def _grid(args: argparse.Namespace) -> list[ExperimentConfig]:
    ns = args.n if args.n is not None else [None]
    trials_list = args.trials if args.trials is not None else [_DEFAULT_TRIALS[args.command]]
    grid = []
    for d in args.d:
        for eps in args.epsilon:
            for n in ns:
                for trials in trials_list:
                    grid.append(
                        ExperimentConfig(
                            command=args.command,
                            d=d,
                            epsilon=eps,
                            n_override=n,
                            trials=trials,
                            input_family=args.family.replace("-", "_"),
                            m=args.m,
                            seed=args.seed,
                            output_format=args.format,
                            output_path=args.output,
                            perfect=args.perfect,
                        )
                    )
    return grid


def render_json(records: Sequence[ResultRecord]) -> str:
    payload = [r.to_dict() for r in records]
    return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"


def render_csv(records: Sequence[ResultRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        cfg = record.config
        for metric in record.metrics:
            writer.writerow(
                [
                    record.command,
                    cfg["d"],
                    cfg["epsilon"],
                    cfg["n_resolved"],
                    cfg["n_resolved"],
                    cfg["trials"],
                    record.seed,
                    metric.name,
                    repr(metric.value),
                    "" if metric.bound is None else repr(metric.bound),
                    "" if metric.satisfied is None else str(metric.satisfied).lower(),
                ]
            )
    return buffer.getvalue()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        grid = _grid(args)
        for cfg in grid:  # fail fast: the whole grid validates before any run
            _validate(cfg, parser)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        for cfg in grid:
            _guard(cfg)
    except ResourceGuardError as exc:
        print(f"aqss: refused: {exc}", file=sys.stderr)
        return 3

    # Open the output before the first grid point runs, so a bad path costs nothing.
    try:
        sink = (
            contextlib.nullcontext(sys.stdout)
            if args.output is None
            else open(args.output, "w", encoding="utf-8")
        )
    except OSError as exc:
        print(
            f"aqss: error: cannot write --output {args.output!r}: {exc.strerror}",
            file=sys.stderr,
        )
        return 2

    with sink as fh:
        records = [run(cfg) for cfg in grid]
        fh.write(render_csv(records) if args.format == "csv" else render_json(records))
    return 0 if all(r.all_asserted_satisfied for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
