"""Monte Carlo estimators and inequality checkers for the sharing bounds.

Trials are independent: trial i draws everything it needs from its own RNG
stream (master_seed, i), and the aggregate is a deterministic ordered fold
over the trial index, so for a fixed seed a trial's value does not depend
on which process runs it.

The one Monte Carlo loop maps trial index to value over
min(len(os.sched_getaffinity(0)), trials) processes. The parent forks one
child per extra core and runs the first contiguous block of trials itself;
each child runs the next block, writes its float64 values into its own
slice of one anonymous shared mapping and leaves with os._exit, so it never
flushes or closes what it inherited. A child exits 0 after writing, or 1
with nothing printed if its block fails; the exit status is the only
signal. The caller runs itself every block whose child did not exit 0 or
was never forked (fork ran out of processes), so a run returns or raises
exactly what a serial run does, traceback included. While the blocks run,
every loaded OpenBLAS (its path read from /proc/self/maps, its thread
setter found through ctypes, as threadpoolctl does) is pinned to one
thread, so the processes do not oversubscribe the cores, and the previous
count is restored afterwards. OpenBLAS shuts its thread pool down at fork,
so the children start clean. A run is therefore bit-identical to a serial
run at one BLAS thread. Where fork, sched_getaffinity or an OpenBLAS thread
setter is missing, or the caller runs other Python threads, the loop runs
serially in the caller. A child's memory is not counted in
getrusage(RUSAGE_SELF).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply_product,
    epsilon_randomizing_distance,
    output_spectrum,
    sample_ruc,
)
from .random import (
    haar_unitary,
    random_product_pure_state,
    random_separable_state,
    stream,
)

BOUND_SLACK = 1e-12

INPUT_FAMILIES = ("product_pure", "separable", "max_entangled")

# Fewest trials each estimator accepts; the CLI refuses fewer with exit 2.
MIN_TRACE_DISTANCE_TRIALS = 10
MIN_PURITY_TRIALS = 30

# A sampler (d, n, rng) -> channel; the default draws i.i.d. Haar unitaries.
ChannelFactory = Callable[[int, int, np.random.Generator], RandomUnitaryChannel]


@dataclass(frozen=True)
class McStats:
    """Aggregate of one Monte Carlo run, with the raw per-trial values."""

    mean: float
    stderr: float
    trials: int
    master_seed: int
    per_trial_values: tuple[float, ...]

    @classmethod
    def from_values(cls, values: Sequence[float], master_seed: int) -> "McStats":
        values = tuple(float(v) for v in values)
        n = len(values)
        if n == 0:
            raise ValueError("cannot aggregate an empty trial list")
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(
            mean=mean,
            stderr=stderr,
            trials=n,
            master_seed=master_seed,
            per_trial_values=values,
        )


@dataclass(frozen=True)
class BoundCheck:
    """One observed-vs-bound comparison; satisfied iff observed <= bound + 1e-12."""

    observed: float
    bound: float
    satisfied: bool

    @classmethod
    def compare(cls, observed: float, bound: float) -> "BoundCheck":
        observed = float(observed)
        bound = float(bound)
        return cls(
            observed=observed,
            bound=bound,
            satisfied=observed <= bound + BOUND_SLACK,
        )


def _check_family(family: str) -> None:
    if family not in INPUT_FAMILIES:
        raise ValueError(f"unknown input family {family!r}; expected one of {INPUT_FAMILIES}")


def draw_input(family: str, d: int, rng: np.random.Generator) -> np.ndarray:
    _check_family(family)
    if family == "product_pure":
        return random_product_pure_state(d, d, rng)
    if family == "separable":
        return random_separable_state(d, d, 4, rng)
    return linalg.maximally_entangled_state(d)


def _monte_carlo(
    d: int,
    n_a: int,
    n_b: int,
    input_family: str,
    trials: int,
    seed: int,
    channel_factory: ChannelFactory,
    minimum: int,
    measure: Callable[[ChannelFamily, np.ndarray], float],
) -> McStats:
    """The one Monte Carlo loop: trial i draws, from its own stream (seed, i),
    two fresh channels and then a fresh input from the family, and measures
    the pair. ValueError for an unknown family or fewer than `minimum`
    trials, before anything is sampled."""
    _check_family(input_family)
    if trials < minimum:
        raise ValueError(f"need at least {minimum} trials, got {trials}")

    def _trial(i: int) -> float:
        rng = stream(seed, i)
        family = ChannelFamily((channel_factory(d, n_a, rng), channel_factory(d, n_b, rng)))
        return measure(family, draw_input(input_family, d, rng))

    return McStats.from_values(_map_trials(_trial, trials), seed)


def _cores() -> int:
    """Processes the loop may use: the cores this process may run on, or 1
    where fork or the affinity query is missing or other Python threads run
    (a forked child gets no copy of them and may deadlock on their locks)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if threading.active_count() == 1 else 1


def _openblas_threads() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of every loaded OpenBLAS; empty if none.

    Opens each loaded shared object whose path in /proc/self/maps names
    OpenBLAS and, as threadpoolctl does, tries the symbol names OpenBLAS
    builds export, bare or with numpy's and scipy's scipy_ prefix and
    64-bit-integer suffix.
    """
    import ctypes

    try:
        # Line by line, holding no copy of the file; a mapping's path is its sixth field.
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return []
    names = [
        (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
        for prefix in ("", "scipy_")
        for suffix in ("", "64_", "_64")
    ]
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def _map_trials(value: Callable[[int], float], trials: int) -> list[float]:
    """[value(i) for i in range(trials)], spread in contiguous blocks over
    min(_cores(), trials) processes at one BLAS thread each, or run serially
    where that is one or no OpenBLAS thread setter is found."""
    workers = min(_cores(), trials)
    blas = _openblas_threads() if workers > 1 else []
    if not blas:
        return [value(i) for i in range(trials)]
    import mmap
    import signal

    bounds = [trials * k // workers for k in range(workers + 1)]
    blocks = list(zip(bounds[1:-1], bounds[2:]))  # the children's, in trial order
    # Each child writes its block into one anonymous shared mapping at its
    # trials' offsets; the caller keeps its own block in a list and never
    # touches that part of the mapping.
    shared = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.float64)
    previous = [get() for get, _ in blas]
    children = []  # pids of the first blocks' children, in trial order
    reaped = 0  # children[:reaped] have been waited for
    try:
        for _, set_threads in blas:
            set_threads(1)
        for lo, hi in blocks:
            try:
                pid = os.fork()
            except OSError:
                break  # out of processes: the caller runs every block left
            if pid == 0:
                # The child never returns into the caller's frames: os._exit
                # runs no finally, atexit or flush of the buffers it inherited,
                # and an error ends the child before anything prints it.
                status = 1
                try:
                    shared[lo:hi] = [value(i) for i in range(lo, hi)]
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        values = [value(i) for i in range(bounds[1])]
        for k, (lo, hi) in enumerate(blocks):
            status = 1  # a block whose fork failed has no child
            if k < len(children):
                status = os.waitpid(children[k], 0)[1]
                reaped += 1
            if status == 0:
                values += shared[lo:hi].tolist()
            else:
                # Trial i depends on i alone: the caller's run of a block whose
                # child failed, was killed or never started returns or raises
                # what the serial run does.
                values += [value(i) for i in range(lo, hi)]
    except BaseException:
        # Every earlier block has succeeded, so this error wins; stop the
        # children not yet reaped (a reaped child's pid may be reused).
        for pid in children[reaped:]:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children[reaped:]:
            os.waitpid(pid, 0)
        for (_, set_threads), count in zip(blas, previous):
            set_threads(count)
    return values


def mc_expected_trace_distance(
    d: int,
    n_a: int,
    n_b: int,
    input_family: str,
    trials: int,
    seed: int,
    channel_factory: ChannelFactory = sample_ruc,
) -> tuple[McStats, BoundCheck]:
    """Mean trace distance of fresh product-channel outputs from 1/d^2.

    Every trial draws two fresh channels and a fresh input from the family,
    so the mean estimates the expectation over the unitary ensembles. The
    returned check compares the mean against d/sqrt(n_a*n_b); that target is
    meaningful for product_pure inputs only — for the other families the
    check is informational and callers should not treat it as an assertion.
    """
    stats = _monte_carlo(
        d, n_a, n_b, input_family, trials, seed, channel_factory, MIN_TRACE_DISTANCE_TRIALS,
        lambda family, rho: linalg.distance_from_mixed(output_spectrum(family, rho)),
    )
    return stats, BoundCheck.compare(stats.mean, d / math.sqrt(n_a * n_b))


def purity_second_moment(d: int, n_a: int, n_b: int) -> float:
    """Large-n value 1/(n_a*n_b) + 1/d^2 for the expected output purity."""
    return 1.0 / (n_a * n_b) + 1.0 / (d * d)


def mc_purity(
    d: int,
    n_a: int,
    n_b: int,
    trials: int,
    seed: int,
    channel_factory: ChannelFactory = sample_ruc,
) -> tuple[McStats, BoundCheck]:
    """Mean purity of product-channel outputs on fresh product pure inputs.

    The check is the five-standard-error identity test
    |mean - (1/(n_a*n_b) + 1/d^2)| <= 5 * stderr.
    """
    stats = _monte_carlo(
        d, n_a, n_b, "product_pure", trials, seed, channel_factory, MIN_PURITY_TRIALS,
        lambda family, rho: linalg.purity(apply_product(family, rho)),
    )
    deviation = abs(stats.mean - purity_second_moment(d, n_a, n_b))
    return stats, BoundCheck.compare(deviation, 5.0 * stats.stderr)


def check_separable_2eps(
    chan_a: RandomUnitaryChannel,
    chan_b: RandomUnitaryChannel,
    decomposition: Sequence[tuple[float, np.ndarray, np.ndarray]],
) -> BoundCheck:
    """Triangle-inequality bound for an explicitly separable input.

    Given the input sum_i p_i rho_A,i (x) rho_B,i, the product-channel
    output must be within eps_A + eps_B of 1/d^2, where eps_A is the worst
    single-factor randomizing distance over the decomposition terms (and
    likewise eps_B). Violation indicates a numerics bug, not physics.
    """
    weights = np.array([p for p, _, _ in decomposition], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"decomposition weights sum to {weights.sum()!r}, not 1")
    eps_a = max(epsilon_randomizing_distance(chan_a, rho_a) for _, rho_a, _ in decomposition)
    eps_b = max(epsilon_randomizing_distance(chan_b, rho_b) for _, _, rho_b in decomposition)
    joint = sum(p * np.kron(rho_a, rho_b) for p, rho_a, rho_b in decomposition)
    observed = linalg.distance_from_mixed(output_spectrum(ChannelFamily((chan_a, chan_b)), joint))
    return BoundCheck.compare(observed, eps_a + eps_b)


def product_basis_total_variation(
    state: np.ndarray,
    reference: np.ndarray,
    dims: tuple[int, int],
    basis_a: np.ndarray,
    basis_b: np.ndarray,
) -> float:
    """sum_ab |p_ab - q_ab| for the product projective measurement whose
    outcome vectors are the columns of basis_a (x) basis_b."""
    d_a, d_b = int(dims[0]), int(dims[1])
    if state.shape[0] != d_a * d_b or reference.shape[0] != d_a * d_b:
        raise ValueError(
            f"states of dimension {state.shape[0]}/{reference.shape[0]} do not match dims {dims}"
        )
    v = np.kron(basis_a, basis_b)
    # p - q from one sandwich of state - reference: identical states give exactly 0.
    return float(np.abs(np.real(np.diagonal(v.conj().T @ (state - reference) @ v))).sum())


def locc_distinguishability(
    state: np.ndarray,
    reference: np.ndarray,
    dims: tuple[int, int],
    num_settings: int,
    seed: int,
) -> float:
    """Worst one-round local distinguishing advantage found by sampling.

    Each setting measures both states in an independent pair of Haar-random
    local bases (product projective POVM) and accumulates the total
    variation distance of the outcome distributions; the computational basis
    is always included as a deterministic baseline setting. Returns the
    maximum over settings, a value in [0, 2].
    """
    if num_settings < 0:
        raise ValueError(f"number of settings must be nonnegative, got {num_settings}")
    d_a, d_b = int(dims[0]), int(dims[1])
    worst = product_basis_total_variation(
        state, reference, dims, np.eye(d_a, dtype=complex), np.eye(d_b, dtype=complex)
    )
    rng = stream(seed)
    for _ in range(num_settings):
        basis_a = haar_unitary(d_a, rng)
        basis_b = haar_unitary(d_b, rng)
        worst = max(
            worst,
            product_basis_total_variation(state, reference, dims, basis_a, basis_b),
        )
    return worst


def check_norm_relation(x: np.ndarray, d_sq: int) -> BoundCheck:
    """Rank-bound norm relation ||X - 1/D||_1^2 <= D tr X^2 - 1 for a density
    matrix X on dimension D = d_sq; ValueError if X is not one."""
    spectrum = linalg.assert_density_matrix(x)
    if x.shape[0] != d_sq:
        raise ValueError(f"matrix dimension {x.shape[0]} does not match d_sq={d_sq}")
    lhs = linalg.distance_from_mixed(spectrum) ** 2
    rhs = d_sq * linalg.purity(x) - 1.0
    return BoundCheck.compare(lhs, rhs)


def jensen_chain_check(mc: McStats) -> BoundCheck:
    """First-moment/second-moment consistency: mean(Y) <= sqrt(mean(Y^2))."""
    values = np.array(mc.per_trial_values, dtype=float)
    return BoundCheck.compare(values.mean(), math.sqrt(np.mean(values**2)))
