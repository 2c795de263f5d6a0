"""Monte Carlo estimators and inequality checkers for the sharing bounds.

Trials are independent: trial i draws everything it needs from its own RNG
stream (master_seed, i), and the aggregate is a deterministic ordered fold
over the trial index, so for a fixed seed a trial's value does not depend
on which process runs it. The one Monte Carlo loop spreads the trials over
the cores with :func:`aqss.random.map_trials`, whose pool the
:mod:`aqss.random` docstring describes.
"""

from __future__ import annotations

import math
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
    haar_unitaries,
    map_trials,
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

    return McStats.from_values(map_trials(_trial, trials), seed)


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
        basis_a = haar_unitaries(d_a, 1, rng)[0]
        basis_b = haar_unitaries(d_b, 1, rng)[0]
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
