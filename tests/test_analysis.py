import errno
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from aqss import linalg
from aqss import random as aqss_random
from aqss.analysis import (
    BoundCheck,
    McStats,
    check_norm_relation,
    check_separable_2eps,
    draw_input,
    jensen_chain_check,
    locc_distinguishability,
    mc_expected_trace_distance,
    mc_purity,
    product_basis_total_variation,
    purity_second_moment,
)
from aqss.channels import ChannelFamily, apply_product, perfect_pqc, required_n, sample_ruc
from aqss.random import (
    haar_unitaries,
    random_product_pure_state,
    random_pure_state,
    stream,
)


def perfect_factory(d, n, rng):
    return perfect_pqc(d)


def random_density_matrix(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w)


def ket_pair_projector(d, k):
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[k * d + k, k * d + k] = 1.0
    return rho


def test_mcstats_aggregation():
    stats = McStats.from_values([1.0, 2.0, 3.0, 4.0], master_seed=5)
    assert stats.mean == pytest.approx(2.5)
    assert stats.stderr == pytest.approx(0.6454972243679028, abs=1e-15)
    assert stats.trials == 4
    assert stats.per_trial_values == (1.0, 2.0, 3.0, 4.0)


def test_mcstats_rejects_empty():
    with pytest.raises(ValueError):
        McStats.from_values([], master_seed=0)


def test_bound_check_boundary():
    assert BoundCheck.compare(1.0 + 1e-12, 1.0).satisfied
    assert not BoundCheck.compare(1.0 + 3e-12, 1.0).satisfied
    check = BoundCheck.compare(0.25, 1.0)
    assert check.observed == 0.25
    assert check.bound == 1.0


def test_draw_input_families():
    rng = stream(80)
    for family in ("product_pure", "separable", "max_entangled"):
        rho = draw_input(family, 3, rng)
        linalg.assert_density_matrix(rho)
        assert rho.shape == (9, 9)
    with pytest.raises(ValueError):
        draw_input("thermal", 3, rng)


def test_mc_expected_trace_distance_perfect_channels():
    stats, check = mc_expected_trace_distance(
        3, 4, 4, "product_pure", trials=10, seed=90, channel_factory=perfect_factory
    )
    assert all(v <= 1e-10 for v in stats.per_trial_values)
    assert check.satisfied


def test_mc_expected_trace_distance_bound_value_at_sized_n():
    d, eps = 4, 0.5
    n = required_n(d, eps)
    assert n == 2400
    _, check = mc_expected_trace_distance(
        d, n, n, "product_pure", trials=10, seed=91, channel_factory=perfect_factory
    )
    # d / sqrt(n_a n_b) evaluates to eps^2 / 150 at the sized n.
    assert check.bound == pytest.approx(eps**2 / 150, abs=1e-12)
    assert check.bound == pytest.approx(0.0016667, abs=1e-7)


def test_mc_expected_trace_distance_validation():
    # Bad arguments are refused before any channel is sampled.
    def recording(d, n, rng):
        sampled.append((d, n))
        return sample_ruc(d, n, rng)

    sampled = []
    with pytest.raises(ValueError, match="unknown input family 'thermal'"):
        mc_expected_trace_distance(2, 4, 4, "thermal", trials=10, seed=0, channel_factory=recording)
    with pytest.raises(ValueError, match="at least 10 trials, got 5"):
        mc_expected_trace_distance(
            2, 4, 4, "product_pure", trials=5, seed=0, channel_factory=recording
        )
    with pytest.raises(ValueError, match="at least 30 trials, got 29"):
        mc_purity(2, 4, 4, trials=29, seed=0, channel_factory=recording)
    assert sampled == []


def test_mc_expected_trace_distance_reproducible():
    a, _ = mc_expected_trace_distance(2, 8, 8, "product_pure", trials=12, seed=92)
    b, _ = mc_expected_trace_distance(2, 8, 8, "product_pure", trials=12, seed=92)
    assert a == b


def reference_trials(d, n, input_family, trials, seed, factory):
    """The estimators' trial loop written out: per trial i, stream (seed, i)
    draws channel A, channel B, then the input."""
    for trial in range(trials):
        rng = stream(seed, trial)
        family = ChannelFamily((factory(d, n, rng), factory(d, n, rng)))
        yield family, draw_input(input_family, d, rng)


@pytest.mark.parametrize("factory", [sample_ruc, perfect_factory], ids=["sampled", "perfect"])
@pytest.mark.parametrize("input_family", ["product_pure", "separable", "max_entangled"])
def test_mc_trace_distance_matches_the_svd_reference_per_trial(input_family, factory):
    d, n, trials, seed = 3, 5, 12, 107
    stats, _ = mc_expected_trace_distance(
        d, n, n, input_family, trials, seed, channel_factory=factory
    )
    expected = [
        np.linalg.svd(apply_product(family, rho) - np.eye(d * d) / (d * d), compute_uv=False).sum()
        for family, rho in reference_trials(d, n, input_family, trials, seed, factory)
    ]
    assert len(stats.per_trial_values) == trials
    assert np.abs(np.array(stats.per_trial_values) - expected).max() <= 1e-12


@pytest.mark.parametrize("factory", [sample_ruc, perfect_factory], ids=["sampled", "perfect"])
def test_mc_purity_matches_the_reference_per_trial(factory):
    d, n, trials, seed = 3, 5, 30, 108
    stats, _ = mc_purity(d, n, n, trials, seed, channel_factory=factory)
    expected = [
        np.trace(out @ out).real
        for out in (
            apply_product(family, rho)
            for family, rho in reference_trials(d, n, "product_pure", trials, seed, factory)
        )
    ]
    assert np.abs(np.array(stats.per_trial_values) - expected).max() <= 1e-12


def test_mc_purity_single_unitary_channels():
    stats, _ = mc_purity(3, 1, 1, trials=30, seed=93)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in stats.per_trial_values)


def test_mc_purity_perfect_channels():
    # Both outputs are exactly maximally mixed on dimension d^2 = 9.
    stats, _ = mc_purity(3, 9, 9, trials=30, seed=94, channel_factory=perfect_factory)
    assert all(v == pytest.approx(1 / 9, abs=1e-12) for v in stats.per_trial_values)


def test_mc_purity_matches_exact_haar_second_moment():
    # For i.i.d. Haar unitaries and a pure product input the output purity has
    # exact expectation (d + n_a - 1)(d + n_b - 1) / (n_a n_b d^2): the four
    # index groups (i=k or not) x (j=l or not) contribute 1, 1/d, 1/d and
    # 1/d^2 per term. The large-n identity 1/(n_a n_b) + 1/d^2 drops the two
    # mixed groups and is tested (and found wanting at desk scale) in the
    # acceptance suite.
    d, n = 3, 8
    exact = (d + n - 1) ** 2 / (n * n * d * d)
    stats, _ = mc_purity(d, n, n, trials=300, seed=95)
    assert abs(stats.mean - exact) <= 5 * stats.stderr


def test_mc_purity_stderr_scaling():
    s1, _ = mc_purity(4, 32, 32, trials=200, seed=71)
    s2, _ = mc_purity(4, 32, 32, trials=400, seed=71)
    ratio = s2.stderr / s1.stderr
    assert abs(ratio * math.sqrt(2) - 1.0) < 0.2


def test_purity_second_moment_value():
    assert purity_second_moment(4, 32, 32) == pytest.approx(0.0634765625, abs=1e-12)


def test_check_separable_2eps_perfect_channels():
    rng = stream(96)
    decomposition = [
        (0.5, random_pure_state(2, rng), random_pure_state(2, rng)),
        (0.5, random_pure_state(2, rng), random_pure_state(2, rng)),
    ]
    check = check_separable_2eps(perfect_pqc(2), perfect_pqc(2), decomposition)
    assert check.observed <= 1e-10
    assert check.satisfied


def test_check_separable_2eps_single_product_term():
    rng = stream(97)
    chan_a = sample_ruc(2, 8, rng)
    chan_b = sample_ruc(2, 8, rng)
    decomposition = [(1.0, random_pure_state(2, rng), random_pure_state(2, rng))]
    assert check_separable_2eps(chan_a, chan_b, decomposition).satisfied


def test_check_separable_2eps_four_term_mixture():
    rng = stream(98)
    chan_a = sample_ruc(4, 64, rng)
    chan_b = sample_ruc(4, 64, rng)
    weights = rng.dirichlet(np.ones(4))
    decomposition = [
        (w, random_pure_state(4, rng), random_pure_state(4, rng)) for w in weights
    ]
    check = check_separable_2eps(chan_a, chan_b, decomposition)
    assert check.satisfied
    assert check.observed < check.bound


def test_check_separable_2eps_rejects_bad_weights():
    rng = stream(99)
    decomposition = [(0.7, random_pure_state(2, rng), random_pure_state(2, rng))]
    with pytest.raises(ValueError):
        check_separable_2eps(perfect_pqc(2), perfect_pqc(2), decomposition)


def test_locc_identical_states():
    rng = stream(101)
    rho = random_density_matrix(9, rng)
    # One sandwich of rho - rho: exactly zero, not rounding noise.
    assert locc_distinguishability(rho, rho, (3, 3), num_settings=10, seed=1) == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_locc_perfect_view_indistinguishable_from_mixed(d):
    rng = stream(102, d)
    family = ChannelFamily((perfect_pqc(d), perfect_pqc(d)))
    view = apply_product(family, random_product_pure_state(d, d, rng))
    value = locc_distinguishability(
        view, linalg.maximally_mixed(d * d), (d, d), num_settings=50, seed=2
    )
    assert value <= 1e-10


def test_locc_orthogonal_product_states_in_computational_basis():
    # |00> vs |11> measured where they live: total variation 2.
    tv = product_basis_total_variation(
        ket_pair_projector(2, 0),
        ket_pair_projector(2, 1),
        (2, 2),
        np.eye(2, dtype=complex),
        np.eye(2, dtype=complex),
    )
    assert tv == pytest.approx(2.0, abs=1e-12)
    # The sampled maximum includes the computational baseline setting.
    worst = locc_distinguishability(
        ket_pair_projector(2, 0), ket_pair_projector(2, 1), (2, 2), 5, seed=3
    )
    assert worst == pytest.approx(2.0, abs=1e-12)


def test_locc_symmetric_and_bounded():
    rng = stream(103)
    a = random_density_matrix(4, rng)
    b = random_density_matrix(4, rng)
    ab = locc_distinguishability(a, b, (2, 2), num_settings=20, seed=4)
    ba = locc_distinguishability(b, a, (2, 2), num_settings=20, seed=4)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 2.0


def test_check_norm_relation_equality_at_mixed():
    check = check_norm_relation(linalg.maximally_mixed(9), 9)
    assert check.observed == pytest.approx(0.0, abs=1e-12)
    assert check.bound == pytest.approx(0.0, abs=1e-10)
    assert check.satisfied


def test_check_norm_relation_pure_state_values():
    # Pure state on dimension 4: the shifted matrix has eigenvalues
    # {3/4, -1/4, -1/4, -1/4}, so the left side is 1.5^2 and the right 4-1.
    rng = stream(104)
    rho = random_pure_state(4, rng)
    check = check_norm_relation(rho, 4)
    assert check.observed == pytest.approx(2.25, abs=1e-10)
    assert check.bound == pytest.approx(3.0, abs=1e-10)
    assert check.satisfied


def test_check_norm_relation_random_states():
    rng = stream(105)
    for _ in range(100):
        assert check_norm_relation(random_density_matrix(9, rng), 9).satisfied


def test_check_norm_relation_matches_svd_and_frobenius_references():
    rng = stream(109)
    for d_sq in (4, 9, 16):
        for x in (random_density_matrix(d_sq, rng), random_pure_state(d_sq, rng)):
            check = check_norm_relation(x, d_sq)
            svd_lhs = np.linalg.svd(x - np.eye(d_sq) / d_sq, compute_uv=False).sum() ** 2
            frobenius_rhs = d_sq * np.linalg.norm(x) ** 2 - 1.0
            assert check.observed == pytest.approx(svd_lhs, abs=1e-12)
            assert check.bound == pytest.approx(frobenius_rhs, abs=1e-12)


def test_check_norm_relation_validation():
    with pytest.raises(ValueError):
        check_norm_relation(np.eye(4), 4)  # trace 4
    with pytest.raises(ValueError):
        check_norm_relation(linalg.maximally_mixed(4), 9)
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        check_norm_relation(bad, 4)
    bad = np.eye(4, dtype=complex) / 4
    bad[1, 2] = bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_norm_relation(bad, 4)
    # Hermitian and unit-trace but not positive: not a density matrix.
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_norm_relation(np.diag([1.25, 0.25, -0.25, -0.25]), 4)


def test_jensen_chain_check():
    constant = McStats.from_values([0.4] * 10, master_seed=0)
    check = jensen_chain_check(constant)
    assert check.satisfied
    assert check.observed == pytest.approx(check.bound, abs=1e-12)
    two_point = McStats.from_values([0.0, 2.0], master_seed=0)
    check = jensen_chain_check(two_point)
    assert check.observed == pytest.approx(1.0)
    assert check.bound == pytest.approx(math.sqrt(2.0))
    assert check.satisfied


def test_jensen_holds_on_mc_output():
    stats, _ = mc_expected_trace_distance(2, 4, 4, "separable", trials=20, seed=106)
    assert jensen_chain_check(stats).satisfied


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes the Monte Carlo loop see n cores and returns the list of
    its forks so far. Every OpenBLAS starts at 2 threads; after the test it
    is back at 2, no child is left unreaped and the open file descriptors
    are as before (the loop's shared mapping holds none). A run that hangs
    is stopped after 60 s."""
    blas = aqss_random._openblas_threads()
    if not blas or not os.path.isdir("/proc/self/fd"):
        pytest.skip("no OpenBLAS thread setter or /proc: the loop always runs serially")
    threads = [get() for get, _ in blas]
    for _, set_threads in blas:
        set_threads(2)
    fds = len(os.listdir("/proc/self/fd"))
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forks

    def hung(signum, frame):
        raise TimeoutError("the Monte Carlo loop hung")

    monkeypatch.setattr(os, "fork", counting_fork)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield pin
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    after = [get() for get, _ in blas]
    for (_, set_threads), count in zip(blas, threads):
        set_threads(count)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert after == [2] * len(blas)


def both_estimators(factory):
    """Both estimators at trial counts that 2 and 3 workers do not divide."""
    return (
        mc_expected_trace_distance(3, 5, 5, "separable", 11, 109, channel_factory=factory)[0],
        mc_purity(3, 5, 5, 31, 110, channel_factory=factory)[0],
    )


def bits(stats):
    return np.array([stats.mean, stats.stderr, *stats.per_trial_values]).tobytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "factory", [sample_ruc, lambda d, n, rng: perfect_pqc(d)], ids=["sampled", "perfect"]
)
def test_parallel_trials_equal_the_serial_run_bit_for_bit(factory, workers, cores):
    cores(1)
    serial = both_estimators(factory)
    forks = cores(workers)
    parallel = both_estimators(factory)
    # One child per extra core for each estimator, all forked by this process.
    assert forks == [os.getpid()] * 2 * (workers - 1)
    assert [bits(s) for s in parallel] == [bits(s) for s in serial]


def test_the_loop_never_starts_more_processes_than_trials(cores):
    forks = cores(8)
    assert aqss_random.map_trials(float, 3) == [0.0, 1.0, 2.0]
    assert len(forks) == 2


def test_blas_runs_on_one_thread_while_the_blocks_run(cores):
    cores(2)
    seen = []

    def factory(d, n, rng):
        seen.append([get() for get, _ in aqss_random._openblas_threads()])
        return sample_ruc(d, n, rng)

    mc_expected_trace_distance(2, 3, 3, "product_pure", 10, 114, channel_factory=factory)
    # The caller's block, trials 0-4, samples two channels per trial.
    assert seen == [[1] * len(seen[0])] * 10


def test_every_process_of_the_pool_samples_on_one_thread(cores):
    forks = cores(2)
    # A threaded draw joins its threads, so the loop still forks afterwards.
    haar_unitaries(16, 600, stream(118))
    # 4 trials over 2 processes: the caller runs trials 0-1, its child 2-3.
    assert aqss_random.map_trials(lambda i: float(aqss_random.cores()), 4) == [1.0] * 4
    assert len(forks) == 1
    assert aqss_random.cores() == 2


def failing_at(bad_trials):
    """Sampler that refuses the trials in bad_trials; the trial index is the
    spawn key of the stream it is given."""

    def factory(d, n, rng):
        trial = rng.bit_generator.seed_seq.spawn_key[0]
        if trial in bad_trials:
            raise ValueError(f"channel for trial {trial} refused")
        return sample_ruc(d, n, rng)

    return factory


# 12 trials over 3 processes: the parent runs trials 0-3, its children 4-7 and 8-11.
@pytest.mark.parametrize("bad", [{7}, {5, 9}, {2, 9}, {10, 11}])
def test_a_failing_trial_raises_what_the_serial_run_raises(bad, cores):
    errors = []
    for n in (1, 3):
        forks = cores(n)
        with pytest.raises(ValueError) as info:
            mc_expected_trace_distance(
                2, 3, 3, "product_pure", 12, 111, channel_factory=failing_at(bad)
            )
        errors.append((type(info.value), str(info.value)))
    assert len(forks) == 2
    assert errors == [(ValueError, f"channel for trial {min(bad)} refused")] * 2


def test_a_killed_workers_block_is_rerun_in_the_caller(cores):
    parent = os.getpid()
    seen = {}  # trial -> BLAS thread counts, as seen by the caller

    def factory(d, n, rng):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        trial = rng.bit_generator.seed_seq.spawn_key[0]
        seen[trial] = [get() for get, _ in aqss_random._openblas_threads()]
        return sample_ruc(d, n, rng)

    args = (2, 3, 3, "product_pure", 10, 112)
    cores(1)
    serial, _ = mc_expected_trace_distance(*args, channel_factory=factory)
    seen.clear()
    forks = cores(2)
    rerun, _ = mc_expected_trace_distance(*args, channel_factory=factory)
    assert len(forks) == 1
    assert bits(rerun) == bits(serial)
    # The caller ran its own block, trials 0-4, and then the killed child's, 5-9.
    assert sorted(seen) == list(range(10))
    assert all(threads == [1] * len(threads) for threads in seen.values())


def test_a_failed_fork_leaves_the_blocks_without_a_child_to_the_caller(cores, monkeypatch):
    args = (2, 3, 3, "product_pure", 12, 117)
    cores(1)
    serial, _ = mc_expected_trace_distance(*args)
    forks = cores(4)
    attempts = []
    fork = os.fork

    def out_of_pids_at_the_second():
        attempts.append(os.getpid())
        if len(attempts) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", out_of_pids_at_the_second)
    # 12 trials over 4 processes: one child runs trials 3-5 and the caller
    # runs 0-2, then 6-8 and 9-11, whose forks failed or were never tried.
    parallel, _ = mc_expected_trace_distance(*args)
    assert len(attempts) == 2
    assert len(forks) == 1
    assert bits(parallel) == bits(serial)


class Unpicklable(Exception):
    """An error that pickle cannot rebuild: __init__ takes two arguments but
    the instance's args hold one message."""

    def __init__(self, trial, why):
        super().__init__(f"trial {trial}: {why}")


def test_an_unpicklable_error_reaches_the_caller_as_raised_and_unprinted(cores, capfd):
    def factory(d, n, rng):
        trial = rng.bit_generator.seed_seq.spawn_key[0]
        if trial == 7:
            raise Unpicklable(trial, "refused")
        return sample_ruc(d, n, rng)

    errors = []
    for n in (1, 2):
        # 10 trials over 2 processes: trial 7 is in the child's block, 5-9.
        forks = cores(n)
        with pytest.raises(Unpicklable) as info:
            mc_expected_trace_distance(2, 3, 3, "product_pure", 10, 115, channel_factory=factory)
        errors.append((type(info.value), str(info.value)))
    assert len(forks) == 1
    assert errors == [(Unpicklable, "trial 7: refused")] * 2
    assert capfd.readouterr().err == ""


def test_a_failed_middle_block_stops_the_children_still_running(cores):
    parent = os.getpid()

    def factory(d, n, rng):
        trial = rng.bit_generator.seed_seq.spawn_key[0]
        if trial == 5:
            raise ValueError(f"channel for trial {trial} refused")
        if trial >= 8 and os.getpid() != parent:
            # The fixture's alarm comes first: only a SIGKILL ends the last child in time.
            time.sleep(60)
            os._exit(1)
        return sample_ruc(d, n, rng)

    # 12 trials over 3 processes: the middle block, 4-7, fails in its child
    # and again in the caller's rerun while the last child, 8-11, still runs.
    forks = cores(3)
    with pytest.raises(ValueError, match="channel for trial 5 refused"):
        mc_expected_trace_distance(2, 3, 3, "product_pure", 12, 116, channel_factory=factory)
    assert len(forks) == 2


def test_the_loop_runs_serially_beside_other_threads(cores):
    forks = cores(2)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        stats, _ = mc_expected_trace_distance(2, 3, 3, "product_pure", 10, 113)
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []
    assert len(stats.per_trial_values) == 10
