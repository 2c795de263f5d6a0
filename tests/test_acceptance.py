"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured numbers (run with ``pytest -s`` or
``-rA`` to see the lines).

Criteria 3 and 4 assert a second-moment identity and the expectation bound
derived from it at desk-scale channel sizes. The identity drops the
same-channel-index cross terms and holds only for n >> d; at d=4 with n in
the tens the exact mean purity is (d+n_A-1)(d+n_B-1)/(n_A n_B d^2), far
outside the asserted window, and the trace-distance mean sits well above
d/sqrt(n_A n_B) (each single-channel output alone is at distance of order
sqrt((d-1)/n) and partial-trace contractivity forces the joint distance
above that). Both checks are kept exactly as stated and fail honestly;
the measured values are in the failure messages.
"""

import math
import time

import numpy as np
import pytest

from aqss import linalg
from aqss.analysis import (
    McStats,
    check_norm_relation,
    check_separable_2eps,
    jensen_chain_check,
    locc_distinguishability,
    mc_expected_trace_distance,
    mc_purity,
    purity_second_moment,
)
from aqss.channels import (
    ChannelFamily,
    apply,
    apply_product,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.protocol import (
    ProtocolConfig,
    charlie_encode,
    cooperate_decode,
    exterior_adversary_view,
    interior_attack_bob,
    key_cost,
)
from aqss.random import (
    random_product_pure_state,
    random_pure_state,
    stream,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")


def random_density_matrix(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w)


def test_criterion_01_perfect_baseline():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        channel = perfect_pqc(d)
        rng = stream(1001, d)
        mixed = linalg.maximally_mixed(d)
        for i in range(100):
            rho = random_pure_state(d, rng) if i % 2 else random_density_matrix(d, rng)
            worst = max(worst, linalg.trace_norm(apply(channel, rho) - mixed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"exact baseline worst distance {worst:.2e} over d=2..5, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_product_channel_equivalence():
    start = time.perf_counter()
    rng = stream(1002)
    chan_a = sample_ruc(2, 3, rng)
    chan_b = sample_ruc(2, 3, rng)
    rho = random_pure_state(4, rng)
    brute = np.zeros((4, 4), dtype=complex)
    for pa, ua in zip(chan_a.probs, chan_a.unitaries):
        for pb, ub in zip(chan_b.probs, chan_b.unitaries):
            w = np.kron(ua, ub)
            brute += pa * pb * w @ rho @ w.conj().T
    fast = apply_product(ChannelFamily((chan_a, chan_b)), rho)
    dev = np.abs(fast - brute).max()
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-12 and elapsed < 1.0
    report(2, ok, f"factor-sequential vs 9-term double sum, dev {dev:.2e}, {elapsed:.2f}s")
    assert dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_purity_identity():
    start = time.perf_counter()
    stats, check = mc_purity(4, 32, 32, trials=200, seed=1003)
    target = purity_second_moment(4, 32, 32)
    elapsed = time.perf_counter() - start
    ok = check.satisfied and elapsed < 60.0
    report(
        3,
        ok,
        f"mean purity {stats.mean:.7f} vs identity {target:.7f}, "
        f"|dev| {check.observed:.5f} vs 5*stderr {check.bound:.5f}, {elapsed:.2f}s",
    )
    assert elapsed < 60.0
    assert check.satisfied, (
        f"mean purity {stats.mean:.7f} deviates from {target:.7f} by "
        f"{check.observed:.5f} > 5*stderr = {check.bound:.5f} "
        f"(exact second moment at this size is "
        f"{(4 + 32 - 1) ** 2 / (32 * 32 * 16):.7f})"
    )


def test_criterion_04_expectation_bound():
    start = time.perf_counter()
    stats, check = mc_expected_trace_distance(
        4, 64, 64, "product_pure", trials=100, seed=1004
    )
    elapsed = time.perf_counter() - start
    ok = check.satisfied and elapsed < 120.0
    report(
        4,
        ok,
        f"mean trace distance {stats.mean:.5f} vs bound {check.bound:.5f}, {elapsed:.2f}s",
    )
    assert elapsed < 120.0
    assert check.satisfied, (
        f"mean trace distance {stats.mean:.5f} exceeds d/sqrt(n_A n_B) = "
        f"{check.bound:.5f}; a single channel output alone sits at distance "
        f"~sqrt((d-1)/n) = {math.sqrt(3 / 64):.3f} and the joint distance "
        f"cannot drop below the single-channel one"
    )


def test_criterion_05_sizing_constant():
    n = required_n(8, 0.5)
    bound = 8 / math.sqrt(n * n)
    ok = n == 4800 and abs(bound - 0.5**2 / 150) <= 1e-12
    report(5, ok, f"required_n(8,0.5) = {n}, bound at sized n = {bound:.7f}")
    assert n == 4800
    assert bound == pytest.approx(0.0016667, abs=5e-8)
    assert bound == pytest.approx(0.5**2 / 150, abs=1e-12)


def test_criterion_06_protocol_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 4):
        cfg = ProtocolConfig(d=d, epsilon=0.5, parties=2, n_per_channel=8)
        rng = stream(1006, d)
        states = [linalg.maximally_entangled_state(d)]
        while len(states) < 50:
            states.append(random_pure_state(d * d, rng))
            states.append(random_product_pure_state(d, d, rng))
        for plaintext in states[:50]:
            session = charlie_encode(cfg, plaintext, rng)
            worst = max(
                worst, np.abs(cooperate_decode(session) - plaintext).max()
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(6, ok, f"round-trip worst entrywise dev {worst:.2e} at d=2,4, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_07_interior_attack():
    start = time.perf_counter()
    # Exact part: perfect channel on the first receiver's side.
    worst_exact = 0.0
    for d in (2, 3):
        cfg = ProtocolConfig(d=d, epsilon=0.5, parties=2, n_per_channel=d * d)
        rng = stream(1007, d)
        family = ChannelFamily((perfect_pqc(d), sample_ruc(d, 4, rng)))
        session = charlie_encode(cfg, random_pure_state(d * d, rng), rng, channels=family)
        _, alice = interior_attack_bob(session)
        worst_exact = max(
            worst_exact, linalg.trace_norm(alice - linalg.maximally_mixed(d))
        )
    # Empirical part: sampled channels at the sized n.
    d, n = 8, 4800
    cfg = ProtocolConfig(d=d, epsilon=0.5, parties=2, n_per_channel=n)
    rng = stream(1007)
    family = ChannelFamily((sample_ruc(d, n, rng), sample_ruc(d, n, rng)))
    worst_sampled = 0.0
    for i in range(20):
        round_rng = stream(1007, 100 + i)
        session = charlie_encode(
            cfg, random_product_pure_state(d, d, round_rng), round_rng, channels=family
        )
        _, alice = interior_attack_bob(session)
        worst_sampled = max(
            worst_sampled, linalg.trace_norm(alice - linalg.maximally_mixed(d))
        )
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-10 and worst_sampled <= 0.5 and elapsed < 120.0
    report(
        7,
        ok,
        f"victim marginal: exact part {worst_exact:.2e}, sampled d=8 n=4800 part "
        f"{worst_sampled:.4f} (bound 0.5), {elapsed:.2f}s",
    )
    assert worst_exact <= 1e-10
    assert worst_sampled <= 0.5
    assert elapsed < 120.0


def test_criterion_08_entropy_growth():
    start = time.perf_counter()
    d, n = 8, 4800
    cfg = ProtocolConfig(d=d, epsilon=0.5, parties=2, n_per_channel=n)
    rng = stream(1008)
    session = charlie_encode(cfg, random_product_pure_state(d, d, rng), rng)
    view = exterior_adversary_view(session)
    deficit = 2 * math.log2(d) - linalg.von_neumann_entropy(view)
    elapsed = time.perf_counter() - start
    ok = deficit <= 0.5 and elapsed < 120.0
    report(8, ok, f"outsider view entropy deficit {deficit:.4f} bits of 6, {elapsed:.2f}s")
    assert deficit <= 0.5
    assert elapsed < 120.0


def test_criterion_09_key_cost_accounting():
    report8 = key_cost(ProtocolConfig(d=8, epsilon=0.5))
    ratios = [
        key_cost(ProtocolConfig(d=2**k, epsilon=0.5)).ratio for k in range(1, 31)
    ]
    monotone = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = (
        report8.perfect_bits == 12.0
        and report8.approx_bits == 26.0
        and monotone
        and 0.5 < ratios[-1] < 0.7
    )
    report(
        9,
        ok,
        f"(perfect, approx) bits at d=8 = ({report8.perfect_bits:.0f}, "
        f"{report8.approx_bits:.0f}), ratio at d=2^30 = {ratios[-1]:.3f}, "
        f"monotone={monotone}",
    )
    assert report8.perfect_bits == 12.0
    assert report8.approx_bits == 26.0
    assert monotone
    assert 0.5 < ratios[-1] < 0.7


def test_criterion_10_theorem_guards():
    start = time.perf_counter()
    rng = stream(1010)
    # Triangle bound for separable inputs, 100 random instances.
    triangle_ok = True
    for _ in range(100):
        chan_a = sample_ruc(2, 8, rng)
        chan_b = sample_ruc(2, 8, rng)
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        decomposition = [
            (w, random_pure_state(2, rng), random_pure_state(2, rng)) for w in weights
        ]
        triangle_ok &= check_separable_2eps(chan_a, chan_b, decomposition).satisfied
    # First-vs-second moment consistency, 100 random value lists.
    jensen_ok = True
    for i in range(100):
        values = stream(1010, 200 + i).random(25)
        jensen_ok &= jensen_chain_check(McStats.from_values(values, 0)).satisfied
    # Norm relation, 100 random unit-trace states on dimensions 4 and 9.
    norm_ok = True
    for i in range(100):
        d_sq = 4 if i % 2 else 9
        norm_ok &= check_norm_relation(random_density_matrix(d_sq, rng), d_sq).satisfied
    elapsed = time.perf_counter() - start
    ok = triangle_ok and jensen_ok and norm_ok and elapsed < 30.0
    report(
        10,
        ok,
        f"triangle {triangle_ok}, first/second moment {jensen_ok}, "
        f"norm relation {norm_ok}, {elapsed:.2f}s",
    )
    assert triangle_ok
    assert jensen_ok
    assert norm_ok
    assert elapsed < 30.0


def test_criterion_11_locc_indistinguishability():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        rng = stream(1011, d)
        family = ChannelFamily((perfect_pqc(d), perfect_pqc(d)))
        view = apply_product(family, random_product_pure_state(d, d, rng))
        worst = max(
            worst,
            locc_distinguishability(
                view, linalg.maximally_mixed(d * d), (d, d), num_settings=50, seed=1011
            ),
        )
    rng = stream(1011, 9)
    rho = random_density_matrix(9, rng)
    self_dist = locc_distinguishability(rho, rho, (3, 3), num_settings=50, seed=1011)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and self_dist <= 1e-12 and elapsed < 30.0
    report(
        11,
        ok,
        f"perfect view vs mixed {worst:.2e} (d=2,3), self distance {self_dist:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert worst <= 1e-10
    assert self_dist <= 1e-12
    assert elapsed < 30.0
