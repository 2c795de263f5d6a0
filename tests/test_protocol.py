import math

import numpy as np
import pytest

from aqss import linalg
from aqss.channels import (
    ChannelFamily,
    apply,
    apply_at,
    epsilon_randomizing_distance,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.protocol import (
    MAX_N,
    ProtocolConfig,
    ResourceGuardError,
    charlie_encode,
    collusion_attack,
    cooperate_decode,
    exterior_adversary_view,
    interior_attack_bob,
    key_cost,
    measure_exterior_view,
)
from aqss.random import (
    random_product_pure_state,
    random_pure_state,
    stream,
)


def small_config(d, n, m=2):
    return ProtocolConfig(d=d, epsilon=0.5, parties=m, n_per_channel=n)


def perfect_family(d, m=2):
    return ChannelFamily(tuple(perfect_pqc(d) for _ in range(m)))


def bipartite_states(d, count, rng):
    states = [linalg.maximally_entangled_state(d)]
    while len(states) < count:
        states.append(random_pure_state(d * d, rng))
        states.append(random_product_pure_state(d, d, rng))
    return states[:count]


@pytest.mark.parametrize("d", [2, 4])
def test_round_trip_recovers_plaintext(d):
    rng = stream(60, d)
    cfg = small_config(d, n=8)
    for plaintext in bipartite_states(d, 50, rng):
        session = charlie_encode(cfg, plaintext, rng)
        assert np.abs(cooperate_decode(session) - plaintext).max() <= 1e-12


def test_encode_preserves_purity():
    rng = stream(61)
    cfg = small_config(3, n=5)
    plaintext = random_pure_state(9, rng)
    session = charlie_encode(cfg, plaintext, rng)
    assert linalg.purity(session.ciphertext) == pytest.approx(
        linalg.purity(plaintext), abs=1e-10
    )
    linalg.assert_density_matrix(session.ciphertext)


def test_encode_with_single_key_channels():
    rng = stream(62)
    cfg = small_config(2, n=1)
    plaintext = linalg.maximally_entangled_state(2)
    session = charlie_encode(cfg, plaintext, rng)
    w = np.kron(session.channels.parts[0].unitaries[0], session.channels.parts[1].unitaries[0])
    assert np.abs(session.ciphertext - w @ plaintext @ w.conj().T).max() <= 1e-12
    assert session.key_indices == (0, 0)


def test_encode_deterministic_under_seed():
    cfg = small_config(2, n=6)
    plaintext = linalg.maximally_entangled_state(2)
    s1 = charlie_encode(cfg, plaintext, stream(63))
    s2 = charlie_encode(cfg, plaintext, stream(63))
    assert s1.key_indices == s2.key_indices
    assert np.array_equal(s1.ciphertext, s2.ciphertext)


def test_decode_with_wrong_key_disturbs():
    rng = stream(64)
    cfg = small_config(4, n=16)
    plaintext = random_pure_state(16, rng)
    session = charlie_encode(cfg, plaintext, rng)
    k0, k1 = session.key_indices
    wrong = (k0, (k1 + 5) % 16)
    recovered = cooperate_decode(session, key_indices=wrong)
    assert linalg.trace_norm(recovered - plaintext) > 0.01


def test_decode_refuses_missing_key():
    rng = stream(65)
    cfg = small_config(2, n=4)
    session = charlie_encode(cfg, linalg.maximally_entangled_state(2), rng)
    with pytest.raises(ValueError):
        cooperate_decode(session, key_indices=(session.key_indices[0], None))


def test_decode_rejects_out_of_range_key():
    rng = stream(66)
    cfg = small_config(2, n=4)
    session = charlie_encode(cfg, linalg.maximally_entangled_state(2), rng)
    with pytest.raises(ValueError):
        cooperate_decode(session, key_indices=(0, 7))


def test_exterior_view_with_perfect_channels():
    rng = stream(67)
    cfg = small_config(3, n=9)
    plaintext = random_pure_state(9, rng)
    session = charlie_encode(cfg, plaintext, rng, channels=perfect_family(3))
    view = exterior_adversary_view(session)
    assert np.abs(view - np.eye(9) / 9).max() <= 1e-12


def test_exterior_view_within_triangle_bound_for_product_plaintext():
    rng = stream(79)
    d = 2
    cfg = small_config(d, n=8)
    rho_a, rho_b = random_pure_state(d, rng), random_pure_state(d, rng)
    session = charlie_encode(cfg, np.kron(rho_a, rho_b), rng)
    eps_a = epsilon_randomizing_distance(session.channels.parts[0], rho_a)
    eps_b = epsilon_randomizing_distance(session.channels.parts[1], rho_b)
    dist = linalg.trace_norm(
        exterior_adversary_view(session) - linalg.maximally_mixed(d * d)
    )
    assert dist <= eps_a + eps_b + 1e-10


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("perfect", [True, False])
def test_exterior_measurement_matches_brute_force(d, perfect):
    rng = stream(80, d)
    cfg = small_config(d, n=6)
    channels = perfect_family(d) if perfect else None
    for plaintext in bipartite_states(d, 3, rng):
        session = charlie_encode(cfg, plaintext, rng, channels=channels)
        view = exterior_adversary_view(session)
        distance, entropy = measure_exterior_view(session)
        expected = np.linalg.svd(view - np.eye(d * d) / (d * d), compute_uv=False).sum()
        assert distance == pytest.approx(expected, abs=1e-12)
        assert entropy == pytest.approx(linalg.von_neumann_entropy(view), abs=1e-12)
        if perfect:
            assert distance <= 1e-12
            assert entropy == pytest.approx(2 * math.log2(d), abs=1e-12)


def test_key_averaging_identity_exhaustive():
    # Averaging the 16 single-key encodings equals the product-channel output.
    rng = stream(68)
    cfg = small_config(2, n=4)
    plaintext = random_pure_state(4, rng)
    session = charlie_encode(cfg, plaintext, rng)
    parts = session.channels.parts
    avg = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            w = np.kron(parts[0].unitaries[i], parts[1].unitaries[j])
            avg += w @ plaintext @ w.conj().T / 16
    assert np.abs(avg - exterior_adversary_view(session)).max() <= 1e-12


def test_interior_attack_with_perfect_alice_channel():
    rng = stream(69)
    d = 3
    cfg = small_config(d, n=d * d)
    plaintext = random_pure_state(d * d, rng)
    family = ChannelFamily((perfect_pqc(d), sample_ruc(d, 4, rng)))
    session = charlie_encode(cfg, plaintext, rng, channels=family)
    _, alice_marginal = interior_attack_bob(session)
    assert np.abs(alice_marginal - np.eye(d) / d).max() <= 1e-12


def test_interior_attack_matches_alice_channel_on_plaintext():
    # Bob's inversion of the key-averaged state is exactly (N_A x 1)(plaintext).
    rng = stream(70)
    d = 2
    cfg = small_config(d, n=4)
    plaintext = random_pure_state(4, rng)
    session = charlie_encode(cfg, plaintext, rng)
    joint, alice_marginal = interior_attack_bob(session)
    direct = apply_at(session.channels.parts[0], plaintext, (d, d), 0)
    assert np.abs(joint - direct).max() <= 1e-12
    # Bob's own side is fully unwound.
    bob_marginal = linalg.partial_trace(joint, (d, d), keep=1)
    phi_b = linalg.partial_trace(plaintext, (d, d), keep=1)
    assert np.abs(bob_marginal - phi_b).max() <= 1e-10


def test_channel_commutes_with_partial_trace_on_other_factor():
    rng = stream(71)
    d = 3
    chan = sample_ruc(d, 5, rng)
    plaintext = random_pure_state(d * d, rng)
    joint = apply_at(chan, plaintext, (d, d), 0)
    lhs = linalg.partial_trace(joint, (d, d), keep=0)
    rhs = apply(chan, linalg.partial_trace(plaintext, (d, d), keep=0))
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_interior_attack_requires_two_parties():
    rng = stream(72)
    cfg = small_config(2, n=2, m=3)
    session = charlie_encode(cfg, random_pure_state(8, rng), rng)
    with pytest.raises(ValueError):
        interior_attack_bob(session)


def test_key_cost_desk_example():
    report = key_cost(ProtocolConfig(d=8, epsilon=0.5))
    assert report.perfect_bits == pytest.approx(12.0)
    assert report.approx_bits == pytest.approx(26.0)  # 2 * ceil(log2 4800)
    assert report.ratio == pytest.approx(26.0 / 12.0)


def test_key_cost_large_dimension_accounting_only():
    report = key_cost(ProtocolConfig(d=2**20, epsilon=0.5))
    assert report.perfect_bits == pytest.approx(80.0)
    assert report.approx_bits == pytest.approx(60.0)  # 2 * ceil(log2 629145600)
    assert report.ratio == pytest.approx(0.75)


def test_key_cost_ratio_monotone_toward_half():
    ratios = [
        key_cost(ProtocolConfig(d=2**k, epsilon=0.5)).ratio for k in range(1, 31)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.7
    assert ratios[-1] > 0.5


def test_key_cost_multiparty_scaling():
    report = key_cost(ProtocolConfig(d=4, epsilon=0.5, parties=3))
    assert report.perfect_bits == pytest.approx(2 * 3 * 2)
    assert report.approx_bits == pytest.approx(3 * math.ceil(math.log2(2400)))


def test_multiparty_perfect_exterior_view():
    rng = stream(73)
    cfg = small_config(2, n=4, m=3)
    plaintext = random_pure_state(8, rng)
    session = charlie_encode(cfg, plaintext, rng, channels=perfect_family(2, m=3))
    assert np.abs(exterior_adversary_view(session) - np.eye(8) / 8).max() <= 1e-12
    assert np.abs(cooperate_decode(session) - plaintext).max() <= 1e-12


def test_multiparty_collusion_leaves_victims_mixed():
    # Every strict subset of colluders, perfect channels: the non-colluders'
    # marginals are exactly maximally mixed.
    rng = stream(74)
    m, d = 3, 2
    cfg = small_config(d, n=4, m=m)
    plaintext = random_pure_state(d**m, rng)
    session = charlie_encode(cfg, plaintext, rng, channels=perfect_family(d, m=m))
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for colluders in subsets:
        joint = collusion_attack(session, colluders)
        for victim in range(m):
            if victim in colluders:
                continue
            marginal = linalg.partial_trace(joint, (d,) * m, keep=victim)
            assert np.abs(marginal - np.eye(d) / d).max() <= 1e-12


def test_collusion_attack_validation():
    rng = stream(75)
    cfg = small_config(2, n=2, m=3)
    session = charlie_encode(cfg, random_pure_state(8, rng), rng)
    with pytest.raises(ValueError):
        collusion_attack(session, ())
    with pytest.raises(ValueError):
        collusion_attack(session, (0, 1, 2))
    with pytest.raises(ValueError):
        collusion_attack(session, (5,))


def test_resource_guard_on_joint_dimension():
    rng = stream(77)
    cfg = ProtocolConfig(d=4, epsilon=0.5, parties=6, n_per_channel=2)
    with pytest.raises(ResourceGuardError):
        charlie_encode(cfg, np.eye(4**6) / 4**6, rng)


def test_resource_guard_on_channel_size():
    # The guard runs before any channel is sampled, so this allocates nothing.
    rng = stream(77)
    cfg = ProtocolConfig(d=2, epsilon=0.5, parties=2, n_per_channel=MAX_N + 1)
    with pytest.raises(ResourceGuardError, match=f"exceeds the guard {MAX_N}"):
        charlie_encode(cfg, np.eye(4) / 4, rng)
    # The sized default counts too: 150 * 8 / 0.1^2 = 120000 unitaries.
    with pytest.raises(ResourceGuardError):
        charlie_encode(ProtocolConfig(d=8, epsilon=0.1), np.eye(64) / 64, rng)


def test_resource_guard_counts_prebuilt_channels():
    # The sized default would be 120000 unitaries, but pre-built channels are
    # not sampled: the guard counts their 4 unitaries and lets the run pass.
    rng = stream(79)
    cfg = ProtocolConfig(d=8, epsilon=0.1)
    family = ChannelFamily((sample_ruc(8, 4, rng), sample_ruc(8, 4, rng)))
    session = charlie_encode(cfg, np.eye(64) / 64, rng, channels=family)
    assert session.channels is family
    assert all(0 <= k < 4 for k in session.key_indices)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(d=1, epsilon=0.5)
    with pytest.raises(ValueError):
        ProtocolConfig(d=2, epsilon=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(d=2, epsilon=0.5, parties=1)
    cfg = ProtocolConfig(d=8, epsilon=0.5)
    assert cfg.resolved_n == required_n(8, 0.5) == 4800


def test_encode_validates_dimensions():
    rng = stream(78)
    cfg = small_config(2, n=2)
    with pytest.raises(ValueError):
        charlie_encode(cfg, np.eye(8) / 8, rng)
    with pytest.raises(ValueError):
        charlie_encode(
            cfg,
            linalg.maximally_entangled_state(2),
            rng,
            channels=perfect_family(3),
        )
