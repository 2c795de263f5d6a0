import math
import re
import tracemalloc

import numpy as np
import pytest

from aqss import linalg, protocol
from aqss.channels import (
    ChannelFamily,
    apply,
    apply_at,
    conjugate_subsystem,
    epsilon_randomizing_distance,
    output_spectrum,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.protocol import (
    MAX_N,
    ProtocolConfig,
    ResourceGuardError,
    audit,
    charlie_encode,
    collusion_attack,
    cooperate_decode,
    exterior_adversary_view,
    interior_attack_bob,
    key_cost,
)
from aqss.random import (
    haar_vectors,
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


def test_decode_refuses_fractional_key():
    rng = stream(3)
    cfg = small_config(2, n=4)
    session = charlie_encode(cfg, linalg.maximally_entangled_state(2), rng)
    k0, k1 = session.key_indices
    with pytest.raises(ValueError, match="not an integer"):
        cooperate_decode(session, key_indices=(k0, k1 + 0.7))


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
        spectrum = output_spectrum(session.channels, session.plaintext)
        distance = linalg.distance_from_mixed(spectrum)
        entropy = linalg.spectrum_entropy(spectrum)
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


@pytest.mark.parametrize(
    "m, colluders",
    [(2, (1,))] + [(3, c) for c in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else f"m{v}",
)
def test_interior_attack_matches_alice_channel_on_plaintext(m, colluders):
    # The colluders' key conjugations act on their own factors, so they cancel
    # against their inversions: conjugating, averaging the honest keys and
    # inverting gives the honest channels applied to the plaintext.
    rng = stream(70, m)
    d = 2
    dims = (d,) * m
    cfg = small_config(d, n=4, m=m)
    plaintext = random_pure_state(d**m, rng)
    session = charlie_encode(cfg, plaintext, rng)
    keys = {k: session.channels.parts[k].unitaries[session.key_indices[k]] for k in colluders}
    reference = plaintext
    for k in colluders:
        reference = conjugate_subsystem(reference, dims, k, keys[k])
    for k in range(m):
        if k not in colluders:
            reference = apply_at(session.channels.parts[k], reference, dims, k)
    for k in colluders:
        reference = conjugate_subsystem(reference, dims, k, keys[k].conj().T)
    joint = collusion_attack(session, colluders)
    assert np.abs(joint - reference).max() <= 1e-12
    # The colluders' own factors are fully unwound.
    for k in colluders:
        own = linalg.partial_trace(joint, dims, keep=k)
        assert np.abs(own - linalg.partial_trace(plaintext, dims, keep=k)).max() <= 1e-10


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
    with pytest.raises(ValueError):
        collusion_attack(session, (0.9,))


@pytest.mark.parametrize("perfect", [True, False])
def test_demo_victim_is_the_two_party_interior_attack(perfect):
    d = 3
    rng = stream(80, int(perfect))
    parts = (perfect_pqc(d),) * 2 if perfect else (sample_ruc(d, 5, rng), sample_ruc(d, 5, rng))
    config = ProtocolConfig(d=d, parties=2, n_per_channel=parts[0].n)
    for _ in range(3):
        session = charlie_encode(
            config, random_product_pure_state(d, d, rng), rng, channels=ChannelFamily(parts)
        )
        _, alice = interior_attack_bob(session)
        expected = linalg.distance_from_mixed(linalg.assert_density_matrix(alice))
        assert audit([session], victims=[0]).victim == expected


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("perfect", [True, False], ids=["perfect", "sampled"])
@pytest.mark.parametrize("plaintext", ["pure", "product"])
def test_audit_victim_matches_the_collusion_reference(m, perfect, plaintext):
    # The audit reads each victim's distance from its own channel on its
    # plaintext marginal; the reference forms the joint state of all the
    # other receivers and traces it down to the victim.
    d = 2
    dims = (d,) * m
    rng = stream(83, 2 * m + int(perfect))
    if perfect:
        family = perfect_family(d, m=m)
    else:
        family = ChannelFamily(tuple(sample_ruc(d, 3, rng) for _ in range(m)))
    if plaintext == "pure":
        rho = random_pure_state(d**m, rng)
    else:
        psi = haar_vectors(dims, 1, rng)[0]
        rho = np.outer(psi, psi.conj())
    config = ProtocolConfig(d=d, parties=m, n_per_channel=family.parts[0].n)
    session = charlie_encode(config, rho, rng, channels=family)
    for victim in range(m):
        joint = collusion_attack(session, [k for k in range(m) if k != victim])
        marginal = linalg.partial_trace(joint, dims, keep=victim)
        reference = linalg.distance_from_mixed(linalg.assert_density_matrix(marginal))
        assert abs(audit([session], victims=[victim]).victim - reference) <= 1e-12


@pytest.mark.parametrize("victim", [3, -1, 0.5])
def test_audit_refuses_a_bad_victim_before_measuring(victim, monkeypatch):
    rng = stream(84)
    session = charlie_encode(small_config(2, n=2, m=3), random_pure_state(8, rng), rng)

    def unreachable(*args):
        raise AssertionError("the round was measured before its victims were checked")

    monkeypatch.setattr(protocol, "cooperate_decode", unreachable)
    monkeypatch.setattr(protocol, "output_spectrum", unreachable)
    with pytest.raises(ValueError, match=re.escape(f"invalid subsystem {victim!r}")):
        audit([session], victims=[0, victim])


def test_audit_refuses_no_victims_before_drawing_a_round():
    def rounds():
        raise AssertionError("a round was drawn before the victims were checked")
        yield

    with pytest.raises(ValueError, match="at least one victim, got none"):
        audit(rounds(), victims=[])
    with pytest.raises(ValueError, match="at least one victim, got none"):
        audit([], victims=range(0))


def test_audit_refuses_no_sessions():
    with pytest.raises(ValueError, match="at least one session, got none"):
        audit([], victims=[0])
    with pytest.raises(ValueError, match="at least one session, got none"):
        audit(iter(()), victims=[0, 1])


def test_audit_peak_memory_does_not_grow_with_victims():
    # The audit forms no joint state (16 D^2 bytes) for a victim: each victim's
    # step holds d x d matrices only, so m victims peak like one.
    d, m = 4, 4
    rng = stream(81)
    family = ChannelFamily((perfect_pqc(d),) * m)
    config = ProtocolConfig(d=d, parties=m, n_per_channel=d * d)
    session = charlie_encode(config, random_pure_state(d**m, rng), rng, channels=family)
    joint_bytes = 16 * d ** (2 * m)
    peaks = []
    for victims in ([0], range(m)):
        tracemalloc.start()
        try:
            audit([session], victims=victims)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < joint_bytes / 2


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
