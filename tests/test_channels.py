import numpy as np
import pytest

from aqss import linalg
from aqss.channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply,
    apply_product,
    decode_with_key,
    epsilon_randomizing_distance,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.random import (
    haar_unitaries,
    random_pure_state,
    stream,
    weyl_heisenberg_operators,
)


def identity_channel(d):
    return RandomUnitaryChannel(
        dim=d, unitaries=np.eye(d, dtype=complex)[None, :, :], probs=np.array([1.0])
    )


def ket_projector(d, k):
    rho = np.zeros((d, d), dtype=complex)
    rho[k, k] = 1.0
    return rho


def test_required_n_values():
    assert required_n(8, 0.5) == 4800
    assert required_n(4, 0.25) == 9600  # 150 * 4 / 0.0625
    assert required_n(2, 0.9) == 371  # ceil of 150 * 2 / 0.81


def test_required_n_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        required_n(2, 1.0)
    with pytest.raises(ValueError):
        required_n(2, 0.0)
    with pytest.raises(ValueError):
        required_n(1, 0.5)


def test_sample_ruc_uniform_probs():
    ch = sample_ruc(3, 7, stream(1))
    assert ch.n == 7
    assert np.allclose(ch.probs, 1 / 7)


def test_sample_ruc_deterministic():
    a = sample_ruc(3, 5, stream(2))
    b = sample_ruc(3, 5, stream(2))
    assert np.array_equal(a.unitaries, b.unitaries)


def test_single_unitary_channel_is_conjugation():
    rng = stream(3)
    ch = sample_ruc(4, 1, rng)
    rho = random_pure_state(4, rng)
    u = ch.unitaries[0]
    assert linalg.trace_norm(apply(ch, rho) - u @ rho @ u.conj().T) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (3, 7), (5, 50), (8, 200)])
def test_superoperator_matches_brute_force_kron_sum(d, n):
    # n-term oracle: sum_i p_i U_i (x) conj(U_i), with non-uniform weights.
    rng = stream(47, d)
    ch = RandomUnitaryChannel(
        dim=d, unitaries=haar_unitaries(d, n, rng), probs=rng.dirichlet(np.ones(n))
    )
    brute = sum(p * np.kron(u, u.conj()) for p, u in zip(ch.probs, ch.unitaries))
    assert np.abs(ch.superoperator - brute).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_perfect_pqc_superoperator_is_completely_depolarizing(d):
    # |vec 1><vec 1| / d sends every rho to tr(rho) 1/d.
    vec_one = np.eye(d).reshape(d * d)
    expected = np.outer(vec_one, vec_one) / d
    assert np.abs(perfect_pqc(d).superoperator - expected).max() <= 1e-13


def test_apply_identity_channel():
    rng = stream(4)
    rho = random_pure_state(3, rng)
    assert np.abs(apply(identity_channel(3), rho) - rho).max() <= 1e-12


def test_apply_matches_brute_force_pauli_twirl():
    # Four-term oracle: (1/4) sum_a P_a |0><0| P_a† = 1/2.
    ops = weyl_heisenberg_operators(2)
    rho = ket_projector(2, 0)
    brute = sum(op @ rho @ op.conj().T for op in ops) / 4
    out = apply(perfect_pqc(2), rho)
    assert np.abs(out - brute).max() <= 1e-12
    assert np.abs(out - np.eye(2) / 2).max() <= 1e-12


def test_apply_fixes_maximally_mixed():
    rng = stream(5)
    ch = sample_ruc(4, 9, rng)
    mixed = linalg.maximally_mixed(4)
    assert np.abs(apply(ch, mixed) - mixed).max() <= 1e-12


def test_apply_is_linear():
    rng = stream(6)
    ch = sample_ruc(3, 6, rng)
    rho, sigma = random_pure_state(3, rng), random_pure_state(3, rng)
    mix = 0.3 * rho + 0.7 * sigma
    assert np.abs(
        apply(ch, mix) - (0.3 * apply(ch, rho) + 0.7 * apply(ch, sigma))
    ).max() <= 1e-12


def test_apply_output_invariants():
    rng = stream(7)
    for d, n in ((2, 5), (4, 16), (5, 3)):
        ch = sample_ruc(d, n, rng)
        out = apply(ch, random_pure_state(d, rng))
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(sample_ruc(3, 2, stream(8)), np.eye(4) / 4)


def test_apply_product_matches_brute_force_double_sum():
    # Nine-term oracle: sum_ij (1/9) (U_i x V_j) rho (U_i x V_j)†.
    rng = stream(2024)
    ch_a = sample_ruc(2, 3, rng)
    ch_b = sample_ruc(2, 3, rng)
    for rho in (linalg.maximally_entangled_state(2), random_pure_state(4, rng)):
        brute = np.zeros((4, 4), dtype=complex)
        for pa, ua in zip(ch_a.probs, ch_a.unitaries):
            for pb, ub in zip(ch_b.probs, ch_b.unitaries):
                w = np.kron(ua, ub)
                brute += pa * pb * w @ rho @ w.conj().T
        fast = apply_product(ChannelFamily((ch_a, ch_b)), rho)
        assert np.abs(fast - brute).max() <= 1e-12


def test_apply_product_identity_channels():
    rho = linalg.maximally_entangled_state(2)
    fam = ChannelFamily((identity_channel(2), identity_channel(2)))
    assert np.abs(apply_product(fam, rho) - rho).max() <= 1e-12


def test_apply_product_perfect_pair_twirls_entangled_input():
    # Sixteen-term brute-force twirl oracle on the maximally entangled state.
    ops = weyl_heisenberg_operators(2)
    rho = linalg.maximally_entangled_state(2)
    brute = np.zeros((4, 4), dtype=complex)
    for ua in ops:
        for ub in ops:
            w = np.kron(ua, ub)
            brute += w @ rho @ w.conj().T / 16
    fam = ChannelFamily((perfect_pqc(2), perfect_pqc(2)))
    fast = apply_product(fam, rho)
    assert np.abs(fast - brute).max() <= 1e-12
    assert np.abs(fast - np.eye(4) / 4).max() <= 1e-12


def test_apply_product_dimension_mismatch():
    fam = ChannelFamily((identity_channel(2), identity_channel(2)))
    with pytest.raises(ValueError):
        apply_product(fam, np.eye(6) / 6)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_perfect_pqc_randomizes_exactly(d):
    ch = perfect_pqc(d)
    assert ch.n == d * d
    assert np.allclose(ch.probs, 1 / (d * d))
    rng = stream(40, d)
    for _ in range(50):
        assert epsilon_randomizing_distance(ch, random_pure_state(d, rng)) <= 1e-12


def test_epsilon_randomizing_distance_identity_channel():
    assert epsilon_randomizing_distance(
        identity_channel(2), ket_projector(2, 0)
    ) == pytest.approx(1.0, abs=1e-12)


def test_sampled_channel_distance_within_epsilon():
    # One sized draw, twenty random pure probes; a failed draw is possible in
    # principle but not observed for this seed.
    d, eps = 4, 0.5
    ch = sample_ruc(d, required_n(d, eps), stream(41))
    rng = stream(42)
    for _ in range(20):
        assert epsilon_randomizing_distance(ch, random_pure_state(d, rng)) <= eps


def test_strict_sublist_fails_to_randomize():
    # Dropping part of the generalized Pauli set leaves a witness state.
    ops = weyl_heisenberg_operators(2)
    plus = np.full((2, 2), 0.5, dtype=complex)  # |+><+|, fixed by 1 and X
    sub = RandomUnitaryChannel(
        dim=2, unitaries=ops[[0, 2]], probs=np.array([0.5, 0.5])
    )
    assert epsilon_randomizing_distance(sub, plus) > 0.9
    sub3 = RandomUnitaryChannel(
        dim=2, unitaries=ops[[0, 1, 2]], probs=np.full(3, 1 / 3)
    )
    assert epsilon_randomizing_distance(sub3, plus) > 0.01


def test_decode_inverts_every_key():
    rng = stream(43)
    ch = sample_ruc(4, 16, rng)
    rho = random_pure_state(4, rng)
    for key in range(ch.n):
        u = ch.unitaries[key]
        encoded = u @ rho @ u.conj().T
        assert np.abs(decode_with_key(ch, key, encoded) - rho).max() <= 1e-12


def test_decode_with_wrong_key_disturbs():
    rng = stream(44)
    ch = sample_ruc(4, 16, rng)
    rho = random_pure_state(4, rng)
    u = ch.unitaries[2]
    encoded = u @ rho @ u.conj().T
    assert linalg.trace_norm(decode_with_key(ch, 9, encoded) - rho) > 0.01


def test_decode_fixes_maximally_mixed():
    ch = sample_ruc(3, 4, stream(45))
    mixed = linalg.maximally_mixed(3)
    for key in range(ch.n):
        assert np.abs(decode_with_key(ch, key, mixed) - mixed).max() <= 1e-12


def test_decode_rejects_bad_key():
    ch = sample_ruc(2, 4, stream(46))
    with pytest.raises(ValueError):
        decode_with_key(ch, 4, np.eye(2) / 2)
    with pytest.raises(ValueError):
        decode_with_key(ch, -1, np.eye(2) / 2)


def test_channel_validation():
    with pytest.raises(ValueError):
        RandomUnitaryChannel(dim=1, unitaries=np.eye(1)[None], probs=np.array([1.0]))
    with pytest.raises(ValueError):
        RandomUnitaryChannel(
            dim=2, unitaries=np.eye(2)[None], probs=np.array([0.5])
        )
    with pytest.raises(ValueError):
        RandomUnitaryChannel(
            dim=2, unitaries=2 * np.eye(2)[None], probs=np.array([1.0])
        )
    with pytest.raises(ValueError):
        ChannelFamily(())


def test_unitarity_check_sees_last_element():
    n = 500
    u = haar_unitaries(4, n, stream(48))
    probs = np.full(n, 1.0 / n)

    def perturb_last(delta):
        bad = u.copy()
        bad[-1, 0, 1] += delta
        return bad

    RandomUnitaryChannel(dim=4, unitaries=perturb_last(1e-13), probs=probs)
    with pytest.raises(ValueError, match="not unitary"):
        RandomUnitaryChannel(dim=4, unitaries=perturb_last(1e-8), probs=probs)
