import math
import tracemalloc
import warnings

import numpy as np
import pytest

from aqss import linalg
from aqss.channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply,
    apply_at,
    apply_product,
    conjugate_subsystem,
    epsilon_randomizing_distance,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.random import (
    _CHUNK_ENTRIES,
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


def test_required_n_refuses_what_a_float_cannot_hold():
    with pytest.raises(ValueError):
        required_n(2, 1e-200)  # epsilon^2 underflows to 0
    with pytest.raises(ValueError):
        required_n(10**400, 0.5)  # 150 d does not fit in a float
    # Inputs that fit keep the float formula's exact value.
    assert required_n(10**300, 0.5) == math.ceil(150 * 10**300 / 0.25)
    assert required_n(2, 1e-150) == math.ceil(300 / (1e-150 * 1e-150))


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


def embed(u, dims, k):
    """1 (x) ... (x) U (x) ... (x) 1 with U on factor k."""
    out = np.eye(1)
    for j, d in enumerate(dims):
        out = np.kron(out, u if j == k else np.eye(d))
    return out


@pytest.mark.parametrize(
    "dims,k", [((2, 3, 4), k) for k in range(3)] + [((3, 3, 3), k) for k in range(3)]
)
def test_subsystem_kernel_matches_brute_force(dims, k):
    # A generic complex matrix pins the whole linear map, not just its action
    # on states; the references are the full Kronecker conjugation and the
    # explicit Kraus sum.
    rng = stream(49, 10 * sum(dims) + k)
    total = math.prod(dims)
    x = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    ch = RandomUnitaryChannel(
        dim=dims[k], unitaries=haar_unitaries(dims[k], 3, rng), probs=np.array([0.5, 0.3, 0.2])
    )
    u = ch.unitaries[0]
    w = embed(u, dims, k)
    assert np.abs(conjugate_subsystem(x, dims, k, u) - w @ x @ w.conj().T).max() <= 1e-12
    kraus = sum(
        p * embed(v, dims, k) @ x @ embed(v, dims, k).conj().T
        for p, v in zip(ch.probs, ch.unitaries)
    )
    assert np.abs(apply_at(ch, x, dims, k) - kraus).max() <= 1e-12
    # Same number of entries, wrong state dimension: a reshape alone would pass.
    wrong = x.reshape(total * dims[k], total // dims[k])
    with pytest.raises(ValueError, match="state dimension"):
        conjugate_subsystem(wrong, dims, k, u)
    with pytest.raises(ValueError, match="state dimension"):
        apply_at(ch, wrong, dims, k)
    with pytest.raises(ValueError, match="invalid subsystem"):
        apply_at(ch, x, dims, len(dims))
    other = (k + 1) % len(dims)
    if dims[other] != dims[k]:
        with pytest.raises(ValueError, match="does not act on factor"):
            apply_at(ch, x, dims, other)
        with pytest.raises(ValueError, match="does not act on factor"):
            conjugate_subsystem(x, dims, other, u)


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


def test_epsilon_randomizing_distance_matches_svd():
    rng = stream(43)
    for d in (2, 3, 5):
        ch = sample_ruc(d, 4, rng)
        rho = random_pure_state(d, rng)
        out = apply(ch, rho)
        expected = np.linalg.svd(out - np.eye(d) / d, compute_uv=False).sum()
        assert epsilon_randomizing_distance(ch, rho) == pytest.approx(expected, abs=1e-12)


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


def decode(u, state):
    """Undo a key conjugation: U† state U, as the receivers do on their factor."""
    return conjugate_subsystem(state, (state.shape[0],), 0, u.conj().T)


def test_decode_inverts_every_key():
    rng = stream(43)
    ch = sample_ruc(4, 16, rng)
    rho = random_pure_state(4, rng)
    for u in ch.unitaries:
        encoded = u @ rho @ u.conj().T
        assert np.abs(decode(u, encoded) - rho).max() <= 1e-12


def test_decode_with_wrong_key_disturbs():
    rng = stream(44)
    ch = sample_ruc(4, 16, rng)
    rho = random_pure_state(4, rng)
    u = ch.unitaries[2]
    encoded = u @ rho @ u.conj().T
    assert linalg.trace_norm(decode(ch.unitaries[9], encoded) - rho) > 0.01


def test_decode_fixes_maximally_mixed():
    ch = sample_ruc(3, 4, stream(45))
    mixed = linalg.maximally_mixed(3)
    for u in ch.unitaries:
        assert np.abs(decode(u, mixed) - mixed).max() <= 1e-12


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
    # NaN compares False with every tolerance, so each check must fail on it.
    nan_stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    nan_stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        RandomUnitaryChannel(dim=2, unitaries=nan_stack, probs=np.array([0.5, 0.5]))
    # An inf or an overflowing entry is refused before the U†U product, so
    # numpy never warns.
    for entry in (np.inf, 1e200):
        big_stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        big_stack[0, 1, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                RandomUnitaryChannel(dim=2, unitaries=big_stack, probs=np.array([0.5, 0.5]))
    for probs in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="probabilities"):
            RandomUnitaryChannel(
                dim=2, unitaries=np.stack([np.eye(2)] * 2), probs=np.array(probs)
            )


def test_apply_refuses_a_non_hermitian_map_output():
    # A superoperator off by 1e-6 j * I maps rho to N(rho) + 1e-6 j rho, whose
    # Hermitian part is a valid state: only a check on the raw output sees it.
    ch = sample_ruc(4, 8, stream(50))
    ch.__dict__["superoperator"] = ch.superoperator + 1e-6j * np.eye(16)
    rho = random_pure_state(4, stream(51))
    raw = (ch.superoperator @ rho.reshape(16)).reshape(4, 4)
    assert np.abs(raw - raw.conj().T).max() > 1e-7
    assert linalg.assert_density_matrix(linalg.hermitize(raw)) is not None
    with pytest.raises(ValueError, match="not Hermitian"):
        apply(ch, rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        epsilon_randomizing_distance(ch, rho)


def assert_unitarity_check_sees(d, n, where):
    u = haar_unitaries(d, n, stream(48, d))
    probs = np.full(n, 1.0 / n)

    def perturb(delta):
        bad = u.copy()
        bad[where, 0, 1] += delta
        return bad

    RandomUnitaryChannel(dim=d, unitaries=perturb(1e-13), probs=probs)
    with pytest.raises(ValueError, match="not unitary"):
        RandomUnitaryChannel(dim=d, unitaries=perturb(1e-8), probs=probs)


def test_unitarity_check_sees_last_element():
    assert_unitarity_check_sees(4, 500, -1)


@pytest.mark.parametrize("where", [0, 300, -1])
def test_unitarity_check_sees_every_chunk(where):
    # At d=16 a chunk holds _CHUNK_ENTRIES / 256 = 256 matrices, so n = 700
    # spans three chunks: 0 is in the first, 300 in the middle one, -1 in the last.
    assert 2 * _CHUNK_ENTRIES < 700 * 16 * 16 <= 3 * _CHUNK_ENTRIES
    assert_unitarity_check_sees(16, 700, where)


def test_sampling_and_build_hold_at_most_two_and_a_half_stacks():
    # The stack of n = 9600 unitaries at d=16 is 39 MB. Sampling holds the
    # normals, the stack and one chunk; the build holds one more stack.
    d, n = 16, 9600
    stack_bytes = n * d * d * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        ch = sample_ruc(d, n, stream(52))
        ch.superoperator
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * stack_bytes, peak / stack_bytes
