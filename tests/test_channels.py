import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from aqss import channels, linalg
from aqss.channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply,
    apply_at,
    apply_product,
    conjugate_subsystem,
    epsilon_randomizing_distance,
    output_spectrum,
    perfect_pqc,
    required_n,
    sample_ruc,
)
from aqss.random import (
    CHUNK_ENTRIES,
    haar_factors,
    haar_unitaries,
    random_pure_state,
    stream,
    weyl_heisenberg_operators,
)


def identity_channel(d):
    return RandomUnitaryChannel(np.eye(d, dtype=complex)[None, :, :])


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


@pytest.mark.parametrize("d,n", [(2, 1), (3, 7), (5, 50), (8, 200), (16, 700)])
def test_superoperator_matches_brute_force_kron_sum(d, n):
    # n-term oracle: (1/n) sum_i U_i (x) conj(U_i).
    # At d = 16 the build sums three chunks of 256 unitaries.
    ch = RandomUnitaryChannel(haar_unitaries(d, n, stream(47, d)))
    brute = sum(np.kron(u, u.conj()) for u in ch.unitaries) / n
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
    with pytest.raises(ValueError):
        apply(sample_ruc(3, 2, stream(8)), np.array([1.0, 0.0]))  # a pure input is a tuple


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
    with pytest.raises(ValueError, match="state dimension 6 does not match"):
        apply_product(fam, np.eye(6) / 6)
    # A pure product input is a tuple of factor vectors, never a 1-D vector,
    # and a state that is not square is refused before any reshape.
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(4,\)"):
        apply_product(fam, np.ones(4) / 2)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(4, 3\)"):
        apply_product(fam, np.zeros((4, 3)))
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="expected 2 factors, got 1"):
        apply_product(fam, (psi,))
    with pytest.raises(ValueError, match="expected 2 factors, got 3"):
        output_spectrum(fam, (psi, psi, psi))
    for measure in (apply_product, output_spectrum):
        with pytest.raises(ValueError, match="expected 2 factors, got 0"):
            measure(fam, ())


@pytest.mark.parametrize("measure", [apply_product, output_spectrum])
@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_a_factor_of_the_wrong_shape_is_named(measure, shape):
    # Refused before numpy sees the bad factor, naming its index and both shapes.
    fam = ChannelFamily((perfect_pqc(2), perfect_pqc(2)))
    factors = (np.array([1.0, 0.0]), np.ones(shape, dtype=complex) / 2)
    with pytest.raises(ValueError, match=re.escape(f"factor 1 has shape {shape}, expected (2,)")):
        measure(fam, factors)


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
    ch = RandomUnitaryChannel(haar_unitaries(dims[k], 3, rng))
    u = ch.unitaries[0]
    w = embed(u, dims, k)
    assert np.abs(conjugate_subsystem(x, dims, k, u) - w @ x @ w.conj().T).max() <= 1e-12
    kraus = sum(embed(v, dims, k) @ x @ embed(v, dims, k).conj().T for v in ch.unitaries) / 3
    assert np.abs(apply_at(ch, x, dims, k) - kraus).max() <= 1e-12
    # Same number of entries, not square: a reshape alone would pass.
    wrong = x.reshape(total * dims[k], total // dims[k])
    with pytest.raises(ValueError, match="expected a square matrix"):
        conjugate_subsystem(wrong, dims, k, u)
    with pytest.raises(ValueError, match="expected a square matrix"):
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
    sub = RandomUnitaryChannel(ops[[0, 2]])
    assert epsilon_randomizing_distance(sub, plus) > 0.9
    sub3 = RandomUnitaryChannel(ops[[0, 1, 2]])
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
        RandomUnitaryChannel(np.eye(1)[None])
    with pytest.raises(ValueError):
        RandomUnitaryChannel(2 * np.eye(2)[None])
    for stack in (np.eye(2), np.zeros((0, 2, 2)), np.ones((1, 2, 3))):
        with pytest.raises(ValueError, match="unitary stack has shape"):
            RandomUnitaryChannel(stack)
    with pytest.raises(ValueError):
        ChannelFamily(())
    # NaN compares False with every tolerance, so each check must fail on it.
    nan_stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    nan_stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        RandomUnitaryChannel(nan_stack)
    # An inf or an overflowing entry makes the U†U deviation inf or NaN, and
    # it is refused without a numpy warning.
    for entry in (np.inf, 1e200):
        big_stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        big_stack[0, 1, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                RandomUnitaryChannel(big_stack)


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

    def perturb(delta):
        bad = u.copy()
        bad[where, 0, 1] += delta
        return bad

    RandomUnitaryChannel(perturb(1e-13))
    with pytest.raises(ValueError, match="not unitary"):
        RandomUnitaryChannel(perturb(1e-8))


def test_unitarity_check_sees_last_element():
    assert_unitarity_check_sees(4, 500, -1)


@pytest.mark.parametrize("where", [0, 255, 256, 300, 511, -1])
def test_unitarity_check_sees_every_chunk(where, pin_cores):
    # At d=8 a chunk holds CHUNK_ENTRIES / 64 = 256 matrices, so n = 700
    # spans three chunks: 0 is in the first, 300 in the middle one, -1 in the
    # last, and 255, 256 and 511 are the last and first of a full chunk. The
    # chunks are spread over one, two and three cores.
    assert 2 * CHUNK_ENTRIES < 700 * 8 * 8 <= 3 * CHUNK_ENTRIES
    for ncores in (1, 2, 3):
        pin_cores(ncores)
        assert_unitarity_check_sees(8, 700, where)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_unitarity_check_refuses_a_non_finite_last_chunk(entry, pin_cores):
    # The last of three chunks has a NaN or inf deviation; no taker may drop
    # it or warn of it, on any number of cores.
    u = haar_unitaries(8, 700, stream(49))
    u[-1, 0, 1] = entry
    for ncores in (1, 2, 3):
        pin_cores(ncores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                RandomUnitaryChannel(u)


@pytest.mark.parametrize("ncores", [2, 3])
@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_a_check_taker_propagates_and_leaves_no_thread(where, ncores, pin_cores):
    # Four chunks at d = 8: the caller and a thread each hold a chunk until
    # the other has taken one, then the chosen taker's chunk raises.
    pin_cores(ncores)
    taken = {"caller": threading.Event(), "worker": threading.Event()}

    class Refusing(np.ndarray):
        def __getitem__(self, key):
            me = "caller" if threading.current_thread() is threading.main_thread() else "worker"
            taken[me].set()
            assert taken["worker" if me == "caller" else "caller"].wait(10)
            if me == where:
                raise FloatingPointError("chunk refused")
            return super().__getitem__(key)

    u = haar_unitaries(8, 1024, stream(55)).view(Refusing)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk refused"):
        channels._unitarity_deviation(u)
    assert threading.active_count() == threads


def test_sampling_and_build_peaks_in_stacks(monkeypatch):
    # The stack of n = 9600 unitaries at d=16 is 39 MB. Sampling draws each
    # chunk into its own slot of the stack and fixes its phases there, so it
    # holds the stack, one flag per draw and each taker's QR temporaries
    # (1.03 stacks traced on one core, 1.06 on two). The build holds the
    # stack and one chunk of 256 weighted conjugates (1.08).
    d, n = 16, 9600
    stack_bytes = n * d * d * np.dtype(complex).itemsize
    for ncores, sampling in ((1, 1.06), (2, 1.1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ncores)))
        tracemalloc.start()
        try:
            ch = sample_ruc(d, n, stream(52))
            sampled = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ch.superoperator
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del ch
        assert sampled <= sampling * stack_bytes, (ncores, sampled / stack_bytes)
        assert built <= 1.15 * stack_bytes, (ncores, built / stack_bytes)


def test_a_pure_factor_output_peaks_at_one_stack():
    # The output of one (16,) factor on a (16, 9600) channel sums the rows
    # U_i psi chunk by chunk, so beside the stack it holds one chunk's rows
    # (1.001 stacks traced), not all n of them and their conjugates (1.125).
    d, n = 16, 9600
    stack_bytes = n * d * d * np.dtype(complex).itemsize
    psi = haar_factors((d,), 1, stream(54))[0][0]
    tracemalloc.start()
    try:
        family = ChannelFamily((sample_ruc(d, n, stream(53)),))
        tracemalloc.reset_peak()
        output_spectrum(family, (psi,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * stack_bytes, peak / stack_bytes
