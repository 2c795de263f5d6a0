"""Property checks of the decode path against explicit Kronecker products,
of the chunked and parallel paths against their one-piece references, and of
the pure-input and factored paths against the dense ones and the key average.

Hypothesis draws the shapes, stacks, plaintexts, keys, trial counts and
reported core counts; every array is drawn from a seeded stream. The
examples are derandomized and no example database is written, so each run
checks the same cases. Patches are applied inside the test bodies, because
Hypothesis refuses function-scoped fixtures.
"""

import dataclasses
import functools
import itertools
import math
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aqss import analysis, channels, linalg, protocol
from aqss.channels import (
    ChannelFamily,
    RandomUnitaryChannel,
    apply,
    apply_product,
    conjugate_subsystem,
    output_spectrum,
)
from aqss.protocol import ProtocolConfig, audit, charlie_encode, cooperate_decode
from aqss.random import haar_factors, haar_unitaries, map_trials, random_pure_state, stream

fixed = settings(derandomize=True, database=None, deadline=None)


def joint(state):
    """A state as a D x D matrix: a tuple of factor vectors becomes the
    projector onto their Kronecker product, factor 0 leftmost."""
    if not isinstance(state, tuple):
        return state
    psi = functools.reduce(np.kron, state)
    return np.outer(psi, psi.conj())


class FixedKeys:
    """Stands in for the generator charlie_encode draws its keys from."""

    def __init__(self, keys):
        self.keys = iter(keys)

    def integers(self, n):
        return next(self.keys)


def dense_twin(session, keys=None):
    """The session's plaintext encoded as one D x D state on the same
    channels with the same keys: the dense path, the reference."""
    dims = session.channels.dims
    config = ProtocolConfig(d=dims[0], parties=len(dims))
    twin = charlie_encode(
        config, joint(session.plaintext), FixedKeys(session.key_indices), channels=session.channels
    )
    return twin if keys is None else dataclasses.replace(twin, key_indices=keys)


@fixed
@given(
    m=st.sampled_from([2, 3]),
    d=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    factored=st.booleans(),
    data=st.data(),
)
def test_decode_inverts_the_kronecker_product_of_the_keys_it_holds(m, d, seed, factored, data):
    # Each stack picks up to 5 unitaries from a pool of 3, so repeats are common.
    rng = stream(seed)
    pool = haar_unitaries(d, 3, rng)
    picks = [data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)) for _ in range(m)]
    family = ChannelFamily(tuple(RandomUnitaryChannel(pool[p]) for p in picks))
    if factored:
        plaintext = tuple(z[0] for z in haar_factors((d,) * m, 1, rng))
    else:
        plaintext = random_pure_state(d**m, rng)
    session = charlie_encode(ProtocolConfig(d=d, parties=m), plaintext, rng, channels=family)
    ciphertext = joint(session.ciphertext)
    drawn = tuple(data.draw(st.integers(0, len(p) - 1)) for p in picks)
    for keys in (drawn, session.key_indices):
        w = functools.reduce(np.kron, [part.unitaries[k] for part, k in zip(family.parts, keys)])
        decoded = cooperate_decode(dataclasses.replace(session, key_indices=keys))
        assert isinstance(decoded, tuple) == factored
        assert np.abs(joint(decoded) - w.conj().T @ ciphertext @ w).max() <= 1e-12
    assert np.abs(joint(decoded) - joint(session.plaintext)).max() <= 1e-12


@fixed
@given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_subsystem_conjugation_is_the_full_kronecker_conjugation(dims, seed, data):
    # A generic complex matrix pins the whole linear map, not only its action on states.
    k = data.draw(st.integers(0, len(dims) - 1))
    rng = stream(seed)
    total = math.prod(dims)
    x = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    u = haar_unitaries(dims[k], 1, rng)[0]
    w = np.kron(np.kron(np.eye(math.prod(dims[:k])), u), np.eye(math.prod(dims[k + 1 :])))
    assert np.abs(conjugate_subsystem(x, dims, k, u) - w @ x @ w.conj().T).max() <= 1e-12


def reported_cores(k):
    """Patch under which random.cores() reports k cores."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(k)))


# Each example on more than one core forks, so the examples are few.
@settings(fixed, max_examples=12)
@given(trials=st.integers(1, 12), ncores=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_map_trials_is_the_serial_map(trials, ncores, seed):
    def value(i):
        return float(stream(seed, i).standard_normal())

    with reported_cores(ncores):
        assert map_trials(value, trials) == [value(i) for i in range(trials)]


@settings(fixed, max_examples=6)
@given(d=st.sampled_from([4, 16]), seed=st.integers(0, 2**32 - 1))
def test_a_chunked_haar_draw_is_the_one_chunk_draw(d, seed):
    # A chunk holds `step` matrices; the sizes sit on and around its bounds.
    step = linalg.CHUNK_ENTRIES // (d * d)
    for n in (step - 1, step, step + 1, 3 * step + 1):
        reference_rng = stream(seed, n)
        with mock.patch.object(linalg, "CHUNK_ENTRIES", n * d * d):
            reference = haar_unitaries(d, n, reference_rng)
        following = reference_rng.standard_normal(4)
        for ncores in (1, 2, 3):
            rng = stream(seed, n)
            with reported_cores(ncores):
                assert np.array_equal(haar_unitaries(d, n, rng), reference)
            assert np.array_equal(rng.standard_normal(4), following)


@fixed
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_a_chunked_superoperator_is_the_kronecker_sum(d, n, seed):
    # 64 entries make chunks of 16 unitaries at d = 2 and 9 at d = 3.
    u = haar_unitaries(d, n, stream(seed))
    with mock.patch.object(linalg, "CHUNK_ENTRIES", 64):
        superoperator = RandomUnitaryChannel(u).superoperator
    reference = sum(np.kron(v, v.conj()) for v in u) / n
    assert np.abs(superoperator - reference).max() <= 1e-13


@fixed
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_a_chunked_factor_output_is_the_key_average(d, n, seed):
    # 64 entries make chunks of 16 unitaries at d = 2 and 7 at d = 3.
    rng = stream(seed)
    u = haar_unitaries(d, n, rng)
    (psi,) = haar_factors((d,), 1, rng)[0]
    with mock.patch.object(linalg, "CHUNK_ENTRIES", 64):
        output = apply(RandomUnitaryChannel(u), (psi,))
    reference = sum(np.outer(v @ psi, (v @ psi).conj()) for v in u) / n
    assert np.abs(output - reference).max() <= 1e-14


def stack_with_repeats(d, n, rng, data):
    """n unitaries picked from a pool of at most n Haar unitaries, so a stack
    often repeats one."""
    pool = haar_unitaries(d, data.draw(st.integers(1, n)), rng)
    return pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]


@fixed
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_pure_input_output_is_the_superoperator_output(d, seed, data):
    rng = stream(seed)
    n = data.draw(st.integers(1, 2 * d * d))
    channel = RandomUnitaryChannel(stack_with_repeats(d, n, rng, data))
    (psi,) = haar_factors((d,), 1, rng)[0]
    dense = apply(channel, np.outer(psi, psi.conj()))
    assert np.abs(apply(channel, (psi,)) - dense).max() <= 1e-14


@fixed
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_factored_output_is_the_average_over_every_key_tuple(d, seed, data):
    # Stacks of up to 4 unitaries from a pool of 3, so repeats are common and
    # there are at most 16 key tuples. The reference encodes the factors with
    # every key tuple through charlie_encode and averages the ciphertexts; it
    # shares no code with the stack-read factor outputs.
    rng = stream(seed)
    pool = haar_unitaries(d, 3, rng)
    picks = [data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)) for _ in range(2)]
    family = ChannelFamily(tuple(RandomUnitaryChannel(pool[p]) for p in picks))
    factors = tuple(z[0] for z in haar_factors((d, d), 1, rng))
    tuples = list(itertools.product(*(range(len(p)) for p in picks)))
    average = sum(
        joint(charlie_encode(ProtocolConfig(d=d), factors, FixedKeys(keys), family).ciphertext)
        for keys in tuples
    ) / len(tuples)
    assert np.abs(apply_product(family, factors) - average).max() <= 1e-13
    assert np.abs(output_spectrum(family, factors) - np.linalg.eigvalsh(average)).max() <= 1e-13


def perfect_factory(d, n, rng):
    return channels.perfect_pqc(d)


@settings(fixed, max_examples=40)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 18),
    seed=st.integers(0, 2**32 - 1),
    factory=st.sampled_from([channels.sample_ruc, perfect_factory]),
)
def test_each_estimators_trial_on_the_factors_is_the_dense_trial(d, n, seed, factory):
    # Trial i's stream draws both channels and then the factors; the dense
    # reference maps their D x D product state through both superoperators.
    # The two estimators share the streams, so their first trials coincide.
    with reported_cores(1):
        distances = analysis.mc_expected_trace_distance(d, n, n, "product_pure", 10, seed, factory)
        purities = analysis.mc_purity(d, n, n, 30, seed, factory)
    for i, purity in enumerate(purities[0].per_trial_values):
        rng = stream(seed, i)
        family = ChannelFamily((factory(d, n, rng), factory(d, n, rng)))
        factors = analysis.draw_input("product_pure", d, rng)
        dense = apply_product(family, joint(factors))
        assert np.abs(apply_product(family, factors) - dense).max() <= 1e-14
        assert abs(purity - linalg.purity(dense)) <= 1e-14
        if i < 10:
            reference = linalg.distance_from_mixed(np.linalg.eigvalsh(dense))
            assert abs(distances[0].per_trial_values[i] - reference) <= 1e-14


@settings(fixed, max_examples=30)
@given(
    m=st.integers(2, 5),
    d=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_factored_audit_is_the_dense_audit(m, d, seed, data):
    # The same plaintexts encoded as D x D states take the dense path.
    # With few unitaries the view is rank deficient, and -lam log2 lam of the
    # dense spectrum's rounding noise moves the entropy deficit by up to 1e-13
    # at D = 243, so it is held to the outputs' 1e-12.
    rng = stream(seed)
    stacks = [stack_with_repeats(d, data.draw(st.integers(1, 5)), rng, data) for _ in range(m)]
    family = ChannelFamily(tuple(RandomUnitaryChannel(u) for u in stacks))
    config = ProtocolConfig(d=d, parties=m)
    sessions = []
    for _ in range(2):
        factors = tuple(z[0] for z in haar_factors((d,) * m, 1, rng))
        sessions.append(charlie_encode(config, factors, rng, channels=family))
    dense = [dense_twin(s) for s in sessions]
    fast, slow = audit(sessions, range(m)), audit(dense, range(m))
    assert abs(fast.round_trip - slow.round_trip) <= 1e-13
    assert abs(fast.entropy_deficit - slow.entropy_deficit) <= 1e-12
    for name in ("exterior", "victim"):
        assert abs(getattr(fast, name) - getattr(slow, name)) <= 1e-14, name
    for session, reference in zip(sessions, dense):
        shares = protocol._round(session, range(m))[2]
        for share, dense_share in zip(shares, protocol._round(reference, range(m))[2]):
            distances = [linalg.distance_from_mixed(x) for x in (share, dense_share)]
            assert abs(distances[0] - distances[1]) <= 1e-14


@settings(fixed, max_examples=30)
@given(
    m=st.integers(2, 5),
    d=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_factored_round_trip_is_the_dense_round_trip(m, d, seed, data):
    # The factored round trip compares two product vectors in their 2-D span;
    # the dense one decomposes the D x D difference. With the session's own
    # keys both read rounding noise; with another key tuple the decoded state
    # is usually far from the plaintext (about 1.99 at D = 243), so the two
    # paths are compared where the distance is not 0.
    rng = stream(seed)
    stacks = [stack_with_repeats(d, data.draw(st.integers(1, 5)), rng, data) for _ in range(m)]
    family = ChannelFamily(tuple(RandomUnitaryChannel(u) for u in stacks))
    factors = tuple(z[0] for z in haar_factors((d,) * m, 1, rng))
    session = charlie_encode(ProtocolConfig(d=d, parties=m), factors, rng, channels=family)
    other = tuple(data.draw(st.integers(0, len(u) - 1)) for u in stacks)
    for keys in (session.key_indices, other):
        fast = audit([dataclasses.replace(session, key_indices=keys)], [0]).round_trip
        slow = audit([dense_twin(session, keys)], [0]).round_trip
        assert abs(fast - slow) <= 1e-13, (keys, fast, slow)
