"""Property checks of the decode path against explicit Kronecker products.

Hypothesis draws the shapes, stacks, plaintexts and keys; every array is
drawn from a seeded stream. The examples are derandomized and no example
database is written, so each run checks the same cases.
"""

import dataclasses
import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aqss.channels import ChannelFamily, RandomUnitaryChannel, conjugate_subsystem
from aqss.protocol import ProtocolConfig, charlie_encode, cooperate_decode
from aqss.random import haar_factors, haar_unitaries, random_pure_state, stream

fixed = settings(derandomize=True, database=None, deadline=None)


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
        plaintext = tuple(np.outer(z[0], z[0].conj()) for z in haar_factors((d,) * m, 1, rng))
    else:
        plaintext = random_pure_state(d**m, rng)
    session = charlie_encode(ProtocolConfig(d=d, parties=m), plaintext, rng, channels=family)
    drawn = tuple(data.draw(st.integers(0, len(p) - 1)) for p in picks)
    for keys in (drawn, session.key_indices):
        w = functools.reduce(np.kron, [part.unitaries[k] for part, k in zip(family.parts, keys)])
        decoded = cooperate_decode(dataclasses.replace(session, key_indices=keys))
        assert np.abs(decoded - w.conj().T @ session.ciphertext @ w).max() <= 1e-12
    assert np.abs(decoded - session.plaintext).max() <= 1e-12


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
