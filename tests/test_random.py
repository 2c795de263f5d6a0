import math
import threading
import time

import numpy as np
import pytest

from aqss import linalg
from aqss import random as aqss_random
from aqss.random import (
    CHUNK_ENTRIES,
    cores,
    haar_factors,
    haar_unitaries,
    random_product_pure_state,
    random_pure_state,
    random_separable_state,
    spread_chunks,
    stream,
    weyl_heisenberg_operators,
)


def test_stream_determinism():
    a = stream(123, 4).standard_normal(8)
    b = stream(123, 4).standard_normal(8)
    assert np.array_equal(a, b)


def test_stream_ids_differ():
    a = stream(123, 0).standard_normal(8)
    b = stream(123, 1).standard_normal(8)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_haar_unitarity(d):
    u = haar_unitaries(d, 100, stream(21, d))
    dev = np.abs(np.einsum("nji,njk->nik", u.conj(), u) - np.eye(d)).max()
    assert dev <= 1e-10


def test_haar_deterministic():
    assert np.array_equal(haar_unitaries(4, 1, stream(9)), haar_unitaries(4, 1, stream(9)))


def _one_shot_haar_unitaries(d, n, rng):
    # The unchunked sampler: one Ginibre stack, one stacked QR, one phase fix.
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("chunks", [None, 0.5, 1, 3.7])
def test_haar_streamed_matches_one_shot(chunks):
    # None is n = 1; 3.7 chunks of CHUNK_ENTRIES / 256 matrices ends mid-chunk,
    # so the chunk boundaries and the short tail are hit.
    d = 16
    n = 1 if chunks is None else int(chunks * (CHUNK_ENTRIES // (d * d)))
    rng_new, rng_ref = stream(901, n), stream(901, n)
    u = haar_unitaries(d, n, rng_new)
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, rng_ref))
    # Same normals drawn in the same order: the next draw of both streams agrees.
    assert np.array_equal(rng_new.standard_normal(8), rng_ref.standard_normal(8))


# 6 and 14.8 chunks of 64 matrices at d = 16 and 18.75 chunks of 16 at
# d = 32, on one, two and three threads.
@pytest.mark.parametrize("ncores", [1, 2, 3])
@pytest.mark.parametrize("d, n", [(16, 384), (16, 947), (32, 300)])
def test_haar_threads_match_one_shot(d, n, ncores, pin_cores):
    pin_cores(ncores)
    rng_new, rng_ref = stream(904, n), stream(904, n)
    u = haar_unitaries(d, n, rng_new)
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, rng_ref))
    assert np.array_equal(rng_new.standard_normal(8), rng_ref.standard_normal(8))


@pytest.mark.parametrize("ncores", [2, 3])
def test_each_chunk_is_decomposed_in_its_own_slot(ncores, pin_cores, monkeypatch):
    # 14.8 chunks, so the short tail is hit. Each chunk's QR reads both halves
    # of its slot, then is slow to write its result back over the slot, so
    # the caller and the threads take chunks while others are still being
    # drawn or written. The bits hold only if no chunk is taken before its
    # imaginary parts are drawn and no slot is written before its QR has
    # read it whole.
    pin_cores(ncores)
    qr = aqss_random._ginibre_qr

    def slow_qr(re, im):
        result = qr(re, im)
        time.sleep(0.05)
        return result

    monkeypatch.setattr(aqss_random, "_ginibre_qr", slow_qr)
    d, n = 16, 947
    u = haar_unitaries(d, n, stream(906))
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, stream(906)))


class ScriptedNormals:
    """Stands in for a Generator: standard_normal hands out the entries of the
    given arrays in order, as many per call as the call asks for."""

    def __init__(self, *draws):
        self.normals = np.concatenate([np.ravel(draw) for draw in draws])

    def standard_normal(self, size=None, out=None):
        shape = size if out is None else out.shape
        k = math.prod(shape)
        assert k <= self.normals.size, "drew more normals than scripted"
        values, self.normals = self.normals[:k].reshape(shape), self.normals[k:]
        if out is None:
            return values.copy()
        out[...] = values
        return out


def test_haar_resamples_a_zero_draw():
    # A zero Ginibre matrix has R = 0, so its draw is replaced by the next
    # real and imaginary normals; the others keep theirs.
    rng = stream(902)
    re, im = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2))
    re[1] = im[1] = 0.0
    re2, im2 = rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 2))
    u = haar_unitaries(2, 3, ScriptedNormals(re, im, re2, im2))
    re[1], im[1] = re2[0], im2[0]
    assert np.array_equal(u, _one_shot_haar_unitaries(2, 3, ScriptedNormals(re, im)))


@pytest.mark.parametrize("zero, ncores", [(3, 2), (300, 1), (300, 2), (300, 3)])
def test_haar_resamples_a_zero_draw_on_threads(zero, ncores, pin_cores):
    # The same at d = 16 over six chunks, decomposed on threads: the zero
    # draw is in the first or the fifth chunk, and the resample comes after
    # every chunk.
    pin_cores(ncores)
    d, n = 16, 384
    rng = stream(905)
    re, im = rng.standard_normal((n, d, d)), rng.standard_normal((n, d, d))
    re[zero] = im[zero] = 0.0
    re2, im2 = rng.standard_normal((1, d, d)), rng.standard_normal((1, d, d))
    scripted = ScriptedNormals(re, im, re2, im2)
    u = haar_unitaries(d, n, scripted)
    assert scripted.normals.size == 0
    re[zero], im[zero] = re2[0], im2[0]
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, ScriptedNormals(re, im)))


@pytest.mark.parametrize("ncores", [1, 2, 3])
def test_haar_resamples_zero_draws_in_two_chunks(ncores, pin_cores):
    # Zero draws in the second and the last of six chunks at d = 16 are both
    # drawn again after every chunk, in one resample: the earlier row takes
    # the first matrix of real and of imaginary parts.
    pin_cores(ncores)
    d, n = 16, 384
    zeros = [70, 383]
    rng = stream(909)
    re, im = rng.standard_normal((n, d, d)), rng.standard_normal((n, d, d))
    re[zeros] = im[zeros] = 0.0
    re2, im2 = rng.standard_normal((2, d, d)), rng.standard_normal((2, d, d))
    scripted = ScriptedNormals(re, im, re2, im2)
    u = haar_unitaries(d, n, scripted)
    assert scripted.normals.size == 0
    re[zeros], im[zeros] = re2, im2
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, ScriptedNormals(re, im)))


@pytest.mark.parametrize("ncores", [1, 2, 3])
def test_spread_chunks_takes_each_chunk_once_when_it_is_ready(ncores, pin_cores):
    # The feed marks five of seven chunks ready, one at a time; the last two
    # are ready once it ends. No chunk is taken before it is ready.
    fed, taken = [], []

    def feed():
        for k in range(5):
            fed.append(k)
            yield

    def work(k):
        assert k < len(fed) or len(fed) == 5
        taken.append(k)

    spread_chunks(7, work, feed())
    assert sorted(taken) == list(range(7))


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_in_a_chunk_propagates_and_leaves_no_thread(where, pin_cores, monkeypatch):
    # 14.8 chunks on 2 cores: the error comes from the third QR, on either
    # taker, or from the caller's draw of the third chunk's imaginary parts,
    # and nothing waits for the chunks that will never be decomposed.
    pin_cores(2)
    d, n = 16, 947
    rng = stream(903)
    if where == "worker":
        qr = aqss_random._ginibre_qr
        calls = []

        def failing_qr(re, im):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise FloatingPointError("chunk refused")
            return qr(re, im)

        monkeypatch.setattr(aqss_random, "_ginibre_qr", failing_qr)
    else:
        calls = []

        class FailingDraws:
            def standard_normal(self, size=None, out=None):
                calls.append(threading.current_thread())
                if len(calls) == 18:  # fifteen chunks' real parts, then two imaginary
                    raise FloatingPointError("chunk refused")
                return rng.standard_normal(size, out=out)

        rng = FailingDraws()
    with pytest.raises(FloatingPointError, match="chunk refused"):
        haar_unitaries(d, n, rng)
    if where == "caller":
        assert set(calls) == {threading.main_thread()}


@pytest.mark.parametrize("startable", [0, 1])
def test_a_thread_that_cannot_start_leaves_its_chunks_to_the_rest(
    startable, pin_cores, monkeypatch
):
    # 14.8 chunks on 3 cores, where only the first `startable` threads start
    # (as under a limit on processes): the caller and the started thread
    # decompose every chunk, with the same bits.
    pin_cores(3)
    start, qr = threading.Thread.start, aqss_random._ginibre_qr
    started, decomposers = [], set()

    def limited_start(thread):
        if len(started) == startable:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def recorded_qr(re, im):
        decomposers.add(threading.current_thread())
        return qr(re, im)

    monkeypatch.setattr(threading.Thread, "start", limited_start)
    monkeypatch.setattr(aqss_random, "_ginibre_qr", recorded_qr)
    d, n = 16, 947
    rng_new, rng_ref = stream(907), stream(907)
    u = haar_unitaries(d, n, rng_new)
    assert decomposers <= set(started) | {threading.main_thread()}
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, rng_ref))
    assert np.array_equal(rng_new.standard_normal(8), rng_ref.standard_normal(8))


@pytest.mark.parametrize("ncores", [1, 2, 3])
@pytest.mark.parametrize("n, chunks", [(200, 1), (384, 2), (947, 4)])
def test_threads_started_per_stack(n, chunks, ncores, pin_cores, monkeypatch):
    # At d = 8 a chunk is 256 matrices. The caller takes chunks too, so a
    # stack of more than one chunk starts one thread per further core, at
    # most one per chunk; a one-chunk stack, and any stack inside a Monte
    # Carlo pool, starts none.
    pin_cores(ncores)
    start = threading.Thread.start
    starts = []

    def counted_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    haar_unitaries(8, n, stream(908))
    assert len(starts) == min(ncores, chunks) - 1
    monkeypatch.setattr(aqss_random, "_pooled", True)
    haar_unitaries(8, n, stream(908))
    assert len(starts) == min(ncores, chunks) - 1


def test_haar_first_moment_twirls_to_mixed():
    # E_U U|0><0|U† = 1/d, checked entrywise at five standard errors.
    n, d = 20000, 2
    u = haar_unitaries(d, n, stream(101))
    cols = u[:, :, 0]
    samples = cols[:, :, None] * cols.conj()[:, None, :]
    target = np.eye(d) / d
    for part, tgt in ((samples.real, target.real), (samples.imag, target.imag)):
        se = part.std(axis=0, ddof=1) / math.sqrt(n)
        assert (np.abs(part.mean(axis=0) - tgt) <= 5 * se + 1e-12).all()


def test_haar_mean_overlap():
    # E_U tr(U phi U† psi) = 1/d for fixed pure phi, psi.
    n, d = 20000, 4
    u = haar_unitaries(d, n, stream(202))
    phi = np.zeros(d, dtype=complex)
    phi[0] = 1.0
    psi = np.zeros(d, dtype=complex)
    psi[1] = 1.0
    vals = np.abs(np.einsum("i,nij,j->n", psi.conj(), u, phi)) ** 2
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 1 / d) <= 5 * se


def test_weyl_heisenberg_qubit_set():
    ops = weyl_heisenberg_operators(2)
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    assert np.abs(ops[0] - eye).max() <= 1e-12
    assert np.abs(ops[1] - z).max() <= 1e-12
    assert np.abs(ops[2] - x).max() <= 1e-12
    assert np.abs(ops[3] - x @ z).max() <= 1e-12


def _product_weyl_heisenberg_operators(d):
    # Reference: X^a Z^b by repeated products of the shift X and the clock Z.
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    z = np.diag(omega ** np.arange(d))
    ops = np.empty((d * d, d, d), dtype=complex)
    xa = np.eye(d, dtype=complex)
    for a in range(d):
        zb = np.eye(d, dtype=complex)
        for b in range(d):
            ops[a * d + b] = xa @ zb
            zb = zb @ z
        xa = xa @ x
    return ops


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_weyl_heisenberg_matches_product_reference(d):
    ops = weyl_heisenberg_operators(d)
    ref = _product_weyl_heisenberg_operators(d)
    assert ops.shape == ref.shape == (d * d, d, d)
    if d in (2, 4):
        # The two constructions round alike here, which keeps the exact-channel
        # records at d = 2 and 4 (README examples, exact-joint1024) unchanged.
        assert np.array_equal(ops, ref)
    else:
        assert np.abs(ops - ref).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
def test_weyl_heisenberg_unitary(d):
    # Each operator is a permutation with one phase per column, so U†U is 1
    # to the rounding of |exp(i theta)|^2 at every d.
    ops = weyl_heisenberg_operators(d)
    assert ops.shape == (d * d, d, d)
    dev = np.abs(np.conj(np.swapaxes(ops, 1, 2)) @ ops - np.eye(d)).max()
    assert dev <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_heisenberg_full_twirl_is_exact(d):
    # Brute-force sum over all d^2 conjugations: the exact-randomizer oracle.
    rng = stream(33, d)
    ops = weyl_heisenberg_operators(d)
    for _ in range(20):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        twirled = sum(op @ rho @ op.conj().T for op in ops) / (d * d)
        assert np.abs(twirled - np.eye(d) / d).max() <= 1e-12


def test_weyl_heisenberg_rejects_small_d():
    with pytest.raises(ValueError):
        weyl_heisenberg_operators(1)


def test_random_pure_state_invariants():
    rng = stream(44)
    for d in (1, 2, 5):
        rho = random_pure_state(d, rng)
        assert linalg.purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert linalg.von_neumann_entropy(rho) <= 1e-8


def test_random_product_pure_state_invariants():
    rng = stream(45)
    rho = random_product_pure_state(3, 4, rng)
    assert linalg.purity(rho) == pytest.approx(1.0, abs=1e-12)
    rho_a = linalg.partial_trace(rho, (3, 4), keep=0)
    rho_b = linalg.partial_trace(rho, (3, 4), keep=1)
    assert np.abs(rho - np.kron(rho_a, rho_b)).max() <= 1e-12
    for red in (rho_a, rho_b):
        assert linalg.purity(red) == pytest.approx(1.0, abs=1e-10)


def test_random_separable_state_invariants():
    rng = stream(46)
    for _ in range(50):
        rho = random_separable_state(2, 3, 4, rng)
        linalg.assert_density_matrix(rho)


def test_random_separable_single_term_is_product_pure():
    rho = random_separable_state(2, 2, 1, stream(47))
    assert linalg.purity(rho) == pytest.approx(1.0, abs=1e-12)
    rho_a = linalg.partial_trace(rho, (2, 2), keep=0)
    rho_b = linalg.partial_trace(rho, (2, 2), keep=1)
    assert np.abs(rho - np.kron(rho_a, rho_b)).max() <= 1e-12


def test_random_separable_rejects_zero_terms():
    with pytest.raises(ValueError):
        random_separable_state(2, 2, 0, stream(48))


# QR references: the first column of a full Haar unitary, and the term-by-term
# mixture of Kronecker products. They are the oracle for the Ginibre-column
# samplers, for the states and for the generator stream position after a draw.
def _qr_pure_state(d, rng):
    psi = haar_unitaries(d, 1, rng)[0, :, 0]
    return np.outer(psi, psi.conj())


def _qr_product_pure_state(da, db, rng):
    return np.kron(_qr_pure_state(da, rng), _qr_pure_state(db, rng))


def _qr_separable_state(da, db, k_terms, rng):
    weights = rng.dirichlet(np.ones(k_terms))
    rho = np.zeros((da * db, da * db), dtype=complex)
    for p in weights:
        rho += p * _qr_product_pure_state(da, db, rng)
    return rho


def _assert_matches_qr_reference(fast, reference, seed):
    rng_fast, rng_ref = stream(seed), stream(seed)
    assert np.abs(fast(rng_fast) - reference(rng_ref)).max() <= 1e-14
    # Same number of normals drawn: the next draw of both streams agrees.
    assert np.array_equal(rng_fast.standard_normal(8), rng_ref.standard_normal(8))


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_random_pure_state_matches_qr_reference(d):
    _assert_matches_qr_reference(
        lambda rng: random_pure_state(d, rng),
        lambda rng: _qr_pure_state(d, rng),
        seed=500 + d,
    )


@pytest.mark.parametrize("da, db", [(2, 3), (4, 4)])
def test_random_product_pure_state_matches_qr_reference(da, db):
    _assert_matches_qr_reference(
        lambda rng: random_product_pure_state(da, db, rng),
        lambda rng: _qr_product_pure_state(da, db, rng),
        seed=600 + da * db,
    )


@pytest.mark.parametrize("da, db, k", [(2, 3, 4), (4, 4, 4)])
def test_random_separable_state_matches_qr_reference(da, db, k):
    _assert_matches_qr_reference(
        lambda rng: random_separable_state(da, db, k, rng),
        lambda rng: _qr_separable_state(da, db, k, rng),
        seed=700 + da * db,
    )


@pytest.mark.parametrize("dims", [(2, 3), (4, 4, 4, 4, 4)])
def test_haar_factors_match_qr_reference(dims):
    # Each factor is the first column of its own Haar unitary, drawn in order.
    _assert_matches_qr_reference(
        lambda rng: np.concatenate([z[0] for z in haar_factors(dims, 1, rng)]),
        lambda rng: np.concatenate([haar_unitaries(d, 1, rng)[0, :, 0] for d in dims]),
        seed=800 + len(dims),
    )


def test_haar_vectors_are_the_kronecker_products_of_haar_factors():
    dims, k = (2, 3, 4), 5
    psi = linalg.kron_vectors(haar_factors(dims, k, stream(810)))
    factors = haar_factors(dims, k, stream(810))
    for t in range(k):
        assert np.array_equal(psi[t], np.kron(np.kron(factors[0][t], factors[1][t]), factors[2][t]))


@pytest.mark.parametrize(
    "d, n, message",
    [(0, 1, "dimension must be positive, got 0"), (2, 0, "sample count must be positive, got 0")],
)
def test_haar_unitaries_refuses_an_empty_stack(d, n, message):
    with pytest.raises(ValueError, match=message):
        haar_unitaries(d, n, stream(50))


def test_random_pure_state_rejects_bad_dim():
    with pytest.raises(ValueError):
        random_pure_state(0, stream(49))
