import math

import numpy as np
import pytest

from aqss import linalg
from aqss.random import (
    _CHUNK_ENTRIES,
    haar_unitaries,
    haar_unitary,
    random_product_pure_state,
    random_pure_state,
    random_separable_state,
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
    assert np.array_equal(haar_unitary(4, stream(9)), haar_unitary(4, stream(9)))


def _one_shot_haar_unitaries(d, n, rng):
    # The unchunked sampler: one Ginibre stack, one stacked QR, one phase fix.
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("chunks", [None, 0.5, 1, 3.7])
def test_haar_streamed_matches_one_shot(chunks):
    # None is n = 1; 3.7 chunks of _CHUNK_ENTRIES / 256 matrices ends mid-chunk,
    # so the chunk boundaries and the short tail are hit.
    d = 16
    n = 1 if chunks is None else int(chunks * (_CHUNK_ENTRIES // (d * d)))
    rng_new, rng_ref = stream(901, n), stream(901, n)
    u = haar_unitaries(d, n, rng_new)
    assert np.array_equal(u, _one_shot_haar_unitaries(d, n, rng_ref))
    # Same normals drawn in the same order: the next draw of both streams agrees.
    assert np.array_equal(rng_new.standard_normal(8), rng_ref.standard_normal(8))


class ScriptedNormals:
    """Stands in for a Generator: standard_normal returns the given arrays in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        out = self.draws.pop(0)
        assert out.shape == shape
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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_weyl_heisenberg_unitary(d):
    ops = weyl_heisenberg_operators(d)
    assert ops.shape == (d * d, d, d)
    for op in ops:
        assert np.abs(op.conj().T @ op - np.eye(d)).max() <= 1e-12


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
    psi = haar_unitary(d, rng)[:, 0]
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


def test_random_pure_state_rejects_bad_dim():
    with pytest.raises(ValueError):
        random_pure_state(0, stream(49))
