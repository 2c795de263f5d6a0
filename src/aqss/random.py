"""Deterministic, seedable sampling of Haar-random unitaries and test states.

Every sampler takes an explicit ``numpy.random.Generator``; a generator built
with :func:`stream` is fully determined by ``(master_seed, stream_id)``, and
distinct stream ids give statistically independent sequences. Parallel
Monte Carlo trials derive one stream per trial index, so results do not
depend on scheduling.
"""

from __future__ import annotations

import numpy as np

# Matrix entries per QR or unitarity-check chunk: 65536 complex entries, 1 MiB.
_CHUNK_ENTRIES = 1 << 16


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent, reproducible RNG stream keyed by (master_seed, stream_id)."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(stream_id,))
    )


def _ginibre_qr(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and diag(R) of the QR decomposition of each Ginibre draw (re + i im)/sqrt 2."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    return q, np.diagonal(r, axis1=1, axis2=2).copy()


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n independent Haar-random d x d unitaries, shape (n, d, d).

    QR decomposition of a Ginibre matrix, with Q's columns rescaled by the
    phases of R's diagonal so the distribution is exactly Haar (the plain QR
    output is not unique and not Haar without this correction; Mezzadri
    2007). All real parts are drawn, then all imaginary parts. The QR and the
    phase fix are per matrix, so a stack of more than _CHUNK_ENTRIES entries
    is decomposed chunk by chunk into the output stack with the same bits;
    the call holds the normals, the stack and one chunk.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    re = rng.standard_normal((n, d, d))
    im = rng.standard_normal((n, d, d))
    step = max(1, _CHUNK_ENTRIES // (d * d))
    if n <= step:
        q, diag = _ginibre_qr(re, im)
    else:
        q = np.empty((n, d, d), dtype=complex)
        diag = np.empty((n, d), dtype=complex)
        for s in range(0, n, step):
            q[s : s + step], diag[s : s + step] = _ginibre_qr(re[s : s + step], im[s : s + step])
    # A zero diagonal entry has probability zero; resample the offending draws.
    bad = np.abs(diag) < 1e-300
    while bad.any():
        rows = np.unique(np.nonzero(bad)[0])
        shape = (rows.size, d, d)
        q[rows], diag[rows] = _ginibre_qr(rng.standard_normal(shape), rng.standard_normal(shape))
        bad = np.abs(diag) < 1e-300
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Single Haar-random unitary."""
    return haar_unitaries(d, 1, rng)[0]


def weyl_heisenberg_operators(d: int) -> np.ndarray:
    """The d^2 generalized Pauli operators X^a Z^b, stacked as shape (d^2, d, d).

    X|k> = |k+1 mod d>, Z|k> = w^k |k> with w = exp(2*pi*i/d). Ordered with a
    as the outer index: operator a*d + b is X^a Z^b. Uniform conjugation over
    the full set maps every state exactly to the maximally mixed state.
    """
    if d < 2:
        raise ValueError(f"generalized Pauli set needs d >= 2, got {d}")
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


def _haar_vectors(dims: tuple[int, ...], k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent product vectors with Haar-random factors, shape (k, prod(dims)).

    Each factor of dimension d is the first column of a Haar unitary, which
    after the phase fix in :func:`haar_unitaries` is exactly the normalized
    first column z_0/|z_0| of its Ginibre draw, so no QR is needed. The full
    d x d block of normals is still drawn (real parts, then imaginary parts,
    factor by factor, term by term), in one ``standard_normal`` call, so the
    generator stream and its position match the QR path draw for draw. An
    all-zero first column has probability zero and is not resampled.
    """
    if min(dims) < 1:
        raise ValueError(f"dimension must be positive, got {min(dims)}")
    g = rng.standard_normal((k, 2 * sum(d * d for d in dims)))
    psi = np.ones((k, 1), dtype=complex)
    start = 0
    for d in dims:
        # Column 0 of a row-major d x d block is every d-th entry.
        block = g[:, start : start + 2 * d * d]
        z = block[:, : d * d : d] + 1j * block[:, d * d :: d]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        psi = (psi[:, :, None] * z[:, None, :]).reshape(k, -1)
        start += 2 * d * d
    return psi


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """|psi><psi| for a Haar-random unit vector (first column of a Haar unitary)."""
    psi = _haar_vectors((d,), 1, rng)[0]
    return np.outer(psi, psi.conj())


def random_product_pure_state(da: int, db: int, rng: np.random.Generator) -> np.ndarray:
    """Tensor product of two independent Haar-random pure states."""
    psi = _haar_vectors((da, db), 1, rng)[0]
    return np.outer(psi, psi.conj())


def random_separable_state(
    da: int, db: int, k_terms: int, rng: np.random.Generator
) -> np.ndarray:
    """Convex mixture of k_terms random product pure states.

    Mixture weights are uniform on the simplex (flat Dirichlet); the factors
    of each term are independent Haar-random pure states. The mixture
    sum_t w_t |psi_t><psi_t| is one matrix product.
    """
    if k_terms < 1:
        raise ValueError(f"need at least one mixture term, got {k_terms}")
    weights = rng.dirichlet(np.ones(k_terms))
    psi = _haar_vectors((da, db), k_terms, rng)
    return (psi.T * weights) @ psi.conj()
