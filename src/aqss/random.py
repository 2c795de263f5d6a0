"""Deterministic, seedable sampling of Haar-random unitaries and test states.

Every sampler takes an explicit ``numpy.random.Generator``; a generator built
with :func:`stream` is fully determined by ``(master_seed, stream_id)``, and
distinct stream ids give statistically independent sequences. Monte Carlo
trials derive one stream per trial index, so a trial draws the same numbers
in whichever process runs it. ``analysis`` runs blocks of trials in forked
processes, one per core, at one BLAS thread each, and its values are those
of a serial run at one BLAS thread.

:func:`cores` is the one core count: the Monte Carlo pool forks one process
per core it reports, and :func:`haar_unitaries` decomposes a large stack on
the calling thread and one more thread per further core it reports. Inside
:func:`pooled` it reports one, so every process of a pool decomposes on its
calling thread alone. Only the calling thread draws from a generator, and
every thread a sampler starts is joined before it returns.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator

import numpy as np

# Matrix entries per QR or unitarity-check chunk: 65536 complex entries, 1 MiB.
CHUNK_ENTRIES = 1 << 16


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent, reproducible RNG stream keyed by (master_seed, stream_id)."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(stream_id,))
    )


_pooled = False  # True while a Monte Carlo pool runs one process per core


def cores() -> int:
    """Cores this process's work may spread over: the cores it may run on, or
    1 where the affinity query is missing or inside :func:`pooled`."""
    if _pooled or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def pooled() -> Iterator[None]:
    """Context in which :func:`cores` is 1: a Monte Carlo pool already runs
    one process per core, and processes it forks inherit the setting."""
    global _pooled
    previous, _pooled = _pooled, True
    try:
        yield
    finally:
        _pooled = previous


def _ginibre_qr(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and diag(R) of the QR decomposition of each Ginibre draw (re + i im)/sqrt 2."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    return q, np.diagonal(r, axis1=1, axis2=2).copy()


def _threaded_qr(
    d: int, n: int, rng: np.random.Generator, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """Q and diag(R) of n Ginibre draws (re + i im)/sqrt 2, each chunk of
    `step` draws drawn and decomposed in its own slot of the Q stack.

    Viewed as float64, the slot of a chunk of m matrices is (2, m, d, d).
    The calling thread draws every chunk's real parts into half 1, in stream
    order, then each chunk's imaginary parts into half 0, and sets that
    chunk's event. The caller and one thread per further core (see
    :func:`cores`), at most one per chunk, take the chunks in order; each
    waits for its chunk's event and writes the chunk's QR over its slot,
    which the QR has read whole by then (numpy's LAPACK calls release the
    GIL). A thread that cannot start leaves its chunks to the rest. The
    first error, in any thread, stops the work and is raised once every
    thread has been joined.
    """
    q = np.empty((n, d, d), dtype=complex)
    diag = np.empty((n, d), dtype=complex)
    slots = [q[s : s + step].view(float).reshape(2, -1, d, d) for s in range(0, n, step)]
    drawn = [threading.Event() for _ in slots]
    chunks = iter(range(len(slots)))
    lock = threading.Lock()
    failed: list[BaseException] = []

    def stop(error: BaseException) -> None:
        failed.append(error)
        for event in drawn:
            event.set()

    def take() -> None:
        while True:
            with lock:
                k = next(chunks, None)
            if k is None:
                return
            drawn[k].wait()
            if failed:
                return
            rows = slice(k * step, (k + 1) * step)
            try:
                q[rows], diag[rows] = _ginibre_qr(slots[k][1], slots[k][0])
            except BaseException as error:
                stop(error)
                return

    threads = []
    for _ in range(min(cores(), len(slots)) - 1):
        thread = threading.Thread(target=take)
        try:
            thread.start()
        except RuntimeError:
            break  # out of threads: the started ones and the caller take every chunk
        threads.append(thread)
    try:
        for slot in slots:
            rng.standard_normal(out=slot[1])
        for slot, event in zip(slots, drawn):
            if failed:
                break
            rng.standard_normal(out=slot[0])
            event.set()
        take()
    except BaseException as error:
        stop(error)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]
    return q, diag


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n independent Haar-random d x d unitaries, shape (n, d, d).

    QR decomposition of a Ginibre matrix, with Q's columns rescaled by the
    phases of R's diagonal so the distribution is exactly Haar (the plain QR
    output is not unique and not Haar without this correction; Mezzadri
    2007). All real parts are drawn, then all imaginary parts. The QR and the
    phase fix are per matrix, so a stack of more than CHUNK_ENTRIES entries
    is drawn and decomposed chunk by chunk in the output stack with the same
    bits: each chunk's normals go into the chunk's own slot of the stack,
    and the caller and one thread per further core (see :func:`cores`), at
    most one per chunk, overwrite each slot with its QR once the slot is
    drawn. The call then holds the stack, R's diagonals and a few chunks of
    QR temporaries per decomposing thread, the caller included.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    step = max(1, CHUNK_ENTRIES // (d * d))
    if n <= step:
        q, diag = _ginibre_qr(rng.standard_normal((n, d, d)), rng.standard_normal((n, d, d)))
    else:
        q, diag = _threaded_qr(d, n, rng, step)
    # A zero diagonal entry has probability zero; resample the offending draws.
    bad = np.abs(diag) < 1e-300
    while bad.any():
        rows = np.unique(np.nonzero(bad)[0])
        shape = (rows.size, d, d)
        q[rows], diag[rows] = _ginibre_qr(rng.standard_normal(shape), rng.standard_normal(shape))
        bad = np.abs(diag) < 1e-300
    q *= (diag / np.abs(diag))[:, None, :]
    return q


def weyl_heisenberg_operators(d: int) -> np.ndarray:
    """The d^2 generalized Pauli operators X^a Z^b, stacked as shape (d^2, d, d).

    X|k> = |k+1 mod d>, Z|k> = w^k |k> with w = exp(2*pi*i/d). Ordered with a
    as the outer index: operator a*d + b is X^a Z^b. Uniform conjugation over
    the full set maps every state exactly to the maximally mixed state.
    """
    if d < 2:
        raise ValueError(f"generalized Pauli set needs d >= 2, got {d}")
    a, b, k = np.ogrid[:d, :d, :d]
    ops = np.zeros((d, d, d, d), dtype=complex)
    ops[a, b, (k + a) % d, k] = np.exp(2j * np.pi * b * k / d)
    return ops.reshape(d * d, d, d)


def haar_factors(
    dims: tuple[int, ...], k: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Factors of k independent product vectors with Haar-random factors: one
    (k, d) array of unit vectors per entry d of dims.

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
    factors = []
    start = 0
    for d in dims:
        # Column 0 of a row-major d x d block is every d-th entry.
        block = g[:, start : start + 2 * d * d]
        z = block[:, : d * d : d] + 1j * block[:, d * d :: d]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        factors.append(z)
        start += 2 * d * d
    return tuple(factors)


def haar_vectors(dims: tuple[int, ...], k: int, rng: np.random.Generator) -> np.ndarray:
    """k independent product vectors with Haar-random factors, shape (k, prod(dims)):
    the Kronecker products of the factors that :func:`haar_factors` draws."""
    psi = np.ones((k, 1), dtype=complex)
    for z in haar_factors(dims, k, rng):
        psi = (psi[:, :, None] * z[:, None, :]).reshape(k, -1)
    return psi


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """|psi><psi| for a Haar-random unit vector (first column of a Haar unitary)."""
    psi = haar_vectors((d,), 1, rng)[0]
    return np.outer(psi, psi.conj())


def random_product_pure_state(da: int, db: int, rng: np.random.Generator) -> np.ndarray:
    """Tensor product of two independent Haar-random pure states."""
    psi = haar_vectors((da, db), 1, rng)[0]
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
    psi = haar_vectors((da, db), k_terms, rng)
    return (psi.T * weights) @ psi.conj()
