"""Deterministic, seedable sampling of Haar-random unitaries and test states,
and the spread of seeded work over the cores.

Every sampler takes an explicit ``numpy.random.Generator``; a generator built
with :func:`stream` is fully determined by ``(master_seed, stream_id)``, and
distinct stream ids give statistically independent sequences. Monte Carlo
trials derive one stream per trial index, so a trial draws the same numbers
in whichever process runs it.

:func:`cores` is the one core count. :func:`map_trials` maps trial index to
value over min(cores(), trials) processes. The caller forks one child per
extra core and runs the first contiguous block of trials itself; each child
runs the next block, writes its float64 values into its own slice of one
anonymous shared mapping and leaves with os._exit, so it never flushes or
closes what it inherited. A child exits 0 after writing, or 1 with nothing
printed if its block fails; the exit status is the only signal. The caller
runs itself every block whose child did not exit 0 or was never forked
(fork ran out of processes), so a run returns or raises exactly what a
serial run does, traceback included. While the blocks run, every loaded
OpenBLAS (its path read from /proc/self/maps, its thread setter found
through ctypes, as threadpoolctl does) is pinned to one thread, so the
processes do not oversubscribe the cores, and the previous count is
restored afterwards. OpenBLAS shuts its thread pool down at fork, so the
children start clean. A run is therefore bit-identical to a serial run at
one BLAS thread. Where fork, sched_getaffinity or an OpenBLAS thread setter
is missing, or the caller runs other Python threads, the loop runs serially
in the caller. A child's memory is not counted in getrusage(RUSAGE_SELF).

:func:`haar_unitaries` decomposes a large stack on the calling thread and
one more thread per further core that :func:`cores` reports. Inside the pool
:func:`cores` reports one, so every process of a pool decomposes on its
calling thread alone. Only the calling thread draws from a generator, and
every thread a sampler starts is joined before it returns.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

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
    1 where the affinity query is missing or inside a :func:`map_trials` pool."""
    if _pooled or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _openblas_threads() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of every loaded OpenBLAS; empty if none.

    Opens each loaded shared object whose path in /proc/self/maps names
    OpenBLAS and, as threadpoolctl does, tries the symbol names OpenBLAS
    builds export, bare or with numpy's and scipy's scipy_ prefix and
    64-bit-integer suffix.
    """
    import ctypes

    try:
        # Line by line, holding no copy of the file; a mapping's path is its sixth field.
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return []
    names = [
        (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
        for prefix in ("", "scipy_")
        for suffix in ("", "64_", "_64")
    ]
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


def map_trials(value: Callable[[int], float], trials: int) -> list[float]:
    """[value(i) for i in range(trials)], spread in contiguous blocks over
    min(cores(), trials) processes at one BLAS thread each (see the module
    docstring), or run serially where that is one, fork is missing, other
    Python threads run (a forked child gets no copy of them and may deadlock
    on their locks) or no OpenBLAS thread setter is found."""
    global _pooled
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(cores(), trials) if forkable else 1
    blas = _openblas_threads() if workers > 1 else []
    if not blas:
        return [value(i) for i in range(trials)]
    import mmap
    import signal

    bounds = [trials * k // workers for k in range(workers + 1)]
    blocks = list(zip(bounds[1:-1], bounds[2:]))  # the children's, in trial order
    # Each child writes its block into one anonymous shared mapping at its
    # trials' offsets; the caller keeps its own block in a list and never
    # touches that part of the mapping.
    shared = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.float64)
    previous = [get() for get, _ in blas]
    children = []  # pids of the first blocks' children, in trial order
    reaped = 0  # children[:reaped] have been waited for
    try:
        # Every process of the pool decomposes its Haar stacks on one thread:
        # cores() reads _pooled, and the children inherit it.
        _pooled = True
        for _, set_threads in blas:
            set_threads(1)
        for lo, hi in blocks:
            try:
                pid = os.fork()
            except OSError:
                break  # out of processes: the caller runs every block left
            if pid == 0:
                # The child never returns into the caller's frames: os._exit
                # runs no finally, atexit or flush of the buffers it inherited,
                # and an error ends the child before anything prints it.
                status = 1
                try:
                    shared[lo:hi] = [value(i) for i in range(lo, hi)]
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        values = [value(i) for i in range(bounds[1])]
        for k, (lo, hi) in enumerate(blocks):
            status = 1  # a block whose fork failed has no child
            if k < len(children):
                status = os.waitpid(children[k], 0)[1]
                reaped += 1
            if status == 0:
                values += shared[lo:hi].tolist()
            else:
                # Trial i depends on i alone: the caller's run of a block whose
                # child failed, was killed or never started returns or raises
                # what the serial run does.
                values += [value(i) for i in range(lo, hi)]
    except BaseException:
        # Every earlier block has succeeded, so this error wins; stop the
        # children not yet reaped (a reaped child's pid may be reused).
        for pid in children[reaped:]:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in children[reaped:]:
            os.waitpid(pid, 0)
        for (_, set_threads), count in zip(blas, previous):
            set_threads(count)
        _pooled = False  # a pooled caller has one core and never gets here
    return values


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
