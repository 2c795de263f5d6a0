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

:func:`spread_chunks` is the one thread pool: it hands the chunks of a pass
over a unitary stack, in order, to the calling thread and one more thread
per further core that :func:`cores` reports, so each taker holds one chunk
of temporaries. :func:`haar_unitaries` draws, decomposes and phase-fixes a
stack through it, and the unitarity check of a channel's stack takes its
per-chunk maxima through it. A pass of one chunk runs on the calling thread
alone, as does every pass inside the Monte Carlo pool, where :func:`cores`
reports one. Only the calling thread draws from a generator, and every
thread the pool starts is joined before it returns.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable

import numpy as np

from .linalg import chunks, kron_vectors


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


def spread_chunks(count: int, work: Callable[[int], None], feed: Iterable[object] = ()) -> None:
    """work(k) for every chunk k in range(count), the chunks taken in order by
    the calling thread and one thread per further core (see :func:`cores`),
    at most one taker per chunk.

    The caller first runs through `feed`: its i-th item marks chunk i ready,
    and every chunk it does not reach is ready once it ends. Each taker
    waits for its chunk to be ready, so the caller may produce a chunk
    while the takers work on earlier ones. A thread that cannot start leaves
    its chunks to the rest. The first error, in the feed or in any taker,
    stops every taker before its next chunk and is raised once every thread
    has been joined. One chunk is work(0) after the whole feed, on the
    calling thread.
    """
    if count == 1:
        for _ in feed:
            pass
        work(0)
        return
    ready = [threading.Event() for _ in range(count)]
    untaken = iter(range(count))
    lock = threading.Lock()
    failed: list[BaseException] = []

    def stop(error: BaseException) -> None:
        failed.append(error)
        for event in ready:
            event.set()

    def take() -> None:
        while True:
            with lock:
                k = next(untaken, None)
            if k is None:
                return
            ready[k].wait()
            if failed:
                return
            try:
                work(k)
            except BaseException as error:
                stop(error)
                return

    threads = []
    for _ in range(min(cores(), count) - 1):
        thread = threading.Thread(target=take)
        try:
            thread.start()
        except RuntimeError:
            break  # out of threads: the started ones and the caller take every chunk
        threads.append(thread)
    try:
        fed = 0
        for _ in feed:
            ready[fed].set()
            fed += 1
            if failed:
                break
        for event in ready[fed:]:
            event.set()
        take()
    except BaseException as error:
        stop(error)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[0]


def _ginibre_qr(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Haar unitaries from Ginibre draws (re + i im)/sqrt 2, and which to resample.

    Each draw's Q has its columns multiplied by the phases of R's diagonal
    (Mezzadri 2007). A draw whose R has a diagonal entry below 1e-300 in
    modulus is marked True in the returned (m,) mask, and its Q is left
    unusable, without a warning.
    """
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    mag = np.abs(diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        q *= (diag / mag)[:, None, :]
    return q, (mag < 1e-300).any(axis=1)


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n independent Haar-random d x d unitaries, shape (n, d, d).

    QR decomposition of a Ginibre matrix, with Q's columns rescaled by the
    phases of R's diagonal so the distribution is exactly Haar (the plain QR
    output is not unique and not Haar without this correction; Mezzadri
    2007). All real parts are drawn, then all imaginary parts. The QR and the
    phase fix are per matrix, so the stack is drawn, decomposed and
    phase-fixed chunk by chunk in place with the same bits. Viewed as
    float64, the slot of a chunk of m matrices is (2, m, d, d): the calling
    thread draws every chunk's real parts into half 1, then each chunk's
    imaginary parts into half 0, marking the chunk ready, and the takers of
    :func:`spread_chunks` write each ready chunk's phase-fixed Q over its
    slot, which the QR has read whole by then (numpy's LAPACK calls release
    the GIL). The call then holds the stack, one flag per draw and one chunk
    of QR temporaries per taker. A draw whose R has a zero diagonal entry
    (probability zero) is drawn again after every chunk.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    q = np.empty((n, d, d), dtype=complex)
    bad = np.empty(n, dtype=bool)
    slices = chunks(n, d * d)
    slots = [q[rows].view(float).reshape(2, -1, d, d) for rows in slices]

    def draw():
        for slot in slots:
            rng.standard_normal(out=slot[1])
        for slot in slots:
            rng.standard_normal(out=slot[0])
            yield

    def decompose(k: int) -> None:
        q[slices[k]], bad[slices[k]] = _ginibre_qr(slots[k][1], slots[k][0])

    spread_chunks(len(slots), decompose, draw())
    while bad.any():
        rows = np.flatnonzero(bad)
        shape = (rows.size, d, d)
        q[rows], bad[rows] = _ginibre_qr(rng.standard_normal(shape), rng.standard_normal(shape))
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
    if not dims:
        raise ValueError("a product vector needs at least one factor, got dims ()")
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


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """|psi><psi| for a Haar-random unit vector (first column of a Haar unitary)."""
    psi = haar_factors((d,), 1, rng)[0][0]
    return np.outer(psi, psi.conj())


def random_product_pure_state(da: int, db: int, rng: np.random.Generator) -> np.ndarray:
    """Tensor product of two independent Haar-random pure states."""
    psi = kron_vectors(haar_factors((da, db), 1, rng))[0]
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
    psi = kron_vectors(haar_factors((da, db), k_terms, rng))
    return (psi.T * weights) @ psi.conj()
