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
of temporaries, and it runs each chunk's turn (a chain) and fold (a sum)
in chunk order, parking a small fold that must wait rather than holding
its taker. While more than one takes, every loaded OpenBLAS is pinned to
one thread, as in :func:`map_trials`, and restored afterwards. A pass of one chunk runs on the calling thread alone,
as does every pass inside the Monte Carlo pool, where :func:`cores` reports
one, and every thread the pool starts is joined before it returns.

:func:`draw_haar` is the one Haar draw. It draws a stack chunk by chunk and
hands each chunk to a consumer on the taker that decomposed it, and a stack
of more than one chunk can be drawn again from what it returns, a
:class:`HaarReplay` of generator states: the calling thread draws every
chunk's real parts once, keeping the state before each, and each taker
draws its chunk's imaginary parts in turn, from the state the chunk before
left, from its own copy of the generator. So a channel can be read chunk by
chunk without holding its stack. :func:`haar_unitaries` is that draw with a
consumer that stores each chunk.
"""

from __future__ import annotations

import contextlib
import copy
import operator
import os
import threading
from typing import Callable

import numpy as np

from .linalg import CHUNK_ENTRIES, chunks, kron_vectors


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


class ChunkOrder:
    """Chunk k's place in a pass of :func:`spread_chunks`. ``with
    order.turn():`` runs its body only after chunk k - 1's turn has ended
    (a chain, such as of generator states), and ``order.fold(fold, size)``
    runs fold() only after chunk k - 1's fold, here or on the taker that
    runs that one; `size` is what the fold holds, in bytes. On one taker the
    chunks run in order, so a turn waits for nothing and a fold runs at
    once."""

    def turn(self) -> contextlib.AbstractContextManager:
        return _NO_WAIT

    def fold(self, fold: Callable[[], None], size: int) -> None:
        fold()


_NO_WAIT = contextlib.nullcontext()
_IN_ORDER = ChunkOrder()
# Folds that wait for an earlier chunk's hold at most one chunk of complex
# entries between them; a fold that would hold more waits for its turn.
_PARKED_BYTES = CHUNK_ENTRIES * 16


class _Stopped(Exception):
    """Ends a taker whose turn will never come, because another taker failed."""


class _Takers:
    """The chunk order of a pass on more than one taker. A turn waits; a
    fold whose predecessor has not run is parked, within _PARKED_BYTES, and
    runs on the taker that runs its predecessor, so a taker does not idle
    behind a slower one."""

    def __init__(self, count: int):
        self.cond = threading.Condition()
        self.untaken = iter(range(count))
        self.turns = 0  # the first chunks, whose turn has ended
        self.folded = 0  # the first chunks, whose fold has run
        self.parked: dict[int, tuple[Callable[[], None], int]] = {}
        self.parked_bytes = 0
        self.folding = False  # a taker is running the folds in order
        self.failed: list[BaseException] = []

    @contextlib.contextmanager
    def turn(self, k: int):
        with self.cond:
            self.cond.wait_for(lambda: self.failed or self.turns == k)
            if self.failed:
                raise _Stopped
        yield
        with self.cond:
            self.turns = k + 1
            self.cond.notify_all()

    def fold(self, k: int, fold: Callable[[], None], size: int) -> None:
        with self.cond:
            self.cond.wait_for(
                lambda: self.failed
                or self.folded == k
                or self.parked_bytes + size <= _PARKED_BYTES
            )
            if self.failed:
                raise _Stopped
            self.parked[k] = (fold, size)
            self.parked_bytes += size
            if self.folding or self.folded != k:
                return
            self.folding = True
        while True:
            with self.cond:
                fold, size = self.parked.pop(self.folded, (None, 0))
                self.parked_bytes -= size
                self.cond.notify_all()
                if fold is None or self.failed:
                    # In the same hold of the lock, so the taker that parks
                    # the next fold sees that no one runs it and runs it.
                    self.folding = False
                    return
            try:
                fold()
            except BaseException:
                with self.cond:
                    self.folding = False
                raise
            with self.cond:
                self.folded += 1

    def take(self, work: Callable[[int, ChunkOrder], None]) -> None:
        while True:
            with self.cond:
                k = next(self.untaken, None)
            if k is None or self.failed:
                return
            try:
                work(k, _TakenChunk(self, k))
            except _Stopped:
                return
            except BaseException as error:
                with self.cond:
                    self.failed.append(error)
                    self.cond.notify_all()
                return


class _TakenChunk(ChunkOrder):
    def __init__(self, takers: _Takers, k: int):
        self.takers, self.k = takers, k

    def turn(self) -> contextlib.AbstractContextManager:
        return self.takers.turn(self.k)

    def fold(self, fold: Callable[[], None], size: int) -> None:
        self.takers.fold(self.k, fold, size)


def spread_chunks(count: int, work: Callable[[int, ChunkOrder], None]) -> None:
    """work(k, order) for every chunk k in range(count), the chunks taken in
    order by the calling thread and one thread per further core (see
    :func:`cores`), at most one taker per chunk.

    Turns and folds run in chunk order (see :class:`ChunkOrder`): a turn
    for a chain of generator states, a fold for a sum that must not depend
    on which taker finished first. While more than one taker runs, every
    loaded OpenBLAS is pinned to one thread, so the takers do not
    oversubscribe the cores, and its count is restored afterwards. A thread
    that cannot start leaves its chunks to the rest. The first error in any
    taker stops every taker before its next chunk, turn or fold and is
    raised once every thread has been joined. One taker (one chunk, or one
    core) runs the chunks in order on the calling thread, with no thread,
    lock or pin.
    """
    takers = min(cores(), count) if count > 1 else 1
    if takers == 1:
        for k in range(count):
            work(k, _IN_ORDER)
        return
    pool = _Takers(count)
    blas = _openblas_threads()
    previous = [get() for get, _ in blas]
    threads = []
    try:
        for _, set_threads in blas:
            set_threads(1)
        for _ in range(takers - 1):
            thread = threading.Thread(target=pool.take, args=(work,))
            try:
                thread.start()
            except RuntimeError:
                break  # out of threads: the started ones and the caller take every chunk
            threads.append(thread)
        pool.take(work)
    finally:
        for thread in threads:
            thread.join()
        for (_, set_threads), threads_before in zip(blas, previous):
            set_threads(threads_before)
    if pool.failed:
        raise pool.failed[0]


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


def _redraw(rows: np.ndarray, d: int, rng: np.random.Generator) -> dict[int, np.ndarray]:
    """The unitaries of the zero draws at `rows` (ascending), drawn again from
    rng: all real parts, then all imaginary parts, until no draw is zero."""
    redrawn = {}
    while rows.size:
        shape = (rows.size, d, d)
        q, bad = _ginibre_qr(rng.standard_normal(shape), rng.standard_normal(shape))
        redrawn.update(zip(rows.tolist(), q))
        rows = rows[bad]
    return redrawn


def _stack_shape(d: int, n: int) -> tuple[int, int, int]:
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    return (n, d, d)


def _decomposed(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_ginibre_qr(re, im) a chunk of linalg.chunks at a time, so a run of
    rows longer than one chunk holds one chunk of QR temporaries."""
    pieces = chunks(len(re), re[0].size)
    if len(pieces) == 1:
        return _ginibre_qr(re, im)
    q, bad = np.empty(re.shape, dtype=complex), np.empty(len(re), dtype=bool)
    for rows in pieces:
        q[rows], bad[rows] = _ginibre_qr(re[rows], im[rows])
    return q, bad


class HaarReplay:
    """A drawn stack of Haar unitaries held as what draws it again: the
    generator state before each chunk's real parts and before its imaginary
    parts, and the rows drawn again after the last chunk (``redrawn``).
    Indexed by a row or a slice of rows, it draws them again, bit for bit,
    from the states of the chunk that holds the first; ``shape`` is the
    stack's. Each thread draws from its own copy of the generator."""

    def __init__(self, d: int, n: int, rng: np.random.Generator, slices: list[slice], real: list):
        """Draws chunk k's real parts into real[k], keeping the state before
        each chunk; rng is left before the imaginary parts."""
        self.shape = (n, d, d)
        self.redrawn: dict[int, np.ndarray] = {}
        self._step = slices[0].stop
        self._generator = copy.deepcopy(rng)  # never drawn from; each thread copies it
        self._local = threading.local()
        self._real = []
        for held in real:
            self._real.append(rng.bit_generator.state)
            rng.standard_normal(out=held)
        # _imag[k] is known once chunk k - 1's imaginary parts are drawn, and
        # _imag[-1] is where the draw leaves the generator.
        self._imag = [rng.bit_generator.state] + [None] * len(slices)

    def _at(self, state: dict, skip: int = 0) -> np.random.Generator:
        """This thread's copy of the generator, set to `state` and moved past
        `skip` matrices of normals."""
        local = self._local
        if not hasattr(local, "generator"):
            local.generator = copy.deepcopy(self._generator)
        generator = local.generator
        generator.bit_generator.state = state
        if skip:
            generator.standard_normal((skip, *self.shape[1:]))
        return generator

    def _rows(self, start: int, stop: int) -> np.ndarray:
        k, skip = divmod(start, self._step)
        shape = (stop - start, *self.shape[1:])
        re = self._at(self._real[k], skip).standard_normal(shape)
        im = self._at(self._imag[k], skip).standard_normal(shape)
        q, _ = _decomposed(re, im)
        for row, u in self.redrawn.items():
            if start <= row < stop:
                q[row - start] = u
        return q

    def __getitem__(self, key: int | slice) -> np.ndarray:
        n = self.shape[0]
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step != 1:
                raise IndexError("a replay is read in runs of consecutive rows")
            if stop <= start:
                return np.empty((0, *self.shape[1:]), dtype=complex)
            return self._rows(start, stop)
        row = operator.index(key)
        if not -n <= row < n:
            raise IndexError(f"row {row} is out of range for {n} unitaries")
        return self._rows(row % n, row % n + 1)[0]


def draw_haar(
    d: int,
    n: int,
    rng: np.random.Generator,
    take: Callable[[slice, np.ndarray, ChunkOrder], None],
    least: int = 1,
    hold: Callable[[slice], np.ndarray] | None = None,
) -> np.ndarray | HaarReplay:
    """Draw n independent Haar-random d x d unitaries chunk by chunk, hand
    each chunk q of rows `rows` to take(rows, q, order) on the taker that drew
    it, and return what reads the stack again: the stack itself if it is one
    chunk, else its :class:`HaarReplay`.

    QR decomposition of a Ginibre matrix, with Q's columns rescaled by the
    phases of R's diagonal so the distribution is exactly Haar (the plain QR
    output is not unique and not Haar without this correction; Mezzadri
    2007). All real parts are drawn, then all imaginary parts, as one (n, d,
    d) draw of each would, and the QR and the phase fix are per matrix, so
    the chunks (linalg.chunks(n, d^2, least)) do not change a bit. A stack of
    one chunk is drawn directly. Otherwise the calling thread first draws
    every chunk's real parts, keeping the state before each (see
    :class:`HaarReplay`), into hold(rows), a (rows, d, d) float array per
    chunk, by default a new one. Then, on :func:`spread_chunks`, the taker
    of chunk k draws its imaginary parts, in turn, from the state chunk
    k - 1 left, decomposes the chunk and drops its real parts. So no call
    holds the stack, and the real parts, half a stack of floats at most,
    are held only until their chunks are drawn; replaying them in each
    chunk instead would draw n d^2 normals more. A draw whose R has a zero
    diagonal entry (probability zero) is drawn again after every chunk. In
    a one-chunk stack take sees it drawn again; otherwise take sees it as
    first drawn (unusable) and the replay's ``redrawn`` holds it, so a
    consumer that must see it reads the replay again. rng is left where
    the draw ends either way.
    """
    shape = _stack_shape(d, n)
    slices = chunks(n, d * d, least)
    if len(slices) == 1:
        q, bad = _ginibre_qr(rng.standard_normal(shape), rng.standard_normal(shape))
        if bad.any():
            for row, u in _redraw(np.flatnonzero(bad), d, rng).items():
                q[row] = u
        take(slices[0], q, _IN_ORDER)
        return q
    real = [
        np.empty((min(rows.stop, n) - rows.start, d, d)) if hold is None else hold(rows)
        for rows in slices
    ]
    replay = HaarReplay(d, n, rng, slices, real)
    bad = np.zeros(n, dtype=bool)

    def decompose(k: int, order: ChunkOrder) -> None:
        rows = slices[k]
        with order.turn():
            generator = replay._at(replay._imag[k])
            im = generator.standard_normal(real[k].shape)
            replay._imag[k + 1] = generator.bit_generator.state
        q, bad[rows] = _decomposed(real[k], im)
        real[k] = im = None  # the consumer's temporaries take their place
        take(rows, q, order)

    spread_chunks(len(slices), decompose)
    rng.bit_generator.state = replay._imag[-1]
    replay.redrawn = _redraw(np.flatnonzero(bad), d, rng)
    return replay


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of n independent Haar-random d x d unitaries, shape (n, d, d):
    :func:`draw_haar` with a consumer that stores each chunk. Viewed as
    float64, a chunk of m matrices fills (2, m, d, d) of the stack, and its
    real parts are held in the second half until the chunk's Q is stored
    over it, so the call holds the stack, one flag per draw and one chunk of
    normals and QR temporaries per taker."""
    stack = np.empty(_stack_shape(d, n), dtype=complex)

    def hold(rows: slice) -> np.ndarray:
        return stack[rows].view(float).reshape(2, -1, d, d)[1]

    def store(rows: slice, q: np.ndarray, order: ChunkOrder) -> None:
        stack[rows] = q

    drawn = draw_haar(d, n, rng, store, hold=hold)
    if isinstance(drawn, HaarReplay):
        for row, u in drawn.redrawn.items():
            stack[row] = u
    return stack


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
