"""Random unitary channels, their randomizing diagnostics, and the exact
generalized-Pauli baseline.

A channel N(rho) = sum_i p_i U_i rho U_i† is its n unitaries: the key that
selects U_i is uniform over the n indices, so every weight p_i is 1/n. It
reads them from one of two sources: a held (n, d, d) stack (the exact pad,
sample_ruc and the Monte Carlo trials), or the replay of their Haar draw
(random.HaarReplay), which draws any rows again bit for bit, so a channel
sampled by replayed_ruc holds no stack. Every read of a channel's
unitaries is one pass over their chunks on random.spread_chunks, written
once for both sources: the unitarity check, the keyed unitaries, the factor
outputs and C below. Each taker reads its chunk and folds what it read in
chunk order, so no value depends on the source or the number of takers.
A channel checks its unitarity on construction; replayed_ruc makes that
check and every read it is told of in the one pass that draws the stack.

A pure product input is the tuple of its (d,) factor vectors psi_k, one per
part, and its output is the Kronecker product of the factor outputs: with
V = U psi (one row U_i psi per unitary), N(psi psi†) = V^T conj(V) / n,
2 n d^2 multiply-adds, summed chunk by chunk so that one chunk's rows of V
are held per taker. Applied term by term to a mixed or joint D x D state,
the channel would cost n conjugations per call; instead such a state is
mapped through the channel's d^2 x d^2 superoperator
M = sum_i p_i U_i (x) conj(U_i) (row-major vec convention), built on first
use and cached, so one application is a single matrix-vector product and a
product channel N_A (x) N_B is applied factor-sequentially at cost
n_A + n_B once, not n_A * n_B. M is an index realignment of
C = sum_i p_i vec(U_i) vec(U_i)† (the natural-representation reshuffle,
Watrous, Theory of Quantum Information, §2.2): 8 n d^4 flops, one GEMM per
chunk of at least d^2 unitaries, since a thinner GEMM runs below full speed.
A single key conjugation U rho U† is the one-Kraus superoperator
U (x) conj(U), so it runs on the same subsystem kernel. The tests pin M
against the brute-force Kronecker sum, the product path against the double
sum, the pure product output against the superoperators' and the key
average, the subsystem kernel against the full Kronecker conjugation, and a
replayed channel's every read against sample_ruc's on the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

from . import linalg
from .random import (
    ChunkOrder,
    HaarReplay,
    draw_haar,
    haar_unitaries,
    spread_chunks,
    weyl_heisenberg_operators,
)


def required_n(d: int, epsilon: float) -> int:
    """Number of unitaries ceil(150 d / epsilon^2) for the target radius epsilon."""
    if d < 2:
        raise ValueError(f"channel dimension must be >= 2, got {d}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    try:
        return math.ceil(150 * d / (epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):  # epsilon^2 underflows or d overflows
        raise ValueError(
            f"n = ceil(150 d / epsilon^2) is too large to compute (epsilon={epsilon!r})"
        ) from None


class _Pass:
    """One pass over a channel's n unitaries of dimension d, and what it read:
    with check, the largest deviation max |U†U - 1| (numpy's maximum keeps a
    NaN that Python's max would drop, and no chunk warns of an overflow);
    the unitaries of the given keys; the sum V^T conj(V), V = U psi, for each
    given factor psi, keyed by psi's bytes; when dense, C. Its chunks are
    linalg.chunks(n, d^2), or chunks of at least d^2 unitaries when dense. A
    sum's bits depend on its chunks, so a pass reads C or factor outputs,
    not both. A taker reads its chunk and folds what it read in chunk order."""

    __slots__ = ("n", "d", "check", "dense", "keys", "factors", "least", "dev", "kept", "sums", "c")

    def __init__(
        self,
        n: int,
        d: int,
        check: bool = False,
        keys: Iterable[int] = (),
        factors: Iterable[np.ndarray] = (),
        dense: bool = False,
    ):
        self.n, self.d, self.check, self.dense = n, d, check, dense
        self.keys = frozenset(keys)
        self.factors = {np.asarray(psi).tobytes(): psi for psi in factors}
        if dense and self.factors:
            raise ValueError("a pass reads C or factor outputs, not both")
        self.least = d * d if dense else 1
        self.dev: float | None = None
        self.kept: dict[int, np.ndarray] = {}
        self.sums: dict[bytes, np.ndarray] = {}
        self.c: np.ndarray | None = None

    def take(self, rows: slice, u: np.ndarray, order: ChunkOrder) -> None:
        """Read the chunk u of the given rows, and fold what it read in chunk
        order: the first chunk's reads start each value, and every later
        chunk's join it."""
        d = self.d
        dev = c = None
        if self.check:
            with np.errstate(invalid="ignore", over="ignore"):
                dev = np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(d)).max()
        # Rows U_i psi of a chunk as one product over its flattened stack;
        # the stacked matmul runs one small product per unitary and takes
        # twice as long.
        grams = {}
        for key, psi in self.factors.items():
            v = (u.reshape(-1, d) @ psi).reshape(-1, d)
            grams[key] = v.T @ v.conj()
        if self.dense:
            a = u.reshape(-1, d * d)
            b = a.conj()
            b *= 1.0 / self.n
            c = a.T @ b
        kept = self.keys and {
            key: u[key - rows.start].copy() for key in self.keys if rows.start <= key < rows.stop
        }

        def fold() -> None:
            if kept:
                self.kept.update(kept)
            if rows.start == 0:
                self.dev, self.sums, self.c = dev, grams, c
                return
            if self.check:
                self.dev = np.maximum(self.dev, dev)
            for key, g in grams.items():
                self.sums[key] += g
            if self.dense:
                self.c += c

        held = (len(grams) + len(kept)) * d * d + (0 if c is None else c.size)
        order.fold(fold, 16 * held)

    def over(self, unitaries: np.ndarray | HaarReplay) -> "_Pass":
        """This pass over a held stack or a replay, every chunk on spread_chunks."""
        slices = linalg.chunks(self.n, self.d * self.d, self.least)
        spread_chunks(len(slices), lambda k, order: self.take(slices[k], unitaries[slices[k]], order))
        return self


@dataclass(frozen=True, eq=False)
class RandomUnitaryChannel:
    """Uniform mixture (1/n) sum_i U_i rho U_i† of the conjugations by n
    unitaries on a d-dimensional system, the mixture a uniform key index
    selects from; dim = d and probs = 1/n are read from their shape. The
    unitaries are a held stack or a random.HaarReplay, and `reads` is what
    the pass that checked them read (run on construction when not given).
    Like every record that holds arrays, it equals only itself and hashes by
    identity."""

    unitaries: np.ndarray | HaarReplay  # shape (n, dim, dim)
    reads: _Pass | None = field(default=None, repr=False)

    def __post_init__(self):
        u = self.unitaries
        if not isinstance(u, HaarReplay):
            u = np.ascontiguousarray(u, dtype=complex)
            object.__setattr__(self, "unitaries", u)
        if len(u.shape) != 3 or u.shape[0] < 1 or u.shape[1] != u.shape[2]:
            raise ValueError(f"unitary stack has shape {u.shape}, expected (n, d, d) with n >= 1")
        if u.shape[1] < 2:
            raise ValueError(f"channel dimension must be >= 2, got {u.shape[1]}")
        if self.reads is None:
            object.__setattr__(self, "reads", _Pass(u.shape[0], u.shape[1], check=True).over(u))
        dev = self.reads.dev
        if not dev <= linalg.HERMITIAN_TOL:
            raise ValueError(f"Kraus element is not unitary: max |U†U - 1| = {dev:.3e}")

    @property
    def n(self) -> int:
        return self.unitaries.shape[0]

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    @property
    def probs(self) -> np.ndarray:
        """The key weights, a fresh (n,) array of 1/n."""
        return np.full(self.n, 1.0 / self.n)

    def unitary(self, key: int) -> np.ndarray:
        """U_key, as the sampling pass kept it or read from the unitaries (a
        replay draws that one row again)."""
        kept = self.reads.kept.get(key)
        return self.unitaries[key] if kept is None else kept

    def factor_output(self, psi: np.ndarray) -> np.ndarray:
        """N(psi psi†) = V^T conj(V) / n, V = U psi, on a (d,) factor vector:
        the sum the sampling pass read for psi, taken once, or a pass's own."""
        total = self.reads.sums.pop(np.asarray(psi).tobytes(), None)
        if total is None:
            total = _Pass(self.n, self.dim, factors=[psi]).over(self.unitaries).sums.popitem()[1]
        return total / self.n

    @cached_property
    def superoperator(self) -> np.ndarray:
        """sum_i p_i U_i (x) conj(U_i), acting on row-major vectorized states:
        C realigned, as the sampling pass read it or a pass of its own does."""
        d = self.dim
        c, self.reads.c = self.reads.c, None
        if c is None:
            c = _Pass(self.n, d, dense=True).over(self.unitaries).c
        return c.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@dataclass(frozen=True, eq=False)
class ChannelFamily:
    """Ordered channels acting on the subsystems of a tensor-product space."""

    parts: tuple[RandomUnitaryChannel, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("channel family must have at least one part")
        object.__setattr__(self, "parts", parts)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(part.dim for part in self.parts)


def sample_ruc(d: int, n: int, rng: np.random.Generator) -> RandomUnitaryChannel:
    """Channel with n i.i.d. Haar unitaries, held as their stack."""
    return RandomUnitaryChannel(haar_unitaries(d, n, rng))


def replayed_ruc(
    d: int,
    n: int,
    rng: np.random.Generator,
    keys: Iterable[int] = (),
    factors: Iterable[np.ndarray] = (),
    dense: bool = False,
) -> RandomUnitaryChannel:
    """The channel sample_ruc draws from rng, leaving rng where it does, but
    held as the replay of its draw (random.draw_haar), or as its stack when
    that is one chunk. The draw is one pass that checks every chunk and
    reads what a run says it will: the unitaries of the given keys, the
    output of each given factor vector and, when dense, C. Any other read
    draws the rows it needs again. A zero draw (probability zero) is read
    as first drawn, so the pass is then made again over the replay."""
    reads = _Pass(n, d, check=True, keys=keys, factors=factors, dense=dense)
    unitaries = draw_haar(d, n, rng, reads.take, reads.least)
    if isinstance(unitaries, HaarReplay) and unitaries.redrawn:
        factors = reads.factors.values()
        reads = _Pass(n, d, check=True, keys=reads.keys, factors=factors, dense=dense)
        reads.over(unitaries)
    return RandomUnitaryChannel(unitaries, reads)


def perfect_pqc(d: int) -> RandomUnitaryChannel:
    """Uniform channel over all d^2 generalized Paulis: an exact randomizer."""
    return RandomUnitaryChannel(weyl_heisenberg_operators(d))


def _apply_superop_at(
    m: np.ndarray, rho: np.ndarray, dims: tuple[int, ...], subsystem: int
) -> np.ndarray:
    """Apply a one-subsystem superoperator to a square state on a tensor-product space."""
    linalg.assert_square(rho)
    d_left, d, d_right = linalg.factor_layout(rho.shape[0], dims, subsystem)
    if m.shape != (d * d, d * d):
        raise ValueError(f"map of shape {m.shape} does not act on factor {subsystem} of {dims}")
    t = rho.reshape(d_left, d, d_right, d_left, d, d_right)
    t = t.transpose(1, 4, 0, 2, 3, 5).reshape(d * d, -1)
    t = m @ t
    t = t.reshape(d, d, d_left, d_right, d_left, d_right).transpose(2, 0, 3, 4, 1, 5)
    return np.ascontiguousarray(t.reshape(rho.shape))


def conjugate_subsystem(
    rho: np.ndarray, dims: tuple[int, ...], subsystem: int, u: np.ndarray
) -> np.ndarray:
    """(1 (x) ... (x) U (x) ... (x) 1) rho (...)†: the one-Kraus superoperator U (x) conj(U)."""
    return _apply_superop_at(np.kron(u, u.conj()), rho, dims, subsystem)


def apply(channel: RandomUnitaryChannel, rho: np.ndarray) -> np.ndarray:
    """Channel output sum_i p_i U_i rho U_i†, invariant-checked and symmetrized."""
    return apply_product(ChannelFamily((channel,)), rho)


def apply_at(
    channel: RandomUnitaryChannel,
    rho: np.ndarray,
    dims: tuple[int, ...],
    subsystem: int,
) -> np.ndarray:
    """Apply the channel to one factor of a multipartite state (no validation)."""
    return _apply_superop_at(channel.superoperator, rho, dims, subsystem)


def _apply_product(family: ChannelFamily, state: np.ndarray) -> np.ndarray:
    """Product-channel output of a D x D state as the maps produce it;
    apply_product and output_spectrum validate it."""
    dims = family.dims
    out = state
    for k, part in enumerate(family.parts):
        out = apply_at(part, out, dims, k)
    return out


def _factor_outputs(family: ChannelFamily, factors: tuple[np.ndarray, ...]):
    """Each part's output on its factor psi_k (RandomUnitaryChannel.factor_output);
    a factor count other than the part count, or a factor of a shape other
    than its part's (d,), is a ValueError."""
    if len(factors) != len(family.parts):
        raise ValueError(f"expected {len(family.parts)} factors, got {len(factors)}")
    for k, (part, psi) in enumerate(zip(family.parts, factors)):
        if np.shape(psi) != (part.dim,):
            raise ValueError(f"factor {k} has shape {np.shape(psi)}, expected {(part.dim,)}")
        yield part.factor_output(psi)


def apply_product(family: ChannelFamily, rho: np.ndarray | tuple[np.ndarray, ...]) -> np.ndarray:
    """Product-channel output, applied factor-sequentially.

    Mathematically equal to the full sum over all index tuples
    (checked exhaustively against the brute-force double sum in the tests),
    at cost sum_k n_k conjugations instead of prod_k n_k. A tuple of factor
    vectors maps to the Kronecker product of the checked factor outputs.
    """
    if isinstance(rho, tuple):
        return reduce(np.kron, map(linalg.validated, _factor_outputs(family, rho)))
    return linalg.validated(_apply_product(family, rho))


def output_spectrum(family: ChannelFamily, rho: np.ndarray | tuple[np.ndarray, ...]) -> np.ndarray:
    """Ascending spectrum of the product-channel output, which is checked as a
    density matrix as the maps produced it; every measured quantity of a map
    output (distance from 1/D, entropy, purity) is read from this one
    decomposition. A tuple of factor vectors has each d x d factor output
    checked and decomposed, and the spectrum is their Kronecker product."""
    if isinstance(rho, tuple):
        spectra = [linalg.assert_density_matrix(x) for x in _factor_outputs(family, rho)]
        return np.sort(linalg.kron_vectors(spectra))
    return linalg.assert_density_matrix(_apply_product(family, rho))


def epsilon_randomizing_distance(channel: RandomUnitaryChannel, rho: np.ndarray) -> float:
    """Trace distance of the channel output from the maximally mixed state."""
    return linalg.distance_from_mixed(output_spectrum(ChannelFamily((channel,)), rho))
