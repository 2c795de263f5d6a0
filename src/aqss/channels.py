"""Random unitary channels, their randomizing diagnostics, and the exact
generalized-Pauli baseline.

A channel N(rho) = sum_i p_i U_i rho U_i† is stored as its stack of n
unitaries alone: the key that selects U_i is uniform over the n indices, so
every weight p_i is 1/n. A pure product input is the tuple of its (d,)
factor vectors psi_k, one per part, and its output is the Kronecker product
of the factor outputs, each read from its stack: with V = U psi (one row
U_i psi per unitary), N(psi psi†) = V^T conj(V) / n, 2 n d^2 multiply-adds,
summed over chunks of CHUNK_ENTRIES / d^2 unitaries so that one chunk's rows
of V are held at a time. A channel checks its stack's unitarity on
construction, one chunk per taker of random.spread_chunks, on every core.
Applied term by term to a mixed or joint D x D state, the channel would cost
n conjugations per call; instead such a state is mapped through the
channel's d^2 x d^2 superoperator
M = sum_i p_i U_i (x) conj(U_i) (row-major vec convention), built on first
use and cached, so one application is a single matrix-vector product and a
product channel N_A (x) N_B is applied factor-sequentially at cost
n_A + n_B once, not n_A * n_B. M is built from
C = sum_i p_i vec(U_i) vec(U_i)†, followed by
an index realignment of C into M (the natural-representation reshuffle,
Watrous, Theory of Quantum Information, §2.2): 8 n d^4 flops. C is a sum of
one GEMM per chunk of max(d^2, CHUNK_ENTRIES / d^2) unitaries, so the build
holds one chunk's weighted conjugate p_i conj(U_i) and two d^2 x d^2
matrices, O(max(CHUNK_ENTRIES, d^4)) memory beside the stack; a stack that
fits in one chunk is one GEMM. A chunk of fewer than d^2 rows makes each
GEMM too thin to run at full speed. A single key conjugation
U rho U† is the one-Kraus superoperator U (x) conj(U), so it runs on the
same subsystem kernel. The tests pin M against the brute-force Kronecker
sum, the product path against the double sum, the pure product output
against the superoperators' and the key average, and the subsystem kernel
against the full Kronecker conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import linalg
from .linalg import CHUNK_ENTRIES
from .random import haar_unitaries, spread_chunks, weyl_heisenberg_operators


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


def _unitarity_deviation(u: np.ndarray) -> float:
    """max |U†U - 1| over a stack. A stack of more than one chunk is checked
    chunk by chunk on every core through random.spread_chunks, so each taker
    holds one chunk of temporaries; a max is exact, so neither the chunking
    nor the order changes the value. numpy's max keeps a NaN that Python's
    would drop, and no taker warns of an overflow."""
    n, d, _ = u.shape
    step = max(1, CHUNK_ENTRIES // (d * d))
    eye = np.eye(d)

    def deviation(c: np.ndarray) -> float:
        with np.errstate(invalid="ignore", over="ignore"):
            return np.abs(c.conj().transpose(0, 2, 1) @ c - eye).max()

    if n <= step:
        return deviation(u)
    devs = np.zeros(-(-n // step))

    def check(k: int) -> None:
        devs[k] = deviation(u[k * step : (k + 1) * step])

    spread_chunks(devs.size, check)
    return devs.max()


@dataclass(frozen=True, eq=False)
class RandomUnitaryChannel:
    """Uniform mixture (1/n) sum_i U_i rho U_i† of the conjugations by a stack
    of n unitaries on a d-dimensional system, the mixture a uniform key index
    selects from; dim = d and probs = 1/n are read from the stack. Like every
    record that holds arrays, it equals only itself and hashes by identity."""

    unitaries: np.ndarray  # shape (n, dim, dim)

    def __post_init__(self):
        u = np.ascontiguousarray(self.unitaries, dtype=complex)
        if u.ndim != 3 or u.shape[0] < 1 or u.shape[1] != u.shape[2]:
            raise ValueError(f"unitary stack has shape {u.shape}, expected (n, d, d) with n >= 1")
        if u.shape[1] < 2:
            raise ValueError(f"channel dimension must be >= 2, got {u.shape[1]}")
        dev = _unitarity_deviation(u)
        if not dev <= linalg.HERMITIAN_TOL:
            raise ValueError(f"Kraus element is not unitary: max |U†U - 1| = {dev:.3e}")
        object.__setattr__(self, "unitaries", u)

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

    @cached_property
    def superoperator(self) -> np.ndarray:
        """sum_i p_i U_i (x) conj(U_i), acting on row-major vectorized states."""
        d = self.dim
        a = self.unitaries.reshape(self.n, d * d)
        step = max(d * d, CHUNK_ENTRIES // (d * d))
        for s in range(0, self.n, step):
            b = a[s : s + step].conj()
            b *= 1.0 / self.n
            if s == 0:
                c = a[:step].T @ b
            else:
                c += a[s : s + step].T @ b
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
    """Channel with n i.i.d. Haar unitaries."""
    return RandomUnitaryChannel(haar_unitaries(d, n, rng))


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
    """Each part's output V^T conj(V) / n, V = U psi_k, on its factor psi_k, read
    from the unitary stack; a factor count other than the part count, or a factor
    of a shape other than its part's (d,), is a ValueError."""
    if len(factors) != len(family.parts):
        raise ValueError(f"expected {len(family.parts)} factors, got {len(factors)}")
    for k, (part, psi) in enumerate(zip(family.parts, factors)):
        if np.shape(psi) != (part.dim,):
            raise ValueError(f"factor {k} has shape {np.shape(psi)}, expected {(part.dim,)}")
        # Rows U_i psi of a chunk as one product over its flattened stack;
        # the stacked matmul runs one small product per unitary and takes
        # twice as long. A stack of more than one chunk sums the chunks'
        # V^T conj(V), so the rows of one chunk are held at a time.
        d = part.dim
        step = max(1, CHUNK_ENTRIES // (d * d))
        for s in range(0, part.n, step):
            v = (part.unitaries[s : s + step].reshape(-1, d) @ psi).reshape(-1, d)
            gram = v.T @ v.conj()
            if s == 0:
                out = gram
            else:
                out += gram
        yield out / part.n


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
