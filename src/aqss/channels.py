"""Random unitary channels, their randomizing diagnostics, and the exact
generalized-Pauli baseline.

A channel N(rho) = sum_i p_i U_i rho U_i† is stored as a stack of unitaries
plus a probability vector. Applying it literally term by term costs n
conjugations per call; instead each channel lazily caches its d^2 x d^2
superoperator M = sum_i p_i U_i (x) conj(U_i) (row-major vec convention), so
one application is a single matrix-vector product and a product channel
N_A (x) N_B is applied factor-sequentially at cost n_A + n_B once, not
n_A * n_B. M is built with one GEMM, C = sum_i p_i vec(U_i) vec(U_i)†,
followed by an index realignment of C into M (the natural-representation
reshuffle, Watrous, Theory of Quantum Information, §2.2): 8 n d^4 flops and
O(n d^2 + d^4) memory, with no chunk bound; the one stack-sized temporary is
the weighted conjugate p_i conj(U_i). A single key conjugation
U rho U† is the one-Kraus superoperator U (x) conj(U), so it runs on the
same subsystem kernel. The tests pin M against the brute-force Kronecker
sum, the product path against the double sum, and the subsystem kernel
against the full Kronecker conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .random import _CHUNK_ENTRIES, haar_unitaries, weyl_heisenberg_operators


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
    """max |U†U - 1| over a stack, taken chunk by chunk so the check holds one
    chunk of temporaries; a max is exact, so the chunking changes no value."""
    n, d, _ = u.shape
    step = max(1, _CHUNK_ENTRIES // (d * d))
    eye = np.eye(d)
    dev = 0.0
    for s in range(0, n, step):
        c = u[s : s + step]
        dev = max(dev, np.abs(c.conj().transpose(0, 2, 1) @ c - eye).max())
    return dev


@dataclass(frozen=True)
class RandomUnitaryChannel:
    """Convex mixture of unitary conjugations on a d-dimensional system."""

    dim: int
    unitaries: np.ndarray  # shape (n, dim, dim)
    probs: np.ndarray  # shape (n,)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"channel dimension must be >= 2, got {self.dim}")
        u = np.ascontiguousarray(self.unitaries, dtype=complex)
        p = np.ascontiguousarray(self.probs, dtype=float)
        if u.ndim != 3 or u.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"unitary stack has shape {u.shape}, expected (n, d, d)")
        n = u.shape[0]
        if n < 1 or p.shape != (n,):
            raise ValueError(f"probability vector shape {p.shape} does not match n={n}")
        if not p.min() >= 0.0:  # NaN fails this comparison too
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        # sum |u_ij|^2 is NaN or inf for a NaN, an inf or an overflowing entry;
        # refusing those first keeps numpy from warning inside the U†U product.
        if not np.isfinite(np.vdot(u, u)):
            raise ValueError("Kraus element is not unitary: an entry is not finite or overflows")
        dev = _unitarity_deviation(u)
        if not dev <= linalg.HERMITIAN_TOL:
            raise ValueError(f"Kraus element is not unitary: max |U†U - 1| = {dev:.3e}")
        object.__setattr__(self, "unitaries", u)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.unitaries.shape[0]

    @cached_property
    def superoperator(self) -> np.ndarray:
        """sum_i p_i U_i (x) conj(U_i), acting on row-major vectorized states."""
        d = self.dim
        a = self.unitaries.reshape(self.n, d * d)
        b = a.conj()
        b *= self.probs[:, None]
        c = a.T @ b
        return c.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@dataclass(frozen=True)
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
    """Channel with n i.i.d. Haar unitaries and uniform weights 1/n."""
    if n < 1:
        raise ValueError(f"channel needs at least one unitary, got n={n}")
    return RandomUnitaryChannel(
        dim=d, unitaries=haar_unitaries(d, n, rng), probs=np.full(n, 1.0 / n)
    )


def perfect_pqc(d: int) -> RandomUnitaryChannel:
    """Uniform channel over all d^2 generalized Paulis: an exact randomizer."""
    ops = weyl_heisenberg_operators(d)
    return RandomUnitaryChannel(dim=d, unitaries=ops, probs=np.full(d * d, 1.0 / (d * d)))


def _apply_superop_at(
    m: np.ndarray, rho: np.ndarray, dims: tuple[int, ...], subsystem: int
) -> np.ndarray:
    """Apply a one-subsystem superoperator to a state on a tensor-product space."""
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
    return linalg.validated(_apply_product(ChannelFamily((channel,)), rho))


def apply_at(
    channel: RandomUnitaryChannel,
    rho: np.ndarray,
    dims: tuple[int, ...],
    subsystem: int,
) -> np.ndarray:
    """Apply the channel to one factor of a multipartite state (no validation)."""
    return _apply_superop_at(channel.superoperator, rho, dims, subsystem)


def _apply_product(family: ChannelFamily, rho: np.ndarray) -> np.ndarray:
    """Product-channel output as the maps produce it; the caller validates it,
    with linalg.validated for the state or assert_density_matrix for its spectrum."""
    dims = family.dims
    out = rho
    for k, part in enumerate(family.parts):
        out = _apply_superop_at(part.superoperator, out, dims, k)
    return out


def apply_product(family: ChannelFamily, rho: np.ndarray) -> np.ndarray:
    """Product-channel output, applied factor-sequentially.

    Mathematically equal to the full sum over all index tuples
    (checked exhaustively against the brute-force double sum in the tests),
    at cost sum_k n_k conjugations instead of prod_k n_k.
    """
    return linalg.validated(_apply_product(family, rho))


def epsilon_randomizing_distance(channel: RandomUnitaryChannel, rho: np.ndarray) -> float:
    """Trace distance of the channel output from the maximally mixed state."""
    spectrum = linalg.assert_density_matrix(_apply_product(ChannelFamily((channel,)), rho))
    return linalg.distance_from_mixed(spectrum)
