"""Dense complex-matrix kernel: states, partial traces, norms and entropies.

Conventions used throughout the package:

- matrices are ``numpy.ndarray`` of dtype complex128, row-major;
- the Kronecker product follows the standard index convention
  ``(A ⊗ B)[i*rb + k, j*cb + l] = A[i, j] * B[k, l]``;
- entropies and all bit accounting use the base-2 logarithm.

Spectra are computed only where a quantity is read from them. The one
spectral routine is ``eigvalsh`` of a Hermitian part, and ``trace_norm``
refuses a non-Hermitian argument. ``assert_density_matrix`` checks a state
as the map produced it and returns that ascending spectrum; the distance
``sum |lambda - 1/D|`` to the maximally mixed state (which commutes with
everything) and the entropy are read off it, so no state is decomposed
twice. The second moment ``purity`` is O(D^2) from the matrix. Callers that
need the state itself take it from ``validated``, which runs the same check.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2; bounds floating-point drift after channel maps.
    M† is copied row-major first, so the sum reads both operands in memory order."""
    return (np.conj(m.T, order="C") + m) / 2


def assert_square(x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")


def assert_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise ValueError("matrix contains non-finite entries")


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a square M, raising ValueError unless max |M - M†| <= 1e-10
    (a NaN deviation fails too)."""
    assert_square(m)
    h = hermitize(m)
    dev = 2 * np.abs(m - h).max()  # max |M - M†|
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M†| = {dev:.3e}")
    return h


def assert_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within 1e-10.

    Returns the ascending eigenvalues of the Hermitian part of rho, the
    spectrum the positivity check used.
    """
    assert_finite(rho)
    state = _hermitian_part(rho)
    tr_dev = abs(np.trace(rho) - 1.0)
    if tr_dev > TRACE_TOL:
        raise ValueError(f"state trace differs from 1 by {tr_dev:.3e}")
    eigs = np.linalg.eigvalsh(state)
    if eigs[0] < -EIGENVALUE_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs[0]:.3e}")
    return eigs


def validated(m: np.ndarray) -> np.ndarray:
    """Hermitian part hermitize(m) of a map output that assert_density_matrix
    accepts as the map produced it."""
    assert_density_matrix(m)
    return hermitize(m)


def distance_from_mixed(spectrum: np.ndarray) -> float:
    """Trace distance ||rho - 1/D||_1 = sum |lambda - 1/D| from rho's spectrum."""
    return float(np.abs(spectrum - 1.0 / spectrum.size).sum())


def spectrum_entropy(spectrum: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits of a spectrum, with 0 log 0 = 0.

    Eigenvalues in [-1e-10, 0) are numerical noise and are clamped to 0;
    anything more negative should already have failed the state invariant.
    """
    eigs = spectrum[spectrum > 0.0]
    if eigs.size == 0:
        return 0.0
    return float(-(eigs * np.log2(eigs)).sum())


def factor_layout(n: int, dims: tuple[int, ...], k: int) -> tuple[int, int, int]:
    """Sizes (d_left, d_k, d_right) before, at and after factor k of a space of
    dimension n = prod(dims); ValueError for a bad index k or a mismatched n."""
    if not isinstance(k, (int, np.integer)) or not 0 <= k < len(dims):
        raise ValueError(f"invalid subsystem {k!r} for {len(dims)} factors")
    d_left = math.prod(dims[:k])
    d_right = math.prod(dims[k + 1 :])
    if n != d_left * dims[k] * d_right:
        raise ValueError(f"state dimension {n} does not match subsystem dims {tuple(dims)}")
    return d_left, dims[k], d_right


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """Reduced state on one subsystem.

    Parameters
    ----------
    rho : ndarray
        State on the full tensor-product space, dimension prod(dims).
    dims : tuple of int
        Dimension of each tensor factor, in order.
    keep : int
        Index of the factor to keep.

    Raises
    ------
    ValueError
        If keep is not a factor index or the dims do not match the state.
    """
    assert_square(rho)
    d_left, d, d_right = factor_layout(rho.shape[0], dims, keep)
    t = rho.reshape(d_left, d, d_right, d_left, d, d_right)
    return np.einsum("aibajb->ij", t)


def trace_norm(x: np.ndarray) -> float:
    """Schatten-1 norm of a Hermitian matrix: sum |lambda| over eigvalsh of its
    Hermitian part h.

    Raises ValueError unless x is square with max |x - x†| <= HERMITIAN_TOL;
    within that, the result differs from ||x||_1 by at most ||x - h||_1.
    """
    return float(np.abs(np.linalg.eigvalsh(_hermitian_part(x))).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of a density matrix, read off the spectrum that
    assert_density_matrix checked (see spectrum_entropy)."""
    return spectrum_entropy(assert_density_matrix(rho))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2); 1 for pure states, 1/d for the maximally mixed state.

    Computed in O(d^2) as sum |rho_ij|^2 = tr(rho† rho), which equals
    tr(rho^2) for Hermitian rho only.
    """
    return float(np.vdot(rho, rho).real)


def maximally_entangled_state(d: int) -> np.ndarray:
    """Rank-1 state (1/d) sum_ij |ii><jj| on dimension d^2."""
    if d < 2:
        raise ValueError(f"maximally entangled state needs d >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def maximally_mixed(d: int) -> np.ndarray:
    """(1/d) * identity."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return np.eye(d, dtype=complex) / d
