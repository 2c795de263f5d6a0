import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from aqss import linalg
from aqss.random import random_pure_state, stream


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_density_matrix(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w = g @ g.conj().T
    return w / np.trace(w)


def test_partial_trace_maximally_entangled_qubit():
    rho = linalg.maximally_entangled_state(2)
    reduced = linalg.partial_trace(rho, (2, 2), keep=0)
    assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-12


def test_partial_trace_product_state_factorizes():
    rng = stream(10)
    for _ in range(5):
        rho_a = random_density_matrix(3, rng)
        rho_b = random_density_matrix(4, rng)
        joint = np.kron(rho_a, rho_b)
        assert np.abs(linalg.partial_trace(joint, (3, 4), keep=1) - rho_b).max() <= 1e-12
        assert np.abs(linalg.partial_trace(joint, (3, 4), keep=0) - rho_a).max() <= 1e-12


def test_partial_trace_against_index_sum_oracle():
    # Brute-force oracle: (tr_B rho)[i, k] = sum_j rho[i*dB + j, k*dB + j].
    d = 4
    rho = linalg.maximally_entangled_state(d)
    expected = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for k in range(d):
            expected[i, k] = sum(rho[i * d + j, k * d + j] for j in range(d))
    got = linalg.partial_trace(rho, (d, d), keep=0)
    assert np.abs(got - expected).max() <= 1e-12
    assert np.abs(got - np.eye(d) / d).max() <= 1e-12


def index_sum_partial_trace(rho, dims, keep):
    # (tr_rest rho)[i, j] = sum over the other factors' indices r of
    # rho[(r with i at keep), (r with j at keep)].
    rest = [range(d) if k != keep else [None] for k, d in enumerate(dims)]
    out = np.zeros((dims[keep], dims[keep]), dtype=complex)
    for r in itertools.product(*rest):
        rows = [
            np.ravel_multi_index(r[:keep] + (i,) + r[keep + 1 :], dims)
            for i in range(dims[keep])
        ]
        out += rho[np.ix_(rows, rows)]
    return out


@pytest.mark.parametrize(
    "dims, keep",
    [((2, 3, 4), k) for k in range(3)] + [((4,) * 5, k) for k in range(5)],
)
def test_partial_trace_matches_index_sum_on_every_factor(dims, keep):
    rng = stream(15, 10 * len(dims) + keep)
    total = math.prod(dims)
    x = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    got = linalg.partial_trace(x, dims, keep=keep)
    assert got.shape == (dims[keep], dims[keep])
    assert np.abs(got - index_sum_partial_trace(x, dims, keep)).max() <= 1e-12


def test_partial_trace_preserves_trace_and_positivity():
    rng = stream(11)
    for _ in range(10):
        rho = random_density_matrix(12, rng)
        red = linalg.partial_trace(rho, (3, 4), keep=0)
        assert abs(np.trace(red) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(red).min() >= -1e-10


def test_partial_trace_tensor_roundtrip_scaled_by_trace():
    rng = stream(12)
    a = random_hermitian(3, rng)
    b = random_hermitian(2, rng)
    joint = np.kron(a, b)
    assert np.abs(
        linalg.partial_trace(joint, (3, 2), keep=0) - a * np.trace(b)
    ).max() <= 1e-10


def test_partial_trace_three_factors():
    rng = stream(13)
    rhos = [random_density_matrix(2, rng) for _ in range(3)]
    joint = np.kron(np.kron(rhos[0], rhos[1]), rhos[2])
    mid = linalg.partial_trace(joint, (2, 2, 2), keep=1)
    assert np.abs(mid - rhos[1]).max() <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(6) / 6, (2, 2), keep=0)
    for keep in (2, -1, 1.0, (0,), None):
        with pytest.raises(ValueError, match="invalid subsystem"):
            linalg.partial_trace(np.eye(4) / 4, (2, 2), keep=keep)


def test_trace_norm_diagonal():
    assert linalg.trace_norm(np.diag([3.0, -1.0])) == pytest.approx(4.0, abs=1e-12)


def test_trace_norm_projector_minus_mixed():
    x = np.diag([1.0, 0.0]) - np.eye(2) / 2
    assert linalg.trace_norm(x) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_matches_eigenvalue_oracle():
    # Independent oracle: sum |eigenvalues| from scipy's Hermitian eigensolver.
    rng = stream(14)
    for _ in range(20):
        x = random_hermitian(4, rng)
        expected = np.abs(scipy.linalg.eigh(x, eigvals_only=True)).sum()
        assert linalg.trace_norm(x) == pytest.approx(expected, abs=1e-10)


def svd_trace_norm(x):
    return np.linalg.svd(x, compute_uv=False).sum()


@pytest.mark.parametrize("d", [2, 16, 256])
def test_trace_norm_hermitian_path_matches_svd(d):
    rng = stream(30, d)
    rho = random_density_matrix(d, rng)
    for x in (
        rho - linalg.maximally_mixed(d),
        rho - random_pure_state(d, rng),
        random_hermitian(d, rng),
    ):
        assert linalg.trace_norm(x) == pytest.approx(svd_trace_norm(x), abs=1e-12)


def test_trace_norm_refuses_non_hermitian_input():
    for x in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),  # Hermitian part zero
        np.diag([0.5, 0.5]) + 2e-10j * np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.trace_norm(x)
    # Anti-Hermitian drift within HERMITIAN_TOL is measured on the Hermitian part.
    drift = 4e-11j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert linalg.trace_norm(np.diag([0.5, -0.5]) + drift) == pytest.approx(1.0, abs=1e-12)


def test_the_last_row_block_is_checked_for_hermiticity():
    # The deviation is taken row block by row block. A NaN on the diagonal of
    # the last block stays in that block, and Python's max(0.0, nan) is 0.0.
    d = 1024
    x = np.eye(d, dtype=complex) / d
    x[-1, -1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian: max \\|M - M†\\| = nan"):
        linalg.trace_norm(x)
    for check in (linalg.assert_density_matrix, linalg.validated):
        with pytest.raises(ValueError, match="non-finite"):
            check(x)
    # A finite deviation there is reported at the whole matrix's max |M - M†|.
    x[-1, -1] = 1.0 / d
    x[-1, -2] = 3e-10
    dev = np.abs(x - x.conj().T).max()
    for check in (linalg.trace_norm, linalg.assert_density_matrix, linalg.validated):
        with pytest.raises(ValueError, match=re.escape(f"max |M - M†| = {dev:.3e}")):
            check(x)


def test_trace_norm_holds_one_hermitian_part_beside_its_argument():
    # The Hermitian part is D x D; the check adds one row block, not two D x D
    # temporaries (2.5 D x D in all before the check was taken in blocks).
    d = 1024
    x = random_hermitian(d, stream(35))
    tracemalloc.start()
    try:
        linalg.trace_norm(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * x.nbytes


def test_assert_density_matrix_returns_the_spectrum_it_checked():
    rng = stream(31)
    for d in (2, 5, 16):
        rho = random_density_matrix(d, rng)
        drift = 1e-12 * random_hermitian(d, rng) * 1j  # anti-Hermitian, within tol
        for m in (rho, rho + drift, linalg.hermitize(rho + drift)):
            spectrum = linalg.assert_density_matrix(m)
            expected = np.linalg.eigvalsh(linalg.hermitize(m))
            assert np.array_equal(spectrum, expected)
            assert np.all(np.diff(spectrum) >= 0.0)


def test_validated_returns_the_hermitian_part_and_its_spectrum(monkeypatch):
    rng = stream(32)
    m = random_density_matrix(6, rng) + 1e-12j * random_hermitian(6, rng)
    calls = []
    hermitize = linalg.hermitize
    monkeypatch.setattr(linalg, "hermitize", lambda x: calls.append(x) or hermitize(x))
    state = linalg.validated(m)
    assert len(calls) == 1  # the check and the result share one Hermitian part
    monkeypatch.undo()
    spectrum = linalg.assert_density_matrix(m)
    assert np.array_equal(state, linalg.hermitize(m))
    assert np.array_equal(state, state.conj().T)
    assert np.array_equal(spectrum, np.linalg.eigvalsh(state))
    with pytest.raises(ValueError):
        linalg.validated(np.diag([1.5, -0.5]))


def state_with_min_eigenvalue(d, lam_min, rng):
    """Hermitian, unit-trace V diag(lam) V† with V Haar and lam[0] = lam_min
    the smallest eigenvalue."""
    v, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lam = rng.uniform(0.5, 1.5, d)
    lam *= (1.0 - lam_min) / lam[1:].sum()
    lam[0] = lam_min
    return (v * lam) @ v.conj().T


def rank_r_state(d, r, rng):
    """A colluders' joint state has this shape: rank r = d_victim^2 at D >> r."""
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    w = g @ g.conj().T
    return w / np.trace(w)


LAMBDA_MINS = (-1.2e-10, -1.01e-10, -0.99e-10, -0.5e-10, 0.0)
JOINT_DIMS = (16, 64, 256)


@pytest.mark.parametrize(
    "make",
    [functools.partial(state_with_min_eigenvalue, 8, lam) for lam in LAMBDA_MINS]
    + [functools.partial(rank_r_state, d, 16) for d in JOINT_DIMS],
    ids=[f"lambda_min={lam:g}" for lam in LAMBDA_MINS] + [f"rank16-D{d}" for d in JOINT_DIMS],
)
def test_validated_accepts_exactly_when_the_spectrum_does(make):
    # validated decides what eigvalsh(hermitize(m))[0] >= -1e-10 does.
    rng = stream(34)
    base = make(rng)
    m = base + 1e-12j * random_hermitian(base.shape[0], rng)  # anti-Hermitian drift
    accepted = np.linalg.eigvalsh(linalg.hermitize(m))[0] >= -linalg.EIGENVALUE_TOL
    if accepted:
        assert np.array_equal(linalg.validated(m), linalg.hermitize(m))
    else:
        with pytest.raises(ValueError, match="state has negative eigenvalue"):
            linalg.validated(m)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[np.nan, 0], [0, 1]]),
        np.array([[0.5, 0.5], [-0.5, 0.5]]),  # not Hermitian
        np.eye(2),  # trace 2
    ],
    ids=["nan", "non-hermitian", "trace"],
)
def test_validated_refuses_with_the_density_matrix_messages(bad):
    with pytest.raises(ValueError) as reference:
        linalg.assert_density_matrix(bad)
    with pytest.raises(ValueError) as refused:
        linalg.validated(bad)
    assert str(refused.value) == str(reference.value)


def test_spectral_measures_match_brute_force():
    rng = stream(33)
    for d in (2, 7, 32):
        rho = random_density_matrix(d, rng)
        spectrum = linalg.assert_density_matrix(rho)
        assert linalg.distance_from_mixed(spectrum) == pytest.approx(
            svd_trace_norm(rho - np.eye(d) / d), abs=1e-12
        )
        assert linalg.spectrum_entropy(spectrum) == pytest.approx(
            linalg.von_neumann_entropy(rho), abs=1e-12
        )
        assert linalg.purity(rho) == pytest.approx(
            np.trace(rho @ rho).real, abs=1e-12
        )


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.trace_norm(np.ones((2, 3)))


def test_trace_norm_hs_norm_relation_sampled():
    # ||X||_1 <= sqrt(k) ||X||_2 for k x k Hermitian X.
    rng = stream(16)
    for _ in range(100):
        x = random_hermitian(8, rng)
        assert linalg.trace_norm(x) <= math.sqrt(8) * np.linalg.norm(x) + 1e-10


def test_entropy_maximally_mixed():
    assert linalg.von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-10)


def test_entropy_pure_state():
    rng = stream(17)
    assert linalg.von_neumann_entropy(random_pure_state(5, rng)) == pytest.approx(
        0.0, abs=1e-8
    )


def test_entropy_binary_distribution():
    # -(3/4 log2 3/4 + 1/4 log2 1/4), evaluated directly.
    assert linalg.von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(
        0.8112781244591329, abs=1e-12
    )


def test_entropy_refuses_what_is_not_a_state():
    for x in (np.diag([1.5, -0.5]), np.eye(2), np.array([[0.5, 0.5], [-0.5, 0.5]])):
        with pytest.raises(ValueError):
            linalg.von_neumann_entropy(x)


def test_entropy_within_bounds_on_random_states():
    rng = stream(18)
    for d in (2, 5, 8):
        for _ in range(10):
            s = linalg.von_neumann_entropy(random_density_matrix(d, rng))
            assert -1e-10 <= s <= math.log2(d) + 1e-8


def test_purity_examples():
    rng = stream(19)
    assert linalg.purity(random_pure_state(4, rng)) == pytest.approx(1.0, abs=1e-12)
    assert linalg.purity(np.eye(5) / 5) == pytest.approx(0.2, abs=1e-12)
    assert linalg.purity(np.diag([0.75, 0.25])) == pytest.approx(0.625, abs=1e-12)


def test_maximally_entangled_state_qubit_matrix():
    rho = linalg.maximally_entangled_state(2)
    expected = np.zeros((4, 4))
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 0.5
    assert np.abs(rho - expected).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximally_entangled_state_is_pure(d):
    rho = linalg.maximally_entangled_state(d)
    linalg.assert_density_matrix(rho)
    assert linalg.purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(
        linalg.partial_trace(rho, (d, d), keep=0) - np.eye(d) / d
    ).max() <= 1e-12


def test_maximally_entangled_state_rejects_small_d():
    with pytest.raises(ValueError):
        linalg.maximally_entangled_state(1)


def test_maximally_mixed():
    assert np.array_equal(linalg.maximally_mixed(2), np.diag([0.5, 0.5]))
    assert linalg.von_neumann_entropy(linalg.maximally_mixed(8)) == pytest.approx(
        3.0, abs=1e-10
    )
    assert linalg.purity(linalg.maximally_mixed(8)) == pytest.approx(1 / 8, abs=1e-12)
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        linalg.maximally_mixed(0)


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 2, 4)])
def test_kron_vectors_is_the_nested_kron_of_each_row(dims):
    # Unequal dimensions, so a dropped or reordered factor changes the result.
    rng = stream(130, len(dims))
    k = 4
    batches = [rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d)) for d in dims]
    rows = np.stack([functools.reduce(np.kron, [z[t] for z in batches]) for t in range(k)])
    assert np.array_equal(linalg.kron_vectors(batches), rows)
    for t in range(k):
        assert np.array_equal(linalg.kron_vectors([z[t] for z in batches]), rows[t])


def test_assert_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        linalg.assert_density_matrix(np.array([[np.nan, 0], [0, 1]]))
