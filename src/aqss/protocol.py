"""Two-receiver and multiparty approximate state sharing.

A run has three roles: the sender draws one secret key index per receiver,
conjugates the joint plaintext by the selected unitaries, and hands each
receiver its share of the ciphertext plus its own key. Receivers that
cooperate invert their unitaries and recover the plaintext exactly; any
strict subset (or an outsider with no keys at all) is left with a
key-averaged state, which the analysis module measures against the
maximally mixed target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import (
    ChannelFamily,
    _apply_product,
    apply_at,
    apply_product,
    conjugate_subsystem,
    required_n,
    sample_ruc,
)

# Past this joint dimension, dense eigendecompositions stop being interactive.
MAX_JOINT_DIM = 1024
# Past this many unitaries per channel, sampling and the superoperator build do.
MAX_N = 100_000


class ResourceGuardError(ValueError):
    """Requested run exceeds the desk-scale resource guard."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: qudit dimension d, security parameter, receiver count."""

    d: int
    epsilon: float = 0.5
    parties: int = 2
    n_per_channel: int | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.parties < 2:
            raise ValueError(f"need at least two receivers, got {self.parties}")
        if self.n_per_channel is not None and self.n_per_channel < 1:
            raise ValueError(f"n_per_channel must be positive, got {self.n_per_channel}")

    @property
    def resolved_n(self) -> int:
        if self.n_per_channel is not None:
            return self.n_per_channel
        return required_n(self.d, self.epsilon)

    @property
    def joint_dim(self) -> int:
        return self.d ** self.parties


@dataclass(frozen=True)
class AqssSession:
    """One concrete run: channels, plaintext, drawn keys and the ciphertext."""

    config: ProtocolConfig
    channels: ChannelFamily
    plaintext: np.ndarray
    key_indices: tuple[int, ...]
    ciphertext: np.ndarray


@dataclass(frozen=True)
class KeyCostReport:
    """Pre-shared secret bits: exact-scheme cost vs approximate-scheme cost."""

    perfect_bits: float
    approx_bits: float
    ratio: float


def guard(config: ProtocolConfig, n: int | None = None) -> None:
    """Raise ResourceGuardError for a run past desk scale: joint dimension
    d^m > MAX_JOINT_DIM or more than MAX_N unitaries per channel, counting n
    unitaries when given (pre-built channels) and config.resolved_n otherwise."""
    if config.joint_dim > MAX_JOINT_DIM:
        raise ResourceGuardError(
            f"joint dimension d^m = {config.joint_dim} exceeds the guard "
            f"{MAX_JOINT_DIM} (d={config.d}, m={config.parties})"
        )
    if n is None:
        n = config.resolved_n
    if n > MAX_N:
        raise ResourceGuardError(f"n = {n} exceeds the guard {MAX_N}")


def charlie_encode(
    config: ProtocolConfig,
    plaintext: np.ndarray,
    rng: np.random.Generator,
    channels: ChannelFamily | None = None,
) -> AqssSession:
    """Sender-side encoding: one key per receiver, joint unitary conjugation.

    Samples the per-receiver channels with uniform weights unless pre-built
    ones are supplied, draws each key index uniformly, and conjugates the
    plaintext by the selected unitaries. The resource guard counts the
    unitaries of the channels used, pre-built or to be sampled, and raises
    ResourceGuardError before anything is sampled.
    """
    guard(config, None if channels is None else max(part.n for part in channels.parts))
    m = config.parties
    dims = (config.d,) * m
    if plaintext.shape != (config.joint_dim, config.joint_dim):
        raise ValueError(
            f"plaintext shape {plaintext.shape} does not match d^m = {config.joint_dim}"
        )
    if channels is None:
        channels = ChannelFamily(
            tuple(sample_ruc(config.d, config.resolved_n, rng) for _ in range(m))
        )
    if channels.dims != dims:
        raise ValueError(
            f"channel dims {channels.dims} do not match protocol dims {dims}"
        )
    keys = tuple(int(rng.integers(part.n)) for part in channels.parts)
    ciphertext = plaintext
    for k, part in enumerate(channels.parts):
        ciphertext = conjugate_subsystem(ciphertext, dims, k, part.unitaries[keys[k]])
    return AqssSession(
        config=config,
        channels=channels,
        plaintext=plaintext,
        key_indices=keys,
        ciphertext=ciphertext,
    )


def cooperate_decode(
    session: AqssSession, key_indices=None
) -> np.ndarray:
    """Joint decoding with every receiver's key; exact inverse of the encoding.

    `key_indices` defaults to the session's own keys; passing an explicit
    list models what the parties actually bring to the table. A missing
    (None) entry aborts: no strict subset may decode alone.
    """
    keys = session.key_indices if key_indices is None else tuple(key_indices)
    if len(keys) != session.config.parties:
        raise ValueError(
            f"expected {session.config.parties} keys, got {len(keys)}"
        )
    if any(k is None for k in keys):
        raise ValueError("lone decoding refused: every receiver's key is required")
    dims = (session.config.d,) * session.config.parties
    state = session.ciphertext
    for k, part in enumerate(session.channels.parts):
        key = int(keys[k])
        if not 0 <= key < part.n:
            raise ValueError(f"key index {key} out of range [0, {part.n})")
        state = conjugate_subsystem(state, dims, k, part.unitaries[key].conj().T)
    return state


def exterior_adversary_view(session: AqssSession) -> np.ndarray:
    """State described by an outsider holding no key: the key average.

    The channel construction (unitary lists, weights) is public; only the
    drawn indices are secret, so averaging the encoding over all key tuples
    gives exactly the product-channel output.
    """
    return apply_product(session.channels, session.plaintext)


def measure_exterior_view(session: AqssSession) -> tuple[float, float]:
    """Trace distance of the outsider's view from 1/D, and its entropy in bits.

    Both come from the spectrum that validated the view, so the D x D view is
    decomposed once.
    """
    spectrum = linalg.assert_density_matrix(_apply_product(session.channels, session.plaintext))
    return linalg.distance_from_mixed(spectrum), linalg.spectrum_entropy(spectrum)


def collusion_attack(session: AqssSession, colluders) -> np.ndarray:
    """Joint state described by a colluding strict subset of receivers.

    The colluders invert their own unitaries on the state averaged over the
    other receivers' unknown keys; the honest parties' factors remain
    channel-randomized. Computed by actually performing the inversions so
    the cancellation algebra is exercised, not assumed.
    """
    m = session.config.parties
    colluders = tuple(sorted(set(int(c) for c in colluders)))
    if not colluders or any(c < 0 or c >= m for c in colluders):
        raise ValueError(f"colluders {colluders} must be a nonempty subset of 0..{m - 1}")
    if len(colluders) == m:
        raise ValueError("all receivers together should use cooperate_decode")
    dims = (session.config.d,) * m
    # Start from the colluders' actual key unitaries applied to the plaintext,
    # average the honest parties' keys, then let the colluders invert.
    state = session.plaintext
    for k in colluders:
        u = session.channels.parts[k].unitaries[session.key_indices[k]]
        state = conjugate_subsystem(state, dims, k, u)
    for k in range(m):
        if k not in colluders:
            state = apply_at(session.channels.parts[k], state, dims, k)
    for k in colluders:
        u = session.channels.parts[k].unitaries[session.key_indices[k]]
        state = conjugate_subsystem(state, dims, k, u.conj().T)
    return linalg.validated(state)


def interior_attack_bob(session: AqssSession) -> tuple[np.ndarray, np.ndarray]:
    """Malicious second receiver: invert one's own unitary, average the other key.

    Returns the joint state the second receiver can describe and the first
    receiver's marginal of it, which stays channel-randomized without the
    first receiver's key.
    """
    if session.config.parties != 2:
        raise ValueError(
            f"interior two-party attack needs exactly 2 receivers, got {session.config.parties}"
        )
    d = session.config.d
    joint = collusion_attack(session, colluders=(1,))
    alice_marginal = linalg.partial_trace(joint, (d, d), keep=0)
    return joint, alice_marginal


def key_cost(config: ProtocolConfig) -> KeyCostReport:
    """Secret-bit accounting: exact scheme 2m log2 d vs sum of ceil(log2 n_k).

    Pure arithmetic; safe for dimensions far beyond anything the matrix code
    can hold.
    """
    m = config.parties
    perfect_bits = 2.0 * m * math.log2(config.d)
    approx_bits = float(sum(math.ceil(math.log2(config.resolved_n)) for _ in range(m)))
    return KeyCostReport(
        perfect_bits=perfect_bits,
        approx_bits=approx_bits,
        ratio=approx_bits / perfect_bits,
    )
