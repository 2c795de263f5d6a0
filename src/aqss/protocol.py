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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .channels import (
    ChannelFamily,
    apply,
    apply_at,
    apply_product,
    conjugate_subsystem,
    epsilon_randomizing_distance,
    output_spectrum,
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
    joint_dim = 1
    for _ in range(config.parties):  # stops past the guard, so d^m is never formed
        joint_dim *= config.d
        if joint_dim > MAX_JOINT_DIM:
            raise ResourceGuardError(
                f"joint dimension d^m exceeds the guard {MAX_JOINT_DIM} "
                f"(d={config.d}, m={config.parties})"
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
    if plaintext.shape != (config.d**m,) * 2:  # d^m is within the guard here
        raise ValueError(f"plaintext shape {plaintext.shape} does not match d^m = {config.d**m}")
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
    for k, (part, key) in enumerate(zip(session.channels.parts, keys)):
        if not isinstance(key, (int, np.integer)) or not 0 <= key < part.n:
            raise ValueError(f"key index {key!r} is not an integer in [0, {part.n})")
        state = conjugate_subsystem(state, dims, k, part.unitaries[key].conj().T)
    return state


def exterior_adversary_view(session: AqssSession) -> np.ndarray:
    """State described by an outsider holding no key: the key average.

    The channel construction (unitary lists, weights) is public; only the
    drawn indices are secret, so averaging the encoding over all key tuples
    gives exactly the product-channel output.
    """
    return apply_product(session.channels, session.plaintext)


def collusion_attack(session: AqssSession, colluders) -> np.ndarray:
    """Joint state described by a colluding strict subset of receivers, and
    the brute-force reference that the audit's victim step is pinned to.

    The colluders invert their own key conjugations on the state averaged over
    the honest receivers' keys. Those conjugations act on the colluders' own
    factors, so they commute with the honest channels and cancel exactly: the
    state is the honest channels applied to the plaintext, as
    test_interior_attack_matches_alice_channel_on_plaintext pins.
    """
    m = session.config.parties
    colluders = tuple(colluders)
    if not colluders or not all(isinstance(c, (int, np.integer)) and 0 <= c < m for c in colluders):
        raise ValueError(f"colluders {colluders} must be a nonempty subset of 0..{m - 1}")
    if len(set(colluders)) == m:
        raise ValueError("all receivers together should use cooperate_decode")
    dims = (session.config.d,) * m
    state = session.plaintext
    for k in range(m):
        if k not in colluders:
            state = apply_at(session.channels.parts[k], state, dims, k)
    return linalg.validated(state)


def interior_attack_bob(session: AqssSession) -> tuple[np.ndarray, np.ndarray]:
    """Malicious second receiver: invert one's own unitary, average the other key.

    Returns the joint state the second receiver can describe and the first
    receiver's marginal: that receiver's channel on its plaintext marginal,
    read as in the audit, which stays channel-randomized without its key.
    """
    if session.config.parties != 2:
        raise ValueError(
            f"interior two-party attack needs exactly 2 receivers, got {session.config.parties}"
        )
    marginal = linalg.partial_trace(session.plaintext, (session.config.d,) * 2, keep=0)
    return collusion_attack(session, [1]), apply(session.channels.parts[0], marginal)


class AuditReport(NamedTuple):
    """Worst case over the audited rounds of each security quantity."""

    round_trip: float
    exterior: float
    entropy_deficit: float
    victim: float


def audit(sessions: Iterable[AqssSession], victims: Sequence[int]) -> AuditReport:
    """Worst case over the rounds of the round-trip distance, the exterior
    distance, the exterior entropy deficit log2 D - S, and each victim's
    distance from 1/d on its marginal while all the other receivers collude.

    The victim's channel, the only honest one, acts on the victim's factor, so
    the marginal is that channel on the plaintext marginal; no joint state is
    formed. A victim not in [0, m) is refused before its round measures anything,
    and no victims or no rounds, which would read as a perfect score, are refused.
    """
    if len(victims) == 0:
        raise ValueError("audit needs at least one victim, got none")
    round_trip = exterior = deficit = victim_worst = 0.0
    rounds = 0
    for rounds, session in enumerate(sessions, 1):
        dims = (session.config.d,) * session.config.parties
        marginals = [linalg.partial_trace(session.plaintext, dims, keep=v) for v in victims]
        round_trip = max(
            round_trip,
            linalg.trace_norm(cooperate_decode(session) - session.plaintext),
        )
        # The outsider's view is the key average, the product-channel output.
        spectrum = output_spectrum(session.channels, session.plaintext)
        exterior = max(exterior, linalg.distance_from_mixed(spectrum))
        deficit = max(deficit, math.log2(len(spectrum)) - linalg.spectrum_entropy(spectrum))
        for victim, marginal in zip(victims, marginals):
            channel = session.channels.parts[victim]
            victim_worst = max(victim_worst, epsilon_randomizing_distance(channel, marginal))
    if rounds == 0:
        raise ValueError("audit needs at least one session, got none")
    return AuditReport(round_trip, exterior, deficit, victim_worst)


def key_cost(config: ProtocolConfig) -> KeyCostReport:
    """Secret-bit accounting: exact scheme 2m log2 d vs m ceil(log2 n).

    Pure arithmetic, O(1) in m; safe for dimensions far beyond anything the
    matrix code can hold. ValueError when a bit count overflows a float.
    """
    m = config.parties
    try:
        perfect_bits = 2.0 * m * math.log2(config.d)
        approx_bits = float(m * math.ceil(math.log2(config.resolved_n)))
    except OverflowError:  # an integer count that does not fit a float
        perfect_bits = math.inf
    if not math.isfinite(perfect_bits):  # or a float product that rounds to inf
        raise ValueError(f"key cost of m = {m} receivers does not fit a float")
    return KeyCostReport(
        perfect_bits=perfect_bits,
        approx_bits=approx_bits,
        ratio=approx_bits / perfect_bits,
    )
