"""Two-receiver and multiparty approximate state sharing.

A run has three roles: the sender draws one secret key index per receiver,
conjugates the joint plaintext by the selected unitaries, and hands each
receiver its share of the ciphertext plus its own key. Receivers that
cooperate invert their unitaries and recover the plaintext exactly; any
strict subset (or an outsider with no keys at all) is left with a
key-averaged state, which the analysis module measures against the
maximally mixed target.

A pure product plaintext can be handed over as its m factor vectors, and
then it travels as factors from encoding to the audit. Each receiver's key
conjugates that receiver's factor alone, so the ciphertext and the decoded
state are the m vectors U psi_k and U† phi_k, and no D x D matrix is formed.
The audit measures the outsider and every victim through the factors'
channel outputs (channels.output_spectrum), so no superoperator is built.
The round trip compares the two product vectors psi and phi through their
overlap, since the difference of their projectors has trace norm
2 sqrt(1 - |<psi|phi>|^2). Any other plaintext is measured on the dense
D x D path, the reference that the factored one is pinned to.
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


@dataclass(frozen=True, eq=False)
class AqssSession:
    """One concrete run: channels, plaintext, drawn keys and the ciphertext.

    The receivers are channels.parts, and their dimensions channels.dims.
    The plaintext and the ciphertext are both D x D states, or both m-tuples
    of unit vectors of shape (d,): the factors psi_k of a pure product
    plaintext, which is outer(psi, conj(psi)) with psi their Kronecker
    product, and the encoded factors U_k psi_k.
    Two sessions are equal only when they are the same object.
    """

    channels: ChannelFamily
    plaintext: np.ndarray | tuple[np.ndarray, ...]
    key_indices: tuple[int, ...]
    ciphertext: np.ndarray | tuple[np.ndarray, ...]


@dataclass(frozen=True)
class KeyCostReport:
    """Pre-shared secret bits: exact-scheme cost vs approximate-scheme cost."""

    perfect_bits: float
    approx_bits: float

    @property
    def ratio(self) -> float:
        return self.approx_bits / self.perfect_bits


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


def _conjugate(text, dims: tuple[int, ...], unitaries: Sequence[np.ndarray]):
    """Factor k of the text conjugated by unitaries[k], in the text's own form."""
    if isinstance(text, tuple):
        return tuple(u @ psi for u, psi in zip(unitaries, text))
    for k, u in enumerate(unitaries):
        text = conjugate_subsystem(text, dims, k, u)
    return text


def charlie_encode(
    config: ProtocolConfig,
    plaintext: np.ndarray | tuple[np.ndarray, ...],
    rng: np.random.Generator,
    channels: ChannelFamily | None = None,
) -> AqssSession:
    """Sender-side encoding: one key per receiver, joint unitary conjugation.

    The plaintext is a d^m x d^m state, or a tuple of the m unit vectors of
    shape (d,) of a pure product plaintext. Samples the per-receiver channels
    unless pre-built ones are supplied, draws each key index uniformly, and
    conjugates the plaintext by the selected unitaries. The ciphertext has
    the plaintext's form: the D x D state conjugated factor by factor, or the
    tuple of vectors U_k psi_k, m d^2 work with no joint state formed.
    The resource guard counts the unitaries of the channels used, pre-built
    or to be sampled, and raises ResourceGuardError before anything is
    sampled or any joint matrix is formed; a plaintext of the wrong shape or
    factor count is a ValueError.
    """
    guard(config, None if channels is None else max(part.n for part in channels.parts))
    m = config.parties
    dims = (config.d,) * m
    if isinstance(plaintext, tuple):
        if len(plaintext) != m or any(np.shape(f) != (config.d,) for f in plaintext):
            raise ValueError(
                f"expected {m} factor vectors of shape {(config.d,)}, got shapes "
                f"{[np.shape(f) for f in plaintext]}"
            )
    elif plaintext.shape != (config.d**m,) * 2:  # d^m is within the guard here
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
    keyed = [part.unitaries[key] for part, key in zip(channels.parts, keys)]
    ciphertext = _conjugate(plaintext, dims, keyed)
    return AqssSession(
        channels=channels, plaintext=plaintext, key_indices=keys, ciphertext=ciphertext
    )


def cooperate_decode(session: AqssSession) -> np.ndarray | tuple[np.ndarray, ...]:
    """Joint decoding with the session's keys; exact inverse of the encoding.

    Returns the ciphertext's form: the D x D state, or the tuple of vectors
    U_k† phi_k of a factored session.
    Receivers that bring other keys are a session that holds those keys,
    dataclasses.replace(session, key_indices=...). Every receiver's key is
    required, so a key count other than m, or a key that is not an integer in
    [0, n) (a missing None key and a bool included), is a ValueError, raised
    before anything is decoded.
    """
    keys, parts, dims = session.key_indices, session.channels.parts, session.channels.dims
    if len(keys) != len(parts):
        raise ValueError(f"expected {len(parts)} keys, got {len(keys)}")
    for part, key in zip(parts, keys):
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or not 0 <= key < part.n:
            raise ValueError(f"key index {key!r} is not an integer in [0, {part.n})")
    inverses = [part.unitaries[key].conj().T for part, key in zip(parts, keys)]
    return _conjugate(session.ciphertext, dims, inverses)


def _joint_plaintext(session: AqssSession) -> np.ndarray:
    """The session's plaintext as a D x D state, formed from its factors when
    it has them; the attack functions, which act on joint states, read it."""
    if not isinstance(session.plaintext, tuple):
        return session.plaintext
    psi = linalg.kron_vectors(session.plaintext)
    return np.outer(psi, psi.conj())


def exterior_adversary_view(session: AqssSession) -> np.ndarray:
    """State described by an outsider holding no key: the key average.

    The unitary stacks are public; only the drawn indices are secret, and
    each is uniform over its stack, so averaging the encoding over all key
    tuples gives exactly the product-channel output.
    """
    return apply_product(session.channels, _joint_plaintext(session))


def collusion_attack(session: AqssSession, colluders) -> np.ndarray:
    """Joint state described by a colluding strict subset of receivers, and
    the brute-force reference that the audit's victim step is pinned to.

    The colluders invert their own key conjugations on the state averaged over
    the honest receivers' keys. Those conjugations act on the colluders' own
    factors, so they commute with the honest channels and cancel exactly: the
    state is the honest channels applied to the plaintext, as
    test_interior_attack_matches_alice_channel_on_plaintext pins.
    """
    m = len(session.channels.parts)
    colluders = tuple(colluders)
    if not colluders or not all(isinstance(c, (int, np.integer)) and 0 <= c < m for c in colluders):
        raise ValueError(f"colluders {colluders} must be a nonempty subset of 0..{m - 1}")
    if len(set(colluders)) == m:
        raise ValueError("all receivers together should use cooperate_decode")
    dims = session.channels.dims
    state = _joint_plaintext(session)
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
    dims = session.channels.dims
    if len(dims) != 2:
        raise ValueError(f"interior two-party attack needs exactly 2 receivers, got {len(dims)}")
    marginal = linalg.partial_trace(_joint_plaintext(session), dims, keep=0)
    return collusion_attack(session, [1]), apply(session.channels.parts[0], marginal)


class AuditReport(NamedTuple):
    """Worst case over the audited rounds of each security quantity."""

    round_trip: float
    exterior: float
    entropy_deficit: float
    victim: float


def _round(
    session: AqssSession, victims: Sequence[int]
) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """Round-trip distance ||decoded - plaintext||_1, and the ascending
    spectra of the outsider's view and of each victim's share.

    The outsider's view is the key average, the product-channel output. The
    victim's channel, the only honest one when all the other receivers
    collude, acts on the victim's factor, so the victim's share is that
    channel on the plaintext marginal. With a factored plaintext, each factor
    output is decomposed once: a victim's share is its factor's spectrum, and
    the view's spectrum is the Kronecker product of them all. The factored
    round trip compares the unit product vectors psi and phi of the plaintext
    and the decoded state: ||psi psi† - phi phi†||_1 = 2 sqrt(1 - |<psi|phi>|^2),
    read as the residual 2 ||phi - psi <psi|phi>||, which keeps full precision
    near 0 and near 2.
    """
    decoded = cooperate_decode(session)
    parts, plaintext = session.channels.parts, session.plaintext
    if not isinstance(plaintext, tuple):
        dims = session.channels.dims
        shares = [
            output_spectrum(
                ChannelFamily((parts[v],)), linalg.partial_trace(plaintext, dims, keep=v)
            )
            for v in victims
        ]
        view = output_spectrum(session.channels, plaintext)
        return linalg.trace_norm(decoded - plaintext), view, shares
    psi, phi = linalg.kron_vectors(plaintext), linalg.kron_vectors(decoded)
    outputs = [output_spectrum(ChannelFamily((part,)), (f,)) for part, f in zip(parts, plaintext)]
    round_trip = 2.0 * float(np.linalg.norm(phi - psi * np.vdot(psi, phi)))
    return round_trip, np.sort(linalg.kron_vectors(outputs)), [outputs[v] for v in victims]


def audit(sessions: Iterable[AqssSession], victims: Sequence[int]) -> AuditReport:
    """Worst case over the rounds of the round-trip distance, the exterior
    distance, the exterior entropy deficit log2 D - S, and each victim's
    distance from 1/d on its marginal while all the other receivers collude.

    Each round is measured by _round. No joint state of colluders is formed
    for a victim. A factored session is measured through its factors from
    end to end: its round trip is one overlap of two product vectors, and no
    D x D matrix is formed or decomposed. A dense session's round trip
    decomposes the D x D difference, the reference for the factored one.
    A victim not in [0, m) is refused before its round measures anything, and
    no victims or no rounds, which would read as a perfect score, are refused.
    """
    if len(victims) == 0:
        raise ValueError("audit needs at least one victim, got none")
    round_trip = exterior = deficit = victim_worst = 0.0
    rounds = 0
    for rounds, session in enumerate(sessions, 1):
        dims = session.channels.dims
        for v in victims:  # refused before the round measures anything
            linalg.factor_layout(math.prod(dims), dims, v)
        distance, spectrum, shares = _round(session, victims)
        round_trip = max(round_trip, distance)
        exterior = max(exterior, linalg.distance_from_mixed(spectrum))
        deficit = max(deficit, math.log2(len(spectrum)) - linalg.spectrum_entropy(spectrum))
        for share in shares:
            victim_worst = max(victim_worst, linalg.distance_from_mixed(share))
    if rounds == 0:
        raise ValueError("audit needs at least one session, got none")
    return AuditReport(round_trip, exterior, deficit, victim_worst)


def key_cost(config: ProtocolConfig) -> KeyCostReport:
    """Secret-bit accounting: exact scheme 2m log2 d vs m ceil(log2 n), the
    bits of one uniform key index into each receiver's stack of n unitaries.

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
    return KeyCostReport(perfect_bits, approx_bits)
