"""Three-state hardness construction: a protocol family whose simulation is
as hard as set disjointness, plus the transcript-counting demonstration that
exhaustive simulation must move 3m/2 bits.

The advance function has states {0, 1, 2} with 2 absorbing: from 0 the
transcript bit is copied into the state, from 1 a one leads to 2 and a zero
back to 0, and 2 never exits. Alice's rounds transmit a_i from states 0 and
1; Bob's rounds transmit a_i only from state 1 (else 0); both transmit b_i
from state 2. Walking the α bits as interleaved membership indicators makes
state 2 reachable exactly when the two sets intersect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .protocol import FiniteStateProtocol, walk

EXAMPLE2_ADVANCE: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (2, 2))


def _tables(alpha, beta) -> np.ndarray:
    """The (..., n, 3) hardness tables of (..., n) bit rows: Alice's
    (a_i, a_i, b_i) at odd rounds i, Bob's (0, a_i, b_i) at even ones."""
    tables = np.stack((alpha, alpha, beta), axis=-1).astype(np.uint8)
    tables[..., 1::2, 0] = 0
    return tables


def _transcripts(tables: np.ndarray) -> np.ndarray:
    """The (B, 3, n) transcripts of a (B, n, 3) stack of hardness tables from
    each of the three initial states, in one walk."""
    states = walk(EXAMPLE2_ADVANCE, tables, np.arange(3))[:-1]
    return np.take_along_axis(tables.transpose(1, 0, 2), states, axis=2).transpose(1, 2, 0)


def _as_bit_vector(bits, name: str) -> tuple[int, ...]:
    out = tuple(bits)
    if not set(out) <= {0, 1}:  # 0.7 is rejected, not truncated to 0
        raise ValueError(f"{name} must be a bit vector")
    return tuple(map(int, out))


@dataclass(frozen=True)
class DisjInstance:
    """A disjointness input: Alice holds x, Bob holds y, both subsets of
    {1, ..., universe}."""

    universe: int
    x: frozenset[int] = field(default_factory=frozenset)
    y: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.universe < 1:
            raise ValueError("universe must be nonempty")
        ground = set(range(1, self.universe + 1))
        if not (set(self.x) <= ground and set(self.y) <= ground):
            raise ValueError("x and y must be subsets of the universe")
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))

    @property
    def rounds(self) -> int:
        return 2 * self.universe

    def disj(self) -> int:
        return 1 if not (self.x & self.y) else 0


@dataclass(frozen=True)
class ThreeStateInstance:
    """Input vectors for the hardness protocol: odd entries of alpha belong
    to Alice, even to Bob, and likewise for beta."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        alpha = _as_bit_vector(self.alpha, "alpha")
        beta = _as_bit_vector(self.beta, "beta")
        if len(alpha) != len(beta):
            raise ValueError("alpha and beta must have equal length")
        if len(alpha) % 2:
            raise ValueError("instances have an even number of rounds")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def rounds(self) -> int:
        return len(self.alpha)

    def protocol(self, initial_state: int = 0) -> FiniteStateProtocol:
        """Three-state protocol over the fixed advance table and ``_tables``."""
        return FiniteStateProtocol(n=self.rounds, M=3, advance=EXAMPLE2_ADVANCE,
                                   transmissions=_tables(self.alpha, self.beta),
                                   initial_state=initial_state)


def build_example2(alpha, beta, initial_state: int = 0) -> FiniteStateProtocol:
    """The hardness protocol of the bit vectors ``alpha`` and ``beta``."""
    return ThreeStateInstance(alpha, beta).protocol(initial_state)


def _alphas(instances: Sequence[DisjInstance]) -> np.ndarray:
    """(instances, n) alpha rows interleaving the membership indicators,
    Alice's element k at 0-based position 2k - 2 and Bob's at 2k - 1, with n
    twice the largest universe: a smaller one is padded with zeros."""
    n = 2 * max((inst.universe for inst in instances), default=1)
    alpha = np.zeros(len(instances) * n, dtype=np.uint8)
    alpha[[i * n + 2 * k - 2 for i, inst in enumerate(instances) for k in inst.x]] = 1
    alpha[[i * n + 2 * k - 1 for i, inst in enumerate(instances) for k in inst.y]] = 1
    return alpha.reshape(-1, n)


def reduce_disjointness(inst: DisjInstance) -> ThreeStateInstance:
    """alpha interleaves the membership indicators (Alice's set on odd
    positions, Bob's on even); beta is irrelevant and set to zero."""
    return ThreeStateInstance(tuple(_alphas([inst])[0].tolist()), (0,) * inst.rounds)


def disj_via_protocol(instances: Sequence[DisjInstance]) -> np.ndarray:
    """Disjointness of each instance, 1 or 0, decided by the final state of
    its reduction's protocol, all in one walk: the walk hits the absorbing
    state exactly when some element is in both sets. The zero rounds that pad
    a smaller universe lead states 0 and 1 to 0."""
    alpha = _alphas(instances)
    finals = walk(EXAMPLE2_ADVANCE, _tables(alpha, np.zeros_like(alpha)), (0,))[-1, :, 0]
    return (finals != 2).astype(int)


def transcript_triple(alpha, beta) -> tuple[tuple[int, ...], ...]:
    """Transcripts of the instance from each of the three initial states."""
    return tuple(map(tuple, _transcripts(build_example2(alpha, beta).tables[None])[0].tolist()))


def count_transcript_triples(m: int) -> int:
    """Number of distinct transcript triples over all assignments with free
    odd alpha entries and free beta, even alpha pinned to zero.

    The count equals 2^(3m/2) because distinct assignments give distinct
    triples, which is the information-content obstruction to exhaustive
    simulation: answering all three initial states moves 3m/2 bits.
    """
    if m % 2 or m < 2:
        raise ValueError("m must be even and positive")
    free = 3 * m // 2
    if free > 18:
        raise ValueError("exhaustive enumeration supported up to m = 12")
    # row x of ``bits`` holds the free bits of assignment x
    bits = np.arange(1 << free, dtype=np.uint32)[:, None] >> np.arange(free, dtype=np.uint32) & 1
    alpha = np.zeros((1 << free, m), dtype=np.uint8)
    alpha[:, 0::2] = bits[:, :m // 2]
    triples = _transcripts(_tables(alpha, bits[:, m // 2:])).reshape(1 << free, -1)
    # each triple read as one integer of its 3m <= 36 bits
    return len(np.unique(triples @ (1 << np.arange(3 * m))))
