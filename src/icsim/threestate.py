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
from itertools import product

import numpy as np

from .protocol import FiniteStateProtocol, run_protocol

EXAMPLE2_ADVANCE: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (2, 2))


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
        """Three-state protocol over the fixed advance table: Alice's table
        at odd i is (a_i, a_i, b_i), Bob's at even i is (0, a_i, b_i)."""
        tables = np.array((self.alpha, self.alpha, self.beta), dtype=np.uint8).T
        tables[1::2, 0] = 0
        return FiniteStateProtocol(n=self.rounds, M=3, advance=EXAMPLE2_ADVANCE,
                                   transmissions=tables, initial_state=initial_state)


def build_example2(alpha, beta, initial_state: int = 0) -> FiniteStateProtocol:
    """The hardness protocol of the bit vectors ``alpha`` and ``beta``."""
    return ThreeStateInstance(alpha, beta).protocol(initial_state)


def reduce_disjointness(inst: DisjInstance) -> ThreeStateInstance:
    """alpha interleaves the membership indicators (Alice's set on odd
    positions, Bob's on even); beta is irrelevant and set to zero."""
    alpha = [0] * inst.rounds
    for k in inst.x:
        alpha[2 * k - 2] = 1
    for k in inst.y:
        alpha[2 * k - 1] = 1
    return ThreeStateInstance(tuple(alpha), (0,) * inst.rounds)


def disj_via_protocol(inst: DisjInstance) -> int:
    """Disjointness decided by the final state: the walk hits the absorbing
    state exactly when some element is in both sets."""
    trace = run_protocol(reduce_disjointness(inst).protocol())
    return 1 if trace.states[-1] in (0, 1) else 0


def transcript_triple(alpha, beta) -> tuple[tuple[int, ...], ...]:
    """Transcripts of the instance from each of the three initial states."""
    p = build_example2(alpha, beta)
    return tuple(run_protocol(p, s0).bits for s0 in range(3))


def count_transcript_triples(m: int) -> int:
    """Number of distinct transcript triples over all assignments with free
    odd alpha entries and free beta, even alpha pinned to zero.

    The count equals 2^(3m/2) because distinct assignments give distinct
    triples, which is the information-content obstruction to exhaustive
    simulation: answering all three initial states moves 3m/2 bits.
    """
    if m % 2 or m < 2:
        raise ValueError("m must be even and positive")
    if 3 * m // 2 > 18:
        raise ValueError("exhaustive enumeration supported up to m = 12")
    triples = set()
    for odd in product((0, 1), repeat=m // 2):
        alpha = [0] * m
        alpha[0::2] = odd
        for beta in product((0, 1), repeat=m):
            triples.add(transcript_triple(tuple(alpha), beta))
    return len(triples)
