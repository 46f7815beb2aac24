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

import numpy as np

from .protocol import FiniteStateProtocol, _bits, walk

EXAMPLE2_ADVANCE: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (2, 2))


def _tables(alpha, beta) -> np.ndarray:
    """The (..., n, 3) hardness tables of (..., n) bit rows: Alice's
    (a_i, a_i, b_i) at odd rounds i, Bob's (0, a_i, b_i) at even ones."""
    tables = np.stack((alpha, alpha, beta), axis=-1).astype(np.uint8)
    tables[..., 1::2, 0] = 0
    return tables


def build_example2(alpha, beta, initial_state: int = 0) -> FiniteStateProtocol:
    """The hardness protocol of the bit vectors ``alpha`` and ``beta``: odd
    entries belong to Alice, even ones to Bob."""
    alpha, beta = (_bits(bits, f"{name} must be a bit vector")
                   for bits, name in ((alpha, "alpha"), (beta, "beta")))
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have equal length")
    if len(alpha) % 2:
        raise ValueError("instances have an even number of rounds")
    return FiniteStateProtocol(n=len(alpha), M=3, advance=EXAMPLE2_ADVANCE,
                               transmissions=_tables(alpha, beta), initial_state=initial_state)


def disj_via_protocol(x, y) -> np.ndarray:
    """Disjointness, 1 or 0, of each row pair of the (B, u) membership bit
    arrays ``x`` (Alice's set) and ``y`` (Bob's), column k - 1 standing for
    element k. Each pair is decided by the final state of the hardness
    protocol whose alpha interleaves the rows, Alice's element k at 0-based
    round 2k - 2 and Bob's at 2k - 1, with beta zero, all in one walk: the
    walk hits the absorbing state exactly when some element is in both sets."""
    x, y = (_bits(bits, "x and y must hold only bits") for bits in (x, y))
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"x and y must be 2-D arrays of one shape, not {x.shape} and {y.shape}")
    alpha = np.stack((x, y), axis=2).reshape(x.shape[0], 2 * x.shape[1])
    finals = walk(EXAMPLE2_ADVANCE, _tables(alpha, np.zeros_like(alpha)), (0,))[-1, :, 0]
    return (finals != 2).astype(int)


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
    tables = _tables(alpha, bits[:, m // 2:])
    # the (2^free, 3, m) transcripts from each of the three initial states, in one walk
    states = walk(EXAMPLE2_ADVANCE, tables, np.arange(3))[:-1]
    triples = np.take_along_axis(tables.transpose(1, 0, 2), states, axis=2).transpose(1, 2, 0)
    triples = triples.reshape(1 << free, -1)
    # each triple read as one integer of its 3m <= 36 bits
    return len(np.unique(triples @ (1 << np.arange(3 * m))))
