"""M-state scheme: coincidence certificates of advance functions, usefulness
of transmission-function sets, the tail length, the tail-exhaustive
lookahead, and its probability bounds.

The lookahead idea for general M: inside each block, both parties learn the
transmission tables of a short tail of p rounds (raw M-bit truth tables over
the side channel), then each simulates the trajectories of all M possible
states at the tail's start. If every trajectory ends in the same state, that
state is pinned down regardless of which trajectory was real. Whether the
trajectories merge is governed by the advance function's coincidence
structure (every state pair drivable to a common state within K steps, found
by one search over all state pairs) and happens with probability bounded
away from failure when tables are drawn from a useful set. The tail is the
smallest multiple of K that is at least n^(1/4) rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import count, product
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec, TransferResult
from .protocol import FiniteStateProtocol, Party, Table, _advance_rows, _bit_rows, walk
from .vertical import (
    ColumnWire,
    LookaheadResult,
    SimulationReport,
    exchange,
    padded_side,
    simulate_vertical,
)


# ---------------------------------------------------------------------------
# coincidence analysis of advance functions

@dataclass(frozen=True)
class CoincidenceCertificate:
    """Witnesses that every state pair can be driven to a common state.

    ``witnesses`` maps each unordered pair (j, j') with j < j' to two driving
    bit sequences of equal length ≤ K; feeding the first to a walk from j and
    the second to a walk from j' lands both on the same state. K is the worst
    case over pairs of the minimal such length.
    """

    K: int
    witnesses: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]]


MAX_CERTIFIED_STATES = 1024  # the search tables and the witnesses grow as M**2


def _pair_distances(adv: np.ndarray) -> tuple[np.ndarray, list]:
    """``dist[u, v]``, the fewest rounds that drive u and v into one state
    (-1 where none do), found level by level backwards from the diagonal;
    and the successor pairs of every (u, v) under each move (a, b), in
    product order."""
    succ = [np.ix_(adv[:, a], adv[:, b]) for a, b in product((0, 1), repeat=2)]
    dist = np.where(np.eye(len(adv), dtype=bool), 0, -1)
    for level in count(1):
        reached = dist >= 0
        new = ~reached & np.logical_or.reduce([reached[s] for s in succ])
        if not new.any():
            return dist, succ
        dist[new] = level


def _advance_key(eta, M: int) -> tuple[tuple[int, int], ...]:
    if M > MAX_CERTIFIED_STATES:
        raise ValueError(f"coincidence certificates need at most {MAX_CERTIFIED_STATES} "
                         f"states, not {M}")
    return tuple(map(tuple, _advance_rows(eta, M).tolist()))


@lru_cache(maxsize=1024)
def _horizon(advance: tuple[tuple[int, int], ...]) -> int | None:
    dist, _ = _pair_distances(np.array(advance))
    return None if (dist < 0).any() else int(dist.max())


def coincidence_horizon(eta, M: int) -> int | None:
    """The K of ``is_coinciding``'s certificate, or None, without building
    its witnesses; cached per advance table for the trial path."""
    return _horizon(_advance_key(eta, M))


def is_coinciding(eta, M: int) -> CoincidenceCertificate | None:
    """Certificate with minimal-length witnesses, each the lexicographically
    first over the moves (a, b) in (0, 0), (0, 1), (1, 0), (1, 1) order, or
    None when some pair of states can never be driven to a common state.
    Certificates are computed for at most ``MAX_CERTIFIED_STATES`` states."""
    adv = np.array(_advance_key(eta, M))
    dist, succ = _pair_distances(adv)
    if (dist < 0).any():
        return None
    # per pair, the first move that gets one round closer: read greedily,
    # it gives the lexicographically first shortest witness
    closer = np.stack([dist[s] for s in succ]) == dist - 1
    first = closer.argmax(axis=0)
    us, vs = np.triu_indices(M, 1)
    lengths = dist[us, vs]
    K = int(lengths.max(initial=0))
    steps = np.empty((K, len(us)), dtype=np.intp)
    u, v = us, vs
    for k in range(K):  # pairs already met take move 0 and stay on the diagonal
        steps[k] = first[u, v]
        u, v = adv[u, steps[k] >> 1], adv[v, steps[k] & 1]
    witnesses = {
        (a, b): (tuple(left[:n]), tuple(right[:n]))
        for a, b, n, left, right in zip(us.tolist(), vs.tolist(), lengths.tolist(),
                                        (steps >> 1).T.tolist(), (steps & 1).T.tolist())
    }
    return CoincidenceCertificate(K, witnesses)


# ---------------------------------------------------------------------------
# usefulness of transmission-function sets

@dataclass(frozen=True)
class UsefulnessReport:
    useful: bool
    missing: tuple[tuple[int, int, int, int], ...]


def is_useful(function_set: Sequence[Table], M: int) -> UsefulnessReport:
    """Check that every output pattern (t, t') on every ordered pair of
    distinct states is realized by some table in the set."""
    tables = _bit_rows(function_set, len(function_set), M).tolist()
    missing = []
    for s, s2 in product(range(M), repeat=2):
        if s == s2:
            continue
        for t, t2 in product((0, 1), repeat=2):
            if not any(f[s] == t and f[s2] == t2 for f in tables):
                missing.append((s, s2, t, t2))
    return UsefulnessReport(not missing, tuple(missing))


def all_tables(M: int) -> tuple[Table, ...]:
    if M > 16:
        raise ValueError("full table enumeration supported for M <= 16")
    return tuple(tuple((x >> (M - 1 - i)) & 1 for i in range(M)) for x in range(1 << M))


def balanced_tables(M: int) -> tuple[Table, ...]:
    if M % 2:
        raise ValueError("balanced tables require an even number of states")
    return tuple(t for t in all_tables(M) if sum(t) == M // 2)


def resolve_functions(spec, M: int) -> np.ndarray:
    """The transmission-function set ``spec`` names for M states, as checked
    read-only (count, M) uint8 rows: "balanced", "all", or a nonempty list of
    M-entry bit rows."""
    if spec in ("balanced", "all"):
        spec = balanced_tables(M) if spec == "balanced" else all_tables(M)
    elif not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError('function set must be "balanced", "all" or a nonempty list of '
                         f'tables, not {spec!r}')
    return _bit_rows(spec, len(spec), M)


# ---------------------------------------------------------------------------
# probability bounds

def coincidence_bound(M: int, F_size: int, K: int, p: int) -> float:
    """Upper bound on one block's tail failing to merge all M trajectories.

    The tail is scanned in p/K disjoint K-round windows, each forcing one
    merge with probability at least F_size^-K, hence the requirement that K
    divide p (pad p up beforehand). p = 0 degenerates to the union bound
    over the M - 1 merges that never got a chance.
    """
    if M < 1 or F_size < 1 or K < 1:
        raise ValueError("M, F_size and K must be positive")
    if p == 0:
        return min(1.0, float(M - 1))
    if p < K:
        raise ValueError("tail must be at least K rounds")
    if p % K:
        raise ValueError("tail length must be a multiple of K")
    return min(1.0, (M - 1) * math.exp(-(F_size ** -K) * p / K))


# ---------------------------------------------------------------------------
# tail length and the trajectory machinery

PLACEMENTS = ("last", "first")  # where each block's exhaustive tail sits


def tail_length(n_padded: int, K: int) -> int:
    """Rounds of each block simulated exhaustively: the smallest multiple of
    K that is at least n_padded^(1/4), in exact integers."""
    if n_padded < 1 or K < 1:
        raise ValueError("n_padded and K must be positive")
    root = math.isqrt(math.isqrt(n_padded))  # floor of the fourth root
    root += root ** 4 < n_padded
    return -(-root // K) * K


def coincidence_failure_trials(eta, function_set: Sequence[Table], p: int,
                               trials: int, base_seed: int) -> int:
    """Monte Carlo count of tails whose M trajectories fail to merge, with
    tables drawn i.i.d. uniform from the set, one seed per trial. M is the
    advance table's row count; a table with no rows fails its check."""
    M = len(eta) if hasattr(eta, "__len__") else 0
    advance = _advance_rows(eta, M)
    fset = _bit_rows(function_set, len(function_set), M)
    picks = np.stack([
        np.random.default_rng(base_seed + t).integers(0, len(fset), size=p)
        for t in range(trials)
    ])
    finals = walk(advance, fset[picks], np.arange(M))[-1]
    return int((finals.min(axis=1) != finals.max(axis=1)).sum())


# ---------------------------------------------------------------------------
# the tail-exhaustive scheme

def _exchange_tail_tables(
    pp: FiniteStateProtocol,
    m: int,
    tail: int,
    placement: str,
    ch: ChannelModel,
    side_code: CodeSpec,
    rng: np.random.Generator,
) -> tuple[dict[Party, np.ndarray], tuple[TransferResult, ...]]:
    """Each party sends raw M-bit truth tables for its rounds in every
    block's tail. Returns, per party, its assembled (rows, tail, M) tables
    (own rounds exact, counterpart rounds as decoded), plus the two
    transfers."""
    start = m - tail if placement == "last" else 0  # columns before the tail
    tails = pp.tables.reshape(m, m, pp.M)[:, start:start + tail]
    # a party's tail columns: tail offsets whose round has its parity
    own = {q: np.s_[:, (q.parity - start - 1) % 2::2] for q in (Party.ALICE, Party.BOB)}
    heard, transfers = exchange({q: tails[own[q]] for q in own}, side_code, ch, rng,
                                matrix_seed=m + 5)
    assembled = {q: tails.copy() for q in own}
    for q in own:
        assembled[q][own[q.other]] = heard[q]
    return assembled, transfers


def _tail_finals(p: FiniteStateProtocol, tails: Mapping[Party, np.ndarray],
                 blocks: int) -> tuple[dict[Party, list[int]], set[int]]:
    """Walk all M trajectories over each of the first ``blocks`` tails of
    both parties, in one walk. Returns each party's block finals (the first
    trajectory's when they differ) and the blocks whose trajectories did not
    all merge for some party."""
    grids = np.concatenate([grid[:blocks] for grid in tails.values()])
    finals = walk(p.advance_array, grids, np.arange(p.M))[-1].reshape(len(tails), blocks, p.M)
    bad = set(np.flatnonzero((finals != finals[..., :1]).any(axis=(0, 2))).tolist())
    return dict(zip(tails, finals[..., 0].tolist())), bad


def _merge_failure(bad: set[int]) -> str:
    return f"trajectories did not merge in blocks {sorted(bad)}"


class TailWire(ColumnWire):
    """Wire format of first-p placement, one branch per entry state.

    The opening tail columns are never sent: each party runs all M branches
    through them with its own tables and the counterpart's tables it heard
    in the lookahead exchange. Later columns carry plain transcript bits.
    ``heard`` holds, tail column by tail column, the tables its receiver
    reads, so a block of tail columns decodes with one flat ``take``.
    """

    def __init__(self, tails: Mapping[Party, np.ndarray]):
        rows, self.unsent, self.branches = tails[Party.ALICE].shape
        # by tail column, the receiver's tables for it: Bob's for odd j, Alice's for even j
        alice = np.arange(1, self.unsent + 1) % 2 == 1
        heard = np.where(alice[:, None], tails[Party.BOB], tails[Party.ALICE])
        self.heard = heard.swapaxes(0, 1).ravel()
        self.offsets = (np.arange(self.unsent * rows) * self.branches).reshape(-1, rows, 1)

    def decode(self, j, bits, states):
        plain = super().decode(j, bits, states)
        quiet = min(max(self.unsent - j + 1, 0), len(states))  # the block's unsent columns
        if not quiet:
            return plain
        tail = self.heard.take(self.offsets[j - 1:j - 1 + quiet] + states[:quiet])
        if quiet == len(states):
            return tail
        return np.concatenate((tail, np.broadcast_to(plain[quiet:], states[quiet:].shape)))


def tail_exhaustive_lookahead(p: FiniteStateProtocol, tail: int, placement: str,
                              ch: ChannelModel, side_code: CodeSpec,
                              rng: np.random.Generator) -> LookaheadResult:
    """Both parties learn the tables of ``tail`` rounds at the ``placement``
    end of every block and walk all M trajectories over them. A block whose
    trajectories do not merge is a coincidence failure and aborts the run
    (reported, never silently wrong).

    last-p: block r+1's initial state is block r's common final. first-p:
    the result carries a ``TailWire``; the column loop reconstructs the
    tails for all M entry states, and chaining the blocks picks the real one.
    """
    m = padded_side(p)
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, not {placement!r}")
    if not 1 <= tail <= m:
        raise ValueError(f"tail must be from 1 to {m} rounds, not {tail}")
    tails, transfers = _exchange_tail_tables(p, m, tail, placement, ch, side_code, rng)
    if placement == "last":
        finals, bad = _tail_finals(p, tails, m - 1)
        return LookaheadResult((p.initial_state, *finals[Party.ALICE]),
                               (p.initial_state, *finals[Party.BOB]), transfers,
                               failure=_merge_failure(bad) if bad else None, tail_len=tail)
    _, bad = _tail_finals(p, tails, m)
    if bad:
        return LookaheadResult((), (), transfers, failure=_merge_failure(bad), tail_len=tail)
    return LookaheadResult((), (), transfers, tail_len=tail, coincidence_ok=True,
                           wire=TailWire(tails))


def tail_lookahead(pp: FiniteStateProtocol, ch: ChannelModel, side_code: CodeSpec,
                   rng: np.random.Generator, placement: str) -> LookaheadResult:
    """The m-state lookahead in either placement, with the tail length taken
    from the advance function's coincidence certificate. A non-coinciding
    advance function, or a tail that does not fit in a block, fails before
    any channel use."""
    m = padded_side(pp)
    K = coincidence_horizon(pp.advance, pp.M)
    if K is None:
        return LookaheadResult((), (), failure="advance function is not coinciding")
    tail = tail_length(pp.n, max(1, K))
    if tail > m:
        return LookaheadResult((), (),
                               failure=f"tail of {tail} rounds does not fit in blocks of {m}")
    return tail_exhaustive_lookahead(pp, tail, placement, ch, side_code, rng)


def simulate_mstate(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                    side_spec: CodeSpec, placement: str,
                    rng: np.random.Generator, seed: int | None = None) -> SimulationReport:
    """Tail-exhaustive simulation in either placement.

    last-p agrees on every block's initial state before the columns. first-p
    instead leaves the first p columns of every block untransmitted: both
    parties reconstruct them for all M initial states from the exchanged
    tail tables, transmit one transcript bit per row for the remaining
    columns, and resolve the actual trajectory by chaining block finals.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"placement must be one of {PLACEMENTS}, not {placement!r}")
    return simulate_vertical(p, ch, code_spec, partial(tail_lookahead, placement=placement),
                             rng, scheme=f"m-state-{placement}", seed=seed, side=side_spec)
