"""M-state scheme: coincidence analysis, usefulness of transmission-function
sets, the tail-exhaustive lookahead, and its probability bounds.

The lookahead idea for general M: inside each block, both parties learn the
transmission tables of a short tail of p rounds (raw M-bit truth tables over
the side channel), then each simulates the trajectories of all M possible
states at the tail's start. If every trajectory ends in the same state, that
state is pinned down regardless of which trajectory was real. Whether the
trajectories merge is governed by the advance function's coincidence
structure (every state pair drivable to a common state within K steps) and
happens with probability bounded away from failure when tables are drawn
from a useful set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec
from .protocol import FiniteStateProtocol, Party, Table, _advance_rows, _bit_rows
from .vertical import (
    ColumnWire,
    LookaheadResult,
    SimulationReport,
    exchange,
    make_schedule,
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


@lru_cache(maxsize=1024)
def _coincidence_search(advance: tuple[tuple[int, int], ...]) -> CoincidenceCertificate | None:
    M = len(advance)
    pairs = list(combinations(range(M), 2))
    witnesses = {}
    worst = 0
    for pair in pairs:
        # BFS on pair states, both walks driven by independently chosen bits
        parent: dict[tuple[int, int], tuple[tuple[int, int], int, int]] = {}
        frontier = [pair]
        seen = {pair}
        hit = None
        while frontier and hit is None:
            nxt = []
            for node in frontier:
                u, v = node
                for a, b in product((0, 1), repeat=2):
                    child = (advance[u][a], advance[v][b])
                    if child in seen:
                        continue
                    seen.add(child)
                    parent[child] = (node, a, b)
                    if child[0] == child[1]:
                        hit = child
                        break
                    nxt.append(child)
                if hit:
                    break
            frontier = nxt
        if hit is None:
            return None
        left: list[int] = []
        right: list[int] = []
        node = hit
        while node != pair:
            node, a, b = parent[node]
            left.append(a)
            right.append(b)
        left.reverse()
        right.reverse()
        witnesses[pair] = (tuple(left), tuple(right))
        worst = max(worst, len(left))
    return CoincidenceCertificate(worst, witnesses)


def is_coinciding(eta, M: int) -> CoincidenceCertificate | None:
    """Certificate with minimal-length witnesses, or None when some pair of
    states can never be driven to a common state."""
    advance = tuple(map(tuple, _advance_rows(eta, M).tolist()))
    if M == 1:
        return CoincidenceCertificate(0, {})
    return _coincidence_search(advance)


# ---------------------------------------------------------------------------
# usefulness of transmission-function sets

@dataclass(frozen=True)
class UsefulnessReport:
    useful: bool
    missing: tuple[tuple[int, int, int, int], ...]


def is_useful(function_set: Sequence[Table], M: int) -> UsefulnessReport:
    """Check that every output pattern (t, t') on every ordered pair of
    distinct states is realized by some table in the set."""
    tables = [tuple(int(b) for b in f) for f in function_set]
    if any(len(f) != M for f in tables):
        raise ValueError(f"every table must be defined on {M} states")
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


def all_blocks_coincidence_bound(M: int, F_size: int, K: int, n: int) -> float:
    """Union bound over all sqrt(n) blocks, tail length n^(1/4)."""
    if n < 1:
        raise ValueError("n must be positive")
    return min(1.0, math.sqrt(n) * M * math.exp(-(F_size ** -K) * (n ** 0.25) / K))


# ---------------------------------------------------------------------------
# tail plans and the trajectory machinery

PLACEMENTS = ("last", "first")  # where each block's exhaustive tail sits


@dataclass(frozen=True)
class TailPlan:
    """How much of each block is simulated exhaustively and where.

    placement "last": the tail is the final p rounds of each block and yields
    the next block's initial state. placement "first": the tail is the
    opening p rounds, simulated for all M initial states and resolved by
    chaining at the end.
    """

    p: int
    placement: str
    K: int

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}, not {self.placement!r}")
        if self.K < 1 or self.p < 1:
            raise ValueError("p and K must be positive")
        if self.p % self.K:
            raise ValueError("p must be a multiple of K")


def fourth_root_ceil(n: int) -> int:
    """Exact smallest integer r with r**4 >= n."""
    if n < 1:
        raise ValueError("n must be positive")
    r = max(1, round(n ** 0.25) - 2)
    while r ** 4 < n:
        r += 1
    return r


def make_tail_plan(n_padded: int, K: int, placement: str = "last") -> TailPlan:
    m = math.isqrt(n_padded)
    if m * m != n_padded:
        raise ValueError("tail plans are made for padded square lengths")
    p0 = fourth_root_ceil(n_padded)
    p = K * math.ceil(p0 / K)
    if p > m:
        raise ValueError(f"tail of {p} rounds does not fit in blocks of {m}")
    return TailPlan(p, placement, K)


def walk_all_states(advance: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Walk every start state through each of B table sequences at once.

    ``tables`` is (B, p, M), sequence b's round k table in ``tables[b, k]``.
    Returns the (B, M) final states, column s for start state s.
    """
    B, p, M = tables.shape
    rows = np.arange(B)[:, None]
    states = np.tile(np.arange(M), (B, 1))
    for k in range(p):
        states = advance[states, tables[rows, k, states]]
    return states


def trajectories_coincide(eta, tables: Sequence[Table],
                          M: int) -> tuple[bool, tuple[int, ...]]:
    """Walk every possible initial state through the table sequence; report
    whether all finals agree, and the finals themselves."""
    steps = np.asarray(tables, dtype=np.intp).reshape(1, -1, M)
    finals = walk_all_states(np.asarray(eta, dtype=np.intp), steps)[0].tolist()
    return len(set(finals)) == 1, tuple(finals)


def coincidence_failure_trials(eta, function_set: Sequence[Table], p: int,
                               trials: int, base_seed: int) -> int:
    """Monte Carlo count of tails whose M trajectories fail to merge, with
    tables drawn i.i.d. uniform from the set, one seed per trial."""
    fset = np.asarray(function_set, dtype=np.uint8)
    picks = np.stack([
        np.random.default_rng(base_seed + t).integers(0, len(fset), size=p)
        for t in range(trials)
    ])
    finals = walk_all_states(np.asarray(eta, dtype=np.intp), fset[picks])
    return int((finals.min(axis=1) != finals.max(axis=1)).sum())


# ---------------------------------------------------------------------------
# the tail-exhaustive scheme

def _exchange_tail_tables(
    pp: FiniteStateProtocol,
    m: int,
    plan: TailPlan,
    ch: ChannelModel,
    side_code: CodeSpec,
    rng: np.random.Generator,
) -> tuple[dict[Party, np.ndarray], int, int]:
    """Each party sends raw M-bit truth tables for its rounds in every
    block's tail. Returns, per party, its assembled (rows, p, M) tail tables
    (own rounds exact, counterpart rounds as decoded), plus the logical bits
    and channel uses spent."""
    start = m - plan.p if plan.placement == "last" else 0  # columns before the tail
    tails = pp.tables.reshape(m, m, pp.M)[:, start:start + plan.p]
    # a party's tail columns: tail offsets whose round has its parity
    own = {q: np.s_[:, (q.parity - start - 1) % 2::2] for q in (Party.ALICE, Party.BOB)}
    heard, bits_used, channel_uses = exchange({q: tails[own[q]] for q in own}, side_code,
                                              ch, rng, matrix_seed=m + 5)
    assembled = {q: tails.copy() for q in own}
    for q in own:
        assembled[q][own[q.other]] = heard[q]
    return assembled, bits_used, channel_uses


def _tail_finals(p: FiniteStateProtocol, tails: Mapping[Party, np.ndarray],
                 blocks: int) -> tuple[dict[Party, list[int]], set[int]]:
    """Walk all M trajectories over each of the first ``blocks`` tails, all
    blocks at once, per party. Returns each party's block finals (the first
    trajectory's when they differ) and the blocks whose trajectories did not
    all merge."""
    finals: dict[Party, list[int]] = {}
    bad: set[int] = set()
    for q, grid in tails.items():
        states = walk_all_states(p.advance_array, grid[:blocks])
        bad.update(np.flatnonzero((states != states[:, :1]).any(axis=1)).tolist())
        finals[q] = states[:, 0].tolist()
    return finals, bad


def _merge_failure(bad: set[int]) -> str:
    return f"trajectories did not merge in blocks {sorted(bad)}"


class TailWire(ColumnWire):
    """Wire format of first-p placement, one branch per entry state.

    The opening tail columns are never sent: each party runs all M branches
    through them with its own tables and the counterpart's tables it heard
    in the lookahead exchange. Later columns carry plain transcript bits.
    """

    def __init__(self, tails: Mapping[Party, np.ndarray]):
        _, self.p, self.branches = tails[Party.ALICE].shape
        self.tails = tails

    def encode(self, party, j, tables, taus):
        return None if j <= self.p else super().encode(party, j, tables, taus)

    def decode(self, party, j, bits, states):
        return (super().decode(party, j, bits, states) if j > self.p
                else self.tails[party][np.arange(len(states))[:, None], j - 1, states])


def tail_exhaustive_lookahead(p: FiniteStateProtocol, plan: TailPlan, ch: ChannelModel,
                              side_code: CodeSpec, rng: np.random.Generator) -> LookaheadResult:
    """Both parties learn every block's tail tables and walk all M
    trajectories over them. A block whose trajectories do not merge is a
    coincidence failure and aborts the run (reported, never silently wrong).

    last-p: block r+1's initial state is block r's common final. first-p:
    the result carries a ``TailWire``; the column loop reconstructs the
    tails for all M entry states, and chaining the blocks picks the real one.
    """
    sched = make_schedule(p.n)
    if sched.n_padded != p.n:
        raise ValueError("protocol length must be the padded square")
    tails, bits_used, channel_uses = _exchange_tail_tables(p, sched.m, plan, ch, side_code, rng)
    if plan.placement == "last":
        finals, bad = _tail_finals(p, tails, sched.rows - 1)
        return LookaheadResult((p.initial_state, *finals[Party.ALICE]),
                               (p.initial_state, *finals[Party.BOB]),
                               bits_used, channel_uses,
                               failure=_merge_failure(bad) if bad else None, tail_len=plan.p)
    _, bad = _tail_finals(p, tails, sched.rows)
    if bad:
        return LookaheadResult((), (), bits_used, channel_uses,
                               failure=_merge_failure(bad), tail_len=plan.p)
    return LookaheadResult((), (), bits_used, channel_uses, tail_len=plan.p,
                           coincidence_ok=True, wire=TailWire(tails))


def tail_lookahead(pp: FiniteStateProtocol, ch: ChannelModel, side_code: CodeSpec,
                   rng: np.random.Generator, placement: str) -> LookaheadResult:
    """The m-state lookahead in either placement, with the tail plan taken
    from the advance function's coincidence certificate. A non-coinciding
    advance function, or a tail that does not fit in a block, fails before
    any channel use."""
    cert = is_coinciding(pp.advance, pp.M)
    if cert is None:
        return LookaheadResult((), (), 0, 0, failure="advance function is not coinciding")
    try:
        plan = make_tail_plan(pp.n, max(1, cert.K), placement)
    except ValueError as exc:  # the tail does not fit in a block
        return LookaheadResult((), (), 0, 0, failure=str(exc))
    return tail_exhaustive_lookahead(pp, plan, ch, side_code, rng)


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
