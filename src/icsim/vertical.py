"""Vertical block simulation of finite-state protocols over a noisy channel.

The n rounds are padded to a square n' = m^2 (``grid_side``; every provider
checks its protocol with ``padded_side``) and arranged in an m-by-m grid,
row r holding rounds rm+1 .. rm+m. Column j of the grid is owned entirely by
one party (Alice for odd j, Bob for even j), so the m bits of a column can be
produced in one shot and carried by a single block code, provided both parties
know the state each row starts in. Those block-initial states come from a
lookahead provider, which is where the different schemes differ: a genie can
just read them off the clean execution, while real providers pay extra
channel uses to agree on them. A provider is a plain function
``(pp, ch, side, rng) -> LookaheadResult`` of the padded protocol, the
channel, the side-information code (None for the genie) and the trial's
generator; every side exchange goes through ``exchange``.

After the lookahead phase one column loop serves every scheme. Each party
holds a (rows x branches) array of candidate states: one branch when the
row-start states are agreed, one per possible start state when they are
not. For each column the owner maps its tables to one wire bit per row, one
coded block carries them as an array, and the receiver reads one bit per
row and branch off the decoded bits at its current states. A scheme changes
only that wire mapping (``ColumnWire``), whose two maps take a block of
consecutive columns. While the two parties' states are equal they share
one stretch of bits and states, computed a segment of columns at a time:
one ``walk`` gives the segment's states, one ``take`` its transcript bits
and one call of each wire map its payloads and what the receiver makes of
them intact, so the loop over its columns only sends and reads each
transfer's ``intact``. At a column where the receiver applies other bits
than the owner's, each party walks its own, a column at a time, but only
while their states differ: equal again after two intact columns, they
share the next stretch. This module alone builds the ``SimulationReport``
and decides each party's correctness, by checking the states the column
loop walked against the tables; it runs the protocol only after an error.

Every count in a report is read from the trial's ledger: its transfers in
send order, the provider's side transfers (``LookaheadResult.transfers``)
first, then one per sent column. ``channel_uses`` sums the whole ledger, and
``accounting`` checks it against the sums over the two parts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec, TransferResult, convey
from .protocol import (
    FiniteStateProtocol,
    Party,
    chain,
    pad_protocol,
    run_protocol,
    walk,
)


def grid_side(n: int) -> int:
    """The side m of the grid that holds n rounds: the smallest square of at
    least n rounds whose side is even (or 1), padded to m * m rounds.

    An even side keeps every column single-owner: round rm+j has the parity
    of j exactly when m is even. m = 1 is fine too since there is one round.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = math.isqrt(n - 1) + 1
    return m + (m > 1 and m % 2)


def padded_side(p: FiniteStateProtocol) -> int:
    """The grid side of a protocol already padded to its grid, the one check
    every lookahead provider runs first."""
    m = grid_side(p.n)
    if m * m != p.n:
        raise ValueError("protocol length must be a padded square with even side")
    return m


class ColumnWire:
    """What a sent column carries: here, the transcript bit of each row.

    A party keeps ``branches`` candidate states per row: one, or one per
    possible row-start state (branch b then starts in state b). Column j is
    Alice's for odd j and Bob's for even j. Both maps take a block of
    consecutive columns j, j + 1, ..., column axis first; one column is a
    block of one. ``encode`` maps the owners' (columns, rows, M) tables and
    the (columns, rows, branches) transcript bits they give on the owners'
    branches to each column's payload, ``[c]`` for column j + c. ``decode``
    gives each receiver its (columns, rows, branches) bits at its states
    from the payloads it heard; a plain bit is the same on every branch, a
    branch axis of 1. Columns 1 .. ``unsent`` are never sent, and their
    payloads reach ``decode`` unread.
    """

    branches = 1
    unsent = 0

    def encode(self, j: int, tables: np.ndarray, taus: np.ndarray) -> np.ndarray:
        return taus[..., 0]

    def decode(self, j: int, bits: np.ndarray, states: np.ndarray) -> np.ndarray:
        return bits[..., None]


@dataclass(frozen=True)
class LookaheadResult:
    """Block-initial states as each party believes them, plus its cost.

    ``alice_states`` and ``bob_states`` are length-``rows`` tuples giving the
    state at the start of each row; they are empty when ``wire`` carries one
    branch per start state instead. ``transfers`` holds the provider's side
    transfers in send order (none for the genie), and ``bits_used`` sums
    their payload bits. ``failure`` is a diagnostic string when the provider
    could not commit to an answer (the simulation then aborts rather than
    run from states known to be wrong). ``coincidence_ok`` is the report's
    value for a run that does not abort; ``wire`` replaces the plain
    transcript-bit columns.
    """

    alice_states: tuple[int, ...]
    bob_states: tuple[int, ...]
    transfers: tuple[TransferResult, ...] = ()
    failure: str | None = None
    tail_len: int | None = None
    coincidence_ok: bool | None = None
    wire: ColumnWire | None = None

    @property
    def bits_used(self) -> int:
        return sum(t.bits.size for t in self.transfers)


LookaheadProvider = Callable[
    [FiniteStateProtocol, ChannelModel, CodeSpec | None, np.random.Generator],
    LookaheadResult,
]


def exchange(payloads: Mapping[Party, np.ndarray], side: CodeSpec, ch: ChannelModel,
             rng: np.random.Generator, matrix_seed: int,
             ) -> tuple[dict[Party, np.ndarray], tuple[TransferResult, ...]]:
    """One side exchange: Alice sends her payload, then Bob his, each as one
    coded transfer with ``side`` and generator seed ``matrix_seed + k``.
    Returns what each party heard from the other, in the shape of the sent
    payload, plus Alice's and Bob's ``TransferResult``."""
    senders = (Party.ALICE, Party.BOB)
    transfers = tuple(convey(side, payloads[q].ravel(), ch, rng, matrix_seed=matrix_seed + k)
                      for k, q in enumerate(senders))
    return {q.other: t.bits.reshape(payloads[q].shape)
            for q, t in zip(senders, transfers)}, transfers


def genie_provider(pp: FiniteStateProtocol, ch: ChannelModel, side: CodeSpec | None,
                   rng: np.random.Generator) -> LookaheadResult:
    """Exact block-initial states of the clean execution, for both parties and
    at no cost: every row walked from every state at once, then the rows
    chained. The channel, code and generator are not used."""
    m = padded_side(pp)
    finals = walk(pp.advance_array, pp.tables.reshape(m, m, pp.M), np.arange(pp.M))[-1]
    states = tuple(chain(finals, pp.initial_state).tolist())
    return LookaheadResult(states, states)


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Everything one simulated execution produced, for audits and CSV rows.

    A sweep holds every report of an n, so reports are slotted and share
    their name strings and column-error patterns (``_shared``)."""

    scheme: str
    channel: str
    code: str
    seed: int | None
    n_logical: int
    n_padded: int
    m: int
    rows: int
    states: int
    channel_uses: int
    vertical_uses: int
    lookahead_uses: int
    lookahead_bits: int
    rate_target: float
    side_rate: float | None
    alice_correct: bool
    bob_correct: bool
    column_errors: tuple[bool, ...]
    lookahead_failure: str | None = None
    coincidence_ok: bool | None = None
    tail_len: int | None = None

    @property
    def achieved_rate(self) -> float:
        return self.n_logical / self.channel_uses if self.channel_uses else 0.0

    @property
    def correct(self) -> bool:
        return self.alice_correct and self.bob_correct


@lru_cache(maxsize=8)  # a sweep runs one grid shape per n; a large grid's table is megabytes
def _round_offsets(cols: int, rows: int, M: int, branches: int) -> np.ndarray:
    """Read-only (cols, rows, branches) flat offsets (c + cols * r) * M of the
    tables of round r * cols + c in a (rows, cols, M) grid, repeated on the
    branch axis, since adding states to a stride-0 axis takes twice as long."""
    at = ((np.arange(cols)[:, None] + cols * np.arange(rows)) * M)[..., None].repeat(branches,
                                                                                    axis=2)
    at.flags.writeable = False
    return at


_SEGMENT = 8  # columns in the first segment of a shared stretch; each next one is twice as long
# intact per-party columns, each ending in equal states, before a shared stretch
# resumes: resuming at once was slower on noisy channels, where the next error
# cut most stretches short
_HEALED = 2
_SIDES = ((1, 0), (0, 1))  # (owner, receiver) by j % 2, as indices 0 = Alice, 1 = Bob


def run_columns(grid: np.ndarray, advance: np.ndarray,
                starts: Mapping[Party, np.ndarray], wire: ColumnWire,
                carry: Callable[[int, np.ndarray], TransferResult],
                ) -> dict[Party, tuple[np.ndarray, np.ndarray]]:
    """The column loop of every scheme, and the one walk of its transcripts.

    ``grid`` holds the (rows, columns, M) tables, column j's at
    ``grid[:, j - 1]``, and ``starts[q]`` party q's (rows, branches) start
    states. ``carry(j, payload)`` takes column j's payload to the receiver
    and returns its ``TransferResult``, whose ``intact`` the loop trusts.
    Returns, per party, the (columns, rows, branches) transcript bits of
    every branch and the (columns + 1, rows, branches) states they drive
    through: ``[0]`` the starts, ``[-1]`` the finals. The arrays are
    read-only, and the same objects for both parties only when they never
    split.

    While the parties' states are equal they share one stretch of columns
    (``_shared_columns``), up to a column where the receiver applies other
    bits than the owner's. From there, and from unequal starts, each party
    walks its own, a column at a time, only while their states differ: once
    they are equal after ``_HEALED`` consecutive intact columns, a shared
    stretch resumes from the next column. Both parties' bits and states of
    a column sit side by side, so one gather advances both.
    """
    rows, cols, M = grid.shape
    bits = np.empty((cols, 2, rows, wire.branches), dtype=np.uint8)  # [:, 0] Alice's, [:, 1] Bob's
    states = np.empty((cols + 1, 2, rows, wire.branches), dtype=np.intp)
    states[0] = starts[Party.ALICE], starts[Party.BOB]
    flat = grid.ravel()
    at = _round_offsets(cols, rows, M, wire.branches)
    tables = grid.swapaxes(0, 1)  # column j's at [j - 1]
    done = 0  # columns walked
    # intact columns in a row that ended in equal states; a shared stretch starts at _HEALED
    calm = _HEALED if np.array_equal(starts[Party.ALICE], starts[Party.BOB]) else 0
    while done < cols:
        if calm == _HEALED:
            split = _shared_columns(grid, flat, at, advance, wire, carry, bits, states, done + 1)
            if split is None:
                break
            done, calm = split, 0
            continue
        j = done = done + 1
        own, other = _SIDES[j % 2]
        col = slice(j - 1, j)
        bits[col, own] = taus = flat.take(at[col] + states[col, own])
        sent = wire.encode(j, tables[col], taus)[0]
        transfer = carry(j, sent) if j > wire.unsent else None
        bits[col, other] = wire.decode(j, (sent if transfer is None else transfer.bits)[None],
                                       states[col, other])
        states[j] = advance[states[j - 1], bits[j - 1]]
        intact = transfer is None or transfer.intact
        calm = calm + 1 if intact and states[j, 0].tobytes() == states[j, 1].tobytes() else 0
    bits.flags.writeable = states.flags.writeable = False
    alice = bits[:, 0], states[:, 0]
    return {Party.ALICE: alice,  # done is 0 only when the first shared stretch ran to the end
            Party.BOB: alice if done == 0 else (bits[:, 1], states[:, 1])}


def _shared_columns(grid: np.ndarray, flat: np.ndarray, at: np.ndarray, advance: np.ndarray,
                    wire: ColumnWire, carry: Callable[[int, np.ndarray], TransferResult],
                    bits: np.ndarray, states: np.ndarray, start: int) -> int | None:
    """The stretch both parties share from column ``start``, whose start
    states they hold equal in ``states[start - 1]``. It is held in Alice's
    half of ``bits`` and ``states`` and computed a segment of columns at a
    time: one ``walk`` of the segment's tables gives every state, one flat
    ``take`` at ``at`` every transcript bit, and one call of each wire map
    every column's payload and the bits the receiver applies if it arrives
    intact. Then each sent column is carried in turn, and only one that did
    not arrive intact is decoded again.

    Returns the first column j where the receiver applies other bits than
    the owner's, or None when the stretch runs to the last column. Bob's
    half then holds a copy of the stretch through column j, or to the end
    unless the stretch is the whole run, and the receiver's half its own
    bits at j - 1 and states at j; the walk's bits and states past j stand
    in Alice's half until the per-party loop overwrites both halves."""
    cols = grid.shape[1]
    shared_bits, shared_states = bits[:, 0], states[:, 0]
    first, size = start, _SEGMENT
    while first <= cols:
        last = min(cols, first + size - 1)
        block = slice(first - 1, last)
        was = shared_states[block]
        shared_states[first:last + 1] = walk(advance, grid[:, block], was[0])[1:]
        shared_bits[block] = taus = flat.take(at[block] + was)
        sent = wire.encode(first, grid[:, block].swapaxes(0, 1), taus)
        mapped = wire.decode(first, sent, was)
        differs = (mapped != taus).any(axis=(1, 2)).tolist()
        for c, j in enumerate(range(first, last + 1)):
            applied = mapped[c]
            if j > wire.unsent:
                transfer = carry(j, sent[c])
                if not transfer.intact:
                    applied = wire.decode(j, transfer.bits[None], was[c:c + 1])[0]
                    differs[c] = bool((applied != taus[c]).any())
            if differs[c]:  # the per-party loop overwrites both halves past j
                bits[start - 1:j, 1] = shared_bits[start - 1:j]
                states[start:j + 1, 1] = shared_states[start:j + 1]
                other = _SIDES[j % 2][1]
                bits[j - 1, other] = applied
                states[j, other] = advance[was[c], applied]
                return j
        first, size = last + 1, 2 * size
    if start > 1:
        bits[start - 1:, 1] = shared_bits[start - 1:]
        states[start:, 1] = shared_states[start:]
    return None


@lru_cache(maxsize=256)
def _shared(errors: tuple[bool, ...]) -> tuple[bool, ...]:
    """One object per recent column-error pattern, usually all-intact."""
    return errors


def _correct(pp: FiniteStateProtocol,
             runs: Mapping[Party, tuple[np.ndarray, np.ndarray]]) -> dict[Party, bool]:
    """Whether each party's transcript (its chosen branches) equals the clean
    execution's: exactly when each bit equals its round's table at the state
    the transcript drives from the initial state. If a party's chosen rows
    chain (each starts where the previous one ended, the first in the
    initial state), the states its column loop walked are those states.
    Otherwise, only after an error, compare with a fresh ``run_protocol``.
    A run both parties share (the same arrays) is decided once."""
    cols, m = runs[Party.ALICE][0].shape[:2]
    rows = np.arange(m)
    at = _round_offsets(cols, m, pp.M, 1)[..., 0]  # round r * m + j, by (j, r)
    truth = None
    verdicts: dict[tuple[int, int], bool] = {}  # by the ids of a run's two arrays
    for paths, states in runs.values():
        key = id(paths), id(states)
        if key in verdicts:
            continue
        if states.shape[2] > 1:  # the branch of each row the last row ended in
            pick = chain(states[-1], pp.initial_state)
            paths, states = paths[:, rows, pick], states[:, rows, pick]
        else:
            paths, states = paths[..., 0], states[..., 0]
        begin, end = states[0], states[-1]
        if begin[0] == pp.initial_state and np.array_equal(begin[1:], end[:-1]):
            verdicts[key] = bool((pp.tables.ravel().take(at + states[:-1]) == paths).all())
        else:
            if truth is None:
                truth = run_protocol(pp).bits
            verdicts[key] = tuple(paths.T.ravel().tolist()) == truth
    return {q: verdicts[id(paths), id(states)] for q, (paths, states) in runs.items()}


def simulate_vertical(
    p: FiniteStateProtocol,
    ch: ChannelModel,
    code_spec: CodeSpec,
    provider: LookaheadProvider,
    rng: np.random.Generator,
    scheme: str = "genie",
    seed: int | None = None,
    side: CodeSpec | None = None,
) -> SimulationReport:
    """Run one vertical simulation and compare against the clean execution.

    The provider's lookahead comes first, with ``side`` as its code; unless
    it failed, one coded transfer per sent column follows, in column order.
    """
    m = grid_side(p.n)
    pp = pad_protocol(p, m * m)
    la = provider(pp, ch, side, rng)
    ledger = list(la.transfers)
    correct = {Party.ALICE: False, Party.BOB: False}
    if la.failure is None:
        wire = la.wire or ColumnWire()
        if wire.branches == 1:
            starts = {Party.ALICE: np.array(la.alice_states)[:, None],
                      Party.BOB: np.array(la.bob_states)[:, None]}
        else:
            both = np.tile(np.arange(wire.branches), (m, 1))
            starts = {Party.ALICE: both, Party.BOB: both}

        def carry(j: int, bits: np.ndarray) -> TransferResult:
            transfer = convey(code_spec, bits, ch, rng, matrix_seed=j)
            ledger.append(transfer)
            return transfer

        runs = run_columns(pp.tables.reshape(m, m, pp.M), pp.advance_array, starts, wire,
                           carry)
        correct = _correct(pp, runs)

    sides, columns = ledger[:len(la.transfers)], ledger[len(la.transfers):]
    return SimulationReport(
        scheme=scheme,
        channel=sys.intern(ch.name),
        code=sys.intern(code_spec.name),
        seed=seed,
        n_logical=p.n,
        n_padded=m * m,
        m=m,
        rows=m,
        states=p.M,
        channel_uses=sum(t.channel_uses for t in ledger),
        vertical_uses=sum(t.channel_uses for t in columns),
        lookahead_uses=sum(t.channel_uses for t in sides),
        lookahead_bits=sum(t.bits.size for t in sides),
        rate_target=code_spec.rate,
        side_rate=None if side is None else side.rate,
        alice_correct=correct[Party.ALICE],
        bob_correct=correct[Party.BOB],
        column_errors=_shared(tuple(not t.intact for t in columns)),
        lookahead_failure=la.failure,
        coincidence_ok=False if la.failure is not None else la.coincidence_ok,
        tail_len=la.tail_len,
    )


@dataclass(frozen=True)
class AuditRecord:
    """Outcome of checking one report against its scheme's overhead bound."""

    scheme: str
    n_padded: int
    overhead: float
    bound: float
    exact_split: bool
    passed: bool
    note: str


def overhead_bound(report: SimulationReport) -> float:
    """Scheme-specific ceiling on channel uses beyond n_padded / rate."""
    n = report.n_padded
    m = report.m
    if report.scheme == "genie":
        # only the padding and per-column ceil slack
        return float(m)
    if report.scheme.startswith("two-state"):
        side = report.side_rate or report.rate_target
        c = 2.0 / side + 1.0
        # besides its index, each block's reports carry a value and a parity bit
        # over four side transfers; log2 n undercounts those on the 1x1 and 2x2
        # grids, so it is floored at 4, the value it first reaches at 4x4
        return c * math.sqrt(n) * max(4.0, math.log2(n))
    if report.scheme.startswith("m-state"):
        side = report.side_rate or report.rate_target
        tail = report.tail_len or 0
        per_party = report.rows * math.ceil(tail / 2) * report.states / side + 1
        return 2.0 * per_party + m
    raise ValueError(f"no overhead bound for scheme {report.scheme!r}")


def accounting(report: SimulationReport) -> AuditRecord:
    """Audit a report: overhead within bound, and its total channel uses
    (summed over the whole ledger) equal to its two phase sums."""
    ideal = report.n_padded / report.rate_target
    overhead = report.channel_uses - ideal
    bound = overhead_bound(report)
    exact = report.channel_uses == report.vertical_uses + report.lookahead_uses
    passed = exact and overhead <= bound + 1e-9
    note = "ok" if passed else ("split mismatch" if not exact else "overhead above bound")
    return AuditRecord(report.scheme, report.n_padded, overhead, bound, exact, passed, note)
