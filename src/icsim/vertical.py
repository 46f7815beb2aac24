"""Vertical block simulation of finite-state protocols over a noisy channel.

The n rounds are padded to a square n' = m^2 and arranged in an m-by-m grid,
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
only that wire mapping (``ColumnWire``). This module alone builds the
``SimulationReport`` and decides each party's correctness, by a consistency
check against the tables that runs the protocol only after an error.
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
    TranscriptTrace,
    owner_of_round,
    pad_protocol,
    party_view,
    run_protocol,
)


@dataclass(frozen=True)
class VerticalSchedule:
    """Grid geometry for one simulation: n_padded = m*m rounds, m per row."""

    n_logical: int
    n_padded: int
    m: int

    @property
    def rows(self) -> int:
        return self.m


def make_schedule(n: int) -> VerticalSchedule:
    """Pad n up to the smallest square whose side is even (or 1).

    An even side keeps every column single-owner: round rm+j has the parity
    of j exactly when m is even. m = 1 is fine too since there is one round.
    """
    if n < 1:
        raise ValueError("n must be positive")
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    if root > 1 and root % 2 == 1:
        root += 1
    return VerticalSchedule(n, root * root, root)


class ColumnWire:
    """What a sent column carries: here, the transcript bit of each row.

    A party keeps ``branches`` candidate states per row: one, or one per
    possible row-start state (branch b then starts in state b). The owner of
    column j maps its (rows x M) tables and the (rows x branches) transcript
    bits they give on its branches to one wire bit per row, or to None when
    the column is not sent. ``decode`` gives the receiver its bits at its
    (rows x branches) states from the decoded bits (None for an unsent
    column); a plain bit is the same on every branch, a (rows x 1) column.
    """

    branches = 1

    def encode(self, party: Party, j: int, tables: np.ndarray,
               taus: np.ndarray) -> np.ndarray | None:
        return taus[:, 0]

    def decode(self, party: Party, j: int, bits: np.ndarray | None,
               states: np.ndarray) -> np.ndarray:
        return bits[:, None]


@dataclass(frozen=True)
class LookaheadResult:
    """Block-initial states as each party believes them, plus its cost.

    ``alice_states`` and ``bob_states`` are length-``rows`` tuples giving the
    state at the start of each row; they are empty when ``wire`` carries one
    branch per start state instead. ``failure`` is a diagnostic string when
    the provider could not commit to an answer (the simulation then aborts
    rather than run from states known to be wrong). ``coincidence_ok`` is the
    report's value for a run that does not abort; ``wire`` replaces the plain
    transcript-bit columns. ``trace`` is the clean execution of the padded
    protocol when the provider already ran it; a fallback check reuses it.
    """

    alice_states: tuple[int, ...]
    bob_states: tuple[int, ...]
    bits_used: int
    channel_uses: int
    failure: str | None = None
    tail_len: int | None = None
    coincidence_ok: bool | None = None
    wire: ColumnWire | None = None
    trace: TranscriptTrace | None = None


LookaheadProvider = Callable[
    [FiniteStateProtocol, ChannelModel, CodeSpec | None, np.random.Generator],
    LookaheadResult,
]


def exchange(payloads: Mapping[Party, np.ndarray], side: CodeSpec, ch: ChannelModel,
             rng: np.random.Generator, matrix_seed: int,
             ) -> tuple[dict[Party, np.ndarray], int, int]:
    """One side exchange: Alice sends her payload, then Bob his, each as one
    coded transfer with ``side`` and generator seed ``matrix_seed + k``.
    Returns what each party heard from the other, in the shape of the sent
    payload, plus the bits sent and the channel uses."""
    heard: dict[Party, np.ndarray] = {}
    bits_used = channel_uses = 0
    for k, sender in enumerate((Party.ALICE, Party.BOB)):
        payload = payloads[sender]
        transfer = convey(side, payload.ravel(), ch, rng, matrix_seed=matrix_seed + k)
        bits_used += payload.size
        channel_uses += transfer.channel_uses
        heard[sender.other] = transfer.bits.reshape(payload.shape)
    return heard, bits_used, channel_uses


def genie_lookahead(p: FiniteStateProtocol, trace: TranscriptTrace | None = None,
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact block-initial states read off a clean execution (``trace``, or
    a fresh ``run_protocol``), for both parties."""
    m = math.isqrt(p.n)
    if m * m != p.n:
        raise ValueError("protocol length must be the padded square")
    trace = trace or run_protocol(p)
    states = tuple(trace.states[r * m] for r in range(m))
    return states, states


def genie_provider(pp: FiniteStateProtocol, ch: ChannelModel, side: CodeSpec | None,
                   rng: np.random.Generator) -> LookaheadResult:
    trace = run_protocol(pp)
    alice, bob = genie_lookahead(pp, trace)
    return LookaheadResult(alice, bob, 0, 0, trace=trace)


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


def run_columns(owned: Mapping[Party, np.ndarray], advance: np.ndarray,
                starts: Mapping[Party, np.ndarray], wire: ColumnWire,
                carry: Callable[[int, np.ndarray], np.ndarray],
                ) -> dict[Party, tuple[np.ndarray, np.ndarray]]:
    """The column loop of every scheme.

    ``owned[q]`` holds party q's tables as a (rows, own columns, M) array in
    round order, and ``starts[q]`` its (rows, branches) start states. ``carry(j, bits)``
    takes column j's wire bits to the receiver. Returns, per party, the
    (columns, rows, branches) transcript bits of every branch and the final
    (rows, branches) states.
    """
    cols = sum(a.shape[1] for a in owned.values())
    rows = np.arange(len(starts[Party.ALICE]))[:, None]
    states = dict(starts)
    bits = {q: np.empty((cols, len(rows), wire.branches), dtype=np.intp) for q in states}
    for j in range(1, cols + 1):
        owner, receiver = owner_of_round(j), owner_of_round(j + 1)
        tables = owned[owner][:, (j - 1) // 2]
        taus = tables[rows, states[owner]]
        sent = wire.encode(owner, j, tables, taus)
        heard = None if sent is None else carry(j, sent)
        applied = wire.decode(receiver, j, heard, states[receiver])
        for q, tau in ((owner, taus), (receiver, applied)):
            bits[q][j - 1] = tau
            states[q] = advance[states[q], tau]
    return {q: (bits[q], states[q]) for q in states}


@lru_cache(maxsize=256)
def _shared(errors: tuple[bool, ...]) -> tuple[bool, ...]:
    """One object per recent column-error pattern, usually all-intact."""
    return errors


def _picks(finals: np.ndarray, initial_state: int) -> np.ndarray:
    """One party's chosen branch of every row: branch 0 when there is one,
    else the branch that starts in the state the previous row ended in."""
    picks = np.zeros(len(finals), dtype=np.intp)
    if finals.shape[1] > 1:
        s = initial_state
        for r, ends in enumerate(finals.tolist()):
            picks[r], s = s, ends[s]
    return picks


def _correct(pp: FiniteStateProtocol, runs: Mapping[Party, tuple[np.ndarray, np.ndarray]],
             starts: Mapping[Party, np.ndarray], trace: TranscriptTrace | None,
             ) -> dict[Party, bool]:
    """Whether each party's transcript (its chosen branches) equals the clean
    execution's: exactly when each bit equals its round's table at the state
    the transcript drives from the initial state. If all chosen rows chain
    (each starts where the previous one ended, the first in the initial
    state), one walk over the columns gives those states. Otherwise, only
    after an error, compare with ``trace`` or a fresh ``run_protocol``."""
    rows = np.arange(len(starts[Party.ALICE]))
    picks = {q: _picks(finals, pp.initial_state) for q, (_, finals) in runs.items()}
    # (columns, parties, rows): each step of the walk reads contiguous rows
    paths = np.ascontiguousarray(np.stack([runs[q][0][:, rows, picks[q]] for q in runs], axis=1))
    begin = np.stack([starts[q][rows, picks[q]] for q in runs])
    end = np.stack([runs[q][1][rows, picks[q]] for q in runs])
    if (begin[:, 0] != pp.initial_state).any() or (begin[:, 1:] != end[:, :-1]).any():
        truth = (trace or run_protocol(pp)).bits
        return {q: tuple(paths[:, k].T.ravel().tolist()) == truth for k, q in enumerate(runs)}
    states = np.empty(paths.shape, dtype=np.intp)
    s = states[0] = begin
    next_state = pp.advance_array.T.ravel()  # at tau * M + s
    for taus, out in zip(paths[:-1] * pp.M, states[1:]):
        s = out[...] = next_state.take(taus + s)
    at = (len(paths) * rows + np.arange(len(paths))[:, None, None]) * pp.M  # round r * m + j
    ok = pp.tables.ravel().take(at + states) == paths
    return dict(zip(runs, ok.all(axis=(0, 2)).tolist()))


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
    sched = make_schedule(p.n)
    pp = pad_protocol(p, sched.n_padded)
    la = provider(pp, ch, side, rng)
    transfers: list[TransferResult] = []
    correct = {Party.ALICE: False, Party.BOB: False}
    if la.failure is None:
        wire = la.wire or ColumnWire()
        if wire.branches == 1:
            starts = {Party.ALICE: np.array(la.alice_states)[:, None],
                      Party.BOB: np.array(la.bob_states)[:, None]}
        else:
            both = np.tile(np.arange(wire.branches), (sched.rows, 1))
            starts = {Party.ALICE: both, Party.BOB: both}

        def carry(j: int, bits: np.ndarray) -> np.ndarray:
            transfer = convey(code_spec, bits, ch, rng, matrix_seed=j)
            transfers.append(transfer)
            return transfer.bits

        # with an even grid side (or one round) column j of a row is the owner's
        # ((j - 1) // 2)-th round in that row, so a reshape of its row stride
        owned = {q: party_view(pp, q).tables.reshape(sched.rows, -1, pp.M) for q in starts}
        runs = run_columns(owned, pp.advance_array, starts, wire, carry)
        correct = _correct(pp, runs, starts, la.trace)

    vertical_uses = sum(t.channel_uses for t in transfers)
    return SimulationReport(
        scheme=scheme,
        channel=sys.intern(ch.name),
        code=sys.intern(code_spec.name),
        seed=seed,
        n_logical=p.n,
        n_padded=sched.n_padded,
        m=sched.m,
        rows=sched.rows,
        states=p.M,
        channel_uses=vertical_uses + la.channel_uses,
        vertical_uses=vertical_uses,
        lookahead_uses=la.channel_uses,
        lookahead_bits=la.bits_used,
        rate_target=code_spec.rate,
        side_rate=None if side is None else side.rate,
        alice_correct=correct[Party.ALICE],
        bob_correct=correct[Party.BOB],
        column_errors=_shared(tuple(not t.intact for t in transfers)),
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
        return c * math.sqrt(n) * max(1.0, math.log2(n))
    if report.scheme.startswith("m-state"):
        side = report.side_rate or report.rate_target
        tail = report.tail_len or 0
        per_party = report.rows * math.ceil(tail / 2) * report.states / side + 1
        return 2.0 * per_party + m
    raise ValueError(f"no overhead bound for scheme {report.scheme!r}")


def accounting(report: SimulationReport) -> AuditRecord:
    """Audit a report: overhead within bound, uses split exactly."""
    ideal = report.n_padded / report.rate_target
    overhead = report.channel_uses - ideal
    bound = overhead_bound(report)
    exact = report.channel_uses == report.vertical_uses + report.lookahead_uses
    passed = exact and overhead <= bound + 1e-9
    note = "ok" if passed else ("split mismatch" if not exact else "overhead above bound")
    return AuditRecord(report.scheme, report.n_padded, overhead, bound, exact, passed, note)
