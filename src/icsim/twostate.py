"""Two-state scheme machinery: composite functions, the last-constant-index
parity lookahead, the advance-function taxonomy, and the exhaustive
dual-trajectory alternative.

For M = 2 the one-step state map ν_i(s) = η(s, ψ_i(s)) is one of four
functions: Const(0), Const(1), Flip(0) = identity, Flip(1) = negation. A
block's final state is then the last constant value (or the entry state if
none) xored with the parities of the later flips, which is what the lookahead
exchange computes from O(log m) bits per block.

The round owner knows its own ν_i exactly; the counterpart does not. The
exchange is therefore sequential: first each party reports the location and
value of its last own-parity constant, then, the overall last-constant
location being settled, each party reports the flip parity of its rounds
after that location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec, convey
from .protocol import (
    FiniteStateProtocol,
    Party,
    PartyView,
    Table,
    party_view,
)
from .vertical import (
    ColumnWire,
    LookaheadProvider,
    LookaheadResult,
    SimulationReport,
    VerticalSchedule,
    run_columns,
    simulate_vertical,
)

ALL_TABLES2: tuple[Table, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class CompositeFunction:
    """One-step state self-map on {0,1}: Const(value) or Flip(value)."""

    constant: bool
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("value must be a bit")

    @classmethod
    def const(cls, b: int) -> "CompositeFunction":
        return cls(True, b)

    @classmethod
    def flip(cls, c: int) -> "CompositeFunction":
        return cls(False, c)

    def apply(self, s: int) -> int:
        return self.value if self.constant else s ^ self.value


def composite_from(advance: Sequence[Sequence[int]], table: Table) -> CompositeFunction:
    nu0 = advance[0][table[0]]
    nu1 = advance[1][table[1]]
    if nu0 not in (0, 1) or nu1 not in (0, 1):
        raise ValueError("composite functions require a two-state advance table")
    if nu0 == nu1:
        return CompositeFunction.const(nu0)
    return CompositeFunction.flip(nu0)


def composite_of(p: FiniteStateProtocol, i: int) -> CompositeFunction:
    if p.M != 2:
        raise ValueError("composite functions are defined for two-state protocols")
    return composite_from(p.advance, p.table(i))


def iterate_composites(nus: Iterable[CompositeFunction], s0: int) -> int:
    s = s0
    for nu in nus:
        s = nu.apply(s)
    return s


# ---------------------------------------------------------------------------
# blockwise lookahead algebra

@dataclass(frozen=True)
class BlockLookaheadMessage:
    """One party's report about one block.

    ``last_const_index`` is the block-local (1-based) position of the party's
    last constant composite, 0 when it has none. ``parity_bit`` is the xor of
    the party's flip constants after the block's overall last-constant
    position, so it is only well defined once both indices are known.
    """

    party: Party
    last_const_index: int
    const_value: int
    parity_bit: int

    def __post_init__(self) -> None:
        if self.last_const_index < 0:
            raise ValueError("index must be nonnegative")
        if self.last_const_index and self.last_const_index % 2 != self.party.parity:
            raise ValueError(f"index {self.last_const_index} is not a {self.party.name} round")
        if self.const_value not in (0, 1) or self.parity_bit not in (0, 1):
            raise ValueError("const_value and parity_bit must be bits")


def block_lookahead(msg_alice: BlockLookaheadMessage, msg_bob: BlockLookaheadMessage,
                    s_block_start_proxy: int) -> int:
    """Final state of the block from the two reports and the entry state."""
    i_const = max(msg_alice.last_const_index, msg_bob.last_const_index)
    if i_const == 0:
        b = s_block_start_proxy
    elif i_const == msg_alice.last_const_index:
        b = msg_alice.const_value
    else:
        b = msg_bob.const_value
    return b ^ msg_alice.parity_bit ^ msg_bob.parity_bit


def block_messages(nus: Sequence[CompositeFunction],
                   ) -> tuple[BlockLookaheadMessage, BlockLookaheadMessage]:
    """Noiseless reference messages for one block's composite sequence.

    Block-local index i (1-based) belongs to Alice when odd. Parity bits are
    anchored at the true overall last-constant index, as they would be after
    an error-free exchange.
    """
    last = {Party.ALICE: 0, Party.BOB: 0}
    value = {Party.ALICE: 0, Party.BOB: 0}
    for i, nu in enumerate(nus, start=1):
        if nu.constant:
            owner = Party.ALICE if i % 2 else Party.BOB
            last[owner] = i
            value[owner] = nu.value
    i_const = max(last.values())
    parity = {Party.ALICE: 0, Party.BOB: 0}
    for i in range(i_const + 1, len(nus) + 1):
        owner = Party.ALICE if i % 2 else Party.BOB
        parity[owner] ^= nus[i - 1].value
    return (
        BlockLookaheadMessage(Party.ALICE, last[Party.ALICE], value[Party.ALICE], parity[Party.ALICE]),
        BlockLookaheadMessage(Party.BOB, last[Party.BOB], value[Party.BOB], parity[Party.BOB]),
    )


# ---------------------------------------------------------------------------
# wire format helpers

def _own_round_count(m: int, party: Party) -> int:
    return (m + party.parity) // 2


def _index_width(m: int, party: Party) -> int:
    return _own_round_count(m, party).bit_length()


def _encode_index(t: int) -> int:
    # both parities compress to 1..count; 0 stays the "none" sentinel
    return (t + 1) // 2


def _decode_index(e: int, m: int, party: Party) -> int:
    count = _own_round_count(m, party)
    if e <= 0 or e > count:
        return 0
    return 2 * e - 1 if party is Party.ALICE else 2 * e


def _int_to_bits(x: int, width: int) -> list[int]:
    return [(x >> (width - 1 - k)) & 1 for k in range(width)]


def _bits_to_int(bits: Sequence[int]) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _party_composites(view: PartyView, m: int, block: int) -> dict[int, CompositeFunction]:
    """Own-parity composites of one block, keyed by block-local index."""
    base = block * m
    start = 1 if view.party is Party.ALICE else 2
    return {
        t: composite_from(view.advance, view.table(base + t))
        for t in range(start, m + 1, 2)
    }


def run_lookahead_exchange(p: FiniteStateProtocol, ch: ChannelModel,
                           side_code: CodeSpec, rng: np.random.Generator) -> LookaheadResult:
    """Both parties compute the block-initial state vector via the parity
    algorithm, exchanging their reports over the channel with ``side_code``.

    Returns each party's vector as it believes it; decode errors make the
    vectors differ or drift from the truth, which the end-to-end oracle
    comparison catches downstream.
    """
    if p.M != 2:
        raise ValueError("the parity lookahead requires a two-state protocol")
    m = math.isqrt(p.n)
    if m * m != p.n or (m > 1 and m % 2):
        raise ValueError("protocol length must be a padded square with even side")
    parties = (Party.ALICE, Party.BOB)
    views = {q: party_view(p, q) for q in parties}
    width = {q: _index_width(m, q) for q in parties}

    composites = {q: [_party_composites(views[q], m, r) for r in range(m)] for q in parties}
    own_last: dict[Party, list[tuple[int, int]]] = {}
    for q in parties:
        per_block = []
        for nus in composites[q]:
            t_last, val = 0, 0
            for t, nu in sorted(nus.items()):
                if nu.constant:
                    t_last, val = t, nu.value
            per_block.append((t_last, val))
        own_last[q] = per_block

    # first exchange: per block, the compressed last-constant index and value
    payload1 = {
        q: [b for t, v in own_last[q] for b in (*_int_to_bits(_encode_index(t), width[q]), v)]
        for q in parties
    }
    heard1: dict[Party, list[tuple[int, int]]] = {}
    bits_used = 0
    channel_uses = 0
    for k, sender in enumerate(parties):
        transfer = convey(side_code, payload1[sender], ch, rng, matrix_seed=m + 1 + k)
        bits_used += len(payload1[sender])
        channel_uses += transfer.channel_uses
        stride = width[sender] + 1
        decoded = []
        for r in range(m):
            chunk = transfer.decoded[r * stride: (r + 1) * stride]
            t = _decode_index(_bits_to_int(chunk[:-1]), m, sender)
            decoded.append((t, chunk[-1]))
        heard1[sender.other] = decoded  # what the counterpart now believes

    # second exchange: flip parities after each block's agreed last constant
    parities: dict[Party, list[int]] = {}
    for q in parties:
        per_block = []
        for r in range(m):
            i_const = max(own_last[q][r][0], heard1[q][r][0])
            d = 0
            for t, nu in composites[q][r].items():
                if t > i_const:
                    d ^= nu.value
            per_block.append(d)
        parities[q] = per_block
    heard2: dict[Party, list[int]] = {}
    for k, sender in enumerate(parties):
        transfer = convey(side_code, parities[sender], ch, rng, matrix_seed=m + 3 + k)
        bits_used += m
        channel_uses += transfer.channel_uses
        heard2[sender.other] = list(transfer.decoded)

    def fold(q: Party) -> tuple[int, ...]:
        vec = []
        s = p.initial_state
        for r in range(m):
            vec.append(s)
            own = BlockLookaheadMessage(q, *own_last[q][r], parities[q][r])
            other = BlockLookaheadMessage(q.other, *heard1[q][r], heard2[q][r])
            a, b = (own, other) if q is Party.ALICE else (other, own)
            s = block_lookahead(a, b, s)
        return tuple(vec)

    return LookaheadResult(fold(Party.ALICE), fold(Party.BOB), bits_used, channel_uses)


def twostate_provider(side_code: CodeSpec) -> LookaheadProvider:
    def provide(p: FiniteStateProtocol, sched: VerticalSchedule,
                ch: ChannelModel, rng: np.random.Generator) -> LookaheadResult:
        return run_lookahead_exchange(p, ch, side_code, rng)

    return provide


def simulate_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                       side_spec: CodeSpec, rng: np.random.Generator,
                       seed: int | None = None) -> SimulationReport:
    return simulate_vertical(p, ch, code_spec, twostate_provider(side_spec), rng,
                             scheme="two-state", seed=seed, side_rate=side_spec.rate)


# ---------------------------------------------------------------------------
# advance-function taxonomy

@dataclass(frozen=True)
class AdvanceClass:
    """Category of a two-state advance function and its constant-making tables.

    Interactive advances (both successors depending on the bit, or exactly
    one state frozen) admit exactly two transmission tables whose composite
    is constant; non-interactive advances ignore the bit entirely and get an
    empty tuple.
    """

    category: str
    constant_making: tuple[Table, ...]

    @property
    def interactive(self) -> bool:
        return self.category != "non-interactive"

    @property
    def free_tables(self) -> tuple[Table, ...]:
        return tuple(t for t in ALL_TABLES2 if t not in self.constant_making)


def classify_advance(eta: Sequence[Sequence[int]]) -> AdvanceClass:
    if len(eta) != 2 or any(len(row) != 2 or any(v not in (0, 1) for v in row) for row in eta):
        raise ValueError("classification requires a two-state advance table")
    const0 = eta[0][0] == eta[0][1]
    const1 = eta[1][0] == eta[1][1]
    if const0 and const1:
        return AdvanceClass("non-interactive", ())
    making = tuple(sorted(t for t in ALL_TABLES2 if composite_from(eta, t).constant))
    if not const0 and not const1:
        category = "type-i"
    else:
        frozen = 0 if const0 else 1
        category = "type-ii" if eta[frozen][0] == frozen else "type-iii"
    return AdvanceClass(category, making)


def all_two_state_advances() -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    return tuple(
        ((a, b), (c, d))
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    )


def interactive_two_state_advances() -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    return tuple(e for e in all_two_state_advances() if classify_advance(e).interactive)


def random_two_state_protocol(n: int, seed: int | np.random.Generator,
                              advance=None, initial_state: int = 0) -> FiniteStateProtocol:
    """Uniform two-state protocol: random advance (unless given) and i.i.d.
    uniform transmission tables."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if advance is None:
        advance = all_two_state_advances()[int(rng.integers(16))]
    tables = tuple(ALL_TABLES2[i] for i in rng.integers(0, 4, size=n))
    return FiniteStateProtocol(n=n, M=2, advance=advance, transmissions=tables,
                               initial_state=initial_state)


# ---------------------------------------------------------------------------
# exhaustive alternative: simulate both initial states until they merge

@lru_cache(maxsize=None)
def _exhaustive_format(cls: AdvanceClass) -> tuple[np.ndarray, np.ndarray]:
    """Wire format by phase (0 before the merge point, 1 at it, 2 after).

    ``naming[phase, t0, t1, tau]`` is the wire bit the owner sends for table
    (t0, t1) whose branch-0 transcript bit is tau; ``tables[phase, w]`` is the
    table the receiver rebuilds from wire bit w.
    """
    groups = (cls.free_tables, cls.constant_making)
    naming = np.zeros((3, 2, 2, 2), dtype=np.intp)
    for k, group in enumerate(groups):
        for w, (t0, t1) in enumerate(group):
            naming[k, t0, t1] = w
    naming[2] = (0, 1)
    return naming, np.array([*groups, ((0, 0), (1, 1))])


class ExhaustiveWire(ColumnWire):
    """Wire format of the exhaustive scheme, one branch per entry state.

    Before a row's merge point the owner names its table among the two free
    tables, at the merge point among the two constant-making tables, and
    after it sends the transcript bit of branch 0. ``beliefs[q]`` holds party
    q's merge point of every row, for a grid of ``m`` columns.
    """

    branches = 2

    def __init__(self, cls: AdvanceClass, beliefs: Mapping[Party, np.ndarray], m: int):
        super().__init__(2)
        self.naming, self.tables = _exhaustive_format(cls)
        cols = np.arange(1, m + 1)
        self.phase = {q: np.sign(cols - b[:, None]) + 1 for q, b in beliefs.items()}

    def encode(self, party, j, tables, taus):
        return self.naming[self.phase[party][:, j - 1], tables[:, 0], tables[:, 1], taus[:, 0]]

    def decode(self, party, j, bits):
        return self.tables[self.phase[party][:, j - 1], bits]


@dataclass(frozen=True)
class BlockReconstruction:
    """One party's view of a block after the exhaustive exchange: transcript
    and final state for each possible entry state, plus logical bits spent."""

    transcripts: tuple[tuple[int, ...], tuple[int, ...]]
    finals: tuple[int, int]
    bits_used: int


def _first_const(nus: dict[int, CompositeFunction]) -> int:
    for t in sorted(nus):
        if nus[t].constant:
            return t
    return 0


def _resolve_first(own_t: int, other_t: int, m: int) -> int:
    candidates = [t for t in (own_t, other_t) if t]
    return min(candidates) if candidates else m + 1


def run_exhaustive_block(eta, tables: Sequence[Table]) -> tuple[BlockReconstruction, BlockReconstruction]:
    """Noiseless single-block core of the exhaustive scheme.

    Both parties exchange their first-constant locations, then one bit per
    round in the scheme's wire format, through the same column loop as the
    full simulation with the block as a one-row grid. Returns Alice's and
    Bob's reconstructions, which must agree with each other and with direct
    iteration from both entry states.
    """
    cls = classify_advance(eta)
    if not cls.interactive:
        raise ValueError("the exhaustive scheme requires an interactive advance function")
    m = len(tables)
    parties = (Party.ALICE, Party.BOB)
    first = {
        q: _first_const({t: composite_from(eta, tables[t - 1])
                         for t in range(2 - q.parity, m + 1, 2)})
        for q in parties
    }
    belief = np.array([_resolve_first(first[Party.ALICE], first[Party.BOB], m)])
    bits_used = m + sum(_index_width(m, q) for q in parties)
    owned = {q: np.array(tables[1 - q.parity::2], dtype=np.intp).reshape(1, -1, 2)
             for q in parties}
    both = np.arange(2)[None, :]
    runs = run_columns(owned, np.array(eta), {q: both for q in parties},
                       ExhaustiveWire(cls, {q: belief for q in parties}, m),
                       lambda j, bits: bits)

    def snapshot(q: Party) -> BlockReconstruction:
        bits, finals = runs[q]
        return BlockReconstruction(
            (tuple(bits[0, :, 0].tolist()), tuple(bits[0, :, 1].tolist())),
            (int(finals[0, 0]), int(finals[0, 1])),
            bits_used,
        )

    return snapshot(Party.ALICE), snapshot(Party.BOB)


def _exhaustive_provider(side_code: CodeSpec) -> LookaheadProvider:
    """Lookahead of the exhaustive scheme: each party sends the compressed
    index of its first constant-making round per block; the earlier of the
    two is the block's merge point for the column wire format.

    A non-interactive advance function fixes the whole state sequence
    independently of the transcript, so both parties compute the block
    starts locally and the columns carry plain transcript bits.
    """

    def provide(pp: FiniteStateProtocol, sched: VerticalSchedule,
                ch: ChannelModel, rng: np.random.Generator) -> LookaheadResult:
        cls = classify_advance(pp.advance)
        if not cls.interactive:
            successor = (pp.advance[0][0], pp.advance[1][0])
            starts = []
            s = pp.initial_state
            for _ in range(sched.rows):
                starts.append(s)
                for _ in range(sched.m):
                    s = successor[s]
            return LookaheadResult(tuple(starts), tuple(starts), 0, 0)

        m = sched.m
        parties = (Party.ALICE, Party.BOB)
        views = {q: party_view(pp, q) for q in parties}
        own_first = {
            q: [_first_const(_party_composites(views[q], m, r)) for r in range(sched.rows)]
            for q in parties
        }
        width = {q: _index_width(m, q) for q in parties}
        bits_used = 0
        channel_uses = 0
        heard: dict[Party, list[int]] = {}
        for k, sender in enumerate(parties):
            payload = [b for t in own_first[sender]
                       for b in _int_to_bits(_encode_index(t), width[sender])]
            transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 1 + k)
            bits_used += len(payload)
            channel_uses += transfer.channel_uses
            w = width[sender]
            heard[sender.other] = [
                _decode_index(_bits_to_int(transfer.decoded[r * w: (r + 1) * w]), m, sender)
                for r in range(sched.rows)
            ]
        beliefs = {
            q: np.array([_resolve_first(own_first[q][r], heard[q][r], m)
                         for r in range(sched.rows)])
            for q in parties
        }
        return LookaheadResult((), (), bits_used, channel_uses,
                               wire=ExhaustiveWire(cls, beliefs, m))

    return provide


def exhaustive_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                         side_spec: CodeSpec, rng: np.random.Generator,
                         seed: int | None = None) -> SimulationReport:
    """Full exhaustive-scheme simulation over the vertical grid."""
    if p.M != 2:
        raise ValueError("the exhaustive scheme requires a two-state protocol")
    return simulate_vertical(p, ch, code_spec, _exhaustive_provider(side_spec), rng,
                             scheme="two-state-exhaustive", seed=seed,
                             side_rate=side_spec.rate)
