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

``CompositeFunction`` and ``block_messages`` state this algebra one block
at a time. The schemes compute the same reports for the whole grid at once
from the protocol's table array: ``nu[:, s] = advance[s, tables[:, s]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec
from .protocol import (
    FiniteStateProtocol,
    Party,
    Table,
)
from .vertical import (
    ColumnWire,
    LookaheadResult,
    SimulationReport,
    exchange,
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
# the lookahead exchange over the whole grid

def _own_round_count(m: int, party: Party) -> int:
    return (m + party.parity) // 2


def _index_width(m: int, party: Party) -> int:
    return _own_round_count(m, party).bit_length()


def _grid_composites(tables: np.ndarray, advance: np.ndarray,
                     m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every round's composite on the (rows, m) grid, from ``nu[:, s] =
    advance[s, tables[:, s]]``: a round is constant where its two entries
    agree, and its value (the constant, or the flip's xor) is ``nu[:, 0]``."""
    nu = advance[np.arange(2), tables].reshape(-1, m, 2)
    return nu[..., 0] == nu[..., 1], nu[..., 0]


def _own_const_index(const: np.ndarray, party: Party, last: bool) -> np.ndarray:
    """Block-local (1-based) index of each row's last, or first, constant
    composite at ``party``'s rounds; 0 in rows where it has none."""
    own = np.zeros_like(const)
    own[:, 1 - party.parity::2] = const[:, 1 - party.parity::2]
    if last:
        index = const.shape[1] - own[:, ::-1].argmax(axis=1)
    else:
        index = own.argmax(axis=1) + 1
    return np.where(own.any(axis=1), index, 0)


def _pack_index(t: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) big-endian bits of each index compressed to
    ``(t + 1) // 2``: both parities map to 1..count and 0 stays "none"."""
    return ((t + 1) // 2)[:, None] >> np.arange(width - 1, -1, -1) & 1


def _unpack_index(bits: np.ndarray, m: int, party: Party) -> np.ndarray:
    """Block-local indices from received (rows, width) bits; a code outside
    1..count decodes to 0."""
    e = (bits << np.arange(bits.shape[1] - 1, -1, -1)).sum(axis=1)
    ok = (e >= 1) & (e <= _own_round_count(m, party))
    return np.where(ok, 2 * e - party.parity, 0)


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
    rows = np.arange(m)
    const, value = _grid_composites(p.tables, p.advance_array, m)
    own_last = {q: _own_const_index(const, q, last=True) for q in parties}
    # the value at index t; t - 1 = -1 wraps harmlessly where t = 0
    own_value = {q: np.where(own_last[q] > 0, value[rows, own_last[q] - 1], 0) for q in parties}

    # first exchange: per block, the compressed last-constant index and value
    heard, bits_used, channel_uses = exchange(
        {q: np.hstack((_pack_index(own_last[q], _index_width(m, q)), own_value[q][:, None]))
         for q in parties}, side_code, ch, rng, matrix_seed=m + 1)
    heard_last = {q: _unpack_index(heard[q][:, :-1], m, q.other) for q in parties}
    heard_value = {q: heard[q][:, -1] for q in parties}

    # second exchange: flip parities after each block's agreed last constant;
    # after[:, i] is the xor of the party's values at block-local rounds > i
    parities: dict[Party, np.ndarray] = {}
    for q in parties:
        own = np.zeros((m, m + 1), dtype=value.dtype)
        own[:, 1 - q.parity:m:2] = value[:, 1 - q.parity::2]
        after = np.bitwise_xor.accumulate(own[:, ::-1], axis=1)[:, ::-1]
        parities[q] = after[rows, np.maximum(own_last[q], heard_last[q])]
    heard_parity, bits, uses = exchange(parities, side_code, ch, rng, matrix_seed=m + 3)
    bits_used += bits
    channel_uses += uses

    def fold(q: Party) -> tuple[int, ...]:
        # a block ends in the later constant's value (or its entry state when
        # neither party has one), xored with both parties' parities
        mine, theirs = own_last[q], heard_last[q]
        reset = np.maximum(mine, theirs) > 0
        base = np.where(mine > theirs, own_value[q], heard_value[q])
        flip = parities[q] ^ heard_parity[q]
        vec = []
        s = p.initial_state
        for r, b, x in zip(reset.tolist(), base.tolist(), flip.tolist()):
            vec.append(s)
            s = (b if r else s) ^ x
        return tuple(vec)

    return LookaheadResult(fold(Party.ALICE), fold(Party.BOB), bits_used, channel_uses)


def simulate_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                       side_spec: CodeSpec, rng: np.random.Generator,
                       seed: int | None = None) -> SimulationReport:
    return simulate_vertical(p, ch, code_spec, run_lookahead_exchange, rng,
                             scheme="two-state", seed=seed, side=side_spec)


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
    tables = np.array(ALL_TABLES2, dtype=np.uint8)[rng.integers(0, 4, size=n)]
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
        self.naming, self.tables = _exhaustive_format(cls)
        cols = np.arange(1, m + 1)
        self.phase = {q: np.sign(cols - b[:, None]) + 1 for q, b in beliefs.items()}

    def encode(self, party, j, tables, taus):
        return self.naming[self.phase[party][:, j - 1], tables[:, 0], tables[:, 1], taus[:, 0]]

    def decode(self, party, j, bits, states):
        return self.tables[self.phase[party][:, j - 1, None], bits[:, None], states]


@dataclass(frozen=True)
class BlockReconstruction:
    """One party's view of a block after the exhaustive exchange: transcript
    and final state for each possible entry state, plus logical bits spent."""

    transcripts: tuple[tuple[int, ...], tuple[int, ...]]
    finals: tuple[int, int]
    bits_used: int


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
    tables = np.array(tables, dtype=np.intp)
    advance = np.array(eta, dtype=np.intp)
    # noiseless exchange: the merge point is the block's first constant round
    const, _ = _grid_composites(tables, advance, m)
    belief = np.where(const.any(axis=1), const.argmax(axis=1) + 1, m + 1)
    bits_used = m + sum(_index_width(m, q) for q in parties)
    owned = {q: tables[1 - q.parity::2].reshape(1, -1, 2) for q in parties}
    both = np.arange(2)[None, :]
    runs = run_columns(owned, advance, {q: both for q in parties},
                       ExhaustiveWire(cls, {q: belief for q in parties}, m),
                       lambda j, bits: bits)

    def snapshot(q: Party) -> BlockReconstruction:
        bits, finals = runs[q]
        return BlockReconstruction(
            (tuple(bits[:, 0, 0].tolist()), tuple(bits[:, 0, 1].tolist())),
            (int(finals[0, 0]), int(finals[0, 1])),
            bits_used,
        )

    return snapshot(Party.ALICE), snapshot(Party.BOB)


def exhaustive_lookahead(pp: FiniteStateProtocol, ch: ChannelModel, side_code: CodeSpec,
                         rng: np.random.Generator) -> LookaheadResult:
    """Lookahead of the exhaustive scheme: each party sends the compressed
    index of its first constant-making round per block; the earlier of the
    two is the block's merge point for the column wire format.

    A non-interactive advance function fixes the whole state sequence
    independently of the transcript, so both parties compute the block
    starts locally and the columns carry plain transcript bits.
    """
    cls = classify_advance(pp.advance)
    m = math.isqrt(pp.n)
    if not cls.interactive:
        successor = (pp.advance[0][0], pp.advance[1][0])
        starts = []
        s = pp.initial_state
        for _ in range(m):
            starts.append(s)
            for _ in range(m):
                s = successor[s]
        return LookaheadResult(tuple(starts), tuple(starts), 0, 0)

    parties = (Party.ALICE, Party.BOB)
    const, _ = _grid_composites(pp.tables, pp.advance_array, m)
    own_first = {q: _own_const_index(const, q, last=False) for q in parties}
    heard, bits_used, channel_uses = exchange(
        {q: _pack_index(own_first[q], _index_width(m, q)) for q in parties},
        side_code, ch, rng, matrix_seed=m + 1)
    # per row, the earlier of the two first-constant indices, m + 1 if neither
    beliefs = {q: np.minimum(*(np.where(t > 0, t, m + 1)
                               for t in (own_first[q], _unpack_index(heard[q], m, q.other))))
               for q in parties}
    return LookaheadResult((), (), bits_used, channel_uses,
                           wire=ExhaustiveWire(cls, beliefs, m))


def exhaustive_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                         side_spec: CodeSpec, rng: np.random.Generator,
                         seed: int | None = None) -> SimulationReport:
    """Full exhaustive-scheme simulation over the vertical grid."""
    if p.M != 2:
        raise ValueError("the exhaustive scheme requires a two-state protocol")
    return simulate_vertical(p, ch, code_spec, exhaustive_lookahead, rng,
                             scheme="two-state-exhaustive", seed=seed, side=side_spec)
