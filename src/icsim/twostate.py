"""Two-state scheme machinery: the last-constant-index parity lookahead,
the advance-function taxonomy, and the exhaustive dual-trajectory
alternative.

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

The schemes compute every block's reports at once from the protocol's
table array: ``nu[:, s] = advance[s, tables[:, s]]``, and a round is
constant where its two entries agree. The exhaustive scheme's column wire
maps a block of columns at once, each way one flat ``take`` at per-column
offsets of the owner's or the receiver's phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec, TransferResult, convey
from .protocol import (
    FiniteStateProtocol,
    Party,
    Table,
    _advance_rows,
    _bits,
    chain,
)
from .vertical import (
    ColumnWire,
    LookaheadResult,
    SimulationReport,
    exchange,
    genie_provider,
    padded_side,
    run_columns,
    simulate_vertical,
)

ALL_TABLES2: tuple[Table, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
_TABLES2 = np.array(ALL_TABLES2, dtype=np.uint8)  # the draw's rows, read-only
_TABLES2.flags.writeable = False


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
    agree, and its value (the constant, or the flip's xor) is ``nu[:, 0]``:
    one flat ``take`` at ``2s + tables[:, s]``."""
    nu = advance.ravel().take(tables + np.array((0, 2), dtype=np.uint8)).reshape(-1, m, 2)
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
    m = padded_side(p)
    if p.M != 2:
        raise ValueError("the parity lookahead requires a two-state protocol")
    parties = (Party.ALICE, Party.BOB)
    rows = np.arange(m)
    const, value = _grid_composites(p.tables, p.advance_array, m)
    own_last = {q: _own_const_index(const, q, last=True) for q in parties}
    # the value at index t; t - 1 = -1 wraps harmlessly where t = 0
    own_value = {q: np.where(own_last[q] > 0, value[rows, own_last[q] - 1], 0) for q in parties}

    # first exchange: per block, the compressed last-constant index and value
    heard, first = exchange(
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
    heard_parity, second = exchange(parities, side_code, ch, rng, matrix_seed=m + 3)

    def fold(q: Party) -> tuple[int, ...]:
        # from entry state s a block ends in the later constant's value (or s when
        # neither party has one) xored with both parities; chain those (m, 2) maps
        mine, theirs = own_last[q], heard_last[q]
        base = np.where(mine > theirs, own_value[q], heard_value[q])[:, None]
        ends = np.where(np.maximum(mine, theirs)[:, None] > 0, base, np.arange(2))
        return tuple(chain(ends ^ (parities[q] ^ heard_parity[q])[:, None],
                           p.initial_state).tolist())

    return LookaheadResult(fold(Party.ALICE), fold(Party.BOB), first + second)


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


def classify_advance(eta: Sequence[Sequence[int]] | np.ndarray) -> AdvanceClass:
    eta = _advance_rows(eta, 2).tolist()
    const0 = eta[0][0] == eta[0][1]
    const1 = eta[1][0] == eta[1][1]
    if const0 and const1:
        return AdvanceClass("non-interactive", ())
    making = tuple(sorted(t for t in ALL_TABLES2 if eta[0][t[0]] == eta[1][t[1]]))
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


def random_two_state_protocol(n: int, seed: int | np.random.Generator,
                              advance=None, initial_state: int = 0) -> FiniteStateProtocol:
    """Uniform two-state protocol: random advance (unless given) and i.i.d.
    uniform transmission tables."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if advance is None:
        advance = all_two_state_advances()[int(rng.integers(16))]
    tables = _TABLES2.take(rng.integers(0, 4, size=n), axis=0)
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
    naming = np.zeros((3, 2, 2, 2), dtype=np.uint8)
    for k, group in enumerate(groups):
        for w, (t0, t1) in enumerate(group):
            naming[k, t0, t1] = w
    naming[2] = (0, 1)
    return naming, np.array([*groups, ((0, 0), (1, 1))], dtype=np.uint8)


_PAIR_CODE = np.array((4, 2), dtype=np.uint8)  # a table's place in the wire format


class ExhaustiveWire(ColumnWire):
    """Wire format of the exhaustive scheme, one branch per entry state.

    Before a row's merge point the owner names its table among the two free
    tables, at the merge point among the two constant-making tables, and
    after it sends the transcript bit of branch 0. ``beliefs[q]`` holds party
    q's merge point of every row, for a grid of ``m`` columns, and
    ``phase[q]`` its (rows, m) phase of every round. Both maps are one flat
    ``take``, at each column's owner's (or receiver's) phase times the
    stride of a phase in the format.
    """

    branches = 2

    def __init__(self, cls: AdvanceClass, beliefs: Mapping[Party, np.ndarray], m: int):
        naming, tables = _exhaustive_format(cls)
        self.naming, self.tables = naming.ravel(), tables.ravel()
        cols = np.arange(1, m + 1)
        self.phase = {q: np.sign(cols - b[:, None]) + 1 for q, b in beliefs.items()}
        alice = cols % 2 == 1  # the columns Alice owns and Bob receives
        owners = np.where(alice, self.phase[Party.ALICE], self.phase[Party.BOB])
        receivers = np.where(alice, self.phase[Party.BOB], self.phase[Party.ALICE])
        self.sending = owners.T * naming[0].size  # (m, rows), by column
        self.reading = (receivers.T * tables[0].size)[..., None]

    def encode(self, j, tables, taus):
        code = tables @ _PAIR_CODE + taus[..., 0]  # t0 * 4 + t1 * 2 + tau
        return self.naming.take(self.sending[j - 1:j - 1 + len(tables)] + code)

    def decode(self, j, bits, states):
        return self.tables.take(self.reading[j - 1:j - 1 + len(bits)] + bits[..., None] * 2
                                + states)


def _merge_points(tables: np.ndarray, advance: np.ndarray, ch: ChannelModel, side_code: CodeSpec,
                  rng: np.random.Generator,
                  ) -> tuple[dict[Party, np.ndarray], tuple[TransferResult, ...]]:
    """The exhaustive scheme's exchange over a (rows, m, 2) table grid: each
    party sends the compressed index of its first constant-making round per
    row and takes the earlier of the two (m + 1 if neither) as the row's
    merge point. Returns each party's merge points and the two transfers."""
    m = tables.shape[1]
    parties = (Party.ALICE, Party.BOB)
    const, _ = _grid_composites(tables, advance, m)
    own_first = {q: _own_const_index(const, q, last=False) for q in parties}
    heard, transfers = exchange(
        {q: _pack_index(own_first[q], _index_width(m, q)) for q in parties},
        side_code, ch, rng, matrix_seed=m + 1)
    beliefs = {q: np.minimum(*(np.where(t > 0, t, m + 1)
                               for t in (own_first[q], _unpack_index(heard[q], m, q.other))))
               for q in parties}
    return beliefs, transfers


def run_exhaustive_block(eta, blocks) -> tuple[dict[Party, tuple[np.ndarray, np.ndarray]], int]:
    """Noiseless block core of the exhaustive scheme, for a stack of blocks.

    ``blocks`` is a (blocks, m, 2) stack of transmission tables, one block
    per row. The blocks run as the rows of one grid through the scheme's own
    exchange and column loop, every transfer over ``bsc:0`` with ``rep:1``.
    Returns, per party, the (blocks, 2, m) transcripts and the (blocks, 2)
    final states from entry states 0 and 1, which must agree with each
    other and with direct iteration; and the logical bits each block spends:
    m, plus its share of what the exchange sent.
    """
    advance = _advance_rows(eta, 2)
    cls = classify_advance(advance)
    if not cls.interactive:
        raise ValueError("the exhaustive scheme requires an interactive advance function")
    tables = _bits(blocks, "blocks must hold only bits")
    if tables.ndim != 3 or tables.shape[2] != 2:
        raise ValueError(f"blocks must be a (blocks, m, 2) stack, not shape {tables.shape}")
    m = tables.shape[1]
    ch, code, rng = ChannelModel.parse("bsc:0"), CodeSpec.parse("rep:1"), np.random.default_rng(0)
    beliefs, transfers = _merge_points(tables, advance, ch, code, rng)
    both = np.tile(np.arange(2), (len(tables), 1))
    runs = run_columns(tables, advance, {q: both for q in beliefs},
                       ExhaustiveWire(cls, beliefs, m),
                       lambda j, bits: convey(code, bits, ch, rng, matrix_seed=j))
    return ({q: (bits.transpose(1, 2, 0), states[-1]) for q, (bits, states) in runs.items()},
            m + sum(t.bits.size for t in transfers) // len(tables))


def exhaustive_lookahead(pp: FiniteStateProtocol, ch: ChannelModel, side_code: CodeSpec,
                         rng: np.random.Generator) -> LookaheadResult:
    """Lookahead of the exhaustive scheme: the rows' merge points
    (``_merge_points``) set the column wire format.

    A non-interactive advance function fixes the whole state sequence
    independently of the transcript, so both parties compute the block
    starts locally, as the genie does, and the columns carry plain bits.
    """
    m = padded_side(pp)
    cls = classify_advance(pp.advance)
    if not cls.interactive:
        return genie_provider(pp, ch, side_code, rng)
    beliefs, transfers = _merge_points(pp.tables.reshape(m, m, 2), pp.advance_array, ch,
                                       side_code, rng)
    return LookaheadResult((), (), transfers, wire=ExhaustiveWire(cls, beliefs, m))


def exhaustive_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                         side_spec: CodeSpec, rng: np.random.Generator,
                         seed: int | None = None) -> SimulationReport:
    """Full exhaustive-scheme simulation over the vertical grid."""
    if p.M != 2:
        raise ValueError("the exhaustive scheme requires a two-state protocol")
    return simulate_vertical(p, ch, code_spec, exhaustive_lookahead, rng,
                             scheme="two-state-exhaustive", seed=seed, side=side_spec)
