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

Both exchanges read every round's composite by one ``take`` into a stacked
(rows, party, slot) layout, party axis 0 Alice's odd rounds and 1 Bob's
even ones, so each report is one array op for both parties; at m = 1 Bob
owns no round and his reports carry no index bits. The exhaustive scheme's
column wire maps a block of columns at once, each way one flat ``take`` at
per-column offsets of the owner's or the receiver's phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
_TWO = np.arange(2)  # the party axis of the stacked layout, or a block's entry states


# ---------------------------------------------------------------------------
# the lookahead exchange over the whole grid

@lru_cache(maxsize=None)
def _composite_codes(advance: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Read-only table from a round's code t0 + 256 t1 (its table's two bytes
    as one little-endian uint16) to its composite's code: 2 + the constant
    where both states advance to it, else the flip's xor ``nu[0]``. Code 2,
    which no table has, is the identity: 0."""
    codes = np.zeros(258, dtype=np.intp)
    for t0, t1 in ALL_TABLES2:  # nu[s] = advance[s][t_s]
        codes[t0 + 256 * t1] = 2 * (advance[0][t0] == advance[1][t1]) + advance[0][t0]
    codes.flags.writeable = False
    return codes


def _stacked_composites(tables: np.ndarray, advance: tuple[tuple[int, int], ...]) -> np.ndarray:
    """The composite code of every round of a (rows, m, 2) table grid of bits,
    in the stacked layout (rows, 2, K), K = (m + 1) // 2: slot [r, p, k] is
    row r's block-local round 2k + 1 + p, so party axis 0 holds Alice's odd
    rounds and 1 Bob's even ones. One ``take`` of ``_composite_codes`` at
    the rounds' uint16 codes; on odd m Bob's last slot is the identity."""
    rows, m = tables.shape[:2]
    codes = np.ascontiguousarray(tables, dtype=np.uint8).view("<u2")[..., 0]
    if m % 2:
        codes = np.concatenate((codes, np.full((rows, 1), 2, dtype="<u2")), axis=1)
    return _composite_codes(advance).take(codes.reshape(rows, -1, 2).swapaxes(1, 2))


@lru_cache(maxsize=None)
def _slots(m: int) -> tuple:
    """Read-only constants of the stacked layout of an m-column grid. A
    report names round t by its index (t + 1) // 2, slot k's k + 1, in w
    bits, big-endian; w is Alice's width, and Bob's is ``trim`` bits less.
    Returns ``evens`` 2k by slot, which a constant's code raises to 2 (k + 1)
    + its value; ``firsts`` K - k by slot; ``rounds`` (2, K), each slot's
    block-local round; ``shifts`` w .. 0, the bits of an index and a value
    bit ([1:] an index's); ``decode``, flat (2^w, 2): [e, p] the round of
    index e of party p, 0 if none; ``merge``, that with m + 1 for none; and
    ``trim``."""
    K, w = (m + 1) // 2, ((m + 1) // 2).bit_length()
    k, e = np.arange(K), np.arange(1 << w)[:, None]
    decode = np.where((e >= 1) & (e <= (K, m // 2)), 2 * e - 1 + _TWO, 0)
    arrays = (2 * k, K - k, 2 * k + 1 + _TWO[:, None], np.arange(w, -1, -1), decode.ravel(),
              np.where(decode > 0, decode, m + 1).ravel())
    for a in arrays:
        a.flags.writeable = False
    return *arrays, w - (m // 2).bit_length()


def _send_codes(codes: np.ndarray, shifts: np.ndarray, trim: int, side: CodeSpec,
                ch: ChannelModel, rng: np.random.Generator,
                matrix_seed: int) -> tuple[np.ndarray, tuple[TransferResult, ...]]:
    """One ``exchange`` of Alice's and Bob's (rows, 2) ``codes`` as their
    bits at ``shifts``, Bob's ``trim`` leading ones dropped. Returns what
    each party heard, as (rows, 2) integers, and the two transfers."""
    bits = (codes[..., None] >> shifts & 1).astype(np.uint8)
    heard, transfers = exchange({Party.ALICE: bits[:, 0], Party.BOB: bits[:, 1, trim:]},
                                side, ch, rng, matrix_seed=matrix_seed)
    got = np.zeros_like(bits)
    got[:, 0, trim:], got[:, 1] = heard[Party.ALICE], heard[Party.BOB]
    return got @ (1 << shifts), transfers


def run_lookahead_exchange(p: FiniteStateProtocol, ch: ChannelModel,
                           side_code: CodeSpec, rng: np.random.Generator) -> LookaheadResult:
    """Each party's block-initial state vector as it believes it, by the
    parity algorithm, the reports exchanged with ``side_code``. Decode errors
    make the vectors differ or drift from the truth, which the end-to-end
    oracle comparison catches downstream."""
    m = padded_side(p)
    if p.M != 2:
        raise ValueError("the parity lookahead requires a two-state protocol")
    codes = _stacked_composites(p.tables.reshape(m, m, 2), p.advance)
    evens, _, rounds, shifts, decode, _, trim = _slots(m)
    # each party's last constant as one key 2 * index + value, 0 where it has none;
    # every (rows, 2) array below holds Alice's report in column 0 and Bob's in 1
    key = ((codes >> 1) * (codes + evens)).max(axis=-1)
    heard, first = _send_codes(key, shifts, trim, side_code, ch, rng, m + 1)
    mine = decode.take((key & -2) + _TWO)
    theirs = decode.take((heard & -2) + 1 - _TWO)
    agreed = np.maximum(mine, theirs)

    # second exchange: the xor of each party's flips after the agreed last constant
    parities = (codes & (rounds > agreed[..., None])).sum(axis=-1) & 1
    heard_parity, second = _send_codes(parities, shifts[-1:], 0, side_code, ch, rng, m + 3)

    # from entry state s a block ends in the later constant's value (or s when
    # neither party has one) xored with both parities; chain each party's (m, 2) maps
    base = np.where(mine > theirs, key, heard) & 1
    ends = np.where(agreed[..., None] > 0, base[..., None], _TWO) ^ \
        (parities ^ heard_parity)[..., None]
    alice, bob = (tuple(chain(ends[:, q], p.initial_state).tolist()) for q in (0, 1))
    return LookaheadResult(alice, bob, first + second)


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
    return tuple(((a, b), (c, d)) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1))


_ADVANCES2 = all_two_state_advances()  # the draw's choices
_advance_class = lru_cache(maxsize=None)(classify_advance)  # by a protocol's advance tuple


def random_two_state_protocol(n: int, seed: int | np.random.Generator,
                              advance=None, initial_state: int = 0) -> FiniteStateProtocol:
    """Uniform two-state protocol: random advance (unless given) and i.i.d.
    uniform transmission tables."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if advance is None:
        advance = _ADVANCES2[int(rng.integers(16))]
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
    after it sends the transcript bit of branch 0. ``beliefs`` holds the
    (rows, 2) merge points of ``_merge_points`` on a grid of ``m`` columns,
    and ``phase[p]`` party p's (rows, m) phase of every round. Both maps are
    one flat ``take``, at each column's owner's (or receiver's) phase times
    the stride of a phase in the format.
    """

    branches = 2

    def __init__(self, cls: AdvanceClass, beliefs: np.ndarray, m: int):
        naming, tables = _exhaustive_format(cls)
        self.naming, self.tables = naming.ravel(), tables.ravel()
        cols = np.arange(m)
        self.phase = np.sign(cols + 1 - beliefs.T[..., None]) + 1
        owner = cols % 2  # column j's owner on the party axis: Alice for odd j
        self.sending = self.phase[owner, :, cols] * naming[0].size  # (m, rows), by column
        self.reading = (self.phase[1 - owner, :, cols] * tables[0].size)[..., None]

    def encode(self, j, tables, taus):
        code = tables @ _PAIR_CODE + taus[..., 0]  # t0 * 4 + t1 * 2 + tau
        return self.naming.take(self.sending[j - 1:j - 1 + len(tables)] + code)

    def decode(self, j, bits, states):
        return self.tables.take(self.reading[j - 1:j - 1 + len(bits)] + bits[..., None] * 2
                                + states)


def _merge_points(tables: np.ndarray, advance: tuple[tuple[int, int], ...], ch: ChannelModel,
                  side_code: CodeSpec, rng: np.random.Generator,
                  ) -> tuple[np.ndarray, tuple[TransferResult, ...]]:
    """The exhaustive scheme's exchange over a (rows, m, 2) table grid: each
    party sends the compressed index of its first constant-making round per
    row and takes the earlier of the two (m + 1 if neither) as the row's
    merge point. Returns the (rows, 2) merge points, column 0 Alice's belief
    and 1 Bob's, and the two transfers."""
    m = tables.shape[1]
    _, firsts, _, shifts, _, merge, trim = _slots(m)
    # K - k of each party's first constant slot k, 0 where it has none; K + 1 less
    # that, mod K + 1, is the index k + 1 it sends, and 0 for none
    K = len(firsts)
    codes = (K + 1 - ((_stacked_composites(tables, advance) >> 1) * firsts).max(axis=-1)) % (K + 1)
    heard, transfers = _send_codes(codes, shifts[1:], trim, side_code, ch, rng, m + 1)
    return np.minimum(merge.take(2 * codes + _TWO), merge.take(2 * heard + 1 - _TWO)), transfers


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
    rows = tuple(map(tuple, advance.tolist()))
    cls = _advance_class(rows)
    if not cls.interactive:
        raise ValueError("the exhaustive scheme requires an interactive advance function")
    tables = _bits(blocks, "blocks must hold only bits")
    if tables.ndim != 3 or tables.shape[2] != 2:
        raise ValueError(f"blocks must be a (blocks, m, 2) stack, not shape {tables.shape}")
    m = tables.shape[1]
    ch, code, rng = ChannelModel.parse("bsc:0"), CodeSpec.parse("rep:1"), np.random.default_rng(0)
    beliefs, transfers = _merge_points(tables, rows, ch, code, rng)
    both = np.tile(np.arange(2), (len(tables), 1))
    runs = run_columns(tables, advance, {Party.ALICE: both, Party.BOB: both},
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
    cls = _advance_class(pp.advance)
    if not cls.interactive:
        return genie_provider(pp, ch, side_code, rng)
    beliefs, transfers = _merge_points(pp.tables.reshape(m, m, 2), pp.advance, ch, side_code, rng)
    return LookaheadResult((), (), transfers, wire=ExhaustiveWire(cls, beliefs, m))


def exhaustive_two_state(p: FiniteStateProtocol, ch: ChannelModel, code_spec: CodeSpec,
                         side_spec: CodeSpec, rng: np.random.Generator,
                         seed: int | None = None) -> SimulationReport:
    """Full exhaustive-scheme simulation over the vertical grid."""
    if p.M != 2:
        raise ValueError("the exhaustive scheme requires a two-state protocol")
    return simulate_vertical(p, ch, code_spec, exhaustive_lookahead, rng,
                             scheme="two-state-exhaustive", seed=seed, side=side_spec)
