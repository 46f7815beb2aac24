"""Noiseless differential test: every scheme against ``run_protocol``.

Over a noiseless channel with rep:1, a scheme given any protocol must either
reproduce the clean transcript for both parties, report a lookahead failure
(m-state only, when the tails do not merge), or refuse with ``ValueError``
(a two-state scheme given M != 2). The batched walker ``walk``, the row chain
``chain`` and the block starts read off them must give the states of
``run_protocol`` for any advance table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim import protocol
from icsim.channel import ChannelModel
from icsim.coding import CodeSpec
from icsim.multistate import is_coinciding, simulate_mstate
from icsim.protocol import FiniteStateProtocol, chain, run_protocol, walk
from icsim.twostate import (
    all_two_state_advances,
    classify_advance,
    exhaustive_lookahead,
    exhaustive_two_state,
    simulate_two_state,
)
from icsim.vertical import genie_provider, simulate_vertical

REP1 = CodeSpec.parse("rep:1")
SCHEMES = ("genie", "two-state", "two-state-exhaustive", "m-state-last", "m-state-first")


def _run(scheme, p, ch, rng):
    if scheme == "genie":
        return simulate_vertical(p, ch, REP1, genie_provider, rng)
    if scheme == "two-state":
        return simulate_two_state(p, ch, REP1, REP1, rng)
    if scheme == "two-state-exhaustive":
        return exhaustive_two_state(p, ch, REP1, REP1, rng)
    return simulate_mstate(p, ch, REP1, REP1, scheme.removeprefix("m-state-"), rng)


@st.composite
def protocols(draw, two_state: bool):
    M = 2 if two_state and draw(st.booleans()) else draw(st.integers(2, 8))
    n = draw(st.integers(1, 300))
    advance = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
                            min_size=M, max_size=M))
    tables = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, size=(n, M))
    return FiniteStateProtocol(n=n, M=M, advance=advance,
                               transmissions=tuple(map(tuple, tables.tolist())),
                               initial_state=draw(st.integers(0, M - 1)))


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=60)
@given(data=st.data(), channel=st.sampled_from(["bsc:0", "bec:0"]))
def test_noiseless_scheme_reproduces_run_protocol(scheme, data, channel):
    p = data.draw(protocols(two_state=scheme.startswith("two-state")))
    ch = ChannelModel.parse(channel)
    rng = np.random.default_rng(0)
    if scheme.startswith("two-state") and p.M != 2:
        with pytest.raises(ValueError):
            _run(scheme, p, ch, rng)
        return
    report = _run(scheme, p, ch, rng)
    if report.lookahead_failure is not None:
        assert scheme.startswith("m-state")
        assert not report.alice_correct and not report.bob_correct
        assert report.vertical_uses == 0 and report.column_errors == ()
        return
    assert report.alice_correct and report.bob_correct
    assert report.channel_uses == report.vertical_uses + report.lookahead_uses


# ---------------------------------------------------------------------------
# the batched walker and the row chain against run_protocol

ADVANCE_KINDS = ("random", "non-interactive", "non-coinciding")
NON_INTERACTIVE2 = tuple(e for e in all_two_state_advances()
                         if not classify_advance(e).interactive)


def _advance(kind: str, M: int, rng: np.random.Generator) -> np.ndarray:
    """An M-state advance table: uniform, blind to the bit, or closed on the
    even states and on the odd ones, so that no two states of different
    parity ever meet."""
    if kind == "non-coinciding":
        return np.array([rng.choice(np.arange(s % 2, M, 2), size=2) for s in range(M)])
    advance = rng.integers(0, M, size=(M, 2))
    if kind == "non-interactive":
        advance[:, 1] = advance[:, 0]
    return advance


def _protocol(M, advance, tables, s0: int) -> FiniteStateProtocol:
    return FiniteStateProtocol(n=len(tables), M=M, advance=advance, transmissions=tables,
                               initial_state=s0)


@settings(max_examples=200)
@given(M=st.integers(2, 8), kind=st.sampled_from(ADVANCE_KINDS), B=st.integers(2, 4),
       p=st.one_of(st.sampled_from([0, 1]), st.integers(2, 12)), k=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1))
def test_walk_matches_run_protocol(M, kind, B, p, k, seed):
    rng = np.random.default_rng(seed)
    advance = _advance(kind, M, rng)
    if kind == "non-coinciding":
        assert is_coinciding(advance, M) is None
    tables = rng.integers(0, 2, size=(B, p, M))
    starts = rng.integers(0, M, size=(B, k))
    states = walk(advance, tables, starts)
    assert states.shape == (p + 1, B, k)
    for b, j in np.ndindex(B, k):
        s = int(starts[b, j])
        expected = run_protocol(_protocol(M, advance, tables[b], s)).states if p else (s,)
        assert states[:, b, j].tolist() == list(expected)


@pytest.mark.parametrize("span", [1, 200, 1000])
def test_walk_in_blocks_of_rows_equals_one_walk(monkeypatch, span):
    """``walk`` takes at most ``_WALK_SPAN`` entries, (p + 1) * (M + k) a
    row, at once: blocks of one row, of two with one left over, and of 12
    and 11 give the states of one block, from shared and per-row starts."""
    rng = np.random.default_rng(span)
    M, B, p, k = 5, 23, 9, 3
    advance = _advance("random", M, rng)
    tables = rng.integers(0, 2, size=(B, p, M))
    for starts in (rng.integers(0, M, size=(B, k)), rng.integers(0, M, size=k)):
        whole = walk(advance, tables, starts)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_WALK_SPAN", span)
            blocked = walk(advance, tables, starts)
        assert blocked.dtype == whole.dtype and np.array_equal(blocked, whole)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
@pytest.mark.parametrize("layout", ["strided-states", "strided-rounds", "transposed"])
def test_walk_reads_strided_table_stacks(layout, dtype):
    """``walk`` moves each round's M entries as one item, which needs a
    contiguous M axis: a stack whose M axis is strided, or whose other axes
    are, walks as ``run_protocol`` does."""
    rng = np.random.default_rng(ADVANCE_KINDS.index("random"))
    M, B, p, k = 3, 5, 7, 2
    advance = _advance("random", M, rng)
    big = rng.integers(0, 2, size=(2 * B, 2 * p, 2 * M)).astype(dtype)
    tables = {"strided-states": big[:B, :p, ::2],
              "strided-rounds": big[::2, 1::2, :M],
              "transposed": big[:p, :B, :M].transpose(1, 0, 2)}[layout]
    assert tables.shape == (B, p, M) and not tables.flags.c_contiguous
    assert (tables.strides[-1] == tables.itemsize) == (layout != "strided-states")
    starts = rng.integers(0, M, size=(B, k))
    states = walk(advance, tables, starts)
    assert np.array_equal(states, walk(advance, np.ascontiguousarray(tables), starts))
    for b, j in np.ndindex(B, k):
        s = int(starts[b, j])
        protocol_b = _protocol(M, advance, tables[b].astype(np.uint8), s)
        assert states[:, b, j].tolist() == list(run_protocol(protocol_b).states)


@settings(max_examples=200)
@given(M=st.integers(2, 8), kind=st.sampled_from(ADVANCE_KINDS), rows=st.integers(1, 8),
       length=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_chained_row_finals_give_the_row_starts_of_run_protocol(M, kind, rows, length,
                                                                 data, seed):
    rng = np.random.default_rng(seed)
    advance = _advance(kind, M, rng)
    tables = rng.integers(0, 2, size=(rows * length, M))
    s0 = data.draw(st.integers(0, M - 1))
    finals = walk(advance, tables.reshape(rows, length, M), np.arange(M))[-1]
    truth = run_protocol(_protocol(M, advance, tables, s0)).states[:-1:length]
    assert chain(finals, s0).tolist() == list(truth)


@settings(max_examples=200)
@given(M=st.integers(2, 8), kind=st.sampled_from(ADVANCE_KINDS),
       m=st.sampled_from([1, 2, 4, 6, 8]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_block_starts_match_run_protocol(M, kind, m, data, seed):
    rng = np.random.default_rng(seed)
    advance = _advance(kind, M, rng)
    pp = _protocol(M, advance, rng.integers(0, 2, size=(m * m, M)),
                   data.draw(st.integers(0, M - 1)))
    truth = run_protocol(pp).states[:-1:m]
    la = genie_provider(pp, None, None, None)
    assert (la.alice_states, la.bob_states) == (truth, truth)


@pytest.mark.parametrize("advance", NON_INTERACTIVE2)
@settings(max_examples=30)
@given(m=st.sampled_from([1, 2, 4, 6, 8]), s0=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_exhaustive_starts_of_a_non_interactive_advance_match_run_protocol(advance, m, s0,
                                                                           seed):
    pp = _protocol(2, advance, np.random.default_rng(seed).integers(0, 2, size=(m * m, 2)), s0)
    truth = run_protocol(pp).states[:-1:m]
    la = exhaustive_lookahead(pp, ChannelModel.parse("bsc:0"), REP1, np.random.default_rng(0))
    assert (la.alice_states, la.bob_states, la.transfers) == (truth, truth, ())


def test_the_four_non_interactive_two_state_advances_are_covered():
    assert len(NON_INTERACTIVE2) == 4
