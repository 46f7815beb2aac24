"""Vertical simulation: scheduling, the genie, the column loop, accounting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icsim.vertical
from icsim.channel import ChannelModel
from icsim.coding import CodeSpec, TransferResult
from icsim.harness import ExperimentConfig, run_sweep, run_trial
from icsim.multistate import TailWire, all_tables, tail_exhaustive_lookahead, tail_lookahead
from icsim.protocol import (
    FiniteStateProtocol,
    Party,
    make_markovian,
    markovian_advance,
    pad_protocol,
    random_protocol,
    run_protocol,
    walk,
)
from icsim.twostate import (
    ExhaustiveWire,
    _merge_points,
    classify_advance,
    exhaustive_lookahead,
    random_two_state_protocol,
    run_lookahead_exchange,
)
from icsim.vertical import (
    _HEALED,
    ColumnWire,
    LookaheadResult,
    _correct,
    accounting,
    genie_provider,
    grid_side,
    padded_side,
    run_columns,
    simulate_vertical,
)

NOISELESS = ChannelModel("bsc", 0.0)
FOLLOW2 = ((0, 1), (0, 1))


def test_schedule_exact_square():
    assert grid_side(16) == 4


def test_schedule_single_round():
    assert grid_side(1) == 1


def test_schedule_pads_up():
    assert grid_side(10) == 4


def test_schedule_keeps_column_ownership_single_party():
    # rounds r*m + j must share j's parity, which forces an even side
    for n in (2, 5, 9, 50, 100, 4096):
        m = grid_side(n)
        n_padded = m * m
        assert n_padded >= n
        assert m == 1 or m % 2 == 0
        assert m <= 2 or (m - 2) ** 2 < n  # the smallest such square
        padded = pad_protocol(random_two_state_protocol(n, seed=n), n_padded)
        assert padded_side(padded) == m
    with pytest.raises(ValueError):
        grid_side(0)


def test_genie_identity_advance_repeats_start():
    p = FiniteStateProtocol(n=16, M=2, advance=((0, 0), (1, 1)),
                            transmissions=((0, 1),) * 16, initial_state=1)
    la = genie_provider(p, NOISELESS, None, None)
    assert la.alice_states == (1, 1, 1, 1) and la.bob_states == la.alice_states


def test_genie_reads_block_boundaries_off_the_trace():
    p = random_two_state_protocol(16, seed=3)
    trace = run_protocol(p)
    la = genie_provider(p, NOISELESS, None, None)
    assert la.alice_states == tuple(trace.states[j] for j in (0, 4, 8, 12))
    assert la.alice_states == la.bob_states


def _count_protocol_runs(monkeypatch) -> list[int]:
    """Record the length of every protocol ``icsim.vertical`` runs."""
    calls = []
    monkeypatch.setattr(icsim.vertical, "run_protocol",
                        lambda pp: calls.append(pp.n) or run_protocol(pp))
    return calls


def _record_transfers(monkeypatch) -> list[tuple[int, int, int, bool]]:
    """Record every transfer through ``icsim.vertical.convey``, side and
    column alike, as (matrix seed, payload bits, channel uses, intact)."""
    recorded = []
    send = icsim.vertical.convey

    def record(spec, bits, ch, rng, matrix_seed=0):
        result = send(spec, bits, ch, rng, matrix_seed=matrix_seed)
        recorded.append((matrix_seed, len(bits), result.channel_uses, result.intact))
        return result

    monkeypatch.setattr(icsim.vertical, "convey", record)
    return recorded


def _transfer(bits: int, uses: int) -> TransferResult:
    return TransferResult(np.zeros(bits, dtype=np.uint8), uses, True)


def test_noisy_genie_trial_runs_the_protocol_only_when_a_party_is_wrong(monkeypatch):
    calls = _count_protocol_runs(monkeypatch)
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0.05", code="rep:3")
    outcomes = set()
    for trial in range(20):
        calls.clear()
        report = run_trial(cfg, 100, trial)
        assert calls == [] or (calls == [report.n_padded] and not report.correct)
        outcomes.add(report.correct)
    assert outcomes == {True, False}


def test_genie_rejects_unpadded_lengths():
    p = random_two_state_protocol(10, seed=0)
    with pytest.raises(ValueError):
        genie_provider(p, NOISELESS, None, None)


def test_noiseless_genie_run_matches_oracle_and_rate():
    p = random_two_state_protocol(36, seed=5)
    rng = np.random.default_rng(0)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:3"),
                               genie_provider, rng, seed=0)
    assert report.alice_correct and report.bob_correct
    assert not any(report.column_errors)
    # n / (m * rows * r) with the logical n in the numerator
    assert report.achieved_rate == pytest.approx(36 / (6 * 6 * 3))


def test_above_capacity_oracle_code_fails_loudly():
    ch = ChannelModel("bsc", 0.3)
    p = random_two_state_protocol(64, seed=1)
    rng = np.random.default_rng(4)
    report = simulate_vertical(p, ch, CodeSpec.parse("oracle:0.9"),
                               genie_provider, rng, seed=4)
    assert all(report.column_errors)
    assert not report.correct


def test_lookahead_failure_aborts_without_guessing():
    def broken_provider(pp, ch, side, rng):
        return LookaheadResult((), (), (_transfer(5, 10), _transfer(7, 20)),
                               failure="no merge in block 2")

    p = random_two_state_protocol(16, seed=2)
    rng = np.random.default_rng(0)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:1"),
                               broken_provider, rng, scheme="two-state")
    assert report.lookahead_failure == "no merge in block 2"
    assert not report.alice_correct and not report.bob_correct
    assert report.channel_uses == report.lookahead_uses == 30
    assert report.lookahead_bits == 12
    assert report.vertical_uses == 0 and report.column_errors == ()


def test_accounting_zero_overhead_when_rate_divides():
    # rows / R integral and no side information: N = n_padded / R exactly
    p = random_two_state_protocol(256, seed=7)
    rng = np.random.default_rng(1)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:4"),
                               genie_provider, rng)
    audit = accounting(report)
    assert audit.overhead == pytest.approx(0.0, abs=1e-9)
    assert audit.passed
    assert report.channel_uses == 256 * 4


@pytest.mark.parametrize("code", ["rep:3", "rlc:2", "oracle:0.3"])
@pytest.mark.parametrize("scheme", ["genie", "two-state", "two-state-exhaustive"])
def test_noiseless_sweeps_pass_every_audit_from_the_smallest_grid(scheme, code):
    # the 1x1 and 2x2 grids pay the two-state side transfers on almost no rounds
    cfg = ExperimentConfig(scheme=scheme, channel="bsc:0", code=code,
                           n_list=tuple(range(1, 81)), trials=1)
    assert run_sweep(cfg).audits_passed


@pytest.mark.parametrize("seed", range(4))
def test_mstate_last_overhead_needs_the_ceil_slack_term(seed):
    # the m-state bound's + m pays each column's ceil slack: at oracle:0.3
    # the columns alone spend more than the side transfers' share leaves
    cfg = ExperimentConfig(scheme="m-state", placement="last", channel="bsc:0",
                           code="oracle:0.3",
                           protocol={"type": "markovian", "log_M": 1, "functions": "all"})
    report = run_trial(cfg, 4096, seed)
    audit = accounting(report)
    assert report.lookahead_failure is None and report.correct
    assert audit.passed
    assert audit.overhead > audit.bound - report.m


def test_accounting_exact_split():
    def costly_provider(pp, ch, side, rng):
        states = genie_provider(pp, ch, side, rng).alice_states
        return LookaheadResult(states, states, (_transfer(25, 60), _transfer(15, 40)))

    p = random_two_state_protocol(64, seed=3)
    rng = np.random.default_rng(2)
    report = simulate_vertical(p, ChannelModel("bsc", 0.05), CodeSpec.parse("oracle:0.3"),
                               costly_provider, rng, scheme="two-state")
    assert report.channel_uses == report.vertical_uses + report.lookahead_uses
    assert report.lookahead_uses == 100 and report.lookahead_bits == 40
    assert report.vertical_uses == 8 * int(np.ceil(8 / 0.3))
    assert accounting(report).exact_split


def test_accounting_rejects_a_split_that_drops_a_side_transfer(monkeypatch):
    recorded = _record_transfers(monkeypatch)
    cfg = ExperimentConfig(scheme="two-state", channel="bsc:0.05", code="rep:3")
    report = run_trial(cfg, 1024, 0)
    assert accounting(report).passed
    _, _, uses, _ = recorded[0]  # Alice's first side transfer
    audit = accounting(replace(report, lookahead_uses=report.lookahead_uses - uses))
    assert (audit.exact_split, audit.passed, audit.note) == (False, False, "split mismatch")


MARKOV2 = {"type": "markovian", "log_M": 1, "functions": "all"}


@pytest.mark.parametrize("scheme, protocol, placement, sides", [
    ("genie", {"type": "two-state"}, "last", 0),
    ("two-state", {"type": "two-state"}, "last", 4),
    ("two-state-exhaustive", {"type": "two-state", "advance": [[0, 1], [0, 1]]}, "last", 2),
    ("m-state", MARKOV2, "last", 2),
    ("m-state", MARKOV2, "first", 2),
    # balanced tables never merge the two trajectories: every trial aborts
    ("m-state", {**MARKOV2, "functions": "balanced"}, "last", 2),
], ids=["genie", "two-state", "two-state-exhaustive", "m-state-last", "m-state-first",
        "m-state-merge-failure"])
def test_the_report_counts_every_transfer_of_its_trial(monkeypatch, scheme, protocol,
                                                       placement, sides):
    recorded = _record_transfers(monkeypatch)
    cfg = ExperimentConfig(scheme=scheme, protocol=protocol, placement=placement,
                           channel="bsc:0.05", code="rep:3", side_code="rep:1")
    completed = 0
    for trial in range(4):
        recorded.clear()
        report = run_trial(cfg, 1024, trial)
        # side transfers take matrix seeds above m, column j takes seed j
        side = [r for r in recorded if r[0] > report.m]
        columns = recorded[len(side):]
        assert side == recorded[:sides] and all(1 <= r[0] <= report.m for r in columns)
        assert report.lookahead_bits == sum(bits for _, bits, _, _ in side)
        assert report.lookahead_uses == sum(uses for _, _, uses, _ in side)
        assert report.vertical_uses == sum(uses for _, _, uses, _ in columns)
        assert report.channel_uses == sum(uses for _, _, uses, _ in recorded)
        assert report.column_errors == tuple(not intact for *_, intact in columns)
        if report.lookahead_failure is None:
            completed += bool(columns)
        else:  # a merge failure aborts after the side transfers
            assert report.lookahead_failure.startswith("trajectories did not merge")
            assert columns == []
    assert completed == 0 if "balanced" in protocol.values() else completed > 0


def test_noisy_decode_errors_show_up_per_column():
    ch = ChannelModel("bsc", 0.05)
    p = random_two_state_protocol(256, seed=11)
    failures = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        report = simulate_vertical(p, ch, CodeSpec.parse("rep:1"), genie_provider,
                                   rng, seed=seed)
        assert len(report.column_errors) == grid_side(256)
        if any(report.column_errors):
            failures += 1
            assert not report.correct or all(
                not e for e in report.column_errors)  # unreachable guard
    # uncoded transmission at eps=0.05 over 256 bits: failure is near certain
    assert failures >= 38


def test_report_rate_uses_logical_length():
    p = random_two_state_protocol(10, seed=4)
    rng = np.random.default_rng(0)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:1"), genie_provider, rng)
    assert report.n_logical == 10 and report.n_padded == 16
    assert report.achieved_rate == pytest.approx(10 / 16)


def test_vertical_engine_handles_multistate_protocols():
    adv = make_markovian(2, [(0,) * 4]).advance
    fset = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1)]
    p = random_protocol(100, 4, fset, seed=6, advance=adv)
    rng = np.random.default_rng(5)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:2"), genie_provider, rng)
    assert report.correct and report.states == 4


def test_reports_are_slotted_and_share_repeated_fields():
    # a sweep keeps every report of an n, so equal fields share one object
    code = CodeSpec.parse("rep:1")
    a, b = (simulate_vertical(random_two_state_protocol(64, seed=s), ChannelModel.parse("bsc:0"),
                              code, genie_provider, np.random.default_rng(s)) for s in (1, 2))
    assert not hasattr(a, "__dict__")
    assert a.column_errors == (False,) * 8 and a.column_errors is b.column_errors
    assert a.channel is b.channel and a.code is b.code


@pytest.mark.parametrize("scheme, protocol, placement", [
    ("two-state", {"type": "two-state"}, "last"),
    ("two-state-exhaustive", {"type": "two-state"}, "last"),
    ("m-state", {"type": "markovian", "log_M": 1, "functions": "all"}, "last"),
    ("m-state", {"type": "markovian", "log_M": 1, "functions": "all"}, "first"),
    ("genie", {"type": "two-state"}, "last"),
])
def test_noiseless_trials_check_transcripts_without_running_the_protocol(
        monkeypatch, scheme, protocol, placement):
    calls = _count_protocol_runs(monkeypatch)
    cfg = ExperimentConfig(scheme=scheme, protocol=protocol, placement=placement,
                           channel="bsc:0", code="rep:1")
    completed = 0
    for trial in range(8):
        report = run_trial(cfg, 150, trial)
        completed += report.lookahead_failure is None
        assert report.correct == (report.lookahead_failure is None)
    assert calls == [] and completed


@pytest.mark.parametrize("tables, correct", [((0, 1), False), ((1, 1), True)],
                         ids=["state-dependent", "state-blind"])
def test_a_wrong_row_start_falls_back_to_the_clean_execution(monkeypatch, tables, correct):
    # the bit follows the state (or ignores it) and the state is the last bit,
    # so a wrong start in row 2 breaks the chain and spoils row 2 (or not)
    p = FiniteStateProtocol(n=36, M=2, advance=FOLLOW2, transmissions=(tables,) * 36,
                            initial_state=0)

    def one_wrong_start(pp, ch, side, rng):
        states = list(genie_provider(pp, ch, side, rng).alice_states)
        states[2] ^= 1
        return LookaheadResult(tuple(states), tuple(states))

    calls = _count_protocol_runs(monkeypatch)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:1"), one_wrong_start,
                               np.random.default_rng(0))
    assert calls == [36]
    assert (report.alice_correct, report.bob_correct) == (correct, correct)


@st.composite
def column_runs(draw):
    """A protocol on an m x m grid and, per party, the bits of every branch
    and the states they drive through from the row starts, as
    ``run_columns`` returns them, with flipped bits and wrong row starts
    mixed in; some runs are one pair of arrays both parties share."""
    M, m = draw(st.integers(2, 5)), draw(st.sampled_from([1, 2, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    advance = rng.integers(0, M, size=(M, 2))
    p = FiniteStateProtocol(n=m * m, M=M, advance=advance,
                            transmissions=rng.integers(0, 2, size=(m * m, M)),
                            initial_state=draw(st.integers(0, M - 1)))
    branches = draw(st.sampled_from([1, M]))
    flip, wrong_start = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])), draw(st.booleans())
    shared = draw(st.booleans())  # both parties hold the same arrays, as run_columns shares them
    row_starts = np.array(run_protocol(p).states[:-1:m])
    runs = {}
    for q in (Party.ALICE, Party.BOB):
        if shared and runs:
            runs[q] = runs[Party.ALICE]
            continue
        if branches > 1:
            start = np.tile(np.arange(M), (m, 1))
        else:
            start = row_starts[:, None].copy()
            if wrong_start:
                start[rng.integers(m), 0] = rng.integers(M)
        bits = np.empty((m, m, branches), dtype=np.intp)
        states = np.empty((m + 1, m, branches), dtype=np.intp)
        states[0] = start
        for j in range(m):
            tau = p.tables[np.arange(m) * m + j][np.arange(m)[:, None], states[j]]
            bits[j] = tau ^ (rng.random(tau.shape) < flip)
            states[j + 1] = advance[states[j], bits[j]]
        runs[q] = (bits, states)
    return p, runs


def _reference_transcript(bits, finals, initial_state):
    """Chain one party's (columns, rows, branches) bits into its transcript:
    branch 0 of every row when there is one branch, else the branch that
    starts in the state the previous row ended in."""
    _, rows, branches = bits.shape
    out, s = [], initial_state
    for r in range(rows):
        pick = 0 if branches == 1 else s
        out.extend(bits[:, r, pick].tolist())
        s = finals[r, pick]
    return tuple(out)


@settings(max_examples=300)
@given(column_runs())
def test_consistency_check_equals_the_transcript_comparison(case):
    p, runs = case
    truth = run_protocol(p).bits
    assert _correct(p, runs) == \
        {q: _reference_transcript(bits, states[-1], p.initial_state) == truth
         for q, (bits, states) in runs.items()}


class _TableWire(ColumnWire):
    """Carries the owner's whole (rows, M) tables, so the receiver reads the
    bit of every branch off them."""

    def __init__(self, branches):
        self.branches = branches

    def encode(self, j, tables, taus):
        return tables

    def decode(self, j, bits, states):
        return np.take_along_axis(bits, states, axis=2)


@pytest.mark.parametrize("branches", ["one", "all"])
@pytest.mark.parametrize("M", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_column_loop_states_are_the_walk_of_each_partys_tables(m, M, branches):
    rng = np.random.default_rng(100 * m + M)
    p = FiniteStateProtocol(n=m * m, M=M, advance=rng.integers(0, M, size=(M, 2)),
                            transmissions=rng.integers(0, 2, size=(m * m, M)))
    if branches == "one":
        wire, starts = ColumnWire(), rng.integers(0, M, size=(m, 1))
    else:
        wire, starts = _TableWire(M), np.tile(np.arange(M), (m, 1))
    parties = (Party.ALICE, Party.BOB)
    grid = p.tables.reshape(m, m, M)
    runs = run_columns(grid, p.advance_array, {q: starts for q in parties}, wire,
                       lambda j, bits: TransferResult(bits, bits.size, True))
    want = walk(p.advance_array, grid, starts)
    for q in parties:
        bits, states = runs[q]
        assert bits.shape == (m, m, starts.shape[1])
        assert states.shape == (m + 1, m, starts.shape[1])
        assert np.array_equal(states, want)


def _reference_columns(grid, advance, starts, wire, carry):
    """The column loop with one bits and one states array per party from
    the first column on, each party walking its own, column j Alice's for
    odd j; the wire maps one column at a time."""
    rows, cols, _ = grid.shape
    index = np.arange(rows)[:, None]
    bits = {q: np.empty((cols, rows, wire.branches), dtype=np.uint8) for q in starts}
    states = {q: np.empty((cols + 1, rows, wire.branches), dtype=np.intp) for q in starts}
    for q in starts:
        states[q][0] = starts[q]
    for j in range(1, cols + 1):
        owner = Party.ALICE if j % 2 else Party.BOB
        receiver = owner.other
        tables = grid[:, j - 1]
        at, was = states[owner][j - 1], states[receiver][j - 1]
        taus = tables[index, at]
        sent = wire.encode(j, tables[None], taus[None])[0]
        heard = carry(j, sent).bits if j > wire.unsent else sent
        applied = wire.decode(j, heard[None], was[None])[0]
        bits[owner][j - 1] = taus
        states[owner][j] = advance[at, taus]
        bits[receiver][j - 1] = applied
        states[receiver][j] = advance[was, applied]
    return {q: (bits[q], states[q]) for q in starts}


def _column_case(kind, m, rng):
    """A protocol on an m x m grid, a wire of that kind for it and the
    starts for it. The exhaustive wire gets the rows' true merge points and
    the tail wire two-round tails of a Markovian protocol, state-blind so
    that its branches merge over them; with no decoding error the parties
    agree on every column. ``-differ`` gives them other merge points or other tails in one
    row, as a decoding error in the lookahead would."""
    parties = (Party.ALICE, Party.BOB)
    family = kind.split("-")[0]
    M = {"exhaustive": 2, "tail": 4}.get(family, 3)
    advance = {"exhaustive": FOLLOW2, "tail": markovian_advance(2)}.get(family)
    tables = rng.integers(0, 2, size=(m, m, M))
    if family == "tail":
        tables[:, :2] = tables[:, :2, :1]
    p = FiniteStateProtocol(n=m * m, M=M, transmissions=tables.reshape(m * m, M),
                            advance=rng.integers(0, M, size=(M, 2)) if advance is None else advance)
    all_states = np.tile(np.arange(M), (m, 1))
    row = rng.integers(m)
    if family == "column":
        wire, all_states = ColumnWire(), rng.integers(0, M, size=(m, 1))
    elif family == "table":
        wire = _TableWire(M)
    elif family == "exhaustive":
        beliefs, _ = _merge_points(p.tables.reshape(m, m, M), p.advance, NOISELESS, REP1,
                                   rng)
        if kind.endswith("differ"):
            beliefs = beliefs.copy()
            beliefs[row, 1] = beliefs[row, 1] % (m + 1) + 1
        wire = ExhaustiveWire(classify_advance(p.advance), beliefs, m)
    else:
        tails = {q: p.tables.reshape(m, m, M)[:, :2].copy() for q in parties}
        if kind.endswith("differ"):
            tails[Party.BOB][row, 0] ^= 1
        wire = TailWire(tails)
    return p, wire, all_states


COLUMN_WIRES = ["column", "table", "exhaustive-same", "exhaustive-differ", "tail-same",
                "tail-differ"]


@pytest.mark.parametrize("kind", COLUMN_WIRES)
def test_a_wire_maps_a_block_as_its_columns_one_by_one(kind):
    # a shared stretch maps the rest of the grid in one call, the per-party
    # loop one column at a time: both must give the same bits
    m = 12
    rng = np.random.default_rng(COLUMN_WIRES.index(kind))
    p, wire, _ = _column_case(kind, m, rng)
    tables = p.tables.reshape(m, m, p.M).swapaxes(0, 1)
    for first, last in [(1, m), (1, 1), (2, 5), (3, 10), (m, m)]:
        block = slice(first - 1, last)
        states = rng.integers(0, p.M, size=(last - first + 1, m, wire.branches))
        taus = np.take_along_axis(tables[block], states, axis=2)
        sent = wire.encode(first, tables[block], taus)
        heard = sent ^ rng.integers(0, 2, size=sent.shape, dtype=np.uint8)
        got = wire.decode(first, heard, states)
        for c, j in enumerate(range(first, last + 1)):
            one = slice(c, c + 1)
            assert np.array_equal(sent[c], wire.encode(j, tables[j - 1:j], taus[one])[0])
            want = wire.decode(j, heard[one], states[one])[0]
            assert np.array_equal(np.broadcast_to(got[c], states[c].shape),
                                  np.broadcast_to(want, states[c].shape)), (first, j)


def _carrier(log, bad):
    """A ``carry`` that logs each payload and flips the first bit of each
    column in ``bad``."""
    def carry(j, bits):
        log.append((j, bits.shape, bits.tobytes()))
        heard = bits.copy()
        if j in bad:
            heard.reshape(-1)[0] ^= 1
        return TransferResult(heard, bits.size, bool(np.array_equal(heard, bits)))
    return carry


def _stretch_firsts(grid, advance, starts, wire):
    """The columns to corrupt so that the first sent column of every shared
    stretch of ``run_columns`` arrives corrupted: column 1 (or the first
    sent one), and the first column after each heal. Found column by column
    on the reference loop, since each corrupted column moves the later
    stretches: a stretch starts once the parties' states are equal after
    ``_HEALED`` intact columns in a row, and runs to the first column whose
    bits the parties apply differently."""
    cols = grid.shape[1]
    bad = set()
    while True:
        runs = _reference_columns(grid, advance, starts, wire, _carrier([], bad))
        (alice_bits, alice_states), (bob_bits, bob_states) = runs[Party.ALICE], runs[Party.BOB]
        calm = _HEALED if np.array_equal(alice_states[0], bob_states[0]) else 0
        done, firsts = 0, []
        while done < cols:
            if calm == _HEALED:
                firsts.append(max(done + 1, wire.unsent + 1))
                done = next((j for j in range(done + 1, cols + 1)
                             if not np.array_equal(alice_bits[j - 1], bob_bits[j - 1])), cols)
                calm = 0
                continue
            done += 1
            calm = calm + 1 if done not in bad and np.array_equal(alice_states[done],
                                                                 bob_states[done]) else 0
        missed = [j for j in firsts if j not in bad and j <= cols]
        if not missed:
            return bad
        bad.add(missed[0])


CORRUPT = {"none": lambda m: (), "first": lambda m: (1,), "middle": lambda m: (m // 2 + 1,),
           "last": lambda m: (m,), "twice": lambda m: (2, m // 2 + 2),
           "every-fifth": lambda m: range(3, m + 1, 5), "stretch-firsts": None}


@pytest.mark.parametrize("corrupt", list(CORRUPT))
@pytest.mark.parametrize("starts_kind", ["equal", "unequal"])
@pytest.mark.parametrize("kind", COLUMN_WIRES)
def test_column_loop_equals_a_per_party_loop(kind, starts_kind, corrupt):
    # run_columns shares one walk between the parties while their states
    # agree, resumes it once split parties agree again, and maps the rest of
    # the grid at once; each party's arrays, and the payloads it carries in
    # column order, must still be those of a loop that never shares and maps
    # one column at a time. "twice" and "every-fifth" split, heal and split
    # again; "stretch-firsts" splits at the first column of every stretch
    for m in (2, 4, 6, 20, 30):
        rng = np.random.default_rng(10 * m + COLUMN_WIRES.index(kind))
        p, wire, start = _column_case(kind, m, rng)
        starts = {Party.ALICE: start, Party.BOB: start.copy()}  # equal, not the same array
        if starts_kind == "unequal":
            starts[Party.BOB][rng.integers(m), 0] += 1
            starts[Party.BOB] %= p.M
        grid = p.tables.reshape(m, m, p.M)
        if corrupt == "stretch-firsts":
            bad = _stretch_firsts(grid, p.advance_array, starts, wire)
        else:  # a tail column carries nothing: corrupt the first sent one instead
            bad = {max(j, wire.unsent + 1) for j in CORRUPT[corrupt](m)}

        def carrier(log):
            return _carrier(log, bad)

        got_log, want_log = [], []
        runs = run_columns(grid, p.advance_array, starts, wire, carrier(got_log))
        want = _reference_columns(grid, p.advance_array, starts, wire, carrier(want_log))
        assert got_log == want_log, m
        assert [j for j, _, _ in got_log] == list(range(wire.unsent + 1, m + 1))
        for q in starts:
            for got, ref in zip(runs[q], want[q]):
                assert got.shape == ref.shape and np.array_equal(got, ref), (m, q)
                assert not got.flags.writeable
        # the parties share their arrays exactly when they never differed,
        # which they do not from equal starts with no error anywhere
        agree = starts_kind == "equal" and all(
            np.array_equal(a, b) for a, b in zip(want[Party.ALICE], want[Party.BOB]))
        assert (runs[Party.ALICE][0] is runs[Party.BOB][0]) == agree
        assert (runs[Party.ALICE][1] is runs[Party.BOB][1]) == agree
        if starts_kind == "equal" and corrupt == "none" and not kind.endswith("differ"):
            assert agree, m


@pytest.mark.parametrize("starts_kind, bad, walked", [
    # columns 1-20 are walked as one stretch, which splits at 3; 4 and 5 run
    # per party, 6-20 are walked and split at 15, 16 and 17 run per party,
    # and 18-20 are walked and end the run
    pytest.param("equal", {3, 15}, [20, 15, 3], id="equal"),
    # unequal starts stay unequal, so the per-party loop runs every column
    pytest.param("unequal", {3, 15}, [], id="unequal"),
    # every stretch's first column arrives corrupted: each splits there
    # before any walk, and the two per-party columns after it heal
    pytest.param("equal", set(range(1, 21, 3)), [], id="first-corrupted"),
])
def test_the_shared_walk_resumes_once_split_parties_agree_again(monkeypatch, starts_kind, bad,
                                                                walked):
    # this advance ignores the bit, so a wrong column leaves both parties in
    # equal states from equal starts, and they share a stretch again after two
    # intact columns; it permutes the states, so unequal starts stay unequal
    m = 20
    rng = np.random.default_rng(3)
    p = FiniteStateProtocol(n=m * m, M=3, transmissions=rng.integers(0, 2, size=(m * m, 3)),
                            advance=((1, 1), (2, 2), (0, 0)))
    start = rng.integers(0, 3, size=(m, 1))
    starts = {Party.ALICE: start, Party.BOB: (start + (starts_kind == "unequal")) % 3}
    got_walks = []

    def counting_walk(advance, tables, starts):
        got_walks.append(tables.shape[1])
        return walk(advance, tables, starts)

    monkeypatch.setattr(icsim.vertical, "walk", counting_walk)
    grid = p.tables.reshape(m, m, 3)
    got_log, want_log = [], []
    runs = run_columns(grid, p.advance_array, starts, ColumnWire(), _carrier(got_log, bad))
    want = _reference_columns(grid, p.advance_array, starts, ColumnWire(),
                              _carrier(want_log, bad))
    assert got_log == want_log
    for q in starts:
        assert all(np.array_equal(got, ref) for got, ref in zip(runs[q], want[q]))
    assert runs[Party.ALICE][0] is not runs[Party.BOB][0]
    assert got_walks == walked


def _markovian(n):
    return random_protocol(n, 4, all_tables(4), 0, advance=markovian_advance(2))


REP1 = CodeSpec.parse("rep:1")


@pytest.mark.parametrize("provider", [
    lambda n, rng: genie_provider(random_two_state_protocol(n, 1), NOISELESS, None, rng),
    lambda n, rng: run_lookahead_exchange(random_two_state_protocol(n, 1), NOISELESS, REP1, rng),
    lambda n, rng: exhaustive_lookahead(random_two_state_protocol(n, 1, advance=((0, 1), (1, 0))),
                                        NOISELESS, REP1, rng),
    lambda n, rng: tail_lookahead(_markovian(n), NOISELESS, REP1, rng, "last"),
    lambda n, rng: tail_lookahead(_markovian(n), NOISELESS, REP1, rng, "first"),
    lambda n, rng: tail_exhaustive_lookahead(_markovian(n), 1, "last", NOISELESS, REP1, rng),
    lambda n, rng: tail_exhaustive_lookahead(_markovian(n), 1, "first", NOISELESS, REP1, rng),
], ids=["genie", "two-state", "exhaustive-interactive", "m-state-last", "m-state-first",
        "tail-exhaustive-last", "tail-exhaustive-first"])
@pytest.mark.parametrize("n", [9, 10, 12])
def test_every_provider_rejects_a_protocol_off_its_grid(n, provider):
    message = "^protocol length must be a padded square with even side$"
    with pytest.raises(ValueError, match=message):
        provider(n, np.random.default_rng(0))
