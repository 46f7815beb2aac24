"""Vertical simulation: scheduling, the genie, the column loop, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icsim.vertical
from icsim.channel import ChannelModel
from icsim.coding import CodeSpec
from icsim.harness import ExperimentConfig, run_trial
from icsim.protocol import (
    FiniteStateProtocol,
    Party,
    make_markovian,
    random_protocol,
    run_protocol,
)
from icsim.twostate import random_two_state_protocol
from icsim.vertical import (
    LookaheadResult,
    _correct,
    accounting,
    genie_lookahead,
    genie_provider,
    make_schedule,
    simulate_vertical,
)

NOISELESS = ChannelModel.bsc(0.0)
FOLLOW2 = ((0, 1), (0, 1))


def test_schedule_exact_square():
    sched = make_schedule(16)
    assert (sched.n_padded, sched.m, sched.rows) == (16, 4, 4)


def test_schedule_single_round():
    sched = make_schedule(1)
    assert (sched.n_padded, sched.m) == (1, 1)


def test_schedule_pads_up():
    sched = make_schedule(10)
    assert (sched.n_padded, sched.m) == (16, 4)


def test_schedule_keeps_column_ownership_single_party():
    # rounds r*m + j must share j's parity, which forces an even side
    for n in (2, 5, 9, 50, 100, 4096):
        sched = make_schedule(n)
        assert sched.n_padded >= n
        assert sched.m == 1 or sched.m % 2 == 0
        assert sched.m * sched.m == sched.n_padded
    with pytest.raises(ValueError):
        make_schedule(0)


def test_genie_identity_advance_repeats_start():
    p = FiniteStateProtocol(n=16, M=2, advance=((0, 0), (1, 1)),
                            transmissions=((0, 1),) * 16, initial_state=1)
    alice, bob = genie_lookahead(p)
    assert alice == (1, 1, 1, 1) and bob == alice


def test_genie_reads_block_boundaries_off_the_trace():
    p = random_two_state_protocol(16, seed=3)
    trace = run_protocol(p)
    alice, bob = genie_lookahead(p)
    assert alice == tuple(trace.states[j] for j in (0, 4, 8, 12))
    assert alice == bob


def _count_protocol_runs(monkeypatch) -> list[int]:
    """Record the length of every protocol ``icsim.vertical`` runs."""
    calls = []
    monkeypatch.setattr(icsim.vertical, "run_protocol",
                        lambda pp: calls.append(pp.n) or run_protocol(pp))
    return calls


def test_genie_trial_runs_the_protocol_once(monkeypatch):
    calls = _count_protocol_runs(monkeypatch)
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0.02", code="rep:3")
    for trial in range(3):
        calls.clear()
        report = run_trial(cfg, 100, trial)
        assert calls == [report.n_padded]


def test_genie_rejects_unpadded_lengths():
    p = random_two_state_protocol(10, seed=0)
    with pytest.raises(ValueError):
        genie_lookahead(p)


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
    ch = ChannelModel.bsc(0.3)
    p = random_two_state_protocol(64, seed=1)
    rng = np.random.default_rng(4)
    report = simulate_vertical(p, ch, CodeSpec.parse("oracle:0.9"),
                               genie_provider, rng, seed=4)
    assert all(report.column_errors)
    assert not report.correct


def test_lookahead_failure_aborts_without_guessing():
    def broken_provider(pp, ch, side, rng):
        return LookaheadResult((), (), 12, 30, failure="no merge in block 2")

    p = random_two_state_protocol(16, seed=2)
    rng = np.random.default_rng(0)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:1"),
                               broken_provider, rng, scheme="two-state")
    assert report.lookahead_failure == "no merge in block 2"
    assert not report.alice_correct and not report.bob_correct
    assert report.channel_uses == 30
    assert report.lookahead_bits == 12


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


def test_accounting_exact_split():
    def costly_provider(pp, ch, side, rng):
        states, _ = genie_lookahead(pp)
        return LookaheadResult(states, states, 40, 100)

    p = random_two_state_protocol(64, seed=3)
    rng = np.random.default_rng(2)
    report = simulate_vertical(p, ChannelModel.bsc(0.05), CodeSpec.parse("oracle:0.3"),
                               costly_provider, rng, scheme="two-state")
    assert report.channel_uses == report.vertical_uses + report.lookahead_uses
    assert report.lookahead_uses == 100
    assert report.vertical_uses == 8 * int(np.ceil(8 / 0.3))


def test_noisy_decode_errors_show_up_per_column():
    ch = ChannelModel.bsc(0.05)
    sched = make_schedule(256)
    p = random_two_state_protocol(256, seed=11)
    failures = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        report = simulate_vertical(p, ch, CodeSpec.parse("rep:1"), genie_provider,
                                   rng, seed=seed)
        assert len(report.column_errors) == sched.m
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
        states = list(genie_lookahead(pp, run_protocol(pp))[0])
        states[2] ^= 1
        return LookaheadResult(tuple(states), tuple(states), 0, 0)

    calls = _count_protocol_runs(monkeypatch)
    report = simulate_vertical(p, NOISELESS, CodeSpec.parse("rep:1"), one_wrong_start,
                               np.random.default_rng(0))
    assert calls == [36]
    assert (report.alice_correct, report.bob_correct) == (correct, correct)


@st.composite
def column_runs(draw):
    """A protocol on an m x m grid and, per party, row starts, the bits of
    every branch and the finals they drive to, as ``run_columns`` returns
    them, with flipped bits and wrong row starts mixed in."""
    M, m = draw(st.integers(2, 5)), draw(st.sampled_from([1, 2, 4, 6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    advance = rng.integers(0, M, size=(M, 2))
    p = FiniteStateProtocol(n=m * m, M=M, advance=advance,
                            transmissions=rng.integers(0, 2, size=(m * m, M)),
                            initial_state=draw(st.integers(0, M - 1)))
    branches = draw(st.sampled_from([1, M]))
    flip, wrong_start = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])), draw(st.booleans())
    row_starts = np.array(run_protocol(p).states[:-1:m])
    runs, starts = {}, {}
    for q in (Party.ALICE, Party.BOB):
        if branches > 1:
            start = np.tile(np.arange(M), (m, 1))
        else:
            start = row_starts[:, None].copy()
            if wrong_start:
                start[rng.integers(m), 0] = rng.integers(M)
        bits = np.empty((m, m, branches), dtype=np.intp)
        finals = start.copy()
        for j in range(m):
            tau = p.tables[np.arange(m) * m + j][np.arange(m)[:, None], finals]
            bits[j] = tau ^ (rng.random(tau.shape) < flip)
            finals = advance[finals, bits[j]]
        runs[q], starts[q] = (bits, finals), start
    return p, runs, starts


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
    p, runs, starts = case
    truth = run_protocol(p).bits
    assert _correct(p, runs, starts, None) == \
        {q: _reference_transcript(*runs[q], p.initial_state) == truth for q in runs}
