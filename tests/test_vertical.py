"""Vertical simulation: scheduling, the genie, the column loop, accounting."""

import numpy as np
import pytest

from icsim.channel import ChannelModel
from icsim.coding import CodeSpec
from icsim.protocol import (
    FiniteStateProtocol,
    make_markovian,
    random_protocol,
    run_protocol,
)
from icsim.twostate import random_two_state_protocol
from icsim.vertical import (
    LookaheadResult,
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
