"""Coincidence analysis, usefulness, tail length, the m-state scheme."""

import itertools
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icsim.channel import ChannelModel
from icsim.coding import CodeSpec, convey
from icsim.multistate import (
    CoincidenceCertificate,
    all_tables,
    balanced_tables,
    coincidence_bound,
    coincidence_failure_trials,
    coincidence_horizon,
    is_coinciding,
    is_useful,
    simulate_mstate,
    tail_exhaustive_lookahead,
    tail_length,
    tail_lookahead,
)
from icsim.protocol import (
    Party,
    markovian_advance,
    pad_protocol,
    party_view,
    random_protocol,
)
from icsim.vertical import LookaheadResult, genie_provider, grid_side, simulate_vertical

NOISELESS = ChannelModel("bsc", 0.0)
EXAMPLE2 = ((0, 1), (0, 2), (2, 2))
MARKOV2 = ((0, 1), (0, 1))
MARKOV4 = tuple((((s << 1) & 3), ((s << 1) & 3) | 1) for s in range(4))


def _replay(eta, start, bits):
    s = start
    for b in bits:
        s = eta[s][b]
    return s


def test_markov2_coincides_in_one_step():
    cert = is_coinciding(MARKOV2, 2)
    assert cert is not None and cert.K == 1
    (wa, wb), = cert.witnesses.values()
    assert _replay(MARKOV2, 0, wa) == _replay(MARKOV2, 1, wb)


def test_identity_advance_refused():
    assert is_coinciding(((0, 0), (1, 1)), 2) is None
    assert is_coinciding(((0, 0), (1, 1), (2, 2)), 3) is None


def test_example2_coincides_at_two():
    cert = is_coinciding(EXAMPLE2, 3)
    assert cert is not None and cert.K == 2
    assert set(cert.witnesses) == {(0, 1), (0, 2), (1, 2)}
    for (a, b), (wa, wb) in cert.witnesses.items():
        assert len(wa) <= 2 and len(wa) == len(wb)
        assert _replay(EXAMPLE2, a, wa) == _replay(EXAMPLE2, b, wb)


def test_certificates_replay_for_every_two_state_advance():
    for eta in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
        cert = is_coinciding(eta, 2)
        if cert is None:
            continue
        for (a, b), (wa, wb) in cert.witnesses.items():
            assert _replay(eta, a, wa) == _replay(eta, b, wb)


def _diagonal_reachable(eta, M):
    # independent oracle: transitive closure on the 2-component product graph
    size = M * M
    reach = np.eye(size, dtype=bool)
    step = np.zeros((size, size), dtype=bool)
    for u in range(M):
        for v in range(M):
            for a in (0, 1):
                for b in (0, 1):
                    step[u * M + v, eta[u][a] * M + eta[v][b]] = True
    for _ in range(size):
        new = reach | (reach @ step)
        if (new == reach).all():
            break
        reach = new
    diag = [d * M + d for d in range(M)]
    return all(reach[u * M + v, diag].any() for u in range(M) for v in range(u + 1, M))


def test_coincidence_complete_against_closure_oracle_m3():
    rows = list(itertools.product((0, 1, 2), repeat=2))
    for eta in itertools.product(rows, repeat=3):
        cert = is_coinciding(eta, 3)
        assert (cert is not None) == _diagonal_reachable(eta, 3)
        if cert is not None:
            assert cert.K <= 6
            for (a, b), (wa, wb) in cert.witnesses.items():
                assert _replay(eta, a, wa) == _replay(eta, b, wb)


def reference_coincidence_search(advance):
    """One forward BFS per state pair, moves in product order, stopping at
    the first pair of equal states: the lexicographically first shortest
    witness of every pair."""
    witnesses = {}
    for pair in itertools.combinations(range(len(advance)), 2):
        parent = {}
        frontier, seen, hit = [pair], {pair}, None
        while frontier and hit is None:
            nxt = []
            for node in frontier:
                u, v = node
                for a, b in itertools.product((0, 1), repeat=2):
                    child = (advance[u][a], advance[v][b])
                    if child in seen:
                        continue
                    seen.add(child)
                    parent[child] = (node, a, b)
                    if child[0] == child[1]:
                        hit = child
                        break
                    nxt.append(child)
                if hit:
                    break
            frontier = nxt
        if hit is None:
            return None
        left, right, node = [], [], hit
        while node != pair:
            node, a, b = parent[node]
            left.append(a)
            right.append(b)
        witnesses[pair] = (tuple(reversed(left)), tuple(reversed(right)))
    return CoincidenceCertificate(max(map(len, (w for w, _ in witnesses.values())), default=0),
                                  witnesses)


def test_coincidence_search_matches_per_pair_reference():
    rng = np.random.default_rng(14)
    verdicts = set()
    for M in range(2, 9):
        for _ in range(150):
            eta = tuple(map(tuple, rng.integers(0, M, size=(M, 2)).tolist()))
            want = reference_coincidence_search(eta)
            assert is_coinciding(eta, M) == want, eta
            verdicts.add(want is None)
    assert verdicts == {True, False}  # both coinciding and non-coinciding tables ran
    for log_M in range(1, 7):
        eta = markovian_advance(log_M)
        cert = is_coinciding(eta, 1 << log_M)
        assert cert == reference_coincidence_search(eta) and cert.K == log_M


def test_coincidence_horizon_is_the_certificate_k():
    rng = np.random.default_rng(15)
    for M in range(2, 9):
        for _ in range(50):
            eta = rng.integers(0, M, size=(M, 2)).tolist()
            cert = is_coinciding(eta, M)
            assert coincidence_horizon(eta, M) == (None if cert is None else cert.K), eta
    assert coincidence_horizon(markovian_advance(9), 512) == 9
    with pytest.raises(ValueError, match="at most 1024 states, not 2048"):
        coincidence_horizon(markovian_advance(11), 2048)


def test_coincidence_search_limits():
    assert is_coinciding(((0, 0),), 1) == CoincidenceCertificate(0, {})
    with pytest.raises(ValueError, match="at most 1024 states, not 2048"):
        is_coinciding(markovian_advance(11), 2048)


def test_usefulness_of_full_table_set():
    assert is_useful(all_tables(3), 3).useful


def test_usefulness_fails_for_constants():
    report = is_useful([(0, 0, 0), (1, 1, 1)], 3)
    assert not report.useful
    assert any(t != tp for (_, _, t, tp) in report.missing)
    assert ((0, 1, 0, 1) in report.missing) or ((0, 1, 1, 0) in report.missing)


def test_balanced_tables_m4_are_useful():
    tables = balanced_tables(4)
    assert len(tables) == 6
    assert all(sum(t) == 2 for t in tables)
    assert is_useful(tables, 4).useful


def test_usefulness_monotone_under_supersets():
    rng = np.random.default_rng(0)
    pool = all_tables(4)
    for _ in range(20):
        base = [pool[i] for i in rng.choice(len(pool), size=6, replace=False)]
        extra = [pool[i] for i in rng.choice(len(pool), size=4, replace=False)]
        if is_useful(base, 4).useful:
            assert is_useful(base + extra, 4).useful


def test_coincidence_bound_values():
    assert coincidence_bound(4, 16, 2, 0) == 1.0
    assert coincidence_bound(1, 4, 2, 0) == 0.0
    assert coincidence_bound(4, 16, 2, 256) == 1.0  # 3 e^{-1/2} clamps
    assert coincidence_bound(4, 6, 2, 1296) == pytest.approx(3 * math.exp(-18), rel=1e-12)
    with pytest.raises(ValueError):
        coincidence_bound(4, 6, 2, 1)
    with pytest.raises(ValueError):
        coincidence_bound(4, 6, 2, 5)


def test_tail_length_exactness():
    assert tail_length(1, 1) == 1
    assert tail_length(2, 1) == 2
    assert tail_length(81, 1) == 3
    assert tail_length(82, 1) == 4
    assert tail_length(4096, 1) == 8
    assert tail_length(6561, 1) == 9
    assert tail_length(6562, 1) == 10
    for n in range(1, 5000):
        r = tail_length(n, 1)
        assert r ** 4 >= n and (r - 1) ** 4 < n
    assert tail_length(10 ** 40, 1) == 10 ** 10  # exact beyond float precision
    assert tail_length(10 ** 40 + 1, 1) == 10 ** 10 + 1
    for bad in ((0, 1), (16, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            tail_length(*bad)


def test_tail_length_rounding_and_lookahead_checks():
    assert tail_length(4096, 2) == 8
    assert tail_length(4096, 3) == 9
    assert tail_length(16, 5) == 5  # longer than the 4-round blocks of n = 16
    p = random_protocol(16, 2, [(0, 1), (1, 0)], 0, advance=MARKOV2)
    rep1 = CodeSpec.parse("rep:1")
    for tail, placement, message in [(5, "last", "tail must be from 1 to 4 rounds, not 5"),
                                     (0, "first", "tail must be from 1 to 4 rounds, not 0"),
                                     (2, "middle", "placement must be one of")]:
        with pytest.raises(ValueError, match=message):
            tail_exhaustive_lookahead(p, tail, placement, NOISELESS, rep1,
                                      np.random.default_rng(0))


def test_failure_trials_extremes():
    # constants always merge a markovian window; pure flips never do
    assert coincidence_failure_trials(MARKOV2, [(0, 0)], 4, 50, 0) == 0
    assert coincidence_failure_trials(MARKOV2, [(0, 1)], 4, 50, 0) == 50


def test_failure_trials_deterministic():
    fset = balanced_tables(4)
    a = coincidence_failure_trials(MARKOV4, fset, 8, 500, 7)
    b = coincidence_failure_trials(MARKOV4, fset, 8, 500, 7)
    assert a == b


def test_tail_with_flushed_window_always_merges():
    # last two rounds constant: the 2-bit markovian window is fully forced
    rng = np.random.default_rng(2)
    fset = balanced_tables(4)
    n = 256
    m = grid_side(n)
    p = random_protocol(n, 4, fset, rng, advance=MARKOV4)
    tables = list(p.transmissions)
    for r in range(m):
        tables[r * m + m - 2] = (1, 1, 1, 1)
        tables[r * m + m - 1] = (0, 0, 0, 0)
    forced = type(p)(n=n, M=4, advance=MARKOV4, transmissions=tuple(tables))
    la = tail_exhaustive_lookahead(forced, tail_length(m * m, 2), "last", NOISELESS,
                                   CodeSpec.parse("rep:1"), np.random.default_rng(0))
    assert la.failure is None
    truth = genie_provider(forced, NOISELESS, None, None).alice_states
    assert la.alice_states == truth and la.bob_states == truth


def test_tail_failure_names_blocks():
    # identity advance never merges anything
    rng = np.random.default_rng(1)
    p = random_protocol(16, 2, [(0, 1), (1, 0)], rng, advance=((0, 0), (1, 1)))
    la = tail_exhaustive_lookahead(p, 2, "last", NOISELESS, CodeSpec.parse("rep:1"),
                                   np.random.default_rng(0))
    assert la.failure is not None and "block" in la.failure


def test_provider_matches_genie_when_merging():
    # M=2 so half of all tables are constants: a 6-round tail merges a block
    # with probability 63/64 and whole runs merge often enough to measure
    fset = [(0, 0), (0, 1), (1, 0), (1, 1)]
    merged = 0
    for seed in range(80):
        p = random_protocol(1024, 2, fset, seed, advance=MARKOV2)
        la = tail_exhaustive_lookahead(p, tail_length(1024, 1), "last", NOISELESS,
                                       CodeSpec.parse("rep:1"), np.random.default_rng(seed))
        if la.failure is not None:
            continue
        merged += 1
        truth = genie_provider(p, NOISELESS, None, None).alice_states
        assert la.alice_states == truth and la.bob_states == truth
    assert merged >= 32


def test_simulate_mstate_last_placement_end_to_end():
    fset = [(0, 0), (0, 1), (1, 0), (1, 1)]
    correct = attempted = 0
    for seed in range(40):
        p = random_protocol(1024, 2, fset, seed, advance=MARKOV2)
        rng = np.random.default_rng(seed)
        report = simulate_mstate(p, NOISELESS, CodeSpec.parse("rep:1"),
                                 CodeSpec.parse("rep:1"), "last", rng, seed=seed)
        assert report.scheme == "m-state-last"
        if report.coincidence_ok is not False:
            attempted += 1
            correct += report.correct
        else:
            assert report.lookahead_failure is not None
            assert not report.alice_correct and not report.bob_correct
    assert attempted >= 12 and correct == attempted


def test_simulate_mstate_first_placement_end_to_end():
    fset = [(0, 0), (0, 1), (1, 0), (1, 1)]
    correct = attempted = 0
    for seed in range(40):
        p = random_protocol(1024, 2, fset, seed, advance=MARKOV2)
        rng = np.random.default_rng(seed)
        report = simulate_mstate(p, NOISELESS, CodeSpec.parse("rep:1"),
                                 CodeSpec.parse("rep:1"), "first", rng, seed=seed)
        assert report.scheme == "m-state-first"
        if report.coincidence_ok:
            attempted += 1
            correct += report.correct
    assert attempted >= 12 and correct == attempted


def _force_tail_constants(p, m):
    # constants in the last two rounds of every block flush a 2-bit window
    tables = list(p.transmissions)
    for r in range(m):
        tables[r * m + m - 2] = (1,) * p.M
        tables[r * m + m - 1] = (0,) * p.M
    return type(p)(n=p.n, M=p.M, advance=p.advance, transmissions=tuple(tables))


def test_mstate_provider_plugs_into_vertical_engine():
    fset = balanced_tables(4)
    p = _force_tail_constants(random_protocol(4096, 4, fset, 3, advance=MARKOV4), 64)
    rng = np.random.default_rng(3)
    rep1 = CodeSpec.parse("rep:1")
    report = simulate_vertical(p, NOISELESS, rep1, partial(tail_lookahead, placement="last"),
                               rng, scheme="m-state-last", side=rep1)
    assert report.lookahead_failure is None
    assert report.correct
    assert report.tail_len == 8


@pytest.mark.parametrize("placement", ["last", "first"])
def test_mstate_refuses_non_coinciding_advance(placement):
    rng = np.random.default_rng(0)
    p = random_protocol(16, 2, [(0, 1), (1, 0)], rng, advance=((0, 0), (1, 1)))
    report = simulate_mstate(p, NOISELESS, CodeSpec.parse("rep:1"),
                             CodeSpec.parse("rep:1"), placement, np.random.default_rng(1))
    assert report.lookahead_failure == "advance function is not coinciding"
    assert report.channel_uses == 0 and report.column_errors == ()
    assert not report.correct


def test_mstate_side_information_accounting():
    fset = balanced_tables(4)
    p = _force_tail_constants(random_protocol(4096, 4, fset, 12, advance=MARKOV4), 64)
    rng = np.random.default_rng(12)
    report = simulate_mstate(p, NOISELESS, CodeSpec.parse("rep:1"),
                             CodeSpec.parse("rep:1"), "last", rng, seed=12)
    assert report.lookahead_failure is None
    # raw truth tables: 4 bits per own tail round, 4 such rounds, 64 blocks, 2 parties
    assert report.lookahead_bits == 2 * 64 * 4 * 4
    assert report.lookahead_bits <= 2 * 64 * math.ceil(8 / 2) * 4


@pytest.mark.parametrize("placement", ["last", "first"])
def test_mstate_tail_longer_than_block_fails_the_lookahead(placement):
    # n=1 is a single round; a K=2 tail needs two, so no tail fits
    rep1 = CodeSpec.parse("rep:1")
    p = random_protocol(1, 4, balanced_tables(4), 0, advance=MARKOV4)
    report = simulate_mstate(p, NOISELESS, rep1, rep1, placement, np.random.default_rng(0))
    assert "does not fit" in report.lookahead_failure
    assert report.channel_uses == 0 and report.column_errors == ()
    assert not report.alice_correct and not report.bob_correct
    assert report.coincidence_ok is False


# ---------------------------------------------------------------------------
# per-round reference loops for the vectorised tail exchange and walk

def reference_tail_exchange(pp, m, tail, placement, ch, side_code, rng):
    """Raw tail tables sent one round at a time; per party, each block's
    list of tail tables (own exact, counterpart's as decoded), plus the
    payload length and channel uses of each transfer."""
    M = pp.M
    parties = (Party.ALICE, Party.BOB)
    views = {q: party_view(pp, q) for q in parties}

    def own(q, i):
        """Party q's table of round i: row (i - 1) // 2 of its view."""
        return tuple(views[q][(i - 1) // 2].tolist())

    positions = (list(range(m - tail + 1, m + 1)) if placement == "last"
                 else list(range(1, tail + 1)))
    own_pos = {q: [t for t in positions if t % 2 == q.parity] for q in parties}
    sent = []
    heard = {}
    for k, sender in enumerate(parties):
        payload = [b for r in range(m) for t in own_pos[sender]
                   for b in own(sender, r * m + t)]
        transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 5 + k)
        sent.append((len(payload), transfer.channel_uses))
        slots = [(r, t) for r in range(m) for t in own_pos[sender]]
        heard[sender.other] = {rt: tuple(transfer.bits[i * M:(i + 1) * M].tolist())
                               for i, rt in enumerate(slots)}
    tails = {q: [[own(q, r * m + t) if t % 2 == q.parity else heard[q][(r, t)]
                  for t in positions] for r in range(m)] for q in parties}
    return tails, sent


def assert_side_ledger(la, sent):
    """``la`` made the reference's side transfers: each one's payload length
    and channel uses, and their totals."""
    assert [(t.bits.size, t.channel_uses) for t in la.transfers] == sent
    assert (la.bits_used, sum(t.channel_uses for t in la.transfers)) == \
        (sum(bits for bits, _ in sent), sum(uses for _, uses in sent))


def reference_tail_walk(p, tails, blocks):
    """Every block's M trajectories walked one block at a time."""
    finals, bad = {}, set()
    for q, per_block in tails.items():
        finals[q] = []
        for r in range(blocks):
            ends = []
            for s in range(p.M):
                for table in per_block[r]:
                    s = p.advance[s][table[s]]
                ends.append(s)
            if len(set(ends)) > 1:
                bad.add(r)
            finals[q].append(ends[0])
    return finals, bad


@st.composite
def tail_cases(draw):
    """A padded protocol with a coinciding markovian advance, or a random
    advance (non-coinciding ones run with K = 1), and a tail that fits."""
    n = draw(st.integers(1, 1100))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        log_M = draw(st.integers(1, 3))
        M, advance = 1 << log_M, markovian_advance(log_M)
    else:
        M = draw(st.integers(2, 6))
        advance = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
                                min_size=M, max_size=M))
    m = grid_side(n)
    p = pad_protocol(random_protocol(n, M, all_tables(M), seed, advance=advance,
                                     initial_state=draw(st.integers(0, M - 1))),
                     m * m)
    cert = is_coinciding(p.advance, M)
    K = max(1, cert.K) if cert else 1
    tail = tail_length(m * m, K)
    assume(tail <= m)
    return m, p, tail, seed


@settings(max_examples=60)
@given(case=tail_cases(), channel=st.sampled_from(["bsc:0.05", "bec:0.1"]),
       side=st.sampled_from(["rep:1", "rep:3", "rlc:2"]))
def test_tail_lookaheads_match_per_round_reference(case, channel, side):
    m, p, tail, seed = case
    ch, code = ChannelModel.parse(channel), CodeSpec.parse(side)

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = tail_exhaustive_lookahead(p, tail, "last", ch, code, rng)
    tails, sent = reference_tail_exchange(p, m, tail, "last", ch, code, ref_rng)
    finals, bad = reference_tail_walk(p, tails, m - 1)
    failure = f"trajectories did not merge in blocks {sorted(bad)}" if bad else None
    assert replace(got, transfers=()) == LookaheadResult(
        (p.initial_state, *finals[Party.ALICE]), (p.initial_state, *finals[Party.BOB]),
        failure=failure, tail_len=tail)
    assert_side_ledger(got, sent)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = tail_exhaustive_lookahead(p, tail, "first", ch, code, rng)
    tails, sent = reference_tail_exchange(p, m, tail, "first", ch, code, ref_rng)
    _, bad = reference_tail_walk(p, tails, m)
    assert_side_ledger(got, sent)
    if bad:
        want = LookaheadResult((), (),
                               failure=f"trajectories did not merge in blocks {sorted(bad)}",
                               tail_len=tail)
        assert replace(got, transfers=()) == want
    else:
        want = LookaheadResult((), (), tail_len=tail, coincidence_ok=True)
        assert replace(got, wire=None, transfers=()) == want
        # tail column t is read by Bob for odd t, by Alice for even t
        heard = [np.array(tails[Party.BOB if t % 2 else Party.ALICE])[:, t - 1]
                 for t in range(1, tail + 1)]
        assert np.array_equal(got.wire.heard, np.array(heard).ravel())
    assert rng.bit_generator.state == ref_rng.bit_generator.state
