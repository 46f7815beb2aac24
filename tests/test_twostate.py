"""Two-state machinery: the composites and parity fold of the lookahead
exchange, taxonomy, the exhaustive alternative."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icsim.twostate as ts
from icsim.channel import ChannelModel
from icsim.coding import CodeSpec
from icsim.coding import convey
from icsim.protocol import (
    FiniteStateProtocol,
    Party,
    pad_protocol,
    party_view,
    run_protocol,
)
from icsim.twostate import (
    ALL_TABLES2,
    all_two_state_advances,
    classify_advance,
    exhaustive_lookahead,
    exhaustive_two_state,
    random_two_state_protocol,
    run_exhaustive_block,
    run_lookahead_exchange,
    simulate_two_state,
)
from icsim.vertical import LookaheadResult, accounting, exchange, genie_provider, grid_side

NOISELESS = ChannelModel("bsc", 0.0)
FOLLOW = ((0, 1), (0, 1))          # eta(s, tau) = tau
AND = ((0, 0), (0, 1))             # eta(s, tau) = s and tau
NAND = ((1, 1), (1, 0))            # eta(s, tau) = 1 xor (s and tau)
PARTIES = (Party.ALICE, Party.BOB)
INTERACTIVE = tuple(e for e in all_two_state_advances() if classify_advance(e).interactive)


def _composites(p):
    """(constant, value) of every round of ``p``, as the lookahead reads them:
    one row of n rounds, whose slots are its rounds in order."""
    codes = ts._stacked_composites(p.tables.reshape(1, p.n, 2), p.advance).swapaxes(1, 2)
    return [(c >= 2, c & 1) for c in codes.ravel().tolist()][:p.n]


def test_composite_identity():
    p = FiniteStateProtocol(n=1, M=2, advance=FOLLOW, transmissions=((0, 1),))
    assert _composites(p) == [(False, 0)]


def test_composite_constant():
    p = FiniteStateProtocol(n=1, M=2, advance=FOLLOW, transmissions=((1, 1),))
    assert _composites(p) == [(True, 1)]


def test_composite_nand_of_ones_flips():
    p = FiniteStateProtocol(n=1, M=2, advance=NAND, transmissions=((1, 1),))
    assert _composites(p) == [(False, 1)]


def test_composite_requires_two_states():
    p = FiniteStateProtocol(n=1, M=3, advance=((0, 1), (0, 2), (2, 2)),
                            transmissions=((0, 0, 0),))
    with pytest.raises(ValueError, match="two-state"):
        run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), np.random.default_rng(0))


def test_composite_covers_all_four_maps():
    p = FiniteStateProtocol(n=4, M=2, advance=FOLLOW, transmissions=ALL_TABLES2)
    assert sorted(_composites(p)) == [(False, 0), (False, 1), (True, 0), (True, 1)]


def _iterated_starts(eta, blocks, s):
    """Each block's entry state, by iterating the advance round by round."""
    starts = []
    for tables in blocks:
        starts.append(s)
        s = _direct_block(eta, tables, s)[1]
    return tuple(starts)


def _block_run(monkeypatch, block, entry):
    """Noiseless parity exchange over a 4x4 FOLLOW grid whose rows all hold
    ``block``, entered in state ``entry``: the agreed block starts, and the
    payloads of the two exchanges as sent."""
    sent = []
    monkeypatch.setattr(ts, "exchange", lambda payloads, *a, **kw:
                        sent.append(payloads) or exchange(payloads, *a, **kw))
    p = FiniteStateProtocol(n=16, M=2, advance=FOLLOW, transmissions=block * 4,
                            initial_state=entry)
    la = run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), np.random.default_rng(0))
    assert la.alice_states == la.bob_states == _iterated_starts(FOLLOW, [block] * 4, entry)
    return la.alice_states, sent


def _last_const_indices(first):
    """Row 0's last-constant index per party, decoded from the first exchange."""
    _, _, _, _, decode, _, _ = ts._slots(4)  # decode[2e + p]: the round of party p's index e
    return [int(decode[2 * _ref_bits_to_int(first[q][0, :-1]) + k]) for k, q in enumerate(PARTIES)]


def test_block_lookahead_worked_example(monkeypatch):
    block = ((1, 0), (0, 0), (1, 0), (0, 1))  # Flip(1), Const(0), Flip(1), Flip(0)
    for entry in (0, 1):
        starts, (first, second) = _block_run(monkeypatch, block, entry)
        assert _last_const_indices(first) == [0, 2]
        assert first[Party.BOB][0, -1] == 0
        assert [second[q][0] for q in PARTIES] == [1, 0]
        assert starts[1] == 1


def test_block_lookahead_pure_flip_zero_block(monkeypatch):
    for entry in (0, 1):
        starts, _ = _block_run(monkeypatch, ((0, 1),) * 4, entry)
        assert starts[1] == entry


def test_block_lookahead_constant_everywhere(monkeypatch):
    for entry in (0, 1):
        starts, _ = _block_run(monkeypatch, ((1, 1),) * 4, entry)
        assert starts[1] == 1


def test_lookahead_algebra_exhaustive_m4():
    # under FOLLOW the four tables are the four composites; each 4x4 grid
    # stacks four of the 256 sequences, entered from both initial states
    blocks = list(itertools.product(ALL_TABLES2, repeat=4))
    side, rng = CodeSpec.parse("rep:1"), np.random.default_rng(0)
    for g in range(0, len(blocks), 4):
        grid = blocks[g: g + 4]
        for entry in (0, 1):
            p = FiniteStateProtocol(n=16, M=2, advance=FOLLOW, initial_state=entry,
                                    transmissions=[t for block in grid for t in block])
            la = run_lookahead_exchange(p, NOISELESS, side, rng)
            assert la.alice_states == la.bob_states == _iterated_starts(FOLLOW, grid, entry)


def test_message_indices_respect_party_parity(monkeypatch):
    block = ((1, 1), (0, 1), (0, 0), (1, 0))  # Const(1), Flip(0), Const(0), Flip(1)
    _, (first, _) = _block_run(monkeypatch, block, 0)
    alice, bob = _last_const_indices(first)
    assert alice % 2 == 1
    assert bob in (0, 2, 4)
    assert (alice, bob) == (3, 0)


def test_exchange_matches_genie_on_many_protocols():
    side = CodeSpec.parse("rep:1")
    for seed in range(60):
        p = random_two_state_protocol(256, seed=seed)
        pp = pad_protocol(p, grid_side(256) ** 2)
        rng = np.random.default_rng(seed)
        la = run_lookahead_exchange(pp, ch=NOISELESS, side_code=side, rng=rng)
        truth = genie_provider(pp, NOISELESS, None, None).alice_states
        assert la.alice_states == truth
        assert la.bob_states == truth
        assert la.failure is None


def test_exchange_bit_budget():
    m = grid_side(4096)
    p = pad_protocol(random_two_state_protocol(4096, seed=1), m * m)
    rng = np.random.default_rng(0)
    la = run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), rng)
    per_block = 2 * (int(np.ceil(np.log2(m + 1))) + 2)
    assert la.bits_used <= per_block * m
    assert la.bits_used == 1024  # 6+1 bits phase one + 1 bit phase two, per party per block


def test_exchange_all_constant_tables_reports_late_indices():
    # every composite constant: Alice's last own index is m-1, Bob's is m
    n = 64
    tables = tuple(((0, 0) if i % 3 else (1, 1)) for i in range(n))
    p = FiniteStateProtocol(n=n, M=2, advance=FOLLOW, transmissions=tables)
    rng = np.random.default_rng(3)
    la = run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), rng)
    truth = genie_provider(p, NOISELESS, None, None).alice_states
    assert la.alice_states == truth


def test_classify_follow_is_type_i():
    assert classify_advance(FOLLOW).category == "type-i"


def test_classify_and_is_type_ii():
    assert classify_advance(AND).category == "type-ii"


def test_classify_identity_is_non_interactive():
    cls = classify_advance(((0, 0), (1, 1)))
    assert cls.category == "non-interactive"
    assert not cls.interactive
    assert cls.constant_making == ()


def test_classification_partitions_all_sixteen():
    counts = {"non-interactive": 0, "type-i": 0, "type-ii": 0, "type-iii": 0}
    for eta in all_two_state_advances():
        cls = classify_advance(eta)
        counts[cls.category] += 1
        if cls.interactive:
            assert len(cls.constant_making) == 2
            assert len(cls.free_tables) == 2
            for table in cls.constant_making:
                assert _composites(FiniteStateProtocol(1, 2, eta, (table,)))[0][0]
            for table in cls.free_tables:
                assert not _composites(FiniteStateProtocol(1, 2, eta, (table,)))[0][0]
    assert counts == {"non-interactive": 4, "type-i": 4, "type-ii": 4, "type-iii": 4}


def _agreed(runs):
    """Alice's (transcripts, finals) of a block stack, after checking that
    Bob reconstructed the same."""
    (bits_a, finals_a), (bits_b, finals_b) = runs[Party.ALICE], runs[Party.BOB]
    assert np.array_equal(bits_a, bits_b) and np.array_equal(finals_a, finals_b)
    return bits_a, finals_a


def test_exhaustive_block_immediate_merge():
    # constant-making table in round 1 merges both branches right away
    tables = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bits, finals = _agreed(run_exhaustive_block(FOLLOW, [tables])[0])
    assert np.array_equal(bits[0, 0, 1:], bits[0, 1, 1:])
    truth0 = _direct_block(FOLLOW, tables, 0)
    assert tuple(bits[0, 0].tolist()) == truth0[0] and finals[0, 0] == truth0[1]


def test_exhaustive_block_no_constant_stays_complementary():
    # flip-only tables: branches never merge but both transcripts are right
    eta = FOLLOW
    tables = [(0, 1), (1, 0), (0, 1), (1, 0)]
    bits, finals = _agreed(run_exhaustive_block(eta, [tables])[0])
    for s0 in (0, 1):
        truth, final = _direct_block(eta, tables, s0)
        assert tuple(bits[0, s0].tolist()) == truth
        assert finals[0, s0] == final


def test_block_core_and_trials_share_one_merge_point_exchange(monkeypatch):
    # criterion 3's block core checks the exchange the trials run, not a copy
    grids = []
    merge_points = ts._merge_points
    monkeypatch.setattr(ts, "_merge_points",
                        lambda tables, *rest: grids.append(tables.shape) or
                        merge_points(tables, *rest))
    run_exhaustive_block(FOLLOW, [[(0, 1)] * 3] * 5)
    p = random_two_state_protocol(16, seed=0, advance=FOLLOW)
    rep1 = CodeSpec.parse("rep:1")
    assert exhaustive_two_state(p, NOISELESS, rep1, rep1, np.random.default_rng(0)).correct
    assert grids == [(5, 3, 2), (4, 4, 2)]


def test_exhaustive_block_rejects_non_interactive():
    with pytest.raises(ValueError):
        run_exhaustive_block(((0, 0), (1, 1)), [[(0, 1)] * 4])
    with pytest.raises(ValueError, match="stack"):
        run_exhaustive_block(FOLLOW, [(0, 1)] * 4)  # one block, not a stack of them


def _direct_block(eta, tables, s0):
    s = s0
    bits = []
    for table in tables:
        tau = table[s]
        bits.append(tau)
        s = eta[s][tau]
    return tuple(bits), s


def test_exhaustive_block_exhaustive_m3():
    blocks = list(itertools.product(ALL_TABLES2, repeat=3))
    for eta in INTERACTIVE:
        bits, finals = _agreed(run_exhaustive_block(eta, blocks)[0])
        for b, tables in enumerate(blocks):
            for s0 in (0, 1):
                truth, final = _direct_block(eta, tables, s0)
                assert tuple(bits[b, s0].tolist()) == truth
                assert finals[b, s0] == final


def test_exhaustive_end_to_end_noiseless_matches_oracle():
    code = CodeSpec.parse("rep:1")
    for seed in range(60):
        p = random_two_state_protocol(256, seed=seed)
        rng = np.random.default_rng(seed)
        report = exhaustive_two_state(p, NOISELESS, code, code, rng, seed=seed)
        assert report.correct, f"seed {seed}"
        assert accounting(report).passed


def test_exhaustive_non_interactive_direct_path():
    tables = tuple(ALL_TABLES2[i] for i in np.random.default_rng(5).integers(0, 4, 64))
    p = FiniteStateProtocol(n=64, M=2, advance=((1, 1), (0, 0)),
                            transmissions=tables, initial_state=0)
    rng = np.random.default_rng(0)
    report = exhaustive_two_state(p, NOISELESS, CodeSpec.parse("rep:1"),
                                  CodeSpec.parse("rep:1"), rng)
    assert report.correct
    assert report.lookahead_bits == 0


def test_two_state_scheme_end_to_end_noiseless():
    code = CodeSpec.parse("rep:1")
    for seed in range(40):
        p = random_two_state_protocol(144, seed=seed)
        rng = np.random.default_rng(seed)
        report = simulate_two_state(p, NOISELESS, code, code, rng, seed=seed)
        assert report.correct, f"seed {seed}"
        assert report.scheme == "two-state"


def test_two_state_scheme_survives_moderate_noise_with_strong_codes():
    ch = ChannelModel("bsc", 0.01)
    vertical = CodeSpec.parse("rep:9")
    side = CodeSpec.parse("rep:9")
    good = 0
    for seed in range(20):
        p = random_two_state_protocol(256, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        report = simulate_two_state(p, ch, vertical, side, rng, seed=seed)
        good += report.correct
    assert good >= 18


def test_random_two_state_protocol_determinism_and_shape():
    a = random_two_state_protocol(50, seed=9)
    b = random_two_state_protocol(50, seed=9)
    assert a == b and a.M == 2 and a.n == 50
    forced = random_two_state_protocol(50, seed=9, advance=AND)
    assert forced.advance == AND


# ---------------------------------------------------------------------------
# per-round reference loops for the vectorised lookaheads

def _ref_int_to_bits(x, width):
    return [(x >> (width - 1 - k)) & 1 for k in range(width)]


def _ref_bits_to_int(bits):
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _ref_width(m, party):
    return ((m + party.parity) // 2).bit_length()


def _ref_decode_index(e, m, party):
    if e <= 0 or e > (m + party.parity) // 2:
        return 0
    return 2 * e - 1 if party is Party.ALICE else 2 * e


def _ref_composites(p, party, m, block):
    """One party's composites of one block as (constant, value) pairs, keyed
    by block-local index: a round is constant where both states advance to
    the same state, and its value is the state 0 advances to."""
    view = party_view(p, party)
    out = {}
    for t in range(2 - party.parity, m + 1, 2):
        nu0, nu1 = (p.advance[s][view[(block * m + t - 1) // 2][s]] for s in (0, 1))
        out[t] = (nu0 == nu1, nu0)
    return out


def reference_lookahead_exchange(p, ch, side_code, rng):
    """The parity exchange one block and one round at a time."""
    m = math.isqrt(p.n)
    parties = (Party.ALICE, Party.BOB)
    composites = {q: [_ref_composites(p, q, m, r) for r in range(m)] for q in parties}
    own_last = {}
    for q in parties:
        own_last[q] = []
        for nus in composites[q]:
            t_last, val = 0, 0
            for t, (constant, value) in sorted(nus.items()):
                if constant:
                    t_last, val = t, value
            own_last[q].append((t_last, val))
    sent = []
    heard1 = {}
    for k, sender in enumerate(parties):
        width = _ref_width(m, sender)
        payload = [b for t, v in own_last[sender]
                   for b in (*_ref_int_to_bits((t + 1) // 2, width), v)]
        transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 1 + k)
        sent.append((len(payload), transfer.channel_uses))
        chunks = [transfer.bits[r * (width + 1):(r + 1) * (width + 1)].tolist() for r in range(m)]
        heard1[sender.other] = [(_ref_decode_index(_ref_bits_to_int(c[:-1]), m, sender), c[-1])
                                for c in chunks]
    parities = {}
    for q in parties:
        parities[q] = []
        for r in range(m):
            i_const = max(own_last[q][r][0], heard1[q][r][0])
            d = 0
            for t, (_, value) in composites[q][r].items():
                if t > i_const:
                    d ^= value
            parities[q].append(d)
    heard2 = {}
    for k, sender in enumerate(parties):
        transfer = convey(side_code, parities[sender], ch, rng, matrix_seed=m + 3 + k)
        sent.append((m, transfer.channel_uses))
        heard2[sender.other] = transfer.bits.tolist()

    def fold(q):
        # a block ends in the value of the later of the two last constants
        # (its entry state when neither party has one), xored with both
        # parties' parities
        vec, s = [], p.initial_state
        for r in range(m):
            vec.append(s)
            (t_own, v_own), (t_heard, v_heard) = own_last[q][r], heard1[q][r]
            if max(t_own, t_heard):
                s = v_own if t_own > t_heard else v_heard
            s ^= parities[q][r] ^ heard2[q][r]
        return tuple(vec)

    return LookaheadResult(fold(Party.ALICE), fold(Party.BOB)), sent


def reference_merge_points(p, ch, side_code, rng):
    """The exhaustive scheme's first-constant exchange, one block at a time:
    each party's believed merge point per block, plus the payload length and
    channel uses of each transfer."""
    m = math.isqrt(p.n)
    parties = (Party.ALICE, Party.BOB)
    own_first = {q: [min((t for t, (constant, _) in _ref_composites(p, q, m, r).items()
                          if constant), default=0) for r in range(m)] for q in parties}
    sent = []
    heard = {}
    for k, sender in enumerate(parties):
        w = _ref_width(m, sender)
        payload = [b for t in own_first[sender] for b in _ref_int_to_bits((t + 1) // 2, w)]
        transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 1 + k)
        sent.append((len(payload), transfer.channel_uses))
        heard[sender.other] = [
            _ref_decode_index(_ref_bits_to_int(transfer.bits[r * w:(r + 1) * w]), m, sender)
            for r in range(m)]
    beliefs = {q: [min([t for t in (own_first[q][r], heard[q][r]) if t], default=m + 1)
                   for r in range(m)] for q in parties}
    return beliefs, sent


def assert_side_ledger(la, sent):
    """``la`` made the reference's side transfers: each one's payload length
    and channel uses, and their totals."""
    assert [(t.bits.size, t.channel_uses) for t in la.transfers] == sent
    assert (la.bits_used, sum(t.channel_uses for t in la.transfers)) == \
        (sum(bits for bits, _ in sent), sum(uses for _, uses in sent))


def _noisy_two_state(n, seed, interactive):
    m = grid_side(n)
    advance = None
    if interactive:
        advance = INTERACTIVE[seed % len(INTERACTIVE)]
    return pad_protocol(random_two_state_protocol(n, seed, advance=advance), m * m)


NOISY = st.sampled_from(["bsc:0.05", "bec:0.1"])
SIDE = st.sampled_from(["rep:1", "rep:3", "rlc:2"])


def check_lookahead_exchange(p, channel, side, seed):
    """The parity exchange on ``p`` equals the per-round reference: the
    same beliefs, side ledger and rng end state. Returns the payload sizes."""
    ch, code = ChannelModel.parse(channel), CodeSpec.parse(side)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_lookahead_exchange(p, ch, code, rng)
    want, sent = reference_lookahead_exchange(p, ch, code, ref_rng)
    assert replace(got, transfers=()) == want
    assert_side_ledger(got, sent)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return [bits for bits, _ in sent]


def check_merge_points(p, channel, side, seed):
    """The exhaustive lookahead on ``p`` equals the per-round merge-point
    reference: the same phases, side ledger and rng end state. Returns the
    payload sizes."""
    m = math.isqrt(p.n)
    ch, code = ChannelModel.parse(channel), CodeSpec.parse(side)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = exhaustive_lookahead(p, ch, code, rng)
    beliefs, sent = reference_merge_points(p, ch, code, ref_rng)
    assert replace(got, wire=None, transfers=()) == LookaheadResult((), ())
    assert_side_ledger(got, sent)
    cols = np.arange(1, m + 1)
    for k, q in enumerate(PARTIES):
        want = np.sign(cols - np.array(beliefs[q])[:, None]) + 1
        assert np.array_equal(got.wire.phase[k], want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return [bits for bits, _ in sent]


@settings(max_examples=60)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1), channel=NOISY, side=SIDE)
def test_lookahead_exchange_matches_per_round_reference(n, seed, channel, side):
    check_lookahead_exchange(_noisy_two_state(n, seed, interactive=False), channel, side, seed)


@settings(max_examples=60)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1), channel=NOISY, side=SIDE)
def test_exhaustive_merge_points_match_per_round_reference(n, seed, channel, side):
    check_merge_points(_noisy_two_state(n, seed, interactive=True), channel, side, seed)


# the smallest grids, m = 1 (n = 1) and m = 2 (n = 2..4): Alice owns the only
# round of m = 1, and Bob's reports there carry no index bits
SMALL_GRIDS = [(n, side) for n in (1, 2, 3, 4) for side in ("rep:1", "rlc:2")]


@pytest.mark.parametrize("n, side", SMALL_GRIDS)
def test_lookahead_exchange_matches_reference_on_the_smallest_grids(n, side):
    m = grid_side(n)
    for seed, advance in enumerate(all_two_state_advances()):
        p = pad_protocol(random_two_state_protocol(n, seed, advance=advance), m * m)
        assert check_lookahead_exchange(p, "bsc:0.3", side, seed) == \
            {1: [2, 1, 1, 1], 2: [4, 4, 2, 2]}[m]


@pytest.mark.parametrize("n, side", SMALL_GRIDS)
def test_merge_points_match_reference_on_the_smallest_grids(n, side):
    m = grid_side(n)
    for seed, advance in enumerate(INTERACTIVE):
        p = pad_protocol(random_two_state_protocol(n, seed, advance=advance), m * m)
        assert check_merge_points(p, "bsc:0.3", side, seed) == {1: [1, 0], 2: [2, 2]}[m]
