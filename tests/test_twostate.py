"""Two-state machinery: composite algebra, the parity fold, taxonomy,
the exhaustive alternative."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    BlockLookaheadMessage,
    CompositeFunction,
    all_two_state_advances,
    block_lookahead,
    block_messages,
    classify_advance,
    composite_from,
    composite_of,
    exhaustive_lookahead,
    exhaustive_two_state,
    interactive_two_state_advances,
    iterate_composites,
    random_two_state_protocol,
    run_exhaustive_block,
    run_lookahead_exchange,
    simulate_two_state,
)
from icsim.vertical import LookaheadResult, accounting, genie_lookahead, make_schedule

NOISELESS = ChannelModel.bsc(0.0)
FOLLOW = ((0, 1), (0, 1))          # eta(s, tau) = tau
AND = ((0, 0), (0, 1))             # eta(s, tau) = s and tau
NAND = ((1, 1), (1, 0))            # eta(s, tau) = 1 xor (s and tau)


def test_composite_identity():
    p = FiniteStateProtocol(n=1, M=2, advance=FOLLOW, transmissions=((0, 1),))
    assert composite_of(p, 1) == CompositeFunction.flip(0)


def test_composite_constant():
    p = FiniteStateProtocol(n=1, M=2, advance=FOLLOW, transmissions=((1, 1),))
    assert composite_of(p, 1) == CompositeFunction.const(1)


def test_composite_nand_of_ones_flips():
    p = FiniteStateProtocol(n=1, M=2, advance=NAND, transmissions=((1, 1),))
    assert composite_of(p, 1) == CompositeFunction.flip(1)


def test_composite_requires_two_states():
    p = FiniteStateProtocol(n=1, M=3, advance=((0, 1), (0, 2), (2, 2)),
                            transmissions=((0, 0, 0),))
    with pytest.raises(ValueError):
        composite_of(p, 1)


def test_composite_covers_all_four_maps():
    seen = set()
    for table in ALL_TABLES2:
        seen.add(composite_from(FOLLOW, table))
    assert seen == {CompositeFunction.flip(0), CompositeFunction.flip(1),
                    CompositeFunction.const(0), CompositeFunction.const(1)}


def test_block_lookahead_worked_example():
    nus = [CompositeFunction.flip(1), CompositeFunction.const(0),
           CompositeFunction.flip(1), CompositeFunction.flip(0)]
    msg_a, msg_b = block_messages(nus)
    assert (msg_a.last_const_index, msg_b.last_const_index) == (0, 2)
    assert msg_b.const_value == 0
    assert (msg_a.parity_bit, msg_b.parity_bit) == (1, 0)
    for proxy in (0, 1):
        assert block_lookahead(msg_a, msg_b, proxy) == 1
        assert iterate_composites(nus, proxy) == 1


def test_block_lookahead_pure_flip_zero_block():
    nus = [CompositeFunction.flip(0)] * 4
    msg_a, msg_b = block_messages(nus)
    for proxy in (0, 1):
        assert block_lookahead(msg_a, msg_b, proxy) == proxy


def test_block_lookahead_constant_everywhere():
    nus = [CompositeFunction.const(1)] * 4
    msg_a, msg_b = block_messages(nus)
    for proxy in (0, 1):
        assert block_lookahead(msg_a, msg_b, proxy) == 1


ALL_COMPOSITES = (CompositeFunction.flip(0), CompositeFunction.flip(1),
                  CompositeFunction.const(0), CompositeFunction.const(1))


def test_lookahead_algebra_exhaustive_m4():
    for nus in itertools.product(ALL_COMPOSITES, repeat=4):
        msg_a, msg_b = block_messages(nus)
        for proxy in (0, 1):
            assert block_lookahead(msg_a, msg_b, proxy) == iterate_composites(nus, proxy)


def test_message_indices_respect_party_parity():
    nus = [CompositeFunction.const(1), CompositeFunction.flip(0),
           CompositeFunction.const(0), CompositeFunction.flip(1)]
    msg_a, msg_b = block_messages(nus)
    assert msg_a.last_const_index % 2 == 1
    assert msg_b.last_const_index in (0, 2, 4)


def test_exchange_matches_genie_on_many_protocols():
    side = CodeSpec.parse("rep:1")
    for seed in range(60):
        p = random_two_state_protocol(256, seed=seed)
        sched = make_schedule(256)
        pp = pad_protocol(p, sched.n_padded)
        rng = np.random.default_rng(seed)
        la = run_lookahead_exchange(pp, ch=NOISELESS, side_code=side, rng=rng)
        truth, _ = genie_lookahead(pp)
        assert la.alice_states == truth
        assert la.bob_states == truth
        assert la.failure is None


def test_exchange_bit_budget():
    sched = make_schedule(4096)
    p = pad_protocol(random_two_state_protocol(4096, seed=1), sched.n_padded)
    rng = np.random.default_rng(0)
    la = run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), rng)
    m = sched.m
    per_block = 2 * (int(np.ceil(np.log2(m + 1))) + 2)
    assert la.bits_used <= per_block * sched.rows
    assert la.bits_used == 1024  # 6+1 bits phase one + 1 bit phase two, per party per block


def test_exchange_all_constant_tables_reports_late_indices():
    # every composite constant: Alice's last own index is m-1, Bob's is m
    n = 64
    tables = tuple(((0, 0) if i % 3 else (1, 1)) for i in range(n))
    p = FiniteStateProtocol(n=n, M=2, advance=FOLLOW, transmissions=tables)
    sched = make_schedule(n)
    rng = np.random.default_rng(3)
    la = run_lookahead_exchange(p, NOISELESS, CodeSpec.parse("rep:1"), rng)
    truth, _ = genie_lookahead(p)
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
                assert composite_from(eta, table).constant
            for table in cls.free_tables:
                assert not composite_from(eta, table).constant
    assert counts == {"non-interactive": 4, "type-i": 4, "type-ii": 4, "type-iii": 4}


def test_exhaustive_block_immediate_merge():
    # constant-making table in round 1 merges both branches right away
    rec_a, rec_b = run_exhaustive_block(FOLLOW, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert rec_a == rec_b
    assert rec_a.transcripts[0][1:] == rec_a.transcripts[1][1:]
    truth0 = _direct_block(FOLLOW, [(0, 0), (0, 1), (1, 0), (1, 1)], 0)
    assert rec_a.transcripts[0] == truth0[0] and rec_a.finals[0] == truth0[1]


def test_exhaustive_block_no_constant_stays_complementary():
    # flip-only tables: branches never merge but both transcripts are right
    eta = FOLLOW
    tables = [(0, 1), (1, 0), (0, 1), (1, 0)]
    rec_a, rec_b = run_exhaustive_block(eta, tables)
    assert rec_a == rec_b
    for s0 in (0, 1):
        bits, final = _direct_block(eta, tables, s0)
        assert rec_a.transcripts[s0] == bits
        assert rec_a.finals[s0] == final


def test_exhaustive_block_rejects_non_interactive():
    with pytest.raises(ValueError):
        run_exhaustive_block(((0, 0), (1, 1)), [(0, 1)] * 4)


def _direct_block(eta, tables, s0):
    s = s0
    bits = []
    for table in tables:
        tau = table[s]
        bits.append(tau)
        s = eta[s][tau]
    return tuple(bits), s


def test_exhaustive_block_exhaustive_m3():
    for eta in interactive_two_state_advances():
        for tables in itertools.product(ALL_TABLES2, repeat=3):
            rec_a, rec_b = run_exhaustive_block(eta, tables)
            assert rec_a == rec_b
            for s0 in (0, 1):
                bits, final = _direct_block(eta, tables, s0)
                assert rec_a.transcripts[s0] == bits
                assert rec_a.finals[s0] == final


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
    ch = ChannelModel.bsc(0.01)
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


def _ref_composites(view, m, block):
    """One party's composites of one block, keyed by block-local index."""
    return {t: composite_from(view.advance, view.table(block * m + t))
            for t in range(2 - view.party.parity, m + 1, 2)}


def reference_lookahead_exchange(p, ch, side_code, rng):
    """The parity exchange one block and one round at a time."""
    m = math.isqrt(p.n)
    parties = (Party.ALICE, Party.BOB)
    views = {q: party_view(p, q) for q in parties}
    composites = {q: [_ref_composites(views[q], m, r) for r in range(m)] for q in parties}
    own_last = {}
    for q in parties:
        own_last[q] = []
        for nus in composites[q]:
            t_last, val = 0, 0
            for t, nu in sorted(nus.items()):
                if nu.constant:
                    t_last, val = t, nu.value
            own_last[q].append((t_last, val))
    bits_used = channel_uses = 0
    heard1 = {}
    for k, sender in enumerate(parties):
        width = _ref_width(m, sender)
        payload = [b for t, v in own_last[sender]
                   for b in (*_ref_int_to_bits((t + 1) // 2, width), v)]
        transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 1 + k)
        bits_used += len(payload)
        channel_uses += transfer.channel_uses
        chunks = [transfer.decoded[r * (width + 1):(r + 1) * (width + 1)] for r in range(m)]
        heard1[sender.other] = [(_ref_decode_index(_ref_bits_to_int(c[:-1]), m, sender), c[-1])
                                for c in chunks]
    parities = {}
    for q in parties:
        parities[q] = []
        for r in range(m):
            i_const = max(own_last[q][r][0], heard1[q][r][0])
            d = 0
            for t, nu in composites[q][r].items():
                if t > i_const:
                    d ^= nu.value
            parities[q].append(d)
    heard2 = {}
    for k, sender in enumerate(parties):
        transfer = convey(side_code, parities[sender], ch, rng, matrix_seed=m + 3 + k)
        bits_used += m
        channel_uses += transfer.channel_uses
        heard2[sender.other] = list(transfer.decoded)

    def fold(q):
        vec, s = [], p.initial_state
        for r in range(m):
            vec.append(s)
            own = BlockLookaheadMessage(q, *own_last[q][r], parities[q][r])
            other = BlockLookaheadMessage(q.other, *heard1[q][r], heard2[q][r])
            s = block_lookahead(*((own, other) if q is Party.ALICE else (other, own)), s)
        return tuple(vec)

    return LookaheadResult(fold(Party.ALICE), fold(Party.BOB), bits_used, channel_uses)


def reference_merge_points(p, ch, side_code, rng):
    """The exhaustive scheme's first-constant exchange, one block at a time:
    each party's believed merge point per block, plus bits and uses spent."""
    m = math.isqrt(p.n)
    parties = (Party.ALICE, Party.BOB)
    views = {q: party_view(p, q) for q in parties}
    own_first = {q: [min((t for t, nu in _ref_composites(views[q], m, r).items() if nu.constant),
                         default=0) for r in range(m)] for q in parties}
    bits_used = channel_uses = 0
    heard = {}
    for k, sender in enumerate(parties):
        w = _ref_width(m, sender)
        payload = [b for t in own_first[sender] for b in _ref_int_to_bits((t + 1) // 2, w)]
        transfer = convey(side_code, payload, ch, rng, matrix_seed=m + 1 + k)
        bits_used += len(payload)
        channel_uses += transfer.channel_uses
        heard[sender.other] = [
            _ref_decode_index(_ref_bits_to_int(transfer.decoded[r * w:(r + 1) * w]), m, sender)
            for r in range(m)]
    beliefs = {q: [min([t for t in (own_first[q][r], heard[q][r]) if t], default=m + 1)
                   for r in range(m)] for q in parties}
    return beliefs, bits_used, channel_uses


def _noisy_two_state(n, seed, interactive):
    sched = make_schedule(n)
    advance = None
    if interactive:
        advances = interactive_two_state_advances()
        advance = advances[seed % len(advances)]
    return sched, pad_protocol(random_two_state_protocol(n, seed, advance=advance),
                               sched.n_padded)


NOISY = st.sampled_from(["bsc:0.05", "bec:0.1"])
SIDE = st.sampled_from(["rep:1", "rep:3", "rlc:2"])


@settings(max_examples=60)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1), channel=NOISY, side=SIDE)
def test_lookahead_exchange_matches_per_round_reference(n, seed, channel, side):
    _, p = _noisy_two_state(n, seed, interactive=False)
    ch, code = ChannelModel.parse(channel), CodeSpec.parse(side)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_lookahead_exchange(p, ch, code, rng)
    assert got == reference_lookahead_exchange(p, ch, code, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=60)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1), channel=NOISY, side=SIDE)
def test_exhaustive_merge_points_match_per_round_reference(n, seed, channel, side):
    sched, p = _noisy_two_state(n, seed, interactive=True)
    ch, code = ChannelModel.parse(channel), CodeSpec.parse(side)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = exhaustive_lookahead(p, ch, code, rng)
    beliefs, bits_used, channel_uses = reference_merge_points(p, ch, code, ref_rng)
    assert replace(got, wire=None) == LookaheadResult((), (), bits_used, channel_uses)
    cols = np.arange(1, sched.m + 1)
    for q in (Party.ALICE, Party.BOB):
        want = np.sign(cols - np.array(beliefs[q])[:, None]) + 1
        assert np.array_equal(got.wire.phase[q], want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
