"""Block codes: repetition, seeded random linear, the statistical oracle."""

import itertools
import math

import numpy as np
import pytest

from icsim.channel import ERASURE, ChannelModel
from icsim.coding import (
    CodeSpec,
    OracleCode,
    RandomLinearCode,
    RepetitionCode,
    convey,
)

NOISELESS = ChannelModel.bsc(0.0)
LN2 = math.log(2)


def test_repetition_encode():
    code = RepetitionCode(k=2, repeats=3)
    assert list(code.encode([1, 0])) == [1, 1, 1, 0, 0, 0]
    assert code.codeword_length == 6


def test_repetition_majority_decode():
    code = RepetitionCode(k=1, repeats=3)
    ch = ChannelModel.bsc(0.2)
    assert code.decode([1, 1, 0], ch).message == (1,)
    assert code.decode([0, 1, 0], ch).message == (0,)


@pytest.mark.parametrize("repeats", [1, 2, 3, 4, 5])
def test_repetition_ml_equals_majority(repeats):
    # ties (even splits) go to 0, the lexicographically smaller message
    code = RepetitionCode(k=1, repeats=repeats)
    ch = ChannelModel.bsc(0.2)
    for pattern in itertools.product((0, 1), repeat=repeats):
        ones = sum(pattern)
        want = 1 if ones * 2 > repeats else 0
        assert code.decode(list(pattern), ch).message == (want,)


def test_linear_zero_message_zero_codeword():
    code = RandomLinearCode(k=4, codeword_length=8, seed=7)
    assert not any(code.encode([0, 0, 0, 0]))


def test_linear_round_trip_all_messages():
    code = RandomLinearCode(k=4, codeword_length=8, seed=7)
    for msg in itertools.product((0, 1), repeat=4):
        sent = code.encode(msg)
        assert code.decode(sent, NOISELESS).message == msg


def test_linear_generator_full_rank_across_seeds():
    for seed in range(25):
        code = RandomLinearCode(k=6, codeword_length=10, seed=seed)
        seen = {tuple(code.encode(m)) for m in itertools.product((0, 1), repeat=6)}
        assert len(seen) == 64


def test_linear_rejects_large_k():
    with pytest.raises(ValueError):
        RandomLinearCode(k=17, codeword_length=20, seed=0)


def test_linear_bhattacharyya_union_bound():
    eps = 0.05
    code = RandomLinearCode(k=4, codeword_length=12, seed=3)
    ch = ChannelModel.bsc(eps)
    # weight enumerator of the actual codebook; linearity makes the
    # all-zeros transmission representative
    weights = [sum(code.encode(m)) for m in itertools.product((0, 1), repeat=4)]
    gamma = 2 * math.sqrt(eps * (1 - eps))
    union = sum(gamma ** w for w in weights if w > 0)
    rng = np.random.default_rng(0)
    trials = 10_000
    errors = 0
    zeros = [0, 0, 0, 0]
    sent = code.encode(zeros)
    for _ in range(trials):
        out = ch.transmit(sent, rng)
        errors += code.decode(out, ch).message != (0, 0, 0, 0)
    assert errors / trials <= union + 3 * math.sqrt(union * (1 - min(union, 1)) / trials) + 1e-9


def test_oracle_corruption_probability_formula():
    ch = ChannelModel.bsc(0.1)
    code = OracleCode(k=8, rate=0.25, channel=ch)
    expected = math.exp(-(8 / 0.25) * ch.error_exponent(0.25) * LN2)
    assert code.corruption_probability == pytest.approx(expected, rel=1e-12)
    assert code.codeword_length == 32


def test_oracle_tiny_rate_never_corrupts():
    ch = ChannelModel.bsc(0.1)
    code = OracleCode(k=64, rate=0.01, channel=ch)
    rng = np.random.default_rng(0)
    msg = tuple(rng.integers(0, 2, 64))
    for _ in range(200):
        got, flag = code.oracle_transmit(msg, rng)
        assert not flag and got == msg


def test_oracle_corruption_rate_monte_carlo():
    ch = ChannelModel.bsc(0.1)
    code = OracleCode(k=8, rate=0.25, channel=ch)
    p = code.corruption_probability
    assert 0.01 < p < 0.9  # the regime worth sampling
    rng = np.random.default_rng(42)
    trials = 20_000
    msg = (1, 0, 1, 1, 0, 0, 1, 0)
    corrupted = 0
    for _ in range(trials):
        got, flag = code.oracle_transmit(msg, rng)
        if flag:
            corrupted += 1
            assert got != msg
        else:
            assert got == msg
    assert abs(corrupted / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_oracle_above_capacity_always_corrupts():
    ch = ChannelModel.bsc(0.3)
    code = OracleCode(k=8, rate=0.9, channel=ch)
    assert code.corruption_probability == 1.0
    rng = np.random.default_rng(1)
    got, flag = code.oracle_transmit((0,) * 8, rng)
    assert flag and got != (0,) * 8


def test_noiseless_round_trip_all_kinds():
    rng = np.random.default_rng(2)
    msg = tuple(rng.integers(0, 2, 8))
    rep = RepetitionCode(k=8, repeats=3)
    lin = RandomLinearCode(k=8, codeword_length=16, seed=5)
    assert rep.decode(rep.encode(msg), NOISELESS).message == msg
    assert lin.decode(lin.encode(msg), NOISELESS).message == msg
    oracle = OracleCode(k=8, rate=0.5, channel=NOISELESS)
    got, flag = oracle.oracle_transmit(msg, rng)
    assert got == msg and not flag


def test_channel_use_accounting():
    assert RepetitionCode(k=8, repeats=3).codeword_length == 24
    ch = ChannelModel.bsc(0.1)
    for k, rate in [(64, 0.3), (10, 0.23), (1, 0.5)]:
        assert OracleCode(k=k, rate=rate, channel=ch).codeword_length == math.ceil(k / rate)


def test_code_spec_parsing():
    assert CodeSpec.parse("oracle:0.3") == CodeSpec("oracle", 0.3)
    assert CodeSpec.parse("rep:5") == CodeSpec("rep", 5)
    assert CodeSpec.parse("rlc:8") == CodeSpec("rlc", 8)
    assert CodeSpec.parse("rep:5").rate == pytest.approx(0.2)
    assert CodeSpec.parse("rlc:4").rate == pytest.approx(0.25)
    with pytest.raises(ValueError):
        CodeSpec.parse("hamming:7")
    with pytest.raises(ValueError):
        CodeSpec.parse("rep:0")
    with pytest.raises(ValueError):
        CodeSpec.parse("oracle:1.2")


@pytest.mark.parametrize("spec", ["rep:1", "rep:3", "rlc:2", "oracle:0.5"])
def test_convey_noiseless_round_trip(spec):
    rng = np.random.default_rng(9)
    payload = tuple(rng.integers(0, 2, 19))  # forces a ragged final chunk
    result = convey(CodeSpec.parse(spec), payload, NOISELESS, rng, matrix_seed=4)
    assert result.decoded == payload
    assert all(type(b) is int for b in result.decoded)
    assert result.intact
    assert result.channel_uses > 0
    assert result.bits.dtype == np.uint8 and result.bits.tolist() == list(payload)
    with pytest.raises(ValueError, match="read-only"):
        result.bits[0] ^= 1


def test_convey_empty_payload():
    rng = np.random.default_rng(0)
    result = convey(CodeSpec.parse("rep:3"), (), NOISELESS, rng)
    assert result.decoded == () and result.channel_uses == 0 and result.intact
    assert result.bits.dtype == np.uint8 and not result.bits.flags.writeable


def test_convey_accounting_matches_spec_rate():
    rng = np.random.default_rng(3)
    payload = tuple(rng.integers(0, 2, 32))
    rep = convey(CodeSpec.parse("rep:4"), payload, NOISELESS, rng)
    assert rep.channel_uses == 128
    oracle = convey(CodeSpec.parse("oracle:0.25"), payload, NOISELESS, rng)
    assert oracle.channel_uses == 128


def test_convey_deterministic_given_rng_state():
    ch = ChannelModel.bsc(0.2)
    payload = tuple(np.random.default_rng(8).integers(0, 2, 24))
    a = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    b = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    assert a == b


def _reference_codebook(code):
    """Messages in big-endian order and their codewords, from a plain int64
    matrix product."""
    messages = np.array(list(itertools.product((0, 1), repeat=code.k)), dtype=np.int64)
    return messages, (messages @ code.generator) % 2


@pytest.mark.parametrize("spec", ["bsc:0.02", "bsc:0.3", "bec:0.2", "awgn:0.8"])
def test_linear_decode_is_first_argmax_of_float_score(spec):
    # on BSC many codewords tie in exact arithmetic; the float score decides
    ch = ChannelModel.parse(spec)
    rng = np.random.default_rng(5)
    for seed in range(30):
        code = RandomLinearCode(k=6, codeword_length=12, seed=seed)
        messages, cb = _reference_codebook(code)
        for msg, word in zip(messages, cb):
            assert np.array_equal(code.encode(msg), word)
        for _ in range(5):
            out = ch.transmit(cb[rng.integers(64)], rng)
            ll = ch.bit_log_likelihoods(out)
            ref = cb @ ll[:, 1] + (1 - cb) @ ll[:, 0]
            best = int(np.argmax(ref))
            got = code.decode(out, ch)
            assert got.message == tuple(messages[best].tolist())
            assert got.ml_score == ref[best]


def _convey_per_chunk(spec, payload, ch, rng, matrix_seed):
    """One code, one transmit and one decode per chunk."""
    decoded, uses = [], 0
    for idx in range(0, len(payload), spec.chunk):
        part = payload[idx: idx + spec.chunk]
        code = RandomLinearCode(len(part), math.ceil(len(part) * spec.value),
                                seed=matrix_seed * 1000003 + idx)
        decoded.extend(code.decode(ch.transmit(code.encode(part), rng), ch).message)
        uses += code.codeword_length
    return tuple(decoded), uses, tuple(decoded) == tuple(payload)


@pytest.mark.parametrize("channel", ["bsc:0.02", "bsc:0.3", "bec:0.2", "awgn:0.8"])
@pytest.mark.parametrize("code", ["rlc:2", "rlc:3"])
def test_convey_rlc_matches_per_chunk_transfers(code, channel):
    spec, ch = CodeSpec.parse(code), ChannelModel.parse(channel)
    draw = np.random.default_rng(11)
    for length in range(1, 41):  # the last chunk is short unless length % 8 == 0
        payload = tuple(draw.integers(0, 2, length).tolist())
        rng_a, rng_b = np.random.default_rng(length), np.random.default_rng(length)
        got = convey(spec, payload, ch, rng_a, matrix_seed=length % 5)
        want = _convey_per_chunk(spec, payload, ch, rng_b, matrix_seed=length % 5)
        assert (got.decoded, got.channel_uses, got.intact) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_convey_rlc_makes_one_transmit_call(monkeypatch):
    calls = []
    transmit = ChannelModel.transmit
    monkeypatch.setattr(ChannelModel, "transmit",
                        lambda self, bits, rng: calls.append(len(bits)) or transmit(self, bits, rng))
    result = convey(CodeSpec.parse("rlc:3"), [1, 0] * 20, ChannelModel.bsc(0.1),
                    np.random.default_rng(0), matrix_seed=2)
    assert calls == [result.channel_uses] == [5 * 24]


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_one_draw_equals_two_consecutive_draws(draw):
    # the batched rlc transmit relies on this to keep the random stream
    for a, b in [(1, 1), (3, 24), (24, 24), (100, 7), (1000, 513)]:
        one = getattr(np.random.default_rng(a * b), draw)(a + b)
        rng = np.random.default_rng(a * b)
        two = np.concatenate([getattr(rng, draw)(a), getattr(rng, draw)(b)])
        assert np.array_equal(one, two)


def test_generator_cache_holds_a_whole_large_trial():
    # a trial at n = 65536 sends 256-bit columns; one spare seed for a side transfer
    from icsim.coding import _linear_code_matrix

    spec, ch = CodeSpec.parse("rlc:2"), ChannelModel.bsc(0.0)
    payload = (1, 0, 0, 1) * 64
    rng = np.random.default_rng(0)

    def send_all_columns():
        for j in range(257):
            convey(spec, payload, ch, rng, matrix_seed=j)

    send_all_columns()
    misses = _linear_code_matrix.cache_info().misses
    send_all_columns()
    assert _linear_code_matrix.cache_info().misses == misses


@pytest.mark.parametrize("bad", [[0, 2], [-1, 1], [[0, 1]]])
def test_convey_rejects_non_bit_payloads(bad):
    with pytest.raises(ValueError, match="bit vector"):
        convey(CodeSpec.parse("rep:3"), bad, NOISELESS, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the repetition path against a plain reference: repeat, send, reshape and sum

def _reference_transmit(ch, x, rng):
    if ch.kind == "bsc":
        return np.where(rng.random(x.size) < ch.param, 1 - x, x)
    if ch.kind == "bec":
        return np.where(rng.random(x.size) < ch.param, ERASURE, x)
    return (1.0 - 2.0 * x) + ch.param * rng.standard_normal(x.size)


def _reference_log_likelihoods(ch, y):
    """The per-symbol ``np.where`` formulas the likelihood table replaces."""
    out = np.empty((y.size, 2))
    if ch.kind == "bsc":
        eps = min(max(ch.param, 1e-300), 1.0 - 1e-16)
        l_match = math.log(1.0 - eps) if eps < 1.0 else math.log(1e-300)
        l_mis = math.log(max(eps, 1e-300))
        out[:, 0] = np.where(y == 0, l_match, l_mis)
        out[:, 1] = np.where(y == 1, l_match, l_mis)
    elif ch.kind == "bec":
        l_keep = math.log(max(1.0 - ch.param, 1e-300))
        l_erase, l_never = math.log(max(ch.param, 1e-300)), math.log(1e-300)
        for b in (0, 1):
            out[:, b] = np.where(y == ERASURE, l_erase, np.where(y == b, l_keep, l_never))
    else:
        s2 = ch.param * ch.param
        norm = -0.5 * math.log(2.0 * math.pi * s2)
        out[:, 0] = norm - (y - 1.0) ** 2 / (2.0 * s2)
        out[:, 1] = norm - (y + 1.0) ** 2 / (2.0 * s2)
    return out


def _reference_rep_convey(r, payload, ch, rng):
    x = np.repeat(np.array(payload, dtype=np.int64), r)
    ll = _reference_log_likelihoods(ch, _reference_transmit(ch, x, rng))
    per_bit = ll.reshape(len(payload), r, 2).sum(axis=1)
    decoded = tuple((per_bit[:, 1] > per_bit[:, 0] + 1e-9).astype(int).tolist())
    return decoded, len(payload) * r, decoded == tuple(payload)


@pytest.mark.parametrize("channel", ["bsc:0", "bsc:0.05", "bsc:0.5", "bec:0", "bec:0.2",
                                     "awgn:0.4", "awgn:1.3"])
def test_convey_rep_matches_reshape_and_sum_reference(channel):
    ch = ChannelModel.parse(channel)
    draw = np.random.default_rng(17)
    for r in range(1, 10):
        spec = CodeSpec.parse(f"rep:{r}")
        for length in range(1, 201):
            payload = tuple(draw.integers(0, 2, length).tolist())
            rng_a, rng_b = np.random.default_rng(length), np.random.default_rng(length)
            got = convey(spec, np.array(payload) if length % 2 else payload, ch, rng_a)
            assert (got.decoded, got.channel_uses, got.intact) == \
                _reference_rep_convey(r, payload, ch, rng_b)
            assert all(type(b) is int for b in got.decoded)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("channel", ["bsc:0", "bsc:0.02", "bsc:0.5", "bsc:1",
                                     "bec:0", "bec:0.05", "bec:1"])
def test_log_likelihood_table_matches_where_formulas_bitwise(channel):
    ch = ChannelModel.parse(channel)
    alphabet = 2 if ch.kind == "bsc" else 3
    y = np.random.default_rng(3).integers(0, alphabet, 500)
    assert ch.bit_log_likelihoods(y).tobytes() == _reference_log_likelihoods(ch, y).tobytes()
    assert ch.bit_log_likelihoods(list(range(alphabet))).tobytes() == \
        _reference_log_likelihoods(ch, np.arange(alphabet)).tobytes()


@pytest.mark.parametrize("sigma", [0.1, 0.4, 0.8, 1.3, 3.0])
def test_awgn_log_likelihoods_match_two_column_formula_bitwise(sigma):
    ch = ChannelModel.parse(f"awgn:{sigma}")
    y = ch.transmit(np.random.default_rng(3).integers(0, 2, 20_000), np.random.default_rng(4))
    y = np.concatenate((y, [0.0, 1.0, -1.0, 1e-300, -40.0, 40.0]))
    assert ch.bit_log_likelihoods(y).tobytes() == _reference_log_likelihoods(ch, y).tobytes()


@pytest.mark.parametrize("channel, outputs", [
    ("bsc:0.1", [0, 2]), ("bsc:0.1", [-1, 0]), ("bsc:0.1", [0.0, 1.0]),
    ("bec:0.1", [0, 3]), ("bec:0.1", [-1, 2]), ("bec:0.1", [1.0, 2.0]),
])
def test_log_likelihoods_reject_outputs_outside_the_alphabet(channel, outputs):
    with pytest.raises(ValueError, match="outputs must"):
        ChannelModel.parse(channel).bit_log_likelihoods(outputs)


def test_convey_rep_makes_one_transmit_and_one_likelihood_call(monkeypatch):
    calls = []
    for name in ("transmit", "bit_log_likelihoods"):
        original = getattr(ChannelModel, name)
        monkeypatch.setattr(ChannelModel, name, lambda self, *a, _f=original, _n=name:
                            calls.append(_n) or _f(self, *a))
    rng = np.random.default_rng(0)
    for spec in ("rep:1", "rep:3"):
        for channel in ("bsc:0.1", "bec:0.1", "awgn:0.8"):
            calls.clear()
            convey(CodeSpec.parse(spec), [1, 0] * 20, ChannelModel.parse(channel), rng)
            assert calls == ["transmit", "bit_log_likelihoods"]
