"""Block codes through ``convey``: repetition, seeded random linear, the
statistical oracle."""

import functools
import itertools
import math

import numpy as np
import pytest

from icsim import coding, harness, vertical
from icsim.channel import ERASURE, ChannelModel
from icsim.coding import RLC_CHUNK, CodeSpec, RandomLinearCode, convey
from icsim.multistate import coincidence_failure_trials, is_useful, resolve_functions
from icsim.protocol import FiniteStateProtocol, random_protocol
from icsim.threestate import build_example2, disj_via_protocol
from icsim.twostate import run_exhaustive_block

NOISELESS = ChannelModel("bsc", 0.0)
FOLLOW = ((0, 1), (0, 1))  # the next state is the bit
LN2 = math.log(2)
SEED_STRIDE = 1000003  # an rlc chunk code's seed is matrix_seed * SEED_STRIDE + chunk offset


def _transmits(monkeypatch):
    """Every (sent, received) pair of ``ChannelModel.transmit`` from now on."""
    pairs = []
    transmit = ChannelModel.transmit
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng:
                        pairs.append((np.array(bits), transmit(self, bits, rng))) or pairs[-1][1])
    return pairs


def _counted_calls(monkeypatch, names=("transmit", "bit_log_likelihoods")):
    """The names of the ``ChannelModel`` methods called from now on, in order."""
    calls = []
    for name in names:
        original = getattr(ChannelModel, name)
        monkeypatch.setattr(ChannelModel, name, lambda self, *a, _f=original, _n=name:
                            calls.append(_n) or _f(self, *a))
    return calls


@functools.lru_cache(maxsize=None)
def _messages(k):
    """The k-bit messages in big-endian order, as read-only int64 rows."""
    messages = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.int64)
    messages.flags.writeable = False
    return messages


def _reference_codebook(code):
    """Messages in big-endian order and their codewords, from a plain int64
    matrix product."""
    messages = _messages(code.k)
    return messages, (messages @ code.generator) % 2


def _ml_keys(ch, cb, y):
    """Keys, one per codeword of ``cb`` along the last axis, whose least
    value marks the codewords of maximum likelihood for the outputs ``y``
    (..., b) of one codeword, read from exact sums.

    On bsc P(y | word) = eps^d (1 - eps)^(b - d), d the mismatches: it falls
    with d below eps = 1/2, rises above it and is flat at 1/2. On bec a
    mismatch is impossible and every codeword shares the erasures' factor,
    so it falls with the unerased mismatches. Where every codeword has
    likelihood 0 (bsc:0 or bsc:1 off the code, bec with a mismatch in every
    codeword), the keys are those of the channels just inside the parameter
    range. On awgn -log P(y | word) is a constant minus a positive multiple
    of the correlation of y with the antipodal inputs, exact from math.fsum
    where it decides: every codeword of a word has terms +-y_i, so each
    float64 sum is within gamma_n * S of the exact one, S = sum |y_i|. A
    codeword whose float key lies more than twice that bound above the least
    float key cannot hold the least exact key, and keeps its float key,
    which stays above it; every other key is summed by math.fsum.
    """
    cb, y = np.asarray(cb, dtype=np.int64), np.asarray(y)
    if ch.kind == "awgn":
        terms = y[..., None, :] * (1 - 2 * cb)  # exact: each input is +1 or -1
        keys = -terms.sum(axis=-1)
        n = cb.shape[-1]
        gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
        # S is itself a float sum, so 2 * gamma * S bounds gamma_n times the exact S
        bound = 2 * gamma * np.abs(y).sum(axis=-1, keepdims=True)
        near = keys <= keys.min(axis=-1, keepdims=True) + 2 * bound
        keys[near] = [-math.fsum(row) for row in terms[near].tolist()]
        return keys
    y = y[..., None, :]
    mismatches = ((cb != y) & (y != ERASURE)).sum(axis=-1)
    if ch.kind == "bec" or ch.param < 0.5:
        return mismatches
    return -mismatches if ch.param > 0.5 else 0 * mismatches


def _ml_rep_bits(ch, y, r):
    """The smallest message of maximum likelihood of each bit of a rep:r
    word from its outputs ``y``: 1 only if the all-ones codeword's key is
    the lesser."""
    keys = _ml_keys(ch, [[0] * r, [1] * r], np.asarray(y).reshape(-1, r))
    return tuple((keys[:, 1] < keys[:, 0]).astype(int).tolist())


def _ml_messages(ch, cb, y):
    """The indices of the codewords ``cb`` of maximum likelihood for ``y``."""
    keys = _ml_keys(ch, cb, y)
    return np.flatnonzero(keys == keys.min()).tolist()


def _ml_message(ch, messages, cb, y):
    """The smallest of the ``messages`` (in order, with codewords ``cb``)
    of maximum likelihood for the outputs ``y``."""
    return tuple(np.asarray(messages[_ml_messages(ch, cb, y)[0]]).tolist())


def test_repetition_encode(monkeypatch):
    sent = _transmits(monkeypatch)
    result = convey(CodeSpec.parse("rep:3"), [1, 0], NOISELESS, np.random.default_rng(0))
    assert [x.tolist() for x, _ in sent] == [[1, 1, 1, 0, 0, 0]]
    assert result.channel_uses == 6


def _rep_decode(monkeypatch, outputs, ch):
    """``convey``'s rep:r decision for one bit whose r repeats arrive as
    ``outputs``."""
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng: np.array(outputs))
    spec = CodeSpec.parse(f"rep:{len(outputs)}")
    return tuple(convey(spec, [0], ch, np.random.default_rng(0)).bits.tolist())


def test_repetition_majority_decode(monkeypatch):
    ch = ChannelModel("bsc", 0.2)
    assert _rep_decode(monkeypatch, [1, 1, 0], ch) == (1,)
    assert _rep_decode(monkeypatch, [0, 1, 0], ch) == (0,)


@pytest.mark.parametrize("repeats", [1, 2, 3, 4, 5])
def test_repetition_ml_equals_majority(repeats, monkeypatch):
    # ties (even splits) go to 0, the lexicographically smaller message
    ch = ChannelModel("bsc", 0.2)
    for pattern in itertools.product((0, 1), repeat=repeats):
        ones = sum(pattern)
        want = 1 if ones * 2 > repeats else 0
        assert _rep_decode(monkeypatch, list(pattern), ch) == (want,)


def test_linear_zero_message_zero_codeword(monkeypatch):
    sent = _transmits(monkeypatch)
    convey(CodeSpec.parse("rlc:2"), [0, 0, 0, 0], NOISELESS, np.random.default_rng(0),
           matrix_seed=7)
    assert sent[0][0].size == 8 and not sent[0][0].any()


def test_linear_round_trip_all_messages():
    rng = np.random.default_rng(0)
    for msg in itertools.product((0, 1), repeat=4):
        got = convey(CodeSpec.parse("rlc:2"), msg, NOISELESS, rng, matrix_seed=7)
        assert tuple(got.bits.tolist()) == msg


def test_linear_generator_full_rank_across_seeds():
    for seed in range(25):
        _, cb = _reference_codebook(RandomLinearCode(k=6, codeword_length=10, seed=seed))
        assert len({tuple(word) for word in cb}) == 64


def test_linear_rejects_large_k():
    # convey draws chunk codes of at most RLC_CHUNK bits, so the class stops there
    with pytest.raises(ValueError, match="k must be"):
        RandomLinearCode(k=RLC_CHUNK + 1, codeword_length=20, seed=0)


def test_linear_bhattacharyya_union_bound():
    eps = 0.05
    spec, ch = CodeSpec.parse("rlc:3"), ChannelModel("bsc", eps)
    # weight enumerator of the 4-bit chunk code convey uses at matrix seed 0;
    # linearity makes the all-zeros transmission representative
    _, cb = _reference_codebook(RandomLinearCode(k=4, codeword_length=12, seed=0))
    gamma = 2 * math.sqrt(eps * (1 - eps))
    union = sum(gamma ** w for w in cb.sum(axis=1) if w > 0)
    rng = np.random.default_rng(0)
    trials = 10_000
    errors = 0
    for _ in range(trials):
        errors += not convey(spec, [0, 0, 0, 0], ch, rng, matrix_seed=0).intact
    assert errors / trials <= union + 3 * math.sqrt(union * (1 - min(union, 1)) / trials) + 1e-9


def _oracle_reference(payload, rate, ch, rng):
    """The oracle transfer as a tuple loop, independent of ``coding``: one
    uniform draw against p* = exp(-(k/R) Er(R) ln 2), then int64 words until
    one differs. Returns (decoded bits, intact, channel uses)."""
    bits = tuple(int(b) for b in payload)
    k = len(bits)
    uses = math.ceil(k / rate)
    if rng.random() >= math.exp(-(k / rate) * ch.error_exponent(rate) * LN2):
        return bits, True, uses
    while True:
        wrong = tuple(int(b) for b in rng.integers(0, 2, size=k))
        if wrong != bits:
            return wrong, False, uses


ORACLE_CHANNELS = ["bsc:0", "bsc:0.05", "bsc:0.2", "bec:0.3", "awgn:0.8"]


@pytest.mark.parametrize("channel", ORACLE_CHANNELS)
def test_oracle_convey_matches_the_tuple_reference(channel):
    # rates from far below to above capacity, so some transfers never and
    # some always corrupt; the generator must end where the reference's does
    ch = ChannelModel.parse(channel)
    for rate in np.round(np.arange(0.1, 1.01, 0.1), 10):
        spec = CodeSpec("oracle", float(rate))
        for k in (1, 2, 3, 8, 33):
            for seed in range(40):
                payload = np.random.default_rng(seed + 1000).integers(0, 2, size=k,
                                                                      dtype=np.uint8)
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = convey(spec, payload, ch, rng, matrix_seed=seed)
                bits, intact, uses = _oracle_reference(payload, spec.value, ch, ref_rng)
                assert (tuple(got.bits.tolist()), got.intact, got.channel_uses) == \
                    (bits, intact, uses), (rate, k, seed)
                assert got.bits.dtype == np.uint8 and not got.bits.flags.writeable
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_oracle_corruption_probability_formula():
    ch = ChannelModel("bsc", 0.1)
    expected = math.exp(-(8 / 0.25) * ch.error_exponent(0.25) * LN2)
    assert coding.oracle_corruption(8, 0.25, ch) == pytest.approx(expected, rel=1e-12)
    got = convey(CodeSpec.parse("oracle:0.25"), [0] * 8, ch, np.random.default_rng(0))
    assert got.channel_uses == 32


def test_oracle_tiny_rate_never_corrupts():
    ch = ChannelModel("bsc", 0.1)
    spec = CodeSpec.parse("oracle:0.01")
    rng = np.random.default_rng(0)
    msg = tuple(rng.integers(0, 2, 64).tolist())
    for _ in range(200):
        got = convey(spec, msg, ch, rng)
        assert got.intact and tuple(got.bits.tolist()) == msg


def test_oracle_corruption_rate_monte_carlo():
    ch = ChannelModel("bsc", 0.1)
    spec = CodeSpec.parse("oracle:0.25")
    p = coding.oracle_corruption(8, 0.25, ch)
    assert 0.01 < p < 0.9  # the regime worth sampling
    rng = np.random.default_rng(42)
    trials = 20_000
    msg = (1, 0, 1, 1, 0, 0, 1, 0)
    corrupted = 0
    for _ in range(trials):
        got = convey(spec, msg, ch, rng)
        assert (tuple(got.bits.tolist()) == msg) == got.intact
        corrupted += not got.intact
    assert abs(corrupted / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_oracle_above_capacity_always_corrupts():
    ch = ChannelModel("bsc", 0.3)
    assert coding.oracle_corruption(8, 0.9, ch) == 1.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        got = convey(CodeSpec.parse("oracle:0.9"), (0,) * 8, ch, rng)
        assert not got.intact and got.bits.any()


def test_noiseless_round_trip_all_kinds():
    rng = np.random.default_rng(2)
    msg = tuple(rng.integers(0, 2, 8).tolist())
    for spec in ("rep:3", "rlc:2", "oracle:0.5"):
        got = convey(CodeSpec.parse(spec), msg, NOISELESS, rng, matrix_seed=5)
        assert got.bits.tolist() == list(msg) and got.intact


def test_channel_use_accounting():
    rep = convey(CodeSpec.parse("rep:3"), [1] * 8, NOISELESS, np.random.default_rng(0))
    assert rep.channel_uses == 24
    ch = ChannelModel("bsc", 0.1)
    for k, rate in [(64, 0.3), (10, 0.23), (1, 0.5)]:
        got = convey(CodeSpec("oracle", rate), [1] * k, ch, np.random.default_rng(0))
        assert got.channel_uses == math.ceil(k / rate)


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
    assert result.intact
    assert result.channel_uses > 0
    assert result.bits.dtype == np.uint8 and result.bits.tolist() == list(payload)
    with pytest.raises(ValueError, match="read-only"):
        result.bits[0] ^= 1


def test_convey_empty_payload():
    rng = np.random.default_rng(0)
    result = convey(CodeSpec.parse("rep:3"), (), NOISELESS, rng)
    assert result.bits.size == 0 and result.channel_uses == 0 and result.intact
    assert result.bits.dtype == np.uint8 and not result.bits.flags.writeable


def test_convey_accounting_matches_spec_rate():
    rng = np.random.default_rng(3)
    payload = tuple(rng.integers(0, 2, 32))
    rep = convey(CodeSpec.parse("rep:4"), payload, NOISELESS, rng)
    assert rep.channel_uses == 128
    oracle = convey(CodeSpec.parse("oracle:0.25"), payload, NOISELESS, rng)
    assert oracle.channel_uses == 128


def test_convey_deterministic_given_rng_state():
    ch = ChannelModel("bsc", 0.2)
    payload = tuple(np.random.default_rng(8).integers(0, 2, 24))
    a = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    b = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    assert np.array_equal(a.bits, b.bits)
    assert (a.channel_uses, a.intact) == (b.channel_uses, b.intact)


@pytest.mark.parametrize("spec", ["bsc:0.02", "bsc:0.3", "bec:0.2", "awgn:0.8"])
def test_linear_decode_is_the_smallest_ml_message(spec, monkeypatch):
    # on bsc and bec many codewords tie exactly; the smallest message wins
    ch, rlc = ChannelModel.parse(spec), CodeSpec.parse("rlc:2")
    sent = _transmits(monkeypatch)
    rng = np.random.default_rng(5)
    for seed in range(30):
        code = RandomLinearCode(k=6, codeword_length=12, seed=seed * SEED_STRIDE)
        messages, cb = _reference_codebook(code)
        for msg, word in zip(messages, cb):
            convey(rlc, msg, NOISELESS, rng, matrix_seed=seed)
            assert np.array_equal(sent[-1][0], word)
        for _ in range(5):
            got = convey(rlc, messages[rng.integers(64)], ch, rng, matrix_seed=seed)
            assert tuple(got.bits.tolist()) == _ml_message(ch, messages, cb, sent[-1][1])


def _convey_per_chunk(spec, payload, ch, rng, matrix_seed):
    """One code, one transmit and one exact ML decode per chunk."""
    decoded, uses = [], 0
    for idx in range(0, len(payload), RLC_CHUNK):
        part = payload[idx: idx + RLC_CHUNK]
        code = RandomLinearCode(len(part), math.ceil(len(part) * spec.value),
                                seed=matrix_seed * SEED_STRIDE + idx)
        messages, cb = _reference_codebook(code)
        out = ch.transmit(np.array(part) @ code.generator % 2, rng)
        decoded.extend(_ml_message(ch, messages, cb, out))
        uses += code.codeword_length
    return tuple(decoded), uses, tuple(decoded) == tuple(payload)


# every decision regime (bsc below, at and past eps = 0.5, bec, awgn), codes
# from rate 1 to codewords past 255 bits, and every chunk layout: whole chunks
# only (one book stack), a short chunk alone, and both
@pytest.mark.parametrize("channel", ["bsc:0.02", "bsc:0.3", "bec:0.2", "awgn:0.8", "bsc:0",
                                     "bsc:0.2", "bsc:0.5", "bsc:0.7", "bec:0.6", "awgn:0.5",
                                     "awgn:1.2"])
@pytest.mark.parametrize("code", ["rlc:2", "rlc:3", "rlc:1", "rlc:5", "rlc:9", "rlc:40"])
def test_convey_rlc_matches_per_chunk_transfers(code, channel):
    spec, ch = CodeSpec.parse(code), ChannelModel.parse(channel)
    draw = np.random.default_rng(11)
    for length in [*range(1, 42), 47, 48, 49, 55, 56, 57, 63, 64, 65, 66, 67]:
        payload = tuple(draw.integers(0, 2, length).tolist())
        rng_a, rng_b = np.random.default_rng(length), np.random.default_rng(length)
        got = convey(spec, payload, ch, rng_a, matrix_seed=length % 5)
        want = _convey_per_chunk(spec, payload, ch, rng_b, matrix_seed=length % 5)
        assert (tuple(got.bits.tolist()), got.channel_uses, got.intact) == want, length
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_convey_rlc_makes_one_transmit_call(monkeypatch):
    sent = _transmits(monkeypatch)
    result = convey(CodeSpec.parse("rlc:3"), [1, 0] * 20, ChannelModel("bsc", 0.1),
                    np.random.default_rng(0), matrix_seed=2)
    assert [x.size for x, _ in sent] == [result.channel_uses] == [5 * 24]


@pytest.mark.parametrize("draw", ["random", "standard_normal"])
def test_one_draw_equals_two_consecutive_draws(draw):
    # the batched rlc transmit relies on this to keep the random stream
    for a, b in [(1, 1), (3, 24), (24, 24), (100, 7), (1000, 513)]:
        one = getattr(np.random.default_rng(a * b), draw)(a + b)
        rng = np.random.default_rng(a * b)
        two = np.concatenate([getattr(rng, draw)(a), getattr(rng, draw)(b)])
        assert np.array_equal(one, two)


def test_book_cache_holds_a_whole_large_trial():
    # a trial at n = 65536 sends 256-bit columns; one spare seed for a side transfer
    spec, ch = CodeSpec.parse("rlc:2"), ChannelModel("bsc", 0.0)
    payload = (1, 0, 0, 1) * 64
    rng = np.random.default_rng(0)

    def send_all_columns():
        for j in range(257):
            convey(spec, payload, ch, rng, matrix_seed=j)

    send_all_columns()
    misses = coding._BOOKS.misses
    send_all_columns()
    assert coding._BOOKS.misses == misses
    assert coding._BOOKS.size <= coding._BOOK_CACHE_BYTES


# ---------------------------------------------------------------------------
# the packed codebook cache against the draw it replaced: a GF(2) rank test
# on every generator, and a codebook built by XOR doubling on each call

def _gf2_rank(rows):
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def _old_draw(k, b, seed):
    """Draw generators from successive seeds until one has GF(2) rank k;
    return how many seeds failed first, and the generator."""
    attempt = seed
    while True:
        g = np.random.default_rng(attempt).integers(0, 2, size=(k, b), dtype=np.int64)
        if _gf2_rank([int("".join(map(str, row)), 2) for row in g]) == k:
            return attempt - seed, g
        attempt += 1


def _old_generator(k, b, seed):
    return _old_draw(k, b, seed)[1]


@pytest.mark.parametrize("k", range(1, 17))
def test_rank_test_draws_the_generators_of_the_gf2_rank_draw(k):
    # each (k, b)'s seeds go through one stacked _packed_books call, whose
    # redraw rounds must give every seed the generator of its own rank draw;
    # at b = k the rank often fails, so seeds that need different numbers of
    # redraws share a stack. The generator is read off the books, as the
    # rows of the messages with one bit set; up to RLC_CHUNK, where
    # RandomLinearCode stops, it must also be that code's generator
    seeds = [seed * SEED_STRIDE + k for seed in range(12 if k < 14 else 4)]
    for b in sorted({k, k + 1, k + 3, 2 * k}):
        books = coding._packed_books(k, b, seeds)
        assert books.shape == (len(seeds), math.ceil(b / 8), 1 << k)
        rows = books.swapaxes(1, 2)[:, 1 << np.arange(k - 1, -1, -1)]
        redraws = []
        for seed, drawn in zip(seeds, np.unpackbits(rows, axis=-1, count=b)):
            skipped, generator = _old_draw(k, b, seed)
            redraws.append(skipped)
            assert np.array_equal(drawn, generator)
            if k <= RLC_CHUNK:
                assert np.array_equal(RandomLinearCode(k, b, seed=seed).generator, drawn)
        if b == k:  # the stack mixes seeds of at least three redraw counts
            assert len(set(redraws)) >= 3


def test_cached_packed_books_equal_freshly_built_codebooks():
    for k in range(1, RLC_CHUNK + 1):
        for b in sorted({k, k + 1, 2 * k, 3 * k, 8 * math.ceil(k / 8) + 5}):
            seeds = [j * SEED_STRIDE + 8 * i for j in range(12) for i in range(3)]
            packed = coding._BOOKS(k, b, seeds).swapaxes(1, 2)  # codeword-major
            assert packed.shape == (len(seeds), 1 << k, math.ceil(b / 8))
            built = coding._codebooks(np.stack([_old_generator(k, b, s) for s in seeds])
                                      .astype(np.uint8))
            assert np.array_equal(np.unpackbits(packed, axis=-1, count=b), built)
            _, reference = _reference_codebook(RandomLinearCode(k, b, seed=seeds[-1]))
            assert np.array_equal(built[-1], reference)


def test_book_cache_drops_least_recently_used_books_within_its_bound():
    book = 1 << 6  # bytes of one k = 6, b = 8 book
    cache = coding._BookCache(limit=3 * book + book // 2)
    held = []
    for seed in range(10):
        cache(6, 8, [seed])
        held = (held + [seed])[-3:]
        assert cache.size == len(held) * book <= cache.limit
        assert list(cache._books) == [(6, 8, (s,)) for s in held]
    cache(6, 8, [7])  # a hit makes seed 7 the most recent
    cache(6, 8, [10])
    assert list(cache._books) == [(6, 8, (s,)) for s in (9, 7, 10)]
    assert cache.misses == 11 and cache.size <= cache.limit
    cache(6, 8, (7,))  # a tuple is the key a list makes
    assert cache.misses == 11
    # a transfer shape is one entry; its books count as misses one by one
    pair = cache(6, 8, range(20, 22))
    assert cache.misses == 13 and cache.size == 3 * book <= cache.limit
    assert list(cache._books) == [(6, 8, (7,)), (6, 8, range(20, 22))]
    assert cache(6, 8, range(20, 22)) is pair and cache.misses == 13
    big = coding._BookCache(limit=book - 1)  # one book alone passes the bound
    assert big(6, 8, [0]).swapaxes(1, 2).shape == (1, 64, 1) and big.size == 0 and not big._books


def test_warm_rlc_trial_builds_no_codebook(monkeypatch):
    cfg = harness.ExperimentConfig(scheme="genie", channel="bsc:0.02", code="rlc:3")
    harness.run_trial(cfg, 4096, 0)
    builds, calls = [], []
    build, send = coding._codebooks, coding.convey
    monkeypatch.setattr(coding, "_codebooks", lambda g: builds.append(g.shape) or build(g))
    monkeypatch.setattr(vertical, "convey", lambda *a, **kw: calls.append(1) or send(*a, **kw))
    sent = _transmits(monkeypatch)
    likelihoods = _counted_calls(monkeypatch, ("bit_log_likelihoods",))
    harness.run_trial(cfg, 4096, 0)
    assert builds == [] and len(calls) == 64 and len(sent) == 64 and likelihoods == []


def test_warm_rlc_transfers_look_up_one_book_stack_per_chunk_size(monkeypatch):
    cfg = harness.ExperimentConfig(scheme="genie", channel="bsc:0.02", code="rlc:3")
    spec, ch, payload = CodeSpec.parse("rlc:3"), ChannelModel("bsc", 0.02), [1, 0, 0] * 4 + [1, 1]
    harness.run_trial(cfg, 4096, 0)
    convey(spec, payload, ch, np.random.default_rng(0), matrix_seed=3)
    cache, lookups = coding._BOOKS, []
    misses = cache.misses
    monkeypatch.setattr(coding, "_BOOKS", lambda k, b, seeds:
                        lookups.append((k, b, list(seeds))) or cache(k, b, seeds))
    harness.run_trial(cfg, 4096, 0)
    assert len(lookups) == 64 and cache.misses == misses  # one lookup per 64-bit column
    lookups.clear()
    convey(spec, payload, ch, np.random.default_rng(0), matrix_seed=3)  # 14 bits: 8 + 6
    first = 3 * SEED_STRIDE
    assert lookups == [(8, 24, [first]), (6, 18, [first + 8])] and cache.misses == misses
    books = cache(8, 24, range(first, first + 8, 8))
    with pytest.raises(ValueError, match="read-only"):
        books[0, 0, 0] ^= 1


# ---------------------------------------------------------------------------
# the rlc rule against exact ML, with forced ties, on every bsc and bec regime

def _chunk_codes(spec, length, matrix_seed):
    """(chunk size, codeword length, byte-major book) of each chunk of a
    ``length``-bit rlc transfer, in payload order."""
    codes = []
    for start in range(0, length, RLC_CHUNK):
        k = min(RLC_CHUNK, length - start)
        b = math.ceil(k * spec.value)
        codes.append((k, b, coding._BOOKS(k, b, [matrix_seed * SEED_STRIDE + start])[0]))
    return codes


def _midway(book, b, word, partner, erase):
    """Outputs as far from ``word`` as from the codeword of message
    ``partner``: on bsc half the positions where the two differ follow the
    partner, on bec all of them are erased."""
    other = np.unpackbits(book.T[partner], count=b).astype(np.int64)
    differ = np.flatnonzero(other != word)
    y = word.copy()
    if erase:
        y[differ] = ERASURE
    else:
        y[differ[: differ.size // 2]] = other[differ[: differ.size // 2]]
    return y


def _message_bits(index, k):
    """The k bits of message ``index``, most significant first."""
    return [(int(index) >> (k - 1 - i)) & 1 for i in range(k)]


def _check_smallest_ml_message_rule(ch, rates, monkeypatch, far=False):
    """Send rlc:x transfers of three full chunks and then k = 1 .. 8 bits,
    every other one with chunks 0 and 2 midway between two codewords and,
    with ``far``, chunks 1 and 3 at the complement of the codeword sent.
    Check each decoded chunk against the smallest message of maximum
    likelihood, and that no likelihoods are made; return the number of
    chunks where more than one message has it."""
    transmit = ChannelModel.transmit
    draw = np.random.default_rng(29)
    ties = 0
    for k in range(1, RLC_CHUNK + 1):
        for x in rates:
            spec = CodeSpec("rlc", x)
            for trial in range(6):
                length = 3 * RLC_CHUNK + k  # three full chunks, then k bits
                payload = draw.integers(0, 2, length)
                codes = _chunk_codes(spec, length, trial)
                force = trial % 2

                def fake(self, bits, rng, codes=codes, force=force):
                    y, at = transmit(self, bits, rng), 0
                    for i, (size, b, book) in enumerate(codes):
                        if force and i % 2 == 0:
                            y[at: at + b] = _midway(book, b, bits[at: at + b],
                                                    draw.integers(1, 1 << size), ch.kind == "bec")
                        elif force and far:
                            y[at: at + b] = 1 - bits[at: at + b]
                        at += b
                    return y

                monkeypatch.setattr(ChannelModel, "transmit", fake)
                sent = _transmits(monkeypatch)
                likelihoods = _counted_calls(monkeypatch, ("bit_log_likelihoods",))
                got = convey(spec, payload, ch, np.random.default_rng(trial), matrix_seed=trial)
                y = sent[-1][1]
                want, at = [], 0
                for size, b, book in codes:
                    best = _ml_messages(ch, np.unpackbits(book.T, axis=-1, count=b), y[at: at + b])
                    want.extend(_message_bits(best[0], size))
                    ties += len(best) > 1
                    at += b
                assert got.bits.tolist() == want
                assert likelihoods == []
    return ties


@pytest.mark.parametrize("kind, param", [
    ("bsc", 0.0), ("bsc", 0.02), ("bsc", 0.3), ("bsc", 0.5 - 1e-12), ("bsc", 0.5),
    ("bsc", 0.7), ("bsc", 1.0), ("bec", 0.0), ("bec", 0.2), ("bec", 1.0)])
def test_rlc_decodes_each_chunk_to_the_smallest_ml_message(kind, param, monkeypatch):
    # b = k * x: every k < 8 gives some b % 8 != 0
    ties = _check_smallest_ml_message_rule(ChannelModel(kind, param), (1, 2, 3, 5), monkeypatch)
    if kind == "bec" or param <= 0.5:
        assert ties >= 50  # the forced midway chunks tie, and at bsc:0.5 and bec:1 every chunk


@pytest.mark.parametrize("channel", ["bsc:0.02", "bec:0.2"])
def test_rlc_nearest_codeword_rule_holds_past_255_bit_codewords(channel, monkeypatch):
    # full chunks of b = 256 and 320 bits, short ones up to 280: a distance
    # can pass 255, as on the complemented chunks, whose sent codeword is b away
    ties = _check_smallest_ml_message_rule(ChannelModel.parse(channel), (32, 40), monkeypatch,
                                           far=True)
    assert ties >= 20


@pytest.mark.parametrize("code", ["rlc:2", "rlc:3"])
def test_convey_rlc_makes_one_transmit_and_no_likelihood_call(code, monkeypatch):
    spec, rng = CodeSpec.parse(code), np.random.default_rng(0)
    payload = [1, 0, 0, 1, 1] * 8
    channels = ("bsc:0.05", "bec:0.1", "awgn:0.8")
    for channel in channels:  # caches the books before the calls are counted
        convey(spec, payload, ChannelModel.parse(channel), rng, matrix_seed=3)
    calls = _counted_calls(monkeypatch)
    for channel in channels:
        for seed in range(10):
            calls.clear()
            convey(spec, payload, ChannelModel.parse(channel), np.random.default_rng(seed),
                   matrix_seed=3)
            assert calls == ["transmit"]


def _reference_sign_rule(direction, pattern):
    """1 where the votes of the outputs (a 1 for 1, -1 for 0, 0 for an
    erasure), turned by ``direction``, sum above 0; a tie goes to 0."""
    return int(direction * sum((o == 1) - (o == 0) for o in pattern) > 0)


@pytest.mark.parametrize("channel", ["bsc:0.05", "bsc:0.5", "bsc:0.7", "bec:0.3"])
def test_rep_decisions_equal_the_sign_rule_on_every_output_pattern(channel):
    # r = 1 .. 5 read a table; r = 6 is past it, back on the vote sum
    ch = ChannelModel.parse(channel)
    direction = {"bsc:0.5": 0, "bsc:0.7": -1}.get(channel, 1)
    assert coding._direction(ch) == direction
    alphabet = range(2) if ch.kind == "bsc" else range(3)
    for r in range(1, 7):
        patterns = list(itertools.product(alphabet, repeat=r))
        want = [_reference_sign_rule(direction, pattern) for pattern in patterns]
        y = np.array(patterns, dtype=np.uint8).reshape(-1)
        for outputs in (y, y.astype(np.int64)):
            got = coding._rep_decide(ch, outputs, r)
            assert got.dtype == np.uint8 and got.tolist() == want, (r, outputs.dtype)


@pytest.mark.parametrize("channel, output", [("bsc:0.1", 2), ("bsc:0.1", -1),
                                             ("bec:0.1", 3), ("bec:0.1", -1)])
def test_rlc_distance_path_keeps_the_alphabet_check(channel, output, monkeypatch):
    ch = ChannelModel.parse(channel)
    with pytest.raises(ValueError, match="outputs must") as raised:
        ch.bit_log_likelihoods([output])
    monkeypatch.setattr(ChannelModel, "transmit",
                        lambda self, bits, rng: np.where(np.arange(len(bits)) == 0, output, bits))
    monkeypatch.setattr(ChannelModel, "bit_log_likelihoods", None)  # the check must not need it
    with pytest.raises(ValueError, match="outputs must") as got:
        convey(CodeSpec.parse("rlc:3"), [0, 1] * 8, ch, np.random.default_rng(0))
    assert str(got.value) == str(raised.value)


@pytest.mark.parametrize("bad", [[0, 2], [-1, 1], [[0, 1]], np.array([0, 1], dtype=object)])
def test_convey_rejects_non_bit_payloads(bad):
    with pytest.raises(ValueError, match="bit vector"):
        convey(CodeSpec.parse("rep:3"), bad, NOISELESS, np.random.default_rng(0))


def _exhaustive_block(blocks):
    runs, bits_used = run_exhaustive_block(FOLLOW, blocks)
    return [(bits.tolist(), finals.tolist()) for bits, finals in runs.values()], bits_used


TABLE_BITS = "transmission table entries must be bits"
# every function that takes bits or bit tables: its error message, the shape
# of its input (the eight bits of the four two-state tables, as tables, one
# block of them or a flat vector) and a call whose result compares with ==
BIT_ENTRY_POINTS = {
    "FiniteStateProtocol": (TABLE_BITS, (4, 2), lambda t: FiniteStateProtocol(4, 2, FOLLOW, t)),
    "random_protocol": (TABLE_BITS, (4, 2), lambda t: random_protocol(8, 2, t, 0, FOLLOW)),
    "resolve_functions": (TABLE_BITS, (4, 2), lambda t: resolve_functions(list(t), 2).tolist()),
    "is_useful": (TABLE_BITS, (4, 2), lambda t: is_useful(t, 2)),
    "coincidence_failure_trials": (TABLE_BITS, (4, 2),
                                   lambda t: coincidence_failure_trials(FOLLOW, t, 4, 10, 0)),
    "run_exhaustive_block": ("blocks must hold only bits", (1, 4, 2), _exhaustive_block),
    "disj_via_protocol": ("x and y must hold only bits", (4, 2),
                          lambda t: disj_via_protocol(t, t[::-1]).tolist()),
    "build_example2": ("alpha must be a bit vector", (8,), lambda v: build_example2(v, v)),
    "convey": ("message must be a bit vector", (8,), lambda v: convey(
        CodeSpec.parse("rep:1"), v, NOISELESS, np.random.default_rng(0)).bits.tolist()),
    "convey-oracle": ("message must be a bit vector", (8,), lambda v: convey(
        CodeSpec.parse("oracle:0.5"), v, NOISELESS, np.random.default_rng(0)).bits.tolist()),
    "transmit": ("inputs must be bits", (8,),
                 lambda v: NOISELESS.transmit(v, np.random.default_rng(0)).tolist()),
}


NON_BITS = [2, -1, 0.5, float("nan"), float("inf"), None, 1.7, 0.999, -0.5]


@pytest.mark.parametrize("bad", NON_BITS, ids=[f"bad{i}" for i in range(len(NON_BITS))])
def test_non_bit_floats_are_rejected_not_truncated(bad):
    for name, (message, shape, call) in BIT_ENTRY_POINTS.items():
        flat = [0, 0, 0, 1, 1, 0, 1, 1]
        bits = np.array(flat, dtype=np.uint8).reshape(shape)
        flat[3] = bad
        with pytest.raises(ValueError, match=message):
            call(np.array(flat, dtype=object if bad is None else None).reshape(shape))
        if bad in (2, -1):  # as uint8 (-1 is 255): a flat one takes the one byte scan
            with pytest.raises(ValueError, match=message):
                call(np.array(flat, dtype=np.int64).astype(np.uint8).reshape(shape))
        # a list of ints, bools, other integer types and integral floats are bits
        want = call(bits)
        for good in (bits.tolist(), bits.astype(bool), bits.astype(np.int8),
                     bits.astype(np.int64), np.where(bits, 1.0, -0.0)):
            assert call(good) == want, name
    for channel in ("bsc:0.1", "bec:0.1"):
        assert ChannelModel.parse(channel).transmit([0, 1, 1], np.random.default_rng(0)).dtype \
            == np.uint8


# ---------------------------------------------------------------------------
# exhaustive: every output word of small codes, and random awgn outputs

SMALL_RLC = [(k, k * x) for k in range(1, 5) for x in range(1, 11) if k * x <= 10]


@pytest.mark.parametrize("channel", ["bsc:0", "bsc:0.02", "bsc:0.3", "bsc:0.5", "bsc:0.7",
                                     "bsc:1", "bec:0", "bec:0.2", "bec:1", "awgn:0.3",
                                     "awgn:1.2"])
def test_small_codes_decode_to_the_smallest_ml_message(channel, monkeypatch):
    # rep:1-4 and rlc chunk codes of k <= 4 message bits and b <= 10 code
    # bits: every bsc output word, every bec word for b <= 8, and 300
    # random awgn words per code
    ch, draw = ChannelModel.parse(channel), np.random.default_rng(41)

    def outputs(b):
        if ch.kind == "awgn":
            return draw.normal(0.0, 1.5, (300, b))
        return np.array(list(itertools.product(range(2 if ch.kind == "bsc" else 3), repeat=b)))

    sent = []
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng: sent[-1].copy())
    for r in range(1, 5):  # every word of rep:r in one transfer
        words = outputs(r)
        sent.append(words.ravel())
        got = convey(CodeSpec("rep", r), np.zeros(len(words), dtype=np.int64), ch,
                     np.random.default_rng(0))
        assert tuple(got.bits.tolist()) == _ml_rep_bits(ch, words, r)
    for k, b in SMALL_RLC:
        if ch.kind == "bec" and b > 8:
            continue
        books = coding._BOOKS(k, b, [b])
        words = outputs(b)
        got = coding._rlc_decide(ch, np.broadcast_to(books, (len(words),) + books.shape[1:]),
                                 words)
        keys = _ml_keys(ch, np.unpackbits(books[0].T, axis=-1, count=b), words)
        assert got.tolist() == (keys == keys.min(axis=1, keepdims=True)).argmax(axis=1).tolist()


# ---------------------------------------------------------------------------
# the repetition path against a plain reference: repeat, send, reshape and sum

def _reference_transmit(ch, x, rng):
    if ch.kind == "bsc":
        return np.where(rng.random(x.size) < ch.param, 1 - x, x)
    if ch.kind == "bec":
        return np.where(rng.random(x.size) < ch.param, ERASURE, x)
    return (1.0 - 2.0 * x) + ch.param * rng.standard_normal(x.size)


def _reference_log_likelihoods(ch, y):
    """The per-symbol ``np.where`` formulas of ``bit_log_likelihoods``."""
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
    decoded = _ml_rep_bits(ch, _reference_transmit(ch, x, rng), r)
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
            assert (tuple(got.bits.tolist()), got.channel_uses, got.intact) == \
                _reference_rep_convey(r, payload, ch, rng_b)
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


def test_convey_rep_makes_one_transmit_and_no_likelihood_call(monkeypatch):
    rng = np.random.default_rng(0)
    calls = _counted_calls(monkeypatch)
    for spec in ("rep:1", "rep:3"):
        for channel in ("bsc:0.1", "bec:0.1", "awgn:0.8"):
            calls.clear()
            convey(CodeSpec.parse(spec), [1, 0] * 20, ChannelModel.parse(channel), rng)
            assert calls == ["transmit"]
    # the second bit's outputs sum to exactly 0: a tie, which goes to 0
    ch, word = ChannelModel.parse("awgn:0.8"), np.array([1.0, -2.0, 1.5, 0.5, -0.25, -0.25])
    monkeypatch.setattr(ChannelModel, "transmit",
                        lambda self, bits, rng: calls.append("transmit") or word.copy())
    calls.clear()
    got = convey(CodeSpec.parse("rep:3"), [1, 0], ch, rng)
    assert calls == ["transmit"]
    assert got.bits.tolist() == [0, 0]


def test_awgn_rep_sums_each_bit_in_repeat_order(monkeypatch):
    # both bits' outputs sum to exactly -1e-17, but the float sum in repeat
    # order is (1 - 1e-17) - 1 = 0 for the first, a tie that goes to 0, and
    # (-1 + 1) - 1e-17 < 0 for the second
    word = np.array([1.0, -1e-17, -1.0, -1.0, 1.0, -1e-17])
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng: word.copy())
    got = convey(CodeSpec.parse("rep:3"), [0, 0], ChannelModel("awgn", 0.8),
                 np.random.default_rng(0))
    assert got.bits.tolist() == [0, 1]
    assert math.fsum(word[:3]) == math.fsum(word[3:]) == -1e-17


def test_warm_awgn_rep_trial_makes_no_likelihood_call(monkeypatch):
    # the mstate-awgn-16k benchmark's trial: one transmit per convey, no likelihoods
    cfg = harness.ExperimentConfig(
        scheme="m-state", placement="last", channel="awgn:0.4", code="rep:3",
        protocol={"type": "markovian", "log_M": 1, "functions": "all"})
    harness.run_trial(cfg, 16384, 0)
    conveys, send = [], coding.convey
    monkeypatch.setattr(vertical, "convey", lambda *a, **kw: conveys.append(1) or send(*a, **kw))
    calls = _counted_calls(monkeypatch)
    report = harness.run_trial(cfg, 16384, 0)
    assert not report.lookahead_failure and len(report.column_errors) == 128
    assert calls == ["transmit"] * len(conveys) and len(conveys) >= 128


# ---------------------------------------------------------------------------
# the sign-of-sum rule of awgn rep transfers against exact ML by math.fsum

def _adversarial_words(ch, r, draw):
    """(kind, outputs) awgn rep:r transfers of 6 bits, one bit of each
    built to sum to 0 or to within an ulp of +-5e-10 sigma^2, the tie
    offset of an earlier rule, or every output at extreme scale."""
    s2 = ch.param * ch.param
    offset = 1e-9 * s2 / 2
    for target in (0.0, -0.0, offset, -offset,
                   np.nextafter(offset, 1), np.nextafter(offset, 0),
                   np.nextafter(-offset, -1), np.nextafter(-offset, 0)):
        for split in (False, True):
            y = ch.transmit(draw.integers(0, 2, 6).repeat(r), draw)
            bit = draw.integers(0, 6) * r
            y[bit: bit + r] = 0.0
            y[bit] = target
            if split and r > 1:  # the same sum, from outputs of order one
                x = draw.standard_normal()
                y[bit], y[bit + 1] = x, target - x
            yield "near", y
    for kind, low, high in (("tiny", -300, -20), ("huge", 140, 150),
                            ("scaled", -300, 150), ("scaled", -3, 3)):
        yield kind, 10.0 ** draw.uniform(low, high, 6 * r) * draw.choice((-1.0, 1.0), 6 * r)
    for _ in range(2):  # every bit's sum twice the old offset
        y = np.zeros(6 * r)
        y[::r] = draw.choice((-2 * offset, 2 * offset), 6)
        yield "small", y


def _check_awgn_rep_words(ch, r, words, monkeypatch):
    """Send each of the awgn ``words`` as a rep:r transfer; check its bits
    against exact ML and that no likelihoods are made."""
    sent = []
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng: sent[-1].copy())
    calls = _counted_calls(monkeypatch, ("bit_log_likelihoods",))
    for kind, y in words:
        sent.append(y)
        got = convey(CodeSpec("rep", r), np.zeros(y.size // r, dtype=np.int64), ch,
                     np.random.default_rng(0))
        assert tuple(got.bits.tolist()) == _ml_rep_bits(ch, y, r), kind
    assert calls == []


@pytest.mark.parametrize("sigma", [0.05, 0.4, 1.3, 3.0, 50.0])
@pytest.mark.parametrize("r", range(1, 10))
def test_awgn_rep_sum_rule_equals_exact_ml(sigma, r, monkeypatch):
    ch, draw = ChannelModel("awgn", sigma), np.random.default_rng(int(sigma * 100) + r)
    words = [("random", ch.transmit(draw.integers(0, 2, k).repeat(r), draw))
             for k in (1, 2, 7, 64, 128, 300) for _ in range(5)]
    words += list(_adversarial_words(ch, r, draw))
    _check_awgn_rep_words(ch, r, words, monkeypatch)


@pytest.mark.parametrize("sigma", [1e-160, 1e-145, 1e140, 1e160])
@pytest.mark.parametrize("r", [1, 3])
def test_awgn_rep_sum_rule_at_extreme_sigma(sigma, r, monkeypatch):
    # the log-likelihoods of outputs of 1e10 overflow to -inf at sigma =
    # 1e-145; the sums of the outputs stay finite
    ch, draw = ChannelModel("awgn", sigma), np.random.default_rng(r)
    words = [("scaled", draw.choice((-1.0, 1.0), 4 * r) * scale) for scale in (1.0, 1e10, 1e100)]
    words.append(("random", ch.transmit(draw.integers(0, 2, 4 * r), draw)))
    _check_awgn_rep_words(ch, r, words, monkeypatch)


# ---------------------------------------------------------------------------
# the sign rule of bsc and bec rep transfers against exact ML by vote counts

@pytest.mark.parametrize("kind", ["bsc", "bec"])
@pytest.mark.parametrize("param", [0.0, 0.02, 0.05, 0.5 - 3e-10, 0.5 - 2e-10, 0.5 - 1e-12,
                                   0.5, 1.0])
def test_rep_decision_equals_exact_ml_on_every_output_tuple(kind, param, monkeypatch):
    # every output tuple of r repeats, r = 1 .. 12 on bsc and 1 .. 7 on bec;
    # just below eps = 0.5 the likelihood gap of a vote is below 1e-9, and
    # the integer votes still decide
    ch = ChannelModel(kind, param)
    q, top = (2, 12) if kind == "bsc" else (3, 7)
    sent = []
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng: sent[-1].copy())
    calls = _counted_calls(monkeypatch, ("bit_log_likelihoods",))
    for r in range(1, top + 1):
        tuples = np.array(list(itertools.product(range(q), repeat=r)))
        sent.append(tuples.ravel())
        got = convey(CodeSpec("rep", r), np.zeros(len(tuples), dtype=np.int64), ch,
                     np.random.default_rng(0))
        assert tuple(got.bits.tolist()) == _ml_rep_bits(ch, tuples, r)
    assert calls == []


@pytest.mark.parametrize("channel, r", [
    ("bsc:0.05", 13), ("bsc:0.45", 13), ("bsc:0.45", 14),
    ("bec:0.05", 8), ("bec:0.6", 8), ("bec:0.6", 9),
    ("bsc:0.5", 3), ("bsc:0.7", 3), ("bsc:0.7", 13),
    ("bec:1", 3), ("bec:1", 8)])
def test_long_rep_codes_decide_by_exact_vote_counts(channel, r, monkeypatch):
    ch, spec, draw = ChannelModel.parse(channel), CodeSpec.parse(f"rep:{r}"), \
        np.random.default_rng(r)
    sent = _transmits(monkeypatch)
    calls = _counted_calls(monkeypatch, ("bit_log_likelihoods",))
    errors = 0
    for k in (1, 3, 40, 200):
        payload = draw.integers(0, 2, k)
        got = convey(spec, payload, ch, draw)
        assert tuple(got.bits.tolist()) == _ml_rep_bits(ch, sent[-1][1], r)
        assert got.channel_uses == k * r
        errors += not got.intact
    assert calls == []
    assert errors or channel in ("bsc:0.05", "bec:0.05")


@pytest.mark.parametrize("channel, output", [("bsc:0.1", 2), ("bsc:0.1", -1),
                                             ("bec:0.1", 3), ("bec:0.1", -1)])
@pytest.mark.parametrize("r", [1, 3])
def test_rep_sign_rule_keeps_the_alphabet_check(channel, output, r, monkeypatch):
    # the sign rule reads the outputs without bit_log_likelihoods, and checks
    # their alphabet as it does
    ch = ChannelModel.parse(channel)
    with pytest.raises(ValueError, match="outputs must") as raised:
        ch.bit_log_likelihoods([output])
    monkeypatch.setattr(ChannelModel, "transmit",
                        lambda self, bits, rng: np.where(np.arange(len(bits)) == 0, output, bits))
    monkeypatch.setattr(ChannelModel, "bit_log_likelihoods", None)  # the check must not need it
    with pytest.raises(ValueError, match="outputs must") as got:
        convey(CodeSpec.parse(f"rep:{r}"), [0, 1], ch, np.random.default_rng(0))
    assert str(got.value) == str(raised.value)
