"""Block codes through ``convey``: repetition, seeded random linear, the
statistical oracle."""

import itertools
import math

import numpy as np
import pytest

from icsim import coding, harness, vertical
from icsim.channel import ERASURE, ChannelModel
from icsim.coding import RLC_CHUNK, CodeSpec, OracleCode, RandomLinearCode, convey

NOISELESS = ChannelModel.bsc(0.0)
LN2 = math.log(2)
SEED_STRIDE = 1000003  # an rlc chunk code's seed is matrix_seed * SEED_STRIDE + chunk offset


def _transmits(monkeypatch):
    """Every (sent, received) pair of ``ChannelModel.transmit`` from now on."""
    pairs = []
    transmit = ChannelModel.transmit
    monkeypatch.setattr(ChannelModel, "transmit", lambda self, bits, rng:
                        pairs.append((np.array(bits), transmit(self, bits, rng))) or pairs[-1][1])
    return pairs


def _reference_codebook(code):
    """Messages in big-endian order and their codewords, from a plain int64
    matrix product."""
    messages = np.array(list(itertools.product((0, 1), repeat=code.k)), dtype=np.int64)
    return messages, (messages @ code.generator) % 2


def _first_argmax(messages, cb, ll):
    """The message of the first maximum of the float codeword scores."""
    return tuple(messages[int(np.argmax(cb @ ll[:, 1] + (1 - cb) @ ll[:, 0]))].tolist())


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
    ch = ChannelModel.bsc(0.2)
    assert _rep_decode(monkeypatch, [1, 1, 0], ch) == (1,)
    assert _rep_decode(monkeypatch, [0, 1, 0], ch) == (0,)


@pytest.mark.parametrize("repeats", [1, 2, 3, 4, 5])
def test_repetition_ml_equals_majority(repeats, monkeypatch):
    # ties (even splits) go to 0, the lexicographically smaller message
    ch = ChannelModel.bsc(0.2)
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
    spec, ch = CodeSpec.parse("rlc:3"), ChannelModel.bsc(eps)
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
    msg = tuple(rng.integers(0, 2, 8).tolist())
    for spec in ("rep:3", "rlc:2"):
        got = convey(CodeSpec.parse(spec), msg, NOISELESS, rng, matrix_seed=5)
        assert got.bits.tolist() == list(msg)
    oracle = OracleCode(k=8, rate=0.5, channel=NOISELESS)
    got, flag = oracle.oracle_transmit(msg, rng)
    assert got == msg and not flag


def test_channel_use_accounting():
    rep = convey(CodeSpec.parse("rep:3"), [1] * 8, NOISELESS, np.random.default_rng(0))
    assert rep.channel_uses == 24
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
    ch = ChannelModel.bsc(0.2)
    payload = tuple(np.random.default_rng(8).integers(0, 2, 24))
    a = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    b = convey(CodeSpec.parse("rlc:2"), payload, ch, np.random.default_rng(77), matrix_seed=1)
    assert np.array_equal(a.bits, b.bits)
    assert (a.channel_uses, a.intact) == (b.channel_uses, b.intact)


@pytest.mark.parametrize("spec", ["bsc:0.02", "bsc:0.3", "bec:0.2", "awgn:0.8"])
def test_linear_decode_is_first_argmax_of_float_score(spec, monkeypatch):
    # on BSC many codewords tie in exact arithmetic; the float score decides
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
            ll = ch.bit_log_likelihoods(sent[-1][1])
            assert tuple(got.bits.tolist()) == _first_argmax(messages, cb, ll)


def _convey_per_chunk(spec, payload, ch, rng, matrix_seed):
    """One code, one transmit and one first-argmax decode per chunk."""
    decoded, uses = [], 0
    for idx in range(0, len(payload), RLC_CHUNK):
        part = payload[idx: idx + RLC_CHUNK]
        code = RandomLinearCode(len(part), math.ceil(len(part) * spec.value),
                                seed=matrix_seed * SEED_STRIDE + idx)
        messages, cb = _reference_codebook(code)
        out = ch.transmit(np.array(part) @ code.generator % 2, rng)
        decoded.extend(_first_argmax(messages, cb, ch.bit_log_likelihoods(out)))
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
        assert (tuple(got.bits.tolist()), got.channel_uses, got.intact) == want
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_convey_rlc_makes_one_transmit_call(monkeypatch):
    sent = _transmits(monkeypatch)
    result = convey(CodeSpec.parse("rlc:3"), [1, 0] * 20, ChannelModel.bsc(0.1),
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
    spec, ch = CodeSpec.parse("rlc:2"), ChannelModel.bsc(0.0)
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


def _old_generator(k, b, seed):
    """Draw generators from successive seeds until one has GF(2) rank k."""
    attempt = seed
    while True:
        g = np.random.default_rng(attempt).integers(0, 2, size=(k, b), dtype=np.int64)
        if _gf2_rank([int("".join(map(str, row)), 2) for row in g]) == k:
            return g
        attempt += 1


@pytest.mark.parametrize("k", range(1, 17))
def test_rank_test_draws_the_generators_of_the_gf2_rank_draw(k):
    # past RLC_CHUNK, which RandomLinearCode stops at, the draw is read off
    # _packed_book directly: the rows of the messages with one bit set
    for b in sorted({k, k + 1, k + 3, 2 * k}):
        for seed in range(0, 12 if k < 14 else 4):
            seed = seed * SEED_STRIDE + k
            book = np.frombuffer(coding._packed_book(k, b, seed), dtype=np.uint8)
            rows = book.reshape(-1, 1 << k).T[1 << np.arange(k - 1, -1, -1)]
            drawn = np.unpackbits(rows, axis=-1, count=b)
            assert np.array_equal(drawn, _old_generator(k, b, seed))
            if k <= RLC_CHUNK:
                assert np.array_equal(RandomLinearCode(k, b, seed=seed).generator, drawn)


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
        assert list(cache._books) == [(6, 8, s) for s in held]
    cache(6, 8, [7])  # a hit makes seed 7 the most recent
    cache(6, 8, [10])
    assert list(cache._books) == [(6, 8, s) for s in (9, 7, 10)]
    assert cache.misses == 11 and cache.size <= cache.limit
    cache(6, 8, [7, 9, 10])
    assert cache.misses == 11
    big = coding._BookCache(limit=book - 1)  # one book alone passes the bound
    assert big(6, 8, [0]).swapaxes(1, 2).shape == (1, 64, 1) and big.size == 0 and not big._books


def test_warm_rlc_trial_builds_no_codebook(monkeypatch):
    cfg = harness.ExperimentConfig(scheme="genie", channel="bsc:0.02", code="rlc:3")
    harness.run_trial(cfg, 4096, 0)
    builds, calls = [], []
    build, send = coding._codebooks, coding.convey
    monkeypatch.setattr(coding, "_codebooks", lambda g: builds.append(g.shape) or build(g))
    monkeypatch.setattr(vertical, "convey", lambda *a, **kw: calls.append(1) or send(*a, **kw))
    sent, scored = _transmits(monkeypatch), _scored_books(monkeypatch)
    harness.run_trial(cfg, 4096, 0)
    assert builds == [] and len(calls) == 64 and len(sent) == 64
    # 64 columns of 8 chunks: only chunks whose nearest codeword ties are scored in floats
    assert sum(len(books) for books in scored) <= 4


# ---------------------------------------------------------------------------
# the nearest-codeword rule of bsc and bec rlc transfers against _ml_scores

def _scored_books(monkeypatch):
    """The books of every ``_ml_scores`` call from now on, one array a call."""
    books_scored = []
    score = coding._ml_scores
    monkeypatch.setattr(coding, "_ml_scores", lambda books, b, ll:
                        books_scored.append(np.array(books)) or score(books, b, ll))
    return books_scored


def _chunk_codes(spec, length, matrix_seed):
    """(chunk size, codeword length, byte-major book) of each chunk of a
    ``length``-bit rlc transfer, in payload order."""
    codes = []
    for start in range(0, length, RLC_CHUNK):
        k = min(RLC_CHUNK, length - start)
        b = math.ceil(k * spec.value)
        codes.append((k, b, coding._BOOKS(k, b, [matrix_seed * SEED_STRIDE + start])[0]))
    return codes


def _distances(book, b, y):
    """Hamming distance of every codeword of a byte-major book to the
    outputs ``y``, over the positions that are not erased."""
    words = np.unpackbits(book.T, axis=-1, count=b).astype(np.int64)
    return ((words != y) & (y != ERASURE)).sum(axis=1)


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


@pytest.mark.parametrize("kind, param", [
    ("bsc", 0.0), ("bsc", 0.02), ("bsc", 0.3), ("bsc", 0.5 - 1e-12), ("bsc", 0.5),
    ("bsc", 0.7), ("bsc", 1.0), ("bec", 0.0), ("bec", 0.2), ("bec", 1.0)])
def test_rlc_nearest_codeword_rule_equals_first_argmax_of_ml_scores(kind, param, monkeypatch):
    ch = ChannelModel(kind, param)
    score = coding._ml_scores
    transmit = ChannelModel.transmit
    scored = _scored_books(monkeypatch)
    draw = np.random.default_rng(29)
    ties = 0
    for k in range(1, RLC_CHUNK + 1):
        for x in (1, 2, 3, 5):  # b = k * x: every k < 8 gives some b % 8 != 0
            spec = CodeSpec("rlc", x)
            for trial in range(6):
                length = 3 * RLC_CHUNK + k  # three full chunks, then k bits
                payload = draw.integers(0, 2, length)
                codes = _chunk_codes(spec, length, trial)
                force = trial % 2  # every other transfer sends chunks 0 and 2 midway

                def fake(self, bits, rng, codes=codes, force=force):
                    y, at = transmit(self, bits, rng), 0
                    for i, (size, b, book) in enumerate(codes):
                        if force and i % 2 == 0:
                            y[at: at + b] = _midway(book, b, bits[at: at + b],
                                                    draw.integers(1, 1 << size), kind == "bec")
                        at += b
                    return y

                monkeypatch.setattr(ChannelModel, "transmit", fake)
                sent = _transmits(monkeypatch)
                scored.clear()
                got = convey(spec, payload, ch, np.random.default_rng(trial), matrix_seed=trial)
                y = sent[-1][1]
                want, fallback, at = [], [], 0
                for size, b, book in codes:
                    ll = ch.bit_log_likelihoods(y[at: at + b])
                    want.extend(coding._index_bits(score(book, b, ll).argmax(), size).tolist())
                    dist = _distances(book, b, y[at: at + b])
                    tied = np.count_nonzero(dist == dist.min()) > 1
                    decides = coding._distance_decides(ch, b)
                    assert decides == (kind == "bsc" and param < 0.5 or kind == "bec" and param < 1)
                    if tied or not decides:
                        fallback.append(book)
                    ties += tied and decides
                    at += b
                assert got.bits.tolist() == want
                books = [book for call in scored for book in call]
                assert len(books) == len(fallback)
                assert all(np.array_equal(a, b) for a, b in zip(books, fallback))
    if kind == "bec" and param < 1 or kind == "bsc" and param < 0.5:
        assert ties >= 50  # the forced midway chunks took the fallback


@pytest.mark.parametrize("code", ["rlc:2", "rlc:3"])
def test_convey_rlc_makes_one_transmit_and_likelihoods_only_on_awgn(code, monkeypatch):
    spec, rng = CodeSpec.parse(code), np.random.default_rng(0)
    payload = [1, 0, 0, 1, 1] * 8
    channels = ("bsc:0.05", "bec:0.1", "awgn:0.8")
    for channel in channels:  # caches the books before the calls are counted
        convey(spec, payload, ChannelModel.parse(channel), rng, matrix_seed=3)
    scored, calls = _scored_books(monkeypatch), []
    for name in ("transmit", "bit_log_likelihoods"):
        original = getattr(ChannelModel, name)
        monkeypatch.setattr(ChannelModel, name, lambda self, *a, _f=original, _n=name:
                            calls.append(_n) or _f(self, *a))
    for channel in channels:
        untied = 0
        for seed in range(10):
            calls.clear()
            scored.clear()
            convey(spec, payload, ChannelModel.parse(channel), np.random.default_rng(seed),
                   matrix_seed=3)
            if channel == "awgn:0.8":
                assert calls == ["transmit", "bit_log_likelihoods"]
                assert sum(len(books) for books in scored) == 5
            else:  # the likelihoods are made only for a chunk that ties
                assert calls == ["transmit"] + ["bit_log_likelihoods"] * bool(scored)
                untied += not scored
        assert untied >= 5 or channel == "awgn:0.8"


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


def test_convey_rep_makes_one_transmit_and_likelihoods_only_on_awgn(monkeypatch):
    rng = np.random.default_rng(0)
    specs = ("rep:1", "rep:3")
    channels = ("bsc:0.1", "bec:0.1", "awgn:0.8")
    for spec in specs:  # builds the decision tables before the calls are counted
        for channel in channels:
            convey(CodeSpec.parse(spec), [1, 0], ChannelModel.parse(channel), rng)
    calls = []
    for name in ("transmit", "bit_log_likelihoods"):
        original = getattr(ChannelModel, name)
        monkeypatch.setattr(ChannelModel, name, lambda self, *a, _f=original, _n=name:
                            calls.append(_n) or _f(self, *a))
    for spec in specs:
        for channel in channels:
            calls.clear()
            convey(CodeSpec.parse(spec), [1, 0] * 20, ChannelModel.parse(channel), rng)
            want = ["transmit"] if channel != "awgn:0.8" else ["transmit", "bit_log_likelihoods"]
            assert calls == want


# ---------------------------------------------------------------------------
# the cached rep decision tables of bsc and bec against the formula

@pytest.mark.parametrize("kind", ["bsc", "bec"])
@pytest.mark.parametrize("param", [0.0, 0.02, 0.05, 0.5 - 1e-12, 0.5, 1.0])
def test_rep_decision_table_equals_the_formula_on_every_output_tuple(kind, param):
    ch = ChannelModel(kind, param)
    q, cap = (2, 12) if kind == "bsc" else (3, 7)
    assert q ** cap <= coding._REP_TABLE_MAX < q ** (cap + 1)
    for r in range(1, cap + 1):
        decisions, size, powers = coding._rep_decisions(ch, r)
        assert size == q and decisions.dtype == np.uint8 and not decisions.flags.writeable
        tuples = list(itertools.product(range(q), repeat=r))
        assert decisions.size == len(tuples)
        assert np.array_equal(np.array(tuples) @ powers, np.arange(len(tuples)))
        # one tuple at a time, so no other bit shares the formula's arrays
        for code, outputs in enumerate(tuples):
            ll = ch.bit_log_likelihoods(outputs)
            assert decisions[code] == coding._repetition_decide(ll, r)[1][0]
    assert coding._rep_decisions(ch, cap + 1) is None


def test_rep_transfer_past_the_table_cap_takes_the_formula_path(monkeypatch):
    calls = []
    original = ChannelModel.bit_log_likelihoods
    monkeypatch.setattr(ChannelModel, "bit_log_likelihoods",
                        lambda self, y: calls.append(len(y)) or original(self, y))
    rng = np.random.default_rng(0)
    for channel, r in (("bsc:0.05", 13), ("bec:0.05", 8)):
        calls.clear()
        got = convey(CodeSpec.parse(f"rep:{r}"), [1, 0, 1], ChannelModel.parse(channel), rng)
        assert calls == [3 * r] and got.channel_uses == 3 * r


@pytest.mark.parametrize("channel, output", [("bsc:0.1", 2), ("bsc:0.1", -1),
                                             ("bec:0.1", 3), ("bec:0.1", -1)])
@pytest.mark.parametrize("r", [1, 3])
def test_rep_table_path_keeps_the_alphabet_check(channel, output, r, monkeypatch):
    ch = ChannelModel.parse(channel)
    with pytest.raises(ValueError, match="outputs must") as raised:
        ch.bit_log_likelihoods([output])
    assert coding._rep_decisions(ch, r) is not None
    monkeypatch.setattr(ChannelModel, "transmit",
                        lambda self, bits, rng: np.where(np.arange(len(bits)) == 0, output, bits))
    with pytest.raises(ValueError, match="outputs must") as got:
        convey(CodeSpec.parse(f"rep:{r}"), [0, 1], ch, np.random.default_rng(0))
    assert str(got.value) == str(raised.value)
