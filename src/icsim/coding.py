"""Block codes used to carry vertical-block and side-channel payloads.

Three code families:

* ``RepetitionCode``   : each message bit repeated r times, per-bit ML decode.
* ``RandomLinearCode`` : seeded random full-rank generator matrix over GF(2),
                         exact ML decoding by exhaustive search (k <= 16).
* ``OracleCode``       : statistical stand-in for an optimal code. Nothing is
                         physically transmitted; ``oracle_transmit`` corrupts
                         the message to a uniformly random wrong one with the
                         random-coding probability p* = exp(-(k/R) Er(R) ln 2)
                         and charges ceil(k/R) channel uses.

Decoding is maximum likelihood under the channel law. ``convey`` with
``rep:r`` makes one ``ChannelModel.transmit`` call for the r-fold repeated
payload and, like ``RepetitionCode.decode``, sums each bit's log-likelihoods
by strided adds ``ll[0::r] + ll[1::r] + ...`` in repeat order; a bit is 1
only if its 1-sum beats its 0-sum by more than 1e-9, so ties go to 0. A
random linear code picks the first maximum of its floating-point
codeword scores ``cb @ L[:, 1] + (1 - cb) @ L[:, 0]`` (``cb`` the codebook,
rows in message order, ``L`` the bit log-likelihoods). On exact ties the
summation rounding decides, so the winner need not be the smallest message.

``convey`` with ``rlc`` splits the payload into chunks with one seeded code
each, builds all chunk codebooks in one array, sends the concatenated
codewords through one ``ChannelModel.transmit`` call and scores up to 64
chunks in one batched product. numpy's Generator yields the same values from one
draw of size a+b as from a draw of a then b, so this consumes the random
stream exactly as one transmit per chunk would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import LN2, ChannelModel

_MAX_EXHAUSTIVE_K = 16


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[int, ...]
    ml_score: float


def _as_bits(message: Sequence[int], k: int | None = None) -> np.ndarray:
    """The message as an int64 bit vector, of length ``k`` when given."""
    bits = np.asarray(message, dtype=np.int64)
    if bits.ndim != 1 or np.count_nonzero(bits & ~1):
        raise ValueError("message must be a bit vector")
    if k is not None and bits.size != k:
        raise ValueError(f"expected {k} message bits")
    return bits


@dataclass(frozen=True)
class RepetitionCode:
    """k message bits, each sent ``repeats`` times."""

    k: int
    repeats: int

    kind = "repetition"

    def __post_init__(self) -> None:
        if self.k < 1 or self.repeats < 1:
            raise ValueError("k and repeats must be positive")

    @property
    def codeword_length(self) -> int:
        return self.k * self.repeats

    def encode(self, message: Sequence[int]) -> np.ndarray:
        return np.repeat(_as_bits(message, self.k), self.repeats)

    def decode(self, outputs, channel: ChannelModel) -> DecodeResult:
        ll = channel.bit_log_likelihoods(outputs)
        if ll.shape[0] != self.codeword_length:
            raise ValueError("output length does not match codeword length")
        per_bit, picks = _repetition_decide(ll, self.repeats)
        score = float(per_bit[np.arange(self.k), picks].sum())
        return DecodeResult(tuple(picks.tolist()), score)


def _repetition_decide(ll: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2) sums ``ll[0::r] + ll[1::r] + ...`` of a repetition
    codeword's (k * r, 2) bit log-likelihoods, and the uint8 pick of each
    bit. The 1e-9 margin absorbs float summation noise on exact ties, which
    go to 0, without touching real decisions."""
    per_bit = ll[0::r]
    for i in range(1, r):
        per_bit = per_bit + ll[i::r]
    return per_bit, (per_bit[:, 1] > per_bit[:, 0] + 1e-9).view(np.uint8)


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


# A trial at n = 65536 (m = 256) with rlc chunks of 8 bits walks 8,192 column
# matrices plus the side-channel ones, in the same order every trial; an LRU
# smaller than that misses on every lookup. An entry of rlc:3 costs about
# 400 bytes, so a full cache stays under 7 MB.
@lru_cache(maxsize=1 << 14)
def _linear_code_matrix(k: int, b: int, seed: int) -> bytes:
    """Draw generator matrices from successive seeds until one has rank k."""
    attempt = seed
    while True:
        g = np.random.default_rng(attempt).integers(0, 2, size=(k, b), dtype=np.int64)
        as_ints = [int("".join(map(str, row)), 2) if row.any() else 0 for row in g]
        if _gf2_rank(as_ints) == k:
            return g.astype(np.uint8).tobytes()
        attempt += 1


def _generators(k: int, b: int, seeds: Sequence[int]) -> np.ndarray:
    """Stacked (len(seeds), k, b) uint8 generator matrices."""
    raw = b"".join(_linear_code_matrix(k, b, s) for s in seeds)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(seeds), k, b)


def _codebooks(generators: np.ndarray) -> np.ndarray:
    """(..., k, b) generators -> (..., 2^k, b) uint8 codebooks.

    Row w is the codeword of the message whose bits, read as a big-endian
    integer, equal w. Built by XOR doubling: after the last t generator rows
    the first 2^t codewords are done, and XOR with the next row up gives
    the following 2^t. The codeword axis is built first in memory, so each
    step is one contiguous XOR.
    """
    k = generators.shape[-2]
    books = np.zeros((1 << k,) + generators.shape[:-2] + generators.shape[-1:], dtype=np.uint8)
    h = 1
    for i in range(k - 1, -1, -1):
        np.bitwise_xor(books[:h], generators[..., i, :], out=books[h:2 * h])
        h *= 2
    return books.swapaxes(0, -2)


def _ml_scores(books: np.ndarray, ll: np.ndarray) -> np.ndarray:
    """Log-likelihood of every codeword: (..., 2^k, b) codebooks ``cb`` and
    (..., b, 2) bit log-likelihoods ``L`` -> (..., 2^k) scores
    ``cb @ L[:, 1] + (1 - cb) @ L[:, 0]``.

    Its rounding decides exact ties, so outputs depend on this formula bit
    for bit; an algebraically equal rewrite would change them.
    """
    cb = books.astype(np.float64)
    ones = cb @ ll[..., 1, None]
    zeros = np.subtract(1.0, cb, out=cb) @ ll[..., 0, None]  # reuses cb's memory
    return (ones + zeros)[..., 0]


def _message_index(bits: np.ndarray) -> np.ndarray:
    """Big-endian integer of each (..., k) bit row."""
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _index_bits(index: np.ndarray, k: int) -> np.ndarray:
    """Inverse of ``_message_index``: (...) integers -> (..., k) bits."""
    return (np.asarray(index)[..., None] >> np.arange(k - 1, -1, -1)) & 1


@dataclass(frozen=True)
class RandomLinearCode:
    """Random full-rank linear code over GF(2) with exhaustive ML decoding."""

    k: int
    codeword_length: int
    seed: int = 0

    kind = "linear"

    def __post_init__(self) -> None:
        if not 1 <= self.k <= _MAX_EXHAUSTIVE_K:
            raise ValueError(f"k must be in 1..{_MAX_EXHAUSTIVE_K} for exhaustive ML decoding")
        if self.codeword_length < self.k:
            raise ValueError("codeword must be at least as long as the message")

    @cached_property
    def generator(self) -> np.ndarray:
        return _generators(self.k, self.codeword_length, [self.seed])[0].astype(np.int64)

    @cached_property
    def _codebook(self) -> np.ndarray:
        return _codebooks(_generators(self.k, self.codeword_length, [self.seed]))[0]

    def encode(self, message: Sequence[int]) -> np.ndarray:
        return self._codebook[_message_index(_as_bits(message, self.k))].astype(np.int64)

    def decode(self, outputs, channel: ChannelModel) -> DecodeResult:
        ll = channel.bit_log_likelihoods(outputs)
        if ll.shape[0] != self.codeword_length:
            raise ValueError("output length does not match codeword length")
        scores = _ml_scores(self._codebook, ll)
        best = int(np.argmax(scores))  # first maximum of the float scores
        return DecodeResult(tuple(_index_bits(best, self.k).tolist()), float(scores[best]))


@dataclass(frozen=True)
class OracleCode:
    """Statistical model of a capacity-approaching block code.

    Rates at or above capacity are allowed and degrade gracefully: the
    exponent is 0 there, so every transmission is corrupted (p* = 1).
    """

    k: int
    rate: float
    channel: ChannelModel

    kind = "oracle"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def codeword_length(self) -> int:
        return math.ceil(self.k / self.rate)

    @cached_property
    def corruption_probability(self) -> float:
        er = self.channel.error_exponent(self.rate)
        return math.exp(-(self.k / self.rate) * er * LN2)

    def encode(self, message: Sequence[int]) -> np.ndarray:
        return _as_bits(message, self.k)

    def decode(self, outputs, channel: ChannelModel) -> DecodeResult:
        return DecodeResult(tuple(_as_bits(outputs).tolist()), 0.0)

    def oracle_transmit(self, message: Sequence[int],
                        rng: np.random.Generator) -> tuple[tuple[int, ...], bool]:
        """Return (possibly corrupted message, error flag); always consumes
        exactly one uniform draw for the corruption decision."""
        bits = tuple(_as_bits(message, self.k).tolist())
        if rng.random() >= self.corruption_probability:
            return bits, False
        while True:
            wrong = tuple(int(b) for b in rng.integers(0, 2, size=self.k))
            if wrong != bits:
                return wrong, True


# ---------------------------------------------------------------------------
# code specs and the transport helper used by the simulation engines

@dataclass(frozen=True)
class CodeSpec:
    """Parsed form of a --code flag.

    * ``oracle:<rate>``   : OracleCode at that rate
    * ``rep:<r>``         : RepetitionCode with r repeats (rate 1/r)
    * ``rlc:<x>``         : RandomLinearCode at rate 1/x, applied to chunks
                            of at most ``chunk`` message bits so exhaustive
                            ML decoding stays tractable
    """

    kind: str
    value: float
    chunk: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("oracle", "rep", "rlc"):
            raise ValueError(f"unknown code kind {self.kind!r}")
        if self.value <= 0:
            raise ValueError("code parameter must be positive")
        if self.kind == "oracle" and self.value > 1:
            raise ValueError("oracle rate cannot exceed one bit per use")
        if self.kind in ("rep", "rlc") and int(self.value) != self.value:
            raise ValueError(f"{self.kind} parameter must be an integer")

    @classmethod
    def parse(cls, spec: str) -> "CodeSpec":
        try:
            kind, raw = spec.split(":", 1)
            return cls(kind.strip().lower(), float(raw))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad code spec {spec!r}") from exc

    @property
    def rate(self) -> float:
        return self.value if self.kind == "oracle" else 1.0 / self.value

    @property
    def name(self) -> str:
        if self.kind == "rep":
            return f"rep:{int(self.value)}"
        return f"{self.kind}:{self.value:g}"


@dataclass(frozen=True, eq=False)
class TransferResult:
    bits: np.ndarray  # the decoded bits; convey makes them a read-only uint8 array
    channel_uses: int
    intact: bool  # ground-truth flag: decoded equals what was sent

    @property
    def decoded(self) -> tuple[int, ...]:
        return tuple(self.bits.tolist())

    def __eq__(self, other) -> bool:
        key = lambda t: (t.decoded, t.channel_uses, t.intact)
        return isinstance(other, TransferResult) and key(self) == key(other)


def convey(spec: CodeSpec, bits: Sequence[int], ch: ChannelModel,
           rng: np.random.Generator, matrix_seed: int = 0) -> TransferResult:
    """Carry a bit vector from sender to receiver using the configured code.

    ``matrix_seed`` pins the generator matrices of rlc chunks so that both
    parties (and reruns) agree on the code; it must not depend on rng state.
    """
    payload = _as_bits(bits)
    if not payload.size:
        decoded, uses = payload.astype(np.uint8), 0
    elif spec.kind == "oracle":  # a corrupted message always differs from the sent one
        code = OracleCode(payload.size, spec.value, ch)
        decoded = np.array(code.oracle_transmit(payload, rng)[0], dtype=np.uint8)
        uses = code.codeword_length
    elif spec.kind == "rep":
        r = int(spec.value)
        ll = ch.bit_log_likelihoods(ch.transmit(payload.repeat(r), rng))
        decoded, uses = _repetition_decide(ll, r)[1], payload.size * r
    else:
        decoded, uses = _convey_rlc(spec, payload, ch, rng, matrix_seed)
    decoded.flags.writeable = False
    return TransferResult(decoded, uses, not np.count_nonzero(decoded != payload))


_SCORE_SLAB = 64  # chunks scored per product; bounds the float codebook copies


def _convey_rlc(spec: CodeSpec, payload: np.ndarray, ch: ChannelModel,
                rng: np.random.Generator, matrix_seed: int) -> tuple[np.ndarray, int]:
    """One independent code per chunk of ``spec.chunk`` bits (the last chunk
    may be shorter), all sent through one transmit call; returns the decoded
    bits as uint8 and the channel uses."""
    full = payload.size - payload.size % spec.chunk
    codes = []  # (chunk size, codebooks, codewords) of the full chunks, then the short one
    for start, msgs in ((0, payload[:full].reshape(-1, spec.chunk)), (full, payload[None, full:])):
        if msgs.size:
            count, size = msgs.shape
            first = matrix_seed * 1000003 + start
            seeds = range(first, first + count * size, size)
            books = _codebooks(_generators(size, math.ceil(size * spec.value), seeds))
            codes.append((size, books, books[np.arange(count), _message_index(msgs)]))
    sent = np.concatenate([words.ravel() for _, _, words in codes])
    ll = ch.bit_log_likelihoods(ch.transmit(sent, rng))
    decoded = []
    at = 0
    for size, books, words in codes:
        chunk_ll = ll[at: at + words.size].reshape(*words.shape, 2)
        at += words.size
        for i in range(0, len(books), _SCORE_SLAB):
            scores = _ml_scores(books[i: i + _SCORE_SLAB], chunk_ll[i: i + _SCORE_SLAB])
            decoded.append(_index_bits(scores.argmax(axis=-1), size).ravel())
    return np.concatenate(decoded).astype(np.uint8), sent.size
