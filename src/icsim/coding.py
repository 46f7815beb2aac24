"""Block codes used to carry vertical-block and side-channel payloads.

``convey`` moves one payload with the code a ``CodeSpec`` names:

* ``rep:r``    : each bit repeated r times, per-bit ML decode.
* ``rlc:x``    : a seeded random full-rank linear code over GF(2) at rate
                 1/x per chunk of ``RLC_CHUNK`` bits, exact ML decoding by
                 exhaustive search. ``RandomLinearCode`` gives one chunk
                 code's generator matrix.
* ``oracle:R`` : ``OracleCode``, a statistical stand-in for an optimal code.
                 Nothing is physically transmitted; ``oracle_transmit``
                 corrupts the message to a uniformly random wrong one with
                 the random-coding probability p* = exp(-(k/R) Er(R) ln 2)
                 and charges ceil(k/R) channel uses.

Decoding is maximum likelihood under the channel law. ``rep:r`` makes one
``ChannelModel.transmit`` call for the r-fold repeated payload. Its rule,
``_repetition_decide``, sums each bit's log-likelihoods by strided adds
``ll[0::r] + ll[1::r] + ...`` in repeat order; a bit is 1 only if its 1-sum
beats its 0-sum by more than 1e-9, so ties go to 0. On bsc and bec a bit's
decision is a function of its r outputs alone, so ``_rep_decisions`` runs
the rule once per (channel, r) over every output tuple, up to 4096 tuples,
and a transfer reads each bit's decision from that table. awgn, and longer
codes, run the rule on each transfer's log-likelihoods. A random linear
code picks the first maximum of its floating-point codeword scores
``cb @ L[:, 1] + (1 - cb) @ L[:, 0]`` (``cb`` the codebook, rows in message
order, ``L`` the bit log-likelihoods), ``_ml_scores``. On exact ties the
summation rounding decides, so the winner need not be the smallest message.

``rlc`` gives each chunk its own seeded code. Each code's codebook is built
once, packed to bits by ``np.packbits``, stored byte-major (byte j of every
codeword, then byte j + 1) and kept in a cache bounded in bytes; ``convey``
stacks the cached books of its chunks, unpacks only the codewords it sends
and sends them through one ``ChannelModel.transmit`` call.

On bsc and bec a codeword's score is const - d * (L_match - L_mismatch),
d its Hamming distance to the hard outputs over the unerased positions. So
a chunk decodes to its nearest codeword, found by XOR and popcount on the
packed books, when that codeword is unique and the likelihood gap exceeds
twice the float rounding bound of a b-term score (``_distance_decides``):
there the float scores provably have the same first maximum. Every other
chunk, one whose minimum distance ties, or any chunk on awgn, on bsc from
eps = 0.5 on or on bec:1, is scored by ``_ml_scores``, up to 64 chunks in
one batched product. Its float books come from ``_LUT``, every byte's bits
as exact 0.0 / 1.0, so the scores are those of a cast of the unpacked
books, bit for bit. Only such chunks need the bit log-likelihoods, so an
untied bsc or bec transfer makes no ``bit_log_likelihoods`` call.

numpy's Generator yields the same values from one draw of size a+b as from
a draw of a then b, so one transmit consumes the random stream exactly as
one transmit per chunk would.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import ERASURE, LN2, ChannelModel, _likelihood_table, discrete_outputs

RLC_CHUNK = 8  # message bits per rlc chunk code; exhaustive ML decoding stays tractable
_REP_TABLE_MAX = 4096  # output tuples of the largest cached rep decision table


def _as_bits(message: Sequence[int], k: int | None = None) -> np.ndarray:
    """The message as an int64 bit vector, of length ``k`` when given."""
    bits = np.asarray(message, dtype=np.int64)
    if bits.ndim != 1 or np.count_nonzero(bits & ~1):
        raise ValueError("message must be a bit vector")
    if k is not None and bits.size != k:
        raise ValueError(f"expected {k} message bits")
    return bits


def _repetition_decide(ll: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2) sums ``ll[0::r] + ll[1::r] + ...`` of a repetition
    codeword's (k * r, 2) bit log-likelihoods, added left to right, and the
    uint8 pick of each bit. The 1e-9 margin absorbs float summation noise on
    exact ties, which go to 0, without touching real decisions. This is the
    one definition of a rep decision: ``_rep_decisions`` tabulates it."""
    per_bit = ll if r == 1 else ll[0::r] + ll[1::r]
    for i in range(2, r):
        per_bit += ll[i::r]
    return per_bit, (per_bit[:, 1] > per_bit[:, 0] + 1e-9).view(np.uint8)


@lru_cache(maxsize=256)
def _rep_decisions(ch: ChannelModel, r: int) -> tuple[np.ndarray, int, np.ndarray] | None:
    """The rep:r decision of every output tuple of a bsc or bec channel, or
    None on awgn or when the channel has more than ``_REP_TABLE_MAX`` tuples.

    Returns the read-only uint8 decisions, the alphabet size q and the
    powers q^(r-1), ..., q, 1 that number a tuple in the order
    ``itertools.product`` lists them. The table runs ``_repetition_decide``
    on every tuple, so it holds the formula's decisions bit for bit: a bit's
    sums depend on its own r outputs alone, in the same order.
    """
    if ch.kind == "awgn":
        return None
    q = 2 if ch.kind == "bsc" else 3
    if q ** r > _REP_TABLE_MAX:
        return None
    outputs = np.array(list(itertools.product(range(q), repeat=r))).ravel()
    decisions = _repetition_decide(ch.bit_log_likelihoods(outputs), r)[1].copy()
    decisions.flags.writeable = False
    return decisions, q, q ** np.arange(r - 1, -1, -1)


def _codebooks(generators: np.ndarray) -> np.ndarray:
    """(..., k, b) uint8 generators -> (..., 2^k, b) uint8 codebooks.

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


def _packed_book(k: int, b: int, seed: int) -> bytes:
    """The codebook of the rlc chunk code of that seed, packed to bits by
    ``np.packbits`` and stored byte-major: byte j of every codeword, in
    message order, then byte j + 1, a C-order (ceil(b / 8), 2^k) array.

    Generators are drawn from successive seeds until one has rank k, which
    holds exactly when every codeword but the first (message 0) is nonzero.
    """
    attempt = seed
    while True:
        # an int64 draw pins the codes: a uint8 draw gives other bits
        g = np.random.default_rng(attempt).integers(0, 2, size=(k, b), dtype=np.int64)
        book = _codebooks(g.astype(np.uint8))
        if book[1:].any(axis=1).all():
            return np.packbits(book.T, axis=0).tobytes()
        attempt += 1


# Every trial walks the same chunk seeds in the same order: at n = 65536
# (m = 256) with rlc chunks of 8 bits that is 8,192 column codes plus the
# side-channel ones. A packed rlc:3 book is 768 bytes (6 KB unpacked), so
# such a trial holds about 6.3 MB. A bound below a trial's books would miss
# on every lookup; this one, on the packed bytes, holds a whole large trial.
_BOOK_CACHE_BYTES = 32 << 20


class _BookCache:
    """Packed chunk codebooks keyed by (k, b, seed). Once their bytes would
    pass ``limit``, the least recently used books are dropped first."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.size = 0  # bytes of the books held
        self.misses = 0
        self._books: OrderedDict[tuple[int, int, int], bytes] = OrderedDict()

    def __call__(self, k: int, b: int, seeds: Sequence[int]) -> np.ndarray:
        """Stacked (len(seeds), ceil(b / 8), 2^k) byte-major packed codebooks."""
        books = self._books
        raw = []
        for seed in seeds:
            key = (k, b, seed)
            book = books.get(key)
            if book is None:
                self.misses += 1
                book = _packed_book(k, b, seed)
                books[key] = book
                self.size += len(book)
                while self.size > self.limit:
                    self.size -= len(books.popitem(last=False)[1])
            else:
                books.move_to_end(key)
            raw.append(book)
        return np.frombuffer(b"".join(raw), dtype=np.uint8).reshape(len(raw), -1, 1 << k)


_BOOKS = _BookCache(_BOOK_CACHE_BYTES)

# row v holds the 8 bits of byte v, most significant first as np.packbits
# packs them, as exact 0.0 / 1.0 floats
_LUT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.float64)


def _ml_scores(books: np.ndarray, b: int, ll: np.ndarray) -> np.ndarray:
    """Log-likelihood of every codeword: (..., ceil(b / 8), 2^k) byte-major
    packed codebooks and (..., b, 2) bit log-likelihoods ``L`` -> (..., 2^k)
    scores ``cb @ L[:, 1] + (1 - cb) @ L[:, 0]``, ``cb`` the (..., 2^k, b)
    books as 0.0 / 1.0.

    This is the one definition of an rlc decision: the first maximum of
    these scores. Its rounding decides exact ties, so outputs depend on this
    formula bit for bit; an algebraically equal rewrite would change them.
    ``cb`` comes from ``_LUT``, whose entries are exact, so it equals a cast
    of the unpacked books. ``_nearest_codewords`` decides a bsc or bec
    chunk without it only where its answer provably equals this first
    maximum (see ``_distance_decides``).
    """
    cb = _LUT.take(books.swapaxes(-1, -2), axis=0).reshape(*books.shape[:-2], books.shape[-1], -1)
    if b % 8:
        cb = np.ascontiguousarray(cb[..., :b])
    ones = cb @ ll[..., 1, None]
    zeros = np.subtract(1.0, cb, out=cb) @ ll[..., 0, None]  # reuses cb's memory
    return (ones + zeros)[..., 0]


@lru_cache(maxsize=256)
def _distance_decides(ch: ChannelModel, b: int) -> bool:
    """Whether a unique nearest codeword is ``_ml_scores``' first maximum on
    every chunk of b-bit codewords sent over ``ch``.

    On bsc and bec a codeword at Hamming distance d from the unerased hard
    outputs scores const - d * g in exact arithmetic, g = L_match -
    L_mismatch the gap of the channel's likelihood table, so a unique
    nearest codeword beats every other by at least g. Each float score,
    two b-term dot products and their sum, is within (b + 1) * b * 2^-53 *
    max|L| of its exact value in any summation order. When g exceeds twice
    that, the float scores keep the exact order against the nearest
    codeword. Never on awgn, on bsc from eps = 0.5 on, or on bec:1.
    """
    if ch.kind == "awgn":
        return False
    table = _likelihood_table(ch.kind, ch.param)
    return bool(table[0, 0] - table[0, 1] > 2 * (b + 1) * b * 2.0 ** -53 * np.abs(table).max())


def _nearest_codewords(books: np.ndarray, y: np.ndarray,
                       erasures: bool) -> tuple[np.ndarray, np.ndarray]:
    """(count, ceil(b / 8), 2^k) byte-major books and the (count, b) bsc or
    bec outputs -> the message of each chunk's first nearest codeword, and
    the indices of the chunks where more than one codeword is nearest. With
    ``erasures`` the distance skips the positions that hold ``ERASURE``."""
    diff = books ^ np.packbits(y == 1, axis=-1)[..., None]
    if erasures:
        diff &= np.packbits(y != ERASURE, axis=-1)[..., None]
    dist = np.bitwise_count(diff, out=diff).sum(axis=1, dtype=np.min_scalar_type(y.shape[-1]))
    best = dist.argmin(axis=1)
    nearest = dist == dist[np.arange(len(dist)), best, None]
    if np.count_nonzero(nearest) == len(dist):  # one nearest codeword in every chunk
        return best, np.empty(0, dtype=np.intp)
    return best, np.flatnonzero(nearest.sum(axis=1) > 1)


def _message_index(bits: np.ndarray) -> np.ndarray:
    """Big-endian integer of each (..., k) bit row."""
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def _index_bits(index: np.ndarray, k: int) -> np.ndarray:
    """Inverse of ``_message_index``: (...) integers -> (..., k) bits."""
    return (np.asarray(index)[..., None] >> np.arange(k - 1, -1, -1)) & 1


@dataclass(frozen=True)
class RandomLinearCode:
    """Random full-rank linear code over GF(2): the (k, codeword_length)
    generator that ``convey`` draws for an rlc chunk code of that seed. k is
    at most ``RLC_CHUNK``, the largest chunk ``convey`` draws."""

    k: int
    codeword_length: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.k <= RLC_CHUNK:
            raise ValueError(f"k must be in 1..{RLC_CHUNK}, the chunk sizes convey draws")
        if self.codeword_length < self.k:
            raise ValueError("codeword must be at least as long as the message")

    @cached_property
    def generator(self) -> np.ndarray:
        """Row i is the codeword of the message with only bit i set."""
        k, b = self.k, self.codeword_length
        rows = _BOOKS(k, b, [self.seed])[0].T[1 << np.arange(k - 1, -1, -1)]
        return np.unpackbits(rows, axis=-1, count=b).astype(np.int64)


@dataclass(frozen=True)
class OracleCode:
    """Statistical model of a capacity-approaching block code.

    Rates at or above capacity are allowed and degrade gracefully: the
    exponent is 0 there, so every transmission is corrupted (p* = 1).
    """

    k: int
    rate: float
    channel: ChannelModel

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
    * ``rep:<r>``         : r repeats of each bit (rate 1/r)
    * ``rlc:<x>``         : random linear codes at rate 1/x, one per chunk
                            of at most ``RLC_CHUNK`` message bits
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in ("oracle", "rep", "rlc"):
            raise ValueError(f"unknown code kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("code parameter must be finite")
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
        y = ch.transmit(payload if r == 1 else payload.repeat(r), rng)
        table = _rep_decisions(ch, r)
        if table is None:
            decoded = _repetition_decide(ch.bit_log_likelihoods(y), r)[1]
        else:
            decisions, q, powers = table
            y = discrete_outputs(ch.kind, y, q)
            decoded = decisions.take(y if r == 1 else y.reshape(-1, r) @ powers)
        uses = payload.size * r
    else:
        decoded, uses = _convey_rlc(spec, payload, ch, rng, matrix_seed)
    decoded.flags.writeable = False
    return TransferResult(decoded, uses, not np.count_nonzero(decoded != payload))


_SCORE_SLAB = 64  # chunks scored per product; bounds the float codebook copies


def _convey_rlc(spec: CodeSpec, payload: np.ndarray, ch: ChannelModel,
                rng: np.random.Generator, matrix_seed: int) -> tuple[np.ndarray, int]:
    """One independent code per chunk of ``RLC_CHUNK`` bits (the last chunk
    may be shorter), all sent through one transmit call; returns the decoded
    bits as uint8 and the channel uses. A chunk is decoded by its nearest
    codeword where ``_distance_decides``, else by ``_ml_scores``."""
    full = payload.size - payload.size % RLC_CHUNK
    codes = []  # (chunk size, codeword length, packed books, codewords), full chunks first
    for start, msgs in ((0, payload[:full].reshape(-1, RLC_CHUNK)), (full, payload[None, full:])):
        if msgs.size:
            count, size = msgs.shape
            b = math.ceil(size * spec.value)
            first = matrix_seed * 1000003 + start
            books = _BOOKS(size, b, range(first, first + count * size, size))
            words = books[np.arange(count), :, _message_index(msgs)]
            codes.append((size, b, books, np.unpackbits(words, axis=-1, count=b)))
    sent = np.concatenate([words.ravel() for *_, words in codes])
    y = ch.transmit(sent, rng)
    if ch.kind != "awgn":
        y = discrete_outputs(ch.kind, y, 2 if ch.kind == "bsc" else 3)
    ll = None  # the bit log-likelihoods, made only when some chunk needs _ml_scores
    decoded = []
    at = 0
    for size, b, books, words in codes:
        span = slice(at, at + words.size)
        at += words.size
        if _distance_decides(ch, b):
            best, tied = _nearest_codewords(books, y[span].reshape(words.shape), ch.kind == "bec")
        else:
            best, tied = np.empty(len(books), dtype=np.intp), np.arange(len(books))
        if tied.size:
            if ll is None:
                ll = ch.bit_log_likelihoods(y)
            chunk_ll = ll[span].reshape(*words.shape, 2)
            for i in range(0, tied.size, _SCORE_SLAB):
                pick = tied[i: i + _SCORE_SLAB]
                best[pick] = _ml_scores(books[pick], b, chunk_ll[pick]).argmax(axis=-1)
        decoded.append(_index_bits(best, size).ravel())
    return np.concatenate(decoded).astype(np.uint8), sent.size
