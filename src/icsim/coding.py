"""Block codes used to carry vertical-block and side-channel payloads.

``convey`` moves one payload with the code a ``CodeSpec`` names:

* ``rep:r``    : each bit repeated r times, per-bit ML decode.
* ``rlc:x``    : a seeded random full-rank linear code over GF(2) at rate
                 1/x per chunk of ``RLC_CHUNK`` bits, exact ML decoding by
                 exhaustive search. ``RandomLinearCode`` gives one chunk
                 code's generator matrix.
* ``oracle:R`` : a statistical stand-in for an optimal code
                 (``_convey_oracle``). Nothing is physically transmitted:
                 the payload is corrupted to a uniformly random wrong one
                 with the random-coding probability
                 p* = exp(-(k/R) Er(R) ln 2) (``oracle_corruption``), and
                 ceil(k/R) channel uses are charged. Rates at or above
                 capacity have Er = 0, so p* = 1 and every transfer is
                 corrupted.

A payload is checked by ``protocol._bits``; a uint8 one reaches ``transmit``
with no copy or cast, and a flat one of at most ``protocol._SCAN_BYTES``
bytes, with its bsc or bec outputs, is checked by one byte scan each. The
decoded bits are a new read-only uint8 array.

Decoding is maximum likelihood under the channel law, by one rule per code
on every channel. Each output gets an antipodal value s: +1 for a bsc or bec
0, -1 for a 1, 0 for an erasure, and the output y itself on awgn. A
codeword's log-likelihood is then a constant minus c times the sum of s over
its ones, c a channel constant: log P(match) - log P(mismatch) on bsc and
bec, 2 / sigma^2 on awgn. On bsc past eps = 0.5 c is negative, so decisions
point the other way, and at eps = 0.5 it is 0 and every word ties
(``_direction``).

``rep:r`` makes one ``ChannelModel.transmit`` call for the r-fold repeated
payload. ``_rep_decide`` decodes a bit to 1 when the sum S of its r values
of s, added left to right in repeat order, is below 0 (above 0 on bsc past
eps = 0.5). A tie S = 0, and every bit on bsc:0.5, goes to 0. On bsc and
bec, while 3^r <= 256 (r <= ``_TABLE_R``), the rule is evaluated once per
output pattern at import, into one read-only table per (direction, r)
(``_DECIDE``). A transfer reads it with one uint8 ``reshape(-1, r) @
weights``, each bit's outputs as a base-3 number, and one ``take``; rep:1
takes the outputs themselves. Integer arithmetic throughout, no float and
no BLAS. Longer codes add each bit's votes (``_sign_rule``).

``rlc`` gives each chunk its own seeded code, packed to bits by
``np.packbits`` and stored byte-major (byte j of every codeword, then byte
j + 1). A cache bounded in bytes keeps one stacked read-only entry per
transfer shape (k, b, seeds), so a warm transfer makes one lookup per chunk
size. A chunk's message is one byte that picks its codeword's bytes, and one
flat ``take`` gathers those of every chunk (``_codewords``); all codewords
go through one ``ChannelModel.transmit`` call. ``_rlc_decide``
decodes a chunk to the smallest message among those whose codeword's ones
hold the least sum of s:

* on bsc and bec that sum is, up to a constant, the codeword's Hamming
  distance to the hard outputs over the unerased positions, an exact
  integer. So a chunk takes its first nearest codeword, by XOR and popcount
  on the packed books and outputs (an erasure packs as a 1 and the mask of
  unerased positions clears it); past eps = 0.5 the nearest to the flipped
  outputs, and at eps = 0.5 message 0;
* on awgn the sums are floats, added in one fixed order of elementwise adds
  (``_lightest_codewords``): a 256-entry table per chunk byte, built by
  doubling, then each codeword's bytes added left to right.

No decision sums floats through a BLAS call or a numpy reduction, so the
decoded bits do not depend on the CPU.

numpy's Generator yields the same values from one draw of size a+b as from
a draw of a then b, so one transmit consumes the random stream exactly as
one transmit per chunk would.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import ERASURE, LN2, ChannelModel, discrete_outputs
from .protocol import _bits

RLC_CHUNK = 8  # message bits per rlc chunk code; exhaustive ML decoding stays tractable
# row d: -s of bsc/bec outputs 0, 1, ERASURE turned by _direction d (row -1 is the last);
# _BIT.take(V, mode="clip") is 1 iff a sum V of them is positive
_VOTES = np.array([[0, 0, 0], [-1, 1, 0], [1, -1, 0]], dtype=np.int64)
_BIT = np.array([0, 1], dtype=np.uint8)
_TABLE_R = 5  # the largest r with 3^r <= 256: a table's uint8 index outputs @ weights never wraps


def _strided_sum(x: np.ndarray, r: int) -> np.ndarray:
    """Each group's sum of r consecutive entries, ``x[0::r] + x[1::r] +
    ...`` added left to right by elementwise adds, so in one order on every
    CPU; ``x`` itself when r == 1, else a new array."""
    total = x if r == 1 else x[0::r] + x[1::r]
    for i in range(2, r):
        total += x[i::r]
    return total


def _direction(ch: ChannelModel) -> int:
    """The sign of the channel constant c: 1, but -1 on bsc past eps = 0.5
    and 0 at eps = 0.5."""
    if ch.kind != "bsc" or ch.param < 0.5:
        return 1
    return -1 if ch.param > 0.5 else 0


def _sign_rule(direction: int, outputs: np.ndarray, r: int) -> np.ndarray:
    """The uint8 rep:r decision of each bit from its r bsc or bec outputs:
    1 where the sum of their votes, turned by ``direction``, is positive."""
    return _BIT.take(_strided_sum(_VOTES[direction].take(outputs), r), mode="clip")


def _decision_tables(r: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """uint8 weights 3^(r-1), ..., 1 and, for directions 0, 1 and -1 (the
    last), a read-only table whose entry ``outputs @ weights`` is
    ``_sign_rule`` of those r outputs, for each of the 3^r patterns."""
    weights = 3 ** np.arange(r - 1, -1, -1, dtype=np.uint8)
    patterns = np.indices((3,) * r, dtype=np.uint8).reshape(r, -1).T.ravel()
    tables = [_sign_rule(direction, patterns, r) for direction in (0, 1, -1)]
    for table in tables:
        table.flags.writeable = False
    return weights, tables


_DECIDE = [_decision_tables(r) for r in range(1, _TABLE_R + 1)]  # entry r - 1


def _rep_decide(ch: ChannelModel, y: np.ndarray, r: int) -> np.ndarray:
    """The uint8 rep:r decision of each bit from the flat outputs ``y`` of
    ``transmit``: 1 where the sum of its r antipodal values, turned by
    ``_direction``, is below 0."""
    if ch.kind == "awgn":
        return np.less(_strided_sum(y, r), 0.0).view(np.uint8)
    outputs = discrete_outputs(ch.kind, y)
    if r > _TABLE_R:
        return _sign_rule(_direction(ch), outputs, r)
    weights, tables = _DECIDE[r - 1]
    return tables[_direction(ch)].take(outputs if r == 1 else outputs.reshape(-1, r) @ weights)


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


def _packed_books(k: int, b: int, seeds: Sequence[int]) -> np.ndarray:
    """The codebook of each seed's rlc chunk code, stacked: packed to bits by
    ``np.packbits`` and stored byte-major, byte j of every codeword in
    message order, then byte j + 1, a C-order (len(seeds), ceil(b / 8), 2^k)
    array.

    A seed's generator is drawn from it and its successors until one has
    rank k, which holds exactly when every codeword but the first (message
    0) is nonzero. Every seed draws in the first round, and each round after
    redraws, from its next seed, only those whose last draw failed: one
    stacked ``_codebooks``, rank check and ``packbits`` a round.
    """
    packed = np.empty((len(seeds), -(-b // 8), 1 << k), dtype=np.uint8)
    todo, step = list(range(len(seeds))), 0
    while todo:
        rngs = (np.random.default_rng(seeds[i] + step) for i in todo)
        # an int64 draw pins the codes: a uint8 draw gives other bits
        g = np.stack([rng.integers(0, 2, size=(k, b), dtype=np.int64) for rng in rngs])
        books = _codebooks(g.astype(np.uint8))
        packed[todo] = np.packbits(books.swapaxes(1, 2), axis=1)
        ranked = books[:, 1:].any(axis=2).all(axis=1).tolist()
        todo, step = [i for i, ok in zip(todo, ranked) if not ok], step + 1
    return packed


# Every trial walks the same transfer shapes in the same order: at n = 65536
# (m = 256) with rlc chunks of 8 bits that is 256 columns of 32 chunk codes,
# plus side transfers. A packed rlc:3 book is 768 bytes (6 KB unpacked), so
# the columns hold about 6.3 MB. A bound below a trial's books would miss on
# every lookup; this one, on the packed bytes, holds a whole large trial.
_BOOK_CACHE_BYTES = 32 << 20


class _BookCache:
    """Packed chunk codebooks, one stacked entry per transfer shape (k, b,
    seeds): a ``range`` of seeds is its own key, any other sequence a tuple.
    Once their bytes would pass ``limit``, the least recently used entries
    are dropped first. ``misses`` counts the books built."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.size = 0  # bytes of the books held
        self.misses = 0
        self._books: OrderedDict[tuple[int, int, Sequence[int]], np.ndarray] = OrderedDict()

    def __call__(self, k: int, b: int, seeds: Sequence[int]) -> np.ndarray:
        """Read-only stacked (len(seeds), ceil(b / 8), 2^k) byte-major books."""
        key = (k, b, seeds if isinstance(seeds, range) else tuple(seeds))
        books = self._books.get(key)
        if books is not None:
            self._books.move_to_end(key)
            return books
        books = _packed_books(k, b, key[2])
        books.flags.writeable = False
        self.misses += len(books)
        self._books[key] = books
        self.size += books.nbytes
        while self.size > self.limit:
            self.size -= self._books.popitem(last=False)[1].nbytes
        return books


_BOOKS = _BookCache(_BOOK_CACHE_BYTES)


@lru_cache(maxsize=64)
def _book_offsets(count: int, size: int, words: int) -> np.ndarray:
    """Read-only (count, size) flat offsets into a C-order (count, size,
    words) book stack: of byte j of chunk c's first codeword. Adding each
    chunk's message gives its codeword's bytes, for one flat ``take``."""
    offsets = np.arange(0, count * size * words, words, dtype=np.intp).reshape(count, size)
    offsets.flags.writeable = False
    return offsets

# chunk bytes per awgn pass: its table, index and gathered sums stay within 512 KB each
_TABLE_BYTES = 256


def _lightest_codewords(books: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(count, ceil(b / 8), 2^k) byte-major books and (count, b) awgn
    outputs -> each chunk's first codeword with the least float sum of y
    over its ones.

    Column c * size + j of a 256-row table belongs to byte j of chunk c:
    its row v is the sum of y over the set bits of v in that byte, built by
    doubling from the bit of value 1 up. A codeword's sum is its bytes'
    entries added left to right.
    """
    count, size, _ = books.shape
    n = count * size
    bits = np.zeros((count, size * 8))
    bits[:, :y.shape[1]] = y  # a short codeword's pad bits are 0 in its book
    bits = bits.reshape(n, 8).T
    table = np.empty((256, n))
    table[0] = 0.0
    for i in range(8):  # np.packbits puts the bit of value 1 << i at place 7 - i
        h = 1 << i
        np.add(table[:h], bits[7 - i], out=table[h:2 * h])
    index = np.multiply(books.transpose(0, 2, 1), n, dtype=np.intp)  # (count, 2^k, size)
    index += np.arange(n).reshape(count, 1, size)
    sums = _strided_sum(table.reshape(-1).take(index).reshape(-1), size)
    return sums.reshape(count, -1).argmin(axis=1)


def _rlc_decide(ch: ChannelModel, books: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(count, ceil(b / 8), 2^k) byte-major books and each chunk's (count,
    b) outputs, bsc and bec ones checked by ``discrete_outputs`` -> the
    message of each chunk: the smallest among those whose codeword's ones
    hold the least sum of s, turned by ``_direction``."""
    direction = _direction(ch)
    if not direction:  # bsc:0.5: every word ties
        return np.zeros(len(books), dtype=np.intp)
    if ch.kind == "awgn":
        best = np.empty(len(books), dtype=np.intp)
        step = max(1, _TABLE_BYTES // books.shape[1])
        for i in range(0, len(books), step):
            best[i:i + step] = _lightest_codewords(books[i:i + step], y[i:i + step])
        return best
    # ones of (codeword XOR hard outputs), over the unerased positions on bec; packbits
    # sets the bit of every nonzero output, and the mask clears an erasure's
    ones = books ^ np.packbits(y if direction > 0 else y == 0, axis=1)[..., None]
    if ch.kind == "bec":
        ones &= np.packbits(y != ERASURE, axis=1)[..., None]
    b = y.shape[1]  # uint8 holds every distance only while b <= 255
    dist = np.add.reduce(np.bitwise_count(ones, out=ones), axis=1,
                         dtype=np.uint8 if b < 256 else np.min_scalar_type(b))
    return dist.argmin(axis=1)


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


# ---------------------------------------------------------------------------
# code specs and the transport helper used by the simulation engines

@dataclass(frozen=True)
class CodeSpec:
    """Parsed form of a --code flag.

    * ``oracle:<rate>``   : the oracle code at that rate, in (0, 1]
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
    payload = _bits(bits, "message must be a bit vector")
    if payload.ndim != 1:
        raise ValueError("message must be a bit vector")
    if not payload.size:
        decoded, uses = payload.copy(), 0  # the caller's array is never marked read-only
    elif spec.kind == "oracle":
        decoded, uses = _convey_oracle(spec, payload, ch, rng)
    elif spec.kind == "rep":
        r = int(spec.value)
        y = ch.transmit(payload if r == 1 else payload.repeat(r), rng)
        decoded, uses = _rep_decide(ch, y, r), payload.size * r
    else:
        decoded, uses = _convey_rlc(spec, payload, ch, rng, matrix_seed)
    decoded.flags.writeable = False
    return TransferResult(decoded, uses, decoded.tobytes() == payload.tobytes())


def oracle_corruption(k: int, rate: float, ch: ChannelModel) -> float:
    """p* = exp(-(k/R) Er(R) ln 2), the chance that an ``oracle:R``
    transfer of k bits over ``ch`` is corrupted; 1 at or above capacity."""
    return math.exp(-(k / rate) * ch.error_exponent(rate) * LN2)


def _convey_oracle(spec: CodeSpec, payload: np.ndarray, ch: ChannelModel,
                   rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One uniform draw decides whether the payload is corrupted (with
    probability ``oracle_corruption``); a corrupted one becomes the first
    uniformly drawn word that differs from it. Returns a new uint8 array of
    the decoded bits and the ceil(k/R) channel uses."""
    k, uses = payload.size, math.ceil(payload.size / spec.value)
    if rng.random() >= oracle_corruption(k, spec.value, ch):
        return payload.copy(), uses
    word = rng.integers(0, 2, size=k)  # int64 draws pin the stream: uint8 ones give other bits
    while np.array_equal(word, payload):
        word = rng.integers(0, 2, size=k)
    return word.astype(np.uint8), uses


def _convey_rlc(spec: CodeSpec, payload: np.ndarray, ch: ChannelModel,
                rng: np.random.Generator, matrix_seed: int) -> tuple[np.ndarray, int]:
    """One independent code per chunk of ``RLC_CHUNK`` bits (the last chunk
    may be shorter), all sent through one transmit call and decoded by
    ``_rlc_decide``; returns the decoded bits as uint8 and the channel uses.
    A chunk's message is one ``np.packbits`` byte."""
    n = payload.size
    short = n % RLC_CHUNK
    whole = n - short
    first = matrix_seed * 1000003
    index = np.packbits(payload)  # one message byte per chunk
    if short:
        index[-1] >>= RLC_CHUNK - short
    if not whole or not short:  # one chunk size: one book stack
        size = short or RLC_CHUNK
        b, books = _book_stack(spec, size, range(first, first + n, size))
        uses = len(books) * b
        y = _send(_codewords(books, index), uses, ch, rng)
        best = _rlc_decide(ch, books, y.reshape(-1, b))
    else:  # whole chunks, then a short one
        b, books = _book_stack(spec, RLC_CHUNK, range(first, first + whole, RLC_CHUNK))
        b_short, book = _book_stack(spec, short, range(first + whole, first + n, short))
        split = len(books) * b
        uses = split + b_short
        sent = np.concatenate([_codewords(books, index[:-1]), _codewords(book, index[-1:])],
                              axis=None)
        y = _send(sent, uses, ch, rng)
        best = np.concatenate([_rlc_decide(ch, books, y[:split].reshape(-1, b)),
                               _rlc_decide(ch, book, y[split:].reshape(1, b_short))])
    best = best.astype(np.uint8)
    if short:
        best[-1] <<= RLC_CHUNK - short
    return np.unpackbits(best, count=n), uses


def _book_stack(spec: CodeSpec, size: int, seeds: range) -> tuple[int, np.ndarray]:
    """The codeword length of ``size``-bit chunks and their books, one per seed."""
    b = math.ceil(size * spec.value)
    return b, _BOOKS(size, b, seeds)


def _codewords(books: np.ndarray, messages: np.ndarray) -> np.ndarray:
    """(count, ceil(b / 8), 2^k) books and one message byte per chunk -> the
    (count, ceil(b / 8)) bytes of each chunk's codeword, by one flat take."""
    return books.take(_book_offsets(*books.shape) + messages[:, None])


def _send(words: np.ndarray, uses: int, ch: ChannelModel, rng: np.random.Generator) -> np.ndarray:
    """The outputs of the first ``uses`` bits of the packed codewords, in one
    transmit call; bsc and bec ones checked by ``discrete_outputs``."""
    y = ch.transmit(np.unpackbits(words, count=uses), rng)
    return y if ch.kind == "awgn" else discrete_outputs(ch.kind, y)
