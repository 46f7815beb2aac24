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
beats its 0-sum by more than 1e-9, so ties go to 0. With each output's
antipodal value s (+1 for a bsc or bec 0, -1 for a 1, 0 for an erasure, y
on awgn), a bit's exact 1-sum minus 0-sum is -c S, S the strided sum of its
s and c a channel constant (L_match - L_mismatch on bsc and bec, 2 / sigma^2
on awgn). So on every channel ``_sum_decisions`` decodes a bit to 1 where
S < 0, wherever a certificate shows the rule gives the same bits: once per
(channel, r) on bsc and bec (``_distance_decides``), per transfer from
``y @ y`` on awgn (``_sum_margin``). Any other transfer runs the rule on its
log-likelihoods. A random linear code picks the first maximum of its
floating-point codeword scores ``cb @ L[:, 1] + (1 - cb) @ L[:, 0]`` (``cb``
the codebook, rows in message order, ``L`` the bit log-likelihoods),
``_ml_scores``. On exact ties the summation rounding decides, so the winner
need not be the smallest message.

``rlc`` gives each chunk its own seeded code, packed to bits by
``np.packbits`` and stored byte-major (byte j of every codeword, then byte
j + 1). A cache bounded in bytes keeps one stacked read-only entry per
transfer shape (k, b, seeds), so a warm transfer makes one lookup per chunk
size. A chunk's message is one byte that picks its codeword's bytes; all
codewords go through one ``ChannelModel.transmit`` call.

On bsc and bec a codeword's score is const - d * (L_match - L_mismatch),
d its Hamming distance to the hard outputs over the unerased positions. So
a chunk decodes to its nearest codeword, found by XOR and popcount on the
packed books and outputs, when that codeword is unique and the likelihood
gap exceeds twice the float rounding bound of a b-term score
(``_distance_decides``): there the float scores provably have the same
first maximum. Every other chunk, one whose minimum distance ties, or any
chunk on awgn, on bsc from eps = 0.5 on or on bec:1, is scored by
``_ml_scores``, up to 64 chunks in one batched product. Its float books
come from ``_LUT``, every byte's bits as exact 0.0 / 1.0, so the scores are
those of a cast of the unpacked books, bit for bit. Only such chunks need
the bit log-likelihoods, so an untied bsc or bec transfer makes no
``bit_log_likelihoods`` call.

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

from .channel import ERASURE, LN2, ChannelModel, _likelihood_table, discrete_outputs

RLC_CHUNK = 8  # message bits per rlc chunk code; exhaustive ML decoding stays tractable
# -s of bsc/bec outputs 0, 1, ERASURE; _BIT.take(-S, mode="clip") is 1 iff S < 0
_VOTES, _BIT = np.array([-1, 1, 0], dtype=np.int64), np.array([0, 1], dtype=np.uint8)


def _as_bits(message: Sequence[int], k: int | None = None) -> np.ndarray:
    """The message as an int64 bit vector, of length ``k`` when given."""
    bits = np.asarray(message, dtype=np.int64)
    if bits.ndim != 1 or np.count_nonzero(bits & ~1):
        raise ValueError("message must be a bit vector")
    if k is not None and bits.size != k:
        raise ValueError(f"expected {k} message bits")
    return bits


def _strided_sum(x: np.ndarray, r: int) -> np.ndarray:
    """Each bit's sum over a repetition codeword, ``x[0::r] + x[1::r] +
    ...`` added left to right; ``x`` itself when r == 1, else a new array."""
    total = x if r == 1 else x[0::r] + x[1::r]
    for i in range(2, r):
        total += x[i::r]
    return total


def _repetition_decide(ll: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2) strided sums of a repetition codeword's (k * r, 2) bit
    log-likelihoods and the uint8 pick of each bit. The 1e-9 margin absorbs
    float summation noise on exact ties, which go to 0, without touching
    real decisions. This is the one definition of a rep decision; the sign
    rule of ``_sum_decisions`` runs only where it provably gives these."""
    per_bit = _strided_sum(ll, r)
    return per_bit, (per_bit[:, 1] > per_bit[:, 0] + 1e-9).view(np.uint8)


@lru_cache(maxsize=256)
def _sum_margin(ch: ChannelModel, r: int) -> tuple[float, float, float] | None:
    """(a, b, cap), the awgn sign rule's certificate, for rep:r transfers,
    or None for r > 2^20 or for sigma^2 outside [2^-1000, 2^1000]. Outputs
    y with Y2 = y @ y <= cap may decide each bit by the sign of its float
    output sum S' whenever every |S'| > a + b * Y2: there
    ``_repetition_decide`` on the bit log-likelihoods gives the same bits.

    With s2 = sigma * sigma and N the float constant of
    ``bit_log_likelihoods``, an output y has T_x = (y - s_x)^2 / (2 s2) and
    L_x = N - T_x, so exactly L_1 - L_0 = -2y / s2. A bit whose exact
    output sum is S thus has exact 1-sum minus 0-sum minus the 1e-9 margin
    D = -2S / s2 - 1e-9, and decides 1 exactly when S + 1e-9 s2 / 2 < 0.

    Float error, u = 2^-53 and A = |N| + max T_x <= |N| + (y^2 + 1) / s2:
    - each float L_x is within 5uA of its exact value (four roundings:
      y - s_x, the square, the division and the subtraction from N);
    - the left-to-right sum of a bit's r terms adds (r - 1)u W, W the sum
      of the bit's A, so each float sum is within (r + 5)u W;
    - adding 1e-9 to the 0-sum adds u(W + 1e-9).
    So the float decision is the exact one when |D| > (2r + 11)u W +
    1e-9 u. Write that in units of S with W <= r|N| + (Y2 + r) / s2, and
    add the float error of S' itself, (r - 1)u sum |y| <= (r - 1)u (r + Y2)
    / 2 (as |y| <= (1 + y^2) / 2). When |S'| exceeds 1e-9 s2 / 2 plus

        u/2 [(2r + 11)(r|N| s2 + r) + 1e-9 s2 + (r - 1) r + (3r + 10) Y2],

    the exact S lies on the same side of -1e-9 s2 / 2 as S' of 0, and
    beyond the float decision's error. a + b * Y2 is 1e-9 s2 / 2 plus that
    bracket times 2^8. The spare factor covers every other rounding:
    - the (1 + O(ru)) factors dropped above;
    - ``y @ y``, a sum of n nonnegative rounded squares, so at least
      (1 - nu) Y2 in any summation order (n u < 2^-8 for any array that
      fits in memory), less subnormal squares far below a;
    - the roundings of a, b and a + b * Y2 (the bracket holds 1e-9 s2, so
      the spare exceeds the rounding of a's first term);
    - a square or a division that underflows to a subnormal, an absolute
      error below 2^-1000 u / s2.
    Y2 <= cap = 2^900 min(1, s2) keeps every term finite, |y| <= 2^450 and
    T_x < 2^1001; a NaN or infinite output fails that test.
    """
    s2 = ch.param * ch.param
    if r > 1 << 20 or not 2.0 ** -1000 <= s2 <= 2.0 ** 1000:
        return None
    norm = abs(-0.5 * math.log(2.0 * math.pi * s2))
    u = 2.0 ** 8 * 2.0 ** -53 / 2
    a = 1e-9 * s2 / 2 + u * ((2 * r + 11) * (r * norm * s2 + r) + 1e-9 * s2 + (r - 1) * r)
    return a, u * (3 * r + 10), 2.0 ** 900 * min(1.0, s2)


def _sum_decisions(ch: ChannelModel, y: np.ndarray, r: int) -> np.ndarray | None:
    """The uint8 rep:r decision of each bit of the flat outputs ``y`` of
    ``transmit``: 1 where the strided sum of its antipodal values is
    negative. None where that could differ from ``_repetition_decide``: on
    bsc and bec unless ``_distance_decides(ch, r, 1e-9)``, on awgn when
    some bit's sum lies within the margin of ``_sum_margin``."""
    if ch.kind != "awgn":
        if not _distance_decides(ch, r, 1e-9):
            return None
        votes = _VOTES.take(discrete_outputs(ch.kind, y, 2 if ch.kind == "bsc" else 3))
        return _BIT.take(_strided_sum(votes, r), mode="clip")
    bound = _sum_margin(ch, r)
    if bound is None:
        return None
    a, b, cap = bound
    y2 = y @ y
    if not y2 <= cap:
        return None
    s = _strided_sum(y, r)
    if not np.abs(s).min() > a + b * y2:
        return None
    return np.signbit(s).view(np.uint8)  # s < 0 wherever the margin holds, as it excludes -0.0


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


def _packed_book(k: int, b: int, seed: int) -> np.ndarray:
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
            return np.ascontiguousarray(np.packbits(book.T, axis=0))
        attempt += 1


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
        books = np.stack([_packed_book(k, b, seed) for seed in key[2]])
        books.flags.writeable = False
        self.misses += len(books)
        self._books[key] = books
        self.size += books.nbytes
        while self.size > self.limit:
            self.size -= self._books.popitem(last=False)[1].nbytes
        return books


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
def _distance_decides(ch: ChannelModel, b: int, offset: float) -> bool:
    """Whether hard decisions from b-term sums of ``ch``'s likelihood table
    provably match the float rule: for offset 0, a unique nearest codeword
    is ``_ml_scores``' first maximum on b-bit chunks; for offset 1e-9 and b
    = r, the sign rule of ``_sum_decisions`` gives ``_repetition_decide``'s
    bits. Never on awgn, on bsc from eps = 0.5 on or on bec:1 (g <= 0).

    An output's two table entries differ by g = L_match - L_mismatch, or by
    0 if erased. So in exact arithmetic an rlc codeword at distance d from
    the unerased hard outputs scores const - d g, and a rep bit's 1-sum
    minus 0-sum is -g S. With u = 2^-53 and A = max|L| >= g, the float gap
    of two rlc scores (each two b-term dot products and their sum, within
    b^2 u A (1 + b u)), or of a rep bit's 1-sum and 0-sum plus 1e-9 (each
    sum within (b - 1) b u A (1 + b u), the add within u (b A (1 + b u) +
    1e-9)), is within R = 2 (b + 1) b u A of exact. The spare, over b u A,
    covers the (1 + b u) factors (g > R keeps b < 2^26) and the roundings
    of this test (g's is below u A). So where g > offset + R a unique
    nearest codeword stays first (the caller scores exact ties), and a rep
    bit goes to 1 for S <= -1 and to 0 for S >= 1; where R < offset a tie
    S = 0 goes to 0.
    """
    if ch.kind == "awgn":
        return False
    table = _likelihood_table(ch.kind, ch.param)
    bound = 2 * (b + 1) * b * 2.0 ** -53 * np.abs(table).max()  # R
    return bool(table[0, 0] - table[0, 1] > offset + bound and (offset == 0 or bound < offset))


def _nearest_codewords(books: np.ndarray, y: np.ndarray,
                       erasures: bool) -> tuple[np.ndarray, np.ndarray]:
    """(count, ceil(b / 8), 2^k) byte-major books and the flat count * b bsc
    or bec outputs, each chunk's on a byte boundary (b % 8 == 0 or one
    chunk) -> the message of each chunk's first nearest codeword, and the
    indices of the chunks where more than one codeword is nearest. With
    ``erasures`` the distance skips the positions that hold ``ERASURE``."""
    rows = books.shape[:2]
    ones = books ^ np.packbits(y == 1 if erasures else y).reshape(rows)[..., None]
    if erasures:
        ones &= np.packbits(y != ERASURE).reshape(rows)[..., None]
    b = y.size // rows[0]  # uint8 holds every distance only while b <= 255
    dist = np.bitwise_count(ones, out=ones).sum(
        axis=1, dtype=np.uint8 if b < 256 else np.min_scalar_type(b))
    nearest = dist == dist.min(axis=1, keepdims=True)
    best = nearest.argmax(axis=1)
    if np.count_nonzero(nearest) == len(dist):  # one nearest codeword in every chunk
        return best, np.empty(0, dtype=np.intp)
    return best, np.flatnonzero(nearest.sum(axis=1) > 1)


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
        decoded = _sum_decisions(ch, y, r)
        if decoded is None:
            decoded = _repetition_decide(ch.bit_log_likelihoods(y), r)[1]
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
    bits as uint8 and the channel uses. A chunk, whose message is one
    ``np.packbits`` byte, decodes to its nearest codeword where
    ``_distance_decides``, else by ``_ml_scores``. Full chunks have b = 8x
    bits, so each chunk size's codewords and outputs start on a byte boundary."""
    n = payload.size
    short = n % RLC_CHUNK
    first = matrix_seed * 1000003
    index = np.packbits(payload)  # one message byte per chunk
    if short:
        index[-1] >>= RLC_CHUNK - short
    groups, words, uses = [], [], 0  # (first chunk, chunks, first bit, codeword length, books)
    for size, start, stop in ((RLC_CHUNK, 0, n - short), (short, n - short, n)):
        if start < stop:
            at, b = start // RLC_CHUNK, math.ceil(size * spec.value)
            books = _BOOKS(size, b, range(first + start, first + stop, size))
            words.append(books[np.arange(len(books)), :, index[at: at + len(books)]])
            groups.append((at, len(books), uses, b, books))
            uses += len(books) * b
    sent = words[0] if len(words) == 1 else np.concatenate(words, axis=None)
    y = ch.transmit(np.unpackbits(sent, count=uses), rng)
    if ch.kind != "awgn":
        y = discrete_outputs(ch.kind, y, 2 if ch.kind == "bsc" else 3)
    ll = None  # the bit log-likelihoods, made only when some chunk needs _ml_scores
    best = np.empty_like(index)
    for at, count, bit, b, books in groups:
        if _distance_decides(ch, b, 0.0):
            best[at: at + count], tied = _nearest_codewords(
                books, y[bit: bit + count * b], ch.kind == "bec")
        else:
            tied = np.arange(count)
        if tied.size:
            if ll is None:
                ll = ch.bit_log_likelihoods(y)
            chunk_ll = ll[bit: bit + count * b].reshape(count, b, 2)
            for i in range(0, tied.size, _SCORE_SLAB):
                pick = tied[i: i + _SCORE_SLAB]
                best[at + pick] = _ml_scores(books[pick], b, chunk_ll[pick]).argmax(axis=-1)
    if short:
        best[-1] <<= RLC_CHUNK - short
    return np.unpackbits(best, count=n), uses
