"""Binary-input memoryless channels: sampling, capacity, error exponents.

Three channel families are supported, each a (kind, parameter) pair:

* ``bsc``  : crossover probability eps, output = input bit flipped w.p. eps
* ``bec``  : erasure probability delta, output = bit or the ERASURE symbol
* ``awgn`` : antipodal signaling 0 -> +1, 1 -> -1 plus Gaussian noise with
             standard deviation sigma; real-valued output

``bit_log_likelihoods`` gathers each bsc or bec output's row from a cached
read-only table per channel; an output outside {0, 1} (bsc) or {0, 1,
ERASURE} (bec), or of a float type, raises ValueError. ``discrete_outputs``
makes that check, for ``convey``'s rep sign rule and rlc distances too.

Capacity is the mutual information under uniform inputs, in bits per use.
``gallager_e0`` is the random-coding exponent function

    E0(rho) = -ln sum_y ( sum_x 1/2 * P(y|x)^(1/(1+rho)) )^(1+rho)   [nats]

and ``error_exponent`` maximizes E0(rho) - rho*R over rho in [0, 1],
returned in bits. ``block_error_bound`` is the union bound
min(1, copies * exp(-(block_bits/R) * Er(R) * ln 2)).

Gaussian-output integrals use fixed Gauss-Hermite quadrature (128 nodes).
For E0 the integrand is folded into the bounded likelihood-ratio form
E[(power mean)/(arithmetic mean)] so the quadrature stays stable for any
sigma and rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LN2 = math.log(2.0)
ERASURE = 2  # BEC output symbol standing for an erased bit
_TINY = 1e-300  # probability floor so impossible events get a finite log
_QUAD_NODES = 128
_SIGNS = np.array([1.0, -1.0])  # awgn signal of input bit 0 and of input bit 1

_KINDS = ("bsc", "bec", "awgn")
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}  # by itemsize


@lru_cache(maxsize=None)
def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return t, w / math.sqrt(math.pi)


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) bit."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


@dataclass(frozen=True)
class ChannelModel:
    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        p = float(self.param)
        object.__setattr__(self, "param", p)
        if not math.isfinite(p):
            raise ValueError("channel parameter must be finite")
        if self.kind == "bsc" and not 0.0 <= p <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")
        if self.kind == "bec" and not 0.0 <= p <= 1.0:
            raise ValueError("erasure probability must be in [0, 1]")
        if self.kind == "awgn" and p <= 0.0:
            raise ValueError("noise standard deviation must be positive")

    # -- constructors -------------------------------------------------------

    @classmethod
    def bsc(cls, eps: float) -> "ChannelModel":
        return cls("bsc", eps)

    @classmethod
    def bec(cls, delta: float) -> "ChannelModel":
        return cls("bec", delta)

    @classmethod
    def biawgn(cls, sigma: float) -> "ChannelModel":
        return cls("awgn", sigma)

    @classmethod
    def parse(cls, spec: str) -> "ChannelModel":
        """Parse "bsc:0.05" / "bec:0.2" / "awgn:0.8"."""
        try:
            kind, raw = spec.split(":", 1)
            return cls(kind.strip().lower(), float(raw))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad channel spec {spec!r}") from exc

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.param:g}"

    # -- sampling -----------------------------------------------------------

    def transmit(self, bits, rng: np.random.Generator) -> np.ndarray:
        """Send a bit vector through one independent channel use per bit."""
        x = np.asarray(bits, dtype=np.int64)
        if x.ndim != 1:
            raise ValueError("transmit expects a flat bit vector")
        if np.count_nonzero(x & ~1):
            raise ValueError("inputs must be bits")
        if self.kind == "bsc":
            return x ^ (rng.random(x.size) < self.param)
        if self.kind == "bec":
            erased = rng.random(x.size) < self.param
            return np.where(erased, ERASURE, x)
        y = rng.standard_normal(x.size)
        y *= self.param
        y += _SIGNS.take(x)
        return y

    def bit_log_likelihoods(self, outputs) -> np.ndarray:
        """Return an array L with L[j, b] = log P(outputs[j] | input bit b)."""
        if self.kind != "awgn":
            table = _likelihood_table(self.kind, self.param)
            return table.take(discrete_outputs(self.kind, outputs, len(table)), axis=0)
        y = np.asarray(outputs).reshape(-1)
        s2 = self.param * self.param
        norm = -0.5 * math.log(2.0 * math.pi * s2)
        ll = y[:, None] - _SIGNS
        np.square(ll, out=ll)
        ll /= 2.0 * s2
        return np.subtract(norm, ll, out=ll)

    # -- information quantities ---------------------------------------------

    def capacity(self) -> float:
        """Mutual information with uniform inputs, bits per channel use."""
        return _capacity(self.kind, self.param)

    def gallager_e0(self, rho: float) -> float:
        """E0(rho) in nats, for rho in [0, 1]."""
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        return _gallager_e0(self.kind, self.param, float(rho))

    def error_exponent(self, rate: float) -> float:
        """Random-coding exponent Er(rate) in bits; 0 for rate >= capacity."""
        if rate < 0:
            raise ValueError("rate must be nonnegative")
        return _error_exponent(self.kind, self.param, float(rate))

    def block_error_bound(self, block_bits: int, rate: float, copies: int) -> float:
        """Union bound on the error of ``copies`` ML-decoded blocks of
        ``block_bits`` message bits each, sent at ``rate``."""
        if block_bits < 1:
            raise ValueError("block must carry at least one bit")
        if copies < 0:
            raise ValueError("copies must be nonnegative")
        cap = self.capacity()
        if not 0.0 < rate < cap:
            raise ValueError(f"rate {rate} outside (0, capacity={cap:.6f}); bound is vacuous")
        er = self.error_exponent(rate)
        return min(1.0, copies * math.exp(-(block_bits / rate) * er * LN2))


def discrete_outputs(kind: str, outputs, size: int) -> np.ndarray:
    """The bsc or bec ``outputs`` as a flat integer array, checked to lie in
    the channel's alphabet 0 .. size - 1."""
    y = np.asarray(outputs).reshape(-1)
    # in the unsigned view a negative output is out of range too; an empty one has no maximum
    if y.dtype.kind not in "iu" or (
            y.size and np.maximum.reduce(y.view(_UNSIGNED[y.itemsize])) >= size):
        raise ValueError(f"{kind} outputs must be integers in its alphabet")
    return y


@lru_cache(maxsize=4096)
def _likelihood_table(kind: str, param: float) -> np.ndarray:
    """Read-only rows (log P(y | 0), log P(y | 1)) for each output y: 0 and
    1 on bsc, 0, 1 and ERASURE on bec."""
    if kind == "bsc":
        eps = min(max(param, _TINY), 1.0 - 1e-16)
        l_match = math.log(1.0 - eps) if eps < 1.0 else math.log(_TINY)
        l_mis = math.log(max(eps, _TINY))
        table = np.array([[l_match, l_mis], [l_mis, l_match]])
    else:
        keep, erase, never = (math.log(max(v, _TINY)) for v in (1.0 - param, param, 0.0))
        table = np.array([[keep, never], [never, keep], [erase, erase]])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4096)
def _capacity(kind: str, param: float) -> float:
    if kind == "bsc":
        return 1.0 - binary_entropy(param)
    if kind == "bec":
        return 1.0 - param
    sigma = param
    t, w = _hermgauss(_QUAD_NODES)
    y = 1.0 + math.sqrt(2.0) * sigma * t
    # E over Y ~ N(1, sigma^2) of log2(1 + exp(-2Y/sigma^2))
    loss = np.logaddexp(0.0, -2.0 * y / (sigma * sigma)) / LN2
    return float(1.0 - np.dot(w, loss))


@lru_cache(maxsize=65536)
def _gallager_e0(kind: str, param: float, rho: float) -> float:
    if rho == 0.0:
        return 0.0
    a = 1.0 / (1.0 + rho)
    if kind == "bsc":
        eps = param
        inner = 0.5 * (eps ** a + (1.0 - eps) ** a)
        return -math.log(2.0 * inner ** (1.0 + rho))
    if kind == "bec":
        delta = param
        return -math.log(delta + (1.0 - delta) * 2.0 ** (-rho))
    sigma = param
    t, w = _hermgauss(_QUAD_NODES)
    y = 1.0 + math.sqrt(2.0) * sigma * t
    s2 = sigma * sigma
    lu = -((y - 1.0) ** 2) / (2.0 * s2)  # log-density shape for input 0
    lv = -((y + 1.0) ** 2) / (2.0 * s2)  # log-density shape for input 1
    log_half = math.log(0.5)
    # ratio of the order-a power mean to the arithmetic mean, always in (0, 1]
    log_f = np.logaddexp(a * lu + log_half, a * lv + log_half) / a
    log_q = np.logaddexp(lu + log_half, lv + log_half)
    return -math.log(float(np.dot(w, np.exp(log_f - log_q))))


@lru_cache(maxsize=65536)
def _error_exponent(kind: str, param: float, rate: float) -> float:
    cap = _capacity(kind, param)
    if rate >= cap:
        return 0.0
    rn = rate * LN2

    def objective(rho: float) -> float:
        return _gallager_e0(kind, param, rho) - rho * rn

    _, best = _golden_max(objective, 0.0, 1.0, 1e-8)
    best = max(best, objective(1.0), 0.0)
    return best / LN2
