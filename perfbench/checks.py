"""Correctness checks that the benchmark computes apart from the program.

Every expected value here is derived from the workload's configuration (n,
the padded side m, the code, the channel) and from the documented wire
format of each scheme, never from the program's own helpers. The only
program calls are in ``protocol_problems``, which compares the program's
protocol draw and ``run_protocol`` with a loop of its own.

Per-trial checks (``trial_problems``) decide whether one operation failed.
Run-level checks (``column_error_problems``, ``sweep_problems``) decide
whether the run as a whole is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# A statistical check fails only when the observed count is less likely than
# this under the bound it is compared with.
ALPHA = 1e-6
RLC_CHUNK = 8  # message bits per rlc chunk code
RLC_SEED_STRIDE = 1000003  # chunk code seed = column * stride + chunk offset
TWO_STATE_TABLES = ((0, 0), (0, 1), (1, 0), (1, 1))
CSV_HEADER = "n,scheme,trial,seed,N,rate,alice_ok,bob_ok,lookahead_bits,coincidence_ok"


def _spec(text: str) -> tuple[str, float]:
    kind, value = text.split(":", 1)
    return kind.strip().lower(), float(value)


@dataclass(frozen=True)
class Workload:
    """A workload's configuration, parsed without the program."""

    name: str
    scheme: str
    n: int
    channel: str
    noise: float
    code: str
    code_value: float
    family: str
    log_M: int

    @classmethod
    def from_config(cls, name: str, raw: dict) -> "Workload":
        channel, noise = _spec(raw["channel"])
        code, value = _spec(raw["code"])
        if raw.get("side_code") not in (None, raw["code"]):
            raise ValueError("the checks assume the side code equals the column code")
        n = raw["n"]
        n = n[0] if isinstance(n, list) else n
        proto = raw.get("protocol", {"type": "two-state"})
        family = proto.get("type", "two-state")
        if family == "markovian" and proto.get("functions") != "all":
            raise ValueError("the checks assume markovian protocols over all tables")
        if raw.get("scheme") == "m-state" and raw.get("placement", "last") != "last":
            raise ValueError("the checks cover the last-p placement only")
        return cls(name, raw["scheme"], int(n), channel, noise, code, value,
                   family, int(proto.get("log_M", 2)))

    @property
    def m(self) -> int:
        """Side of the padded grid: the smallest square, with an even side."""
        m = math.isqrt(self.n)
        if m * m < self.n:
            m += 1
        if m > 1 and m % 2:
            m += 1
        return m

    @property
    def states(self) -> int:
        return 2 if self.family == "two-state" else 1 << self.log_M

    def code_uses(self, bits: int) -> int:
        """Channel uses one transfer of ``bits`` message bits costs."""
        if self.code == "rep":
            return bits * int(self.code_value)
        if self.code == "rlc":
            return sum(math.ceil(min(RLC_CHUNK, bits - i) * self.code_value)
                       for i in range(0, bits, RLC_CHUNK))
        raise ValueError(f"no use count for code {self.code!r}")

    def tail_length(self) -> int:
        """Tail of the m-state lookahead: the smallest r with r^4 >= m^2,
        rounded up to a multiple of K. A log_M-bit shift register merges
        any two states after K = log_M equal bits."""
        n_padded = self.m * self.m
        r = 1
        while r ** 4 < n_padded:
            r += 1
        K = self.log_M
        return K * math.ceil(r / K)

    def side_messages(self, interactive: bool) -> list[int]:
        """Bit sizes of the lookahead messages, one per side-channel transfer."""
        m = self.m
        alice_width = ((m + 1) // 2).bit_length()  # Alice's rounds in a block
        bob_width = (m // 2).bit_length()
        if self.scheme == "genie":
            return []
        if self.scheme == "two-state":
            # last-constant index and value per block, then one parity per block
            return [m * (alice_width + 1), m * (bob_width + 1), m, m]
        if self.scheme == "two-state-exhaustive":
            return [m * alice_width, m * bob_width] if interactive else []
        if self.scheme == "m-state":
            tail = range(m - self.tail_length() + 1, m + 1)
            alice = sum(1 for t in tail if t % 2)
            return [m * alice * self.states, m * (len(tail) - alice) * self.states]
        raise ValueError(f"no message sizes for scheme {self.scheme!r}")

    def expected_accounting(self, seed: int, aborted: bool) -> tuple[int, int, int]:
        """(lookahead bits, lookahead uses, vertical uses) one trial must report."""
        interactive = True
        if self.scheme == "two-state-exhaustive":
            interactive = advance_is_interactive(drawn_advance(seed))
        messages = self.side_messages(interactive)
        vertical = 0 if aborted else self.m * self.code_uses(self.m)
        return sum(messages), sum(self.code_uses(b) for b in messages), vertical


def drawn_advance(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The advance table a two-state trial with this seed draws: index
    ``integers(16)`` into the tables ((a, b), (c, d)) in binary order."""
    i = int(np.random.default_rng(seed).integers(16))
    return ((i >> 3) & 1, (i >> 2) & 1), ((i >> 1) & 1, i & 1)


def advance_is_interactive(eta) -> bool:
    """False when neither successor depends on the transmitted bit."""
    return not (eta[0][0] == eta[0][1] and eta[1][0] == eta[1][1])


def trial_problems(w: Workload, report, seed: int) -> list[str]:
    """Everything wrong with one trial's report; empty when it is correct."""
    out = []
    m = w.m
    aborted = report.lookahead_failure is not None
    if report.seed != seed:
        out.append(f"seed {report.seed} != {seed}")
    if (report.n_logical, report.n_padded, report.m) != (w.n, m * m, m):
        out.append(f"grid {(report.n_logical, report.n_padded, report.m)} != {(w.n, m * m, m)}")
    bits, side_uses, vertical = w.expected_accounting(seed, aborted)
    got = (report.lookahead_bits, report.lookahead_uses, report.vertical_uses,
           report.channel_uses)
    want = (bits, side_uses, vertical, side_uses + vertical)
    if got != want:
        out.append(f"(lookahead bits, lookahead uses, vertical uses, channel uses) "
                   f"{got} != {want}")
    if w.scheme == "m-state" and report.tail_len != w.tail_length():
        out.append(f"tail of {report.tail_len} rounds, expected {w.tail_length()}")
    if len(report.column_errors) != (0 if aborted else m):
        out.append(f"{len(report.column_errors)} column flags for {m} columns")
    if aborted:
        if w.scheme != "m-state":
            out.append(f"scheme {w.scheme} cannot abort")
        if report.alice_correct or report.bob_correct or report.coincidence_ok is not False:
            out.append("a merge failure must leave both parties incorrect")
    elif report.coincidence_ok is False:
        out.append("coincidence failure without a lookahead failure")
    if w.noise == 0 and not (report.alice_correct and report.bob_correct
                             and not any(report.column_errors)):
        out.append("a noiseless trial must be correct for both parties")
    if not bits:
        # no side information (genie, or a non-interactive exhaustive draw), so
        # the block starts are exact and a trial is correct exactly when no
        # column was decoded wrong. A bad column always spoils its receiver:
        # Bob receives the odd columns, Alice the even ones. (The sender can
        # be spoilt too, through the wrong bits the receiver sends back.)
        errors = report.column_errors
        if (report.alice_correct and report.bob_correct) == any(errors):
            out.append("trial correctness does not match its column errors")
        if (report.bob_correct and any(errors[0::2])) or (
                report.alice_correct and any(errors[1::2])):
            out.append("a party that received a bad column is reported correct")
    return out


# ---------------------------------------------------------------------------
# statistical checks on the column-error count of a run

def upper_tail(x: int, mean: float) -> float:
    """Chernoff bound on P(X >= x), X a sum of independent Bernoullis whose
    mean is at most ``mean``."""
    if x <= mean:
        return 1.0
    if mean <= 0:
        return 0.0
    return math.exp(-mean + x - x * math.log(x / mean))


def lower_tail(x: int, mean: float) -> float:
    """Chernoff bound on P(X <= x), X a sum of independent Bernoullis whose
    mean is at least ``mean``."""
    if x >= mean:
        return 1.0
    if x == 0:
        return math.exp(-mean)
    return math.exp(-mean + x - x * math.log(x / mean))


def gf2_rank(g: np.ndarray) -> int:
    a = g.astype(np.uint8) % 2
    rank = 0
    for col in range(a.shape[1]):
        pivots = np.nonzero(a[rank:, col])[0]
        if not pivots.size:
            continue
        p = rank + pivots[0]
        a[[rank, p]] = a[[p, rank]]
        below = np.nonzero(a[:, col])[0]
        below = below[below != rank]
        a[below] ^= a[rank]
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def chunk_generator(k: int, b: int, seed: int) -> np.ndarray:
    """Generator of one rlc chunk code: matrices drawn from successive seeds
    until one has full rank."""
    attempt = seed
    while True:
        g = np.random.default_rng(attempt).integers(0, 2, size=(k, b), dtype=np.int64)
        if gf2_rank(g) == k:
            return g
        attempt += 1


def bhattacharyya_bound(g: np.ndarray, z: float) -> float:
    """Union bound sum_{c != 0} z^wt(c) on the ML block error of a linear code."""
    k = g.shape[0]
    msgs = (np.arange(1, 1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    weights = ((msgs @ g) % 2).sum(axis=1)
    return float(np.sum(z ** weights.astype(float)))


def rlc_column_bounds(w: Workload) -> list[float]:
    """Per-column union bound on a column error, for a BSC and rlc."""
    if w.channel != "bsc":
        raise ValueError("the union bound here is for a BSC")
    z = 2.0 * math.sqrt(w.noise * (1.0 - w.noise))
    m = w.m
    bounds = []
    for j in range(1, m + 1):
        total = 0.0
        for idx in range(0, m, RLC_CHUNK):
            k = min(RLC_CHUNK, m - idx)
            g = chunk_generator(k, math.ceil(k * w.code_value), j * RLC_SEED_STRIDE + idx)
            total += bhattacharyya_bound(g, z)
        bounds.append(min(1.0, total))
    return bounds


def rep_bit_error(w: Workload) -> tuple[float, float]:
    """Lower and upper bound on one repetition-decoded bit being wrong."""
    r = int(w.code_value)
    if w.channel == "awgn":
        q = 0.5 * math.erfc(math.sqrt(r) / w.noise / math.sqrt(2.0))  # Q(sqrt(r)/sigma)
        return q, q
    if w.channel == "bec":
        # all r copies erased; the tie then goes to 0, so only a sent 1 is lost
        return 0.0, w.noise ** r
    raise ValueError(f"no repetition error law for channel {w.channel!r}")


def column_error_problems(w: Workload, reports, column_bounds=None) -> list[str]:
    """Compare the run's column-error count with what the channel allows."""
    sent = [r for r in reports if r.lookahead_failure is None]
    errors = sum(sum(r.column_errors) for r in sent)
    m = w.m
    if w.noise == 0:
        return [] if errors == 0 else [f"{errors} column errors on a noiseless channel"]
    if w.code == "rlc":
        bounds = column_bounds if column_bounds is not None else rlc_column_bounds(w)
        low, high = 0.0, len(sent) * sum(bounds)
    elif w.code == "rep":
        p_low, p_high = rep_bit_error(w)
        columns = len(sent) * m
        low = columns * -math.expm1(m * math.log1p(-p_low))
        high = columns * -math.expm1(m * math.log1p(-p_high))
    else:
        raise ValueError(f"no column-error law for code {w.code!r}")
    out = []
    if upper_tail(errors, high) < ALPHA:
        out.append(f"{errors} column errors, above the bound's mean {high:.3f}")
    if lower_tail(errors, low) < ALPHA:
        out.append(f"{errors} column errors, below the exact mean {low:.3f}")
    return out


# ---------------------------------------------------------------------------
# the sweep files the harness wrote for one chunk of trials

def sweep_problems(w: Workload, reports, csv_text: str, json_text: str) -> list[str]:
    out = []
    rows = json.loads(json_text)["rows"]
    if len(rows) != 1:
        return [f"sweep JSON has {len(rows)} rows, expected 1"]
    row = rows[0]
    want = {
        "n": w.n,
        "trials": len(reports),
        "failures": sum(1 for r in reports if not (r.alice_correct and r.bob_correct)),
        "coincidence_failures": sum(1 for r in reports if r.coincidence_ok is False),
    }
    for key, value in want.items():
        if row[key] != value:
            out.append(f"sweep JSON {key} {row[key]} != {value} counted from the reports")
    rate = sum(r.n_logical / r.channel_uses if r.channel_uses else 0.0
               for r in reports) / len(reports)
    if not math.isclose(row["mean_rate"], rate, rel_tol=1e-12):
        out.append(f"sweep JSON mean_rate {row['mean_rate']} != {rate}")

    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return out + ["sweep CSV header differs"]
    if len(lines) != len(reports) + 1:
        return out + [f"sweep CSV has {len(lines) - 1} rows for {len(reports)} trials"]
    for line, r in zip(lines[1:], reports):
        cells = line.split(",")
        want_cells = [str(r.seed), str(r.channel_uses), str(int(r.alice_correct)),
                      str(int(r.bob_correct)), str(r.lookahead_bits)]
        if [cells[3], cells[4], cells[6], cells[7], cells[8]] != want_cells:
            out.append(f"sweep CSV row {line!r} does not match trial {r.seed}")
    return out


# ---------------------------------------------------------------------------
# the drawn protocol, run by a loop of the benchmark's own

def drawn_protocol(w: Workload, seed: int):
    """(advance, tables) a trial with this seed draws, before padding."""
    rng = np.random.default_rng(seed)
    if w.family == "two-state":
        rng.integers(16)
        return drawn_advance(seed), [TWO_STATE_TABLES[k] for k in rng.integers(0, 4, size=w.n)]
    M = w.states
    shift = tuple((((s << 1) & (M - 1)), ((s << 1) & (M - 1)) | 1) for s in range(M))
    tables = [tuple((x >> (M - 1 - i)) & 1 for i in range(M))
              for x in rng.integers(0, 1 << M, size=w.n)]
    return shift, tables


def protocol_problems(w: Workload, seed: int) -> list[str]:
    """Draw the trial's protocol through the public API and check it, and its
    ``run_protocol`` transcript, against the benchmark's own draw and loop."""
    from icsim import random_protocol, random_two_state_protocol, run_protocol
    from icsim.multistate import all_tables

    advance, tables = drawn_protocol(w, seed)
    rng = np.random.default_rng(seed)
    if w.family == "two-state":
        p = random_two_state_protocol(w.n, rng)
    else:
        p = random_protocol(w.n, w.states, all_tables(w.states), rng, advance=advance)
    if tuple(map(tuple, p.advance)) != advance or list(map(tuple, p.transmissions)) != tables:
        return [f"protocol drawn for seed {seed} differs from the benchmark's draw"]
    s = p.initial_state
    bits, states = [], [s]
    for table in tables:
        b = table[s]
        s = advance[s][b]
        bits.append(b)
        states.append(s)
    trace = run_protocol(p)
    if list(trace.bits) != bits or list(trace.states) != states:
        return [f"run_protocol differs from the table loop for seed {seed}"]
    return []
