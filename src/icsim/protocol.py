"""Finite-state two-party protocols and their noiseless transcript oracle.

A protocol walks a shared state machine over rounds 1..n. At round i the
owner of the round (Alice on odd rounds, Bob on even rounds) evaluates a
private transmission table on the current state to produce one transcript
bit, and both parties advance the state through the shared state-advance
table. Everything downstream of this module (channel simulation, vertical
block schemes, lookahead exchanges) treats ``run_protocol`` as the ground
truth it has to reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

Table = tuple[int, ...]


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"

    # members are singletons; identity hashing keeps Party-keyed dicts cheap
    __hash__ = object.__hash__

    @property
    def parity(self) -> int:
        """Residue mod 2 of the 1-based round indices this party owns."""
        return 1 if self is Party.ALICE else 0

    @property
    def other(self) -> "Party":
        return Party.BOB if self is Party.ALICE else Party.ALICE


def owner_of_round(i: int) -> Party:
    """Party that speaks at 1-based round ``i``."""
    return Party.ALICE if i % 2 == 1 else Party.BOB


def _as_table(table: Sequence[int], M: int) -> Table:
    t = tuple(int(b) for b in table)
    if len(t) != M:
        raise ValueError(f"transmission table needs {M} entries, got {len(t)}")
    for b in t:
        if b not in (0, 1):
            raise ValueError("transmission table entries must be bits")
    return t


def _as_advance(advance: Sequence[Sequence[int]], M: int) -> tuple[tuple[int, int], ...]:
    rows = tuple(tuple(int(s) for s in row) for row in advance)
    if len(rows) != M or any(len(r) != 2 for r in rows):
        raise ValueError(f"advance table must be {M}x2")
    for r in rows:
        for s in r:
            if not 0 <= s < M:
                raise ValueError(f"advance entry {s} outside 0..{M - 1}")
    return rows


@dataclass(frozen=True)
class FiniteStateProtocol:
    """Immutable description of an n-round protocol over M states.

    ``advance[s][bit]`` is the successor state, ``transmissions[i-1][s]``
    the bit sent at round i from state s. ``initial_state`` is known to
    both parties before the first round.
    """

    n: int
    M: int
    advance: tuple[tuple[int, int], ...]
    transmissions: tuple[Table, ...]
    initial_state: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("protocol needs at least one round")
        if self.M < 2:
            raise ValueError("need at least two states")
        object.__setattr__(self, "advance", _as_advance(self.advance, self.M))
        if len(self.transmissions) != self.n:
            raise ValueError(f"expected {self.n} transmission tables, got {len(self.transmissions)}")
        object.__setattr__(
            self, "transmissions", tuple(_as_table(t, self.M) for t in self.transmissions)
        )
        if not 0 <= self.initial_state < self.M:
            raise ValueError("initial state out of range")

    def table(self, i: int) -> Table:
        """Transmission table of 1-based round ``i``."""
        if not 1 <= i <= self.n:
            raise IndexError(f"round {i} outside 1..{self.n}")
        return self.transmissions[i - 1]

    def advance_state(self, s: int, bit: int) -> int:
        return self.advance[s][bit]


@dataclass(frozen=True)
class TranscriptTrace:
    """Output of the noiseless oracle: n bits and the n+1 visited states."""

    bits: tuple[int, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.bits) + 1:
            raise ValueError("trace must hold one more state than bits")


@dataclass(frozen=True)
class PartyView:
    """One party's private slice of a protocol.

    Holds only the transmission tables at rounds of that party's parity;
    asking for a counterpart round raises. The shared pieces (advance
    table, initial state, n, M) are included since both parties know them.
    """

    party: Party
    n: int
    M: int
    advance: tuple[tuple[int, int], ...]
    initial_state: int
    tables: Mapping[int, Table] = field(repr=False)

    def table(self, i: int) -> Table:
        if i not in self.tables:
            raise KeyError(f"round {i} is not owned by {self.party.value}")
        return self.tables[i]

    @property
    def rounds(self) -> tuple[int, ...]:
        return tuple(sorted(self.tables))


def run_protocol(p: FiniteStateProtocol, initial_state: int | None = None) -> TranscriptTrace:
    """Noiseless execution from ``initial_state`` (default: the protocol's own)."""
    s = p.initial_state if initial_state is None else initial_state
    if not 0 <= s < p.M:
        raise ValueError(f"start state {s} outside 0..{p.M - 1}")
    bits: list[int] = []
    states = [s]
    adv = p.advance
    for tbl in p.transmissions:
        tau = tbl[s]
        s = adv[s][tau]
        bits.append(tau)
        states.append(s)
    return TranscriptTrace(tuple(bits), tuple(states))


def markovian_advance(log_M: int) -> tuple[tuple[int, int], ...]:
    """Shift-register advance over the window of the last ``log_M`` bits.

    The state drops its oldest bit, the high-order bit of the integer state
    encoding, and appends the new one.
    """
    if log_M < 1:
        raise ValueError("window length must be positive")
    M = 1 << log_M
    return tuple(((s << 1) & (M - 1), ((s << 1) & (M - 1)) | 1) for s in range(M))


def make_markovian(log_M: int, transmissions: Sequence[Sequence[int]],
                   initial_state: int = 0) -> FiniteStateProtocol:
    """Protocol whose state is the window of the last ``log_M`` transcript bits."""
    advance = markovian_advance(log_M)
    return FiniteStateProtocol(
        n=len(transmissions),
        M=len(advance),
        advance=advance,
        transmissions=tuple(transmissions),
        initial_state=initial_state,
    )


def random_protocol(n: int, M: int, function_set: Sequence[Sequence[int]],
                    seed: int | np.random.Generator,
                    advance: Sequence[Sequence[int]],
                    initial_state: int = 0) -> FiniteStateProtocol:
    """Draw each round's table i.i.d. uniformly from ``function_set``.

    The state-advance table is an explicit argument: a protocol is not
    complete without one, even though only the transmissions are random.
    """
    if not function_set:
        raise ValueError("function set must be nonempty")
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    fset = tuple(_as_table(t, M) for t in function_set)
    picks = rng.integers(0, len(fset), size=n)
    return FiniteStateProtocol(
        n=n,
        M=M,
        advance=advance,
        transmissions=tuple(fset[int(k)] for k in picks),
        initial_state=initial_state,
    )


def party_view(p: FiniteStateProtocol, party: Party) -> PartyView:
    first = 2 - party.parity
    tables = dict(zip(range(first, p.n + 1, 2), p.transmissions[first - 1::2]))
    return PartyView(
        party=party,
        n=p.n,
        M=p.M,
        advance=p.advance,
        initial_state=p.initial_state,
        tables=tables,
    )


def pad_protocol(p: FiniteStateProtocol, n_padded: int) -> FiniteStateProtocol:
    """Extend with rounds that transmit 0 from every state."""
    if n_padded < p.n:
        raise ValueError("cannot pad to a shorter length")
    if n_padded == p.n:
        return p
    zero = (0,) * p.M
    return FiniteStateProtocol(
        n=n_padded,
        M=p.M,
        advance=p.advance,
        transmissions=p.transmissions + (zero,) * (n_padded - p.n),
        initial_state=p.initial_state,
    )


# ---------------------------------------------------------------------------
# serialization

def protocol_to_dict(p: FiniteStateProtocol) -> dict:
    flat = [p.advance[s][b] for s in range(p.M) for b in (0, 1)]
    return {
        "n": p.n,
        "M": p.M,
        "initial_state": p.initial_state,
        "advance": flat,
        "transmissions": [list(t) for t in p.transmissions],
    }


def protocol_from_dict(d: dict) -> FiniteStateProtocol:
    M = int(d["M"])
    flat = list(d["advance"])
    if len(flat) != 2 * M:
        raise ValueError("flat advance table must have 2*M entries")
    advance = tuple((int(flat[2 * s]), int(flat[2 * s + 1])) for s in range(M))
    return FiniteStateProtocol(
        n=int(d["n"]),
        M=M,
        advance=advance,
        transmissions=tuple(tuple(int(b) for b in t) for t in d["transmissions"]),
        initial_state=int(d.get("initial_state", 0)),
    )


def save_protocol(p: FiniteStateProtocol, path: str | Path) -> None:
    Path(path).write_text(json.dumps(protocol_to_dict(p), indent=1) + "\n")


def load_protocol(path: str | Path) -> FiniteStateProtocol:
    return protocol_from_dict(json.loads(Path(path).read_text()))
