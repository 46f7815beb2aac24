"""Finite-state two-party protocols and their noiseless transcript oracle.

A protocol walks a shared state machine over rounds 1..n. At round i the
owner of the round (Alice on odd rounds, Bob on even rounds) evaluates a
private transmission table on the current state to produce one transcript
bit, and both parties advance the state through the shared state-advance
table. Everything downstream of this module (channel simulation, vertical
block schemes, lookahead exchanges) treats ``run_protocol`` as the ground
truth it has to reproduce.

A protocol stores its n transmission tables once, as a read-only (n, M)
uint8 array validated in one numpy pass, and its advance table also as an
(M, 2) array. A party's view is the odd or even row stride of that array,
so the schemes index tables for whole rows or columns of the vertical grid
at once instead of walking rounds in Python.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

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


def _bit_rows(rows: Sequence[Sequence[int]] | np.ndarray, count: int, M: int) -> np.ndarray:
    """A read-only (count, M) uint8 copy of ``rows``, checked in one pass."""
    if len(rows) != count:
        raise ValueError(f"expected {count} transmission tables, got {len(rows)}")
    try:
        arr = np.array(rows)
    except ValueError:
        raise ValueError(f"transmission tables are ragged; each needs {M} entries") from None
    if arr.ndim != 2 or arr.shape[1] != M:
        raise ValueError(f"transmission table needs {M} entries, got shape {arr.shape[1:]}")
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise ValueError("transmission table entries must be bits")
    tables = arr.astype(np.uint8, copy=False)
    tables.flags.writeable = False
    return tables


def _advance_rows(advance: Sequence[Sequence[int]] | np.ndarray, M: int) -> np.ndarray:
    """A read-only (M, 2) copy of the advance table, checked in one pass."""
    try:
        arr = np.array(advance)
    except ValueError:
        arr = None
    if arr is None or arr.shape != (M, 2) or arr.dtype.kind not in "iu":
        raise ValueError(f"advance table must be {M}x2 state indices")
    bad = arr[(arr < 0) | (arr >= M)]
    if bad.size:
        raise ValueError(f"advance entry {bad[0]} outside 0..{M - 1}")
    arr = arr.astype(np.intp, copy=False)
    arr.flags.writeable = False
    return arr


class FiniteStateProtocol:
    """Immutable description of an n-round protocol over M states.

    ``tables[i-1, s]`` is the bit sent at round i from state s, held in one
    read-only (n, M) uint8 array; ``transmissions`` and ``table(i)`` give the
    same bits as tuples. ``advance[s][bit]`` is the successor state, also
    held as the read-only (M, 2) array ``advance_array``. ``initial_state``
    is known to both parties before the first round. The constructor copies
    its inputs, so later changes to the caller's arrays do not reach the
    protocol, and two protocols are equal when their contents are.
    """

    __slots__ = ("n", "M", "advance", "advance_array", "tables", "initial_state")

    def __init__(self, n: int, M: int, advance: Sequence[Sequence[int]] | np.ndarray,
                 transmissions: Sequence[Sequence[int]] | np.ndarray,
                 initial_state: int = 0) -> None:
        if n < 1:
            raise ValueError("protocol needs at least one round")
        if M < 2:
            raise ValueError("need at least two states")
        advance_array = _advance_rows(advance, M)
        tables = _bit_rows(transmissions, n, M)
        if not 0 <= initial_state < M:
            raise ValueError("initial state out of range")
        advance_rows = tuple(map(tuple, advance_array.tolist()))
        for name, value in (("n", n), ("M", M), ("advance", advance_rows),
                            ("advance_array", advance_array), ("tables", tables),
                            ("initial_state", initial_state)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not attribute by attribute
        return type(self), (self.n, self.M, self.advance_array, self.tables, self.initial_state)

    def _key(self) -> tuple:
        return self.n, self.M, self.advance, self.initial_state, self.tables.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteStateProtocol):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"FiniteStateProtocol(n={self.n}, M={self.M}, advance={self.advance}, "
                f"initial_state={self.initial_state})")

    @property
    def transmissions(self) -> tuple[Table, ...]:
        """Every round's transmission table, in round order."""
        return tuple(map(tuple, self.tables.tolist()))

    def table(self, i: int) -> Table:
        """Transmission table of 1-based round ``i``."""
        if not 1 <= i <= self.n:
            raise IndexError(f"round {i} outside 1..{self.n}")
        return tuple(self.tables[i - 1].tolist())


@dataclass(frozen=True)
class TranscriptTrace:
    """Output of the noiseless oracle: n bits and the n+1 visited states."""

    bits: tuple[int, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.bits) + 1:
            raise ValueError("trace must hold one more state than bits")


@dataclass(frozen=True, eq=False)
class PartyView:
    """One party's private slice of a protocol.

    ``tables`` holds only the tables of that party's rounds, in round order:
    the odd (Alice) or even (Bob) row stride of the protocol's table array.
    Asking for a counterpart round raises. The shared pieces (advance
    table, initial state, n, M) are included since both parties know them.
    """

    party: Party
    n: int
    M: int
    advance: tuple[tuple[int, int], ...]
    initial_state: int
    tables: np.ndarray = field(repr=False)

    def table(self, i: int) -> Table:
        if not 1 <= i <= self.n or i % 2 != self.party.parity:
            raise KeyError(f"round {i} is not owned by {self.party.value}")
        return tuple(self.tables[(i - 1) // 2].tolist())

    @property
    def rounds(self) -> tuple[int, ...]:
        return tuple(range(2 - self.party.parity, self.n + 1, 2))


def run_protocol(p: FiniteStateProtocol, initial_state: int | None = None) -> TranscriptTrace:
    """Noiseless execution from ``initial_state`` (default: the protocol's own)."""
    s = p.initial_state if initial_state is None else initial_state
    if not 0 <= s < p.M:
        raise ValueError(f"start state {s} outside 0..{p.M - 1}")
    # column[s][i - 1] is the bit of round i from state s; indexing bytes is
    # as cheap as indexing a tuple, and no per-round object is built
    column = [p.tables[:, k].tobytes() for k in range(p.M)]
    adv = p.advance
    bits: list[int] = []
    states = [s]
    for i in range(p.n):
        tau = column[s][i]
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
        transmissions=transmissions,
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
    fset = _bit_rows(function_set, len(function_set), M)
    return FiniteStateProtocol(
        n=n,
        M=M,
        advance=advance,
        transmissions=fset[rng.integers(0, len(fset), size=n)],
        initial_state=initial_state,
    )


def party_view(p: FiniteStateProtocol, party: Party) -> PartyView:
    return PartyView(
        party=party,
        n=p.n,
        M=p.M,
        advance=p.advance,
        initial_state=p.initial_state,
        tables=p.tables[1 - party.parity::2],
    )


def pad_protocol(p: FiniteStateProtocol, n_padded: int) -> FiniteStateProtocol:
    """Extend with rounds that transmit 0 from every state."""
    if n_padded < p.n:
        raise ValueError("cannot pad to a shorter length")
    if n_padded == p.n:
        return p
    zeros = np.zeros((n_padded - p.n, p.M), dtype=np.uint8)
    return FiniteStateProtocol(
        n=n_padded,
        M=p.M,
        advance=p.advance_array,
        transmissions=np.vstack((p.tables, zeros)),
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
        "transmissions": p.tables.tolist(),
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
        transmissions=d["transmissions"],
        initial_state=int(d.get("initial_state", 0)),
    )


def save_protocol(p: FiniteStateProtocol, path: str | Path) -> None:
    Path(path).write_text(json.dumps(protocol_to_dict(p), indent=1) + "\n")


def load_protocol(path: str | Path) -> FiniteStateProtocol:
    return protocol_from_dict(json.loads(Path(path).read_text()))
