"""Finite-state two-party protocols and their noiseless transcript oracle.

A protocol walks a shared state machine over rounds 1..n. At round i the
owner of the round (Alice on odd rounds, Bob on even rounds) evaluates a
private transmission table on the current state to produce one transcript
bit, and both parties advance the state through the shared state-advance
table. Everything downstream of this module (channel simulation, vertical
block schemes, lookahead exchanges) treats ``run_protocol`` as the ground
truth it has to reproduce.

A protocol stores its n transmission tables once, as a read-only (n, M)
uint8 array whose entries ``_bits`` checks in one pass, and its advance
table also as an (M, 2) array. A party's view is the odd or even row
stride of that array, so the schemes index tables for whole rows or
columns of the vertical grid at once instead of walking rounds in Python.
``_bits`` is the one test of what a bit is, ``_advance_rows`` of an
advance table and ``_is_int`` of an integer input; every entry point that
takes such an input calls its test (not ``walk``, which is internal).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
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


_SCAN_BYTES = 1024  # a byte scan grows with size; past ~2 KiB a ufunc reduce is cheaper
_DIGITS = bytes(range(256))  # _DIGITS[:size] is the alphabet 0 .. size - 1 as bytes
_U8 = np.dtype(np.uint8)


def _short_u8(values) -> bool:
    """Whether ``values`` is a flat uint8 ``np.ndarray``, not a subclass, of
    at most ``_SCAN_BYTES`` bytes, as every transfer's payload and outputs
    are: such an array is checked by one byte scan and returned as it is."""
    return (type(values) is np.ndarray and values.dtype is _U8 and values.ndim == 1
            and values.size <= _SCAN_BYTES)


def _in_alphabet(arr: np.ndarray, size: int) -> bool:
    """Whether the integer array ``arr`` holds only values 0 .. size - 1, by
    one ufunc maximum. A signed array is read in the unsigned view of its
    own byte order, where a negative entry lies above every alphabet."""
    if arr.dtype.kind == "i":
        arr = arr.view(arr.dtype.str.replace("i", "u"))
    return np.maximum.reduce(arr, axis=None, initial=0) < size


def _bits(values, error: str) -> np.ndarray:
    """``values`` as uint8, the one test of what a bit is: dtype kind b, i, u
    or f and every entry exactly 0 or 1, else ``ValueError(error)``, so 2,
    -1 or 0.5 is rejected, never truncated. A ``_short_u8`` array, such as
    a transfer's payload, is checked by one byte scan with no other step;
    other integers by ``_in_alphabet``. A uint8 array is returned uncopied."""
    if _short_u8(values):
        if values.tobytes().translate(None, _DIGITS[:2]):
            raise ValueError(error)
        return values
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if not (kind == "b" or kind in "iu" and _in_alphabet(arr, 2)
            or kind == "f" and ((arr == 0) | (arr == 1)).all()):
        raise ValueError(error)
    return arr.astype(np.uint8, copy=False)


def _bit_rows(rows: Sequence[Sequence[int]] | np.ndarray, count: int, M: int) -> np.ndarray:
    """A read-only (count, M) uint8 copy of ``rows``, checked in one pass."""
    if not hasattr(rows, "__len__"):
        raise ValueError(f"transmission tables must be a list of rows, not {rows!r}")
    if len(rows) != count:
        raise ValueError(f"expected {count} transmission tables, got {len(rows)}")
    try:
        arr = np.array(rows)
    except ValueError:
        raise ValueError(f"transmission tables are ragged; each needs {M} entries") from None
    if arr.ndim != 2 or arr.shape[1] != M:
        raise ValueError(f"transmission table needs {M} entries, got shape {arr.shape[1:]}")
    tables = _bits(arr, "transmission table entries must be bits")
    tables.flags.writeable = False
    return tables


def _advance_rows(advance: Sequence[Sequence[int]] | np.ndarray, M: int) -> np.ndarray:
    """A read-only (M, 2) copy of the advance table, checked in one pass: the
    one test of an advance table. Its entries are integers in 0..M-1; a
    float or a bool is no state index, also where numpy would turn a True
    among ints into 1."""
    try:
        arr = np.array(advance)
    except ValueError:
        arr = None
    if arr is None or arr.shape != (M, 2) or arr.dtype.kind not in "iu" or (
            not isinstance(advance, np.ndarray)
            and any(isinstance(v, (bool, np.bool_)) for row in advance for v in row)):
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
    read-only (n, M) uint8 array; ``transmissions`` gives the same bits as
    tuples. ``advance[s][bit]`` is the successor state, also held as the
    read-only (M, 2) array ``advance_array``. ``initial_state``
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


@dataclass(frozen=True)
class TranscriptTrace:
    """Output of the noiseless oracle: n bits and the n+1 visited states."""

    bits: tuple[int, ...]
    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.bits) + 1:
            raise ValueError("trace must hold one more state than bits")


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


# ``walk`` takes at most this many (round, sequence, state or start) entries at
# once, so its intp running indices and each cached layout stay small
_WALK_SPAN = 1 << 17


@lru_cache(maxsize=16)
def _walk_layout(B: int, M: int, k: int) -> tuple:
    """What ``walk`` reads for B sequences over M states from k starts:
    ``2s`` at each flat position ``b * M + s`` in the smallest unsigned dtype
    holding 2M, ``b * M`` there, and ``b * M`` at each of row b's k starts,
    the last two in the smallest unsigned dtype holding B * M. B * (M + k)
    is at most ``_WALK_SPAN``, so an entry holds under 1 MiB."""
    dtype = np.min_scalar_type(2 * M - 1)
    base = np.arange(0, B * M, M, dtype=np.promote_types(dtype, np.min_scalar_type(B * M)))
    arrays = (np.tile(np.arange(0, 2 * M, 2, dtype=dtype), B), base.repeat(M), base.repeat(k))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def walk(advance: Sequence[Sequence[int]] | np.ndarray, tables: np.ndarray,
         starts: Sequence[int] | np.ndarray) -> np.ndarray:
    """The (p + 1, B, k) noiseless states of a (B, p, M) stack of table
    sequences, each walked from its k ``starts`` ((B, k), or k shared ones):
    ``tables[:, i]`` is read at ``[i]``, and ``[p]`` holds the finals, in the
    smallest unsigned dtype holding the 2M advance entries. The sequences go
    in blocks of at most ``_WALK_SPAN`` entries, (p + 1) * (M + k) a row."""
    tables = np.asarray(tables)
    B, p, M = tables.shape
    starts = np.asarray(starts)
    if starts.ndim == 1:  # k shared starts
        starts = np.broadcast_to(starts, (B, starts.size))
    states = np.empty((p + 1, *starts.shape), dtype=np.min_scalar_type(2 * M - 1))
    flat = np.asarray(advance, dtype=states.dtype).ravel()
    rows = max(1, _WALK_SPAN // ((p + 1) * (M + starts.shape[1])))
    for lo in range(0, B, rows):
        _walk_rows(flat, tables[lo:lo + rows], starts[lo:lo + rows], states[:, lo:lo + rows])
    return states


@lru_cache(maxsize=16)
def _item(size: int) -> np.dtype:
    """The void dtype of ``size`` bytes, which moves one round's M table
    entries as one item."""
    return np.dtype((np.void, size))


def _walk_rows(flat: np.ndarray, tables: np.ndarray, starts: np.ndarray, out: np.ndarray) -> None:
    """``walk`` of one block into its ``out`` rows. Each round's map is
    precomputed as the flat index ``b * M + s`` of every sequence's next
    state, so a round is one gather."""
    B, p, M = tables.shape
    twice, rows, offset = _walk_layout(B, M, starts.shape[1])
    if tables.strides[-1] != tables.itemsize:  # a void view needs contiguous entries
        tables = np.ascontiguousarray(tables)
    # round-major, each round's M entries moved as one item
    rounds = np.ascontiguousarray(tables.view(_item(M * tables.itemsize))[..., 0].T)
    rounds = rounds.view(tables.dtype)
    # step[i, b * M + s] = b * M + advance[s, tables[b, i, s]], at 2s + bit of the flat advance
    step = np.add(flat.take(rounds + twice), rows, dtype=rows.dtype)
    at = np.empty((p + 1, offset.size), dtype=np.intp)
    np.add(starts.reshape(-1), offset, out=at[0])
    for i in range(p):
        at[i + 1] = step[i][at[i]]
    np.subtract(at.reshape(out.shape), offset.reshape(out.shape[1:]), out=out, casting="unsafe")


def chain(finals: np.ndarray, s0: int) -> np.ndarray:
    """Start state of each of R consecutive rows, from the (R, M) finals of
    every row from every start state: row 0 starts in ``s0``, and row r + 1
    in ``finals[r, s]`` where s is row r's start."""
    starts = []
    for ends in np.asarray(finals).tolist():
        starts.append(s0)
        s0 = ends[s0]
    return np.array(starts, dtype=np.intp)


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
    if len(function_set) == 0:
        raise ValueError("function set must be nonempty")
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    fset = _bit_rows(function_set, len(function_set), M)
    return FiniteStateProtocol(
        n=n,
        M=M,
        advance=advance,
        transmissions=fset.take(rng.integers(0, len(fset), size=n), axis=0),
        initial_state=initial_state,
    )


def party_view(p: FiniteStateProtocol, party: Party) -> np.ndarray:
    """The tables of ``party``'s rounds, in round order: the odd (Alice) or
    even (Bob) row stride of the protocol's table array, so row
    ``(i - 1) // 2`` is the party's round i. The stride is a read-only view
    into the whole table array, not a copy, so it hides nothing."""
    return p.tables[1 - party.parity::2]


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


def advance_table(raw, M: int | None = None) -> np.ndarray:
    """A read-only (M, 2) advance table from its JSON form: a list of M
    [next on 0, next on 1] rows, or the same entries flat in row-major
    order. M is the row count, at least two, unless given; a given M is
    checked by ``_advance_rows``, which also takes any value that is not a
    list, an array among them, as it is."""
    is_list = isinstance(raw, (list, tuple))
    if is_list and raw and not isinstance(raw[0], (list, tuple)):
        if len(raw) % 2:
            raise ValueError("flat advance table must have 2M entries")
        raw = [raw[k:k + 2] for k in range(0, len(raw), 2)]
    if M is not None:
        return _advance_rows(raw, M)
    if not is_list:
        raise ValueError(f"advance table must be a list of rows or a flat list, not {raw!r}")
    if len(raw) < 2:
        raise ValueError(f"advance table needs at least two states, not {len(raw)}")
    return _advance_rows(raw, len(raw))


def _is_int(value) -> bool:
    """The one test of an integer input, such as a JSON number: a Python
    int, never a bool and never a numpy integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_entry(d: dict, key: str, default: int | None = None) -> int:
    value = d[key] if default is None else d.get(key, default)
    if not _is_int(value):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


def protocol_from_dict(d: dict) -> FiniteStateProtocol:
    """The protocol of a ``protocol_to_dict`` mapping; a value of the wrong
    type or shape raises ValueError."""
    return FiniteStateProtocol(
        n=_int_entry(d, "n"),
        M=_int_entry(d, "M"),
        advance=advance_table(d["advance"]),
        transmissions=d["transmissions"],
        initial_state=_int_entry(d, "initial_state", 0),
    )


def save_protocol(p: FiniteStateProtocol, path: str | Path) -> None:
    Path(path).write_text(json.dumps(protocol_to_dict(p), indent=1) + "\n")


def read_json(path: str | Path, what: str, keys: Sequence[str] | None = None, parse=None):
    """The JSON value in the file at ``path``, the one reader of every JSON
    input; with ``keys`` it must be an object that holds them, and with
    ``parse`` the result is ``parse(value)``. Any failure, a ValueError of
    ``parse`` included, raises ``ValueError("cannot read <what> <path>:
    <reason>")``."""
    try:
        raw = json.loads(Path(path).read_text())
        if keys is not None and not isinstance(raw, dict):
            raise ValueError(f"must be a JSON object, not {type(raw).__name__}")
        missing = [key for key in keys or () if key not in raw]
        if missing:
            raise ValueError(f"missing keys {missing}")
        return raw if parse is None else parse(raw)
    except (OSError, ValueError) as exc:  # ValueError also covers bad JSON and bad UTF-8
        raise ValueError(f"cannot read {what} {path}: {exc}") from None


def load_protocol(path: str | Path) -> FiniteStateProtocol:
    return read_json(path, "protocol", ("n", "M", "advance", "transmissions"), protocol_from_dict)
