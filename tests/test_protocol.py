"""Protocol layer: array storage, traces, views, serialization, padding."""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.protocol import (
    FiniteStateProtocol,
    Party,
    make_markovian,
    owner_of_round,
    pad_protocol,
    party_view,
    protocol_from_dict,
    protocol_to_dict,
    random_protocol,
    run_protocol,
    save_protocol,
    load_protocol,
)
from icsim.twostate import ALL_TABLES2, all_two_state_advances, random_two_state_protocol

IDENTITY2 = ((0, 0), (1, 1))   # advance ignores the bit
FOLLOW2 = ((0, 1), (0, 1))     # next state equals the bit


def test_constant_zero_identity_advance_stays_put():
    p = FiniteStateProtocol(n=5, M=2, advance=IDENTITY2,
                            transmissions=((0, 0),) * 5, initial_state=1)
    trace = run_protocol(p)
    assert trace.bits == (0,) * 5
    assert trace.states == (1,) * 6


def test_follow_advance_with_negation_alternates():
    # tau_i = 1 - s_{i-1}, s_i = tau_i: hand iteration gives 1,0,1,0
    p = FiniteStateProtocol(n=4, M=2, advance=FOLLOW2,
                            transmissions=((1, 0),) * 4, initial_state=0)
    trace = run_protocol(p)
    assert trace.bits == (1, 0, 1, 0)
    assert trace.states == (0, 1, 0, 1, 0)


def test_markovian_identity_tables_hold_state():
    p = make_markovian(1, [(0, 1)] * 3, initial_state=1)
    assert run_protocol(p).bits == (1, 1, 1)


def test_run_protocol_rejects_bad_start():
    p = make_markovian(1, [(0, 1)] * 2)
    with pytest.raises(ValueError):
        run_protocol(p, initial_state=2)
    with pytest.raises(ValueError):
        run_protocol(p, initial_state=-1)


def test_run_protocol_is_deterministic():
    rng = np.random.default_rng(3)
    p = random_protocol(64, 4, [(0, 1, 0, 1), (1, 1, 0, 0)], rng,
                        advance=make_markovian(2, [(0,) * 4]).advance)
    assert run_protocol(p) == run_protocol(p)


def test_markovian_one_bit_window_follows_bit():
    p = make_markovian(1, [(0, 1)])
    assert p.advance == ((0, 1), (0, 1))


def test_markovian_two_bit_window_shifts():
    p = make_markovian(2, [(0,) * 4])
    # state 01 (old bit 0, new bit 1) plus incoming 1 -> 11
    assert p.advance[0b01][1] == 0b11
    for s in range(4):
        assert p.advance[s][0] % 2 == 0


def test_markovian_rejects_zero_window():
    with pytest.raises(ValueError):
        make_markovian(0, [])


def test_random_protocol_degenerate_set():
    p = random_protocol(20, 2, [(1, 0)], seed=5, advance=FOLLOW2)
    assert all(t == (1, 0) for t in p.transmissions)


def test_random_protocol_seed_determinism():
    fset = [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = random_protocol(100, 2, fset, seed=42, advance=FOLLOW2)
    b = random_protocol(100, 2, fset, seed=42, advance=FOLLOW2)
    assert a == b


def test_random_protocol_uniform_frequencies():
    fset = [(0, 0), (0, 1), (1, 0), (1, 1)]
    p = random_protocol(10_000, 2, fset, seed=11, advance=FOLLOW2)
    tol = 3 * (0.25 * 0.75 / 10_000) ** 0.5
    for f in fset:
        freq = sum(t == f for t in p.transmissions) / 10_000
        assert abs(freq - 0.25) <= tol


def test_random_protocol_rejects_empty_set():
    with pytest.raises(ValueError):
        random_protocol(4, 2, [], seed=0, advance=FOLLOW2)


def test_party_views_partition_rounds():
    p = random_protocol(4, 2, [(0, 1)], seed=0, advance=FOLLOW2)
    alice = party_view(p, Party.ALICE)
    bob = party_view(p, Party.BOB)
    assert alice.rounds == (1, 3)
    assert bob.rounds == (2, 4)
    merged = {i: alice.table(i) for i in alice.rounds}
    merged.update({i: bob.table(i) for i in bob.rounds})
    assert tuple(merged[i] for i in range(1, 5)) == p.transmissions


def test_party_view_hides_foreign_tables():
    p = random_protocol(4, 2, [(0, 1)], seed=0, advance=FOLLOW2)
    with pytest.raises(KeyError):
        party_view(p, Party.ALICE).table(2)


def test_owner_alternation():
    assert owner_of_round(1) is Party.ALICE
    assert owner_of_round(2) is Party.BOB
    assert all(owner_of_round(i).other is owner_of_round(i + 1) for i in range(1, 20))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), cut=st.integers(0, 15))
def test_trace_suffix_decouples_at_any_state(seed, cut):
    # restarting from a mid-trace state must reproduce the suffix exactly
    fset = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 1, 1)]
    p = random_protocol(16, 4, fset, seed=seed, advance=make_markovian(2, [(0,) * 4]).advance)
    trace = run_protocol(p)
    tail = FiniteStateProtocol(n=16 - cut, M=4, advance=p.advance,
                               transmissions=p.transmissions[cut:],
                               initial_state=trace.states[cut])
    assert run_protocol(tail).bits == trace.bits[cut:]


def test_validation_catches_bad_tables():
    with pytest.raises(ValueError):
        FiniteStateProtocol(n=1, M=2, advance=((0, 2), (0, 1)),
                            transmissions=((0, 0),))
    with pytest.raises(ValueError):
        FiniteStateProtocol(n=2, M=2, advance=FOLLOW2, transmissions=((0, 0),))
    with pytest.raises(ValueError):
        FiniteStateProtocol(n=1, M=2, advance=FOLLOW2, transmissions=((0, 0, 0),))


def test_pad_protocol_appends_zero_tables():
    p = random_protocol(10, 2, [(1, 0)], seed=9, advance=FOLLOW2)
    padded = pad_protocol(p, 16)
    assert padded.n == 16
    assert padded.transmissions[:10] == p.transmissions
    assert all(t == (0, 0) for t in padded.transmissions[10:])
    assert run_protocol(padded).bits[:10] == run_protocol(p).bits


def test_pad_protocol_rejects_shrinking():
    p = random_protocol(10, 2, [(1, 0)], seed=9, advance=FOLLOW2)
    with pytest.raises(ValueError):
        pad_protocol(p, 9)


def test_serialization_round_trip(tmp_path):
    p = random_protocol(12, 4, [(0, 1, 1, 0), (1, 0, 0, 1)], seed=2,
                        advance=make_markovian(2, [(0,) * 4]).advance, initial_state=3)
    assert protocol_from_dict(protocol_to_dict(p)) == p
    path = tmp_path / "proto.json"
    save_protocol(p, path)
    assert load_protocol(path) == p
    # the wire format keeps the advance table flat and row-major
    doc = json.loads(path.read_text())
    assert doc["advance"] == [v for row in p.advance for v in row]
    assert len(doc["advance"]) == 2 * p.M


def test_tables_are_read_only():
    p = random_protocol(8, 2, ALL_TABLES2, seed=0, advance=FOLLOW2)
    with pytest.raises(ValueError, match="read-only"):
        p.tables[0, 0] ^= 1
    with pytest.raises(ValueError, match="read-only"):
        p.advance_array[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        party_view(p, Party.BOB).tables[0, 0] ^= 1
    with pytest.raises(AttributeError):
        p.tables = np.zeros((8, 2), dtype=np.uint8)


def test_protocol_copies_the_callers_arrays():
    tables = np.zeros((4, 2), dtype=np.uint8)
    advance = np.array(FOLLOW2)
    p = FiniteStateProtocol(n=4, M=2, advance=advance, transmissions=tables)
    tables[:] = 1
    advance[:] = 0
    assert p.transmissions == ((0, 0),) * 4
    assert p.advance == FOLLOW2
    assert run_protocol(p).bits == (0,) * 4


def test_tuple_accessors_and_content_equality():
    tables = ((0, 1), (1, 1), (0, 0))
    p = FiniteStateProtocol(n=3, M=2, advance=FOLLOW2, transmissions=tables)
    q = FiniteStateProtocol(n=3, M=2, advance=np.array(FOLLOW2),
                            transmissions=np.array(tables, dtype=np.uint8))
    assert p.transmissions == tables and p.table(2) == (1, 1)
    assert isinstance(p.table(2)[0], int)
    assert p == q and hash(p) == hash(q)
    assert p != FiniteStateProtocol(n=3, M=2, advance=FOLLOW2, transmissions=tables,
                                    initial_state=1)
    assert party_view(p, Party.ALICE).table(3) == (0, 0)
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p


@pytest.mark.parametrize("change, message", [
    ({"transmissions": ((0, 1),) * 3}, "expected 4 transmission tables, got 3"),
    ({"transmissions": ((0, 1, 1),) * 4}, "needs 2 entries"),
    ({"transmissions": ((0, 1), (0, 1), (0,), (1, 0))}, "ragged"),
    ({"transmissions": ((0, 1), (0, 2), (0, 1), (1, 0))}, "must be bits"),
    ({"transmissions": ((0, 1), (0, -1), (0, 1), (1, 0))}, "must be bits"),
    ({"transmissions": ((0, 1), (0, 0.5), (0, 1), (1, 0))}, "must be bits"),
    ({"transmissions": np.full((4, 2), 2, dtype=np.uint8)}, "must be bits"),
    ({"advance": ((0, 1), (0, 2))}, r"advance entry 2 outside 0\.\.1"),
    ({"advance": ((0, 1), (-1, 1))}, r"advance entry -1 outside 0\.\.1"),
    ({"advance": ((0, 1),)}, "advance table must be 2x2"),
    ({"initial_state": 2}, "initial state out of range"),
])
def test_constructor_rejects_bad_input(change, message):
    args = {"n": 4, "M": 2, "advance": FOLLOW2, "transmissions": ((0, 1),) * 4, **change}
    with pytest.raises(ValueError, match=message):
        FiniteStateProtocol(**args)


@pytest.mark.parametrize("n", [1, 37, 1024])
def test_draws_consume_the_reference_rng_stream(n):
    ref = np.random.default_rng(n)
    advance = all_two_state_advances()[int(ref.integers(16))]
    picks = ref.integers(0, 4, size=n)
    rng = np.random.default_rng(n)
    p = random_two_state_protocol(n, rng)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert p.advance == advance
    assert p.transmissions == tuple(ALL_TABLES2[k] for k in picks)

    ref = np.random.default_rng(n)
    picks = ref.integers(0, 4, size=n)
    rng = np.random.default_rng(n)
    p = random_protocol(n, 2, ALL_TABLES2, rng, advance=FOLLOW2)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert p.transmissions == tuple(ALL_TABLES2[k] for k in picks)
