"""The three-state hardness family and its disjointness reduction."""

import itertools

import numpy as np
import pytest

from icsim.protocol import run_protocol
from icsim.threestate import (
    EXAMPLE2_ADVANCE,
    build_example2,
    count_transcript_triples,
    disj_via_protocol,
)


def test_advance_table_is_pinned():
    assert EXAMPLE2_ADVANCE == ((0, 1), (0, 2), (2, 2))


def test_all_zero_inputs_stay_at_zero():
    trace = run_protocol(build_example2((0, 0, 0, 0), (0, 0, 0, 0)))
    assert trace.bits == (0, 0, 0, 0)
    assert trace.states == (0, 0, 0, 0, 0)


def test_absorbing_start_echoes_beta():
    trace = run_protocol(build_example2((1, 0, 1, 0), (1, 1, 0, 1), initial_state=2))
    assert trace.bits == (1, 1, 0, 1)
    assert all(s == 2 for s in trace.states)


def test_two_round_intersection_reaches_absorption():
    trace = run_protocol(build_example2((1, 1), (0, 0)))
    assert trace.bits == (1, 1)
    assert trace.states == (0, 1, 2)


def test_alpha_one_zero_falls_back():
    # Alice marks the element, Bob does not: state retreats to 0
    trace = run_protocol(build_example2((1, 0), (0, 0)))
    assert trace.bits == (1, 0)
    assert trace.states == (0, 1, 0)


def test_bob_cannot_raise_state_alone():
    # from state 0 Bob transmits 0 regardless of his alpha bit
    trace = run_protocol(build_example2((0, 1), (0, 0)))
    assert trace.bits == (0, 0)
    assert trace.states == (0, 0, 0)


def test_state_two_is_absorbing_for_all_inputs():
    for alpha in itertools.product((0, 1), repeat=4):
        for beta in itertools.product((0, 1), repeat=4):
            trace = run_protocol(build_example2(alpha, beta))
            hit = False
            for s in trace.states:
                if hit:
                    assert s == 2
                hit = hit or s == 2


def test_instance_validation():
    with pytest.raises(ValueError, match="even number of rounds"):
        build_example2((0, 1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="alpha must be a bit vector"):
        build_example2((0, 2), (0, 0))
    with pytest.raises(ValueError, match="equal length"):
        build_example2((0, 1), (0, 1, 0, 1))
    with pytest.raises(ValueError, match="alpha must be a bit vector"):
        build_example2([0.7, 1.0], [0, 0])  # not truncated to alpha (0, 1)
    with pytest.raises(ValueError, match="beta must be a bit vector"):
        build_example2((0, 1), (0, -0.5))
    assert build_example2([1.0, True], [0, 0]) == build_example2((1, 1), (0, 0))
    with pytest.raises(ValueError, match="2-D arrays of one shape"):
        disj_via_protocol([0, 1, 1], [1, 0, 0])
    with pytest.raises(ValueError, match="2-D arrays of one shape"):
        disj_via_protocol([[0, 1, 1]], [[1, 0, 0, 1]])  # Bob's element 4 outside {1, 2, 3}
    with pytest.raises(ValueError, match="2-D arrays of one shape"):
        disj_via_protocol(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="only bits"):
        disj_via_protocol([[0, 2, 1]], [[1, 0, 0]])
    with pytest.raises(ValueError, match="only bits"):
        disj_via_protocol([[0, 1, 1]], [[1, 0, 0.5]])


def test_reduction_layout():
    # the batched walk against the reference loop on every pair up to u = 3,
    # with alpha laid out by hand as x_1, y_1, x_2, y_2, ...
    for u in (1, 2, 3):
        rows = list(itertools.product((0, 1), repeat=u))
        x = np.array([xr for xr in rows for _ in rows], dtype=np.uint8)
        y = np.array([yr for _ in rows for yr in rows], dtype=np.uint8)
        alphas = [[bit for pair in zip(xr, yr) for bit in pair] for xr, yr in zip(x, y)]
        expected = [int(run_protocol(build_example2(alpha, [0] * 2 * u)).states[-1] != 2)
                    for alpha in alphas]
        assert disj_via_protocol(x, y).tolist() == expected


def test_disj_hand_cases():
    # mixed universes zero-padded to width 4: the padding rounds end in state 0
    x = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
    y = np.array([[0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=np.uint8)
    assert disj_via_protocol(x, y).tolist() == [1, 0, 1, 0]
    assert [disj_via_protocol(x[i:i + 1], y[i:i + 1])[0] for i in range(4)] == [1, 0, 1, 0]
    empty = np.zeros((0, 4), dtype=np.uint8)
    assert disj_via_protocol(empty, empty).tolist() == []


@pytest.mark.parametrize("universe", [1, 2, 3, 4, 5])
def test_disj_exhaustive(universe):
    ground = list(range(1, universe + 1))
    subsets = [frozenset(c) for r in range(universe + 1)
               for c in itertools.combinations(ground, r)]
    pairs = [(a, b) for a in subsets for b in subsets]
    x = np.array([[k in a for k in ground] for a, _ in pairs], dtype=np.uint8)
    y = np.array([[k in b for k in ground] for _, b in pairs], dtype=np.uint8)
    assert disj_via_protocol(x, y).tolist() == [int(not a & b) for a, b in pairs]


def test_triple_counts():
    assert count_transcript_triples(2) == 8
    assert count_transcript_triples(4) == 64
    assert count_transcript_triples(6) == 512
    assert count_transcript_triples(10) == 2**15
    assert count_transcript_triples(12) == 2**18
    with pytest.raises(ValueError):
        count_transcript_triples(3)
    with pytest.raises(ValueError):
        count_transcript_triples(0)
    with pytest.raises(ValueError):
        count_transcript_triples(14)


def test_triples_separate_assignments():
    # the count works because the triple map is injective on assignments
    seen = {}
    m = 4
    for odd in itertools.product((0, 1), repeat=m // 2):
        alpha = [0] * m
        alpha[0::2] = odd
        for beta in itertools.product((0, 1), repeat=m):
            trip = tuple(run_protocol(build_example2(alpha, beta, initial_state=s)).bits
                         for s in range(3))
            key = (odd, beta)
            assert trip not in seen or seen[trip] == key
            seen[trip] = key
    assert len(seen) == 2 ** (3 * m // 2)
