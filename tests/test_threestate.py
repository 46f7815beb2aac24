"""The three-state hardness family and its disjointness reduction."""

import itertools

import pytest

from icsim.protocol import run_protocol
from icsim.threestate import (
    EXAMPLE2_ADVANCE,
    DisjInstance,
    ThreeStateInstance,
    build_example2,
    count_transcript_triples,
    disj_via_protocol,
    reduce_disjointness,
    transcript_triple,
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
    with pytest.raises(ValueError):
        ThreeStateInstance((0, 1, 0), (0, 1, 0))  # odd length
    with pytest.raises(ValueError):
        ThreeStateInstance((0, 2), (0, 0))
    with pytest.raises(ValueError):
        ThreeStateInstance((0, 1), (0, 1, 0, 1))
    with pytest.raises(ValueError, match="alpha must be a bit vector"):
        build_example2([0.7, 1.0], [0, 0])  # not truncated to alpha (0, 1)
    with pytest.raises(ValueError, match="beta must be a bit vector"):
        transcript_triple((0, 1), (0, -0.5))
    assert build_example2([1.0, True], [0, 0]) == build_example2((1, 1), (0, 0))
    with pytest.raises(ValueError):
        DisjInstance(0)
    with pytest.raises(ValueError):
        DisjInstance(3, x={4})
    with pytest.raises(ValueError):
        DisjInstance(3, y={0})


def test_reduction_layout():
    assert reduce_disjointness(DisjInstance(2)).alpha == (0, 0, 0, 0)
    inst = reduce_disjointness(DisjInstance(1, x={1}, y={1}))
    assert inst.alpha == (1, 1) and inst.beta == (0, 0)
    inst2 = reduce_disjointness(DisjInstance(2, x={2}, y={1}))
    assert inst2.alpha == (0, 1, 1, 0)
    assert inst2.rounds == 4


def test_disj_hand_cases():
    # one batch of mixed universes: the smaller ones are padded with zero rounds
    instances = [DisjInstance(3, x={1, 2}, y={3}), DisjInstance(3, x={1, 2}, y={2, 3}),
                 DisjInstance(4), DisjInstance(1, x={1}, y={1})]
    assert disj_via_protocol(instances).tolist() == [1, 0, 1, 0]
    assert [disj_via_protocol([inst])[0] for inst in instances] == [1, 0, 1, 0]
    assert disj_via_protocol([]).tolist() == []


@pytest.mark.parametrize("universe", [1, 2, 3, 4, 5])
def test_disj_exhaustive(universe):
    ground = list(range(1, universe + 1))
    subsets = [frozenset(c) for r in range(universe + 1)
               for c in itertools.combinations(ground, r)]
    instances = [DisjInstance(universe, x=x, y=y) for x in subsets for y in subsets]
    assert disj_via_protocol(instances).tolist() == [inst.disj() for inst in instances]


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
            trip = transcript_triple(tuple(alpha), beta)
            key = (odd, beta)
            assert trip not in seen or seen[trip] == key
            seen[trip] = key
    assert len(seen) == 2 ** (3 * m // 2)
