"""Noiseless differential test: every scheme against ``run_protocol``.

Over a noiseless channel with rep:1, a scheme given any protocol must either
reproduce the clean transcript for both parties, report a lookahead failure
(m-state only, when the tails do not merge), or refuse with ``ValueError``
(a two-state scheme given M != 2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.channel import ChannelModel
from icsim.coding import CodeSpec
from icsim.multistate import simulate_mstate
from icsim.protocol import FiniteStateProtocol
from icsim.twostate import exhaustive_two_state, simulate_two_state
from icsim.vertical import genie_provider, simulate_vertical

REP1 = CodeSpec.parse("rep:1")
SCHEMES = ("genie", "two-state", "two-state-exhaustive", "m-state-last", "m-state-first")


def _run(scheme, p, ch, rng):
    if scheme == "genie":
        return simulate_vertical(p, ch, REP1, genie_provider, rng)
    if scheme == "two-state":
        return simulate_two_state(p, ch, REP1, REP1, rng)
    if scheme == "two-state-exhaustive":
        return exhaustive_two_state(p, ch, REP1, REP1, rng)
    return simulate_mstate(p, ch, REP1, REP1, scheme.removeprefix("m-state-"), rng)


@st.composite
def protocols(draw, two_state: bool):
    M = 2 if two_state and draw(st.booleans()) else draw(st.integers(2, 8))
    n = draw(st.integers(1, 300))
    advance = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(0, M - 1)),
                            min_size=M, max_size=M))
    tables = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, size=(n, M))
    return FiniteStateProtocol(n=n, M=M, advance=advance,
                               transmissions=tuple(map(tuple, tables.tolist())),
                               initial_state=draw(st.integers(0, M - 1)))


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=60)
@given(data=st.data(), channel=st.sampled_from(["bsc:0", "bec:0"]))
def test_noiseless_scheme_reproduces_run_protocol(scheme, data, channel):
    p = data.draw(protocols(two_state=scheme.startswith("two-state")))
    ch = ChannelModel.parse(channel)
    rng = np.random.default_rng(0)
    if scheme.startswith("two-state") and p.M != 2:
        with pytest.raises(ValueError):
            _run(scheme, p, ch, rng)
        return
    report = _run(scheme, p, ch, rng)
    if report.lookahead_failure is not None:
        assert scheme.startswith("m-state")
        assert not report.alice_correct and not report.bob_correct
        assert report.vertical_uses == 0 and report.column_errors == ()
        return
    assert report.alice_correct and report.bob_correct
    assert report.channel_uses == report.vertical_uses + report.lookahead_uses
