"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions on the trial path with
wrappers that record one span per call (id, parent span, trial seed, name,
start and end in ns) and a few counts. Spans stay in memory until ``dump``.
A name's self time is its spans' time minus the time of the timed spans
directly inside them. ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module that defines it, attribute). A function is replaced in
# every icsim module that imported it, so calls through any alias are seen.
FUNCTIONS = (
    ("protocol.draw", "icsim.twostate", "random_two_state_protocol"),
    ("protocol.draw", "icsim.protocol", "make_markovian"),
    ("protocol.draw", "icsim.protocol", "random_protocol"),
    ("protocol.pad", "icsim.protocol", "pad_protocol"),
    ("protocol.party_view", "icsim.protocol", "party_view"),
    ("protocol.run_protocol", "icsim.protocol", "run_protocol"),
    ("twostate.lookahead", "icsim.twostate", "run_lookahead_exchange"),
    ("twostate.exhaustive", "icsim.twostate", "exhaustive_two_state"),
    ("multistate.lookahead", "icsim.multistate", "tail_exhaustive_lookahead"),
    ("vertical.simulate", "icsim.vertical", "simulate_vertical"),
    ("coding.convey", "icsim.coding", "convey"),
)
METHODS = (
    ("channel.transmit", "icsim.channel", "ChannelModel", "transmit"),
    ("channel.loglik", "icsim.channel", "ChannelModel", "bit_log_likelihoods"),
)


def _count_convey(counts, args, kwargs, result):
    bits = args[1] if len(args) > 1 else kwargs["bits"]
    counts["coding.convey_calls"] += 1
    counts["coding.payload_bits"] += len(bits)


def _count_transmit(counts, args, kwargs, result):
    counts["channel.transmit_calls"] += 1
    counts["channel.uses"] += len(result)


def _count_twostate(counts, args, kwargs, result):
    counts["twostate.lookahead_bits"] += result.bits_used


def _count_multistate(counts, args, kwargs, result):
    counts["multistate.tail_bits"] += result.bits_used
    counts["multistate.aborted_trials"] += result.failure is not None


COUNTERS = {
    "coding.convey": _count_convey,
    "channel.transmit": _count_transmit,
    "twostate.lookahead": _count_twostate,
    "multistate.lookahead": _count_multistate,
}


class Tracer:
    def __init__(self) -> None:
        self.trial = -1  # seed of the trial being run; spans carry it
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self.total_ns: defaultdict = defaultdict(int)
        self.self_ns: defaultdict = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, ns spent in child spans]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                self.spans.append((span_id, -1 if parent is None else parent[0],
                                   self.trial, name, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "icsim" or key.startswith("icsim.")]
        for name, home, attr in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            self._replace(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write the spans and totals as one JSON document."""
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["id", "parent", "trial_seed", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[i, p, t, index[n], a, b] for i, p, t, n, a, b in self.spans],
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
