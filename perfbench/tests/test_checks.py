"""The benchmark's checks pass real reports and reject corrupted ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import icsim
from icsim import harness
from icsim.multistate import is_coinciding

import checks
from tracing import Tracer

WORKLOADS = Path(checks.__file__).resolve().parent / "workloads"
NAMES = sorted(p.stem for p in WORKLOADS.glob("*.json"))


def load(name):
    path = WORKLOADS / f"{name}.json"
    w = checks.Workload.from_config(name, json.loads(path.read_text()))
    return w, harness.ExperimentConfig.from_json(path)


@lru_cache(maxsize=None)
def trial(name, seed):
    w, cfg = load(name)
    return harness.run_trial(replace(cfg, base_seed=seed), w.n, 0)


def first_seed(name, predicate, limit=40):
    for seed in range(limit):
        if predicate(trial(name, seed)):
            return seed
    pytest.skip(f"no trial of {name} in {limit} seeds has the wanted property")


@pytest.mark.parametrize("name", NAMES)
def test_real_reports_pass(name):
    w, _ = load(name)
    for seed in range(3):
        assert checks.trial_problems(w, trial(name, seed), seed) == []


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("field", ["channel_uses", "vertical_uses", "lookahead_uses",
                                   "lookahead_bits"])
def test_accounting_off_by_one_is_rejected(name, field):
    w, _ = load(name)
    r = trial(name, 0)
    assert checks.trial_problems(w, replace(r, **{field: getattr(r, field) + 1}), 0)


def test_noiseless_trial_with_a_flipped_party_is_rejected():
    w, _ = load("twostate-noiseless-1k")
    r = trial("twostate-noiseless-1k", 0)
    assert checks.trial_problems(w, replace(r, alice_correct=False), 0)
    assert checks.trial_problems(w, replace(r, bob_correct=False), 0)


def test_genie_correctness_must_follow_column_errors():
    name = "genie-rlc-4k"
    w, _ = load(name)
    clean = first_seed(name, lambda r: not any(r.column_errors))
    r = trial(name, clean)
    assert checks.trial_problems(w, replace(r, alice_correct=False), clean)
    noisy = first_seed(name, lambda r: any(r.column_errors[1::2]))
    r = trial(name, noisy)
    assert not r.alice_correct
    assert checks.trial_problems(w, replace(r, alice_correct=True), noisy)
    assert checks.trial_problems(w, replace(r, alice_correct=True, bob_correct=True), noisy)


def test_merge_failure_must_leave_both_parties_incorrect():
    name = "mstate-awgn-16k"
    w, _ = load(name)
    r = trial(name, 0)
    aborted = replace(r, lookahead_failure="trajectories did not merge", coincidence_ok=False,
                      alice_correct=False, bob_correct=False, vertical_uses=0,
                      channel_uses=r.lookahead_uses, column_errors=())
    assert checks.trial_problems(w, aborted, 0) == []
    assert checks.trial_problems(w, replace(aborted, alice_correct=True), 0)
    assert checks.trial_problems(w, replace(aborted, coincidence_ok=None), 0)
    assert checks.trial_problems(w, replace(r, tail_len=r.tail_len + 1), 0)


def test_mstate_tail_uses_the_certificate_horizon():
    w, _ = load("mstate-awgn-16k")
    shift = checks.drawn_protocol(w, 0)[0]
    assert is_coinciding(shift, w.states).K == w.log_M


def test_exhaustive_without_lookahead_is_checked_like_genie():
    name = "exhaustive-bec-4k"
    w, _ = load(name)
    seed = next(s for s in range(100)
                if not checks.advance_is_interactive(checks.drawn_advance(s)))
    r = trial(name, seed)
    assert r.lookahead_bits == 0 and checks.trial_problems(w, r, seed) == []
    if not any(r.column_errors):
        assert checks.trial_problems(w, replace(r, bob_correct=False), seed)


def test_column_error_counts_against_the_channel_law():
    for name, seed in (("mstate-awgn-16k", 0), ("exhaustive-bec-4k", 0), ("genie-rlc-4k", 0)):
        w, _ = load(name)
        r = trial(name, seed)
        bounds = [0.05] * w.m if w.code == "rlc" else None
        clean = replace(r, column_errors=(False,) * w.m)
        bad = replace(r, column_errors=(True,) * w.m)
        assert checks.column_error_problems(w, [bad] * 20, bounds)
        if w.channel == "awgn":
            # the exact law also has a floor: 2000 clean trials are too clean
            assert checks.column_error_problems(w, [clean] * 2000, bounds)
        else:
            assert checks.column_error_problems(w, [clean] * 2000, bounds) == []
    w, _ = load("twostate-noiseless-1k")
    r = trial("twostate-noiseless-1k", 0)
    assert checks.column_error_problems(w, [r] * 5) == []
    assert checks.column_error_problems(w, [replace(r, column_errors=(True,) + r.column_errors[1:])])


def test_rlc_union_bound_uses_the_program_codes():
    w, _ = load("genie-rlc-4k")
    for j, idx in ((1, 0), (17, 24), (64, 56)):
        seed = j * checks.RLC_SEED_STRIDE + idx
        ours = checks.chunk_generator(8, 24, seed)
        assert np.array_equal(ours, icsim.RandomLinearCode(8, 24, seed=seed).generator)
    z = 2 * np.sqrt(w.noise * (1 - w.noise))
    assert 0 < checks.bhattacharyya_bound(ours, z) < 1


def test_sweep_files_must_match_the_reports(tmp_path):
    name = "exhaustive-bec-4k"
    w, cfg = load(name)
    cfg = replace(cfg, n_list=(w.n,), trials=4, base_seed=7,
                  csv_path=str(tmp_path / "s.csv"), json_path=str(tmp_path / "s.json"))
    harness.run_sweep(cfg)
    reports = [harness.run_trial(cfg, w.n, t) for t in range(4)]
    csv_text, json_text = (tmp_path / "s.csv").read_text(), (tmp_path / "s.json").read_text()
    assert checks.sweep_problems(w, reports, csv_text, json_text) == []

    doc = json.loads(json_text)
    doc["rows"][0]["failures"] += 1
    assert checks.sweep_problems(w, reports, csv_text, json.dumps(doc))
    lines = csv_text.splitlines()
    cells = lines[2].split(",")
    cells[6] = "0" if cells[6] == "1" else "1"
    lines[2] = ",".join(cells)
    assert checks.sweep_problems(w, reports, "\n".join(lines), json_text)
    assert checks.sweep_problems(w, reports[:3], csv_text, json_text)


@pytest.mark.parametrize("name", ["twostate-noiseless-1k", "mstate-awgn-16k"])
def test_protocol_rerun_rejects_a_wrong_transcript(name, monkeypatch):
    w, _ = load(name)
    assert checks.protocol_problems(w, 3) == []
    real = icsim.run_protocol

    def flipped(p, initial_state=None):
        t = real(p, initial_state)
        return type(t)((1 - t.bits[0],) + t.bits[1:], t.states)

    monkeypatch.setattr(icsim, "run_protocol", flipped)
    assert checks.protocol_problems(w, 3)


def test_tracer_counts_spans_and_restores_the_program():
    name = "twostate-noiseless-1k"
    w, cfg = load(name)
    before = icsim.vertical.convey
    tracer = Tracer()
    tracer.install()
    try:
        harness.run_trial(cfg, w.n, 0)
    finally:
        tracer.uninstall()
    assert icsim.vertical.convey is before is icsim.coding.convey
    assert tracer.counts["coding.convey_calls"] == 4 + w.m
    assert tracer.counts["channel.uses"] == 1472
    for name, total in tracer.total_ns.items():
        assert 0 <= tracer.self_ns[name] <= total
    parents = {s[0]: s[1] for s in tracer.spans}
    assert all(p == -1 or p in parents for p in parents.values())
