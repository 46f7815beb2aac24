"""End-to-end acceptance gate.

Nine quantitative checks with pinned tolerances, one per headline property
of the package: oracle equivalence of the simulators, the lookahead algebra,
the exhaustive two-state alternative and its bit budget, channel numerics,
the block-error and rate behavior of vertical simulation, the hardness
reduction, the coincidence machinery, and CLI determinism. Each test prints
a single verdict line (visible with -s or on failure).
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

import icsim.twostate as ts
from icsim.channel import ChannelModel
from icsim.cli import main
from icsim.coding import CodeSpec, oracle_corruption
from icsim.harness import ExperimentConfig, compare_bounds, run_sweep
from icsim.multistate import (
    balanced_tables,
    coincidence_bound,
    coincidence_failure_trials,
    is_coinciding,
)
from icsim.protocol import FiniteStateProtocol, Party
from icsim.threestate import (
    EXAMPLE2_ADVANCE,
    count_transcript_triples,
    disj_via_protocol,
)
from icsim.twostate import (
    random_two_state_protocol,
    run_exhaustive_block,
    simulate_two_state,
)

NOISELESS = ChannelModel("bsc", 0.0)
MARKOV4 = tuple((((s << 1) & 3), ((s << 1) & 3) | 1) for s in range(4))
INTERACTIVE = tuple(e for e in ts.all_two_state_advances() if ts.classify_advance(e).interactive)


@pytest.fixture(scope="module")
def genie_sweep():
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0.05", code="oracle:0.3",
                           n_list=(256, 1024, 4096), trials=200, base_seed=0)
    return run_sweep(cfg)


def test_criterion_1_oracle_equivalence_noiseless():
    code = CodeSpec.parse("rep:1")
    start = time.perf_counter()
    failures = 0
    for seed in range(1000):
        p = random_two_state_protocol(1024, seed)
        rng = np.random.default_rng(seed)
        report = simulate_two_state(p, NOISELESS, code, code, rng, seed=seed)
        failures += not (report.alice_correct and report.bob_correct)
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 10.0
    print(f"criterion 1: PASS (1000/1000 exact transcripts in {elapsed:.1f}s)")


def test_criterion_2_lookahead_algebra():
    by_type: dict[str, list] = {}
    for eta in INTERACTIVE:
        by_type.setdefault(ts.classify_advance(eta).category, []).append(eta)
    reps = [eta for cat in sorted(by_type) for eta in sorted(by_type[cat])[:2]]
    assert len(reps) == 6

    # every length-4 sequence from both entry states, as rows of noiseless
    # 4x4 grids. The block starts a grid reports give the finals of rows
    # 0-2, so each of those rows takes a case not yet checked from the state
    # it is entered in, while one remains; row 3 is filler.
    blocks = list(product(ts.ALL_TABLES2, repeat=4))
    side, rng = CodeSpec.parse("rep:1"), np.random.default_rng(0)
    checked = 0
    for eta in reps:
        def final(i, s):
            for t in blocks[i]:
                s = eta[s][t[s]]
            return s

        todo = {(i, s) for i in range(len(blocks)) for s in (0, 1)}
        while todo:
            rows, starts = [], [min(todo)[1]]
            for _ in range(3):
                s = starts[-1]
                i = min((j for j, e in todo if e == s), default=0)
                checked += (i, s) in todo
                todo.discard((i, s))
                rows.append(i)
                starts.append(final(i, s))
            p = FiniteStateProtocol(n=16, M=2, advance=eta, initial_state=starts[0],
                                    transmissions=[t for i in rows + [0] for t in blocks[i]])
            la = ts.run_lookahead_exchange(p, NOISELESS, side, rng)
            assert la.alice_states == la.bob_states == tuple(starts)
    assert checked == 3072
    print(f"criterion 2: PASS ({checked} lookahead cases, 6 advance reps)")


def test_criterion_3_exhaustive_two_state_blocks():
    def direct(eta, tables, s0):
        s, bits = s0, []
        for t in tables:
            b = t[s]
            bits.append(b)
            s = eta[s][b]
        return bits

    checked = 0
    for m in range(1, 7):
        budget = m + 2 * math.ceil(math.log2(m + 1)) + 2
        blocks = list(product(ts.ALL_TABLES2, repeat=m))
        for eta in INTERACTIVE:
            runs, bits_used = run_exhaustive_block(eta, blocks)
            assert bits_used <= budget
            alice, bob = (runs[q][0].tolist() for q in (Party.ALICE, Party.BOB))
            for b, tables in enumerate(blocks):
                for s0 in (0, 1):
                    truth = direct(eta, tables, s0)
                    assert alice[b][s0] == truth
                    assert bob[b][s0] == truth
                checked += 1
    assert checked == 65520
    print(f"criterion 3: PASS ({checked} blocks reconstructed within budget)")


def test_criterion_4_capacity_and_exponent_numerics():
    bsc11 = ChannelModel("bsc", 0.11)
    assert bsc11.capacity() == pytest.approx(0.50009, abs=1e-4)

    bsc10 = ChannelModel("bsc", 0.1)
    cutoff = 1.0 - math.log2(1.0 + 2.0 * math.sqrt(0.1 * 0.9))
    assert bsc10.error_exponent(0.0) == pytest.approx(cutoff, abs=1e-3)
    assert abs(cutoff - 0.32193) < 1e-4

    assert bsc10.error_exponent(bsc10.capacity()) == 0.0

    h = 1e-5
    slope_bits = (bsc10.gallager_e0(h) - bsc10.gallager_e0(0.0)) / h / math.log(2)
    assert slope_bits == pytest.approx(bsc10.capacity(), abs=1e-4)
    print("criterion 4: PASS (capacity 0.50009, cutoff 0.32193, Er(C)=0, slope=C)")


def test_criterion_5_block_error_bound_audit(genie_sweep):
    ch = ChannelModel("bsc", 0.05)
    rows = []
    for n in (256, 1024, 4096):
        row = genie_sweep.row(n)
        m = int(math.isqrt(n))
        bound = min(1.0, m * oracle_corruption(m, 0.3, ch))  # union bound over m columns
        rows.append((f"n={n}", row.failures, row.trials, bound))
    audits = compare_bounds(rows)
    assert all(a.passed for a in audits)
    assert not any(a.vacuous for a in audits)

    pe_small = genie_sweep.row(256).mean_pe
    pe_large = genie_sweep.row(4096).mean_pe
    sigma = math.sqrt(pe_small * (1 - pe_small) / 200)
    assert pe_large <= pe_small + 2 * sigma
    observed = [f"{a.empirical:.4f}<={a.bound:.5f}+3s" for a in audits]
    print(f"criterion 5: PASS ({'; '.join(observed)}; trend ok)")


def test_criterion_6_rate_convergence(genie_sweep):
    genie_rate = genie_sweep.row(4096).mean_rate
    assert genie_rate >= 0.95 * 0.3

    cfg = ExperimentConfig(scheme="two-state", channel="bsc:0.05", code="oracle:0.3",
                           side_code="oracle:0.71", n_list=(4096,), trials=5,
                           base_seed=0)
    summary = run_sweep(cfg)
    assert summary.audits_passed  # exact channel-use accounting on every trial
    ts_rate = summary.row(4096).mean_rate
    assert ts_rate >= 0.90 * 0.3

    # overhead versus the vertical-only baseline stays within c sqrt(n) log2(n)
    n = 4096
    baseline = 64 * math.ceil(64 / 0.3)
    ts_uses = n / ts_rate
    assert ts_uses - baseline <= 2.0 * math.sqrt(n) * math.log2(n)
    print(f"criterion 6: PASS (genie rate {genie_rate:.5f} >= 0.285, "
          f"two-state rate {ts_rate:.5f} >= 0.27)")


def test_criterion_7_disjointness_reduction():
    # every (x, y) pair of universe 8 as integer masks; bit k - 1 stands for element k
    xm, ym = np.repeat(np.arange(256), 256), np.tile(np.arange(256), 256)
    assert len(xm) == 65536
    x, y = ((masks[:, None] >> np.arange(8) & 1).astype(np.uint8) for masks in (xm, ym))
    bad = (disj_via_protocol(x, y) != ((xm & ym) == 0)).sum()
    assert bad == 0
    for m in (2, 4, 8):
        assert count_transcript_triples(m) == 2 ** (3 * m // 2)
    print("criterion 7: PASS (65536 disjointness cases, triple counts 8/64/4096)")


def test_criterion_8_coincidence_machinery():
    cert = is_coinciding(EXAMPLE2_ADVANCE, 3)
    assert cert is not None and cert.K == 2
    for (a, b), (wa, wb) in cert.witnesses.items():
        sa, sb = a, b
        for bit in wa:
            sa = EXAMPLE2_ADVANCE[sa][bit]
        for bit in wb:
            sb = EXAMPLE2_ADVANCE[sb][bit]
        assert sa == sb
    assert is_coinciding(((0, 0), (1, 1)), 2) is None

    failures = coincidence_failure_trials(MARKOV4, balanced_tables(4), 80, 10_000, 0)
    bound = coincidence_bound(4, 6, 2, 80)
    (audit,) = compare_bounds([("p=80", failures, 10_000, bound)])
    assert audit.passed and not audit.vacuous
    print(f"criterion 8: PASS (K=2 witnesses replay; {failures}/10000 "
          f"<= {bound:.5f}+3s)")


def test_criterion_9_cli_determinism(tmp_path):
    def run_twice(args_of):
        outs = []
        for tag in ("x", "y"):
            paths = {name: tmp_path / f"{name}-{tag}" for name in ("csv", "json")}
            code = main(args_of(paths))
            outs.append({k: p.read_bytes() for k, p in paths.items() if p.exists()})
            assert code == 0
        assert outs[0] and outs[0] == outs[1]

    run_twice(lambda p: ["capacity", "--channel", "bsc:0.05", "--points", "9",
                         "--out", str(p["csv"])])
    run_twice(lambda p: ["simulate", "--scheme", "genie", "--channel", "bsc:0.05",
                         "--code", "oracle:0.3", "--n", "256", "--trials", "20",
                         "--seed", "5", "--out", str(p["csv"]),
                         "--summary", str(p["json"])])
    run_twice(lambda p: ["simulate", "--scheme", "two-state", "--channel", "bsc:0.02",
                         "--code", "rep:3", "--side-code", "rep:5", "--n", "144",
                         "--trials", "10", "--seed", "1", "--out", str(p["csv"])])

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "genie", "channel": "bsc:0.05",
                               "code": "oracle:0.3", "n": [256], "trials": 10}))
    run_twice(lambda p: ["sweep", "--config", str(cfg), "--seed", "3",
                         "--out", str(p["csv"]), "--summary", str(p["json"])])
    print("criterion 9: PASS (4 invocation shapes byte-identical on rerun)")
