"""The in-process A/B timing script, run on one tree against itself."""

import subprocess
import sys
from pathlib import Path

from icsim.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


WORKLOAD = ROOT / "perfbench" / "workloads" / "twostate-noiseless-1k.json"
GUARDS = sorted((ROOT / "bench" / "guards").glob("*.json"))


def _ab(*extra, configs=(WORKLOAD,)):
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "ab.py"), str(ROOT), str(ROOT),
                          *map(str, configs), "--trials", "4", *extra],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_ab_script_times_a_tree_against_itself():
    lines = _ab()
    assert "reports equal" in lines[0]
    assert [line.split()[0] for line in lines[1:3]] == ["A", "B"]
    assert sum("ratio B/A" in line for line in lines) == 1
    median = float(lines[3].split()[-1])
    words = lines[4].split()
    assert words[:3] == ["B", "faster", "in"] and words[4:6] == ["of", "4"]
    assert 0 <= int(words[3]) <= 4
    assert words[6] == "trials" and words[8:10] == ["ratio", "quartiles"]
    assert float(words[10]) <= median <= float(words[12])
    assert lines[5] == "  with a column error: A 0, B 0"  # a noiseless channel


def test_ab_script_times_the_trials_with_a_column_error_apart():
    # rep:1 columns of 32 bits over bsc:0.05 almost never all arrive intact
    lines = _ab("--set", "channel=bsc:0.05")
    assert "reports equal" in lines[0] and len(lines) == 6
    head, _, tail = lines[5].partition(": ")
    assert head == "  with a column error"
    *trees, ratio = tail.split(", ")
    assert len(trees) == 2
    for label, tree in zip("AB", trees):
        words = tree.split()
        assert words[:3] == [label, "4", "p50"] and words[4:6] == ["ms", "p90"]
        assert words[7] == "ms" and 0 < float(words[3]) <= float(words[6])
    words = ratio.split()
    assert words[:2] == ["median", "ratio"] and float(words[2]) > 0


def test_ab_script_prints_one_block_per_config_from_one_load():
    guard = ROOT / "bench" / "guards" / "twostate-bsc0.05-rep1-4k.json"
    assert {g.stem: ExperimentConfig.from_json(g).code for g in GUARDS} == {
        "exhaustive-bec0.3-rep1-4k": "rep:1", "mstate-awgn0.8-rep1-16k": "rep:1",
        "twostate-bec0.3-rep5-4k": "rep:5", "twostate-bsc0.05-rep1-4k": "rep:1"}
    lines = _ab(configs=(WORKLOAD, guard))
    assert len(lines) == 12
    assert lines[0].startswith("twostate-noiseless-1k: n=1024, 4 trials from seed 0")
    assert lines[6].startswith("twostate-bsc0.05-rep1-4k: n=4096, 4 trials from seed 0")
    for block in (lines[:6], lines[6:]):
        assert block[0].endswith("reports equal")
        assert [line.split()[0] for line in block[1:3]] == ["A", "B"]
        assert "ratio B/A" in block[3] and block[5].startswith("  with a column error: A ")
    assert lines[5] == "  with a column error: A 0, B 0"
