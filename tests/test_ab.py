"""The in-process A/B timing script, run on one tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_script_times_a_tree_against_itself():
    workload = ROOT / "perfbench" / "workloads" / "twostate-noiseless-1k.json"
    run = subprocess.run([sys.executable, str(ROOT / "bench" / "ab.py"), str(ROOT), str(ROOT),
                          str(workload), "--trials", "4"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "reports equal" in lines[0]
    assert [line.split()[0] for line in lines[1:3]] == ["A", "B"]
    assert sum("ratio B/A" in line for line in lines) == 1
    median = float(lines[3].split()[-1])
    words = lines[4].split()
    assert words[:3] == ["B", "faster", "in"] and words[4:6] == ["of", "4"]
    assert 0 <= int(words[3]) <= 4
    assert words[6] == "trials" and words[8:10] == ["ratio", "quartiles"]
    assert float(words[10]) <= median <= float(words[12])
