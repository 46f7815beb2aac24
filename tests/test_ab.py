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
