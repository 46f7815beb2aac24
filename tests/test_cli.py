"""Command-line interface: subcommand behavior, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icsim.channel import ChannelModel
from icsim.cli import main


def test_capacity_stdout(capsys):
    assert main(["capacity", "--channel", "bsc:0.11", "--points", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# bsc:0.11 capacity 0.500")
    assert out[1] == "R,Er_bits"
    assert len(out) == 2 + 5
    first_r, first_er = map(float, out[2].split(","))
    assert first_r == 0.0 and first_er > 0.2
    last_r, last_er = map(float, out[-1].split(","))
    assert last_r == pytest.approx(ChannelModel.bsc(0.11).capacity(), abs=1e-6)
    assert last_er == 0.0


def test_capacity_out_file(tmp_path):
    path = tmp_path / "cap.csv"
    assert main(["capacity", "--channel", "bec:0.25", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "# bec:0.25 capacity 0.750000 bits/use"
    assert len(lines) == 2 + 11


def test_capacity_bad_channel_exits_2(capsys):
    assert main(["capacity", "--channel", "bsc:2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_csv_and_summary(tmp_path):
    csv = tmp_path / "runs.csv"
    summ = tmp_path / "summary.json"
    code = main(["simulate", "--scheme", "genie", "--channel", "bsc:0",
                 "--code", "rep:1", "--n", "64", "--trials", "4", "--seed", "7",
                 "--out", str(csv), "--summary", str(summ)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "seed,N,rate,alice_ok,bob_ok"
    assert len(lines) == 5
    seeds = [row.split(",")[0] for row in lines[1:]]
    assert seeds == ["7", "8", "9", "10"]
    assert all(row.split(",")[3:] == ["1", "1"] for row in lines[1:])
    doc = json.loads(summ.read_text())
    assert doc["schema_version"] == 1
    assert doc["failures"] == 0 and doc["mean_pe"] == 0.0
    assert doc["audits_passed"] is True
    assert doc["mean_rate"] == 1.0


def test_simulate_protocol_file(tmp_path):
    import numpy as np
    from icsim.protocol import save_protocol
    from icsim.twostate import random_two_state_protocol
    p = random_two_state_protocol(36, np.random.default_rng(2))
    path = tmp_path / "p.json"
    save_protocol(p, path)
    code = main(["simulate", "--protocol", str(path), "--channel", "bsc:0",
                 "--code", "rep:1", "--n", "36", "--trials", "2",
                 "--out", str(tmp_path / "o.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["failures"] == 0


def test_simulate_mstate_family(tmp_path, capsys):
    code = main(["simulate", "--scheme", "m-state", "--family", "markovian",
                 "--channel", "bsc:0", "--code", "rep:1", "--n", "256",
                 "--trials", "3", "--out", str(tmp_path / "m.csv"),
                 "--summary", str(tmp_path / "m.json")])
    assert code == 0  # audits pass even when the short tail fails to merge
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["trials"] == 3 and doc["audits_passed"] is True


def test_simulate_exhaustive_scheme(tmp_path):
    summ = tmp_path / "e.json"
    code = main(["simulate", "--scheme", "two-state-exhaustive", "--channel", "bsc:0",
                 "--code", "rep:1", "--n", "64", "--trials", "5", "--seed", "2",
                 "--out", str(tmp_path / "e.csv"), "--summary", str(summ)])
    assert code == 0
    doc = json.loads(summ.read_text())
    assert doc["failures"] == 0 and doc["audits_passed"] is True


def test_lookahead_diagnostics(capsys):
    assert main(["lookahead", "--n", "256", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "agree_rate=1.0000" in out
    assert "bits_per_block=" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_lookahead_rejects_too_few_trials(capsys, trials):
    assert main(["lookahead", "--n", "64", "--trials", trials]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials" in err
    assert "Traceback" not in err


def test_simulate_scheme_choices_match_harness(capsys):
    from icsim.harness import SCHEMES
    with pytest.raises(SystemExit):
        main(["simulate", "--scheme", "no-such-scheme"])
    err = capsys.readouterr().err
    assert all(scheme in err for scheme in SCHEMES)


def test_coincidence_markovian_passes(capsys):
    code = main(["coincidence", "--advance", "markovian:2", "--p", "80",
                 "--trials", "500", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "M=4 |F|=6 K=2 p=80" in out
    assert "-> pass" in out


def test_coincidence_floors_p_to_multiple_of_k(capsys):
    code = main(["coincidence", "--advance", "markovian:2", "--p", "81",
                 "--trials", "200"])
    assert code == 0
    assert "p=80" in capsys.readouterr().out


def test_coincidence_refuses_identity(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text("[[0, 0], [1, 1]]")
    assert main(["coincidence", "--advance", str(path)]) == 1
    assert "not coinciding" in capsys.readouterr().out


def test_coincidence_m_mismatch_exits_2(capsys):
    assert main(["coincidence", "--M", "8", "--advance", "markovian:2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_flat_table(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text("[0, 1, 0, 2, 2, 2]")
    assert main(["classify", "--advance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "M=3: coinciding, K=2" in out
    assert "pair (0,1):" in out


def test_classify_two_state_reports_taxonomy(capsys):
    assert main(["classify", "--advance", "markovian:1"]) == 0
    out = capsys.readouterr().out
    assert "M=2: coinciding, K=1" in out
    assert "two-state class: type-i" in out
    assert "(0, 0)" in out and "(1, 1)" in out


def test_disjointness_exhaustive(capsys):
    code = main(["disjointness", "--universe", "4", "--exhaustive",
                 "--count-triples", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "universe=4 cases=256 mismatches=0 -> pass" in out
    assert "transcript triples m=4: 64 (expected 64) -> pass" in out


def test_disjointness_sampled(capsys):
    assert main(["disjointness", "--universe", "12", "--trials", "50"]) == 0
    assert "cases=50 mismatches=0" in capsys.readouterr().out


def test_disjointness_universe_cap(capsys):
    assert main(["disjointness", "--universe", "11", "--exhaustive"]) == 2


def test_sweep_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "genie", "channel": "bsc:0.05",
                               "code": "oracle:0.3", "n": [256], "trials": 40}))
    code = main(["sweep", "--config", str(cfg), "--trials", "10", "--n", "256,1024",
                 "--out", str(tmp_path / "s.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=256 scheme=genie trials=10" in out
    assert "n=1024 scheme=genie trials=10" in out
    assert "audits: pass" in out
    rows = json.loads((tmp_path / "s.json").read_text())["rows"]
    assert [r["n"] for r in rows] == [256, 1024]
    csv_lines = (tmp_path / "s.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 20


def test_sweep_missing_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("doc, args, message", [
    ('{"trails": 50}', [], "unknown config keys ['trails']"),
    ('{"trials": "5"}', [], "trials must be an integer, not '5'"),
    ('[{"trials": 5}]', [], "must be a JSON object, not list"),
    ('{"protocol": "two-state"}', [], "protocol must be an object, not 'two-state'"),
    ('{"protocol": {"type": "two-state", "advance": 5}}', [],
     "protocol advance must be null or a list of integer rows, not 5"),
    ('{"protocol": {"type": "markovian", "functions": 7}}', [],
     'protocol functions must be "balanced", "all" or a list of integer rows, not 7'),
    ('{"protocol": {"type": "markovian", "log_m": 3}}', [],
     "unknown markovian protocol keys ['log_m']"),
    ('{"n": []}', [], "n_list must be a non-empty list of integers (config key n), not []"),
    ('{}', ["--n", "abc"], "--n must be a comma-separated list of integers, not 'abc'"),
    ('{}', ["--n", "16,,32"], "--n must be a comma-separated list of integers, not '16,,32'"),
], ids=["misspelt-key", "string-trials", "top-level-list", "string-protocol",
        "integer-advance", "integer-functions", "misspelt-protocol-key", "empty-n",
        "garbled-n", "empty-n-item"])
def test_sweep_bad_config_exits_2_with_one_error_line(tmp_path, capsys, doc, args, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main(["sweep", "--config", str(cfg), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_outputs_honor_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ICSIM_OUTDIR", str(tmp_path))
    code = main(["capacity", "--channel", "bsc:0.1", "--out", "nested/cap.csv"])
    assert code == 0
    assert (tmp_path / "nested" / "cap.csv").is_file()


def test_python_dash_m_runs_the_cli():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-m", "icsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: icsim")
