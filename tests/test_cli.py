"""Command-line interface: subcommand behavior, outputs, exit codes."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from icsim.channel import ChannelModel
import icsim.cli
from icsim.cli import build_parser, main
from icsim.protocol import markovian_advance


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


def test_simulate_is_the_view_of_a_one_n_sweep(tmp_path):
    # a noisy two-state run at a non-square n, so failures and rates vary
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "two-state", "channel": "bsc:0.05", "code": "rep:3",
                               "side_code": "rep:1", "n": 100, "trials": 6, "base_seed": 4}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv"),
                 "--summary", str(tmp_path / "sweep.json")]) == 0
    assert main(["simulate", "--scheme", "two-state", "--channel", "bsc:0.05", "--code", "rep:3",
                 "--side-code", "rep:1", "--n", "100", "--trials", "6", "--seed", "4",
                 "--out", str(tmp_path / "sim.csv"), "--summary", str(tmp_path / "sim.json")]) == 0

    columns = ["seed", "N", "rate", "alice_ok", "bob_ok"]
    sweep = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
    keep = [sweep[0].index(c) for c in columns]
    view = "".join(",".join(cells[i] for i in keep) + "\n" for cells in sweep)
    assert (tmp_path / "sim.csv").read_text() == view
    assert view.startswith(",".join(columns) + "\n") and view.count("\n") == 1 + 6

    doc = json.loads((tmp_path / "sweep.json").read_text())
    keys = ["trials", "failures", "mean_pe", "wilson_95", "mean_rate"]
    expected = {key: doc["rows"][0][key] for key in keys}
    expected.update(schema_version=doc["schema_version"], audits_passed=doc["audits_passed"])
    assert json.loads((tmp_path / "sim.json").read_text()) == expected
    assert 0 < expected["failures"] < 6


def test_simulate_defaults_are_the_config_defaults(tmp_path):
    from icsim.cli import SIMULATE_COLUMNS, build_parser
    from icsim.harness import ExperimentConfig, run_sweep, sweep_csv
    args = build_parser().parse_args(["simulate"])
    assert all(getattr(args, key) is None for key in
               ("family", "channel", "code", "scheme", "placement", "n", "trials", "seed"))
    assert main(["simulate", "--out", str(tmp_path / "s.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 0
    expected = sweep_csv(run_sweep(ExperimentConfig()), SIMULATE_COLUMNS)
    assert (tmp_path / "s.csv").read_text() == expected


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


def test_coincidence_refuses_a_function_set_that_is_not_useful(capsys):
    # both balanced tables of M=2 flip the state bit, so no tail ever merges
    assert main(["coincidence", "--advance", "markovian:1", "--functions", "balanced",
                 "--trials", "5"]) == 1
    assert capsys.readouterr().out == "function set is not useful; no bound applies\n"


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


def test_classify_prints_a_replaying_witness_per_state_pair(capsys):
    assert main(["classify", "--advance", "markovian:8"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "M=256: coinciding, K=8"
    eta = markovian_advance(8)
    pairs = []
    for line in lines:
        match = re.fullmatch(r"  pair \((\d+),(\d+)\): drive \[([\d, ]*)\] / \[([\d, ]*)\]", line)
        a, b = int(match[1]), int(match[2])
        ends = []
        for s, drive in ((a, match[3]), (b, match[4])):
            for bit in (drive.split(", ") if drive else ()):
                s = eta[s][int(bit)]
            ends.append(s)
        assert ends[0] == ends[1], line
        pairs.append((a, b))
    assert pairs == sorted(itertools.combinations(range(256), 2))


def test_disjointness_exhaustive(capsys):
    code = main(["disjointness", "--universe", "4", "--exhaustive",
                 "--count-triples", "4"])
    assert code == 0
    assert capsys.readouterr().out == ("universe=4 cases=256 mismatches=0 -> pass\n"
                                       "transcript triples m=4: 64 (expected 64) -> pass\n")


def test_disjointness_sampled(capsys):
    assert main(["disjointness", "--universe", "12", "--trials", "50"]) == 0
    assert capsys.readouterr().out == "universe=12 cases=50 mismatches=0 -> pass\n"


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


def test_sweep_empty_out_keeps_the_config_paths(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [64], "trials": 2, "csv": str(tmp_path / "c.csv"),
                               "json": str(tmp_path / "c.json")}))
    assert main(["sweep", "--config", str(cfg), "--out", "", "--summary", ""]) == 0
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + 2
    assert json.loads((tmp_path / "c.json").read_text())["rows"][0]["trials"] == 2


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
    ('{"protocol": {"type": "markovian", "log_M": 1, "functions": [[0, 1, 1]]}}', [],
     "protocol functions must be"),
    ('{"protocol": {"type": "markovian", "log_m": 3}}', [],
     "unknown markovian protocol keys ['log_m']"),
    ('{"protocol": {"type": "markovian", "log_M": 1000000000000}}', [],
     "protocol log_M must be an integer from 1 to 16, not 1000000000000"),
    ('{"scheme": "genie", "placement": "middle"}', [],
     "unknown placement 'middle'; choose from ('last', 'first')"),
    ('{"n": []}', [], "n_list must be a non-empty list of integers (config key n), not []"),
    ('{}', ["--n", "abc"], "--n must be a comma-separated list of integers, not 'abc'"),
    ('{}', ["--n", "16,,32"], "--n must be a comma-separated list of integers, not '16,,32'"),
    ('{"base_seed": -1}', [], "base_seed must be at least 0, not -1"),
    ('{"trials": 5', [], "cannot read config"),
], ids=["misspelt-key", "string-trials", "top-level-list", "string-protocol",
        "integer-advance", "integer-functions", "long-function-row", "misspelt-protocol-key",
        "huge-log-m", "unknown-placement", "empty-n",
        "garbled-n", "empty-n-item", "negative-base-seed", "not-json"])
def test_sweep_bad_config_exits_2_with_one_error_line(tmp_path, capsys, doc, args, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main(["sweep", "--config", str(cfg), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("argv, doc, message", [
    (["classify", "--advance", "{file}"], "[]", "advance table needs at least two states, not 0"),
    (["classify", "--advance", "{file}"], "5", "advance table must be a list of rows or a flat list, not 5"),
    (["classify", "--advance", "{file}"], '{"a": 1}', "advance table must be a list"),
    (["classify", "--advance", "{file}"], "[0, 1, 0]",
     "cannot read advance table {file}: flat advance table must have 2M entries"),
    (["classify", "--advance", "{file}"], "[[0, 1], [0, 2]]", "advance entry 2 outside 0..1"),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "7",
     'function set must be "balanced", "all" or a nonempty list of tables, not 7'),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "[]",
     "nonempty list of tables, not []"),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "[[0, 1, 1]]",
     "transmission table needs 4 entries"),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "[[0, 1, 1, 2]]",
     "transmission table entries must be bits"),
    (["coincidence", "--advance", "markovian:2", "--trials", "0"], None,
     "trials must be at least 1, not 0"),
    (["coincidence", "--advance", "markovian:2", "--p", "-4"], None, "p must be at least 0, not -4"),
    (["disjointness", "--trials", "0"], None, "trials must be at least 1, not 0"),
    (["disjointness", "--trials", "-3"], None, "trials must be at least 1, not -3"),
    (["sweep", "--config", "{file}", "--scheme", ""], "{}", "unknown scheme ''"),
    (["disjointness", "--universe", "4", "--trials", "5", "--count-triples", "3"], None,
     "m must be even and positive"),
    (["capacity", "--channel", "bsc:0.1", "--points", "-2"], None,
     "points must be at least 1, not -2"),
    (["capacity", "--channel", "bsc:0.1", "--points", "0"], None,
     "points must be at least 1, not 0"),
    (["disjointness", "--universe", "0", "--trials", "5"], None,
     "universe must be at least 1, not 0"),
    (["disjointness", "--universe", "0", "--exhaustive"], None,
     "universe must be at least 1, not 0"),
    (["disjointness", "--universe", "-2", "--trials", "5"], None,
     "universe must be at least 1, not -2"),
    (["disjointness", "--universe", "-2", "--exhaustive"], None,
     "universe must be at least 1, not -2"),
    (["simulate", "--code", "rep:inf", "--n", "16", "--trials", "2"], None,
     "bad code spec 'rep:inf'"),
    (["simulate", "--code", "rlc:inf", "--n", "16", "--trials", "2"], None,
     "bad code spec 'rlc:inf'"),
    (["simulate", "--code", "oracle:nan", "--n", "16", "--trials", "2"], None,
     "bad code spec 'oracle:nan'"),
    (["capacity", "--channel", "awgn:nan"], None, "bad channel spec 'awgn:nan'"),
    (["capacity", "--channel", "awgn:inf"], None, "bad channel spec 'awgn:inf'"),
    (["simulate", "--channel", "awgn:nan", "--code", "rep:3", "--n", "16", "--trials", "2"],
     None, "bad channel spec 'awgn:nan'"),
    (["classify", "--advance", "markovian:17"], None,
     "markovian log_M must be from 1 to 16, not 17"),
    (["classify", "--advance", "markovian:64"], None,
     "markovian log_M must be from 1 to 16, not 64"),
    (["classify", "--advance", "markovian:x"], None,
     "--advance markovian:<log_M> needs an integer log_M, not 'x'"),
    (["classify", "--advance", "markovian:"], None,
     "--advance markovian:<log_M> needs an integer log_M, not ''"),
    (["classify", "--advance", "markovian:11"], None,
     "coincidence certificates need at most 1024 states, not 2048"),
    (["classify", "--advance", "markovian:16"], None,
     "coincidence certificates need at most 1024 states, not 65536"),
    (["simulate", "--n", "1000000000000000"], None, "Unable to allocate"),
    (["simulate", "--seed", "-1"], None, "base_seed must be at least 0, not -1"),
    (["coincidence", "--advance", "markovian:2", "--seed", "-1"], None,
     "seed must be at least 0, not -1"),
    (["disjointness", "--seed", "-1"], None, "seed must be at least 0, not -1"),
    (["classify", "--advance", "{file}"], "[[0, 1],", "cannot read advance table {file}: "),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "balanced",
     "cannot read function set {file}: "),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "7",
     "cannot read function set {file}: function set must be \"balanced\", \"all\" or a "
     "nonempty list of tables, not 7"),
    (["coincidence", "--advance", "markovian:2", "--functions", "{file}"], "[[0, 1]]",
     "cannot read function set {file}: transmission table needs 4 entries, got shape (2,)"),
    (["simulate", "--protocol", "{file}"], "{", "cannot read protocol {file}: "),
    (["simulate", "--protocol", "{file}"], None, "cannot read protocol {file}: "),
    (["simulate", "--protocol", "{file}"],
     '{"M": 2, "advance": [0, 1, 0, 1], "transmissions": [[0, 1]]}',
     "cannot read protocol {file}: missing keys ['n']"),
    (["simulate", "--protocol", "{file}"],
     '{"n": [4], "M": 2, "advance": [0, 1, 0, 1], "transmissions": [[0, 1]]}',
     "cannot read protocol {file}: n must be an integer, not [4]"),
    (["simulate", "--protocol", "{file}"],
     '{"n": 1.5, "M": 2, "advance": [0, 1, 0, 1], "transmissions": [[0, 1]]}',
     "cannot read protocol {file}: n must be an integer, not 1.5"),
    (["simulate", "--protocol", "{file}"],
     '{"n": 1, "M": 2, "advance": [0, 1, 0, 1], "transmissions": 5}',
     "cannot read protocol {file}: transmission tables must be a list of rows, not 5"),
    (["simulate", "--protocol", "{file}"],
     '{"n": 1, "M": "two", "advance": [0, 1, 0, 1], "transmissions": [[0, 1]]}',
     "cannot read protocol {file}: M must be an integer, not 'two'"),
    (["simulate", "--protocol", "{file}"],
     '{"n": 1, "M": 2, "advance": [0, 1, 0, 1], "transmissions": [[0, 1]], '
     '"initial_state": [0]}',
     "cannot read protocol {file}: initial_state must be an integer, not [0]"),
    (["simulate", "--protocol", "{file}"],
     '{"n": 2, "M": 2, "advance": [0, 1, 0, 1], "transmissions": [[0, 1]]}',
     "cannot read protocol {file}: expected 2 transmission tables, got 1"),
], ids=["advance-empty", "advance-integer", "advance-object", "advance-odd-flat",
        "advance-out-of-range", "functions-integer", "functions-empty", "functions-short-row",
        "functions-non-bit", "coincidence-zero-trials", "coincidence-negative-p",
        "disjointness-zero-trials", "disjointness-negative-trials", "sweep-empty-scheme",
        "disjointness-odd-triples", "capacity-negative-points", "capacity-zero-points",
        "disjointness-zero-universe", "disjointness-zero-universe-exhaustive",
        "disjointness-negative-universe", "disjointness-negative-universe-exhaustive",
        "code-rep-inf", "code-rlc-inf", "code-oracle-nan", "channel-awgn-nan",
        "channel-awgn-inf", "simulate-channel-awgn-nan", "markovian-17", "markovian-64",
        "markovian-not-integer", "markovian-empty", "markovian-11",
        "markovian-16", "simulate-huge-n", "simulate-negative-seed",
        "coincidence-negative-seed", "disjointness-negative-seed", "advance-not-json",
        "functions-not-json", "functions-file-integer", "functions-file-short-row",
        "protocol-not-json", "protocol-missing", "protocol-without-n",
        "protocol-n-list", "protocol-n-float", "protocol-transmissions-integer", "protocol-M-string",
        "protocol-initial-state-list", "protocol-too-few-tables"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(doc)
    assert main([arg.replace("{file}", str(path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert message.replace("{file}", str(path)) in captured.err


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


def test_module_docstring_lists_every_subcommand():
    doc = icsim.cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split()[0] for line in doc.splitlines()]
    registered = re.search(r"\{(.+?)\}", build_parser().format_usage()).group(1).split(",")
    assert listed == registered
