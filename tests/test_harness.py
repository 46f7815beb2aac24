"""Sweep orchestration: configs, determinism, emission formats, bound audits."""

import ast
import json
import math
import types
from dataclasses import replace
from pathlib import Path

import pytest

from icsim import harness
from icsim.harness import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    ExperimentConfig,
    compare_bounds,
    csv_line,
    resolve_out,
    run_sweep,
    run_trial,
    sweep_csv,
    wilson_interval,
)


def test_wilson_basics():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == pytest.approx(1.0, abs=1e-12) and low > 0.95
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_matches_direct_formula():
    z = 1.96
    k, n = 7, 200
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low, high = wilson_interval(k, n)
    assert low == pytest.approx(center - half, abs=1e-15)
    assert high == pytest.approx(center + half, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="telepathy")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_list=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(channel="bsc:2")
    with pytest.raises(ValueError):
        ExperimentConfig(code="hamming:7")
    with pytest.raises(ValueError):
        ExperimentConfig(protocol={"type": "file", "path": "/nonexistent.json"})
    with pytest.raises(ValueError):
        ExperimentConfig(protocol={"type": "oracle"})


def test_config_from_json_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scheme": "genie", "channel": "bsc:0.05", "code": "rep:3",
        "n": [16, 64], "trials": 5, "base_seed": 3,
    }))
    cfg = ExperimentConfig.from_json(cfg_path)
    assert cfg.n_list == (16, 64) and cfg.trials == 5 and cfg.base_seed == 3
    over = ExperimentConfig.from_json(cfg_path, trials=2, channel="bec:0.1")
    assert over.trials == 2 and over.channel == "bec:0.1" and over.n_list == (16, 64)
    with pytest.raises(TypeError):
        ExperimentConfig.from_json(cfg_path, warp_factor=9)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(tmp_path / "missing.json")


def test_config_scalar_n(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scheme": "genie", "n": 36}))
    assert ExperimentConfig.from_json(path).n_list == (36,)


def test_trial_seed_rule():
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0", code="rep:1",
                           n_list=(16,), trials=3, base_seed=41)
    reports = [run_trial(cfg, 16, t) for t in range(3)]
    assert [r.seed for r in reports] == [41, 42, 43]
    again = run_trial(cfg, 16, 1)
    assert again == reports[1]


def test_noiseless_sweep_is_perfect():
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0", code="rep:1",
                           n_list=(16, 36), trials=4)
    summary = run_sweep(cfg)
    assert summary.audits_passed
    for n in (16, 36):
        row = summary.row(n)
        assert row.failures == 0 and row.mean_pe == 0.0
        assert row.wilson_low == 0.0 and row.wilson_high < 1.0
        assert row.mean_rate == 1.0  # genie rep:1 sends exactly n uses
    with pytest.raises(KeyError):
        summary.row(99)


def test_sweep_csv_and_json_outputs_are_stable(tmp_path):
    kwargs = dict(scheme="two-state", channel="bsc:0.02", code="rep:3",
                  side_code="rep:5", n_list=(16,), trials=6, base_seed=11)
    cfg1 = ExperimentConfig(csv_path=str(tmp_path / "a.csv"),
                            json_path=str(tmp_path / "a.json"), **kwargs)
    cfg2 = ExperimentConfig(csv_path=str(tmp_path / "b.csv"),
                            json_path=str(tmp_path / "b.json"), **kwargs)
    s1 = run_sweep(cfg1)
    s2 = run_sweep(cfg2)
    assert s1 == s2
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "16" and first[1] == "two-state" and first[2] == "0"
    assert first[3] == "11"

    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["audits_passed"] is True
    row = doc["rows"][0]
    assert set(row) == {"n", "scheme", "trials", "failures", "mean_pe",
                        "wilson_95", "mean_rate", "mean_overhead",
                        "coincidence_failures"}
    assert row["trials"] == 6


def test_csv_value_formats():
    assert csv_line((True, False, None, 0.25, 1, "x")) == "1,0,,0.25,1,x"
    assert csv_line((1 / 3,)) == "0.3333333333"


def test_csv_row_blank_coincidence_for_genie():
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0", code="rep:1",
                           n_list=(16,), trials=1)
    row = sweep_csv(run_sweep(cfg)).splitlines()[1]
    assert row.endswith(",")
    assert row.split(",")[1] == "genie"


def test_protocol_file_source(tmp_path):
    from icsim.protocol import random_protocol, save_protocol
    import numpy as np
    p = random_protocol(16, 2, [(0, 1), (1, 0), (0, 0), (1, 1)],
                        np.random.default_rng(5), advance=((0, 1), (0, 1)))
    path = tmp_path / "proto.json"
    save_protocol(p, path)
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0", code="rep:1",
                           protocol={"type": "file", "path": str(path)},
                           n_list=(16,), trials=2)
    summary = run_sweep(cfg)
    assert summary.row(16).failures == 0
    # every trial runs the file's 16 rounds, so no other n may label them
    with pytest.raises(ValueError, match=f"n = 64 is not the n = 16 of protocol file {path}"):
        replace(cfg, n_list=(16, 64, 150))


def test_markovian_source_draws_valid_protocols():
    cfg = ExperimentConfig(scheme="m-state", channel="bsc:0", code="rep:1",
                           protocol={"type": "markovian", "log_M": 1,
                                     "functions": "all"},
                           n_list=(256,), trials=5, base_seed=2)
    summary = run_sweep(cfg)
    row = summary.row(256)
    # merge failures show up as failures with the coincidence flag set
    assert row.failures == row.coincidence_failures
    assert summary.audits_passed


def test_markovian_source_takes_a_list_of_tables(tmp_path):
    def sweep(functions, name):
        cfg = ExperimentConfig(scheme="m-state", channel="bsc:0.01", code="rep:3",
                               protocol={"type": "markovian", "log_M": 1,
                                         "functions": functions},
                               n_list=(1024,), trials=4, base_seed=5,
                               csv_path=str(tmp_path / name))
        return run_sweep(cfg), (tmp_path / name).read_text()

    # the same tables as a list draw the same protocols as "all"
    listed, listed_csv = sweep([[0, 0], [0, 1], [1, 0], [1, 1]], "list.csv")
    named, named_csv = sweep("all", "all.csv")
    assert listed_csv == named_csv and listed.rows == named.rows
    assert listed.row(1024).failures == 2
    # two flips never merge the trajectories, so every trial fails to coincide
    flips, _ = sweep([[0, 1], [1, 0]], "flips.csv")
    assert flips.row(1024).coincidence_failures == 4


@pytest.mark.parametrize("protocol, message", [
    ({"type": "markovian", "log_M": 1, "functions": [[0, 1, 1]]},
     "transmission table needs 2 entries"),
    ({"type": "markovian", "log_M": 1, "functions": [[0, 2]]}, "entries must be bits"),
    ({"type": "markovian", "log_M": 5, "functions": "all"}, "M <= 16"),
    ({"type": "two-state", "advance": [[0, 1], [1, 0], [0, 0]]}, "2x2 state indices"),
    ({"type": "two-state", "advance": [[0, 1], [1, 2]]}, "advance entry 2 outside 0..1"),
], ids=["long-row", "non-bit-entry", "too-many-states", "three-state-advance",
        "advance-out-of-range"])
def test_config_parses_protocol_tables_before_any_trial(protocol, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(protocol=protocol)


def test_a_flat_advance_draws_the_protocols_of_its_nested_form():
    # a config reads an advance table as a protocol file and --advance do
    import numpy as np
    flat = harness.protocol_draw({"type": "two-state", "advance": [0, 1, 1, 0]}, (64,))
    nested = harness.protocol_draw({"type": "two-state", "advance": [[0, 1], [1, 0]]}, (64,))
    for seed in range(4):
        drawn = flat(64, np.random.default_rng(seed))
        assert drawn.advance == ((0, 1), (1, 0))
        assert drawn == nested(64, np.random.default_rng(seed))


def _counting(monkeypatch, name: str) -> list:
    """Replace ``harness.<name>`` with a wrapper that records each call."""
    calls = []
    inner = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_sweep_parses_its_protocol_source_once(tmp_path, monkeypatch):
    from icsim.protocol import make_markovian, save_protocol
    path = tmp_path / "proto.json"
    save_protocol(make_markovian(1, [(0, 1), (1, 0)] * 8), path)
    loads = _counting(monkeypatch, "load_protocol")
    run_sweep(ExperimentConfig(channel="bsc:0", code="rep:1", trials=3, n_list=(16,),
                               protocol={"type": "file", "path": str(path)}))
    assert len(loads) == 1
    resolves = _counting(monkeypatch, "resolve_functions")
    run_sweep(ExperimentConfig(scheme="m-state", channel="bsc:0", code="rep:1", trials=3,
                               n_list=(16,), protocol={"type": "markovian", "log_M": 1,
                                                       "functions": "all"}))
    assert len(resolves) == 1


def test_draw_calls_the_draw_functions_by_name(monkeypatch):
    # a wrapper put in place after the config is built still sees every draw
    two_state = ExperimentConfig(channel="bsc:0", code="rep:1", trials=3, n_list=(16,))
    markovian = replace(two_state, scheme="m-state",
                        protocol={"type": "markovian", "log_M": 1, "functions": "all"})
    draws = _counting(monkeypatch, "random_two_state_protocol")
    run_sweep(two_state)
    assert len(draws) == 3
    draws = _counting(monkeypatch, "random_protocol")
    run_sweep(markovian)
    assert len(draws) == 3


def test_config_keys_are_its_init_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"draw": None}))
    with pytest.raises(ValueError, match=r"unknown config keys \['draw'\]"):
        ExperimentConfig.from_json(path)


def test_resolve_out_respects_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ICSIM_OUTDIR", str(tmp_path))
    assert resolve_out("x/y.csv") == tmp_path / "x" / "y.csv"
    assert resolve_out("/abs/z.csv") == Path("/abs/z.csv")
    monkeypatch.delenv("ICSIM_OUTDIR")
    assert resolve_out("x.csv") == Path("x.csv")


def test_outdir_changes_where_files_land(tmp_path, monkeypatch):
    monkeypatch.setenv("ICSIM_OUTDIR", str(tmp_path))
    cfg = ExperimentConfig(scheme="genie", channel="bsc:0", code="rep:1",
                           n_list=(16,), trials=1, csv_path="sub/out.csv")
    run_sweep(cfg)
    assert (tmp_path / "sub" / "out.csv").is_file()


def test_compare_bounds_verdicts():
    audits = compare_bounds([
        ("clean", 0, 1000, 0.01),
        ("vacuous", 900, 1000, 1.0),
        ("busted", 500, 1000, 0.01),
    ])
    clean, vacuous, busted = audits
    assert clean.passed and not clean.vacuous
    assert vacuous.passed and vacuous.vacuous
    assert not busted.passed
    assert busted.empirical == 0.5
    assert busted.sigma == pytest.approx(math.sqrt(0.25 / 1000), rel=1e-12)


def test_compare_bounds_three_sigma_slack():
    # 13/1000 with bound 0.01: 0.013 <= 0.01 + 3*0.00358 passes
    (audit,) = compare_bounds([("edge", 13, 1000, 0.01)])
    assert audit.passed
    (audit2,) = compare_bounds([("far", 25, 1000, 0.01)])
    assert not audit2.passed


def test_star_import_resolves_every_export():
    # a name deleted from the package but left in __all__ fails here, and so
    # does a public name imported into the package but left out of __all__
    import icsim

    namespace = {}
    exec("from icsim import *", namespace)
    assert sorted(set(icsim.__all__) - set(namespace)) == []
    assert len(icsim.__all__) == len(set(icsim.__all__))
    public = {name for name, value in vars(icsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public.symmetric_difference(icsim.__all__)) == []


# public names that no package module or perfbench script uses, each with its reason
UNUSED_EXPORTS = {
    "save_protocol": "the protocol-file writer, the inverse of load_protocol",
    "build_example2": "the reference construction the three-state tests compare against",
    "run_exhaustive_block": "criterion 3's entry, which also runs blocks of odd m",
}

# public methods of icsim classes that no package module or perfbench script reads
UNUSED_METHODS = {
    "ChannelModel.gallager_e0": "Gallager's E0, whose slope at 0 criterion 4 checks is the capacity",
    "SweepSummary.row": "a sweep's row of one n, which the acceptance criteria read",
}


def test_every_export_is_used_outside_the_tests():
    # every export, and every public module-level function or class of an
    # icsim module, must be used: a name is used where a module reads it (as
    # a name or an attribute) or names it in a string, as perfbench's tracer
    # does with what it patches; perfbench's own checks count, since the
    # benchmark reads what they read. A public method or property of an
    # icsim class is used only where a module reads it as an attribute, or
    # where the tracer's METHODS names it: any other string does not count,
    # since "bsc" is also a channel kind
    import icsim

    root = Path(icsim.__file__).parents[2]
    files = [p for p in (root / "src" / "icsim").glob("*.py") if p.name != "__init__.py"]
    public, used, methods, read = set(icsim.__all__), set(), set(), set()
    for path in files + sorted((root / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path in files:
            public.update(node.name for node in tree.body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and not node.name.startswith("_"))
            methods.update(f"{cls.name}.{node.name}" for cls in tree.body
                           if isinstance(cls, ast.ClassDef) for node in cls.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
        elif path == root / "perfbench" / "tracing.py":
            (traced,) = [{f"{cls}.{name}" for _, _, cls, name in ast.literal_eval(node.value)}
                         for node in tree.body if isinstance(node, ast.Assign)
                         and [t.id for t in node.targets] == ["METHODS"]]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = public - used
    assert sorted(unused - set(UNUSED_EXPORTS)) == []
    assert sorted(set(UNUSED_EXPORTS) - unused) == []  # an entry goes once its name is used
    assert len(methods) > 20  # the walk found the classes' methods
    unread = {m for m in methods if m.split(".")[1] not in read} - traced
    assert sorted(unread - set(UNUSED_METHODS)) == []
    assert sorted(set(UNUSED_METHODS) - unread) == []


def test_every_private_name_is_read_by_the_program():
    # every private module-level function, class and constant of an icsim
    # module must be read, as a name or an attribute, by an icsim module or a
    # perfbench script: a helper kept alive only by the tests fails here.
    # Dunder names are Python's, not the package's
    import icsim

    root = Path(icsim.__file__).parents[2]
    files = sorted((root / "src" / "icsim").glob("*.py"))
    private, read = set(), set()
    for path in files + sorted((root / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        if path in files:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                private.update(n for n in names if n.startswith("_") and not n.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(private) > 50  # the walk found the modules' private names
    assert sorted(private - read) == []
