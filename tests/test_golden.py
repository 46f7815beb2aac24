"""Golden guard: today's CLI output bytes and per-trial reports, pinned.

Each case runs ``icsim sweep`` and ``icsim simulate`` at a square and a
non-square n, and records every ``SimulationReport`` field of every trial as
one JSON line. The files under ``tests/golden/<case>/`` must come out byte
for byte. They depend on the numpy version (see the README's determinism
note).

Regenerate, only for a deliberate output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icsim
from icsim.channel import ChannelModel
from icsim.cli import main
from icsim.harness import ExperimentConfig, run_trial

GOLDEN = Path(__file__).resolve().parent / "golden"
N_VALUES = (64, 150)  # padded to 8x8 and 14x14
TRIALS = 3
SEED = 9
MERGING = {"type": "markovian", "log_M": 1, "functions": "all"}

CASES = {
    "genie-bsc-oracle": dict(scheme="genie", family="two-state",
                             channel="bsc:0.05", code="oracle:0.5"),
    "genie-awgn-rlc": dict(scheme="genie", family="markovian",
                           channel="awgn:0.6", code="rlc:2"),
    "twostate-bsc-rep": dict(scheme="two-state", family="two-state",
                             channel="bsc:0.02", code="rep:3", side_code="rep:5"),
    "twostate-bec-rlc": dict(scheme="two-state", family="two-state",
                             channel="bec:0.1", code="rlc:2", side_code="rep:3"),
    # rlc on a noisy bsc: 14-bit columns at n = 150 end in a 6-bit chunk of
    # b = 18, and rlc side transfers of several lengths end in short chunks
    "genie-bsc-rlc3": dict(scheme="genie", family="two-state",
                           channel="bsc:0.02", code="rlc:3"),
    "twostate-bsc-rlc2": dict(scheme="two-state", family="two-state",
                              channel="bsc:0.05", code="rlc:2", side_code="rlc:3"),
    "exhaustive-bec-rep": dict(scheme="two-state-exhaustive", family="two-state",
                               channel="bec:0.1", code="rep:3", side_code="rep:3"),
    "exhaustive-awgn-oracle": dict(scheme="two-state-exhaustive", family="two-state",
                                   channel="awgn:0.5", code="oracle:0.4"),
    # awgn rep columns: the m-state awgn case aborts before its columns
    "genie-awgn-rep": dict(scheme="genie", family="two-state",
                           channel="awgn:0.4", code="rep:1"),
    "twostate-awgn-rep": dict(scheme="two-state", family="two-state",
                              channel="awgn:0.7", code="rep:3", side_code="rep:1"),
    # rep codes past 4096 output tuples (bec r >= 8, bsc r >= 13), and an even
    # side code whose bsc output sums can tie at zero
    "genie-bec-rep8": dict(scheme="genie", family="two-state",
                           channel="bec:0.2", code="rep:8"),
    "twostate-bsc-rep13": dict(scheme="two-state", family="two-state",
                               channel="bsc:0.1", code="rep:13", side_code="rep:2"),
    "mstate-last-awgn-rep": dict(scheme="m-state", placement="last", family="markovian",
                                 channel="awgn:0.5", code="rep:3"),
    # these sweeps and reports draw two-state Markovian protocols, whose tails
    # mostly merge; their simulate runs keep the CLI's four-state default
    "mstate-last-bsc-rlc": dict(scheme="m-state", placement="last", family="markovian",
                                protocol=MERGING, channel="bsc:0", code="rlc:1"),
    "mstate-first-bsc-rep": dict(scheme="m-state", placement="first", family="markovian",
                                 protocol=MERGING, channel="bsc:0.01", code="rep:3"),
    "mstate-first-bec-oracle": dict(scheme="m-state", placement="first", family="markovian",
                                    channel="bec:0", code="oracle:0.9"),
}


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"$ icsim {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def _optional(case: dict) -> list[str]:
    args = []
    if "side_code" in case:
        args += ["--side-code", case["side_code"]]
    if "placement" in case:
        args += ["--placement", case["placement"]]
    return args


def write_case(name: str, out: Path) -> None:
    """Run one case and write its outputs into ``out`` (paths inside it are
    passed to the CLI as relative names, so the log does not name ``out``)."""
    case = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    protocol = case.get("protocol", {"type": case["family"]})
    config = {
        "scheme": case["scheme"],
        "protocol": protocol,
        "channel": case["channel"],
        "code": case["code"],
        "side_code": case.get("side_code"),
        "placement": case.get("placement", "last"),
        "n": list(N_VALUES),
        "trials": TRIALS,
        "base_seed": SEED,
    }
    (out / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    log = []
    cwd = os.getcwd()
    os.chdir(out)  # contextlib.chdir needs Python 3.11
    try:
        log.append(_run_cli(["sweep", "--config", "config.json",
                             "--out", "sweep.csv", "--summary", "sweep.json"]))
        for n in N_VALUES:
            log.append(_run_cli(
                ["simulate", "--scheme", case["scheme"], "--family", case["family"],
                 "--channel", case["channel"], "--code", case["code"], *_optional(case),
                 "--n", str(n), "--trials", str(TRIALS), "--seed", str(SEED),
                 "--out", f"simulate-{n}.csv", "--summary", f"simulate-{n}.json"]))
    finally:
        os.chdir(cwd)
    (out / "cli.txt").write_text("".join(log))

    cfg = ExperimentConfig(scheme=case["scheme"], protocol=protocol,
                           channel=case["channel"], code=case["code"],
                           side_code=case.get("side_code"),
                           placement=case.get("placement", "last"),
                           n_list=N_VALUES, trials=TRIALS, base_seed=SEED)
    lines = [
        json.dumps(dataclasses.asdict(run_trial(cfg, n, t)), sort_keys=True)
        for n in N_VALUES for t in range(TRIALS)
    ]
    (out / "reports.jsonl").write_text("\n".join(lines) + "\n")


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ICSIM_OUTDIR", raising=False)
    write_case(name, tmp_path / name)
    got = _files(tmp_path / name)
    want = _files(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from the golden"


def _openblas_dynamic_arch() -> bool:
    """Whether numpy links an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel OPENBLAS_CORETYPE picks at load time."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and \
        "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def awgn_quadratures() -> str:
    """The repr of bi-AWGN capacity, E0 at two rho and Er at half capacity,
    one line per sigma: the Gauss-Hermite sums behind every awgn oracle."""
    lines = []
    for sigma in (0.4, 0.8, 1.3, 2.0):
        ch = ChannelModel("awgn", sigma)
        lines.append(repr((ch.capacity(), ch.gallager_e0(0.5), ch.gallager_e0(1.0),
                           ch.error_exponent(ch.capacity() / 2))))
    return "\n".join(lines) + "\n"


# every case that decodes rlc or crosses awgn, where a BLAS sum could decide
KERNEL_CASES = sorted(name for name, case in CASES.items()
                      if case["code"].startswith("rlc") or case["channel"].startswith("awgn"))


def _numpy_dispatches_avx512f() -> bool:
    """Whether numpy's SIMD dispatch reports AVX512F on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or not _openblas_dynamic_arch(),
                    reason="needs numpy on x86-64 with a DYNAMIC_ARCH OpenBLAS")
def test_golden_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the oldest x86-64 kernel, Prescott, sums in another order than the
    # kernels of current CPUs; neither the goldens nor the awgn quadratures
    # may see it, nor numpy's own SIMD dispatch with its AVX-512 group off
    script = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
              "from test_golden import awgn_quadratures, write_case; "
              "print(awgn_quadratures(), end=''); "
              "[write_case(name, Path(sys.argv[2]) / name) for name in sys.argv[3:]]")
    src = str(Path(icsim.__file__).resolve().parents[1])
    settings = {"Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
    if _numpy_dispatches_avx512f():
        settings["X86_V4 off"] = {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    for label, setting in settings.items():
        env = {key: value for key, value in os.environ.items() if key != "ICSIM_OUTDIR"}
        env.update(setting, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / label
        done = subprocess.run([sys.executable, "-c", script, str(GOLDEN.parent), str(out),
                               *KERNEL_CASES], env=env, check=True, timeout=120,
                              capture_output=True, text=True)
        assert done.stdout == awgn_quadratures(), label
        for name in KERNEL_CASES:
            got, want = _files(out / name), _files(GOLDEN / name)
            assert sorted(got) == sorted(want)
            for fname in want:
                assert got[fname] == want[fname], f"{name}/{fname} differs under {label}"


def test_golden_matrix_covers_the_edge_cases():
    reports = [
        json.loads(line)
        for name in CASES
        for line in (GOLDEN / name / "reports.jsonl").read_text().splitlines()
    ]
    assert {r["scheme"] for r in reports} == {
        "genie", "two-state", "two-state-exhaustive", "m-state-last", "m-state-first"}
    assert {r["channel"].split(":")[0] for r in reports} == {"bsc", "bec", "awgn"}
    assert {r["code"].split(":")[0] for r in reports} == {"rep", "rlc", "oracle"}
    mstate = [r for r in reports if r["scheme"].startswith("m-state")]
    assert any(r["lookahead_failure"] for r in mstate)
    assert any(r["coincidence_ok"] is True for r in mstate)
    assert any(r["scheme"] == "m-state-last" and r["alice_correct"] for r in mstate)
    # a non-interactive advance draw: the exhaustive scheme spends no side bits
    assert any(r["lookahead_bits"] == 0 for r in reports
               if r["scheme"] == "two-state-exhaustive")
    assert any(any(r["column_errors"]) for r in reports)
    assert {r["n_logical"] == r["n_padded"] for r in reports} == {True, False}


if __name__ == "__main__":
    for case_name in sorted(CASES):
        write_case(case_name, GOLDEN / case_name)
    sys.exit(0)
