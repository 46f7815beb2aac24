"""Experiment orchestration: configuration, seeded trial sweeps, statistics,
and CSV/JSON emission.

Determinism contract: trial t of a sweep runs on a fresh generator seeded
with base_seed + t, protocols are drawn from that generator before any
channel noise, and aggregation folds reports in trial order. Identical
configuration therefore yields byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec
from .multistate import all_tables, balanced_tables, simulate_mstate
from .protocol import FiniteStateProtocol, load_protocol, markovian_advance, random_protocol
from .twostate import exhaustive_two_state, random_two_state_protocol, simulate_two_state
from .vertical import SimulationReport, accounting, genie_provider, simulate_vertical

SCHEMES = ("genie", "two-state", "two-state-exhaustive", "m-state")
SCHEMA_VERSION = 1
OUTDIR_ENV = "ICSIM_OUTDIR"

CSV_COLUMNS = ("n", "scheme", "trial", "seed", "N", "rate",
               "alice_ok", "bob_ok", "lookahead_bits", "coincidence_ok")
# config file keys that differ from the ExperimentConfig field names
JSON_KEYS = {"n": "n_list", "csv": "csv_path", "json": "json_path"}


def resolve_out(path: str | Path) -> Path:
    """Relative output paths land in $ICSIM_OUTDIR when that is set."""
    path = Path(path)
    base = os.environ.get(OUTDIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; well-behaved at zero counts."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_rows(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(map(_is_int, row)) for row in value)


# each protocol source's keys besides "type", with a check of the value
PROTOCOL_KEYS = {
    "two-state": {"advance": (lambda v: v is None or _is_int_rows(v),
                              "null or a list of integer rows")},
    "markovian": {"log_M": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
                  "functions": (lambda v: v in ("balanced", "all") if isinstance(v, str)
                                else _is_int_rows(v),
                                '"balanced", "all" or a list of integer rows')},
    "file": {"path": (lambda v: isinstance(v, str), "a string")},
}


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = "genie"
    protocol: Mapping = field(default_factory=lambda: {"type": "two-state"})
    channel: str = "bsc:0.05"
    code: str = "oracle:0.3"
    side_code: str | None = None
    placement: str = "last"
    n_list: tuple[int, ...] = (256,)
    trials: int = 1
    base_seed: int = 0
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self) -> None:
        def expect(name: str, ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {what}, not {getattr(self, name)!r}")

        for name in ("scheme", "channel", "code", "placement"):
            expect(name, isinstance(getattr(self, name), str), "a string")
        for name in ("side_code", "csv_path", "json_path"):
            expect(name, isinstance(getattr(self, name), (str, type(None))), "a string or null")
        for name in ("trials", "base_seed"):
            expect(name, _is_int(getattr(self, name)), "an integer")
        expect("protocol", isinstance(self.protocol, Mapping), "an object")
        expect("n_list", isinstance(self.n_list, (list, tuple)) and len(self.n_list) > 0
               and all(map(_is_int, self.n_list)), "a non-empty list of integers (config key n)")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "n_list", tuple(self.n_list))
        if any(n < 1 for n in self.n_list):
            raise ValueError("all n must be positive")
        # fail fast on dangling references, not mid-sweep
        ChannelModel.parse(self.channel)
        CodeSpec.parse(self.code)
        if self.side_code is not None:
            CodeSpec.parse(self.side_code)
        kind = self.protocol.get("type", "two-state")
        if not isinstance(kind, str) or kind not in PROTOCOL_KEYS:
            raise ValueError(f"unknown protocol source {kind!r}")
        checks = PROTOCOL_KEYS[kind]
        unknown = sorted(map(str, set(self.protocol) - {"type", *checks}))
        if unknown:
            raise ValueError(f"unknown {kind} protocol keys {unknown}; known: {sorted(checks)}")
        for key, (ok, what) in checks.items():
            if key in self.protocol and not ok(self.protocol[key]):
                raise ValueError(f"protocol {key} must be {what}, not {self.protocol[key]!r}")
        if kind == "file":
            path = Path(self.protocol.get("path", ""))
            if not path.is_file():
                raise ValueError(f"protocol file not found: {path}")

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config {path} must be a JSON object, not {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        keys = known - set(JSON_KEYS.values()) | set(JSON_KEYS)
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise ValueError(f"unknown config keys {unknown} in {path}; known: {sorted(keys)}")
        kwargs = {JSON_KEYS.get(key, key): value for key, value in raw.items()}
        if _is_int(kwargs.get("n_list")):
            kwargs["n_list"] = (kwargs["n_list"],)
        for key, value in overrides.items():
            if key not in known:
                raise TypeError(f"unknown override {key!r}")
            if value is not None:
                kwargs[key] = value
        return cls(**kwargs)


def _draw_protocol(source: Mapping, n: int, rng: np.random.Generator) -> FiniteStateProtocol:
    kind = source.get("type", "two-state")
    if kind == "file":
        return load_protocol(source["path"])
    if kind == "two-state":
        advance = source.get("advance")
        if advance is not None:
            advance = tuple(tuple(row) for row in advance)
        return random_two_state_protocol(n, rng, advance=advance)
    if kind == "markovian":
        log_M = int(source.get("log_M", 2))
        M = 1 << log_M
        functions = source.get("functions", "balanced")
        if functions == "balanced":
            fset = balanced_tables(M)
        elif functions == "all":
            fset = all_tables(M)
        else:
            fset = tuple(tuple(int(b) for b in t) for t in functions)
        return random_protocol(n, M, fset, rng, advance=markovian_advance(log_M))
    raise ValueError(f"unknown protocol source {kind!r}")


def run_trial(cfg: ExperimentConfig, n: int, trial: int) -> SimulationReport:
    seed = cfg.base_seed + trial
    rng = np.random.default_rng(seed)
    p = _draw_protocol(cfg.protocol, n, rng)
    ch = ChannelModel.parse(cfg.channel)
    code = CodeSpec.parse(cfg.code)
    side = CodeSpec.parse(cfg.side_code) if cfg.side_code else code
    if cfg.scheme == "genie":
        return simulate_vertical(p, ch, code, genie_provider, rng, scheme="genie", seed=seed)
    if cfg.scheme == "two-state":
        return simulate_two_state(p, ch, code, side, rng, seed=seed)
    if cfg.scheme == "two-state-exhaustive":
        return exhaustive_two_state(p, ch, code, side, rng, seed=seed)
    return simulate_mstate(p, ch, code, side, cfg.placement, rng, seed=seed)


@dataclass(frozen=True)
class SweepRow:
    n: int
    scheme: str
    trials: int
    failures: int
    mean_pe: float
    wilson_low: float
    wilson_high: float
    mean_rate: float
    mean_overhead: float
    coincidence_failures: int


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SweepRow, ...]
    audits_passed: bool

    def row(self, n: int) -> SweepRow:
        for row in self.rows:
            if row.n == n:
                return row
        raise KeyError(f"no sweep row for n={n}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.10g}"
    return "" if value is None else str(value)


def csv_line(values: Sequence) -> str:
    return ",".join(_fmt(v) for v in values)


def report_csv_row(report: SimulationReport, trial: int) -> str:
    coinc = "" if report.coincidence_ok is None else report.coincidence_ok
    return csv_line((report.n_logical, report.scheme, trial, report.seed,
                     report.channel_uses, report.achieved_rate,
                     report.alice_correct, report.bob_correct,
                     report.lookahead_bits, coinc))


def sweep_row(n: int, scheme: str, reports: Sequence[SimulationReport]) -> tuple[SweepRow, bool]:
    """Aggregate one n's reports, in trial order, and whether all passed audit."""
    failures = sum(1 for r in reports if not r.correct)
    low, high = wilson_interval(failures, len(reports))
    row = SweepRow(
        n=n,
        scheme=scheme,
        trials=len(reports),
        failures=failures,
        mean_pe=failures / len(reports),
        wilson_low=low,
        wilson_high=high,
        mean_rate=float(np.mean([r.achieved_rate for r in reports])),
        mean_overhead=float(np.mean(
            [r.channel_uses - r.n_padded / r.rate_target for r in reports])),
        coincidence_failures=sum(1 for r in reports if r.coincidence_ok is False),
    )
    return row, all(accounting(r).passed for r in reports)


def run_sweep(cfg: ExperimentConfig) -> SweepSummary:
    csv_lines = [csv_line(CSV_COLUMNS)]
    rows = []
    audits_passed = True
    for n in cfg.n_list:
        reports = [run_trial(cfg, n, t) for t in range(cfg.trials)]
        csv_lines += [report_csv_row(report, t) for t, report in enumerate(reports)]
        row, audits_ok = sweep_row(n, cfg.scheme, reports)
        rows.append(row)
        audits_passed &= audits_ok
    summary = SweepSummary(tuple(rows), audits_passed)

    if cfg.csv_path:
        out = resolve_out(cfg.csv_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(csv_lines) + "\n")
    if cfg.json_path:
        out = resolve_out(cfg.json_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(summary_json(summary))
    return summary


def summary_json(summary: SweepSummary) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "audits_passed": summary.audits_passed,
        "rows": [
            {
                "n": r.n,
                "scheme": r.scheme,
                "trials": r.trials,
                "failures": r.failures,
                "mean_pe": r.mean_pe,
                "wilson_95": [r.wilson_low, r.wilson_high],
                "mean_rate": r.mean_rate,
                "mean_overhead": r.mean_overhead,
                "coincidence_failures": r.coincidence_failures,
            }
            for r in summary.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class BoundAudit:
    label: str
    empirical: float
    bound: float
    sigma: float
    passed: bool
    vacuous: bool


def compare_bounds(rows: Sequence[tuple[str, int, int, float]]) -> tuple[BoundAudit, ...]:
    """Audit empirical failure counts against one-sided theoretical bounds.

    Each row is (label, failures, trials, bound); passing means the empirical
    rate stays within 3 binomial standard deviations above the bound, and a
    bound at 1 can never fail (flagged vacuous).
    """
    audits = []
    for label, k, trials, bound in rows:
        e = k / trials if trials else 0.0
        sigma = math.sqrt(e * (1 - e) / trials) if trials else 0.0
        vacuous = bound >= 1.0
        passed = vacuous or e <= bound + 3 * sigma
        audits.append(BoundAudit(label, e, bound, sigma, passed, vacuous))
    return tuple(audits)
