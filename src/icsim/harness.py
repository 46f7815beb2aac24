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
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import ChannelModel
from .coding import CodeSpec
from .multistate import PLACEMENTS, resolve_functions, simulate_mstate
from .protocol import (FiniteStateProtocol, _is_int, advance_table, load_protocol,
                       markovian_advance, random_protocol, read_json)
from .twostate import exhaustive_two_state, random_two_state_protocol, simulate_two_state
from .vertical import (AuditRecord, SimulationReport, accounting, genie_provider,
                       simulate_vertical)

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


def write_out(path: str | Path | None, text: str) -> None:
    """Write ``text`` to ``path`` (see ``resolve_out``), or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    out = resolve_out(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; well-behaved at zero counts."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# each protocol source's keys besides "type"
PROTOCOL_KEYS = {"two-state": ("advance",), "markovian": ("log_M", "functions"), "file": ("path",)}
MAX_LOG_M = 16  # the largest window a markovian source may ask for
Draw = Callable[[int, np.random.Generator], FiniteStateProtocol]  # (n, rng) -> protocol


def protocol_draw(source: Mapping, n_list: Sequence[int]) -> Draw:
    """Parse a protocol source, once and before any trial, into each trial's
    draw ``(n, rng) -> protocol``. The draw looks up this module's draw
    functions by name at call time, so a wrapper put in their place sees it.
    A file holds one protocol, so every n in ``n_list`` must be its n."""
    kind = source.get("type", "two-state")
    if not isinstance(kind, str) or kind not in PROTOCOL_KEYS:
        raise ValueError(f"unknown protocol source {kind!r}")
    known = PROTOCOL_KEYS[kind]
    unknown = sorted(map(str, set(source) - {"type", *known}))
    if unknown:
        raise ValueError(f"unknown {kind} protocol keys {unknown}; known: {sorted(known)}")
    if kind == "two-state":
        advance = source.get("advance")
        try:
            rows = None if advance is None else advance_table(advance, 2)
        except ValueError as exc:
            raise ValueError("protocol advance must be null or a list of integer rows, "
                             f"not {advance!r} ({exc})") from None
        return lambda n, rng: random_two_state_protocol(n, rng, advance=rows)
    if kind == "markovian":
        log_M = source.get("log_M", 2)
        if not (_is_int(log_M) and 1 <= log_M <= MAX_LOG_M):
            raise ValueError(
                f"protocol log_M must be an integer from 1 to {MAX_LOG_M}, not {log_M!r}")
        functions = source.get("functions", "balanced")
        try:
            fset = resolve_functions(functions, 1 << log_M)
        except ValueError as exc:
            raise ValueError('protocol functions must be "balanced", "all" or a list of integer '
                             f"rows, not {functions!r} ({exc})") from None
        advance = markovian_advance(log_M)
        return lambda n, rng: random_protocol(n, len(advance), fset, rng, advance=advance)
    path = source.get("path", "")
    if not isinstance(path, str):
        raise ValueError(f"protocol path must be a string, not {path!r}")
    protocol = load_protocol(path)  # read once; every trial runs this protocol
    other = [n for n in n_list if n != protocol.n]
    if other:
        raise ValueError(f"n = {other[0]} is not the n = {protocol.n} of protocol file {path}")
    return lambda n, rng: protocol


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
    # what each trial uses, parsed once from the fields above when the config is built
    draw: Draw = field(init=False, repr=False, compare=False)
    channel_model: ChannelModel = field(init=False, repr=False, compare=False)
    code_spec: CodeSpec = field(init=False, repr=False, compare=False)
    side_spec: CodeSpec = field(init=False, repr=False, compare=False)

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
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; choose from {PLACEMENTS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be at least 0, not {self.base_seed}")
        if any(n < 1 for n in self.n_list):
            raise ValueError("all n must be positive")
        put = partial(object.__setattr__, self)  # the class is frozen
        put("n_list", tuple(self.n_list))
        put("channel_model", ChannelModel.parse(self.channel))
        put("code_spec", CodeSpec.parse(self.code))
        side = self.side_code
        put("side_spec", self.code_spec if side is None else CodeSpec.parse(side))
        put("draw", protocol_draw(self.protocol, self.n_list))

    @classmethod
    def from_json(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        raw = read_json(path, "config", keys=())
        known = {f.name for f in fields(cls) if f.init}
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


def run_trial(cfg: ExperimentConfig, n: int, trial: int) -> SimulationReport:
    seed = cfg.base_seed + trial
    rng = np.random.default_rng(seed)
    p = cfg.draw(n, rng)
    ch, code, side = cfg.channel_model, cfg.code_spec, cfg.side_spec
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
    """A sweep's rows, each row's reports in trial order, and whether every
    report passed its ``accounting`` audit."""

    rows: tuple[SweepRow, ...]
    reports: tuple[tuple[SimulationReport, ...], ...]
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


def _csv_cells(report: SimulationReport, trial: int) -> tuple:
    coinc = "" if report.coincidence_ok is None else report.coincidence_ok
    return (report.n_logical, report.scheme, trial, report.seed,
            report.channel_uses, report.achieved_rate,
            report.alice_correct, report.bob_correct,
            report.lookahead_bits, coinc)


def sweep_csv(summary: SweepSummary, columns: Sequence[str] = CSV_COLUMNS) -> str:
    """The sweep table: a header and one line per trial, in trial order, cut
    to ``columns`` (a subsequence of ``CSV_COLUMNS``)."""
    rows = (_csv_cells(r, t) for reports in summary.reports for t, r in enumerate(reports))
    if columns != CSV_COLUMNS:
        keep = [CSV_COLUMNS.index(c) for c in columns]
        rows = ([cells[i] for i in keep] for cells in rows)
    return "\n".join(map(csv_line, (columns, *rows))) + "\n"


def sweep_row(n: int, scheme: str, reports: Sequence[SimulationReport],
              audits: Sequence[AuditRecord]) -> SweepRow:
    """Aggregate one n's reports and their audits, in trial order."""
    failures = sum(1 for r in reports if not r.correct)
    low, high = wilson_interval(failures, len(reports))
    return SweepRow(
        n=n,
        scheme=scheme,
        trials=len(reports),
        failures=failures,
        mean_pe=failures / len(reports),
        wilson_low=low,
        wilson_high=high,
        mean_rate=float(np.mean([r.achieved_rate for r in reports])),
        mean_overhead=float(np.mean([a.overhead for a in audits])),
        coincidence_failures=sum(1 for r in reports if r.coincidence_ok is False),
    )


def run_sweep(cfg: ExperimentConfig) -> SweepSummary:
    reports = tuple(tuple(run_trial(cfg, n, t) for t in range(cfg.trials)) for n in cfg.n_list)
    audits = tuple(tuple(map(accounting, batch)) for batch in reports)  # one audit per report
    rows = tuple(sweep_row(n, cfg.scheme, batch, audit)
                 for n, batch, audit in zip(cfg.n_list, reports, audits))
    summary = SweepSummary(rows, reports, all(a.passed for batch in audits for a in batch))
    if cfg.csv_path:
        write_out(cfg.csv_path, sweep_csv(summary))
    if cfg.json_path:
        write_out(cfg.json_path, json_text(summary_doc(summary)))
    return summary


def summary_doc(summary: SweepSummary) -> dict:
    """The sweep's JSON summary: each row is its ``SweepRow`` with the Wilson
    bounds joined into ``wilson_95``."""
    rows = [asdict(row) for row in summary.rows]
    for row in rows:
        row["wilson_95"] = [row.pop("wilson_low"), row.pop("wilson_high")]
    return {"schema_version": SCHEMA_VERSION, "audits_passed": summary.audits_passed,
            "rows": rows}


def json_text(doc: Mapping) -> str:
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
