"""Command-line harness.

Subcommands:
  capacity      channel capacity plus an error-exponent table as CSV
  simulate      seeded simulation trials of one scheme, CSV + JSON summary
  coincidence   Monte Carlo coincidence-failure rate vs. the theoretical bound
  classify      coincidence certificate (and two-state taxonomy) of an advance table
  disjointness  disjointness-reduction check, exhaustive or sampled
  sweep         config-driven multi-n sweep with audits

Relative output paths land in $ICSIM_OUTDIR when set. Exit code 0 means all
requested audits passed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channel import ChannelModel
from .harness import (
    MAX_LOG_M,
    SCHEMES,
    ExperimentConfig,
    compare_bounds,
    json_text,
    run_sweep,
    summary_doc,
    sweep_csv,
    write_out,
)
from .multistate import (
    PLACEMENTS,
    coincidence_bound,
    coincidence_failure_trials,
    coincidence_horizon,
    is_coinciding,
    is_useful,
    resolve_functions,
)
from .protocol import advance_table, markovian_advance, read_json
from .threestate import count_transcript_triples, disj_via_protocol
from .twostate import classify_advance


# the simulate outputs: columns of the sweep CSV, keys of its one JSON row
SIMULATE_COLUMNS = ("seed", "N", "rate", "alice_ok", "bob_ok")
SIMULATE_KEYS = ("trials", "failures", "mean_pe", "wilson_95", "mean_rate")


def _at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be at least {low}, not {value}")


def _load_advance(spec: str):
    """An advance table from a JSON file (rows or flat row-major, see
    ``protocol.advance_table``), or the builtin shorthand markovian:<log_M>."""
    if spec.startswith("markovian:"):
        text = spec.split(":", 1)[1]
        try:
            log_M = int(text)
        except ValueError:
            raise ValueError(f"--advance markovian:<log_M> needs an integer log_M, "
                             f"not {text!r}") from None
        if not 1 <= log_M <= MAX_LOG_M:
            raise ValueError(f"markovian log_M must be from 1 to {MAX_LOG_M}, not {log_M}")
        return markovian_advance(log_M)
    return read_json(spec, "advance table", parse=advance_table)


def _cmd_capacity(args) -> int:
    _at_least("points", args.points, 1)
    ch = ChannelModel.parse(args.channel)
    cap = ch.capacity()
    lines = [f"# {ch.name} capacity {cap:.6f} bits/use", "R,Er_bits"]
    for k in range(args.points):
        r = cap * k / (args.points - 1) if args.points > 1 else 0.0
        lines.append(f"{r:.6f},{ch.error_exponent(r):.6f}")
    write_out(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    """A one-n sweep, cut to ``SIMULATE_COLUMNS`` and ``SIMULATE_KEYS``. An
    option left out takes its ``ExperimentConfig`` default."""
    protocol = {"type": "file", "path": args.protocol} if args.protocol else (
        {"type": args.family} if args.family else None)
    given = dict(scheme=args.scheme, protocol=protocol, channel=args.channel, code=args.code,
                 side_code=args.side_code, placement=args.placement,
                 n_list=None if args.n is None else (args.n,), trials=args.trials,
                 base_seed=args.seed)
    cfg = ExperimentConfig(**{key: value for key, value in given.items() if value is not None})
    summary = run_sweep(cfg)
    write_out(args.out, sweep_csv(summary, SIMULATE_COLUMNS))
    doc = summary_doc(summary)
    view = {key: doc["rows"][0][key] for key in SIMULATE_KEYS}
    view.update(schema_version=doc["schema_version"], audits_passed=doc["audits_passed"])
    write_out(args.summary, json_text(view))
    return 0 if summary.audits_passed else 1


def _cmd_coincidence(args) -> int:
    _at_least("trials", args.trials, 1)
    _at_least("p", args.p, 0)
    _at_least("seed", args.seed, 0)
    eta = _load_advance(args.advance)
    M = len(eta)
    if args.functions in ("balanced", "all"):
        fset = resolve_functions(args.functions, M)
    else:
        fset = read_json(args.functions, "function set",
                         parse=lambda spec: resolve_functions(spec, M))
    K = coincidence_horizon(eta, M)
    if K is None:
        print("advance function is not coinciding; no bound applies")
        return 1
    if not is_useful(fset, M).useful:
        print("function set is not useful; no bound applies")
        return 1
    k = max(1, K)
    p = args.p - args.p % k
    failures = coincidence_failure_trials(eta, fset, p, args.trials, args.seed)
    bound = coincidence_bound(M, len(fset), k, p)
    audit = compare_bounds([(f"p={p}", failures, args.trials, bound)])[0]
    verdict = "pass" if audit.passed else "fail"
    if audit.vacuous:
        verdict += " (vacuous bound)"
    print(f"M={M} |F|={len(fset)} K={k} p={p} trials={args.trials}")
    print(f"empirical={audit.empirical:.6f} bound={audit.bound:.6f} "
          f"sigma={audit.sigma:.6f} -> {verdict}")
    return 0 if audit.passed else 1


def _cmd_classify(args) -> int:
    eta = _load_advance(args.advance)
    M = len(eta)
    cert = is_coinciding(eta, M)
    if cert is None:
        print(f"M={M}: not coinciding (some state pair never meets)")
    else:
        print(f"M={M}: coinciding, K={cert.K}")
        for (a, b), (wa, wb) in sorted(cert.witnesses.items()):
            print(f"  pair ({a},{b}): drive {list(wa)} / {list(wb)}")
    if M == 2:
        cls = classify_advance(eta)
        print(f"two-state class: {cls.category}; constant-making tables: "
              f"{list(cls.constant_making)}")
    return 0


def _cmd_disjointness(args) -> int:
    u, m = args.universe, args.count_triples
    _at_least("universe", u, 1)
    _at_least("seed", args.seed, 0)
    count = None if m is None else count_transcript_triples(m)  # a bad m fails before any output
    rows = max(1, (1 << 15) // u)  # batches of about 2^16 rounds keep memory flat
    if args.exhaustive:
        if u > 10:
            raise ValueError("exhaustive mode supported up to universe 10")
        sets = (np.arange(1 << u)[:, None] >> np.arange(u) & 1).astype(np.uint8)
        xs, ys = np.repeat(sets, 1 << u, axis=0), np.tile(sets, (1 << u, 1))
        batches = ((xs[i:i + rows], ys[i:i + rows]) for i in range(0, len(xs), rows))
    else:
        _at_least("trials", args.trials, 1)
        rng = np.random.default_rng(args.seed)
        # one draw per batch: x then y of each case, the same stream as two draws a case
        batches = (rng.integers(0, 2, (min(rows, args.trials - i), 2, u)).transpose(1, 0, 2)
                   for i in range(0, args.trials, rows))
    cases = mismatches = 0
    for x, y in batches:
        mismatches += int((disj_via_protocol(x, y) != ~(x & y).any(axis=1)).sum())
        cases += len(x)
    print(f"universe={u} cases={cases} mismatches={mismatches} "
          f"-> {'pass' if mismatches == 0 else 'fail'}")
    if count is not None:
        expected = 1 << (3 * m // 2)
        print(f"transcript triples m={m}: {count} (expected {expected}) "
              f"-> {'pass' if count == expected else 'fail'}")
        if count != expected:
            return 1
    return 0 if mismatches == 0 else 1


def _cmd_sweep(args) -> int:
    try:
        n_list = None if args.n is None else tuple(int(v) for v in args.n.split(","))
    except ValueError:
        raise ValueError(
            f"--n must be a comma-separated list of integers, not {args.n!r}") from None
    cfg = ExperimentConfig.from_json(
        args.config, trials=args.trials, base_seed=args.seed, scheme=args.scheme,
        channel=args.channel, code=args.code, n_list=n_list,
        # an empty --out or --summary leaves the config's path in place
        csv_path=args.out or None, json_path=args.summary or None)
    summary = run_sweep(cfg)
    for row in summary.rows:
        print(f"n={row.n} scheme={row.scheme} trials={row.trials} "
              f"P_e={row.mean_pe:.4f} [{row.wilson_low:.4f},{row.wilson_high:.4f}] "
              f"rate={row.mean_rate:.4f} overhead={row.mean_overhead:.1f} "
              f"coincidence_failures={row.coincidence_failures}")
    print(f"audits: {'pass' if summary.audits_passed else 'fail'}")
    return 0 if summary.audits_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icsim",
                                     description="interactive-coding simulation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="capacity and error-exponent table")
    cap.add_argument("--channel", required=True, help="bsc:0.05 | bec:0.2 | awgn:0.8")
    cap.add_argument("--points", type=int, default=11)
    cap.add_argument("--out", help="write CSV here instead of stdout")
    cap.set_defaults(func=_cmd_capacity)

    sim = sub.add_parser("simulate", help="run seeded simulation trials")
    sim.add_argument("--protocol", help="protocol JSON file (else a random family)")
    sim.add_argument("--family", choices=["two-state", "markovian"])
    sim.add_argument("--channel")
    sim.add_argument("--code", help="oracle:<R> | rep:<r> | rlc:<x>")
    sim.add_argument("--side-code", dest="side_code", help="code for side information")
    sim.add_argument("--scheme", choices=SCHEMES)
    sim.add_argument("--placement", choices=PLACEMENTS)
    sim.add_argument("--n", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="CSV output path")
    sim.add_argument("--summary", help="JSON summary path")
    sim.set_defaults(func=_cmd_simulate)

    coin = sub.add_parser("coincidence", help="coincidence failure rate vs. bound")
    coin.add_argument("--advance", required=True,
                      help="JSON advance table file or markovian:<log_M>")
    coin.add_argument("--functions", default="balanced",
                      help="balanced | all | JSON file of tables")
    coin.add_argument("--p", type=int, default=80)
    coin.add_argument("--trials", type=int, default=10000)
    coin.add_argument("--seed", type=int, default=0)
    coin.set_defaults(func=_cmd_coincidence)

    cls = sub.add_parser("classify", help="coincidence certificate of an advance table")
    cls.add_argument("--advance", required=True)
    cls.set_defaults(func=_cmd_classify)

    dis = sub.add_parser("disjointness", help="disjointness reduction check")
    dis.add_argument("--universe", type=int, default=8)
    mode = dis.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--trials", type=int, default=1000)
    dis.add_argument("--seed", type=int, default=0)
    dis.add_argument("--count-triples", dest="count_triples", type=int,
                     help="also count transcript triples for this even m")
    dis.set_defaults(func=_cmd_disjointness)

    sweep = sub.add_parser("sweep", help="config-driven sweep")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--scheme")
    sweep.add_argument("--channel")
    sweep.add_argument("--code")
    sweep.add_argument("--n", help="comma-separated list")
    sweep.add_argument("--out")
    sweep.add_argument("--summary")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
