"""In-process A/B timing of two icsim source trees on one config.

Both trees are imported into one Python process: each tree's ``icsim``
modules are loaded with its source directory first on ``sys.path`` and then
taken out of ``sys.modules``, and a tree's module table is put back before
each of its trials. Trial t runs on both trees with the same seed; tree A
goes first on even t and tree B on odd t, so a drift in host speed hits both
alike. The trees must give equal reports, and the script says so.

    python bench/ab.py PARENT_TREE CHANGED_TREE perfbench/workloads/exhaustive-bec-4k.json \\
        --trials 1000 --seed-base 5

A tree is a checkout, whose ``src/icsim`` is imported. CONFIG is a sweep
config or a perfbench workload (read, never written); ``--set KEY=VALUE``
overrides a key of it, the value read as JSON when it parses (``--set
n=4096 --set channel=bsc:0.05``). The run uses the config's first n. It
prints, per tree, p50 and p90 of the trial times in ms, the median over
trials of B's time over A's, and under it how many trials B ran faster
(equal times count for neither) and the quartiles of that per-trial ratio.
A last line gives, per tree, how many trials had a column error and p50
and p90 of their times, then the median ratio over the trials where either
tree had one. It exits 1 when the trees' reports differ in any trial.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np


WARMUP = 2  # untimed trials per tree before the timed ones


def package_dir(tree: str) -> Path:
    """The ``src`` directory of checkout ``tree``, which holds its icsim package."""
    src = Path(tree).resolve() / "src"
    if not (src / "icsim" / "__init__.py").is_file():
        raise SystemExit(f"no icsim package at {src / 'icsim'}")
    return src


def load(tree: str) -> dict:
    """Import every icsim module of ``tree`` and return them by name, with
    ``sys.modules`` and ``sys.path`` as they were before."""
    path = str(package_dir(tree))
    if any(k == "icsim" or k.startswith("icsim.") for k in sys.modules):
        raise RuntimeError("load() needs a process with no icsim module imported")
    sys.path.insert(0, path)
    try:
        import icsim.harness  # noqa: F401  (pulls in every module a trial uses)
    finally:
        sys.path.remove(path)
    table = {k: m for k, m in sys.modules.items() if k == "icsim" or k.startswith("icsim.")}
    for key in table:
        del sys.modules[key]
    return table


def read_config(path: str, sets: list[str]) -> dict:
    raw = json.loads(Path(path).read_text())
    for item in sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--set needs KEY=VALUE, not {item!r}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    return raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("config")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args(argv)
    if args.trials < 1:
        raise SystemExit("--trials must be at least 1")

    raw = read_config(args.config, args.set)
    trees = [load(args.tree_a), load(args.tree_b)]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        cfgs = [t["icsim.harness"].ExperimentConfig.from_json(config, base_seed=args.seed_base)
                for t in trees]
    n = cfgs[0].n_list[0]

    def trial(side: int, t: int) -> tuple[float, object]:
        sys.modules.update(trees[side])
        run = trees[side]["icsim.harness"].run_trial
        start = time.perf_counter()
        report = run(cfgs[side], n, t)
        seconds = time.perf_counter() - start
        for key in trees[side]:
            del sys.modules[key]
        return seconds * 1e3, report

    for t in range(WARMUP):
        trial(0, t), trial(1, t)
    ms = np.empty((2, args.trials))
    erred = np.zeros((2, args.trials), dtype=bool)  # trials with a column error, per tree
    differ = 0
    for t in range(args.trials):
        order = (0, 1) if t % 2 == 0 else (1, 0)
        reports = [None, None]
        for side in order:
            ms[side, t], reports[side] = trial(side, t)
            erred[side, t] = any(reports[side].column_errors)
        differ += astuple(reports[0]) != astuple(reports[1])

    name = Path(args.config).stem + "".join(f" {s}" for s in args.set)
    print(f"{name}: n={n}, {args.trials} trials from seed {args.seed_base}, "
          f"reports {'equal' if not differ else f'differ in {differ} trials'}")
    for label, row in zip("AB", ms):
        p50, p90 = np.percentile(row, (50, 90))
        print(f"  {label}  p50 {p50:.3f} ms  p90 {p90:.3f} ms")
    ratio = ms[1] / ms[0]
    q1, median, q3 = np.percentile(ratio, (25, 50, 75))
    wins = int(np.count_nonzero(ratio < 1.0))
    print(f"  ratio B/A, median per trial: {median:.4f}")
    print(f"  B faster in {wins} of {args.trials} trials ({wins / args.trials:.1%}), "
          f"ratio quartiles {q1:.4f} to {q3:.4f}")
    tail = []
    for label, row, hit in zip("AB", ms, erred):
        tail.append(f"{label} {np.count_nonzero(hit)}")
        if hit.any():
            tail[-1] += " p50 {:.3f} ms p90 {:.3f} ms".format(*np.percentile(row[hit], (50, 90)))
    either = erred.any(axis=0)
    if either.any():
        tail.append(f"median ratio {np.median(ratio[either]):.4f}")
    print("  with a column error: " + ", ".join(tail))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
