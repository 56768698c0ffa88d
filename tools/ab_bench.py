"""A/B benchmark: the working tree against a parent revision, in alternating pairs.

Usage, from anywhere inside a git checkout of symbidisc:

    python3 tools/ab_bench.py --workload geometry [certify cli] --pairs 10 --first-seed 901 [--rev HEAD]

The parent revision is unpacked with `git archive` into a temporary directory,
which is removed at the end, also after a failure, and named by its short commit
hash in the output. For each workload named, in
turn, and each seed, `perfbench/run.py` runs once in the parent and once in the
working tree, each with its own copy of the benchmark, for BENCHMARK.json's
run_seconds; the parent runs first for even-numbered pairs and second for odd ones,
so a drift of the machine's speed over the comparison does not favour either side.
For each workload, and every end-to-end metric of BENCHMARK.json, the script
prints the median over the pairs of change/parent, the number of pairs on which
the change was better (in the direction BENCHMARK.json declares), and the
parent's interquartile range over its median, the spread a gain has to clear. A second table gives each side's quartiles
and median per metric, and the verdict of the claim rule: a gain needs at least 10
pairs, wins on at least nine tenths of them (ties count for neither side), and a
gap between the medians, in the better direction, wider than the parent's
interquartile range. Next to it stands the verdict of the no-regression rule, for
each metric that BENCHMARK.json gives a bound: "worse by X > bound" when the
change's median is worse than the parent's by a share X of the parent's median
that exceeds the bound, "unresolved" when the parent's interquartile range over its
median is wider than the bound and some change run does not beat every parent run,
and "within bound" otherwise. Each table's header states
PYTHONDONTWRITEBYTECODE, which the runs inherit: when it is set, no bytecode is
cached, so every CLI start compiles the package from source and the CLI metrics
grow with the source size of the modules it loads. After a workload's tables comes
one JSON line with the same numbers (`record`), the form a BENCH_<n>.json keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Quartiles(NamedTuple):
    q1: float
    median: float
    q3: float


class Row(NamedTuple):
    name: str
    better: str  # "higher" or "lower"
    ratio: float  # median over the pairs of change / parent
    wins: int  # pairs on which the change was better
    pairs: int  # pairs that reported the metric on both sides
    parent: Quartiles  # of the parent's values
    change: Quartiles  # of the change's values
    bound: float | None = None  # BENCHMARK.json's bound on a worsening, if it gives one
    beats_all: bool = False  # every change value is better than every parent value

    @property
    def parent_spread(self) -> float:
        """The parent's interquartile range over its median."""
        return (self.parent.q3 - self.parent.q1) / self.parent.median


def quartiles(values: list[float]) -> Quartiles:
    """Exclusive quartiles and median; a single value is all three."""
    if len(values) < 2:
        return Quartiles(values[0], values[0], values[0])
    return Quartiles(*statistics.quantiles(values, n=4))


def result_of(output: str) -> dict:
    """The JSON object that perfbench/run.py prints as its last line."""
    return json.loads(output.strip().splitlines()[-1])


def summarize(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> list[Row]:
    """One Row per end-to-end metric from the (parent, change) outputs of run.py.

    A metric missing from either side of a pair leaves that pair out of its row.
    """
    results = [(result_of(parent), result_of(change)) for parent, change in pairs]
    rows = []
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in results if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in values)
        parents, changes = [p for p, _ in values], [c for _, c in values]
        if better == "higher":
            beats_all = min(changes) > max(parents)
        else:
            beats_all = max(changes) < min(parents)
        rows.append(Row(name, better, statistics.median(c / p for p, c in values),
                        wins, len(values), quartiles(parents), quartiles(changes),
                        metric.get("bound"), beats_all))
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = [f"{'metric':<24} {'better':<7} {'change/parent':>13} {'wins':>7} {'parent IQR':>10}"]
    for row in rows:
        lines.append(f"{row.name:<24} {row.better:<7} {row.ratio:>13.4f} "
                     f"{row.wins:>3}/{row.pairs:<3} {row.parent_spread:>10.4f}")
    return "\n".join(lines)


def verdict(row: Row) -> str:
    """The claim rule on one row: "gain", or "no gain" and the first test it fails."""
    gap = row.change.median - row.parent.median
    if row.better == "lower":
        gap = -gap
    if row.pairs < 10:
        return f"no gain: {row.pairs} pairs, fewer than 10"
    if 10 * row.wins < 9 * row.pairs:
        return f"no gain: {row.wins}/{row.pairs} wins"
    if gap <= row.parent.q3 - row.parent.q1:
        return "no gain: median gap inside the parent's IQR"
    return "gain"


def regression(row: Row) -> str:
    """The no-regression rule on a row with a bound: "within bound", "worse by X >
    bound", or "unresolved" when the parent's spread is wider than the bound."""
    if row.parent_spread > row.bound and not row.beats_all:
        return "unresolved"
    worse = (row.change.median - row.parent.median) / row.parent.median
    if row.better == "higher":
        worse = -worse
    if worse > row.bound:
        return f"worse by {worse:.4f} > {row.bound}"
    return "within bound"


def format_quartiles(rows: list[Row]) -> str:
    """Each side's quartiles, the claim rule's verdict and, where the row has a
    bound, the no-regression rule's."""
    # 43 is the width of the longest verdict, "no gain: median gap inside the parent's IQR"
    bounded = any(row.bound is not None for row in rows)
    lines = [f"{'metric':<24} {'parent q1':>11} {'median':>11} {'q3':>11} "
             f"{'change q1':>11} {'median':>11} {'q3':>11}  "
             f"{'verdict':<43}  {'regression' if bounded else ''}"]
    for row in rows:
        sides = " ".join(f"{value:>11.6g}" for value in (*row.parent, *row.change))
        lines.append(f"{row.name:<24} {sides}  {verdict(row):<43}  "
                     f"{'' if row.bound is None else regression(row)}")
    return "\n".join(line.rstrip() for line in lines)


def record(workload: str, args: argparse.Namespace, seconds: int, rows: list[Row]) -> dict:
    """A workload's A/B result as one JSON-ready object: the runs' settings, then per
    metric each side's quartiles, the wins and both verdicts (regression is None for
    a metric without a bound)."""
    return {"workload": workload, "rev": args.rev,
            "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
            "pairs": args.pairs, "seconds": seconds,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE") or None,
            "metrics": {row.name: {"better": row.better, "ratio": row.ratio,
                                   "parent": list(row.parent), "change": list(row.change),
                                   "wins": row.wins, "pairs": row.pairs,
                                   "verdict": verdict(row),
                                   "regression": None if row.bound is None else regression(row)}
                        for row in rows}}


def unpack(rev: str, into: Path, *paths: str) -> str:
    """Extract `paths` of git revision rev (the whole tree if none) into `into` with
    `git archive`, and return rev's short commit hash, the name a record keeps."""
    commit = subprocess.run(["git", "rev-parse", "--verify", "--short", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, *paths], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"perfbench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """The command line; --workload takes one or more of BENCHMARK.json's workloads."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=901)
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload))  # each workload once, in order
    return args


def header(workload: str, args: argparse.Namespace, seconds: int) -> str:
    """The line above a workload's table: the runs' settings."""
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    return (f"workload {workload}, parent {args.rev}, {args.pairs} pairs from seed "
            f"{args.first_seed}, {seconds} s per run, PYTHONDONTWRITEBYTECODE={bytecode}")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [workload["name"] for workload in benchmark["workloads"]])

    seconds = benchmark["run_seconds"]
    tmp = Path(tempfile.mkdtemp(prefix="ab_bench_"))
    parent = tmp / "parent"
    pairs = {workload: [] for workload in args.workload}
    try:
        parent.mkdir()
        args.rev = unpack(args.rev, parent)
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.first_seed + i
                sides = [("parent", parent), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                outputs = {side: _run(checkout, workload, seed, seconds)
                           for side, checkout in sides}
                pairs[workload].append((outputs["parent"], outputs["change"]))
                verdicts = {side: result_of(out)["correct"] for side, out in outputs.items()}
                print(f"{workload} pair {i + 1}/{args.pairs}  seed {seed}  {sides[0][0]} first  "
                      f"correct: parent {verdicts['parent']}, change {verdicts['change']}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload, runs in pairs.items():
        print(header(workload, args, seconds))
        rows = summarize(runs, benchmark["end_to_end"])
        print(format_rows(rows))
        print(format_quartiles(rows))
        print(json.dumps(record(workload, args, seconds, rows)))
    correct = all(result_of(out)["correct"] for runs in pairs.values() for pair in runs
                  for out in pair)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
