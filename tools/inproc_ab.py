"""A/B of certify, membership, apply and orbit in process, and of the CLI in subprocesses:
the working tree against a parent.

Usage, from anywhere inside a git checkout of symbidisc:

    python3 tools/inproc_ab.py [--rev HEAD]

`src/symbidisc` of the parent revision is unpacked with `git archive` (ab_bench's
`unpack`) into a temporary directory, which is removed at the end, as the package
`symbidisc_parent`; every import inside `src/` is relative, so it loads beside the
working tree's `symbidisc` in the same interpreter. perfbench's `build_inputs(SEED)`
draws the inputs of five sections, and each side boxes them with its own package:
- certify: each side rebuilds, with its own `lift`, `make_moebius` and `apply_g2`, the
  maps perfbench certifies (each seeded element as a G2Automorphism and as a black
  box, and each injected shear) and calls `normalize_and_extract` on each;
- membership: perfbench's membership step body, `in_g2` and `in_sigma2`, on each of
  the first POINTS points of the member cloud, as the side's own SymPoints;
- apply: perfbench's apply step body, `apply_g2` and `apply_g2_via_roots` with the
  apply element rebuilt by the side's own `lift` and `make_moebius`, and the two
  images' discrepancy, on each of the first POINTS points of the apply cloud;
- orbit: perfbench's orbit step body, the package root's `orbit_sample` of
  `sizes.orbit_images` images for each orbit seed, of the base point and of the
  origin alternately, as in perfbench's `geometry_steps`;
- cli: one `python -m symbidisc` process for each of the first CLI_SCALAR argvs of
  perfbench's `cli_scalar` (every kind once, exit codes 0 to 4) and its first
  `cli_orbit` argv. Each side's package sources, without bytecode, are copied into a
  directory of their own as `symbidisc`, and each process starts there with
  PYTHONDONTWRITEBYTECODE=1: both sides compile their sources on every start, as a
  benchmark run in a fresh checkout with that setting does.

The script first checks, section by section, that both sides give the same output
for every input, by `float.hex` of every float in it (a report's every field; a
region, margin, flag and residual; both images and their discrepancy; every orbit
image), or the same exception type and message; for cli, by exit code and stdout. It
prints the number of outputs that differ in each section and, for certify, how far the
reports moved: the number of maps whose verdict (identity_certified, royal_ok) or
exception type changed and, for each numeric report field, the largest absolute
difference. If any output differs, it does not time and exits 1. So only a change
that keeps every output bit for bit is timed. The script runs on one CPU, as perfbench
does, and so do the cli section's processes. It then runs ROUNDS ABBA rounds: in
each, for each section in turn, one pass over all its inputs on each side, then each
side again in the reverse order, every pass timed with `time.thread_time` (CPU time
of this thread, unpaced, so another process on the machine slows neither side's
clock); cli takes part in the first CLI_ROUNDS rounds only, each pass timed by
the CPU time of the processes it waited for (RUSAGE_CHILDREN), interpreter start
included. The round ratio is the parent's time over the change's, above 1 when the
change is faster. For each section it prints each side's µs per call, the median and
quartiles of the round ratios and the rounds the change won, then the same as one JSON
line, which names the section and the parent by its short commit hash.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT_PACKAGE = "symbidisc_parent"
SEED = 11  # perfbench's build_inputs seed: 440 certify maps
POINTS = 10_000  # the leading points of the member and apply clouds
ROUNDS = 60
CLI_SCALAR = 8  # perfbench's cli_scalar draws each of its 8 kinds once, first
CLI_ROUNDS = 8  # each starts 36 interpreters, about 4 s

_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def unpack_parent(rev: str, into: Path) -> str:
    """Extract src/symbidisc of rev into `into` as the package PARENT_PACKAGE, and
    return rev's short commit hash."""
    commit = ab_bench.unpack(rev, into, "src/symbidisc")
    (into / "src" / "symbidisc").rename(into / PARENT_PACKAGE)
    return commit


def certify_maps(pkg, elements: list, injected: list) -> list:
    """perfbench's certify maps, built with pkg's own functions from (tau, a) and C."""
    apply_g2, SymPoint = pkg.apply_g2, pkg.SymPoint

    def lifted(tau, a):
        return pkg.lift(pkg.make_moebius(tau, a))

    maps = []
    for tau, a in elements:
        H = lifted(tau, a)
        maps += [H, lambda q, H=H: apply_g2(H, q)]
    for (tau, a), C in injected:
        H = lifted(tau, a)
        maps.append(lambda q, H=H, C=C: apply_g2(H, SymPoint(q.s, q.p + C * q.s * q.s)))
    return maps


def membership_step(pkg):
    """perfbench's membership step body on one point, with pkg's kernels: the whole
    verdict and royal test, so that margin and residual are compared too."""
    in_g2, in_sigma2 = pkg.in_g2, pkg.in_sigma2

    def step(pt):
        return in_g2(pt), in_sigma2(pt)
    return step


def apply_step(pkg, H):
    """perfbench's apply step body on one point, with pkg's kernels: both routes'
    images and their discrepancy, or the error that a route raised."""
    apply_g2, apply_g2_via_roots = pkg.apply_g2, pkg.apply_g2_via_roots

    def step(pt):
        try:
            a = apply_g2(H, pt)
            b = apply_g2_via_roots(H, pt)
            return a, b, max(abs(a.s - b.s), abs(a.p - b.p))
        except (ArithmeticError, ValueError) as exc:
            return exc
    return step


def orbit_step(pkg, count: int):
    """perfbench's orbit step body on one (point, seed), with pkg's package root's
    orbit_sample: all `count` images, so that each is compared, not only counted."""
    orbit_sample = pkg.orbit_sample

    def step(item):
        pt, seed = item
        return orbit_sample(pt, count, seed)
    return step


def cli_tree(package: Path, into: Path) -> Path:
    """Copy the package directory's sources, without bytecode, to into/symbidisc, and
    return `into`, where that side's `python -m symbidisc` starts."""
    shutil.copytree(package, into / "symbidisc", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def cli_step(tree: Path):
    """One `python -m symbidisc` process on an argv, started in `tree`, whose package it
    imports first, writing no bytecode: its (exit code, stdout)."""
    path = os.pathsep.join(filter(None, [str(tree), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path}

    def step(argv):
        proc = subprocess.run([sys.executable, "-m", "symbidisc", *argv], cwd=tree, env=env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout
    return step


def cli_argvs(inputs) -> list:
    return inputs.cli_scalar[:CLI_SCALAR] + inputs.cli_orbit[:1]


def sections(pkg, inputs) -> dict:
    """Each section's (call, inputs) for pkg, in the order they are checked and timed,
    the inputs boxed by pkg's own types."""
    elements = [(H.h.tau, H.h.a) for H in inputs.genuine]
    injected = [((H.h.tau, H.h.a), C) for H, C in inputs.injected]
    h = inputs.apply_element.h
    H = pkg.lift(pkg.make_moebius(h.tau, h.a))

    SymPoint = pkg.SymPoint
    base, origin = SymPoint(inputs.base_point.s, inputs.base_point.p), SymPoint(0j, 0j)
    orbits = [(origin if i % 2 else base, seed) for i, seed in enumerate(inputs.orbit_seeds)]

    def points(cloud):
        return [SymPoint(pt.s, pt.p) for pt in cloud[:POINTS]]
    return {"certify": (pkg.normalize_and_extract, certify_maps(pkg, elements, injected)),
            "membership": (membership_step(pkg), points(inputs.member_cloud)),
            "apply": (apply_step(pkg, H), points(inputs.apply_cloud)),
            "orbit": (orbit_step(pkg, inputs.sizes.orbit_images), orbits)}


def fingerprint(value):
    """A report, an orbit's images, or any part of either, with every float replaced by
    its float.hex; an exception as its type name and message."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if dataclasses.is_dataclass(value):
        return {f.name: fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return tuple(map(fingerprint, value))
    if isinstance(value, bool):
        return value
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def result(call, item):
    """call's output on item (certify's report on a map), or the exception it raised."""
    try:
        return call(item)
    except Exception as exc:  # the same failure on both sides counts as agreement
        return exc


def verdict(result) -> tuple:
    """A report's (identity_certified, royal_ok), or an exception's type name."""
    if isinstance(result, Exception):
        return (type(result).__name__,)
    return result.identity_certified, result.royal_ok


def drift(parent: list, change: list) -> dict:
    """How far the change's results moved from the parent's, map by map: the number of
    maps whose verdict or exception type changed, and for each numeric report field the
    largest absolute difference over the maps that gave a report on both sides."""
    largest = {}
    for a, b in zip(parent, change, strict=True):
        if isinstance(a, Exception) or isinstance(b, Exception):
            continue
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if not isinstance(x, bool):
                pairs = zip(x, y) if isinstance(x, tuple) else [(x, y)]
                largest[field.name] = max(largest.get(field.name, 0.0),
                                          *(abs(u - v) for u, v in pairs))
    changed = sum(verdict(a) != verdict(b) for a, b in zip(parent, change))
    return {"verdicts_changed": changed, "largest_difference": largest}


def format_drift(moved: dict) -> str:
    fields = ", ".join(f"{name} {diff:.3g}" for name, diff in moved["largest_difference"].items())
    return (f"{moved['verdicts_changed']} maps changed verdict or exception type; "
            f"largest |change - parent| per field: {fields or 'no map gave a report on both sides'}")


def timed_pass(call, items: list, clock=time.thread_time) -> float:
    """`clock` seconds, thread CPU by default, of one call per item."""
    gc.collect()
    start = clock()
    for item in items:
        call(item)
    return clock() - start


def summarize(parent: list[float], change: list[float], calls: int) -> dict:
    """Per-call µs of each side (all its time over all its calls) and the round ratios'
    median and exclusive quartiles, from per-round times; `calls` is the number of
    calls behind one round's time of one side. A round is a win for the change
    when its ratio parent/change is above 1."""
    ratios = [p / c for p, c in zip(parent, change, strict=True)]
    q1, median, q3 = ab_bench.quartiles(ratios)
    return {"rounds": len(ratios), "calls_per_round": calls,
            "parent_us": 1e6 * sum(parent) / (calls * len(parent)),
            "change_us": 1e6 * sum(change) / (calls * len(change)),
            "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
            "wins": sum(ratio > 1.0 for ratio in ratios)}


def format_summary(summary: dict) -> str:
    return (f"parent {summary['parent_us']:.2f} us/call, change {summary['change_us']:.2f} us/call; "
            f"parent/change per round: median x{summary['ratio_median']:.4f}, quartiles "
            f"{summary['ratio_q1']:.4f}-{summary['ratio_q3']:.4f}; change faster in "
            f"{summary['wins']}/{summary['rounds']} rounds")


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the parent revision (default HEAD)")
    return parser.parse_args(argv)


def compare(rev: str, parent_pkg, change_pkg, trees: tuple[Path, Path] | None = None) -> int:
    """Check both packages' outputs on SEED's inputs, section by section, then time
    every section in ABBA rounds; the cli section runs when `trees`, the parent's and
    the change's cli_tree, are given."""
    inputs = importlib.import_module("workload_inputs").build_inputs(SEED)
    sides = {name: sections(pkg, inputs)
             for name, pkg in (("parent", parent_pkg), ("change", change_pkg))}
    for name, tree in zip(sides, trees or ()):
        sides[name]["cli"] = (cli_step(tree), cli_argvs(inputs))

    print(f"rev {rev}, seed {SEED}")
    differing = 0
    for section in sides["change"]:
        (parent, parent_items), (change, change_items) = (sides[name][section] for name in sides)
        before = [result(parent, item) for item in parent_items]
        after = [result(change, item) for item in change_items]
        differ = sum(fingerprint(a) != fingerprint(b) for a, b in zip(before, after, strict=True))
        by = "exit code and stdout" if section == "cli" else "float.hex"
        print(f"{section}: {len(change_items)} inputs, {differ} outputs differ by {by}")
        if differ and section == "certify":
            print(format_drift(drift(before, after)))
        differing += differ
    if differing:
        return 1

    child_cpu = importlib.import_module("sections").child_cpu  # perfbench's, RUSAGE_CHILDREN
    times = {section: {name: [] for name in sides} for section in sides["change"]}
    for i in range(ROUNDS):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for section in times:
            if section == "cli" and i >= CLI_ROUNDS:
                continue
            clock = child_cpu if section == "cli" else time.thread_time
            spent = dict.fromkeys(sides, 0.0)
            for name in order + order[::-1]:
                spent[name] += timed_pass(*sides[name][section], clock)
            for name in sides:
                times[section][name].append(spent[name])
    for section in times:
        calls = 2 * len(sides["change"][section][1])
        summary = summarize(times[section]["parent"], times[section]["change"], calls)
        print(f"{section}: {format_summary(summary)}")
        print(json.dumps({"rev": rev, "seed": SEED, "section": section, **summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # as perfbench's pin_to_one_cpu: every pass, and the cli section's children, on one
    # CPU, whose speed both sides then share
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="inproc_ab_") as tmp:
        tmp = Path(tmp)
        rev = unpack_parent(args.rev, tmp)
        trees = (cli_tree(tmp / PARENT_PACKAGE, tmp / "parent"),
                 cli_tree(ROOT / "src" / "symbidisc", tmp / "change"))
        sys.path[:0] = [str(tmp), str(ROOT / "src"), str(ROOT / "perfbench")]
        packages = map(importlib.import_module, (PARENT_PACKAGE, "symbidisc"))
        return compare(rev, *packages, trees)


if __name__ == "__main__":
    sys.exit(main())
