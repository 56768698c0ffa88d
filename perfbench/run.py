"""symbidisc benchmark: seeded workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {geometry,certify,cli} --seed N --seconds S --trace {0,1}

With --trace 0 a run measures the end-to-end metrics; with --trace 1 it makes the
outside-in traced run and reports the per-layer metrics. Every run checks every
operation, prints a table, the machine facts, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. The library is imported from
`src/` of the checkout, as the test suite does; nothing is installed.

Each run measures all three sections, because every end-to-end metric is reported
on every workload. The sections the workload does not name run only the steps
their metrics need; the named section fills the rest of the run.

Timings are CPU times read at a reference pace: fixed kernels of the benchmark's
own run between every two steps, and each step's CPU time is scaled by how much
slower than their reference time they ran just before and after it (`pace.py`).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()  # the run's budget of --seconds counts from here
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"  # per-call samples and spans, for inspection after a run
WORKLOADS = ("geometry", "certify", "cli")
NPROC = len(os.sched_getaffinity(0))  # CPUs this process may use, before it pins itself
# A timed run lasts until END_MARGIN_S, kept for the report, before --seconds have
# passed since the start. The sections the workload does not name run FLOOR_PASSES
# passes over the run, and a fresh interpreter measures set-up SETUP_PROBES times;
# each of these keeps up with the clock, one step at a time between steps of the
# named section, which fills all the rest. So every metric samples the whole run.
END_MARGIN_S = 0.5
SETUP_PROBES = 7
# A geometry pass is 50 orbit calls and 50 chunks each of apply and membership; a
# certify pass 440 calls; a cli pass 50 scalar and 10 orbit invocations.
FLOOR_PASSES = {"geometry": 1.0, "certify": 0.5, "cli": 1.0}
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
FLOOR_PROBES = 7  # fresh interpreters timed per start-up floor of the traced run
# A set-up probe times the pace kernels itself, just before importing symbidisc
# and just after building the inputs, and prints their mean.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import json, pace; before = pace.measure(); "
               "import symbidisc, workload_inputs; workload_inputs.build_inputs(int(sys.argv[3])); "
               "print(json.dumps(pace.mean(before, pace.measure())))")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    facts = {"python": platform.python_version(), "numpy": np.__version__,
             "cpu_count": os.cpu_count(), "nproc": NPROC,
             "cpu_model": None, "caches": {},
             "tuning": "the run pins itself and its children to one CPU; no frequency-governor "
                       "or huge-page change was made, and the machine may be shared, which "
                       "limits comparisons across runs"}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / k).read_text().strip() for k in ("level", "type", "size"))
            facts["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    except OSError:
        pass
    return facts


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so a step and the pace
    kernel timed around it share that CPU's speed."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _child_cpu_s(cmd: list, env: dict) -> tuple:
    """CPU seconds of a subprocess, and its stdout."""
    import sections as sec

    t0 = sec.child_cpu()
    proc = subprocess.run(cmd, check=True, capture_output=True, env=env, cwd=ROOT,
                          timeout=sec.SUBPROCESS_TIMEOUT_S)
    return sec.child_cpu() - t0, proc.stdout


def _median_child_cpu(cmd: list, n: int, env: dict) -> float:
    return statistics.median(_child_cpu_s(cmd, env)[0] for _ in range(n))


def _percentile(samples: list, q: int, min_beyond: int = 0) -> float:
    """The q-th percentile, refused unless at least min_beyond samples lie above it."""
    need = max(1, math.ceil(min_beyond * 100 / (100 - q)))
    if len(samples) < need:
        raise RuntimeError(f"p{q} needs {need} samples, got {len(samples)}")
    if len(samples) == 1:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=100, method="inclusive")[q - 1])


def end_to_end_metrics(rec, min_beyond: int = MIN_BEYOND) -> dict:
    import pace

    s = {key: pace.at_pace(key, rec.samples[key], rec.paces[key]) for key in rec.samples}
    return {
        "orbit_pts_per_s": (statistics.median(s["orbit"]), "1/s"),
        "apply_pts_per_s": (statistics.median(s["apply"]), "1/s"),
        "membership_pts_per_s": (statistics.median(s["membership"]), "1/s"),
        "certify_ms_p50": (statistics.median(s["certify"]), "ms"),
        "certify_ms_p90": (_percentile(s["certify"], 90, min_beyond), "ms"),
        "cli_ms_p50": (statistics.median(s["cli"]), "ms"),
        "cli_ms_p80": (_percentile(s["cli"], 80, min_beyond), "ms"),
        "cli_orbit_ms_p50": (statistics.median(s["cli_orbit"]), "ms"),
        "setup_s": (statistics.median(s["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _freeze_inputs() -> None:
    """Move the long-lived inputs out of the collector's view, so that full
    collections triggered by the library do not rescan the input clouds."""
    gc.collect()
    gc.freeze()


def timed_run(args, env: dict, sizes=None, min_beyond: int = MIN_BEYOND) -> tuple:
    import pace
    import sections as sec
    from workload_inputs import FULL, WARM_UP, build_inputs

    inp = build_inputs(args.seed, sizes or FULL)
    warm = build_inputs(args.seed, WARM_UP)
    expected = {**sec.expected_cli(inp), **sec.expected_cli(warm)}
    _freeze_inputs()
    for steps in _section_steps(sec, warm, sec.Record(), expected, env).values():
        sec.run_steps(steps)

    rec = sec.Record()
    steps = _section_steps(sec, inp, rec, expected, env)
    streams = {name: itertools.cycle(s) for name, s in steps.items()}
    probe = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), str(args.seed)]

    def set_up():
        cpu, out = _child_cpu_s(probe, env)
        rec.sample("setup", cpu, pace=json.loads(out))

    streams["setup"] = itertools.repeat(set_up)
    need = {name: round(FLOOR_PASSES[name] * len(s)) for name, s in steps.items()
            if name != args.workload}
    need["setup"] = SETUP_PROBES
    done = dict.fromkeys(need, 0)
    wall = dict.fromkeys(streams, 0.0)

    last_pace = [pace.measure()]

    def run_one(name):
        t0 = time.perf_counter()
        next(streams[name])()
        wall[name] += time.perf_counter() - t0
        now = pace.measure()
        rec.tag(pace.mean(last_pace[0], now))
        last_pace[0] = now

    def keep_up(progress):
        for name, n in need.items():
            while done[name] < math.ceil(progress * n):
                run_one(name)
                done[name] += 1

    start = time.perf_counter()
    length = max(T0 + args.seconds - END_MARGIN_S - start, 1e-9)
    while True:
        run_one(args.workload)
        progress = min(1.0, (time.perf_counter() - start) / length)
        keep_up(progress)
        if progress == 1.0:
            break
    total = time.perf_counter() - start
    OUT.mkdir(exist_ok=True)
    (OUT / f"samples-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"samples": rec.samples, "paces": rec.paces}))
    shares = {name: w / total for name, w in wall.items()}
    return rec, end_to_end_metrics(rec, min_beyond), shares


def _section_steps(sec, inp, rec, expected: dict, env: dict) -> dict:
    return {"geometry": sec.geometry_steps(inp, rec), "certify": sec.certify_steps(inp, rec),
            "cli": sec.cli_steps(inp, rec, expected, env, str(ROOT))}


def _importtime_numpy_ms(env: dict) -> float:
    import sections as sec

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import symbidisc.cli"],
                          check=True, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=sec.SUBPROCESS_TIMEOUT_S)
    for line in proc.stderr.splitlines():  # "import time: self | cumulative | name"
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "numpy":
            return int(fields[1]) / 1000.0
    return 0.0  # numpy was not imported


def traced_run(args, env: dict, sizes=None) -> tuple:
    import layers
    import sections as sec
    import symbidisc.proof_lab as pl
    from tracer import Tracer
    from workload_inputs import TRACED, WARM_UP, build_inputs

    inp = build_inputs(args.seed, sizes or TRACED)
    warm = build_inputs(args.seed, WARM_UP)
    expected = {**sec.expected_cli(inp), **sec.expected_cli(warm)}
    _freeze_inputs()

    def run_sections(data, rec):
        for steps in (sec.geometry_steps(data, rec), sec.certify_steps(data, rec),
                      sec.cli_main_steps(data, rec, expected)):
            sec.run_steps(steps)

    run_sections(warm, sec.Record())
    plain = sec.Record()
    run_sections(inp, plain)
    orbit_direct_ms = []
    for argv in inp.cli_orbit:
        t0 = sec.clock()
        pl.orbit_sample(sec.sympoint_arg(argv[1]), inp.sizes.cli_orbit_samples,
                        int(argv[argv.index("--seed") + 1]))
        orbit_direct_ms.append((sec.clock() - t0) * 1e3)

    tracer = Tracer()
    traced = sec.Record(tracer)
    tracer.install(layers.TRACED_FUNCTIONS)
    try:
        run_sections(inp, traced)
    finally:
        tracer.uninstall()
    again = sec.Record()  # untraced once more, so that drift over the run cancels
    run_sections(inp, again)
    untraced_s = {k: (plain.section_s[k] + again.section_s[k]) / 2 for k in plain.section_s}
    table = tracer.table()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz", table)

    interpreter_ms = _median_child_cpu([sys.executable, "-c", "pass"], FLOOR_PROBES, env) * 1e3
    import_ms = _median_child_cpu([sys.executable, "-c", "import symbidisc.cli"], FLOOR_PROBES, env) * 1e3
    floors = {"interpreter_ms": interpreter_ms, "import_ms": import_ms - interpreter_ms,
              "import_numpy_ms": statistics.median(_importtime_numpy_ms(env) for _ in range(3))}
    metrics = layers.per_layer_metrics(tracer, table, plain, traced.section_s, untraced_s, floors,
                                       orbit_direct_ms, inp.sizes.cli_orbit_samples)
    return _merge(_merge(plain, traced), again), metrics, tracer.absent


def _merge(a, b):
    a.attempted.update(b.attempted)
    a.failed.update(b.failed)
    a.refused.update(b.refused)
    return a


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "symbidisc" / "__init__.py").is_file():
        print(f"error: no symbidisc package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import sections as sec

    env = sec.cli_env(str(SRC))
    pin_to_one_cpu()
    if args.trace:
        rec, metrics, absent = traced_run(args, env)
    else:
        rec, metrics, shares = timed_run(args, env)

    print(f"symbidisc benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("machine " + json.dumps(machine_facts()))
    if not args.trace:
        print("  share of the timed wall time  " +
              "  ".join(f"{name} {share:.2f}" for name, share in shares.items()))
    for kind in sorted(rec.attempted):
        print(f"  ops  {kind:<22} attempted {rec.attempted[kind]:>9}  failed {rec.failed[kind]:>6}")
    for kind in ("g2", "blackbox"):
        print(f"  left uncertified (genuine, ROADMAP item 3)  {kind:<9} {rec.refused[kind]:>6}"
              f" of {rec.attempted['certify.' + kind]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g}  {unit}")
    if args.trace and absent:
        print("absent (reported as 0): " + ", ".join(absent))
    result = {
        "correct": sum(rec.failed.values()) == 0,
        "attempted": sum(rec.attempted.values()),
        "failed": sum(rec.failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
