"""The measured work of a run: the geometry, certify and cli sections.

Each pass function runs one pass of a section over the seeded inputs, times it,
checks every output with `oracles`, and adds its counts to a `Record`. Calls into
the library go through module attributes (`g2.apply_g2`, never a name imported
from the module), so the traced run can replace them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import symbidisc.cli as cli
import symbidisc.errors as errors
import symbidisc.g2_group as g2
import symbidisc.jsonio as jsonio
import symbidisc.proof_lab as pl
import symbidisc.sym_geometry as sg

import oracles
from workload_inputs import BlackBox, Inputs, injected_map

# Steps are timed in CPU time of the process that does the work: this thread for
# in-process steps, the child for a subprocess. So the time the host takes a CPU
# away from the benchmark does not count.
clock = time.thread_time


def child_cpu() -> float:
    """User plus system CPU seconds of all children waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# Section of each sub-load; a root span is named "<sub-load>" or "<sub-load>.<detail>".
SECTION = {"orbit": "geometry", "apply": "geometry", "membership": "geometry",
           "certify": "certify", "cli": "cli"}
# Exit codes documented by the CLI.
REGION_EXIT = {"interior": 0, "boundary": 1, "exterior": 2}
EXIT_NOT_ROYAL = 3
EXIT_BOUND_VIOLATED = 4
CSV_HEADER = "re_s,im_s,re_p,im_p,sigma2_residual"
SUBPROCESS_TIMEOUT_S = 60


class Record:
    """Counts, timing samples and certify outcomes of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()  # wrong answers and calls that raised
        # genuine elements the pipeline declined to certify (ROADMAP item 3): an
        # inconclusive answer, not a wrong one, reported by the certified ratios
        self.refused: Counter = Counter()
        # per-step samples: points per second of a geometry step, ms of a call;
        # paces[key][i] is the reference pace measured around samples[key][i]
        self.samples: defaultdict = defaultdict(list)
        self.paces: defaultdict = defaultdict(list)
        self._untagged: list = []
        self.section_s: Counter = Counter()  # seconds spent inside root spans, per section
        self.certified: Counter = Counter()
        self.deviation_max = 0.0  # largest identity deviation of a black-box report
        self.blackbox_evals: list = []

    @contextlib.contextmanager
    def root(self, name: str, ops: int):
        t0 = clock()
        with self.tracer.root(name, ops) if self.tracer else contextlib.nullcontext():
            yield
        self.section_s[SECTION[name.split(".")[0]]] += clock() - t0

    def count(self, kind: str, attempted: int, failed: int) -> None:
        self.attempted[kind] += attempted
        self.failed[kind] += failed

    def sample(self, key: str, value: float, pace: dict | None = None) -> None:
        """Add a sample; without its own pace it takes the next `tag`."""
        self.samples[key].append(value)
        if pace is None:
            self._untagged.append(key)
        else:
            self.paces[key].append(pace)

    def tag(self, pace: float) -> None:
        """Attach a reference pace to every sample taken since the last tag."""
        for key in self._untagged:
            self.paces[key].append(pace)
        self._untagged.clear()


def interleave(lists: list) -> list:
    """Merge lists so that each one's items are spread evenly over the result."""
    keyed = [((i + 0.5) / len(items), k, item)
             for k, items in enumerate(lists) for i, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda e: e[:2])]


def _ranges(n: int, parts: int) -> list:
    step = max(1, math.ceil(n / parts))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


# ---------------------------------------------------------------------------
# geometry: many group elements on one point, one element on many points, verdicts.
# A step is one orbit_sample call or one chunk of a cloud; each checks its outputs.
# ---------------------------------------------------------------------------

def _orbit_step(rec: Record, pt: sg.SymPoint, n: int, seed: int, royal: bool):
    def step():
        with rec.root("orbit", n):
            t0 = clock()
            try:
                images = pl.orbit_sample(pt, n, seed)
            except (ArithmeticError, ValueError):
                images = []  # every image counts as failed
            dt = clock() - t0
        rec.sample("orbit", n / dt)
        s = np.array([q.s for q in images], dtype=complex)
        p = np.array([q.p for q in images], dtype=complex)
        rec.count("orbit", n, abs(n - len(images)) + oracles.check_orbit(s, p, royal))
    return step


def _apply_step(rec: Record, H: g2.G2Automorphism, chunk: list):
    def step():
        discrepancy = []
        with rec.root("apply", len(chunk)):
            t0 = clock()
            for pt in chunk:
                try:
                    a = g2.apply_g2(H, pt)
                    b = g2.apply_g2_via_roots(H, pt)
                    discrepancy.append(max(abs(a.s - b.s), abs(a.p - b.p)))
                except (ArithmeticError, ValueError):
                    discrepancy.append(math.inf)
            dt = clock() - t0
        rec.sample("apply", len(chunk) / dt)
        rec.count("apply", len(chunk), oracles.check_routes(discrepancy))
    return step


def _membership_step(rec: Record, chunk: list, lam1: np.ndarray, lam2: np.ndarray):
    def step():
        region, royal = [], []
        with rec.root("membership", len(chunk)):
            t0 = clock()
            for pt in chunk:
                region.append(sg.in_g2(pt).region)
                royal.append(sg.in_sigma2(pt)[0])
            dt = clock() - t0
        rec.sample("membership", len(chunk) / dt)
        s = np.array([pt.s for pt in chunk], dtype=complex)
        p = np.array([pt.p for pt in chunk], dtype=complex)
        failed = oracles.check_membership(s, p, lam1, lam2, np.array(region), np.array(royal))
        rec.count("membership", 2 * len(chunk), failed)
    return step


def geometry_steps(inp: Inputs, rec: Record) -> list:
    n = inp.sizes.orbit_images
    origin = sg.SymPoint(0j, 0j)
    orbit = [_orbit_step(rec, origin, n, seed, True) if i % 2 else
             _orbit_step(rec, inp.base_point, n, seed, False)
             for i, seed in enumerate(inp.orbit_seeds)]
    apply = [_apply_step(rec, inp.apply_element, inp.apply_cloud[lo:hi])
             for lo, hi in _ranges(len(inp.apply_cloud), inp.sizes.chunks)]
    lam1, lam2 = inp.member_roots
    member = [_membership_step(rec, inp.member_cloud[lo:hi], lam1[lo:hi], lam2[lo:hi])
              for lo, hi in _ranges(len(inp.member_cloud), inp.sizes.chunks)]
    return interleave([orbit, apply, member])


# ---------------------------------------------------------------------------
# certify: the forcing pipeline on genuine elements, black boxes and injected maps.
# A step is one normalize_and_extract call.
# ---------------------------------------------------------------------------

def _certify_step(rec: Record, kind: str, make_map):
    def step():
        fn = make_map()
        with rec.root("certify." + kind, 1):
            t0 = clock()
            try:
                report = pl.normalize_and_extract(fn)
            except (ArithmeticError, ValueError):
                report = None
            dt = clock() - t0
        rec.sample("certify", dt * 1e3)
        certified = report is not None and report.identity_certified
        rec.count("certify." + kind, 1, int(oracles.check_certify(kind, report is None, certified)))
        rec.refused[kind] += report is not None and not certified and kind != "injected"
        rec.certified[kind] += certified
        if kind == "blackbox":
            rec.blackbox_evals.append(fn.evals)
            if report is not None:
                rec.deviation_max = max(rec.deviation_max, report.identity_deviation)
    return step


def certify_steps(inp: Inputs, rec: Record) -> list:
    genuine = []
    for H in inp.genuine:
        genuine += [_certify_step(rec, "g2", lambda H=H: H),
                    _certify_step(rec, "blackbox", lambda H=H: BlackBox(H))]
    injected = [_certify_step(rec, "injected", lambda H=H, C=C: injected_map(H, C))
                for H, C in inp.injected]
    return interleave([genuine, injected])


# ---------------------------------------------------------------------------
# cli: one client, one `python -m symbidisc` subprocess at a time
# ---------------------------------------------------------------------------

def sympoint_arg(text: str) -> sg.SymPoint:
    return jsonio.sympoint_from_json(json.loads(text))


def _expected_one(argv: list) -> tuple[int, bytes]:
    """Exit code and stdout of one invocation, from the library in process."""
    cmd = argv[0]
    if cmd == "membership":
        pt = sympoint_arg(argv[1])
        verdict = sg.in_g2(pt)
        _, residual = sg.in_sigma2(pt)
        out = jsonio.verdict_to_json(verdict)
        out["sigma2_residual"] = residual
        code, text = REGION_EXIT[verdict.region], jsonio.dumps(out) + "\n"
    elif cmd == "apply":
        H = jsonio.g2_from_json(json.loads(argv[1]))
        pt = sympoint_arg(argv[2])
        image, via = g2.apply_g2(H, pt), g2.apply_g2_via_roots(H, pt)
        out = jsonio.sympoint_to_json(image)
        out["check"] = max(abs(image.s - via.s), abs(image.p - via.p))
        code, text = 0, jsonio.dumps(out) + "\n"
    elif cmd == "transport":
        pt = sympoint_arg(argv[1])
        try:
            code, text = 0, jsonio.dumps(jsonio.g2_to_json(g2.transport_to_origin(pt))) + "\n"
        except errors.NotOnRoyalVariety:
            code, text = EXIT_NOT_ROYAL, ""
    elif cmd == "commutator":
        F = jsonio.candidate_from_json(json.loads(argv[1]))
        tau = jsonio.complex_from_json(json.loads(argv[argv.index("--tau") + 1]))
        report = pl.commutator_experiment(F, tau, int(argv[argv.index("--n-max") + 1]))
        code = 0 if report.n_star is None else EXIT_BOUND_VIOLATED
        text = jsonio.dumps(jsonio.report_to_json(report)) + "\n"
    elif cmd == "orbit":
        pt = sympoint_arg(argv[1])
        images = pl.orbit_sample(pt, int(argv[argv.index("--samples") + 1]),
                                 int(argv[argv.index("--seed") + 1]))
        rows = [CSV_HEADER]
        for q in images:
            _, residual = sg.in_sigma2(q)
            rows.append(",".join(f"{x:.17g}" for x in
                                 (q.s.real, q.s.imag, q.p.real, q.p.imag, residual)))
        code, text = 0, "\n".join(rows) + "\n"
    else:
        raise ValueError(f"no expectation for subcommand {cmd!r}")
    return code, text.encode()


def expected_cli(inp: Inputs) -> dict:
    return {tuple(argv): _expected_one(argv) for argv in inp.cli_scalar + inp.cli_orbit}


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _invoke_step(rec: Record, argv: list, key: str, expected: dict, env: dict, cwd: str):
    def step():
        t0 = child_cpu()
        proc = subprocess.run([sys.executable, "-m", "symbidisc", *argv], capture_output=True,
                              env=env, cwd=cwd, timeout=SUBPROCESS_TIMEOUT_S)
        rec.sample(key, (child_cpu() - t0) * 1e3)
        rec.count(key, 1, int((proc.returncode, proc.stdout) != expected[tuple(argv)]))
    return step


def cli_steps(inp: Inputs, rec: Record, expected: dict, env: dict, cwd: str) -> list:
    """One `python -m symbidisc` subprocess per step, run to completion before the next."""
    return interleave([[_invoke_step(rec, argv, "cli", expected, env, cwd) for argv in inp.cli_scalar],
                       [_invoke_step(rec, argv, "cli_orbit", expected, env, cwd) for argv in inp.cli_orbit]])


def _main_step(rec: Record, argv: list, expected: dict):
    def step():
        out, err = io.StringIO(), io.StringIO()
        with rec.root("cli." + argv[0], 1):
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            dt = clock() - t0
        rec.sample("main." + argv[0], dt * 1e3)
        rec.count("cli_main", 1, int((code, out.getvalue().encode()) != expected[tuple(argv)]))
    return step


def cli_main_steps(inp: Inputs, rec: Record, expected: dict) -> list:
    """The cli invocations through `cli.main(argv)` in process, stdout captured."""
    return [_main_step(rec, argv, expected) for argv in inp.cli_scalar + inp.cli_orbit]


def run_steps(steps: list) -> None:
    for step in steps:
        step()
