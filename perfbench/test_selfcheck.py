"""Tiny-size self-check of the benchmark; it makes no timing assertions.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

It checks that a timed run and a traced run emit every metric BENCHMARK.json
names, and that the correctness checks catch deliberately wrong results, fed to
them here through replaced module attributes, never by changing `src/`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import symbidisc.g2_group as g2  # noqa: E402
import symbidisc.proof_lab as pl  # noqa: E402
import symbidisc.sym_geometry as sg  # noqa: E402

import oracles  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import sections as sec  # noqa: E402
from tracer import Tracer  # noqa: E402
from workload_inputs import WARM_UP, build_inputs  # noqa: E402

TINY = replace(WARM_UP, cli_scalar=8)  # every scalar exit-code path once
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny():
    return build_inputs(7, TINY)


@pytest.fixture(scope="module")
def env():
    return sec.cli_env(str(run.SRC))


def _names(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


def test_timed_run_emits_every_end_to_end_metric(env):
    # the sections the workload does not name run a whole tiny pass each
    args = SimpleNamespace(workload="certify", seed=7, seconds=0.0)
    rec, metrics, shares = run.timed_run(args, env, sizes=TINY, min_beyond=0)
    assert set(shares) == {"geometry", "certify", "cli", "setup"}
    assert set(metrics) == _names("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert sum(rec.failed.values()) == 0 and sum(rec.attempted.values()) > 0
    assert all(len(rec.paces[key]) == len(rec.samples[key]) for key in rec.samples)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_traced_run_emits_every_per_layer_metric(env):
    args = SimpleNamespace(workload="certify", seed=7, seconds=0.0)
    rec, metrics, absent = run.traced_run(args, env, sizes=TINY)
    assert set(metrics) == _names("per_layer")
    assert absent == []
    assert sum(rec.failed.values()) == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == units


def test_at_pace_scales_by_the_kernel_slowdown():
    slow = {name: 2 * ref for name, ref in pace.REF_S.items()}
    assert pace.at_pace("certify", [4.0], [slow]) == [2.0]  # a time at half speed
    assert pace.at_pace("orbit", [1000.0], [slow]) == [2000.0]  # a rate at half speed
    mixed = {"arith": 4 * pace.REF_S["arith"], "object": pace.REF_S["object"]}
    assert pace.at_pace("setup", [1.0], [mixed]) == [0.5]  # geometric mean of 4x and 1x


def test_cli_mix_covers_exit_codes_0_to_4(tiny):
    codes = {code for code, _ in sec.expected_cli(tiny).values()}
    assert codes == {0, 1, 2, 3, 4}


def test_orbit_check_catches_wrong_images():
    lam = np.array([0.3 + 0.1j, -0.5j])
    s, p = 2 * lam, lam * lam
    assert oracles.check_orbit(s, p, royal=True) == 0
    assert oracles.check_orbit(s, p + np.array([1e-6, 0]), royal=True) == 1  # off the royal variety
    assert oracles.check_orbit(s, p, royal=False) == 2  # a non-royal orbit landed on it
    assert oracles.check_orbit(np.array([3.0 + 0j]), np.array([0j]), royal=False) == 1  # exterior


def test_apply_check_catches_a_wrong_route(tiny, monkeypatch):
    real = g2.apply_g2
    monkeypatch.setattr(g2, "apply_g2", lambda H, pt: sg.SymPoint(real(H, pt).s + 1e-9, real(H, pt).p))
    rec = sec.Record()
    sec.run_steps(sec.geometry_steps(tiny, rec))
    assert rec.failed["apply"] == len(tiny.apply_cloud)


def test_membership_check_catches_wrong_verdicts(tiny, monkeypatch):
    rec = sec.Record()
    sec.run_steps(sec.geometry_steps(tiny, rec))
    assert rec.failed["membership"] == 0
    monkeypatch.setattr(sg, "in_g2", lambda pt: sg.MembershipVerdict("interior", 0.5))
    monkeypatch.setattr(sg, "in_sigma2", lambda pt: (True, 0.0))
    rec = sec.Record()
    sec.run_steps(sec.geometry_steps(tiny, rec))
    assert rec.failed["membership"] > len(tiny.member_cloud) // 2


def test_membership_check_does_not_trust_the_library_margin(tiny, monkeypatch):
    # a kernel that calls every point a boundary point with zero margin
    monkeypatch.setattr(sg, "in_g2", lambda pt: sg.MembershipVerdict("boundary", 0.0))
    rec = sec.Record()
    sec.run_steps(sec.geometry_steps(tiny, rec))
    assert rec.failed["membership"] > len(tiny.member_cloud) // 2


def test_certify_check_catches_a_false_certificate(tiny, monkeypatch):
    real = pl.normalize_and_extract
    monkeypatch.setattr(pl, "normalize_and_extract",
                        lambda fn: replace(real(fn), identity_certified=True))
    rec = sec.Record()
    sec.run_steps(sec.certify_steps(tiny, rec))
    assert rec.failed["certify.injected"] == len(tiny.injected)
    assert sum(rec.failed.values()) == len(tiny.injected)


def test_certify_counts_refusals_apart_from_failures(tiny, monkeypatch):
    real = pl.normalize_and_extract
    monkeypatch.setattr(pl, "normalize_and_extract",
                        lambda fn: replace(real(fn), identity_certified=False))
    rec = sec.Record()
    sec.run_steps(sec.certify_steps(tiny, rec))
    assert rec.refused["g2"] == rec.refused["blackbox"] == len(tiny.genuine)
    assert rec.refused["injected"] == 0 and sum(rec.failed.values()) == 0


def test_certify_check_catches_a_call_that_raises(tiny, monkeypatch):
    monkeypatch.setattr(pl, "normalize_and_extract", lambda fn: (_ for _ in ()).throw(ValueError))
    rec = sec.Record()
    sec.run_steps(sec.certify_steps(tiny, rec))
    assert sum(rec.failed.values()) == 2 * len(tiny.genuine) + len(tiny.injected)


def test_cli_check_catches_a_wrong_stdout(tiny, env):
    expected = sec.expected_cli(tiny)
    argv = tuple(tiny.cli_scalar[0])
    code, out = expected[argv]
    expected[argv] = (code, out + b" ")
    rec = sec.Record()
    sec.run_steps(sec.cli_steps(tiny, rec, expected, env, str(run.ROOT)))
    assert rec.failed["cli"] == 1 and rec.failed["cli_orbit"] == 0


def test_tracer_self_time_and_absent_functions():
    tracer = Tracer()
    tracer.install(("proof_lab.orbit_sample", "g2_group.apply_g2", "proof_lab.no_such_function"))
    try:
        with tracer.root("orbit", 3):
            pl.orbit_sample(sg.SymPoint(0j, 0j), 3, 1)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["proof_lab.no_such_function"]
    assert pl.orbit_sample.__name__ == "orbit_sample"  # restored
    table = tracer.table()
    names = [tracer.names[i] for i in table["name"]]
    assert names.count("g2_group.apply_g2") == 3
    orbit = names.index("proof_lab.orbit_sample")
    children = table["parent"] == orbit
    assert table["self"][orbit] == table["duration"][orbit] - table["duration"][children].sum()
    assert (table["root"] == 0).all()
