"""Seeded inputs for the three benchmark sections.

Everything the library receives is built here from the benchmark seed with the
benchmark's own generator, so a change to the library's samplers cannot change
the inputs. The library's constructors (`SymPoint`, `make_moebius`, `lift`) are
used only to box the generated numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import symbidisc.disc_moebius as dm
import symbidisc.g2_group as g2
import symbidisc.sym_geometry as sg

# Share of the apply cloud placed within 1e-6 of the royal variety, and the shares
# of the membership cloud placed near the royal variety and near the unit circle.
APPLY_NEAR_ROYAL = 0.2
MEMBER_NEAR_ROYAL = 0.1
MEMBER_NEAR_BOUNDARY = 0.1
# Root radius of the membership cloud; beyond 1 so exterior points occur.
MEMBER_ROOT_RADIUS = 1.2
# Root radius of the apply cloud and of the non-royal orbit base point.
APPLY_ROOT_RADIUS = 0.95
BASE_ROOT_RADIUS = 0.5
# Largest |a| of a seeded group element, as drawn by `sampling.random_moebius`.
MAX_A = 0.95


@dataclass(frozen=True)
class Sizes:
    """Work per pass of each section."""

    orbit_images: int = 2_000  # per orbit_sample call
    orbit_calls: int = 50  # per pass, alternately of the base point and of the origin
    apply_points: int = 100_000
    member_points: int = 100_000
    chunks: int = 50  # apply and membership are timed in this many chunks
    certify_elements: int = 200  # each passed as a G2Automorphism and as a black box
    certify_injected: int = 40
    cli_scalar: int = 50  # scalar subprocess invocations per pass
    cli_orbit: int = 10  # orbit subprocess invocations per pass
    cli_orbit_samples: int = 10_000


FULL = Sizes()
# Sizes of the traced run. Calls per operation and self times per call of the
# per-point kernels do not depend on the cloud size, and smaller clouds keep the
# in-memory span table small.
TRACED = Sizes(apply_points=20_000, member_points=20_000)
# Untimed warm-up before measuring: every code path once, and the CLI's bytecode cached.
WARM_UP = Sizes(orbit_images=2_000, orbit_calls=2, apply_points=2_000, member_points=2_000, chunks=2,
                certify_elements=4, certify_injected=2, cli_scalar=2, cli_orbit=1,
                cli_orbit_samples=100)


@dataclass(frozen=True)
class Inputs:
    sizes: Sizes
    base_point: sg.SymPoint  # non-royal interior point
    orbit_seeds: tuple  # one orbit_sample seed per call of a pass
    apply_element: g2.G2Automorphism
    apply_cloud: list  # SymPoints
    member_cloud: list  # SymPoints
    member_roots: tuple  # (lam1, lam2) complex arrays that generated member_cloud
    genuine: list  # G2Automorphisms
    injected: list  # (G2Automorphism, C): black box q -> H(q.s, q.p + C*q.s**2)
    cli_scalar: list  # argv lists
    cli_orbit: list  # argv lists


def _disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Area-uniform points of the disc |z| <= radius."""
    r = radius * np.sqrt(rng.random(n))
    return r * np.exp(2j * math.pi * rng.random(n))


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * math.pi * rng.random(n))


def _tiny(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Complex offsets with modulus log-uniform in [10**lo, 10**hi]."""
    return 10.0 ** rng.uniform(lo, hi, n) * _unit(rng, n)


def _elements(rng: np.random.Generator, n: int) -> list:
    taus = _unit(rng, n)
    avals = _disc(rng, n, MAX_A)
    return [g2.lift(dm.make_moebius(complex(t), complex(a))) for t, a in zip(taus, avals)]


def _points(lam1: np.ndarray, lam2: np.ndarray) -> list:
    s = (lam1 + lam2).tolist()
    p = (lam1 * lam2).tolist()
    return [sg.SymPoint(a, b) for a, b in zip(s, p)]


def _cjson(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _pjson(s: complex, p: complex) -> str:
    return json.dumps({"s": _cjson(s), "p": _cjson(p)})


def _cli_scalar(rng: np.random.Generator, n: int) -> list:
    """A seeded mix of scalar subcommands covering exit codes 0 to 4."""
    kinds = ("member_in", "member_boundary", "member_out", "apply",
             "transport", "transport_off", "commutator_zero", "commutator_shear")
    argvs = []
    for i in range(n):
        # every kind once, then a seeded draw
        kind = kinds[i] if i < len(kinds) else kinds[rng.integers(len(kinds))]
        l1, l2 = (complex(z) for z in _disc(rng, 2, 0.9))
        if kind == "member_in":
            argvs.append(["membership", _pjson(l1 + l2, l1 * l2)])
        elif kind == "member_boundary":  # one root on the unit circle
            u = complex(_unit(rng, 1)[0])
            argvs.append(["membership", _pjson(u + l2, u * l2)])
        elif kind == "member_out":
            big = l1 / abs(l1) * (1.05 + 0.5 * rng.random())
            argvs.append(["membership", _pjson(big + l2, big * l2)])
        elif kind == "apply":
            tau, a = complex(_unit(rng, 1)[0]), complex(_disc(rng, 1, MAX_A)[0])
            auto = json.dumps({"h": {"tau": _cjson(tau), "a": _cjson(a)}})
            argvs.append(["apply", auto, _pjson(l1 + l2, l1 * l2)])
        elif kind == "transport":
            argvs.append(["transport", _pjson(2 * l1, l1 * l1)])
        elif kind == "transport_off":
            argvs.append(["transport", _pjson(l1 + l2, l1 * l2)])
        else:
            b = 0.0 if kind == "commutator_zero" else 0.2 + rng.random()
            d = complex(_disc(rng, 1, 0.9)[0])
            cand = json.dumps({"degree_cap": 4, "terms": [
                {"j": 0, "k": 1, "S": b, "P": _cjson(d)},
                {"j": 1, "k": 0, "S": 1, "P": 0}]})
            tau = json.dumps(_cjson(complex(_unit(rng, 1)[0])))
            argvs.append(["commutator", cand, "--tau", tau, "--n-max", "64"])
    return argvs


def build_inputs(seed: int, sizes: Sizes = FULL) -> Inputs:
    # one independent stream per section, so the size of one section's inputs
    # never changes another section's inputs
    geo, cert, cmd = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))

    base = _disc(geo, 2, BASE_ROOT_RADIUS)
    while abs(base[0] - base[1]) < 0.1:  # keep the base point well off the royal variety
        base = _disc(geo, 2, BASE_ROOT_RADIUS)
    base_point = _points(base[:1], base[1:])[0]
    orbit_seeds = tuple(int(x) for x in geo.integers(0, 2**31, sizes.orbit_calls))

    apply_element = _elements(geo, 1)[0]
    n = sizes.apply_points
    lam1 = _disc(geo, n, APPLY_ROOT_RADIUS)
    lam2 = _disc(geo, n, APPLY_ROOT_RADIUS)
    near = geo.random(n) < APPLY_NEAR_ROYAL
    lam2[near] = lam1[near] + _tiny(geo, int(near.sum()), -12, -6)
    apply_cloud = _points(lam1, lam2)

    n = sizes.member_points
    lam1 = _disc(geo, n, MEMBER_ROOT_RADIUS)
    lam2 = _disc(geo, n, MEMBER_ROOT_RADIUS)
    kind = geo.random(n)
    royal = kind < MEMBER_NEAR_ROYAL
    lam2[royal] = lam1[royal] + _tiny(geo, int(royal.sum()), -12, -3)
    edge = (kind >= MEMBER_NEAR_ROYAL) & (kind < MEMBER_NEAR_ROYAL + MEMBER_NEAR_BOUNDARY)
    k = int(edge.sum())
    eps = 10.0 ** geo.uniform(-8, -3, k) * np.where(geo.random(k) < 0.5, -1.0, 1.0)
    lam1[edge] = (1.0 + eps) * _unit(geo, k)
    lam2[edge] = _disc(geo, k, 0.9)
    member_cloud = _points(lam1, lam2)

    genuine = _elements(cert, sizes.certify_elements)
    injected = list(zip(_elements(cert, sizes.certify_injected),
                        (0.05 + 0.45 * cert.random(sizes.certify_injected)).tolist()))

    cli_scalar = _cli_scalar(cmd, sizes.cli_scalar)
    cli_orbit = []
    for _ in range(sizes.cli_orbit):
        l1, l2 = _disc(cmd, 2, BASE_ROOT_RADIUS).tolist()
        cli_orbit.append(["orbit", _pjson(l1 + l2, l1 * l2), "--seed", str(int(cmd.integers(2**31))),
                          "--samples", str(sizes.cli_orbit_samples), "--format", "csv"])

    return Inputs(sizes, base_point, orbit_seeds, apply_element, apply_cloud,
                  member_cloud, (lam1, lam2), genuine, injected, cli_scalar, cli_orbit)


def injected_map(H: g2.G2Automorphism, C: float):
    """A map fixing no royal point: the shear (s, p + C*s**2) followed by H."""
    def f(q: sg.SymPoint) -> sg.SymPoint:
        return g2.apply_g2(H, sg.SymPoint(q.s, q.p + C * q.s * q.s))
    return f


class BlackBox:
    """H as a plain callable, so `normalize_and_extract` cannot take the compose
    shortcut. Counts its evaluations."""

    def __init__(self, H: g2.G2Automorphism):
        self.H = H
        self.evals = 0

    def __call__(self, q: sg.SymPoint) -> sg.SymPoint:
        self.evals += 1
        return g2.apply_g2(self.H, q)
