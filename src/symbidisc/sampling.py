"""Seeded random generators for discs, group elements, and domain points.

Every experiment in the package draws from these so that (seed, count) pins the
result exactly.

The array draws take all their doubles with one rng.random((count, m)) call, whose
row i holds the doubles the scalar draws would take for sample i, in the same order.
The scalar draws random_unit, random_disc and random_moebius are their count-1
cases, so each formula is written once.
"""

from __future__ import annotations

import math

import numpy as np

from .disc_moebius import DiscAutomorphism, _canonical_params, make_moebius
from .errors import ParameterOutOfDomain, PreconditionUnmet
from .g2_group import _lift_form
from .sym_geometry import SymPoint, in_g2, symmetrize

# random_moebius and random_moebius_params draw |a| below this.
MAX_A = 0.95


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _unit_points(u: np.ndarray) -> np.ndarray:
    theta = 2.0 * math.pi * u
    return np.cos(theta) + 1j * np.sin(theta)


def _disc_points(u: np.ndarray, max_radius: float) -> np.ndarray:
    """Points of |z| < max_radius from rows (radius draw, angle draw) of u."""
    # sqrt of the uniform draw makes the sample area-uniform
    return max_radius * np.sqrt(u[:, 0]) * _unit_points(u[:, 1])


def random_unit(rng: np.random.Generator) -> complex:
    return complex(_unit_points(rng.random(1))[0])


def random_disc_points(rng: np.random.Generator, count: int,
                       max_radius: float = 0.999) -> np.ndarray:
    """`count` seeded area-uniform points of |z| < max_radius, as a complex128 array."""
    return _disc_points(rng.random((count, 2)), max_radius)


def random_disc(rng: np.random.Generator, max_radius: float = 0.999) -> complex:
    return complex(random_disc_points(rng, 1, max_radius)[0])


def random_interior(rng: np.random.Generator) -> SymPoint:
    return symmetrize(random_disc(rng), random_disc(rng))


def random_moebius_params(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (tau, a) of `count` seeded disc automorphisms, as complex128 arrays.

    Row i of one rng.random((count, 3)) draw holds tau's angle, a's area-uniform
    radius and a's angle: the same doubles, in the same order, as random_unit followed
    by random_disc would draw for element i. make_moebius, or its checks on arrays,
    validates the result.
    """
    u = rng.random((count, 3))
    return _unit_points(u[:, 0]), _disc_points(u[:, 1:], MAX_A)


def random_moebius(rng: np.random.Generator) -> DiscAutomorphism:
    tau, a = random_moebius_params(rng, 1)
    return make_moebius(tau[0], a[0])


def _orbit_arrays(pt: SymPoint, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """proof_lab.orbit_sample's images as two complex128 arrays (S, P), without boxing."""
    if count < 0:
        raise ParameterOutOfDomain(f"orbit size {count} must not be negative")
    if in_g2(pt).region != "interior":
        raise PreconditionUnmet(f"{pt} is not an interior point")
    tau, a = _canonical_params(*random_moebius_params(rng_from_seed(seed), count))
    S, P, _ = _lift_form(tau, a, pt.s, pt.p)
    return S, P
