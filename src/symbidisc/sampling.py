"""Seeded random generators for discs, group elements, and domain points.

Every experiment in the package draws from these so that (seed, count) pins the
result exactly. numpy is imported only when a generator is made, so that the
modules importing this one stay numpy-free until they draw.

The array draws take all their doubles with one rng.random((count, m)) call, whose
row i holds the doubles the scalar draws would take for sample i, in the same order.
The scalar draws random_unit, random_disc and random_moebius are their count-1
cases, so each formula is written once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .disc_moebius import DiscAutomorphism, make_moebius
from .sym_geometry import SymPoint, symmetrize

if TYPE_CHECKING:
    import numpy as np


def rng_from_seed(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(seed)


def _unit_points(u: np.ndarray) -> np.ndarray:
    import numpy as np

    theta = 2.0 * math.pi * u
    return np.cos(theta) + 1j * np.sin(theta)


def _disc_points(u: np.ndarray, max_radius: float) -> np.ndarray:
    """Points of |z| < max_radius from rows (radius draw, angle draw) of u."""
    import numpy as np

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


def random_moebius_params(rng: np.random.Generator, count: int,
                          max_a: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (tau, a) of `count` seeded disc automorphisms, as complex128 arrays.

    Row i of one rng.random((count, 3)) draw holds tau's angle, a's area-uniform
    radius and a's angle: the same doubles, in the same order, as random_unit followed
    by random_disc would draw for element i. make_moebius, or its checks on arrays,
    validates the result.
    """
    u = rng.random((count, 3))
    return _unit_points(u[:, 0]), _disc_points(u[:, 1:], max_a)


def random_moebius(rng: np.random.Generator, max_a: float = 0.95) -> DiscAutomorphism:
    tau, a = random_moebius_params(rng, 1, max_a)
    return make_moebius(tau[0], a[0])
