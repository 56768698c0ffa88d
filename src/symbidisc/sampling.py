"""Seeded random generators for discs, group elements, and domain points.

Every experiment in the package draws from these so that (seed, count) pins the
result exactly. numpy is imported only when a generator is made, so that the
modules importing this one stay numpy-free until they draw.
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


def random_unit(rng: np.random.Generator) -> complex:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def random_disc(rng: np.random.Generator, max_radius: float = 0.999) -> complex:
    # sqrt of the uniform draw makes the sample area-uniform
    r = max_radius * math.sqrt(rng.uniform(0.0, 1.0))
    return r * random_unit(rng)


def random_moebius_params(rng: np.random.Generator, count: int,
                          max_a: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked (tau, a) of `count` seeded disc automorphisms, as complex128 arrays.

    Row i of one rng.random((count, 3)) draw holds tau's angle, a's area-uniform
    radius and a's angle: the same doubles, in the same order, as random_unit followed
    by random_disc would draw for element i. make_moebius, or its checks on arrays,
    validates the result.
    """
    import numpy as np

    u = rng.random((count, 3))
    theta = 2.0 * math.pi * u[:, 0::2]
    unit = np.cos(theta) + 1j * np.sin(theta)
    return unit[:, 0], max_a * np.sqrt(u[:, 1]) * unit[:, 1]


def random_moebius(rng: np.random.Generator, max_a: float = 0.95) -> DiscAutomorphism:
    tau, a = random_moebius_params(rng, 1, max_a)
    return make_moebius(tau[0], a[0])


def random_interior(rng: np.random.Generator, max_radius: float = 0.999) -> SymPoint:
    return symmetrize(random_disc(rng, max_radius), random_disc(rng, max_radius))
