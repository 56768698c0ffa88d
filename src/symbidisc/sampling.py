"""Seeded random generators for discs, group elements, and domain points.

Every experiment in the package draws from these so that (seed, count) pins the
result exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .disc_moebius import DiscAutomorphism, make_moebius
from .sym_geometry import SymPoint, symmetrize


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unit(rng: np.random.Generator) -> complex:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def random_disc(rng: np.random.Generator, max_radius: float = 0.999) -> complex:
    # sqrt of the uniform draw makes the sample area-uniform
    r = max_radius * math.sqrt(rng.uniform(0.0, 1.0))
    return r * random_unit(rng)


def random_moebius(rng: np.random.Generator, max_a: float = 0.95) -> DiscAutomorphism:
    return make_moebius(random_unit(rng), random_disc(rng, max_a))


def random_interior(rng: np.random.Generator, max_radius: float = 0.999) -> SymPoint:
    return symmetrize(random_disc(rng, max_radius), random_disc(rng, max_radius))

