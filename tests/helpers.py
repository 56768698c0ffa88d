"""Shared strategies, distance helpers and test-only constructors for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from symbidisc import (
    DiscAutomorphism,
    SymPoint,
    evaluate_candidate,
    make_candidate,
    make_moebius,
    symmetrize,
)
from symbidisc.sampling import random_interior, rng_from_seed


def polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


def disc_complex(max_radius: float = 0.9):
    return st.builds(polar, st.floats(0.0, max_radius), st.floats(0.0, 2.0 * math.pi))


def unit_complex():
    return st.builds(lambda t: polar(1.0, t), st.floats(0.0, 2.0 * math.pi))


def moebius(max_a: float = 0.9):
    return st.builds(make_moebius, unit_complex(), disc_complex(max_a))


def interior_point(max_radius: float = 0.95):
    return st.builds(symmetrize, disc_complex(max_radius), disc_complex(max_radius))


def root_cloud(rng: np.random.Generator, count: int, radius: float = 1.2):
    """Seeded root pairs (lam1, lam2) as complex128 arrays.

    Roots are area-uniform in |lam| <= radius, so a radius beyond 1 gives exterior
    points. A tenth of the pairs lie 1e-12 to 1e-6 apart (near the royal variety),
    and another tenth have one root 1e-8 to 1e-3 off the unit circle.
    """
    def disc(n):
        return radius * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))

    def unit(n):
        return np.exp(2j * math.pi * rng.random(n))

    lam1, lam2 = disc(count), disc(count)
    kind = rng.random(count)
    royal = kind < 0.1
    k = int(royal.sum())
    lam2[royal] = lam1[royal] + 10.0 ** rng.uniform(-12, -6, k) * unit(k)
    edge = (kind >= 0.1) & (kind < 0.2)
    k = int(edge.sum())
    lam1[edge] = (1.0 + 10.0 ** rng.uniform(-8, -3, k) * rng.choice([-1.0, 1.0], k)) * unit(k)
    return lam1, lam2


def cloud_points(lam1, lam2) -> list:
    return [SymPoint(s, p) for s, p in zip((lam1 + lam2).tolist(), (lam1 * lam2).tolist())]


def pt_dist(a: SymPoint, b: SymPoint) -> float:
    return max(abs(a.s - b.s), abs(a.p - b.p))


def unordered_dist(pair1, pair2) -> float:
    """Distance between unordered pairs: best of the two pairings."""
    x1, x2 = pair1
    y1, y2 = pair2
    straight = max(abs(x1 - y1), abs(x2 - y2))
    crossed = max(abs(x1 - y2), abs(x2 - y1))
    return min(straight, crossed)


def identity() -> DiscAutomorphism:
    return DiscAutomorphism(1.0 + 0j, 0j)


def moebius_equal(h, g, tol: float) -> bool:
    """Parameter-wise comparison; by canonicity this matches pointwise agreement on E."""
    return abs(h.tau - g.tau) <= tol and abs(h.a - g.a) <= tol


def g2_equal(H1, H2, tol: float) -> bool:
    """Lifts compare by their disc automorphisms, which are canonical."""
    return moebius_equal(H1.h, H2.h, tol)


def identity_candidate():
    return make_candidate({(1, 0): (1.0, 0.0), (0, 1): (0.0, 1.0)})


def rotation_commutation_residual(F, tau: complex, samples: int, seed: int) -> float:
    """Max defect of (tau*S(s,p), tau^2*P(s,p)) = (S, P)(tau*s, tau^2*p), point by point.

    The points are `samples` seeded random_interior draws.
    """
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(samples):
        pt = random_interior(rng)
        lhs = evaluate_candidate(F, pt)
        rhs = evaluate_candidate(F, SymPoint(tau * pt.s, tau * tau * pt.p))
        worst = max(worst, abs(tau * lhs.s - rhs.s), abs(tau * tau * lhs.p - rhs.p))
    return worst
