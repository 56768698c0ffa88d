"""Correctness oracles of the benchmark.

They share no code with the library: membership uses the Agler-Young criterion
(s, p) in G2 iff |s - conj(s)*p| < 1 - |p|**2, which needs no roots, and royal
verdicts are judged against the roots the inputs were generated from. Each
checker takes plain numbers and returns how many operations failed, so a test can
feed it a deliberately wrong result.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Acceptance tolerances of the repository's own test suite.
ROUTE_TOL = 1e-10  # two-route apply discrepancy
ROYAL_TOL = 1e-10  # royal residual of an origin-orbit image
MEMBER_TOL = 1e-9  # in_g2 / in_sigma2 default tolerance
# Below this |Agler-Young margin| the float evaluation can round to the wrong sign,
# so the verdict is recomputed in exact rational arithmetic.
AY_EXACT_BELOW = 1e-12


def _exact_inside(s: complex, p: complex) -> bool:
    sr, si, pr, pi = (Fraction(x) for x in (s.real, s.imag, p.real, p.imag))
    rhs = 1 - (pr * pr + pi * pi)
    if rhs <= 0:
        return False
    # s - conj(s)*p, squared modulus
    dr = sr - (sr * pr + si * pi)
    di = si - (sr * pi - si * pr)
    return dr * dr + di * di < rhs * rhs


def agler_young_inside(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Boolean array: is (s, p) in the open symmetrized bidisc."""
    margin = (1.0 - np.abs(p) ** 2) - np.abs(s - np.conj(s) * p)
    inside = margin > 0
    for i in np.flatnonzero(np.abs(margin) < AY_EXACT_BELOW):
        inside[i] = _exact_inside(complex(s[i]), complex(p[i]))
    return inside


def check_orbit(s: np.ndarray, p: np.ndarray, royal: bool) -> int:
    """Failed images of one orbit: not interior, or off (origin) / on (non-royal) the royal variety."""
    residual = np.abs(s * s - 4.0 * p)
    bad = ~agler_young_inside(s, p)
    bad |= residual > ROYAL_TOL if royal else residual == 0
    return int(bad.sum())


def check_routes(discrepancy: np.ndarray) -> int:
    """Failed applied points: the closed form and the root route disagree."""
    return int((np.asarray(discrepancy) > ROUTE_TOL).sum())


def check_membership(s: np.ndarray, p: np.ndarray, lam1: np.ndarray, lam2: np.ndarray,
                     g2_region: np.ndarray, sigma2_member: np.ndarray) -> int:
    """Failed verdicts among the in_g2 and in_sigma2 verdicts of one cloud.

    Which in_g2 verdicts are checked is decided from the generating roots, never
    from the library's output: a point is decided where its root margin
    1 - max(|lam1|, |lam2|) lies farther than MEMBER_TOL from 0, by a band that
    covers rounding (s, p) to floats (about 1e-16 / |lam1 - lam2| on the roots,
    up to sqrt(1e-16) for a double root). There the verdict must be "interior"
    or "exterior" as Agler-Young says. An in_sigma2 verdict is judged against the
    generating roots: royal iff |lam1 - lam2|**2 <= MEMBER_TOL and
    |s|/2 < 1 + MEMBER_TOL, skipping points whose discriminant or |s|/2 lies
    within 1e-12 of a threshold.
    """
    gap = np.abs(lam1 - lam2)
    band = 1e-12 + np.minimum(1e-7, 1e-15 / np.maximum(gap, 1e-300))
    decided = np.abs(1.0 - np.maximum(np.abs(lam1), np.abs(lam2))) > MEMBER_TOL + band
    expected = np.where(agler_young_inside(s, p), "interior", "exterior")
    bad_g2 = decided & (np.asarray(g2_region) != expected)
    disc = gap ** 2
    half = np.abs(s) / 2.0
    truth = (disc <= MEMBER_TOL) & (half < 1.0 + MEMBER_TOL)
    clear = (np.abs(disc - MEMBER_TOL) > 1e-12) & (np.abs(half - 1.0 - MEMBER_TOL) > 1e-12)
    bad_sigma = clear & (np.asarray(sigma2_member) != truth)
    return int(bad_g2.sum() + bad_sigma.sum())


def check_certify(kind: str, raised: bool, certified: bool) -> bool:
    """True when the call failed: it raised, or certified an injected map.

    A genuine element left uncertified is an inconclusive answer, not a wrong one;
    the caller counts it apart."""
    return raised or (certified and kind == "injected")
