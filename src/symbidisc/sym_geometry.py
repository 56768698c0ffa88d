"""The symmetrization map, its stable inversion, and membership classification.

Points (s, p) of C^2 are read as coefficient data of z**2 - s*z + p; the symmetrized
bidisc is the set of (s, p) whose two roots lie in the open unit disc, and the royal
variety is its double-root locus (2*lam, lam**2).
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

from .errors import NotOnRoyalVariety

# The default membership and royal-variety tolerance.
DEFAULT_TOL = 1e-9


class SymPoint(NamedTuple):
    """A point of C^2 in (sum, product) coordinates."""

    s: complex
    p: complex


class RootPair(NamedTuple):
    """Unordered root pair stored lexicographically by (real, imag)."""

    first: complex
    second: complex


class MembershipVerdict(NamedTuple):
    region: str  # "interior" | "boundary" | "exterior"
    margin: float  # 1 - max(|root|); positive inside, negative outside


ORIGIN = SymPoint(0j, 0j)


def symmetrize(lam1: complex, lam2: complex) -> SymPoint:
    return SymPoint(lam1 + lam2, lam1 * lam2)


def _roots(s: complex, p: complex) -> tuple[complex, complex]:
    """Roots of z**2 - s*z + p in no particular order, computed cancellation-free.

    The square root sign is chosen to maximize |s + d| and the second root comes
    from p/q rather than the symmetric formula; the naive (s - d)/2 loses half the
    digits whenever the roots nearly coincide (i.e. near the royal variety).
    """
    d = cmath.sqrt(s * s - 4.0 * p)
    if abs(s + d) < abs(s - d):
        d = -d
    q = 0.5 * (s + d)
    if q == 0:  # only when s = 0 and p = 0
        return 0j, 0j
    return q, p / q


def desymmetrize(pt: SymPoint) -> RootPair:
    """Roots of z**2 - s*z + p in lexicographic (real, imag) order.

    Raises ArithmeticError where the root extraction overflows, as in_g2 does,
    rather than return a non-finite root for a finite point.
    """
    r1, r2 = _roots(pt.s, pt.p)
    if not (cmath.isfinite(r1) and cmath.isfinite(r2)):
        raise ArithmeticError(f"the roots {r1}, {r2} of {pt} are not finite")
    if (r2.real, r2.imag) < (r1.real, r1.imag):
        r1, r2 = r2, r1
    return RootPair(r1, r2)


def _classify(margin: float, tol: float) -> MembershipVerdict:
    if margin > tol:
        return MembershipVerdict("interior", margin)
    if margin < -tol:
        return MembershipVerdict("exterior", margin)
    if -tol <= margin <= tol:
        return MembershipVerdict("boundary", margin)
    raise ArithmeticError(f"membership margin {margin} or tolerance {tol} is not a number")


def in_g2(pt: SymPoint, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Classify by the larger root modulus; interior iff both roots are inside E.

    Raises ArithmeticError where the root extraction overflows into NaN (|s|
    beyond about 1e154, or |p| near the float limit), rather than report a NaN
    margin as "boundary".
    """
    r1, r2 = _roots(pt.s, pt.p)
    return _classify(1.0 - max(abs(r1), abs(r2)), tol)


def in_sigma2(pt: SymPoint, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Royal-variety test. Returns (verdict, residual) with residual = |s**2 - 4p|."""
    residual = abs(pt.s * pt.s - 4.0 * pt.p)
    member = residual <= tol and abs(pt.s) / 2.0 < 1.0 + tol
    return member, residual


def royal_param(pt: SymPoint, tol: float = DEFAULT_TOL) -> complex:
    """The lam with pt = (2*lam, lam**2); requires pt on the royal variety."""
    member, residual = in_sigma2(pt, tol)
    if not member:
        raise NotOnRoyalVariety(f"discriminant residual {residual} exceeds {tol}")
    return pt.s / 2.0
