"""The symmetrization map, its stable inversion, and membership classification.

Points (s, p) of C^2 are read as coefficient data of z**2 - s*z + p; the symmetrized
bidisc is the set of (s, p) whose two roots lie in the open unit disc, and the royal
variety is its double-root locus (2*lam, lam**2).
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .errors import NotOnRoyalVariety, ParameterOutOfDomain

# The default membership and royal-variety tolerance.
DEFAULT_TOL = 1e-9


class SymPoint(namedtuple("SymPoint", "s p")):
    """A point (s, p) of C^2 in (sum, product) coordinates.

    Construction checks nothing, and no value type defines __new__ (a test pins it), so
    the per-point producers apply_g2, symmetrize and orbit_sample box with _box(SymPoint,
    (s, p)), the C call tuple.__new__ that SymPoint(s, p) ends in, bound once.
    """

    __slots__ = ()


class RootPair(namedtuple("RootPair", "first second")):
    """Unordered root pair stored lexicographically by (real, imag)."""

    __slots__ = ()


class MembershipVerdict(namedtuple("MembershipVerdict", "region margin")):
    """region is "interior", "boundary" or "exterior"; margin = 1 - max(|root|),
    positive inside and negative outside."""

    __slots__ = ()


ORIGIN = SymPoint(0j, 0j)
_box = tuple.__new__  # bound once, so that boxing skips the attribute lookup


def symmetrize(lam1: complex, lam2: complex) -> SymPoint:
    return _box(SymPoint, (lam1 + lam2, lam1 * lam2))


def _roots(s: complex, p: complex) -> tuple[complex, complex]:
    """Roots of z**2 - s*z + p in no particular order, computed cancellation-free.

    q takes the larger of s + d and s - d (s + d on a tie): the square root sign that
    maximizes |s + d|, bit for bit, as IEEE s - d is exactly s + (-d). The second root
    comes from p/q rather than the symmetric formula; the naive (s - d)/2 loses half
    the digits whenever the roots nearly coincide (i.e. near the royal variety).
    """
    # a float on the left costs a float.__mul__ that returns NotImplemented; on the
    # right the product is the same, bit for bit, as both partial products are exact
    d = cmath.sqrt(s * s - p * 4.0)
    plus, minus = s + d, s - d
    q = (minus if abs(plus) < abs(minus) else plus) * 0.5
    if not q:  # only when s = 0 and p = 0
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


def in_g2(pt: SymPoint, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Classify by the larger root modulus; interior iff both roots are inside E.

    A root that overflows to infinity gives ("exterior", -inf), as SymPoint(2e154, 0)
    and SymPoint(0, 1e308) do; CLI membership exits 65 on such a point with an error
    that names it and its overflowing roots. A NaN margin (SymPoint(0, 1.7e308j)) raises
    ArithmeticError, not "boundary"; a negative or NaN tol raises ParameterOutOfDomain.
    """
    r1, r2 = _roots(pt.s, pt.p)
    m1, m2 = abs(r1), abs(r2)
    margin = 1.0 - (m2 if m2 > m1 else m1)  # max(m1, m2), without the call
    if not tol >= 0.0:  # negated, for NaN; a negative tol would overlap the tests
        raise ParameterOutOfDomain(f"tolerance {tol} is not >= 0")
    if margin > tol:
        return _box(MembershipVerdict, ("interior", margin))
    if margin < -tol:
        return _box(MembershipVerdict, ("exterior", margin))
    if -tol <= margin <= tol:
        return _box(MembershipVerdict, ("boundary", margin))
    raise ArithmeticError(f"membership margin {margin} is not a number")


def in_sigma2(pt: SymPoint, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Royal-variety test. Returns (verdict, residual) with residual = |s**2 - 4p|, NaN at a
    NaN point; a negative or NaN tol raises ParameterOutOfDomain, by the rule in_g2 applies."""
    if not tol >= 0.0:  # else a royal point, whose residual can be 0.0, would fail
        raise ParameterOutOfDomain(f"tolerance {tol} is not >= 0")
    s = pt.s
    disc = s * s - pt.p * 4.0
    try:
        residual = abs(disc)
    except OverflowError:  # abs() of a NaN leaves errno as an earlier call set it
        if disc == disc:
            raise
        residual = abs(disc.real) + abs(disc.imag)
    member = residual <= tol and abs(s) / 2.0 < 1.0 + tol
    return member, residual


def royal_param(pt: SymPoint, tol: float = DEFAULT_TOL) -> complex:
    """The lam with pt = (2*lam, lam**2); requires pt on the royal variety, and a
    negative or NaN tol raises ParameterOutOfDomain, through in_sigma2."""
    member, residual = in_sigma2(pt, tol)
    if not member and residual <= tol:  # on the variety, but not over the disc
        raise NotOnRoyalVariety(f"|s/2| = {abs(pt.s) / 2.0} is not below 1 + {tol}")
    if not member:
        raise NotOnRoyalVariety(f"discriminant residual {residual} exceeds {tol}")
    return pt.s / 2.0
