"""The automorphism group of the symmetrized bidisc as lifts of disc automorphisms.

Each disc automorphism h induces the map sending (s, p) to the (sum, product) of
(h(root1), h(root2)); that lift is an automorphism of the symmetrized bidisc, and
every automorphism arises this way. Application is available through two independent
routes: a closed rational form in (s, p), which is holomorphic and stable near the
double-root locus, and the literal root route, which extracts the roots, maps each
one, and re-symmetrizes. Oracles that share neither route's rounding check the
closed form: 50-digit mpmath (test_closed_form_against_50_digit_mpmath) and the
Agler-Young Caratheodory distance, which automorphisms preserve. Membership, whose
root extraction the root route shares, is checked against the root-free Agler-Young
criterion (tests/test_sym_geometry.py::TestAglerYoung).
"""

from __future__ import annotations

from collections import namedtuple

from .disc_moebius import (
    A_MODULUS_LIMIT,
    DENOM_THRESHOLD,
    DiscAutomorphism,
    apply_moebius,
    compose,
    invert,
    make_moebius,
)
from .errors import NotOnRoyalVariety, PoleEncountered
from .sym_geometry import DEFAULT_TOL, SymPoint, _box, _roots, royal_param, symmetrize


class G2Automorphism(namedtuple("G2Automorphism", "h")):
    """Lift of a disc automorphism; the wrapped h determines the map completely."""

    __slots__ = ()

    def __call__(self, pt: SymPoint) -> SymPoint:
        return apply_g2(self, pt)


class Jacobian2(namedtuple("Jacobian2", "m11 m12 m21 m22")):
    """Complex 2x2 Jacobian, rows indexed by output (S, P), columns by input (s, p)."""

    __slots__ = ()


def lift(h: DiscAutomorphism) -> G2Automorphism:
    return G2Automorphism(h)


def apply_g2(H: G2Automorphism, pt: SymPoint) -> SymPoint:
    """Closed rational form of the lift.

    For h = (tau, a) the a-part acts as

        ( (1+|a|^2)s - 2*conj(a)*p - 2a,  p - a*s + a^2 ) / (1 - conj(a)*s + conj(a)^2 * p)

    followed by the rotation (s, p) -> (tau*s, tau^2*p). Defined wherever the
    denominator is nondegenerate, which covers a neighbourhood of the closed domain;
    membership is not enforced here.
    """
    h = H.h
    S, P, _ = _lift_form(h.tau, h.a, pt.s, pt.p)
    return _box(SymPoint, (S, P))


def _lift_form(tau, a, s, p):
    """apply_g2's closed form on complex scalars or on complex128 arrays alike.

    Arrays hold one group element or one point per entry and broadcast against each other.
    Returns (S, P, den); den = (1 - conj(a)*lam1)(1 - conj(a)*lam2) vanishes at a root
    on h's pole, so, like apply_g2_via_roots, it raises PoleEncountered before dividing
    when any |den| is below DENOM_THRESHOLD, apply_moebius's floor too. On arrays a NaN
    entry is skipped, as the scalar form lets it through, so it cannot hide a bad one.
    """
    ac = a.conjugate()
    den = 1.0 - ac * s + ac * ac * p
    try:
        mod = abs(den)
    except OverflowError:  # a scalar den with a part near the largest float, or a NaN
        if den == den:  # abs() of a NaN leaves errno as an earlier call set it
            raise OverflowError(f"the modulus of the denominator {den} overflows") from None
        mod = abs(den.real) + abs(den.imag)
    if isinstance(mod, float):
        smallest = mod
    else:
        import numpy as np

        smallest = np.fmin.reduce(mod, axis=None, initial=np.inf)  # skips NaN, unlike min
    if smallest < DENOM_THRESHOLD:
        raise PoleEncountered(f"denominator {smallest} below {DENOM_THRESHOLD}")
    # grouped so that both numerators cancel exactly at the map's own royal point
    # (s, p) = (2a, a^2); the expanded form (1+|a|^2)s - 2*conj(a)*p - 2a leaks
    # rounding noise there that the denominator (1-|a|^2)^2 then amplifies
    sa = a * s
    s1 = ((s - a * 2.0) + ac * (sa - p * 2.0)) / den
    p1 = ((p - sa) + a * a) / den
    return tau * s1, tau * tau * p1, den


def apply_g2_via_roots(H: G2Automorphism, pt: SymPoint) -> SymPoint:
    """Definitional route: extract the roots, map both, re-symmetrize.

    apply_moebius floors each factor |1 - conj(a)*lam|, apply_g2 their product, at
    DENOM_THRESHOLD: for a = 0.5 and roots 2 - 2e-10, 2 - 2e-5 only apply_g2 raises
    PoleEncountered; this route returns SymPoint(1.29e10, 1.93e15)."""
    h = H.h
    r1, r2 = _roots(pt.s, pt.p)
    return symmetrize(apply_moebius(h, r1), apply_moebius(h, r2))


def compose_g2(H1: G2Automorphism, H2: G2Automorphism) -> G2Automorphism:
    """Lift of the composed disc maps; apply H2 first."""
    return G2Automorphism(compose(H1.h, H2.h))


def invert_g2(H: G2Automorphism) -> G2Automorphism:
    """The inverse lift is the lift of the inverse disc map."""
    return G2Automorphism(invert(H.h))


def rotation(tau: complex) -> G2Automorphism:
    """The lift of lam -> tau*lam, acting as (s, p) -> (tau*s, tau^2*p)."""
    return G2Automorphism(make_moebius(tau, 0j))


def transport_to_origin(pt: SymPoint, tol: float = DEFAULT_TOL) -> G2Automorphism:
    """The group element sending a royal point (2a, a^2) to the origin; a negative or
    NaN tol raises ParameterOutOfDomain, through royal_param."""
    a = royal_param(pt, tol)
    if abs(a) >= A_MODULUS_LIMIT:
        raise NotOnRoyalVariety(f"|s/2| = {abs(a)} is not inside the open disc")
    return G2Automorphism(make_moebius(1.0, a))


def jacobian_at(H: G2Automorphism, pt: SymPoint) -> Jacobian2:
    """Exact Jacobian of the closed rational form, by the quotient rule.

    Each component of the a-part is N/den with derivative (N' - (N/den)*den')/den,
    where den' = (-conj(a), conj(a)^2). The rotation turns N/den into the image
    (S, P) and scales row S by tau and row P by tau^2.
    """
    tau, a = H.h.tau, H.h.a
    ac = a.conjugate()
    S, P, den = _lift_form(tau, a, pt.s, pt.p)  # raises where the denominator degenerates
    return Jacobian2(
        (tau * (1.0 + ac * a) + ac * S) / den,
        (-2.0 * tau * ac - ac * ac * S) / den,
        (-tau * tau * a + ac * P) / den,
        (tau * tau - ac * ac * P) / den,
    )
