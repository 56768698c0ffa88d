"""The automorphism group of the symmetrized bidisc as lifts of disc automorphisms.

Each disc automorphism h induces the map sending (s, p) to the (sum, product) of
(h(root1), h(root2)); that lift is an automorphism of the symmetrized bidisc, and
every automorphism arises this way. Application is available through two independent
routes: a closed rational form in (s, p), which is holomorphic and stable near the
double-root locus, and the literal root route, which extracts the roots, maps each
one, and re-symmetrizes. Each route checks the other. Membership rests on the same
root extraction as the root route, and the tests check it against the root-free
Agler-Young criterion (tests/test_sym_geometry.py::TestAglerYoung).
"""

from __future__ import annotations

from typing import NamedTuple

from .disc_moebius import (
    A_MODULUS_LIMIT,
    DiscAutomorphism,
    apply_moebius,
    compose,
    invert,
    make_moebius,
)
from .errors import DenominatorDegenerate, NotOnRoyalVariety
from .sym_geometry import DEFAULT_TOL, SymPoint, _roots, royal_param, symmetrize

# Below this the rational form's denominator (1 - conj(a)*s + conj(a)**2 * p),
# which equals the product (1 - conj(a)*root1)(1 - conj(a)*root2), is degenerate.
DENOM_THRESHOLD = 1e-14


class G2Automorphism(NamedTuple):
    """Lift of a disc automorphism; the wrapped h determines the map completely."""

    h: DiscAutomorphism

    def __call__(self, pt: SymPoint) -> SymPoint:
        return apply_g2(self, pt)


class Jacobian2(NamedTuple):
    """Complex 2x2 Jacobian, rows indexed by output (S, P), columns by input (s, p)."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex


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
    S, P, _ = _lift_form(H.h.tau, H.h.a, pt.s, pt.p)
    return SymPoint(S, P)


def _lift_form(tau, a, s, p):
    """apply_g2's closed form on complex scalars or on complex128 arrays alike.

    Arrays hold one group element or one point per entry and broadcast against each
    other. Returns (S, P, den); raises DenominatorDegenerate before dividing when
    any |den| is below DENOM_THRESHOLD. On arrays a NaN entry is skipped, as the
    scalar form lets it through, so that it cannot hide a degenerate entry.
    """
    ac = a.conjugate()
    den = 1.0 - ac * s + ac * ac * p
    mod = abs(den)
    if isinstance(mod, float):
        smallest = mod
    else:
        import numpy as np

        smallest = np.fmin.reduce(mod, axis=None)  # fmin, unlike min, passes over NaN
    if smallest < DENOM_THRESHOLD:
        raise DenominatorDegenerate(f"denominator {smallest} below {DENOM_THRESHOLD}")
    # grouped so that both numerators cancel exactly at the map's own royal point
    # (s, p) = (2a, a^2); the expanded form (1+|a|^2)s - 2*conj(a)*p - 2a leaks
    # rounding noise there that the denominator (1-|a|^2)^2 then amplifies
    s1 = ((s - 2.0 * a) + ac * (a * s - 2.0 * p)) / den
    p1 = ((p - a * s) + a * a) / den
    return tau * s1, tau * tau * p1, den


def apply_g2_via_roots(H: G2Automorphism, pt: SymPoint) -> SymPoint:
    """Definitional route: extract the roots, map both, re-symmetrize."""
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
    """The group element sending a royal point (2a, a^2) to the origin."""
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
