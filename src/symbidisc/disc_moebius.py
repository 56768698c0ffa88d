"""Holomorphic automorphisms of the unit disc in canonical (tau, a) form.

Every automorphism of the open unit disc E is h(lam) = tau * (lam - a) / (1 - conj(a)*lam)
with |tau| = 1 and |a| < 1, and the pair (tau, a) is unique: a = h^-1(0) and tau fixes
the rotation. Composition and inversion are computed through the 2x2 matrix
representative [[tau, -tau*a], [-conj(a), 1]] acting projectively, then re-canonicalized,
so results stay in (tau, a) form and |tau| is renormalized to exactly 1 on every
construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterOutOfDomain, PoleEncountered

# |a| at or beyond this is treated as a boundary map, which is out of domain.
A_MODULUS_LIMIT = 1.0 - 1e-12
# |tau| may drift this far from 1 on input; it is renormalized on construction.
TAU_MODULUS_SLACK = 1e-6
# Denominators below this are treated as the pole itself.
POLE_THRESHOLD = 1e-14


class DiscAutomorphism(NamedTuple):
    """Canonical parameters of lam -> tau*(lam - a)/(1 - conj(a)*lam)."""

    tau: complex
    a: complex

    def __call__(self, lam: complex) -> complex:
        return apply_moebius(self, lam)


def make_moebius(tau: complex, a: complex) -> DiscAutomorphism:
    """Validate (tau, a) and build the automorphism, renormalizing tau to |tau| = 1."""
    return DiscAutomorphism(*_canonical_params(complex(tau), complex(a)))


def _canonical_params(tau, a):
    """make_moebius's checks and renormalization, on complex scalars or arrays alike."""
    # the largest entry decides; a NaN propagates into it and fails the negated test
    mod_a = _largest(abs(a))
    if not mod_a < A_MODULUS_LIMIT:
        raise ParameterOutOfDomain(f"|a| = {mod_a} must be < {A_MODULUS_LIMIT}")
    mod = abs(tau)
    drift = _largest(abs(mod - 1.0))
    if not drift <= TAU_MODULUS_SLACK:
        raise ParameterOutOfDomain(f"|tau| is {drift} from 1, beyond {TAU_MODULUS_SLACK}")
    return tau / mod, a


def _largest(values):
    # a float is its own largest entry; an ndarray of floats has .max()
    return values if isinstance(values, float) else values.max()


def apply_moebius(h: DiscAutomorphism, lam: complex) -> complex:
    """Evaluate h at lam. Raises PoleEncountered near lam = 1/conj(a).

    A NaN denominator, as a NaN lam gives, raises ArithmeticError.
    """
    den = 1.0 - h.a.conjugate() * lam
    # negated, so that a NaN denominator fails the test
    if not abs(den) >= POLE_THRESHOLD:
        if abs(den) < POLE_THRESHOLD:
            raise PoleEncountered(f"lam = {lam} is at the pole of the map")
        raise ArithmeticError(f"denominator {den} at lam = {lam} is not finite")
    return h.tau * (lam - h.a) / den


def _as_matrix(h: DiscAutomorphism) -> tuple[complex, complex, complex, complex]:
    # Row-major (A, B, C, D) for lam -> (A*lam + B)/(C*lam + D).
    return h.tau, -h.tau * h.a, -h.a.conjugate(), 1.0 + 0j


def _from_matrix(A: complex, B: complex, C: complex, D: complex) -> DiscAutomorphism:
    # For a genuine disc automorphism A and D never vanish: tau = A/D, a = -B/A.
    return make_moebius(A / D, -B / A)


def _product(X: tuple, Y: tuple) -> tuple[complex, complex, complex, complex]:
    """Product X @ Y of 2x2 matrices held as row-major 4-tuples (A, B, C, D)."""
    a1, b1, c1, d1 = X
    a2, b2, c2, d2 = Y
    return a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2


def compose(h: DiscAutomorphism, g: DiscAutomorphism) -> DiscAutomorphism:
    """Canonical form of h o g (apply g first)."""
    return _from_matrix(*_product(_as_matrix(h), _as_matrix(g)))


def invert(h: DiscAutomorphism) -> DiscAutomorphism:
    """Canonical form of h^-1: (conj(tau), -tau*a)."""
    return make_moebius(h.tau.conjugate(), -h.tau * h.a)
