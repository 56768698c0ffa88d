"""Candidate maps and the scalar steps 1-3 of the automorphism-characterization argument.

For an automorphism F of the symmetrized bidisc fixing the origin:

  1. F's origin Jacobian has the normalized form [[1, b], [0, d]] after dividing out
     the rotation it induces on the royal variety.
  2. The commutator of F with a rotation pair (R_{1/tau} after, R_tau before) has
     origin Jacobian [[1, b*(tau-1)], [0, 1]]; its n-th iterate has corner entry
     n*b*(tau-1), which grows without bound unless b = 0, while a Schwarz-type bound
     caps that entry at 2 for any self-map of the domain fixing the origin.
  3. Commuting with all rotations forces the weighted-homogeneous form
     (s, p) -> (alpha*s, d*p + C*s**2) with the weights (1, 2) on (s, p).

Each step is 2x2 complex arithmetic on a candidate's Taylor table, so this module
needs neither numpy nor dataclasses. proof_lab builds the array pipeline on it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Mapping

from .disc_moebius import DENOM_THRESHOLD, _product, make_moebius
from .errors import NotNormalized, NotWeightedHomogeneous, ParameterOutOfDomain, SingularJacobian
from .g2_group import Jacobian2
from .sym_geometry import SymPoint

# Schwarz-lemma constant: p -> S(0, p) is holomorphic on |p| < 1 (the points (0, p)
# have roots of modulus sqrt(|p|), hence lie in the domain), is bounded by sup|S| <= 2,
# and vanishes at 0, so its derivative at 0 -- and every iterate's corner entry -- is
# bounded by 2. Both premises are asserted numerically in the test suite.
CAUCHY_BOUND = 2.0

# |b|*|tau - 1| at or below this counts as "no growth ever": b is effectively zero.
NO_GROWTH_THRESHOLD = 1e-12

# The weighted degree j + 2k at which candidates and extracted Taylor tables stop.
DEGREE_CAP = 4

# The one tolerance of certify (royal-variety and origin-image tests, weighted-form readout,
# royal check, identity verdict) and of commutator_jacobian's normalized-form test.
CERTIFY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Candidate maps: truncated polynomial self-maps of C^2 fixing the origin
# ---------------------------------------------------------------------------

class CandidateMap(namedtuple("CandidateMap", "terms")):
    """Polynomial map (S, P) with coefficient table terms = {(j, k): (cS, cP)} on s**j * p**k.

    Monomials respect the weighted degree bound j + 2k <= DEGREE_CAP and the
    constant term vanishes, so every candidate fixes the origin.
    """

    __slots__ = ()

    def __call__(self, pt: SymPoint) -> SymPoint:
        return evaluate_candidate(self, pt)


def make_candidate(terms: Mapping[tuple[int, int], tuple[complex, complex]]) -> CandidateMap:
    """Validate and canonicalize a coefficient table (sorted keys, complex values)."""
    clean: dict[tuple[int, int], tuple[complex, complex]] = {}
    for (j, k), (cs, cp) in sorted(terms.items()):
        if j % 1 or k % 1:  # nonzero for a fraction, NaN or infinity
            raise ParameterOutOfDomain(f"non-integral exponents ({j}, {k})")
        j, k = int(j), int(k)
        cs, cp = complex(cs), complex(cp)
        if not (cmath.isfinite(cs) and cmath.isfinite(cp)):
            raise ParameterOutOfDomain(f"monomial ({j}, {k}) has a non-finite coefficient")
        if j < 0 or k < 0:
            raise ParameterOutOfDomain(f"negative exponents ({j}, {k})")
        if j + 2 * k > DEGREE_CAP:
            raise ParameterOutOfDomain(
                f"monomial ({j}, {k}) has weighted degree {j + 2 * k} > cap {DEGREE_CAP}")
        if (j, k) == (0, 0):
            if cs != 0 or cp != 0:
                raise ParameterOutOfDomain("candidate must fix the origin (no constant term)")
            continue
        clean[(j, k)] = (cs, cp)
    return CandidateMap(clean)


def evaluate_candidate(F: CandidateMap, pt: SymPoint) -> SymPoint:
    """F at pt, whose coordinates are complex scalars or complex128 arrays alike."""
    if not F.terms:  # the zero map, in the input's shape; adding 0j flushes negative zeros
        return SymPoint(0j * pt.s + 0j, 0j * pt.p + 0j)
    S = P = 0j
    for (j, k), (cs, cp) in F.terms.items():
        mono = pt.s**j * pt.p**k
        S += cs * mono
        P += cp * mono
    return SymPoint(S, P)


def origin_jacobian(F: CandidateMap) -> Jacobian2:
    """Exact coefficient readout of F'(0, 0); no differencing involved."""
    (dS_ds, dP_ds), (dS_dp, dP_dp) = (F.terms.get(key, (0j, 0j)) for key in ((1, 0), (0, 1)))
    return Jacobian2(dS_ds, dS_dp, dP_ds, dP_dp)


# ---------------------------------------------------------------------------
# Commutator Jacobians and the growth bound forcing b = 0
# ---------------------------------------------------------------------------

def _power(G: Jacobian2, n: int) -> Jacobian2:
    """G**n by binary powering: one squaring per bit of n, so a huge n stays cheap."""
    if n < 1:
        raise ParameterOutOfDomain(f"iteration count {n} must be positive")
    result = None
    while True:
        if n & 1:
            result = G if result is None else _product(result, G)
        n >>= 1
        if not n:
            return Jacobian2(*result)
        G = _product(G, G)


def commutator_jacobian(J: Jacobian2, tau: complex) -> Jacobian2:
    """Origin Jacobian of the rotation commutator, J^-1 diag(1/t, 1/t^2) J diag(t, t^2).

    For J = [[1, b], [0, d]] the product collapses to [[1, b*(tau-1)], [0, 1]]: the
    commutator is unipotent no matter what d is. A non-finite entry raises ArithmeticError,
    and a |det| below DENOM_THRESHOLD, the one pole floor, raises SingularJacobian.
    """
    t = make_moebius(tau, 0j).tau
    if not all(map(cmath.isfinite, J)):
        raise ArithmeticError(f"origin Jacobian {J} has a non-finite entry")
    if abs(J.m11 - 1.0) > CERTIFY_TOL or abs(J.m21) > CERTIFY_TOL:
        raise NotNormalized(f"origin Jacobian {J} is not of the form [[1, b], [0, d]]")
    det = J.m11 * J.m22 - J.m12 * J.m21
    if abs(det) < DENOM_THRESHOLD:
        raise SingularJacobian(f"|det| = {abs(det)} below {DENOM_THRESHOLD}")
    inv = Jacobian2(J.m22 / det, -J.m12 / det, -J.m21 / det, J.m11 / det)
    before = Jacobian2(t, 0j, 0j, t * t)
    after = Jacobian2(1.0 / t, 0j, 0j, 1.0 / (t * t))
    return Jacobian2(*_product(_product(_product(inv, after), J), before))


def iterate_commutator(J: Jacobian2, tau: complex, n: int) -> Jacobian2:
    """n-th matrix power of the commutator Jacobian; corner entry is n*b*(tau-1)."""
    return _power(commutator_jacobian(J, tau), n)


def cauchy_bound_check(b: complex, tau: complex) -> tuple[int | None, float]:
    """Smallest n with n*|b|*|tau-1| > 2, or None when the growth rate is nil.

    A None result is the numerical form of the conclusion that b = 0: a genuine self-map
    of the domain can never push the iterated corner entry past the bound. A non-finite
    b raises ArithmeticError.
    """
    if not cmath.isfinite(b):
        raise ArithmeticError(f"corner entry b = {b} is not finite")
    t = make_moebius(tau, 0j).tau
    per_step = abs(b) * abs(t - 1.0)
    if per_step <= NO_GROWTH_THRESHOLD:
        return None, CAUCHY_BOUND
    return math.floor(CAUCHY_BOUND / per_step) + 1, CAUCHY_BOUND


class CommutatorReport(namedtuple("CommutatorReport", "tau b jacobian_of_g n_star bound")):
    """Outcome of the growth experiment for one candidate and one rotation: the rotation
    tau, the corner entry b, the commutator's Jacobian2, n_star (an int, or None) and
    the bound."""

    __slots__ = ()


def commutator_experiment(F: CandidateMap, tau: complex, n_max: int = 64) -> CommutatorReport:
    """Run the commutator construction on a candidate's origin Jacobian.

    Computes the commutator Jacobian, iterates it to n_max to confirm the linear
    growth of the corner entry, and evaluates the bound check. n_star absent means
    the candidate is consistent with being an automorphism; n_star present names
    the first iterate whose corner entry provably exceeds the bound.
    """
    t = make_moebius(tau, 0j).tau
    J = origin_jacobian(F)
    G = commutator_jacobian(J, t)
    iterated = _power(G, n_max)
    expected = n_max * J.m12 * (t - 1.0)
    # negated, so that an iterate that overflowed to NaN fails the test
    if not abs(iterated.m12 - expected) <= 1e-6 * max(1.0, abs(expected)):
        raise ArithmeticError(
            f"iterated corner entry {iterated.m12} drifted from {expected}")
    n_star, bound = cauchy_bound_check(J.m12, t)
    return CommutatorReport(t, J.m12, G, n_star, bound)


# ---------------------------------------------------------------------------
# The weighted-homogeneous form
# ---------------------------------------------------------------------------

def weighted_form_extract(F: CandidateMap) -> tuple[complex, complex, complex]:
    """Read off (alpha, d, C) from a map of the form (alpha*s, d*p + C*s**2).

    Any other monomial with coefficient above CERTIFY_TOL disqualifies the candidate;
    commuting with every rotation allows weight 1 in S and weight 2 in P only. The
    tests are negated, so that a NaN coefficient counts as a violation.
    """
    violations = []
    for (j, k), (cs, cp) in F.terms.items():
        if (j, k) != (1, 0) and not abs(cs) <= CERTIFY_TOL:
            violations.append(("S", j, k))
        if (j, k) not in ((0, 1), (2, 0)) and not abs(cp) <= CERTIFY_TOL:
            violations.append(("P", j, k))
    if violations:
        raise NotWeightedHomogeneous(sorted(violations))
    J = origin_jacobian(F)
    return J.m11, J.m22, F.terms.get((2, 0), (0j, 0j))[1]
