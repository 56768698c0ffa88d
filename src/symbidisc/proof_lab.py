"""Numerical enactment of the automorphism-characterization argument.

The argument that every automorphism of the symmetrized bidisc is a lifted disc
automorphism runs through a short chain of computable steps once an automorphism F
fixing the origin is in hand:

  1. F's origin Jacobian has the normalized form [[1, b], [0, d]] after dividing out
     the rotation it induces on the royal variety.
  2. The commutator of F with a rotation pair (R_{1/tau} after, R_tau before) has
     origin Jacobian [[1, b*(tau-1)], [0, 1]]; its n-th iterate has corner entry
     n*b*(tau-1), which grows without bound unless b = 0, while a Schwarz-type bound
     caps that entry at 2 for any self-map of the domain fixing the origin.
  3. Commuting with all rotations forces the weighted-homogeneous form
     (s, p) -> (alpha*s, d*p + C*s**2) with the weights (1, 2) on (s, p).
  4. Fixing the royal variety pointwise forces C = 0.

This module makes each step a concrete operation on 2x2 complex matrices and
truncated polynomial candidate maps, plus a pipeline that drives any given map
through steps 1-4 and reports how far it is from the identity. Steps 1-3 read a
map through its Taylor coefficients at the origin, which the pipeline computes in
one way for every map: the trapezoidal-rule Cauchy integral over a torus inside the
domain, i.e. the rows of the 16-point DFT that are read, applied to the map's
values on a grid of that torus. For a map analytic on the domain this converges
geometrically in the grid size (Bornemann, Found. Comput. Math. 11, 2011; Trefethen
& Weideman, SIAM Rev. 56, 2014), and on a polynomial of low enough degree it is
exact up to rounding. Step 4 reads the map itself on a seeded royal sample, so a
term above the truncation degree cannot hide from it. Every map it takes works as
a numpy ufunc does: it gets one SymPoint whose coordinates are complex scalars or
complex128 arrays and returns a SymPoint of the same shape (wrap a scalar-only
callable with np.vectorize; another shape raises PreconditionUnmet), so the torus
grid and the royal sample, stacked, go through the map in one call. One cache
builds these fixed inputs once: the stacked sample, views of its grid and royal
parts, and the DFT rows, all read-only. Orbit sampling supplies the evidence-level
companion: origin orbits stay on the royal variety, non-royal orbits stay off it.

Everything here is seeded and deterministic; experiment results are pinned by
(seed, count) alone.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .errors import (
    NotWeightedHomogeneous,
    NotNormalized,
    ParameterOutOfDomain,
    PreconditionUnmet,
    SingularJacobian,
)
from .disc_moebius import _canonical_params, _product, make_moebius
from .g2_group import Jacobian2, _lift_form, apply_g2, transport_to_origin
from .sampling import random_disc_points, random_moebius_params, rng_from_seed
from .sym_geometry import ORIGIN, SymPoint, in_g2

# Schwarz-lemma constant: p -> S(0, p) is holomorphic on |p| < 1 (the points (0, p)
# have roots of modulus sqrt(|p|), hence lie in the domain), is bounded by sup|S| <= 2,
# and vanishes at 0, so its derivative at 0 -- and every iterate's corner entry -- is
# bounded by 2. Both premises are asserted numerically in the test suite.
CAUCHY_BOUND = 2.0

# |b|*|tau - 1| at or below this counts as "no growth ever": b is effectively zero.
NO_GROWTH_THRESHOLD = 1e-12

# Taylor coefficients are Cauchy integrals over the torus |s| = 0.5, |p| = 0.25,
# sampled on a 16x16 grid. The torus lies inside the domain (its largest root
# modulus is about 0.81). The grid rule is exact on monomials of degree below 16 in
# each variable; higher ones alias onto lower ones, damped by the radii to the 16th
# power. Reading coefficient (j, k) divides by 0.5**j * 0.25**k, at most 16 for
# j + 2k <= DEGREE_CAP, so rounding noise is barely amplified.
TORUS_RADII = (0.5, 0.25)
TORUS_POINTS = 16

# The weighted degree j + 2k at which candidates and extracted Taylor tables stop.
DEGREE_CAP = 4

# The royal check's seeded sample.
ROYAL_SAMPLES = 64
ROYAL_SEED = 11

# The certify pipeline's one tolerance: for the royal-variety and origin-image tests,
# the weighted-form readout, the royal check and the identity verdict.
CERTIFY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Candidate maps: truncated polynomial self-maps of C^2 fixing the origin
# ---------------------------------------------------------------------------

class CandidateMap(NamedTuple):
    """Polynomial map (S, P) with coefficient table {(j, k): (cS, cP)} on s**j * p**k.

    Monomials respect the weighted degree bound j + 2k <= degree_cap and the
    constant term vanishes, so every candidate fixes the origin.
    """

    terms: Mapping[tuple[int, int], tuple[complex, complex]]
    degree_cap: int = DEGREE_CAP

    def __call__(self, pt: SymPoint) -> SymPoint:
        return evaluate_candidate(self, pt)


def make_candidate(terms: Mapping[tuple[int, int], tuple[complex, complex]],
                   degree_cap: int = DEGREE_CAP) -> CandidateMap:
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
        if j + 2 * k > degree_cap:
            raise ParameterOutOfDomain(
                f"monomial ({j}, {k}) has weighted degree {j + 2 * k} > cap {degree_cap}")
        if (j, k) == (0, 0):
            if cs != 0 or cp != 0:
                raise ParameterOutOfDomain("candidate must fix the origin (no constant term)")
            continue
        clean[(j, k)] = (cs, cp)
    return CandidateMap(clean, degree_cap)


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
    zero = (0j, 0j)
    return Jacobian2(
        F.terms.get((1, 0), zero)[0],
        F.terms.get((0, 1), zero)[0],
        F.terms.get((1, 0), zero)[1],
        F.terms.get((0, 1), zero)[1],
    )


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
    commutator is unipotent no matter what d is; a non-finite entry raises ArithmeticError.
    """
    t = make_moebius(tau, 0j).tau
    if not all(map(cmath.isfinite, J)):
        raise ArithmeticError(f"origin Jacobian {J} has a non-finite entry")
    if abs(J.m11 - 1.0) > 1e-8 or abs(J.m21) > 1e-8:
        raise NotNormalized(f"origin Jacobian {J} is not of the form [[1, b], [0, d]]")
    det = J.m11 * J.m22 - J.m12 * J.m21
    if abs(det) <= 1e-12:
        raise SingularJacobian(f"|det| = {abs(det)} below 1e-12")
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


class CommutatorReport(NamedTuple):
    """Outcome of the growth experiment for one candidate and one rotation."""

    tau: complex
    b: complex
    jacobian_of_g: Jacobian2
    n_star: int | None
    bound: float


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
# The weighted-homogeneous form and the royal check
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
    zero = (0j, 0j)
    alpha = F.terms.get((1, 0), zero)[0]
    d = F.terms.get((0, 1), zero)[1]
    C = F.terms.get((2, 0), zero)[1]
    return alpha, d, C


def force_c_zero(map_like: Callable[[SymPoint], SymPoint]) -> tuple[bool, float]:
    """Check that a map fixes royal points, which kills C in (s, p + C*s**2).

    Calls the map once on the seeded royal sample (2*lam, lam**2), |lam| < 0.9
    (ROYAL_SAMPLES points, ROYAL_SEED), and returns (residual <= CERTIFY_TOL,
    residual), the residual being the largest coordinate distance between a point
    and its image. A map (s, p + C*s**2) moves the p-coordinate by 4*C*lam**2, and
    since the map itself is read, so does a term of any degree that does not vanish
    on the royal variety. Any map the pipeline takes works, a CandidateMap included.
    A non-finite image of a royal point raises ArithmeticError, as one on the torus
    grid does in fit_candidate.
    """
    _, _, royal, _, _ = _certify_inputs()
    return _verdict(_distances(royal, _images(map_like, royal)), "royal sample")


def _distances(pts: SymPoint, img: SymPoint):
    """The larger coordinate distance between each point and its image, as an array."""
    import numpy as np

    # np.maximum, unlike max, passes a NaN on
    return np.maximum(abs(pts.s - img.s), abs(pts.p - img.p))


def _verdict(distances, sample: str) -> tuple[bool, float]:
    """(residual <= CERTIFY_TOL, residual), the residual being the largest distance."""
    residual = float(distances.max())
    if not math.isfinite(residual):
        raise ArithmeticError(f"the map has a non-finite value on the {sample}")
    return residual <= CERTIFY_TOL, residual


# ---------------------------------------------------------------------------
# Orbits and Taylor extraction
# ---------------------------------------------------------------------------

def orbit_sample(pt: SymPoint, count: int, seed: int) -> list[SymPoint]:
    """Images of pt under `count` seeded random group elements.

    Orbits of the origin land on the royal variety (residual ~ 1e-15); orbits of a
    non-royal point keep a strictly positive discriminant residual. The latter is
    evidence, not proof, that the group action has more than one orbit.

    All elements are drawn, checked and applied at once on complex128 arrays, by the
    code that serves random_moebius, make_moebius and apply_g2 for one element. The
    images match that one-at-a-time loop to rounding, not bit for bit.

    Images are boxed by the C call tuple.__new__(SymPoint, (s, p)) that SymPoint(s, p)
    ends in, which skips SymPoint's generated Python __new__: about 0.15 us an image,
    as much as the array pass costs.
    """
    S, P = _orbit_arrays(pt, count, seed)
    return list(map(tuple.__new__, itertools.repeat(SymPoint), zip(S.tolist(), P.tolist())))


def _orbit_arrays(pt: SymPoint, count: int, seed: int):
    """orbit_sample's images as two complex128 arrays (S, P), without boxing."""
    import numpy as np

    if count < 0:
        raise ParameterOutOfDomain(f"orbit size {count} must not be negative")
    if in_g2(pt).region != "interior":
        raise PreconditionUnmet(f"{pt} is not an interior point")
    if count == 0:
        return np.empty(0, complex), np.empty(0, complex)
    tau, a = _canonical_params(*random_moebius_params(rng_from_seed(seed), count))
    S, P, _ = _lift_form(tau, a, pt.s, pt.p)
    return S, P


@functools.cache
def _certify_inputs() -> tuple:
    """Certify's fixed inputs (sample, grid, royal, rows_s, rows_p), built once, read-only.

    sample stacks the torus grid, whose entry j*n + k has angles 2*pi*(j, k)/n
    (n = TORUS_POINTS), and the seeded royal sample (2*lam, lam**2), |lam| < 0.9, so
    that one map call reads both; grid and royal are views of its two parts. rows_s
    and rows_p are the n-point DFT matrix with row j divided by n * r**j, for r_s and
    r_p. The exponent j*m is reduced mod n before scaling by 2*pi/n, so each entry is
    a root of unity rounded once, not the exp of a large rounded angle.
    """
    import numpy as np

    n = TORUS_POINTS
    rs, rp = TORUS_RADII
    m = np.arange(n)
    circle = np.exp(2j * math.pi * m / n)
    lam = random_disc_points(rng_from_seed(ROYAL_SEED), ROYAL_SAMPLES, 0.9)
    s = np.concatenate((np.repeat(rs * circle, n), 2.0 * lam))
    p = np.concatenate((np.tile(rp * circle, n), lam * lam))
    dft = np.exp(-2j * math.pi * (np.outer(m, m) % n) / n)
    rows = [dft / (n * r ** m[:, None]) for r in TORUS_RADII]
    for array in (s, p, *rows):
        array.setflags(write=False)  # so that no map can write into them
    g = n * n
    return SymPoint(s, p), SymPoint(s[:g], p[:g]), SymPoint(s[g:], p[g:]), *rows


def _images(map_like: Callable[[SymPoint], SymPoint], pts: SymPoint) -> SymPoint:
    """The map's values on a fixed sample, which must have the sample's shape."""
    img = map_like(pts)
    shapes = getattr(img.s, "shape", ()), getattr(img.p, "shape", ())
    if shapes != (pts.s.shape, pts.p.shape):
        raise PreconditionUnmet(f"a map must return its input's shape {pts.s.shape}, not "
                                f"{shapes}; wrap a scalar-only callable with np.vectorize")
    return img


def fit_candidate(map_like: Callable[[SymPoint], SymPoint]) -> CandidateMap:
    """Taylor coefficients of an origin-fixing map, truncated at weighted degree DEGREE_CAP.

    Calls the map once at the origin and once on the whole TORUS_POINTS x TORUS_POINTS
    grid of the torus |s| = r_s, |p| = r_p (TORUS_RADII), the grid part of the
    pipeline's one cache of read-only fixed inputs, and applies to the values the
    cached rows of the 16-point DFT that are read: entry (j, k), divided by the grid
    size and by r_s**j * r_p**k, is the trapezoidal-rule Cauchy integral for the
    coefficient of s**j * p**k. Only monomials with j + 2k <= DEGREE_CAP are kept,
    since higher ones would amplify rounding by r**-(j+2k). An origin image farther
    than CERTIFY_TOL from the origin, or values of another shape than the grid's,
    raise PreconditionUnmet, a non-finite image on the grid ArithmeticError.
    """
    _check_origin_image(map_like(ORIGIN))
    _, grid, _, _, _ = _certify_inputs()
    return _readout(_images(map_like, grid))


def _check_origin_image(at_origin: SymPoint) -> None:
    """Raise PreconditionUnmet unless a map's origin image is within CERTIFY_TOL of it."""
    # negated, so that a NaN image fails the test
    if not (abs(at_origin.s) <= CERTIFY_TOL and abs(at_origin.p) <= CERTIFY_TOL):
        raise PreconditionUnmet(f"map moves the origin to {at_origin}")


def _readout(images: SymPoint) -> CandidateMap:
    """fit_candidate's Cauchy readout of the map's values on the torus grid."""
    import numpy as np

    n = TORUS_POINTS
    values = np.concatenate((images.s, images.p)).reshape(2, n, n)
    if not np.isfinite(values).all():
        raise ArithmeticError("the map has a non-finite value on the torus grid")
    js, ks = DEGREE_CAP + 1, DEGREE_CAP // 2 + 1
    _, _, _, rows_s, rows_p = _certify_inputs()
    S, P = (rows_s[:js] @ values @ rows_p[:ks].T).tolist()
    # keys in make_candidate's sorted order; (0, 0) is the origin image, checked apart
    return CandidateMap({(j, k): (S[j][k], P[j][k])
                         for j in range(js) for k in range(ks) if 0 < j + 2 * k <= DEGREE_CAP})


# ---------------------------------------------------------------------------
# End-to-end pipeline: transport, extract, divide out the rotation, force C = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineReport:
    """How far a map is from the identity after transport and rotation division."""

    origin_image: SymPoint
    transport_param: complex  # royal parameter used to move the origin image back
    rotation_divided: complex  # unit-modulus alpha factored out of the map
    alpha: complex  # extracted s-coefficient of the first component
    d: complex  # extracted p-coefficient of the second component
    c: complex  # extracted s**2-coefficient of the second component
    royal_ok: bool
    royal_residual: float
    grid_residual: float  # the royal residual's measure, on the torus grid
    identity_deviation: float  # max(|alpha - 1|, |d - 1|, |c|)
    identity_certified: bool


def normalize_and_extract(map_like: Callable[[SymPoint], SymPoint]) -> PipelineReport:
    """Drive a map through the full forcing chain and report the extracted form.

    The chain runs one fixed configuration: tolerance CERTIFY_TOL, degree cap
    DEGREE_CAP and the seeded royal sample.

    Every map, group element or black box alike, takes the same stages:

      1. transport: find with `transport_to_origin` the royal transport that moves
         the image of the origin back to the origin, to within CERTIFY_TOL;
      2. extraction: call the map once on the stacked sample, the torus grid
         followed by the royal sample, transport all its values in one pass, and
         read the Taylor coefficients off the grid's values as `fit_candidate` does;
      3. weighted form: read off (alpha, d, C) at CERTIFY_TOL with
         `weighted_form_extract` and divide out the unit rotation rot taken from
         the extracted s-coefficient of S (the Jacobian's (1,1) entry): alpha by
         rot, d and C by rot**2;
      4. identity check: rotate all transported values by the inverse rotation,
         (S, P) -> (S/rot, P/rot**2), and measure how far each moves its point of
         the stacked sample. The royal part is judged as `force_c_zero` does,
         which forces C = 0; the grid part gives grid_residual.

    A genuine group element comes out certified as the identity; a map with a stray
    C, or with any term of higher degree than the extraction reads, fails the
    identity check: on the royal sample, or on the grid for a term that vanishes on
    the royal variety. The map is called twice: at the origin, then on the stacked
    sample.

    Raises NotWeightedHomogeneous when the normalized map does not commute with
    rotations, NotOnRoyalVariety (a PreconditionUnmet) when the origin image is off
    the royal variety, PreconditionUnmet when the map's values on the stacked sample
    have another shape than the sample, DenominatorDegenerate (before the weighted form is read) when a
    value on the stacked sample sits on the transport's pole, and ArithmeticError when
    the map has a non-finite value on the torus grid or the royal sample.
    """
    img = map_like(ORIGIN)
    transport = transport_to_origin(img, CERTIFY_TOL)
    _check_origin_image(apply_g2(transport, img))
    sample, _, _, _, _ = _certify_inputs()
    moved = apply_g2(transport, _images(map_like, sample))
    n = TORUS_POINTS**2
    raw = _readout(SymPoint(moved.s[:n], moved.p[:n]))

    m11 = origin_jacobian(raw).m11
    if abs(m11) < 0.1:
        raise PreconditionUnmet(f"degenerate rotation part |m11| = {abs(m11)}")
    rot = m11 / abs(m11)
    rot_inv = rot.conjugate()
    alpha, d, C = weighted_form_extract(raw)
    alpha, d, C = rot_inv * alpha, rot_inv * rot_inv * d, rot_inv * rot_inv * C
    distances = _distances(sample, SymPoint(rot_inv * moved.s, rot_inv * rot_inv * moved.p))
    grid_ok, grid_residual = _verdict(distances[:n], "torus grid")
    royal_ok, royal_residual = _verdict(distances[n:], "royal sample")
    deviation = max(abs(alpha - 1.0), abs(d - 1.0), abs(C))
    return PipelineReport(
        origin_image=img,
        transport_param=transport.h.a,
        rotation_divided=rot,
        alpha=alpha,
        d=d,
        c=C,
        royal_ok=royal_ok,
        royal_residual=royal_residual,
        grid_residual=grid_residual,
        identity_deviation=deviation,
        identity_certified=royal_ok and grid_ok and deviation <= CERTIFY_TOL,
    )
