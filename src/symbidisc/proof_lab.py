"""Numerical enactment of the automorphism-characterization argument.

Steps 1-3 of the argument that every automorphism of the symmetrized bidisc is a
lifted disc automorphism are scalar arithmetic on a Taylor table and live in
candidates, whose names this module re-exports. Step 4: fixing the royal variety
pointwise forces C = 0 in the weighted form (alpha*s, d*p + C*s**2).

This module adds the array half: a pipeline that drives any given map through
steps 1-4 and reports how far it is from the identity. Steps 1-3 read a map
through its Taylor coefficients at the origin, which the pipeline computes in one
way for every map: the trapezoidal-rule Cauchy integral over a torus inside the
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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

# The scalar half, re-exported so that proof_lab.X keeps working for its public names.
# The benchmark is a caller: perfbench/sections.py calls pl.commutator_experiment, and
# perfbench/layers.py traces proof_lab.evaluate_candidate and weighted_form_extract.
from .candidates import (
    CERTIFY_TOL, DEGREE_CAP, CandidateMap, CommutatorReport, cauchy_bound_check,
    commutator_experiment, commutator_jacobian, evaluate_candidate, iterate_commutator,
    make_candidate, origin_jacobian, weighted_form_extract,
)
from .errors import PreconditionUnmet
from .g2_group import apply_g2, transport_to_origin
from .sampling import _orbit_arrays, random_disc_points, rng_from_seed
from .sym_geometry import ORIGIN, SymPoint

# Taylor coefficients are Cauchy integrals over the torus |s| = 0.5, |p| = 0.25,
# sampled on a 16x16 grid. The torus lies inside the domain (its largest root
# modulus is about 0.81). The grid rule is exact on monomials of degree below 16 in
# each variable; higher ones alias onto lower ones, damped by the radii to the 16th
# power. Reading coefficient (j, k) divides by 0.5**j * 0.25**k, at most 16 for
# j + 2k <= DEGREE_CAP, so rounding noise is barely amplified.
TORUS_RADII = (0.5, 0.25)
TORUS_POINTS = 16

# The royal check's seeded sample.
ROYAL_SAMPLES = 64
ROYAL_SEED = 11


# ---------------------------------------------------------------------------
# The royal check
# ---------------------------------------------------------------------------

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
