"""Numerical enactment of the automorphism-characterization argument.

Steps 1-3 of the argument that every automorphism of the symmetrized bidisc is a
lifted disc automorphism are scalar arithmetic on a Taylor table and live in
candidates, whose names this module re-exports. Step 4: fixing the royal variety
pointwise forces C = 0 in the weighted form (alpha*s, d*p + C*s**2).

This module adds the array half: a pipeline that drives any given map through steps
1-4 and reports how far it is from the identity. Steps 1-3 read a map through its
Taylor coefficients at the origin, which the pipeline computes in one way for every
map: the trapezoidal-rule Cauchy integral over a torus inside the domain, i.e. a
fixed weighted sum of the map's values on a grid of that torus, the weights for all
coefficients read forming one matrix. For a map analytic on the domain this
converges geometrically in the grid size (Bornemann, Found. Comput. Math. 11, 2011;
Trefethen & Weideman, SIAM Rev. 56, 2014), and on a polynomial of low enough degree
it is exact up to rounding. Step 4 reads the map itself on a seeded royal sample, so
a term above the truncation degree cannot hide from it. Every map it takes works as
a numpy ufunc does: it gets one SymPoint whose coordinates are complex scalars or
complex128 arrays and returns a SymPoint of the same shape (wrap a scalar-only
callable with np.vectorize; another shape raises PreconditionUnmet), so the torus
grid and the royal sample, stacked, go through the map in one call. These fixed
inputs are built once, when this module is imported: the stacked sample, views of
its grid and royal parts, and the Cauchy-weight matrix, all read-only.

Everything here is seeded and deterministic; experiment results are pinned by
(seed, count) alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The scalar half, re-exported so that proof_lab.X keeps working for its public names,
# and orbit_sample, which lives in sampling. The benchmark is a caller: perfbench/sections.py
# calls pl.commutator_experiment and pl.orbit_sample, perfbench/run.py pl.orbit_sample, and
# perfbench/layers.py traces proof_lab.evaluate_candidate, weighted_form_extract and orbit_sample.
from .candidates import (
    CERTIFY_TOL, DEGREE_CAP, CandidateMap, CommutatorReport, cauchy_bound_check,
    commutator_experiment, commutator_jacobian, evaluate_candidate, iterate_commutator,
    make_candidate, origin_jacobian, weighted_form_extract,
)
from .errors import PreconditionUnmet
from .g2_group import apply_g2, transport_to_origin
from .sampling import orbit_sample, random_disc_points, rng_from_seed
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
    return _verdict(float(_distances(_ROYAL, _images(map_like, _ROYAL)).max()), "royal sample")


def _distances(pts: SymPoint, img: SymPoint):
    """The larger coordinate distance between each point and its image, as an array."""
    # np.maximum, unlike max, passes a NaN on
    return np.maximum(abs(pts.s - img.s), abs(pts.p - img.p))


def _verdict(residual: float, sample: str) -> tuple[bool, float]:
    """(residual <= CERTIFY_TOL, residual), the residual being a sample's largest distance."""
    if not math.isfinite(residual):
        raise ArithmeticError(f"the map has a non-finite value on the {sample}")
    return residual <= CERTIFY_TOL, residual


# ---------------------------------------------------------------------------
# Taylor extraction
# ---------------------------------------------------------------------------

_KEYS = [(j, k) for j in range(DEGREE_CAP + 1) for k in range(DEGREE_CAP // 2 + 1)
         if 0 < j + 2 * k <= DEGREE_CAP]  # sorted; (0, 0), the origin image, is checked apart


def _certify_inputs() -> tuple:
    """Certify's fixed inputs (sample, grid, royal, readout), read-only.

    sample stacks the torus grid, whose entry j*n + k has angles 2*pi*(j, k)/n
    (n = TORUS_POINTS), and the seeded royal sample (2*lam, lam**2), |lam| < 0.9, so
    that one map call reads both; grid and royal are views of its two parts. readout
    holds the Cauchy weights: its row for _KEYS[i] = (j, k) is the outer product of
    rows j and k of the n-point DFT matrix, divided by n * r_s**j and n * r_p**k, laid
    out as the grid is. The exponent j*m is reduced mod n before scaling by 2*pi/n, so
    each DFT entry is a root of unity rounded once, not the exp of a large rounded angle.
    """
    n = TORUS_POINTS
    rs, rp = TORUS_RADII
    m = np.arange(n)
    circle = np.exp(2j * math.pi * m / n)
    lam = random_disc_points(rng_from_seed(ROYAL_SEED), ROYAL_SAMPLES, 0.9)
    s = np.concatenate((np.repeat(rs * circle, n), 2.0 * lam))
    p = np.concatenate((np.tile(rp * circle, n), lam * lam))
    dft = np.exp(-2j * math.pi * (np.outer(m, m) % n) / n)
    rows_s, rows_p = (dft / (n * r ** m[:, None]) for r in TORUS_RADII)
    readout = np.array([np.outer(rows_s[j], rows_p[k]).ravel() for j, k in _KEYS])
    for array in (s, p, readout):
        array.setflags(write=False)  # so that no map can write into them
    g = n * n
    return SymPoint(s, p), SymPoint(s[:g], p[:g]), SymPoint(s[g:], p[g:]), readout


_SAMPLE, _GRID, _ROYAL, _READOUT = _certify_inputs()


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
    grid of the torus |s| = r_s, |p| = r_p (TORUS_RADII), part of the pipeline's
    read-only fixed inputs, and reads the coefficient of s**j * p**k as the weighted sum
    of the grid values that the trapezoidal rule gives its Cauchy integral, one matrix
    product per coordinate. Only monomials with j + 2k <= DEGREE_CAP are kept, since
    higher ones would amplify rounding by r**-(j+2k). An origin image farther than
    CERTIFY_TOL from the origin, or values of another shape than the grid's, raise
    PreconditionUnmet, a non-finite image on the grid ArithmeticError.
    """
    _check_origin_image(map_like(ORIGIN))
    return _readout(_images(map_like, _GRID))


def _check_origin_image(at_origin: SymPoint) -> None:
    """Raise PreconditionUnmet unless a map's origin image is within CERTIFY_TOL of it."""
    # negated, so that a NaN image fails the test
    if not (abs(at_origin.s) <= CERTIFY_TOL and abs(at_origin.p) <= CERTIFY_TOL):
        raise PreconditionUnmet(f"map moves the origin to {at_origin}")


def _readout(images: SymPoint) -> CandidateMap:
    """fit_candidate's Cauchy readout of the torus grid's values: _READOUT times each coordinate.
    Finite values are counted with np.count_nonzero, here about 1 us faster than ndarray.all."""
    s, p = images
    if np.count_nonzero(np.isfinite(s)) + np.count_nonzero(np.isfinite(p)) != 2 * len(s):
        raise ArithmeticError("the map has a non-finite value on the torus grid")
    cs, cp = np.dot(_READOUT, s).tolist(), np.dot(_READOUT, p).tolist()
    return CandidateMap(dict(zip(_KEYS, zip(cs, cp))))


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
    have another shape than the sample, PoleEncountered (before the weighted
    form is read) when a value on the stacked sample sits on the transport's pole,
    and ArithmeticError when the map has a non-finite value at the origin (checked
    before the transport), on the torus grid or on the royal sample.
    """
    img = map_like(ORIGIN)
    if not (cmath.isfinite(img.s) and cmath.isfinite(img.p)):
        raise ArithmeticError("the map has a non-finite value at the origin")
    transport = transport_to_origin(img, CERTIFY_TOL)
    _check_origin_image(apply_g2(transport, img))
    moved = apply_g2(transport, _images(map_like, _SAMPLE))
    n = TORUS_POINTS**2
    raw = _readout(SymPoint(moved.s[:n], moved.p[:n]))

    alpha, d, C = weighted_form_extract(raw)
    if abs(alpha) < 0.1:  # alpha is the Jacobian's (1,1) entry
        raise PreconditionUnmet(f"degenerate rotation part |m11| = {abs(alpha)}")
    rot = alpha / abs(alpha)
    rot_inv = rot.conjugate()
    alpha, d, C = rot_inv * alpha, rot_inv * rot_inv * d, rot_inv * rot_inv * C
    distances = _distances(_SAMPLE, SymPoint(rot_inv * moved.s, rot_inv * rot_inv * moved.p))
    grid_residual, royal_residual = np.maximum.reduceat(distances, (0, n)).tolist()
    grid_ok, grid_residual = _verdict(grid_residual, "torus grid")
    royal_ok, royal_residual = _verdict(royal_residual, "royal sample")
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
