import math
import sys

import numpy as np
import pytest
from hypothesis import example, given

from symbidisc import (
    MembershipVerdict,
    NotOnRoyalVariety,
    ParameterOutOfDomain,
    SymPoint,
    desymmetrize,
    in_g2,
    in_sigma2,
    royal_param,
    symmetrize,
    transport_to_origin,
)
from symbidisc.sampling import random_disc, random_disc_points, random_interior, rng_from_seed

from helpers import cloud_points, disc_complex, root_cloud, unordered_dist


def np_roots(pt: SymPoint):
    """Independent oracle: numpy's companion-matrix root finder."""
    return np.roots([1.0, -pt.s, pt.p])


class TestSymmetrize:
    def test_double_point(self):
        assert symmetrize(0.5, 0.5) == SymPoint(1.0, 0.25)

    def test_origin(self):
        assert symmetrize(0, 0) == SymPoint(0, 0)

    def test_opposite_pair(self):
        pt = symmetrize(0.3, -0.3)
        assert pt.s == 0 and abs(pt.p + 0.09) <= 1e-17

    @given(disc_complex(0.95), disc_complex(0.95))
    def test_symmetric_in_arguments(self, l1, l2):
        assert symmetrize(l1, l2) == symmetrize(l2, l1)


class TestDesymmetrize:
    def test_double_root(self):
        rp = desymmetrize(SymPoint(0.8, 0.16))
        assert abs(rp.first - 0.4) <= 1e-8 and abs(rp.second - 0.4) <= 1e-8

    def test_zero_product(self):
        rp = desymmetrize(SymPoint(0.5, 0))
        assert (rp.first, rp.second) == (0, 0.5)

    def test_pure_square(self):
        rp = desymmetrize(SymPoint(0, -0.25))
        assert (rp.first, rp.second) == (-0.5, 0.5)

    def test_origin(self):
        rp = desymmetrize(SymPoint(0, 0))
        assert (rp.first, rp.second) == (0, 0)

    @pytest.mark.parametrize("pt", [SymPoint(1e160, 0), SymPoint(0, 1.7e308j),
                                    SymPoint(1e300, 1e300)],
                             ids=["huge_s", "huge_p", "huge_s_and_p"])
    def test_overflowing_roots_raise(self, pt):
        # s*s - 4p overflows, and the roots would come out as inf and NaN
        with pytest.raises(ArithmeticError):
            desymmetrize(pt)

    def test_large_finite_roots(self):
        rp = desymmetrize(SymPoint(1e150, 0))
        assert (rp.first, rp.second) == (0, 1e150)

    def test_canonical_order(self):
        rng = rng_from_seed(3)
        for _ in range(500):
            rp = desymmetrize(random_interior(rng))
            assert (rp.first.real, rp.first.imag) <= (rp.second.real, rp.second.imag)

    def test_matches_numpy_roots(self):
        rng = rng_from_seed(4)
        for _ in range(2_000):
            pt = SymPoint(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            rp = desymmetrize(pt)
            assert unordered_dist((rp.first, rp.second), tuple(np_roots(pt))) <= 1e-9

    def test_roundtrip_from_pairs(self):
        rng = rng_from_seed(5)
        for _ in range(2_000):
            l1, l2 = random_disc(rng), random_disc(rng)
            rp = desymmetrize(symmetrize(l1, l2))
            assert unordered_dist((rp.first, rp.second), (l1, l2)) <= 1e-9

    def test_roundtrip_from_points(self):
        rng = rng_from_seed(6)
        for _ in range(2_000):
            pt = random_interior(rng)
            rp = desymmetrize(pt)
            back = symmetrize(rp.first, rp.second)
            assert abs(back.s - pt.s) <= 1e-10 * max(1.0, abs(pt.s))
            assert abs(back.p - pt.p) <= 1e-10 * max(1.0, abs(pt.p))

    def test_stable_at_double_root_locus(self):
        rng = rng_from_seed(9)
        for _ in range(1_000):
            a = random_disc(rng, 0.999)
            rp = desymmetrize(SymPoint(2 * a, a * a))
            assert abs(rp.first - rp.second) <= 1e-6

    def test_against_50_digit_mpmath(self):
        # Rounding s and p by eps moves a simple root r by (r*ds - dp)/(r1 - r2), at
        # most about 3*eps*max(1, |r|)**2/|r1 - r2|: the root-separation condition
        # number. The exact roots of the double inputs come from mpmath at 50 digits.
        # Worst ratio of error to eps*max(1, |r|)**2/|r1 - r2| measured here: 2.26 on
        # generic pairs with roots up to modulus 3, 0.92 on pairs 1e-12 to 1e-2 apart
        mpmath = pytest.importorskip("mpmath")
        rng = rng_from_seed(7)
        n = 1000
        gaps = 10.0 ** -rng.uniform(2, 12, n) * np.exp(2j * np.pi * rng.random(n))
        near = random_disc_points(rng, n, 0.999)
        clouds = {"generic": (random_disc_points(rng, n, 3.0), random_disc_points(rng, n, 3.0)),
                  "near_royal": (near, near + gaps)}
        for name, worst in (("generic", 2.26), ("near_royal", 0.92)):
            ratios = []
            with mpmath.workdps(50):
                for l1, l2 in zip(*(lam.tolist() for lam in clouds[name])):
                    pt = symmetrize(l1, l2)
                    s, p = (mpmath.mpc(z.real, z.imag) for z in pt)
                    d = mpmath.sqrt(s * s - 4 * p)
                    r1, r2 = (s + d) / 2, (s - d) / 2
                    rp = desymmetrize(pt)
                    error = unordered_dist((mpmath.mpc(rp.first.real, rp.first.imag),
                                            mpmath.mpc(rp.second.real, rp.second.imag)), (r1, r2))
                    scale = max(1.0, abs(r1), abs(r2)) ** 2 / abs(r1 - r2)
                    ratios.append(float(error / (sys.float_info.epsilon * scale)))
            assert max(ratios) <= 1.5 * worst, name

    @given(disc_complex(0.95), disc_complex(0.95))
    @example(0.5, 0.5 + 5e-9j)  # recovered as 0.5+2.5e-9j twice: error 2.5e-9
    def test_roundtrip_property(self, l1, l2):
        # Rounding s and p moves a simple root l1 by (l1*ds - dp)/(l1 - l2): with
        # |ds|, |dp| within a few units of roundoff, and with desymmetrize's own
        # discriminant rounding, that is about 3*eps/|l1 - l2| for |l1|, |l2| <= 0.95
        # (1.7*eps measured on 3e5 near-double pairs). Near-double roots are only
        # determined to that accuracy, so the bound grows as they merge.
        gap = abs(l1 - l2)
        bound = 1e-9 + (4 * sys.float_info.epsilon / gap if gap else math.inf)
        rp = desymmetrize(symmetrize(l1, l2))
        assert unordered_dist((rp.first, rp.second), (l1, l2)) <= bound


class TestMembership:
    def test_disc_examples(self):
        # (lam, 0) has the roots lam and 0, so its margin is the disc's 1 - |lam|
        assert in_g2(SymPoint(0, 0), 1e-9) == ("interior", 1.0)
        assert in_g2(SymPoint(1, 0), 1e-9) == ("boundary", 0.0)
        assert in_g2(SymPoint(1.5j, 0), 1e-9) == ("exterior", -0.5)
        pt = SymPoint(1 - 1e-9, 0)  # a margin equal to the tolerance is on the boundary
        assert in_g2(pt, in_g2(pt).margin).region == "boundary"

    def test_classify_rejects_nan(self):
        # s*s - 4p overflows, so the margin is NaN and passes none of the three tests
        with pytest.raises(ArithmeticError, match="membership margin nan "):
            in_g2(SymPoint(0, 1.7e308j))

    def test_negative_tolerance_raises(self):
        # roots 0.5 and 1.5, margin -0.5: a tol of -1 would pass the interior test
        with pytest.raises(ParameterOutOfDomain):
            in_g2(SymPoint(2, 0.75), -1.0)
        with pytest.raises(ParameterOutOfDomain):  # a NaN tol, by the same rule
            in_g2(SymPoint(2, 0.75), math.nan)

    def test_tiny_negative_tolerance_raises_just_outside(self):
        # roots 0 and 1 + 1e-13, margin about -1e-13, above -1e-12
        pt = symmetrize(0.0, 1.0 + 1e-13)
        assert in_g2(pt).region == "boundary" and -1e-12 < in_g2(pt).margin < 0
        with pytest.raises(ParameterOutOfDomain):
            in_g2(pt, -1e-12)

    def test_g2_origin(self):
        verdict = in_g2(SymPoint(0, 0))
        assert verdict.region == "interior" and verdict.margin == 1.0

    def test_g2_boundary_double_root(self):
        assert in_g2(SymPoint(2, 1)).region == "boundary"

    def test_g2_regression_point(self):
        # pinned value cross-checked against the companion-matrix oracle
        pt = SymPoint(0.9 + 0.3j, 0.2 - 0.1j)
        verdict = in_g2(pt)
        assert verdict.region == "interior"
        assert abs(verdict.margin - 0.07058277121017775) <= 1e-12
        oracle = 1.0 - max(abs(r) for r in np_roots(pt))
        assert abs(verdict.margin - oracle) <= 1e-12

    def test_bounding_box(self):
        rng = rng_from_seed(10)
        for _ in range(2_000):
            pt = random_interior(rng)
            assert in_g2(pt).region == "interior"
            assert abs(pt.s) < 2 and abs(pt.p) < 1

    def test_royal_points_are_interior(self):
        rng = rng_from_seed(11)
        for _ in range(1_000):
            lam = random_disc(rng, 0.999)
            assert in_g2(SymPoint(2 * lam, lam * lam)).region == "interior"

    def test_overflowing_point_raises(self):
        # roots of modulus ~1.3e154, but s*s - 4p overflows and the margin is NaN
        with pytest.raises(ArithmeticError):
            in_g2(SymPoint(0j, 1.7e308j))

    def test_huge_coordinates_never_give_a_nan_margin(self):
        values = [0.0, 1e150, -1e150, 1e200, -1e200, 1e300, -1e308, 1.7e308, 1e-300]
        coords = [complex(x, y) for x in values for y in values]
        raised = 0
        for s in coords:
            for p in coords:
                try:
                    verdict = in_g2(SymPoint(s, p))
                except ArithmeticError:
                    raised += 1
                    continue
                assert not math.isnan(verdict.margin), (s, p)
                assert (verdict.region == "boundary") == (abs(verdict.margin) <= 1e-9), (s, p)
        assert raised == 4_433  # every point whose margin overflowed into NaN


class TestUnorderedRoots:
    """in_g2 and the ordered desymmetrize see the same two roots, so equal verdicts."""

    def test_in_g2_matches_ordered_roots_bit_for_bit(self):
        rng = rng_from_seed(31)
        points = [SymPoint(0j, 0j)] + cloud_points(*root_cloud(rng, 25_000))
        tol = 1e-9
        differ = []
        for pt in points:
            rp = desymmetrize(pt)
            margin = 1.0 - max(abs(rp.first), abs(rp.second))
            region = "interior" if margin > tol else "exterior" if margin < -tol else "boundary"
            # repr tells -0.0 from 0.0, which == does not
            if repr(in_g2(pt, tol)) != repr(MembershipVerdict(region, margin)):
                differ.append(pt)
        assert differ == []


class TestAglerYoung:
    """in_g2 against (s, p) in G2 iff |s - conj(s)*p| < 1 - |p|**2 (Agler-Young 2001).

    The criterion needs no roots. Its float margin is good to about 1e-14 for
    |s| <= 2.4 and |p| <= 1.44; in_g2's margin is good to about sqrt(1e-16) ~ 1e-8
    where the roots nearly coincide. Points are compared only where both margins
    clear those bands with room to spare.
    """

    AY_BAND = 1e-13
    ROOT_BAND = 1e-7

    def test_interior_verdicts_agree(self):
        lam1, lam2 = root_cloud(rng_from_seed(41), 200_000)
        s, p = lam1 + lam2, lam1 * lam2
        ay = (1.0 - np.abs(p) ** 2) - np.abs(s - np.conj(s) * p)
        verdicts = [in_g2(pt) for pt in cloud_points(lam1, lam2)]
        margin = np.array([v.margin for v in verdicts])
        interior = np.array([v.region == "interior" for v in verdicts])
        compared = (np.abs(ay) > self.AY_BAND) & (np.abs(margin) > self.ROOT_BAND)
        disagree = int((compared & (interior != (ay > 0))).sum())
        print(f"Agler-Young: {int(compared.sum())} of {len(verdicts)} points compared, "
              f"{disagree} disagree")
        assert disagree == 0
        assert compared.sum() >= 0.95 * len(verdicts)
        assert interior[compared].any() and not interior[compared].all()


class TestSigma2:
    def test_royal_point(self):
        lam = 0.3j
        member, residual = in_sigma2(SymPoint(2 * lam, lam * lam))
        assert member and residual <= 1e-16

    def test_origin(self):
        assert in_sigma2(SymPoint(0, 0)) == (True, 0.0)

    def test_non_royal(self):
        member, residual = in_sigma2(SymPoint(1, 0))
        assert not member and residual == 1.0

    def test_nan_point_after_an_overflow_is_not_named_an_overflow(self):
        # CPython's abs() of a complex with a NaN part leaves errno as the caught overflow
        # set it; a NaN point still reads as NaN, and a true overflow still raises
        nan_point = SymPoint(complex("nan"), 0j)  # built before the overflow
        with pytest.raises(OverflowError):  # s**2 - 4p = 1.7e308 * (1 + 1j)
            in_sigma2(SymPoint(0j, complex(-4.25e307, -4.25e307)))
        with pytest.raises(OverflowError):
            abs(complex(1.7e308, 1.7e308))
        member, residual = in_sigma2(nan_point)
        assert not member and math.isnan(residual)

    def test_royal_param_examples(self):
        assert royal_param(SymPoint(0, 0)) == 0
        assert royal_param(SymPoint(1.0, 0.25)) == 0.5
        a = 0.1 - 0.7j
        assert abs(royal_param(SymPoint(2 * a, a * a)) - a) <= 1e-15

    def test_royal_param_rejects_off_variety(self):
        with pytest.raises(NotOnRoyalVariety):
            royal_param(SymPoint(1, 0))

    @pytest.mark.parametrize("pt,reason", [
        (SymPoint(1, 0), "discriminant residual 1.0 exceeds 1e-09"),
        (SymPoint(4, 4), "|s/2| = 2.0 is not below 1 + 1e-09"),
    ], ids=["residual", "off_the_disc"])
    def test_royal_param_names_the_failed_condition(self, pt, reason):
        # (4, 4) = (2*2, 2**2) has residual 0: only |s/2| < 1 + tol fails
        with pytest.raises(NotOnRoyalVariety) as excinfo:
            royal_param(pt)
        assert str(excinfo.value) == reason

    def test_param_squares_to_p(self):
        rng = rng_from_seed(13)
        for _ in range(500):
            a = random_disc(rng)
            got = royal_param(SymPoint(2 * a, a * a))
            assert abs(got * got - a * a) <= 1e-9


class TestToleranceRule:
    """Every tol, of the membership and royal-variety tests alike, rejects a negative
    or NaN value with one message."""

    @pytest.mark.parametrize("tol", [-1e-12, math.nan], ids=["negative", "nan"])
    @pytest.mark.parametrize("check,pt", [
        (in_g2, SymPoint(0, 0)),
        # residual 0.0 <= tol fails for any tol < 0 or NaN, so (False, 0.0) would call
        # the origin non-royal, and royal_param would blame "discriminant residual 0.0"
        (in_sigma2, SymPoint(0, 0)),
        (royal_param, SymPoint(1, 0.25)),
        (transport_to_origin, SymPoint(1, 0.25)),
    ], ids=["in_g2", "in_sigma2", "royal_param", "transport_to_origin"])
    def test_bad_tolerance_raises_and_zero_is_exact(self, check, pt, tol):
        with pytest.raises(ParameterOutOfDomain, match=f"^tolerance {tol} is not >= 0$"):
            check(pt, tol)
        # each point is exact, so the exact test agrees with the default tolerance
        assert check(pt, 0.0) == check(pt)
