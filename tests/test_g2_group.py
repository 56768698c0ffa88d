import cmath

import numpy as np
import pytest
from hypothesis import given

from symbidisc import (
    NotOnRoyalVariety,
    ORIGIN,
    ParameterOutOfDomain,
    PoleEncountered,
    SymPoint,
    apply_g2,
    apply_g2_via_roots,
    apply_moebius,
    compose,
    compose_g2,
    desymmetrize,
    invert_g2,
    jacobian_at,
    lift,
    make_moebius,
    rotation,
    in_g2,
    in_sigma2,
    symmetrize,
    transport_to_origin,
)
from symbidisc.sampling import random_disc, random_interior, random_moebius, random_unit, rng_from_seed

from helpers import (
    CARATHEODORY_GRID,
    caratheodory_tanh,
    cloud_points,
    g2_equal,
    identity,
    interior_point,
    moebius,
    moebius_equal,
    origin_caratheodory_tanh,
    pseudo_hyperbolic,
    pt_dist,
    root_cloud,
)


def near_royal_point(rng, scale=1e-6):
    lam = random_disc(rng, 0.9)
    eps1 = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    eps2 = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return SymPoint(2 * lam + eps1, lam * lam + eps2)


class TestApply:
    def test_identity_fixes_points(self):
        H = lift(identity())
        pt = SymPoint(0.4, 0.1)
        assert apply_g2(H, pt) == pt

    def test_transport_example(self):
        H = lift(make_moebius(1, 0.4))
        img = apply_g2(H, SymPoint(0.8, 0.16))
        assert max(abs(img.s), abs(img.p)) <= 1e-14

    def test_rotation_formula_exact(self):
        img = apply_g2(rotation(1j), SymPoint(0.4, 0.1))
        assert img.s == 0.4j and img.p == -0.1

    def test_rotation_minus_one(self):
        img = apply_g2(rotation(-1), SymPoint(0.5, 0.2))
        assert img.s == -0.5 and img.p == 0.2

    @pytest.mark.parametrize("route", [apply_g2, apply_g2_via_roots], ids=["closed", "roots"])
    def test_degenerate_denominator(self, route):
        # the root 2 of (2, 0) is the pole 1/conj(a); both routes raise one type there
        H = lift(make_moebius(1, 0.5))
        with pytest.raises(PoleEncountered):
            route(H, SymPoint(2.0, 0.0))

    @pytest.mark.parametrize("a", [0.3, 0, 0.5 + 0.5j])
    @pytest.mark.parametrize("pt", [SymPoint(1e160, 0), SymPoint(0, 1.7e308j),
                                    SymPoint(1e300, 1e300)],
                             ids=["huge_s", "huge_p", "huge_s_and_p"])
    def test_root_route_raises_on_overflowing_roots(self, pt, a):
        # s*s - 4p overflows, the roots come out NaN, and so would the image
        with pytest.raises(ArithmeticError, match="is not finite") as excinfo:
            apply_g2_via_roots(lift(make_moebius(1, a)), pt)
        assert excinfo.type is ArithmeticError

    def test_both_routes_agree_on_example(self):
        H = lift(make_moebius(1, 0.3j))
        pt = SymPoint(0.4, 0.1)
        assert pt_dist(apply_g2(H, pt), apply_g2_via_roots(H, pt)) <= 1e-12

    def test_two_route_agreement(self):
        rng = rng_from_seed(21)
        for _ in range(2_000):
            H = lift(random_moebius(rng))
            pt = random_interior(rng)
            assert pt_dist(apply_g2(H, pt), apply_g2_via_roots(H, pt)) <= 1e-10

    def test_two_route_agreement_near_royal(self):
        rng = rng_from_seed(22)
        for _ in range(1_000):
            H = lift(random_moebius(rng))
            pt = near_royal_point(rng)
            assert pt_dist(apply_g2(H, pt), apply_g2_via_roots(H, pt)) <= 1e-10

    def test_royal_variety_invariant(self):
        rng = rng_from_seed(23)
        for _ in range(1_000):
            H = lift(random_moebius(rng))
            lam = random_disc(rng, 0.999)
            img = apply_g2(H, SymPoint(2 * lam, lam * lam))
            assert in_sigma2(img, 1e-10)[0]

    def test_interior_preserved(self):
        rng = rng_from_seed(24)
        for _ in range(2_000):
            H = lift(random_moebius(rng))
            img = apply_g2(H, random_interior(rng))
            assert in_g2(img).margin > 0

    @given(moebius(), interior_point())
    def test_two_route_property(self, h, pt):
        H = lift(h)
        assert pt_dist(apply_g2(H, pt), apply_g2_via_roots(H, pt)) <= 1e-10

    def test_root_route_matches_ordered_roots_bit_for_bit(self):
        # the root route maps the two roots in whatever order they come; IEEE + and *
        # are commutative, so the image equals the one built from the sorted pair
        rng = rng_from_seed(26)
        elements = [random_moebius(rng) for _ in range(7)]
        points = [SymPoint(0j, 0j)] + cloud_points(*root_cloud(rng, 25_000))
        differ = []
        for i, pt in enumerate(points):
            h = elements[i % len(elements)]
            rp = desymmetrize(pt)
            want = symmetrize(apply_moebius(h, rp.first), apply_moebius(h, rp.second))
            # repr tells -0.0 from 0.0, which == does not
            if repr(apply_g2_via_roots(lift(h), pt)) != repr(want):
                differ.append((i, pt))
        assert differ == []


class TestGroupStructure:
    def test_functoriality(self):
        rng = rng_from_seed(25)
        for _ in range(1_000):
            h, g = random_moebius(rng), random_moebius(rng)
            pt = random_interior(rng)
            sequential = apply_g2(lift(h), apply_g2(lift(g), pt))
            composed = apply_g2(lift(compose(h, g)), pt)
            assert pt_dist(sequential, composed) <= 1e-10
            assert g2_equal(compose_g2(lift(h), lift(g)), lift(compose(h, g)), 1e-12)

    def test_inverse_is_two_sided(self):
        rng = rng_from_seed(26)
        for _ in range(2_000):
            H = lift(random_moebius(rng))
            pt = random_interior(rng)
            assert pt_dist(apply_g2(invert_g2(H), apply_g2(H, pt)), pt) <= 1e-10

    def test_inverse_of_rotation(self):
        tau = cmath.exp(0.8j)
        assert g2_equal(invert_g2(rotation(tau)), rotation(tau.conjugate()), 1e-15)

    def test_inverse_undoes_transport(self):
        H = invert_g2(lift(make_moebius(1, 0.5)))
        img = apply_g2(H, ORIGIN)
        assert pt_dist(img, SymPoint(1.0, 0.25)) <= 1e-15

    def test_rotation_conjugation_closed_form(self):
        # conjugating (sigma, a) by the rotation lift of tau gives (sigma, a/tau)
        rng = rng_from_seed(27)
        for _ in range(300):
            h = random_moebius(rng)
            tau = random_unit(rng)
            conjugated = compose_g2(rotation(1 / tau), compose_g2(lift(h), rotation(tau)))
            assert moebius_equal(conjugated.h, make_moebius(h.tau, h.a / tau), 1e-10)

    def test_origin_stabilizer_is_rotations(self):
        rng = rng_from_seed(28)
        for _ in range(500):
            tau = random_unit(rng)
            fixed = apply_g2(lift(make_moebius(tau, 0)), ORIGIN)
            assert max(abs(fixed.s), abs(fixed.p)) <= 1e-10
            a = random_disc(rng, 0.95)
            if abs(a) <= 1e-9:
                continue
            moved = apply_g2(lift(make_moebius(tau, a)), ORIGIN)
            assert max(abs(moved.s), abs(moved.p)) >= abs(a) / 2

    def test_lift_is_injective(self):
        probes = (SymPoint(0.3, 0.05), SymPoint(-0.2, 0.1j), SymPoint(0.1 + 0.4j, -0.08))
        rng = rng_from_seed(29)
        for _ in range(100):
            h, g = random_moebius(rng), random_moebius(rng)
            if moebius_equal(h, g, 1e-6):
                continue
            assert any(pt_dist(apply_g2(lift(h), q), apply_g2(lift(g), q)) > 1e-12
                       for q in probes)


class TestRotation:
    def test_rotation_one_is_identity(self):
        assert g2_equal(rotation(1), lift(identity()), 0.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ParameterOutOfDomain):
            rotation(0.5)


class TestTransport:
    def test_origin_gives_identity(self):
        assert g2_equal(transport_to_origin(ORIGIN), lift(identity()), 0.0)

    def test_example(self):
        H = transport_to_origin(SymPoint(0.8, 0.16))
        assert moebius_equal(H.h, make_moebius(1, 0.4), 1e-15)
        assert pt_dist(apply_g2(H, SymPoint(0.8, 0.16)), ORIGIN) <= 1e-15

    def test_rejects_non_royal(self):
        with pytest.raises(NotOnRoyalVariety):
            transport_to_origin(SymPoint(1, 0))

    def test_rejects_boundary_royal(self):
        with pytest.raises(NotOnRoyalVariety):
            transport_to_origin(SymPoint(2, 1))

    def test_seeded_images_hit_origin(self):
        rng = rng_from_seed(30)
        for _ in range(1_000):
            a = random_disc(rng, 0.999)
            pt = SymPoint(2 * a, a * a)
            img = apply_g2(transport_to_origin(pt), pt)
            assert max(abs(img.s), abs(img.p)) <= 1e-12


class TestJacobian:
    def test_identity(self):
        J = jacobian_at(lift(identity()), SymPoint(0.2, 0.05))
        assert abs(J.m11 - 1) <= 1e-10 and abs(J.m22 - 1) <= 1e-10
        assert abs(J.m12) <= 1e-10 and abs(J.m21) <= 1e-10

    def test_rotation_is_diagonal(self):
        tau = cmath.exp(0.6j)
        J = jacobian_at(rotation(tau), SymPoint(0.3, 0.1))
        assert abs(J.m11 - tau) <= 1e-9 and abs(J.m22 - tau * tau) <= 1e-9
        assert abs(J.m12) <= 1e-9 and abs(J.m21) <= 1e-9

    def test_matches_root_route_differences(self):
        # central differences of the root route, an oracle independent of the closed form
        H = lift(make_moebius(1, 0.3))
        J = jacobian_at(H, ORIGIN)
        step = 1e-6

        def diff(ds, dp):
            fwd = apply_g2_via_roots(H, SymPoint(ds, dp))
            bwd = apply_g2_via_roots(H, SymPoint(-ds, -dp))
            return (fwd.s - bwd.s) / (2 * step), (fwd.p - bwd.p) / (2 * step)

        (k11, k21), (k12, k22) = diff(step, 0), diff(0, step)
        assert abs(J.m11 - k11) <= 1e-6
        assert abs(J.m12 - k12) <= 1e-6
        assert abs(J.m21 - k21) <= 1e-6
        assert abs(J.m22 - k22) <= 1e-6

    def test_triangular_at_fixed_origin(self):
        rng = rng_from_seed(33)
        for _ in range(200):
            tau = random_unit(rng)
            J = jacobian_at(rotation(tau), ORIGIN)
            assert abs(J.m21) <= 1e-8 and abs(J.m12) <= 1e-8
            assert abs(J.m11 - tau) <= 1e-7 and abs(J.m22 - tau * tau) <= 1e-7


# ---------------------------------------------------------------------------
# High-precision oracle: the closed form and its Jacobian at 50 digits
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52
# Worst errors read on the 2,000 pairs of seed 606, in units of EPS: 13.0 for
# apply_g2 and 25.1 for jacobian_at (medians 0.67 and 0.81). The bounds leave a
# factor of 2 for other platforms' libm and complex division.
APPLY_WORST_EPS = 26
JACOBIAN_WORST_EPS = 50


def closed_form_mp(mpmath, tau, a, s, p):
    """apply_g2's expanded closed form and its quotient-rule Jacobian, in mpmath.

    The doubles enter exactly; every operation after that runs at the working
    precision, so the result is the exact value to about 50 digits.
    """
    tau, a, s, p = (mpmath.mpc(z.real, z.imag) for z in (tau, a, s, p))
    ac = mpmath.conj(a)
    n1 = (1 + a * ac) * s - 2 * ac * p - 2 * a
    n2 = p - a * s + a * a
    den = 1 - ac * s + ac * ac * p  # d(den)/ds = -conj(a), d(den)/dp = conj(a)^2
    image = (tau * n1 / den, tau * tau * n2 / den)
    jacobian = (tau * ((1 + a * ac) * den + n1 * ac) / den**2,
                tau * (-2 * ac * den - n1 * ac * ac) / den**2,
                tau * tau * (-a * den + n2 * ac) / den**2,
                tau * tau * (den - n2 * ac * ac) / den**2)
    return image, jacobian


def test_closed_form_against_50_digit_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def error(got, exact):  # relative where |exact| > 1, absolute below
        return float(abs(mpmath.mpc(got.real, got.imag) - exact) / max(1, abs(exact)))

    rng = rng_from_seed(606)
    apply_errors, jacobian_errors = [], []
    with mpmath.workdps(50):
        for _ in range(2000):
            H, pt = lift(random_moebius(rng)), random_interior(rng)
            image, jacobian = closed_form_mp(mpmath, H.h.tau, H.h.a, pt.s, pt.p)
            apply_errors.append(max(map(error, apply_g2(H, pt), image)))
            jacobian_errors.append(max(map(error, jacobian_at(H, pt), jacobian)))
    for errors, worst in ((apply_errors, APPLY_WORST_EPS), (jacobian_errors, JACOBIAN_WORST_EPS)):
        errors.sort()
        assert errors[len(errors) // 2] <= EPS
        assert errors[-1] <= worst * EPS


# ---------------------------------------------------------------------------
# Symbolic oracle: the closed form is the root route, and jacobian_at its derivative
# ---------------------------------------------------------------------------

class TestClosedFormSymbolic:
    """_lift_form's grouped rows and jacobian_at's entries, transcribed into sympy.

    a and its conjugate are independent symbols, so each identity holds as one of
    rational functions, for conj(a) in particular.
    """

    @pytest.fixture(scope="class")
    def symbolic(self):
        sympy = pytest.importorskip("sympy")
        tau, a, abar, s, p = sympy.symbols("tau a abar s p")
        den = 1 - abar * s + abar * abar * p
        S = tau * ((s - 2 * a) + abar * (a * s - 2 * p)) / den
        P = tau * tau * ((p - a * s) + a * a) / den
        jacobian = ((tau * (1 + abar * a) + abar * S) / den,
                    (-2 * tau * abar - abar * abar * S) / den,
                    (-tau * tau * a + abar * P) / den,
                    (tau * tau - abar * abar * P) / den)
        return sympy, (tau, a, abar, s, p), S, P, jacobian

    def test_closed_form_equals_root_route(self, symbolic):
        sympy, (tau, a, abar, s, p), S, P, _ = symbolic
        r1, r2 = sympy.symbols("r1 r2")

        def h(r):  # apply_moebius
            return tau * (r - a) / (1 - abar * r)

        roots = {s: r1 + r2, p: r1 * r2}
        assert sympy.simplify(S.subs(roots) - h(r1) - h(r2)) == 0
        assert sympy.simplify(P.subs(roots) - h(r1) * h(r2)) == 0

    def test_jacobian_entries_are_the_partial_derivatives(self, symbolic):
        sympy, (_, _, _, s, p), S, P, jacobian = symbolic
        for entry, (f, v) in zip(jacobian, [(S, s), (S, p), (P, s), (P, p)], strict=True):
            assert sympy.simplify(entry - sympy.diff(f, v)) == 0

    def test_transcription_matches_the_code(self, symbolic):
        # the proofs above are about the code only if the transcription is the code
        sympy, symbols, S, P, jacobian = symbolic
        transcribed = sympy.lambdify(symbols, (S, P, *jacobian))
        rng = rng_from_seed(607)
        for _ in range(200):
            H, pt = lift(random_moebius(rng)), random_interior(rng)
            tau, a = H.h.tau, H.h.a
            want = transcribed(tau, a, a.conjugate(), pt.s, pt.p)
            got = (*apply_g2(H, pt), *jacobian_at(H, pt))
            # the two evaluations round differently, each within the mpmath bound above
            for x, y in zip(got, want, strict=True):
                assert abs(x - y) <= JACOBIAN_WORST_EPS * EPS * max(1, abs(y))


class TestCaratheodoryInvariance:
    """Automorphisms preserve the Caratheodory distance, a root-free oracle at any pair.

    caratheodory_tanh shares no code with the library. Worst invariance errors
    measured on these seeds: 5.4e-13 for apply_g2, 2.8e-11 for a composed element
    (pairs up to tanh 0.9994); pinned at INVARIANCE_TOL. A shear by C = 1e-4 moves
    it by up to 2.5e-4.
    """

    INVARIANCE_TOL = 1e-10

    @staticmethod
    def pairs(seed, count):
        rng = rng_from_seed(seed)
        return [(random_interior(rng), random_interior(rng), lift(random_moebius(rng)),
                 lift(random_moebius(rng))) for _ in range(count)]

    def test_matches_the_closed_form_from_the_origin(self):
        rng = rng_from_seed(31)
        for _ in range(200):
            q = random_interior(rng)
            assert abs(caratheodory_tanh(ORIGIN, q) - origin_caratheodory_tanh(q)) <= 1e-14

    def test_no_finer_grid_finds_a_larger_value(self):
        n = 64 * CARATHEODORY_GRID
        thetas = 2 * np.pi * np.arange(n) / n
        for z, w, _, _ in self.pairs(32, 20):
            assert pseudo_hyperbolic(z, w, thetas).max() <= caratheodory_tanh(z, w)

    def test_apply_g2_preserves_it(self):
        worst = max(abs(caratheodory_tanh(apply_g2(H, z), apply_g2(H, w)) - caratheodory_tanh(z, w))
                    for z, w, H, _ in self.pairs(33, 100))
        assert worst <= self.INVARIANCE_TOL

    def test_compose_g2_preserves_it(self):
        worst = 0.0
        for z, w, H1, H2 in self.pairs(33, 100):
            G = compose_g2(H1, H2)
            worst = max(worst, abs(caratheodory_tanh(apply_g2(G, z), apply_g2(G, w))
                                   - caratheodory_tanh(z, w)))
        assert worst <= self.INVARIANCE_TOL

    def test_a_sheared_element_moves_it(self):
        moved = 0.0
        for z, w, H, _ in self.pairs(34, 20):
            def sheared(q):
                return apply_g2(H, SymPoint(q.s, q.p + 1e-4 * q.s * q.s))

            moved = max(moved, abs(caratheodory_tanh(sheared(z), sheared(w))
                                   - caratheodory_tanh(z, w)))
        assert moved >= 0.5 * 2.5e-4
