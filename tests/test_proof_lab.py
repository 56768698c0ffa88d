import cmath
import math
import pickle

import numpy as np
import pytest

from symbidisc import (
    Jacobian2,
    NotNormalized,
    NotOnRoyalVariety,
    NotWeightedHomogeneous,
    ORIGIN,
    ParameterOutOfDomain,
    PoleEncountered,
    PreconditionUnmet,
    SingularJacobian,
    SymPoint,
    apply_g2,
    apply_g2_via_roots,
    cauchy_bound_check,
    commutator_experiment,
    commutator_jacobian,
    compose_g2,
    desymmetrize,
    evaluate_candidate,
    fit_candidate,
    force_c_zero,
    in_sigma2,
    iterate_commutator,
    jacobian_at,
    lift,
    make_candidate,
    make_moebius,
    normalize_and_extract,
    orbit_sample,
    origin_jacobian,
    rotation,
    symmetrize,
    transport_to_origin,
    weighted_form_extract,
)
from symbidisc import proof_lab, sampling
from symbidisc.disc_moebius import DENOM_THRESHOLD
from symbidisc.proof_lab import CandidateMap
from symbidisc.sampling import (
    random_disc,
    random_disc_points,
    random_interior,
    random_moebius,
    random_unit,
    rng_from_seed,
)

from helpers import identity_candidate, origin_caratheodory_tanh, rotation_commutation_residual


def shear(b, d):
    """Candidate with origin Jacobian [[1, b], [0, d]]."""
    return make_candidate({(1, 0): (1, 0), (0, 1): (b, d)})


NAN = complex("nan")


def homogeneous(alpha, d, c):
    """Candidate (alpha*s, d*p + c*s**2): the rotation-commuting family."""
    return make_candidate({(1, 0): (alpha, 0), (0, 1): (0, d), (2, 0): (0, c)})


class TestCandidateMap:
    def test_identity_evaluates(self):
        F = identity_candidate()
        pt = SymPoint(0.4, 0.1)
        assert evaluate_candidate(F, pt) == pt

    def test_rejects_constant_term(self):
        with pytest.raises(ParameterOutOfDomain):
            make_candidate({(0, 0): (0.1, 0), (1, 0): (1, 0)})

    def test_allows_zero_constant_term(self):
        F = make_candidate({(0, 0): (0, 0), (1, 0): (1, 0)})
        assert (0, 0) not in F.terms

    def test_rejects_weighted_degree_overflow(self):
        with pytest.raises(ParameterOutOfDomain):
            make_candidate({(1, 2): (1, 0)})  # weight 5 > default cap 4

    @pytest.mark.parametrize("key", [(1.5, 0), (0, 0.5), (math.nan, 0), (1, math.inf)])
    def test_rejects_non_integral_exponents(self, key):
        # int() would truncate (1.5, 0) to the term (1, 0)
        with pytest.raises(ParameterOutOfDomain, match="non-integral"):
            make_candidate({key: (1, 0)})

    @pytest.mark.parametrize("key", [(-1, 1), (1, -1)])
    def test_rejects_negative_exponents(self, key):
        with pytest.raises(ParameterOutOfDomain, match="negative exponents"):
            make_candidate({key: (1, 0)})

    def test_integral_float_exponents_are_read_as_ints(self):
        assert list(make_candidate({(1.0, 0): (1, 0)}).terms) == [(1, 0)]

    @pytest.mark.parametrize("coefficients", [(NAN, 0), (0, NAN), (complex(0, math.inf), 1)])
    def test_rejects_non_finite_coefficients(self, coefficients):
        with pytest.raises(ParameterOutOfDomain, match="non-finite"):
            make_candidate({(1, 0): coefficients})

    @pytest.mark.parametrize("shape", [(), (3,), (2, 4)])
    def test_empty_candidate_keeps_the_input_shape(self, shape):
        s = np.full(shape, 0.3 + 0.1j)
        img = evaluate_candidate(make_candidate({}), SymPoint(s, 0.5 * s))
        for coord in img:
            assert np.shape(coord) == shape
            assert np.all(coord == 0)

    def test_origin_jacobian_readout(self):
        F = shear(1 + 2j, 3)
        J = origin_jacobian(F)
        assert (J.m11, J.m12, J.m21, J.m22) == (1, 1 + 2j, 0, 3)


class TestCommutatorJacobian:
    def test_identity_input(self):
        J = commutator_jacobian(Jacobian2(1, 0, 0, 1), cmath.exp(0.3j))
        assert abs(J.m11 - 1) <= 1e-15 and abs(J.m12) <= 1e-15
        assert abs(J.m21) <= 1e-15 and abs(J.m22 - 1) <= 1e-15

    def test_b_zero_gives_identity(self):
        J = commutator_jacobian(Jacobian2(1, 0, 0, 2), cmath.exp(1.2j))
        assert abs(J.m12) <= 1e-15 and abs(J.m11 - 1) <= 1e-15 and abs(J.m22 - 1) <= 1e-15

    def test_displayed_example(self):
        J = commutator_jacobian(Jacobian2(1, 1, 0, 2), -1)
        assert abs(J.m11 - 1) <= 1e-12
        assert abs(J.m12 + 2) <= 1e-12
        assert abs(J.m21) <= 1e-12
        assert abs(J.m22 - 1) <= 1e-12

    def test_unipotent_form_seeded(self):
        rng = rng_from_seed(41)
        for _ in range(1_000):
            b = 2 * random_disc(rng)
            d = (0.2 + 1.8 * rng.uniform(0, 1)) * random_unit(rng)
            tau = random_unit(rng)
            G = commutator_jacobian(Jacobian2(1, b, 0, d), tau)
            assert abs(G.m11 - 1) <= 1e-12
            assert abs(G.m12 - b * (tau - 1)) <= 1e-12
            assert abs(G.m21) <= 1e-12
            assert abs(G.m22 - 1) <= 1e-12

    @pytest.mark.parametrize("d", [1e-15, 0.0])
    def test_rejects_singular(self, d):
        # the determinant shares the pole floor of every denominator
        with pytest.raises(SingularJacobian, match=f"below {DENOM_THRESHOLD}$"):
            commutator_jacobian(Jacobian2(1, 1, 0, d), -1)

    def test_small_determinant_above_the_floor_is_exact(self):
        # d = 1e-13 sits above DENOM_THRESHOLD, and with m21 = 0 the commutator is exact
        G = commutator_jacobian(Jacobian2(1, 0.3, 0, 1e-13), -1)
        assert max(abs(G.m11 - 1), abs(G.m12 + 0.6), abs(G.m21), abs(G.m22 - 1)) <= 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            commutator_jacobian(Jacobian2(2, 0, 0, 1), -1)
        with pytest.raises(NotNormalized):
            commutator_jacobian(Jacobian2(1, 0, 0.5, 1), -1)

    @pytest.mark.parametrize("entry", range(4), ids=["m11", "m12", "m21", "m22"])
    @pytest.mark.parametrize("bad", [NAN, complex("inf")], ids=["nan", "inf"])
    def test_non_finite_entry_raises(self, entry, bad):
        # the normalization and determinant tests let a NaN through, and the product
        # would come out all NaN
        J = list(Jacobian2(1, 0.5, 0, 1))
        J[entry] = bad
        with pytest.raises(ArithmeticError, match="non-finite entry") as excinfo:
            commutator_jacobian(Jacobian2(*J), 1j)
        assert excinfo.type is ArithmeticError


def symbolic_commutator(sympy):
    """Symbols (b, d, t), J^-1 diag(1/t, 1/t^2) J diag(t, t^2) for J = [[1, b], [0, d]],
    and the closed form [[1, b*(t-1)], [0, 1]]."""
    b, d, t = sympy.symbols("b d t")
    J = sympy.Matrix([[1, b], [0, d]])
    G = J.inv() * sympy.diag(1 / t, 1 / t**2) * J * sympy.diag(t, t**2)
    return (b, d, t), G, sympy.Matrix([[1, b * (t - 1)], [0, 1]])


class TestCommutatorIdentitySymbolic:
    def test_closed_form_is_exact(self):
        sympy = pytest.importorskip("sympy")
        _, G, closed = symbolic_commutator(sympy)
        assert (G - closed).applyfunc(sympy.simplify) == sympy.zeros(2, 2)

    def test_commutator_jacobian_matches_closed_form(self):
        sympy = pytest.importorskip("sympy")
        symbols, _, closed = symbolic_commutator(sympy)
        closed_at = sympy.lambdify(symbols, closed)
        rng = rng_from_seed(48)
        for _ in range(200):
            b = random_disc(rng)
            d = (0.5 + rng.uniform(0, 1)) * random_unit(rng)
            tau = random_unit(rng)
            G = commutator_jacobian(Jacobian2(1, b, 0, d), tau)
            got = np.array([[G.m11, G.m12], [G.m21, G.m22]])
            assert np.abs(got - closed_at(b, d, tau)).max() <= 1e-14


class TestIterate:
    def test_n_one_is_commutator(self):
        J = Jacobian2(1, 0.7j, 0, 1.5)
        tau = cmath.exp(0.9j)
        assert iterate_commutator(J, tau, 1) == commutator_jacobian(J, tau)

    def test_displayed_example_n_ten(self):
        G = iterate_commutator(Jacobian2(1, 1, 0, 2), -1, 10)
        assert abs(G.m12 + 20) <= 1e-12 and abs(G.m11 - 1) <= 1e-12 and abs(G.m22 - 1) <= 1e-12

    def test_b_zero_all_n(self):
        for n in (1, 5, 50):
            G = iterate_commutator(Jacobian2(1, 0, 0, 3), 1j, n)
            assert abs(G.m12) <= 1e-15

    def test_corner_entry_linear_in_n(self):
        rng = rng_from_seed(42)
        for _ in range(200):
            b = (0.1 + 1.9 * rng.uniform(0, 1)) * random_unit(rng)
            d = (0.3 + rng.uniform(0, 1)) * random_unit(rng)
            tau = cmath.exp(1j * rng.uniform(0.3, 5.9))
            n = int(rng.integers(1, 40))
            J = Jacobian2(1, b, 0, d)
            e_n = iterate_commutator(J, tau, n).m12
            e_2n = iterate_commutator(J, tau, 2 * n).m12
            assert abs(e_2n / e_n - 2.0) <= 1e-12
            assert abs(e_n - n * b * (tau - 1)) <= 1e-9 * max(1.0, abs(e_n))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterOutOfDomain):
            iterate_commutator(Jacobian2(1, 1, 0, 1), -1, 0)


class TestCauchyBound:
    def test_zero_b(self):
        assert cauchy_bound_check(0, -1) == (None, 2.0)

    def test_unit_b_tau_minus_one(self):
        assert cauchy_bound_check(1, -1) == (2, 2.0)

    def test_small_b_tau_i(self):
        n_star, bound = cauchy_bound_check(0.1, 1j)
        assert n_star == 15 and bound == 2.0
        assert 15 * 0.1 * abs(1j - 1) > 2.0
        assert 14 * 0.1 * abs(1j - 1) <= 2.0

    @pytest.mark.parametrize("b", [NAN, complex("inf"), complex(0, float("-inf"))])
    def test_non_finite_b_raises(self, b):
        # a NaN growth rate would reach math.floor as a bare ValueError
        with pytest.raises(ArithmeticError, match="b = .* is not finite") as excinfo:
            cauchy_bound_check(b, 1j)
        assert excinfo.type is ArithmeticError

    def test_no_growth_threshold_boundary(self):
        # n_star absent exactly when |b| * |tau - 1| stays at or below 1e-12
        assert cauchy_bound_check(5e-13, -1)[0] is None
        n_star, _ = cauchy_bound_check(6e-13, -1)
        assert n_star is not None and n_star > 10**12

    def test_premise_slice_points_inside(self):
        # (0, p) has roots of modulus sqrt|p|, so the slice |p| < 1 is in the domain
        rng = rng_from_seed(43)
        for _ in range(500):
            p = random_disc(rng, 0.999)
            rp = desymmetrize(SymPoint(0, p))
            assert abs(abs(rp.first) - math.sqrt(abs(p))) <= 1e-12
            assert abs(abs(rp.second) - math.sqrt(abs(p))) <= 1e-12

    def test_premise_sum_coordinate_bounded(self):
        rng = rng_from_seed(44)
        assert all(abs(random_interior(rng).s) < 2 for _ in range(2_000))


class TestCommutatorExperiment:
    def test_identity_candidate(self):
        report = commutator_experiment(identity_candidate(), -1)
        assert report.n_star is None and report.b == 0

    def test_shear_candidate(self):
        report = commutator_experiment(shear(1, 2), -1)
        assert report.n_star == 2
        assert abs(report.jacobian_of_g.m12 + 2) <= 1e-12

    def test_group_element_consistent(self):
        fitted = fit_candidate(rotation(1))
        report = commutator_experiment(fitted, 1j)
        assert report.n_star is None and abs(report.b) <= 1e-8


class TestRotationCommutation:
    def test_identity_residual_zero(self):
        assert rotation_commutation_residual(identity_candidate(), 1j, 64, 0) <= 1e-12

    def test_homogeneous_family_commutes(self):
        F = homogeneous(1, 1, 0.7 - 0.2j)
        for tau in (1j, -1, cmath.exp(0.7j)):
            assert rotation_commutation_residual(F, tau, 64, 1) <= 1e-10

    def test_stray_square_term_breaks_it(self):
        F = make_candidate({(1, 0): (1, 0), (0, 1): (0, 1), (2, 0): (1, 0)})
        assert rotation_commutation_residual(F, -1, 16, 2) > 1e-3

    def test_residual_matches_extraction_verdict(self):
        # the sampled residual and the coefficient pattern agree on who commutes
        rng = rng_from_seed(45)
        tau = cmath.exp(0.7j)
        exps = [(j, k) for k in range(3) for j in range(5 - 2 * k) if (j, k) != (0, 0)]
        for i in range(100):
            F = homogeneous(random_unit(rng), random_unit(rng), random_disc(rng))
            if i % 2:
                j, k = exps[int(rng.integers(0, len(exps)))]
                comp = int(rng.integers(0, 2))
                bump = (0.5, 0) if comp == 0 else (0, 0.5)
                if (comp == 0 and (j, k) == (1, 0)) or (comp == 1 and (j, k) in ((0, 1), (2, 0))):
                    continue  # bump would land on an allowed monomial
                terms = dict(F.terms)
                old = terms.get((j, k), (0, 0))
                terms[(j, k)] = (old[0] + bump[0], old[1] + bump[1])
                F = make_candidate(terms)
            residual = rotation_commutation_residual(F, tau, 128, i)
            try:
                weighted_form_extract(F)
                assert residual <= 1e-10
            except NotWeightedHomogeneous:
                assert residual > 1e-10


class TestWeightedFormExtract:
    def test_identity(self):
        assert weighted_form_extract(identity_candidate()) == (1, 1, 0)

    def test_coefficient_readout(self):
        assert weighted_form_extract(homogeneous(1, 1, 3)) == (1, 1, 3)

    def test_reports_violators(self):
        F = make_candidate({(1, 0): (1, 0), (0, 1): (1, 1)})  # S = s + p
        with pytest.raises(NotWeightedHomogeneous) as err:
            weighted_form_extract(F)
        assert ("S", 0, 1) in err.value.violations

    def test_tolerance_filters_noise(self):
        F = make_candidate({(1, 0): (1, 1e-12), (0, 1): (1e-12, 1)})
        assert weighted_form_extract(F)[0] == 1

    @pytest.mark.parametrize("component,coefficients", [("S", (NAN, 0)), ("P", (0, NAN))])
    def test_nan_coefficient_is_a_violation(self, component, coefficients):
        # built directly, since make_candidate rejects a NaN coefficient
        F = CandidateMap({(1, 0): (1, 0), (0, 1): (0, 1), (0, 2): coefficients})
        with pytest.raises(NotWeightedHomogeneous) as err:
            weighted_form_extract(F)
        assert err.value.violations == [(component, 0, 2)]

    def test_reads_at_the_certify_tolerance(self):
        # a stray P coefficient of s is noise below CERTIFY_TOL and a violation above it
        def stray(c):
            return make_candidate({(1, 0): (1, c), (0, 1): (0, 1)})

        tol = proof_lab.CERTIFY_TOL
        assert weighted_form_extract(stray(0.5 * tol)) == (1, 1, 0)
        with pytest.raises(NotWeightedHomogeneous) as err:
            weighted_form_extract(stray(2 * tol))
        assert err.value.violations == [("P", 1, 0)]


class TestForceCZero:
    def test_identity_passes(self):
        ok, residual = force_c_zero(identity_candidate())
        assert ok and residual <= 1e-12

    def test_displayed_deviation(self):
        # C = 1 moves the royal point with lam = 0.5 by exactly 4*C*lam**2 = 1
        F = homogeneous(1, 1, 1)
        lam = 0.5
        img = evaluate_candidate(F, SymPoint(2 * lam, lam * lam))
        assert abs(img.p - lam * lam) == 1.0
        assert abs(img.s - 2 * lam) == 0.0

    def test_rejects_c_one(self):
        ok, residual = force_c_zero(homogeneous(1, 1, 1))
        assert not ok and residual > 0.5

    def test_tiny_c_passes(self):
        ok, _ = force_c_zero(homogeneous(1, 1, 1e-15))
        assert ok

    def test_unnormalized_map_is_rejected(self):
        # any map is read on the royal points: a stray rotation or an S-term in p moves them
        ok, residual = force_c_zero(homogeneous(1j, 1, 0))
        assert not ok and residual >= 1.0  # |(1j - 1) * 2*lam| with max|lam| near 0.9
        ok, residual = force_c_zero(make_candidate({(1, 0): (1, 0), (0, 1): (1, 1)}))
        assert not ok and residual >= 0.5  # |lam**2|

    @pytest.mark.parametrize("coordinate", ["s", "p"])
    def test_nan_image_raises(self, coordinate):
        # the identity but at royal point 5; Python's max() would drop a NaN that is
        # not its first argument and pass the map
        def map_like(q):
            s, p = q.s.copy(), q.p.copy()
            (s if coordinate == "s" else p)[5] = NAN
            return SymPoint(s, p)

        with pytest.raises(ArithmeticError):
            force_c_zero(map_like)

    def test_candidate_and_its_evaluation_agree_bit_for_bit(self):
        F = homogeneous(1, 1, 0.3)
        assert force_c_zero(F) == force_c_zero(lambda q: evaluate_candidate(F, q))


class TestOrbit:
    def test_origin_orbit_stays_royal(self):
        for img in orbit_sample(ORIGIN, 100, 0):
            assert in_sigma2(img, 1e-10)[0]

    def test_non_royal_orbit_stays_off(self):
        residuals = [in_sigma2(img)[1] for img in orbit_sample(SymPoint(0.5, 0), 100, 0)]
        assert min(residuals) > 0

    def test_empty(self):
        assert orbit_sample(SymPoint(0.1, 0), 0, 0) == []

    def test_deterministic_under_seed(self):
        assert orbit_sample(SymPoint(0.5, 0), 10, 5) == orbit_sample(SymPoint(0.5, 0), 10, 5)

    def test_rejects_exterior_point(self):
        with pytest.raises(PreconditionUnmet):
            orbit_sample(SymPoint(3, 0), 5, 0)

    def test_rejects_negative_count(self):
        with pytest.raises(ParameterOutOfDomain):
            orbit_sample(SymPoint(0.1, 0), -5, 0)

    @pytest.mark.parametrize("pt", [ORIGIN, SymPoint(0.5, 0), symmetrize(0.999, -0.998j)],
                             ids=["origin", "non_royal", "near_boundary"])
    def test_matches_one_element_at_a_time(self, pt):
        # the array pass divides complex numbers the way numpy does, not the way Python
        # does, so the images agree to rounding rather than bit for bit
        rng = rng_from_seed(42)
        expected = [apply_g2(lift(random_moebius(rng)), pt) for _ in range(500)]
        images = orbit_sample(pt, 500, 42)
        assert len(images) == len(expected)
        assert max(max(abs(q.s - e.s), abs(q.p - e.p))
                   for q, e in zip(images, expected)) <= 1e-14

    @pytest.mark.parametrize("pt", [ORIGIN, SymPoint(0.5, 0), symmetrize(0.999, -0.998j)],
                             ids=["origin", "non_royal", "near_boundary"])
    def test_boxes_the_array_images_exactly(self, pt):
        S, P = sampling._orbit_arrays(pt, 500, 42)
        images = orbit_sample(pt, 500, 42)
        assert all(type(q) is SymPoint and type(q.s) is complex and type(q.p) is complex
                   for q in images)
        # bit for bit: compared as raw 64-bit words, so -0.0 differs from 0.0
        for coords, array in (([q.s for q in images], S), ([q.p for q in images], P)):
            assert np.array_equal(np.array(coords, complex).view(np.uint64), array.view(np.uint64))

    def test_boxes_without_a_python_call_per_image(self, monkeypatch):
        calls = []
        generated = SymPoint.__new__

        def counting(cls, s, p):
            calls.append(None)
            return generated(cls, s, p)

        monkeypatch.setattr(SymPoint, "__new__", counting)
        counts = []
        for count in (10, 2000):
            calls.clear()
            images = orbit_sample(SymPoint(0.5, 0), count, 7)
            counts.append(len(calls))
            assert len(images) == count
        assert counts[0] == counts[1]

    def test_boxed_images_behave_as_constructed_ones(self):
        images = orbit_sample(SymPoint(0.5, 0), 200, 7)
        built = [SymPoint(q[0], q[1]) for q in images]
        assert images == built
        for q, b in zip(images, built):
            assert type(q) is SymPoint and (q.s, q.p) == (b.s, b.p)
            assert hash(q) == hash(b)
            back = pickle.loads(pickle.dumps(q))
            assert type(back) is SymPoint and back == b
            moved = q._replace(p=0j)
            assert type(moved) is SymPoint and moved == b._replace(p=0j)

    @pytest.mark.parametrize("tau,a,pt,error", [
        (1, 1.5, ORIGIN, ParameterOutOfDomain),
        (1, float("nan"), ORIGIN, ParameterOutOfDomain),
        (2, 0.3, ORIGIN, ParameterOutOfDomain),
        # interior royal point (2*lam, lam**2) with lam near a: the denominator
        # (1 - conj(a)*lam)**2 is about 2.5e-15
        (1, 1 - 1e-11, SymPoint(2 * (1 - 5e-8), (1 - 5e-8) ** 2), PoleEncountered),
    ], ids=["a_outside_disc", "nan_a", "non_unit_tau", "degenerate_denominator"])
    def test_bad_element_raises_as_one_at_a_time(self, monkeypatch, tau, a, pt, error):
        with pytest.raises(error):
            apply_g2(lift(make_moebius(tau, a)), pt)
        # the same element drawn second, after a good one
        draw = (np.array([1j, tau], dtype=complex), np.array([0.2, a], dtype=complex))
        monkeypatch.setattr(sampling, "random_moebius_params", lambda rng, count: draw)
        with pytest.raises(error):
            orbit_sample(pt, 2, 0)


class TestFitCandidate:
    def test_recovers_rotation_coefficients(self):
        tau = cmath.exp(0.4j)
        F = fit_candidate(rotation(tau))
        alpha, d, c = weighted_form_extract(F)
        assert abs(alpha - tau) <= 1e-10
        assert abs(d - tau * tau) <= 1e-10
        assert abs(c) <= 1e-10

    def test_recovers_polynomial_exactly(self):
        F = homogeneous(0.8 + 0.6j, 1, 0.3)
        fitted = fit_candidate(F)
        for key, (cs, cp) in F.terms.items():
            gs, gp = fitted.terms[key]
            assert abs(gs - cs) <= 1e-10 and abs(gp - cp) <= 1e-10

    def test_rejects_origin_movers(self):
        with pytest.raises(PreconditionUnmet):
            fit_candidate(lift(make_moebius(1, 0.3)))

    @pytest.mark.parametrize("image", [(NAN, NAN), (0j, NAN), (NAN, 0j)],
                             ids=["both", "p_only", "s_only"])
    def test_rejects_nan_origin_image(self, image):
        # the identity on the grid, NaN at the origin: max() would let either NaN through
        def map_like(q):
            return SymPoint(*image) if np.ndim(q.s) == 0 else q

        with pytest.raises(PreconditionUnmet):
            fit_candidate(map_like)

    @pytest.mark.parametrize("bad", [NAN, complex("inf"), complex(0, float("-inf"))])
    def test_non_finite_grid_image_raises(self, bad):
        def map_like(q):
            if np.ndim(q.s) == 0:
                return q
            s = q.s.copy()
            s[7] = bad
            return SymPoint(s, q.p)

        with pytest.raises(ArithmeticError):
            fit_candidate(map_like)

    def test_recovers_every_monomial(self):
        # a seeded candidate using every monomial j + 2k <= DEGREE_CAP: the grid rule is
        # exact on it, so only rounding, amplified by 1/(r_s**j * r_p**k), is left
        cap = proof_lab.DEGREE_CAP
        rs, rp = proof_lab.TORUS_RADII
        keys = [(j, k) for k in range(cap // 2 + 1) for j in range(cap + 1 - 2 * k)][1:]
        coef = random_disc_points(rng_from_seed(100 + cap), 2 * len(keys), 1.0).tolist()
        F = make_candidate({key: (coef[2 * i], coef[2 * i + 1]) for i, key in enumerate(keys)})
        fitted = fit_candidate(F)
        assert fitted.terms.keys() == F.terms.keys()
        for (j, k), (cs, cp) in F.terms.items():
            gs, gp = fitted.terms[(j, k)]
            assert max(abs(gs - cs), abs(gp - cp)) <= 1e-15 / (rs ** j * rp ** k), (j, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_readout_matches_an_mpmath_oracle(self, seed):
        # seeded values, not a map's: every coefficient is the weighted sum of the
        # values with its row of _READOUT, here summed in 50 digits. BLAS may sum in any
        # order, so the bound is the a-priori one for a complex dot product of length
        # n, sqrt(2) * gamma(n + 2) * sum |w_i| |v_i| with gamma(k) = k*u / (1 - k*u)
        # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and 3.6)
        mpmath = pytest.importorskip("mpmath")
        n = proof_lab.TORUS_POINTS ** 2
        s, p = random_disc_points(rng_from_seed(300 + seed), 2 * n, 2.0).reshape(2, -1)
        table = proof_lab._readout(SymPoint(s, p)).terms
        assert list(table) == proof_lab._KEYS  # make_candidate's sorted order
        u = 2.0 ** -53
        gamma = (n + 2) * u / (1 - (n + 2) * u)
        with mpmath.workdps(50):
            grid = [[mpmath.mpc(v.real, v.imag) for v in values.tolist()] for values in (s, p)]
            for row, key in zip(proof_lab._READOUT.tolist(), proof_lab._KEYS, strict=True):
                weights = [mpmath.mpc(w.real, w.imag) for w in row]
                for got, values in zip(table[key], grid, strict=True):
                    exact = mpmath.fsum(w * v for w, v in zip(weights, values))
                    scale = mpmath.fsum(abs(w) * abs(v) for w, v in zip(weights, values))
                    error = abs(mpmath.mpc(got.real, got.imag) - exact)
                    assert error <= mpmath.sqrt(2) * gamma * scale, key

    def test_dft_rows_match_numpy_fft(self):
        # exponents reduced mod n keep every DFT entry within eps = 2e-15 of numpy's
        # (without the reduction the large angles lose about 1e-14). A weight times
        # n**2 * r_s**j * r_p**k, a power of two, is the rounded product of entries j
        # and k: within 2 * eps * (1 + eps) of the product of numpy's, plus the
        # product's own rounding, at most sqrt(5) * u * (1 + eps)**2 (Brent, Percival
        # & Zimmermann, Math. Comp. 76, 2007)
        n = proof_lab.TORUS_POINTS
        rs, rp = proof_lab.TORUS_RADII
        eps = 2e-15
        bound = 2 * eps * (1 + eps) + math.sqrt(5) * 2.0 ** -53 * (1 + eps) ** 2
        dft = np.fft.fft(np.eye(n))
        readout = proof_lab._certify_inputs()[3]
        for row, (j, k) in zip(readout, proof_lab._KEYS, strict=True):
            scale = n * n * rs ** j * rp ** k
            assert np.abs(row * scale - np.outer(dft[j], dft[k]).ravel()).max() <= bound


class TestPipeline:
    def test_group_elements_certify_as_identity(self):
        rng = rng_from_seed(46)
        for _ in range(20):
            report = normalize_and_extract(lift(random_moebius(rng)))
            assert report.identity_certified
            assert report.identity_deviation <= 1e-8
            assert report.royal_residual <= 1e-8

    def test_black_box_elements_certify_near_boundary(self):
        # plain callables: the pipeline sees only point values, never (tau, a). The
        # grid residual grows as 1/(1 - |a|**2)**2 (see _lift_form); measured worst
        # 7.2e-14, 7.2e-12 and 7.0e-10, about 0.3 of the bound below at each modulus
        rng = rng_from_seed(48)
        for modulus in (0.9, 0.99, 0.999):
            for _ in range(20):
                H = lift(make_moebius(random_unit(rng), modulus * random_unit(rng)))
                report = normalize_and_extract(lambda q, H=H: apply_g2(H, q))
                assert report.identity_certified
                assert report.identity_deviation <= 1e-8
                assert report.grid_residual <= 1e-14 / (1.0 - modulus ** 2) ** 2

    def test_scalar_only_black_box_certifies_through_vectorize(self):
        # apply_g2_via_roots takes scalars only (desymmetrize uses cmath), and its
        # route shares no code with the closed form the pipeline transports with
        rng = rng_from_seed(49)
        for _ in range(50):
            H = lift(random_moebius(rng))
            with pytest.raises(TypeError):
                normalize_and_extract(lambda q: apply_g2_via_roots(H, q))

            def via_roots(s, p, H=H):
                image = apply_g2_via_roots(H, SymPoint(s, p))
                return image.s, image.p

            vectorized = np.vectorize(via_roots, otypes=[complex, complex])
            report = normalize_and_extract(lambda q: SymPoint(*vectorized(q.s, q.p)))
            assert report.identity_certified
            assert report.identity_deviation <= 1e-13

    def test_caratheodory_distance_oracle(self):
        # Agler & Young (J. Geom. Anal. 14, 2004): tanh of the Caratheodory distance
        # from the origin to (s, p) is (2|s - conj(s) p| + |s^2 - 4p|) / (4 - |s|^2).
        # An automorphism fixing the origin preserves it, so the normalization
        # U = R(1/rot) o T, rebuilt from the report alone, must make U o F preserve
        # it for a genuine F. Worst error measured here: 5.2e-12 (points up to
        # tanh 0.997); an injected C moves it by 1.69 (C = 0.1) and 0.066 (C = 0.01)
        rng = rng_from_seed(2024)
        points = [random_interior(rng) for _ in range(200)]

        def moved(map_like):
            report = normalize_and_extract(map_like)
            U = compose_g2(rotation(report.rotation_divided.conjugate()),
                           transport_to_origin(report.origin_image, proof_lab.CERTIFY_TOL))
            return max(abs(origin_caratheodory_tanh(apply_g2(U, map_like(q)))
                           - origin_caratheodory_tanh(q))
                       for q in points)

        genuine = [lambda q, H=H: apply_g2(H, q) for H in _seeded_elements(2025, 50)]
        assert max(map(moved, genuine)) <= 5e-11
        H = _seeded_elements(2026, 1)[0]
        assert moved(_injected(H, 0.1)) >= 0.5 * 1.69
        assert moved(_injected(H, 0.01)) >= 0.5 * 0.066

    def test_transport_param_matches_origin_image(self):
        h = make_moebius(1j, 0.4)
        report = normalize_and_extract(lift(h))
        assert abs(report.origin_image.s - 2 * report.transport_param) <= 1e-15

    @pytest.mark.parametrize("map_like,measured", [
        (lambda q: SymPoint(q.s + 0.1 * q.s ** 5, q.p), 1.9),
        (lambda q: SymPoint(q.s + 0.5 * q.s * q.p ** 2, q.p), 0.59),
        (lambda q: SymPoint(q.s, q.p + 0.3 * q.s ** 2 * q.p ** 2), 0.64),
        (lambda q: SymPoint(q.s, q.p + 0.5 * q.s ** 6), 16.9),
        (lambda q: SymPoint(q.s, q.p + 1e-6 * q.s ** 6), 3.4e-5),
    ], ids=["s5_in_S", "sp2_in_S", "s2p2_in_P", "s6_in_P", "tiny_s6_in_P"])
    def test_terms_above_the_extracted_degree_are_rejected(self, map_like, measured):
        # each map has the identity's Taylor coefficients up to weighted degree 4, so only
        # the royal check, which calls the map itself, can see the higher term
        report = normalize_and_extract(map_like)
        assert report.identity_deviation <= 1e-12
        assert not report.royal_ok and not report.identity_certified
        assert report.royal_residual >= 0.5 * measured

    def test_a_term_vanishing_on_the_royal_variety_is_rejected(self):
        # (s^2 - 4p)^3 vanishes on the royal variety and has weighted degree 6, so
        # neither the readout nor the royal sample sees it; the grid part does. The map
        # sends (0, 0.9) to (0, -3.77), outside the domain
        report = normalize_and_extract(
            lambda q: SymPoint(q.s, q.p + 0.1 * (q.s * q.s - 4 * q.p) ** 3))
        assert report.royal_ok and report.royal_residual <= 1e-15
        assert report.identity_deviation <= 1e-12
        assert abs(report.grid_residual - 0.195) <= 1e-3
        assert not report.identity_certified

    def test_grid_residual_of_genuine_elements(self):
        # measured worst on these seeds: 2.3e-13 at |a| <= 0.95
        for H in _seeded_elements(65, 50):
            report = normalize_and_extract(lambda q, H=H: apply_g2(H, q))
            assert report.identity_certified and report.grid_residual <= 1e-11

    def test_injected_c_is_rejected(self):
        report = normalize_and_extract(homogeneous(1, 1, 0.1))
        assert not report.royal_ok
        assert not report.identity_certified
        assert report.royal_residual >= 0.01
        assert abs(report.c - 0.1) <= 1e-8

    def test_non_commuting_candidate_raises(self):
        F = make_candidate({(1, 0): (1, 0), (0, 1): (0, 1), (2, 0): (0.4, 0)})
        with pytest.raises(NotWeightedHomogeneous):
            normalize_and_extract(F)

    def test_stray_monomial_is_named_before_a_degenerate_rotation_part(self):
        # (0.05 s + 0.01 s**2, p): |alpha| < 0.1, and S holds a weight-2 term
        F = make_candidate({(1, 0): (0.05, 0), (0, 1): (0, 1), (2, 0): (0.01, 0)})
        with pytest.raises(NotWeightedHomogeneous) as excinfo:
            normalize_and_extract(F)
        assert excinfo.value.violations == [("S", 2, 0)]

    def test_zero_map_has_a_degenerate_rotation_part(self):
        with pytest.raises(PreconditionUnmet, match="degenerate rotation part"):
            normalize_and_extract(make_candidate({}))

    def test_off_royal_origin_image_raises(self):
        bad = lambda pt: SymPoint(pt.s + 0.5, pt.p)  # noqa: E731
        with pytest.raises(PreconditionUnmet):
            normalize_and_extract(bad)

    @pytest.mark.parametrize("origin_image", [SymPoint(0.5, 0), SymPoint(2, 1)],
                             ids=["off_the_variety", "outside_the_disc"])
    def test_origin_image_is_checked_by_the_transport(self, origin_image):
        # one royal-variety check, transport_to_origin's, raising a PreconditionUnmet
        with pytest.raises(NotOnRoyalVariety):
            normalize_and_extract(lambda q: SymPoint(q.s + origin_image.s, q.p + origin_image.p))
        assert issubclass(NotOnRoyalVariety, PreconditionUnmet)

    @pytest.mark.parametrize("coordinate", ["s", "p"])
    @pytest.mark.parametrize("bad", [NAN, complex("inf"), complex(0, float("-inf"))],
                             ids=["nan", "inf", "-infj"])
    def test_non_finite_origin_image_raises(self, coordinate, bad):
        # the identity but at the origin; the transport used to take the blame, with
        # NotOnRoyalVariety "discriminant residual nan" (or inf)
        image = SymPoint(bad, 0j) if coordinate == "s" else SymPoint(0j, bad)

        def map_like(q):
            return image if np.ndim(q.s) == 0 else q

        with pytest.raises(ArithmeticError,
                           match="^the map has a non-finite value at the origin$") as excinfo:
            normalize_and_extract(map_like)
        assert excinfo.type is ArithmeticError

    def test_origin_image_off_the_disc_is_named(self):
        # (4, 4) = (2*2, 2**2) is on the variety's equation; its |s/2| = 2 is what fails
        with pytest.raises(NotOnRoyalVariety, match=r"^\|s/2\| = 2\.0 is not below 1 \+ "):
            normalize_and_extract(lambda q: SymPoint(q.s + 4, q.p + 4))

    def test_group_b_vanishes_at_origin(self):
        rng = rng_from_seed(47)
        for _ in range(200):
            tau = random_unit(rng)
            J = jacobian_at(rotation(tau), ORIGIN)
            assert abs(J.m12) <= 1e-8
            n_star, _ = cauchy_bound_check(J.m12, random_unit(rng))
            assert n_star is None


# ---------------------------------------------------------------------------
# The array pipeline against the per-point loops it replaced
# ---------------------------------------------------------------------------

def reference_royal_points(samples=64, seed=11):
    """The royal points as the scalar loop drew them, one random_disc at a time."""
    rng = rng_from_seed(seed)
    lams = [random_disc(rng, 0.9) for _ in range(samples)]
    return [SymPoint(2.0 * lam, lam * lam) for lam in lams]


def reference_pipeline(map_like, tol=1e-8):
    """normalize_and_extract's raw coefficient table, royal and grid residuals, per point.

    Every map value is transported by a scalar apply_g2 call and the map is called
    on every grid and royal point one at a time, as before the array pipeline.
    """
    img = map_like(ORIGIN)
    transport = transport_to_origin(img, tol)
    n, (rs, rp) = proof_lab.TORUS_POINTS, proof_lab.TORUS_RADII
    circle = [cmath.exp(2j * math.pi * m / n) for m in range(n)]
    grid = [SymPoint(rs * u, rp * v) for u in circle for v in circle]
    values = [apply_g2(transport, map_like(pt)) for pt in grid]
    S = np.fft.fft2(np.array([q.s for q in values]).reshape(n, n)) / (n * n)
    P = np.fft.fft2(np.array([q.p for q in values]).reshape(n, n)) / (n * n)
    table = {(j, k): (S[j, k] / (rs ** j * rp ** k), P[j, k] / (rs ** j * rp ** k))
             for k in range(3) for j in range(5 - 2 * k) if (j, k) != (0, 0)}
    m11 = table[(1, 0)][0]
    rot_inv = (m11 / abs(m11)).conjugate()
    undo = compose_g2(rotation(rot_inv), transport)

    def residual(points):
        return max(max(abs(q.s - pt.s), abs(q.p - pt.p))
                   for q, pt in zip((apply_g2(undo, map_like(pt)) for pt in points), points))

    return table, residual(reference_royal_points()), residual(grid)


def _seeded_elements(seed, count):
    rng = rng_from_seed(seed)
    return [lift(random_moebius(rng)) for _ in range(count)]


def _injected(H, C):
    return lambda q: apply_g2(H, SymPoint(q.s, q.p + C * q.s * q.s))


def _halving(H):
    # weighted-homogeneous but d = 1/2 after normalisation, so it moves royal points
    return lambda q: apply_g2(H, SymPoint(q.s, 0.5 * q.p))


PIPELINE_MAPS = {
    "group_element": _seeded_elements(60, 6),
    "black_box": [lambda q, H=H: apply_g2(H, q) for H in _seeded_elements(61, 6)],
    "injected": [_injected(H, C) for H, C in zip(_seeded_elements(62, 6),
                                                   (0.05, 0.1, 0.2, 0.3, 0.4, 0.5))],
    "halving": [_halving(H) for H in _seeded_elements(63, 6)],
}


def _pole(q):
    raise PoleEncountered(f"{q} is a pole of the map")


def constant_on_grid(q, exceptions):
    """The royal point (1, 1/4) at every point, except exceptions[i](point i) on arrays."""
    if np.ndim(q.s) == 0:
        return SymPoint(1.0, 0.25)
    s, p = np.full(q.s.shape, 1.0 + 0j), np.full(q.p.shape, 0.25 + 0j)
    for i, value in exceptions.items():
        image = value(SymPoint(q.s[i], q.p[i]))
        s[i], p[i] = image.s, image.p
    return SymPoint(s, p)


class TestArrayPipeline:
    def test_royal_points_match_scalar_draws(self):
        # the one-array draw takes the doubles the 64 random_disc calls took, in order
        rng = rng_from_seed(11)
        expected = [random_disc(rng, 0.9) for _ in range(64)]
        rng = rng_from_seed(11)
        loop = []
        for _ in range(64):  # the scalar formula, written out
            r = 0.9 * math.sqrt(rng.uniform(0.0, 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            loop.append(r * complex(math.cos(theta), math.sin(theta)))
        assert random_disc_points(rng_from_seed(11), 64, 0.9).tolist() == expected == loop
        _, _, pts, _ = proof_lab._certify_inputs()
        assert pts.s.tolist() == [2.0 * lam for lam in expected]
        # numpy's complex product may round lam*lam differently in the last bit
        assert max(abs(p - lam * lam) for p, lam in zip(pts.p.tolist(), expected)) <= 4e-16

    @pytest.mark.parametrize("kind", list(PIPELINE_MAPS))
    def test_matches_per_point_reference(self, monkeypatch, kind):
        tables = []
        readout = proof_lab._readout
        monkeypatch.setattr(proof_lab, "_readout",
                            lambda images: tables.append(readout(images)) or tables[-1])
        for map_like in PIPELINE_MAPS[kind]:
            report = normalize_and_extract(map_like)
            table, royal, grid = reference_pipeline(map_like)
            # numpy and Python divide complex numbers with different rounding, and the
            # transport amplifies rounding by up to 1/(1 - |a|**2)**2 (see _lift_form)
            bound = 1e-14 / (1.0 - abs(report.transport_param) ** 2) ** 2
            assert abs(report.royal_residual - royal) <= bound
            assert abs(report.grid_residual - grid) <= bound
            raw = tables[-1].terms
            assert raw.keys() == table.keys()
            # the readout's own table is already canonical: same key order, same bits
            assert repr(make_candidate(raw)) == repr(tables[-1])
            assert max(max(abs(raw[key][0] - cs), abs(raw[key][1] - cp))
                       for key, (cs, cp) in table.items()) <= bound
        assert len(tables) == len(PIPELINE_MAPS[kind])

    def test_halving_and_injected_maps_are_rejected(self):
        for map_like in PIPELINE_MAPS["halving"]:
            report = normalize_and_extract(map_like)
            assert not report.royal_ok and abs(report.d - 0.5) <= 1e-8
        for map_like in PIPELINE_MAPS["injected"]:
            assert not normalize_and_extract(map_like).royal_ok

    def test_map_called_twice(self):
        calls = []
        H = _seeded_elements(64, 1)[0]

        def counting(q):
            calls.append(q)
            return apply_g2(H, q)

        assert normalize_and_extract(counting).identity_certified
        # the origin for the transport, then the torus grid and the royal sample stacked
        assert len(calls) == 2
        assert calls[0] == ORIGIN
        assert calls[1] is proof_lab._SAMPLE
        assert calls[1].s.shape == (proof_lab.TORUS_POINTS ** 2 + proof_lab.ROYAL_SAMPLES,)

    @pytest.mark.parametrize("failure,message", [
        (_pole, "is a pole of the map"),
        # (2, 0) sits on the zero set of the transport's denominator 1 - s/2 + p/4
        (lambda q: SymPoint(2.0, 0.0), "^denominator .* below 1e-14$"),
    ], ids=["map_raises", "degenerate_transport"])
    def test_failure_on_a_grid_point_propagates(self, failure, message):
        # the origin goes to the royal point (1, 1/4), so the transport has a = 1/2;
        # the tenth grid point fails
        def map_like(q):
            return constant_on_grid(q, {9: failure})

        with pytest.raises(PoleEncountered, match=message):
            normalize_and_extract(map_like)
        # the scalar transport of that value fails the same way
        if failure is not _pole:
            with pytest.raises(PoleEncountered, match=message):
                apply_g2(transport_to_origin(SymPoint(1.0, 0.25)), failure(ORIGIN))

    def test_nan_on_a_grid_point_does_not_hide_a_degenerate_one(self):
        # one grid value is NaN and a later one sits on the transport's pole (2, 0);
        # the scalar transport passes the NaN through and raises on the pole
        def map_like(q):
            return constant_on_grid(q, {4: lambda q: SymPoint(complex("nan"), 0.0),
                                        9: lambda q: SymPoint(2.0, 0.0)})

        with pytest.raises(PoleEncountered):
            normalize_and_extract(map_like)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_on_a_grid_point_raises(self):
        # the transport passes the NaN through; the report would be NaN in every field
        def map_like(q):
            return constant_on_grid(q, {4: lambda q: SymPoint(NAN, 0.0)})

        with pytest.raises(ArithmeticError) as excinfo:
            normalize_and_extract(map_like)
        assert excinfo.type is ArithmeticError

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_on_a_royal_point_raises(self):
        # a group element everywhere but at royal point 5, which follows the grid in
        # the stacked sample; the report would carry royal_residual = nan
        H = PIPELINE_MAPS["group_element"][0]

        def map_like(q):
            image = apply_g2(H, q)
            if q is proof_lab._SAMPLE:
                image.s[proof_lab.TORUS_POINTS ** 2 + 5] = NAN
            return image

        with pytest.raises(ArithmeticError) as excinfo:
            normalize_and_extract(map_like)
        assert excinfo.type is ArithmeticError

    def test_residuals_split_between_grid_and_royal_sample(self, monkeypatch):
        # the identity moves nothing; the last grid distance and the first royal one are
        # set, and each part reports its own, exactly. (A map that moved one grid value
        # by 1e-3 would change the read coefficients by ~1e-5 and fail the weighted form.)
        n = proof_lab.TORUS_POINTS ** 2
        distances = proof_lab._distances

        def moved(pts, img):
            d = distances(pts, img)
            d[n - 1], d[n] = 1e-3, 1e-5
            return d

        assert normalize_and_extract(lambda q: q).grid_residual == 0.0
        monkeypatch.setattr(proof_lab, "_distances", moved)
        report = normalize_and_extract(lambda q: q)
        assert (report.grid_residual, report.royal_residual) == (1e-3, 1e-5)
        assert not report.royal_ok and not report.identity_certified

    @pytest.mark.parametrize("indices,sample", [
        ((-1,), "torus grid"), ((0,), "royal sample"), ((-1, 0), "torus grid"),
    ], ids=["last_grid", "first_royal", "both"])
    def test_non_finite_distance_names_its_part(self, monkeypatch, indices, sample):
        # indices count from the royal sample's start; the grid residual is judged first
        n = proof_lab.TORUS_POINTS ** 2
        distances = proof_lab._distances

        def moved(pts, img):
            d = distances(pts, img)
            d[[n + i for i in indices]] = math.nan
            return d

        monkeypatch.setattr(proof_lab, "_distances", moved)
        with pytest.raises(ArithmeticError, match=f"non-finite value on the {sample}$"):
            normalize_and_extract(lambda q: q)

    def test_fixed_inputs_are_built_once(self, monkeypatch):
        # the torus grid, Cauchy weights and royal sample are module constants built at import:
        # no generator, FFT, exp, sin/cos or grid layout runs in a certify call
        maps = [PIPELINE_MAPS[kind][0] for kind in ("black_box", "injected", "halving")]
        before = [normalize_and_extract(map_like) for map_like in maps]

        def forbidden(*args, **kwargs):
            raise AssertionError("a fixed input was rebuilt")

        for name in ("exp", "cos", "sin", "sqrt", "repeat", "tile", "outer"):
            monkeypatch.setattr(np, name, forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.fft, "fft", forbidden)
        monkeypatch.setattr(np.fft, "fft2", forbidden)
        assert [normalize_and_extract(map_like) for map_like in maps] == before

    def test_fixed_inputs_match_fresh_builds(self):
        # the module constants, built at import, against a fresh build
        def arrays(inputs):  # s and p of the sample, grid and royal parts, then the weights
            sample, grid, royal, readout = inputs
            return [*sample, *grid, *royal, readout]

        cached = (proof_lab._SAMPLE, proof_lab._GRID, proof_lab._ROYAL, proof_lab._READOUT)
        fresh = proof_lab._certify_inputs()
        for a, b in zip(arrays(cached), arrays(fresh), strict=True):
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_cauchy_weights_are_read_only_outer_products(self):
        # row i, for _KEYS[i] = (j, k), is the outer product of DFT rows j and k divided
        # by n * r**j, laid out as the grid, entry a*n + b, is
        n = proof_lab.TORUS_POINTS
        m = np.arange(n)
        dft = np.exp(-2j * math.pi * (np.outer(m, m) % n) / n)
        rows_s, rows_p = (dft / (n * r ** m[:, None]) for r in proof_lab.TORUS_RADII)
        readout = proof_lab._READOUT
        assert not readout.flags.writeable
        assert readout.shape == (len(proof_lab._KEYS), n * n)
        for row, (j, k) in zip(readout, proof_lab._KEYS, strict=True):
            assert row.tobytes() == np.outer(rows_s[j], rows_p[k]).ravel().tobytes(), (j, k)

    def test_grid_and_royal_parts_are_views_of_the_sample(self):
        # read-only like the sample itself (test_fixed_inputs_match_fresh_builds)
        sample, grid, royal, _ = proof_lab._certify_inputs()
        n = proof_lab.TORUS_POINTS ** 2
        assert grid.s.shape == (n,) and royal.s.shape == (proof_lab.ROYAL_SAMPLES,)
        for part, at in ((grid, slice(None, n)), (royal, slice(n, None))):
            for whole, view in zip(sample, part):
                assert np.shares_memory(whole, view)
                assert view.tobytes() == whole[at].tobytes()

    @pytest.mark.parametrize("entry,honest,part,index", [
        (normalize_and_extract, PIPELINE_MAPS["black_box"][0], 0, 0),
        (normalize_and_extract, PIPELINE_MAPS["halving"][0], 0, proof_lab.TORUS_POINTS ** 2),
        (fit_candidate, lift(make_moebius(1j, 0j)), 1, 0),
        (force_c_zero, lift(make_moebius(1j, 0j)), 2, 0),
    ], ids=["torus_grid", "royal_points", "fit_candidate", "force_c_zero"])
    def test_map_writing_into_its_input_raises(self, entry, honest, part, index):
        # normalize_and_extract passes the stacked sample, torus grid then royal
        # points, fit_candidate its grid part and force_c_zero its royal part
        before = entry(honest)

        def vandal(q):
            if q is (proof_lab._SAMPLE, proof_lab._GRID, proof_lab._ROYAL)[part]:
                q.s[index] = 0.0
                q.p *= 2.0
            return honest(q)

        with pytest.raises(ValueError, match="read-only"):
            entry(vandal)
        assert entry(honest) == before

    @pytest.mark.parametrize("entry", [normalize_and_extract, fit_candidate, force_c_zero],
                             ids=lambda entry: entry.__name__)
    @pytest.mark.parametrize("map_like", [lambda q: SymPoint(0j, 0j), lambda q: SymPoint(q.s, 0j)],
                             ids=["scalar", "scalar_p"])
    def test_map_of_another_shape_raises(self, entry, map_like):
        # both maps fix the origin; on the sample they break the map contract, which
        # numpy reported as a TypeError or ValueError, or force_c_zero broadcast away
        with pytest.raises(PreconditionUnmet, match="input's shape .*np.vectorize"):
            entry(map_like)
