import cmath

import pytest
from hypothesis import given

from symbidisc import (
    ParameterOutOfDomain,
    PoleEncountered,
    apply_moebius,
    compose,
    invert,
    make_moebius,
)
from symbidisc.sampling import MAX_A, random_disc, random_moebius, random_unit, rng_from_seed

from helpers import disc_complex, identity, moebius, moebius_equal, unit_complex


class TestConstruction:
    def test_identity_params(self):
        h = make_moebius(1, 0)
        assert h.tau == 1 and h.a == 0

    def test_zero_of_map(self):
        h = make_moebius(1, 0.5)
        assert apply_moebius(h, 0.5) == 0

    def test_complex_parameters(self):
        h = make_moebius(1j, 0.3 + 0.4j)
        assert abs(apply_moebius(h, 0.3 + 0.4j)) == 0
        assert abs(apply_moebius(h, 0.9)) < 1

    def test_random_moebius_draws_below_max_a(self):
        # 1000 seeded draws fill the disc |a| < MAX_A up to its rim, and never beyond
        rng = rng_from_seed(78)
        largest = max(abs(random_moebius(rng).a) for _ in range(1000))
        assert 0.9 < largest < MAX_A

    def test_tau_renormalized(self):
        h = make_moebius((1 + 5e-7) * cmath.exp(0.3j), 0.1)
        assert abs(abs(h.tau) - 1.0) <= 1e-15

    @pytest.mark.parametrize("tau,a", [(1, 1), (1, 1 - 1e-15), (1, 2j), (1, float("nan"))])
    def test_rejects_a_outside_disc(self, tau, a):
        with pytest.raises(ParameterOutOfDomain):
            make_moebius(tau, a)

    @pytest.mark.parametrize("tau", [2, 0, 1 + 1e-5, 0.5j, float("nan")])
    def test_rejects_non_unit_tau(self, tau):
        with pytest.raises(ParameterOutOfDomain):
            make_moebius(tau, 0)


class TestApply:
    def test_identity_fixes_points(self):
        assert apply_moebius(identity(), 0.7j) == 0.7j

    def test_value_at_zero(self):
        assert apply_moebius(make_moebius(1, 0.5), 0) == -0.5

    def test_pole_raises(self):
        with pytest.raises(PoleEncountered):
            apply_moebius(make_moebius(1, 0.5), 2.0)

    @pytest.mark.parametrize("lam", [complex("nan"), complex(0.5, float("nan"))])
    def test_nan_point_raises(self, lam):
        with pytest.raises(ArithmeticError, match="is not finite") as excinfo:
            apply_moebius(make_moebius(1, 0.5), lam)
        assert excinfo.type is ArithmeticError

    def test_maps_disc_into_disc(self):
        rng = rng_from_seed(2024)
        for _ in range(10_000):
            h = random_moebius(rng)
            lam = random_disc(rng, 0.999)
            assert abs(apply_moebius(h, lam)) < 1

    def test_preserves_unit_circle(self):
        rng = rng_from_seed(2025)
        for _ in range(1_000):
            h = random_moebius(rng)
            lam = random_unit(rng)
            assert abs(abs(apply_moebius(h, lam)) - 1.0) <= 1e-12


class TestCompose:
    def test_rotations_multiply(self):
        sigma, tau = cmath.exp(0.4j), cmath.exp(1.1j)
        c = compose(make_moebius(sigma, 0), make_moebius(tau, 0))
        assert abs(c.tau - sigma * tau) <= 1e-15 and c.a == 0

    def test_against_sequential_application(self):
        h = make_moebius(1, 0.5)
        g = make_moebius(1j, 0.2)
        c = compose(h, g)
        for lam in (0, 0.3, 0.5j):
            expected = apply_moebius(h, apply_moebius(g, lam))
            assert abs(apply_moebius(c, lam) - expected) <= 1e-12

    def test_inverse_cancels(self):
        rng = rng_from_seed(7)
        for _ in range(100):
            h = random_moebius(rng)
            assert moebius_equal(compose(h, invert(h)), identity(), 1e-10)

    def test_associative_on_canonical_parameters(self):
        rng = rng_from_seed(31)
        for _ in range(1_000):
            f, g, h = (random_moebius(rng) for _ in range(3))
            left = compose(compose(f, g), h)
            right = compose(f, compose(g, h))
            assert moebius_equal(left, right, 1e-10)

    def test_identity_is_neutral(self):
        rng = rng_from_seed(8)
        for _ in range(200):
            h = random_moebius(rng)
            assert moebius_equal(compose(h, identity()), h, 1e-12)
            assert moebius_equal(compose(identity(), h), h, 1e-12)

    @given(moebius(), moebius(), disc_complex(0.8))
    def test_composition_law_pointwise(self, h, g, lam):
        expected = apply_moebius(h, apply_moebius(g, lam))
        assert abs(apply_moebius(compose(h, g), lam) - expected) <= 1e-10


class TestInvert:
    def test_identity(self):
        assert moebius_equal(invert(identity()), identity(), 0.0)

    def test_rotation(self):
        tau = cmath.exp(0.9j)
        inv = invert(make_moebius(tau, 0))
        assert abs(inv.tau - tau.conjugate()) <= 1e-15 and inv.a == 0

    def test_sends_zero_back(self):
        inv = invert(make_moebius(1, 0.5))
        assert abs(apply_moebius(inv, 0) - 0.5) <= 1e-15

    def test_two_sided(self):
        rng = rng_from_seed(12)
        for _ in range(1_000):
            h = random_moebius(rng)
            assert moebius_equal(compose(invert(h), h), identity(), 1e-10)
            assert moebius_equal(compose(h, invert(h)), identity(), 1e-10)

    @given(moebius(), disc_complex(0.8))
    def test_roundtrip_pointwise(self, h, lam):
        assert abs(apply_moebius(invert(h), apply_moebius(h, lam)) - lam) <= 1e-9


class TestEquality:
    def test_identity_equals_itself(self):
        assert moebius_equal(identity(), identity(), 1e-12)

    def test_distinct_rotations(self):
        assert not moebius_equal(make_moebius(1, 0), make_moebius(-1, 0), 1e-12)

    def test_canonicity_three_point_probe(self):
        # canonical forms that agree at {0, 1/2, i/2} have close parameters, and
        # a 1e-6 parameter perturbation is visible at one of the three probes
        probes = (0, 0.5, 0.5j)
        rng = rng_from_seed(77)
        for _ in range(200):
            h = random_moebius(rng)
            near = make_moebius(h.tau * cmath.exp(1e-13j), h.a + 1e-13)
            assert max(abs(apply_moebius(h, z) - apply_moebius(near, z))
                       for z in probes) <= 1e-12
            assert abs(h.tau - near.tau) <= 1e-9 and abs(h.a - near.a) <= 1e-9
            far = make_moebius(h.tau * cmath.exp(1e-6j), h.a + 1e-6)
            assert max(abs(apply_moebius(h, z) - apply_moebius(far, z))
                       for z in probes) > 1e-12

    @given(unit_complex(), disc_complex(0.9))
    def test_parameters_survive_roundtrip(self, tau, a):
        h = make_moebius(tau, a)
        assert moebius_equal(h, make_moebius(h.tau, h.a), 1e-15)
