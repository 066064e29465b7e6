import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobraid.errors import (DegenerateSpectralParameterError,
                              SingularParameterError)
from holobraid.qseries import (Series, check_f_functional, pairing_monomial,
                               phi_orbit, phi_orbit_closure, phi_series,
                               q_factorial_b, q_shift_coefficient_check,
                               series_f, series_f_product)
from holobraid.roots import primitive_root


class TestSeriesArithmetic:
    def test_mul_reciprocal_roundtrip(self):
        rng = np.random.default_rng(0)
        a = Series(rng.normal(size=12) + 1j * rng.normal(size=12))
        a.coeffs[0] = 1.5
        prod = a * a.reciprocal()
        assert abs(prod.coeffs[0] - 1) < 1e-13
        assert np.max(np.abs(prod.coeffs[1:])) < 1e-12

    def test_exp_log_roundtrip(self):
        # exp(z) = sum z^n / n!, and exp(-log(1 - z)) = 1 / (1 - z)
        n = np.arange(20)
        z = Series((n == 1).astype(float))
        ref = [1 / math.factorial(k) for k in n]
        assert np.max(np.abs(z.exp().coeffs - ref)) < 1e-15
        minus_log = Series(np.r_[0.0, 1 / n[1:]])
        assert np.max(np.abs(minus_log.exp().coeffs - 1)) < 1e-12

    def test_reciprocal_requires_unit(self):
        with pytest.raises(SingularParameterError):
            Series(np.array([0.0, 1.0])).reciprocal()

    def test_evaluate_geometric(self):
        geo = Series(np.ones(30))
        assert geo(0.5) == pytest.approx(2.0 - 0.5**30 / 0.5, rel=1e-12)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial_b(0, 0.7) == 1

    def test_n1(self):
        assert q_factorial_b(1, 0.321) == pytest.approx(1)

    def test_n2_is_one_plus_q(self):
        assert q_factorial_b(2, 0.5) == pytest.approx(1.5)

    def test_singular_q(self):
        with pytest.raises(SingularParameterError):
            q_factorial_b(3, 1.0)

    @given(st.integers(min_value=1, max_value=12),
           st.complex_numbers(max_magnitude=0.9, min_magnitude=0.05))
    @settings(max_examples=60, deadline=None)
    def test_bracket_recursion(self, n, q):
        if abs(q - 1) < 1e-3:
            return
        lhs = q_factorial_b(n, q)
        rhs = (1 - q**n) / (1 - q) * q_factorial_b(n - 1, q)
        assert abs(lhs - rhs) <= 1e-13 * max(1, abs(rhs))


class TestStaircaseF:
    def test_constant_and_linear_coeffs(self):
        f = series_f(0.37, 10)
        assert f.coeffs[0] == pytest.approx(1)
        assert f.coeffs[1] == pytest.approx(1)  # (1-q)/(1-q)

    @pytest.mark.parametrize("q", [0.3, 0.5, -0.4, 0.7 + 0.1j])
    def test_sum_vs_product(self, q):
        fs = series_f(q, 30)
        fp = series_f_product(q, 30)
        rel = np.abs(fs.coeffs - fp.coeffs) / np.maximum(1.0, np.abs(fs.coeffs))
        assert np.max(rel) < 1e-12

    def test_functional_equation_at_zero(self):
        assert check_f_functional(0.0, 20) == 0.0

    @pytest.mark.parametrize("q,order,bound", [(0.5, 25, 1e-12), (0.9, 40, 1e-10)])
    def test_functional_equation(self, q, order, bound):
        assert check_f_functional(q, order) < bound

    def test_singular_parameter(self):
        with pytest.raises(SingularParameterError):
            series_f(1.0, 10)


class TestPhiSeries:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_low_coeffs(self, ell):
        ctx = primitive_root(ell)
        phi = phi_series(ctx, 8)
        assert phi.coeffs[0] == pytest.approx(1)
        lin = sum(m * ctx.pow(2 * m) for m in range(1, ell + 1)) / ell
        assert phi.coeffs[1] == pytest.approx(lin)

    def test_against_binomial_expansion(self):
        # independent oracle: expand each factor with the generalized
        # binomial series and multiply
        ell, order = 3, 15
        ctx = primitive_root(ell)
        ref = Series.one(order)
        for m in range(1, ell + 1):
            w = ctx.pow(2 * m)
            alpha = m / ell
            c = np.zeros(order + 1, dtype=complex)
            c[0] = 1.0
            for k in range(1, order + 1):
                # (1-wz)^(-alpha): c_k = c_{k-1} * w (alpha+k-1)/k
                c[k] = c[k - 1] * w * (alpha + k - 1) / k
            ref = ref * Series(c)
        phi = phi_series(ctx, order)
        assert np.max(np.abs(phi.coeffs - ref.coeffs)) < 1e-12


class TestPhiOrbit:
    def test_zero_parameter(self):
        ctx = primitive_root(5)
        vals = phi_orbit(ctx, 0.0)
        assert np.max(np.abs(vals - 1)) == 0.0

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_telescoping(self, ell):
        ctx = primitive_root(ell)
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            if abs(1 - s**ell) < 1e-3:
                continue
            assert phi_orbit_closure(ctx, s) < 1e-12

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_orbit_matches_series(self, ell):
        ctx = primitive_root(ell)
        phi = phi_series(ctx, 60)
        for s in (0.1, 0.25, 0.2 - 0.15j):
            vals = phi_orbit(ctx, s)
            ref = np.array([phi(s * ctx.pow(2 * k - 2)) for k in range(ell)])
            assert np.max(np.abs(vals - ref / ref[0])) < 1e-9

    def test_variant_adjudication(self):
        # only the direct step factor reproduces the series orbit
        ctx = primitive_root(3)
        phi = phi_series(ctx, 60)
        s = 0.2
        ref = np.array([phi(s * ctx.pow(2 * k - 2)) for k in range(3)])
        ref = ref / ref[0]
        good = np.max(np.abs(phi_orbit(ctx, s, "direct") - ref))
        bad = np.max(np.abs(phi_orbit(ctx, s, "reciprocal_argument") - ref))
        assert good < 1e-10
        assert bad > 1e-2

    def test_degenerate_parameter(self):
        ctx = primitive_root(3)
        with pytest.raises(DegenerateSpectralParameterError):
            phi_orbit(ctx, 1.0)


class TestPairing:
    def test_counit(self):
        assert pairing_monomial(0, 0, 0, 0, 0.3) == 1

    def test_example(self):
        assert pairing_monomial(2, 1, 2, 1, 0.5) == pytest.approx(2.0)

    def test_off_diagonal(self):
        assert pairing_monomial(1, 2, 2, 1, 0.8) == 0

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_formula(self, n, m):
        q = 0.42
        assert pairing_monomial(n, m, n, m, q) == pytest.approx(
            math.factorial(n) * q_factorial_b(m, q))


class TestQShiftCoefficients:
    def test_n1(self):
        assert q_shift_coefficient_check(1, 0.6) < 1e-14

    def test_n2_coefficient_value(self):
        # enumerate the 4 words by hand: 2 (1+q) at q = 0.5 -> 3
        q = 0.5
        dim = 3
        s1 = np.zeros((dim, dim), dtype=complex)
        s2 = np.zeros((dim, dim), dtype=complex)
        for i in range(2):
            s1[i + 1, i] = q**i
            s2[i + 1, i] = 1.0
        coeff = (np.linalg.matrix_power(s1 + s2, 2) @ np.eye(dim)[:, 0])[2]
        assert coeff == pytest.approx(3.0)
        assert q_shift_coefficient_check(2, q) < 1e-14

    def test_complex_q(self):
        assert q_shift_coefficient_check(6, 0.7 + 0.1j) < 1e-12

    def test_range_check(self):
        with pytest.raises(SingularParameterError):
            q_shift_coefficient_check(0, 0.5)
