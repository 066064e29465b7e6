import math

import numpy as np
import pytest

from holobraid.errors import (DegenerateSpectralParameterError,
                              SingularParameterError)
from holobraid.qseries import (_exp, check_f_functional, phi_orbit,
                               phi_orbit_closure, phi_series,
                               q_shift_coefficient_check, series_f,
                               series_f_product)
from holobraid.roots import primitive_root
from holobraid.suite import phi_variant_evidence
from reference import phi_variant_reference, series_value


class TestSeriesArithmetic:
    def test_mul_reciprocal_roundtrip(self):
        # multiplying the product form back by its factors 1 - (1-q) q^n z
        # leaves the series 1
        q, order = 0.6 + 0.1j, 12
        prod = series_f_product(q, order)
        n = 0
        while abs((1 - q) * q**n) > 1e-18:
            prod = np.convolve(prod, [1, -(1 - q) * q**n])[: order + 1]
            n += 1
        assert abs(prod[0] - 1) < 1e-13
        assert np.max(np.abs(prod[1:])) < 1e-12

    def test_exp_log_roundtrip(self):
        # exp(z) = sum z^n / n!, and exp(-log(1 - z)) = 1 / (1 - z)
        n = np.arange(20)
        z = (n == 1).astype(complex)
        ref = [1 / math.factorial(k) for k in n]
        assert np.max(np.abs(_exp(z) - ref)) < 1e-15
        minus_log = np.r_[0.0, 1 / n[1:]].astype(complex)
        assert np.max(np.abs(_exp(minus_log) - 1)) < 1e-12

    def test_evaluate_geometric(self):
        # the Horner evaluation the orbit references are built from
        geo = series_value(np.ones(30), 0.5)
        assert geo == pytest.approx(2.0 - 0.5**30 / 0.5, rel=1e-12)


class TestStaircaseF:
    def test_constant_and_linear_coeffs(self):
        f = series_f(0.37, 10)
        assert f[0] == pytest.approx(1)
        assert f[1] == pytest.approx(1)  # (1-q)/(1-q)

    @pytest.mark.parametrize("q", [0.3, 0.5, -0.4, 0.7 + 0.1j])
    def test_sum_vs_product(self, q):
        fs = series_f(q, 30)
        fp = series_f_product(q, 30)
        rel = np.abs(fs - fp) / np.maximum(1.0, np.abs(fs))
        assert np.max(rel) < 1e-12

    def test_product_needs_too_many_factors(self):
        # q = 0.999 needs 34,522 factors: cut at 5000, the product was 6.7e-3
        # off the sum form and returned without a word
        with pytest.raises(SingularParameterError):
            series_f_product(0.999, 30)

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
        assert phi[0] == pytest.approx(1)
        lin = sum(m * ctx.pow(2 * m) for m in range(1, ell + 1)) / ell
        assert phi[1] == pytest.approx(lin)

    def test_against_binomial_expansion(self):
        # independent oracle: expand each factor with the generalized
        # binomial series and multiply
        ell, order = 3, 15
        ctx = primitive_root(ell)
        ref = np.zeros(order + 1, dtype=complex)
        ref[0] = 1.0
        for m in range(1, ell + 1):
            w = ctx.pow(2 * m)
            alpha = m / ell
            c = np.zeros(order + 1, dtype=complex)
            c[0] = 1.0
            for k in range(1, order + 1):
                # (1-wz)^(-alpha): c_k = c_{k-1} * w (alpha+k-1)/k
                c[k] = c[k - 1] * w * (alpha + k - 1) / k
            ref = np.convolve(ref, c)[: order + 1]
        assert np.max(np.abs(phi_series(ctx, order) - ref)) < 1e-12


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
            ref = np.array([series_value(phi, s * ctx.pow(2 * k - 2)) for k in range(ell)])
            assert np.max(np.abs(vals - ref / ref[0])) < 1e-9

    def test_variant_adjudication(self):
        # only the direct step factor reproduces the series orbit
        ctx = primitive_root(3)
        phi = phi_series(ctx, 60)
        s = 0.2
        ref = np.array([series_value(phi, s * ctx.pow(2 * k - 2)) for k in range(3)])
        ref = ref / ref[0]
        good = np.max(np.abs(phi_orbit(ctx, s, "direct") - ref))
        bad = np.max(np.abs(phi_orbit(ctx, s, "reciprocal_argument") - ref))
        assert good < 1e-10
        assert bad > 1e-2

    def test_degenerate_parameter(self):
        ctx = primitive_root(3)
        with pytest.raises(DegenerateSpectralParameterError):
            phi_orbit(ctx, 1.0)

    @pytest.mark.parametrize("ell", [3, 5, 9])
    def test_variant_evidence_matches_reference(self, ell):
        # one Horner pass over all 4 ell orbit points against one per point
        ctx = primitive_root(ell)
        got, ref = phi_variant_evidence(ctx), phi_variant_reference(ctx)
        assert got.keys() == ref.keys()
        for variant in ref:
            assert abs(got[variant] - ref[variant]) <= 1e-15


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
