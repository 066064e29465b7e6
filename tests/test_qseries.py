import math

import numpy as np
import pytest

from holobraid.errors import DegenerateSpectralParameterError, SingularParameterError
from holobraid.qseries import _exp, phi_orbit, phi_series
from holobraid.roots import primitive_root
from holobraid.suite import phi_variant_evidence
from reference import phi_variant_reference, series_value


class TestSeriesArithmetic:
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

    def test_needs_an_order(self, ctx3):
        with pytest.raises(SingularParameterError, match="order must be >= 1, got 0"):
            phi_series(ctx3, 0)


class TestPhiOrbit:
    def test_zero_parameter(self):
        ctx = primitive_root(5)
        vals = phi_orbit(ctx, 0.0)
        assert np.max(np.abs(vals - 1)) == 0.0

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_telescoping(self, ell):
        # the orbit closes: its last value times the step t / (1 - z_ell)
        # from z_ell = s eps^(2 ell - 2) back to z_1 is phi_0 = 1
        ctx = primitive_root(ell)
        rng = np.random.default_rng(9)
        for _ in range(200):
            s = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            if abs(1 - s**ell) < 1e-3:
                continue
            t = (1 - s**ell) ** (1.0 / ell)
            last = phi_orbit(ctx, s)[-1]
            assert abs(last * t / (1 - s * ctx.pow(2 * ell - 2)) - 1) < 1e-12

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

    def test_unknown_variant(self, ctx3):
        with pytest.raises(ValueError, match="unknown variant 'x'"):
            phi_orbit(ctx3, 0.5, variant="x")

    @pytest.mark.parametrize("ell", [3, 5, 9, 13, 21])
    def test_variant_evidence_matches_reference(self, ell):
        # Phi's finite product at all 4 ell orbit points against the order-60
        # series summed at one point at a time
        ctx = primitive_root(ell)
        got, ref = phi_variant_evidence(ctx), phi_variant_reference(ctx)
        assert got.keys() == ref.keys()
        for variant in ref:
            assert abs(got[variant] - ref[variant]) <= 1e-15
