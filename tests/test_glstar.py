import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobraid.cyclic import RepParams, z0_character
from holobraid.errors import NonFactorizableError, SingularBraidingError
from holobraid.glstar import (IDENTITY_CHAR, Z0Char, beta_forward,
                              beta_inverse, char_distance,
                              char_from_factorization, conserved_quantities,
                              factorization_matrix, glstar_multiply,
                              matrix_route_beta, realize_char, refactor_gl2)

finite = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


def chars(min_mod=0.2):
    def build(kr, ki, lr, li, er, ei, fr, fi):
        kappa = complex(kr, ki)
        lam = complex(lr, li)
        if abs(kappa) < min_mod:
            kappa += 1.0
        if abs(lam) < min_mod:
            lam += 1.0
        return Z0Char(kappa, lam, complex(er, ei) * 0.4, complex(fr, fi) * 0.4)

    return st.builds(build, *([finite] * 8))


class TestGroupLaw:
    def test_identity(self):
        p = Z0Char(2.0, 3.0, 0.5, 0.25)
        assert char_distance(glstar_multiply(IDENTITY_CHAR, p), p) == 0
        assert char_distance(glstar_multiply(p, IDENTITY_CHAR), p) == 0

    def test_worked_example(self):
        out = glstar_multiply(Z0Char(2, 1, 1, 0), Z0Char(1, 1, 1, 0))
        assert char_distance(out, Z0Char(2, 1, 2, 0)) == 0

    @given(chars(), chars(), chars())
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, a, b, c):
        lhs = glstar_multiply(glstar_multiply(a, b), c)
        rhs = glstar_multiply(a, glstar_multiply(b, c))
        assert char_distance(lhs, rhs) < 1e-12 * max(1, *np.abs(rhs.as_array()))


class TestCharDistance:
    @pytest.mark.parametrize("slot", range(4))
    def test_nan_in_any_component_propagates(self, slot):
        # as np.max over the four deviations does: Python's max() would keep
        # the first deviation against a NaN in a later one
        good = [2.0, 3.0, 0.5, 0.25]
        bad = [complex("nan") if i == slot else v for i, v in enumerate(good)]
        assert np.isnan(char_distance(Z0Char(*good), Z0Char(*bad)))
        assert np.isnan(char_distance(Z0Char(*bad), Z0Char(*good)))
        assert char_distance(Z0Char(*good), Z0Char(*good)) == 0

    @given(chars(), chars())
    @settings(max_examples=100, deadline=None)
    def test_matches_array_max_to_rounding(self, a, b):
        # scalar abs is hypot, numpy's vectorised complex abs need not be:
        # each is within an ulp of |z|
        ref = np.max(np.abs(a.as_array() - b.as_array()))
        assert abs(char_distance(a, b) - ref) <= 2 * np.spacing(ref)


class TestBraidingMaps:
    @given(chars())
    @settings(max_examples=200, deadline=None)
    def test_fixed_points(self, x):
        # the identity has kappa = lam = 1 and eta = phi = 0, so every
        # product and sum with it is exact: both maps fix (x, 1) and (1, x)
        for mp in (beta_forward, beta_inverse):
            for pair in ((x, IDENTITY_CHAR), (IDENTITY_CHAR, x)):
                assert [char_distance(o, i) for o, i in zip(mp(*pair), pair)] == [0, 0]

    @given(chars(), chars())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, x, y):
        try:
            p, q = beta_forward(x, y)
            rx, ry = beta_inverse(p, q)
        except SingularBraidingError:
            return
        scale = max(1, *np.abs(x.as_array()), *np.abs(y.as_array()),
                    *np.abs(p.as_array()), *np.abs(q.as_array()))
        assert char_distance(rx, x) < 1e-10 * scale
        assert char_distance(ry, y) < 1e-10 * scale

    @given(chars(), chars())
    @settings(max_examples=100, deadline=None)
    def test_product_identity(self, x, y):
        try:
            p, q = beta_forward(x, y)
        except SingularBraidingError:
            return
        lhs = glstar_multiply(p, q)
        rhs = glstar_multiply(y, x)
        assert char_distance(lhs, rhs) < 1e-11 * max(1, *np.abs(rhs.as_array()))

    @given(chars(), chars())
    @settings(max_examples=100, deadline=None)
    def test_conserved_slotwise(self, x, y):
        for mp in (beta_forward, beta_inverse):
            try:
                o1, o2 = mp(x, y)
            except SingularBraidingError:
                return
            for o, i in ((o1, x), (o2, y)):
                To, Do = conserved_quantities(o)
                Ti, Di = conserved_quantities(i)
                assert abs(To - Ti) < 1e-10 * max(1, abs(Ti))
                assert abs(Do - Di) < 1e-10 * max(1, abs(Di))

    def test_plus_sign_variant_breaks_conservation(self):
        x = Z0Char(1.3, 0.8, 0.5, -0.3)
        y = Z0Char(0.9, 1.2, 0.6, 0.4)
        o1, _ = beta_forward(x, y, sign=+1)
        T1 = conserved_quantities(o1)[0]
        Tx = conserved_quantities(x)[0]
        assert abs(T1 - Tx) > 1e-3

    def test_singular_braiding(self):
        x = Z0Char(1.0, 1.0, 1.0, 0.0)
        y = Z0Char(1.0, 1.0, 0.0, 1.0)  # eta_x * phi_y = 1 -> Omega' = 0
        with pytest.raises(SingularBraidingError):
            beta_inverse(x, y)
        with pytest.raises(SingularBraidingError):  # lam_y / kappa_x = 1 -> Omega = 0 too
            beta_forward(x, y)


class TestConservedFormulas:
    def test_identity_char(self):
        T, Dt = conserved_quantities(IDENTITY_CHAR)
        assert T == 2 and Dt == 1

    def test_x_equal_one(self, ctx3):
        for v, y in ((0.8, 1.3), (1.4 - 0.2j, 0.9 + 0.1j)):
            c = z0_character(RepParams(ctx=ctx3, u=1.0, v=v, x=1.0, y=y))
            T, _ = conserved_quantities(c)
            assert abs(T - 2) < 1e-11

    def test_strand_formula(self, ctx5):
        p = RepParams(ctx=ctx5, u=1.1 - 0.07j, v=0.92, x=1.2 + 0.1j, y=1.05)
        T, Dt = conserved_quantities(z0_character(p))
        assert abs(T - p.u**5 * (p.x**5 + p.x**-5)) < 1e-11 * abs(T)
        assert abs(Dt - p.u**10) < 1e-11 * abs(Dt)


class TestFactorization:
    def test_identity_matrix(self):
        a, b, c, d = refactor_gl2(np.eye(2, dtype=complex))
        assert (a, b, c, d) == (1, 0, 0, 1)

    def test_worked_example(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        a, b, c, d = refactor_gl2(m)
        assert (a, b, c, d) == pytest.approx((1, 1, -1, 1))

    def test_multiply_back(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if abs(m[1, 1]) < 0.2 or abs(np.linalg.det(m)) < 0.2:
                continue
            a, b, c, d = refactor_gl2(m)
            bp = np.array([[1, b], [0, a]])
            bm = np.array([[d, 0], [c, 1]])
            assert np.max(np.abs(bp @ np.linalg.inv(bm) - m)) < 1e-12 * np.max(np.abs(m))

    def test_non_factorizable(self):
        with pytest.raises(NonFactorizableError):
            refactor_gl2(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_realization_is_homomorphism(self):
        # calibration contract: componentwise matrix product == group law
        rng = np.random.default_rng(4)
        for _ in range(25):
            v = rng.normal(size=8) * 0.5
            p = Z0Char(1 + v[0] + 1j * v[1], 1 + v[2] + 1j * v[3],
                       v[4] + 1j * v[5] * 0.3, v[6] + 1j * v[7] * 0.3)
            v = rng.normal(size=8) * 0.5
            q = Z0Char(1 + v[0] + 1j * v[1], 1 + v[2] + 1j * v[3],
                       v[4] + 1j * v[5] * 0.3, v[6] + 1j * v[7] * 0.3)
            pp, pm = realize_char(p)
            qp, qm = realize_char(q)
            rp, rm = realize_char(glstar_multiply(p, q))
            assert np.max(np.abs(pp @ qp - rp)) < 1e-12 * max(1, np.max(np.abs(rp)))
            assert np.max(np.abs(pm @ qm - rm)) < 1e-12 * max(1, np.max(np.abs(rm)))

    def test_char_factorization_roundtrip(self):
        p = Z0Char(1.4 - 0.2j, 0.8 + 0.1j, 0.45, -0.31 + 0.2j)
        back = char_from_factorization(factorization_matrix(p))
        assert char_distance(back, p) < 1e-13


class TestMatrixRoute:
    def test_first_conjugates_swapped_equals_inverse_map(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            v = rng.normal(size=16) * 0.4
            x = Z0Char(1 + v[0] + 1j * v[1], 1 + v[2] + 1j * v[3],
                       v[4] + 1j * v[5], v[6] + 1j * v[7])
            y = Z0Char(1 + v[8] + 1j * v[9], 1 + v[10] + 1j * v[11],
                       v[12] + 1j * v[13], v[14] + 1j * v[15])
            out1, out2 = matrix_route_beta(x, y)
            p, q = beta_inverse(x, y)
            scale = max(1, *np.abs(p.as_array()), *np.abs(q.as_array()))
            assert char_distance(out1, q) < 1e-11 * scale
            assert char_distance(out2, p) < 1e-11 * scale

    def test_identity_coloring_patterns(self):
        x = Z0Char(1.3, 0.8, 0.4, -0.2)
        # role-swapped formulas leave (x, e) in place, matching the braiding
        m1, m2 = matrix_route_beta(IDENTITY_CHAR, x)
        assert char_distance(m1, x) < 1e-13
        assert char_distance(m2, IDENTITY_CHAR) < 1e-13
        # the printed role assignment produces the swapped pattern instead
        m1, m2 = matrix_route_beta(x, IDENTITY_CHAR)
        assert char_distance(m1, IDENTITY_CHAR) < 1e-13
        assert char_distance(m2, x) < 1e-13

    def test_neither_variant_matches_forward_generically(self):
        x = Z0Char(1.3, 0.8, 0.5, -0.3)
        y = Z0Char(0.9, 1.2, 0.6, 0.4)
        f = beta_forward(x, y)
        for first, second in ((x, y), (y, x)):
            m1, m2 = matrix_route_beta(first, second)
            assert char_distance(m1, f[0]) > 1e-3 or char_distance(m2, f[1]) > 1e-3
