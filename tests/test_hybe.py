import numpy as np
import pytest

from holobraid.hybe import (derive_colorings, embed_12, embed_13, embed_23,
                            hybe_residual, s0_diagnostic)
from holobraid.sampling import sample_params


@pytest.fixture(scope="module")
def triple3(ctx3):
    return sample_params(ctx3, 77, 0, count=3)


class TestEmbeddings:
    def test_identity_everywhere(self):
        ell = 3
        I2 = np.eye(ell * ell)
        for emb in (embed_12, embed_23, embed_13):
            assert np.array_equal(emb(I2, ell), np.eye(ell**3))

    @pytest.mark.parametrize("ell", [3, 5])
    def test_slot13_placement(self, ell):
        # (R x 1 on slots 1,3): entry rule against an independent index walk
        n2 = ell * ell
        rng = np.random.default_rng(0)
        R = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
        M = embed_13(R, ell)
        ref = np.zeros((ell**3, ell**3), dtype=complex)
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    for i2 in range(ell):
                        for k2 in range(ell):
                            ref[i * n2 + j * ell + k, i2 * n2 + j * ell + k2] = \
                                R[i * ell + k, i2 * ell + k2]
        assert np.array_equal(M, ref)

    def test_diagonal_core_satisfies_constant_ybe(self):
        # diagonal matrices commute, so the two triple products coincide
        ell = 3
        rng = np.random.default_rng(1)
        D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 9)))
        lhs = embed_12(D, ell) @ embed_13(D, ell) @ embed_23(D, ell)
        rhs = embed_23(D, ell) @ embed_13(D, ell) @ embed_12(D, ell)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestColorings:
    def test_set_ybe(self, triple3):
        col = derive_colorings(*triple3)
        assert col.finals_deviation() < 1e-10

    def test_strand_data_constant_along_chains(self, triple3):
        x, y, z = triple3
        col = derive_colorings(x, y, z)
        for name in ("x1", "x2", "xa", "xb"):
            c = getattr(col, name)
            assert (c.u, c.x) == (x.u, x.x)
        for name in ("y1", "y2", "ya", "yb"):
            c = getattr(col, name)
            assert (c.u, c.x) == (y.u, y.x)
        for name in ("z1", "z2", "za", "zb"):
            c = getattr(col, name)
            assert (c.u, c.x) == (z.u, z.x)

    @pytest.mark.parametrize("ell_fixture", ["ctx3", "ctx5"])
    def test_set_ybe_sampled(self, ell_fixture, request):
        ctx = request.getfixturevalue(ell_fixture)
        for i in range(5):
            triple = sample_params(ctx, 31, i, count=3)
            assert derive_colorings(*triple).finals_deviation() < 1e-9


class TestMatrixHYBE:
    def test_oracle_route(self, triple3):
        c, dev, info = hybe_residual(*triple3, route="oracle")
        assert dev < 1e-9
        assert abs(abs(c) - 1) < 1e-10
        assert info["c_entry_ratio_gap"] < 1e-9

    def test_scalar_is_cube_root_power(self, triple3):
        # det-normalized factors force c^(ell^3) = 1
        c, _, _ = hybe_residual(*triple3, route="oracle")
        assert abs(c**27 - 1) < 1e-8

    def test_routes_agree(self, triple3):
        c1, dev1, _ = hybe_residual(*triple3, route="oracle")
        c2, dev2, _ = hybe_residual(*triple3, route="closed-form")
        assert abs(c1 - c2) < 1e-9
        assert dev2 < 10 * max(dev1, 1e-12)


class TestS0Diagnostic:
    def test_reports_finite(self, pair3):
        res, conclusive = s0_diagnostic(*pair3)
        assert conclusive
        assert np.isfinite(res)
