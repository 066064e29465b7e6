import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import holobraid.hybe as hybe
from holobraid.cyclic import _dense, _kron_blocks, clock_shift, gauge_U
from holobraid.errors import AssemblyError, InvalidInputError
from holobraid.hybe import derive_colorings, embed_13, hybe_residual, s0_diagnostic
from holobraid.intertwiner import PairContext, closed_form_R, solve_intertwiner
from holobraid.report import check_entry
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params
from holobraid.suite import THRESHOLDS, third_params
from reference import (SHIFTED, embed_12, embed_23, exact_hybe, seed42_triple,
                       triple_factors)


def dense_products(factors, ell):
    """LHS and RHS of the triple test from dense ell^3 x ell^3 embeddings;
    factors are the six matrices in the order hybe_residual builds them."""
    f12, f13, f23, g23, g13, g12 = factors
    lhs = embed_12(f12, ell) @ embed_13(f13, ell) @ embed_23(f23, ell)
    rhs = embed_23(g23, ell) @ embed_13(g13, ell) @ embed_12(g12, ell)
    return lhs, rhs


def dense_hybe(factors, ell, X=None):
    """(c, deviation) of the dense LHS and RHS, or of the dense LHS X and
    RHS X for a dense matrix X of probe columns (probe_dense)."""
    lhs, rhs = dense_products(factors, ell)
    if X is not None:
        lhs, rhs = lhs @ X, rhs @ X
    c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
    return c, float(np.linalg.norm(lhs - c * rhs) / np.linalg.norm(lhs))


def dense_s0(R0, ell):
    """s0_diagnostic's residual for the core R0, computed densely."""
    lhs, rhs = dense_products([R0] * 6, ell)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)


def grade_order(ell):
    """(ell, ell^2): the triple indices of each total grade, ascending."""
    j = np.arange(ell ** 3)
    order = np.argsort((j // ell ** 2 + j // ell + j) % ell, kind="stable")
    return order.reshape(ell, ell * ell)


def triple_dense(stack, shift, ell):
    """The dense ell^3 x ell^3 matrix of a triple stack of grade shift `shift`."""
    order = grade_order(ell)
    M = np.zeros((ell ** 3, ell ** 3), dtype=complex)
    M[np.roll(order, -shift, axis=0)[:, :, None], order[:, None, :]] = stack
    return M


def probe_dense(ell):
    """hybe_residual's probe stack as a dense ell^3 x (ell PROBES) matrix:
    column (G, p) holds probe p of grade G on the triples of grade G."""
    X = np.zeros((ell ** 3, ell, hybe.PROBES), dtype=complex)
    X[grade_order(ell), np.arange(ell)[:, None]] = hybe._probes(ell)
    return X.reshape(ell ** 3, -1)


SOLVE = {"oracle": solve_intertwiner, "closed-form": closed_form_R}


def triple_hybe(x, y, z, route):
    """hybe_residual of (x, y, z), with the (x, y) factor solved on route."""
    return hybe_residual(derive_colorings(x, y, z), SOLVE[route](x, y))


def chain_factors(x, y, z, solve):
    """The six factors of the triple as dense matrices (Intertwiner.R)."""
    col = derive_colorings(x, y, z)
    return [solve(a, b).R for a, b in (
        (col.x1, col.y1), (col.x, col.z1), (col.y, col.z),
        (col.ya, col.za), (col.xa, col.z), (col.x, col.y))]


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

    def test_nan_final_is_inf(self, triple3):
        # a NaN in the last final coloring: max dropped it, so the deviation
        # stayed finite and hybe_residual's isfinite guard let it through
        col = derive_colorings(*triple3)
        u, *rest = col.zb.as_tuple()
        col = replace(col, zb=SimpleNamespace(as_tuple=lambda: (float("nan"), *rest)))
        assert col.finals_deviation() == float("inf")
        with pytest.raises(AssemblyError):
            hybe_residual(col, closed_form_R(col.x, col.y))

    @pytest.mark.parametrize("ell_fixture", ["ctx3", "ctx5"])
    def test_set_ybe_sampled(self, ell_fixture, request):
        ctx = request.getfixturevalue(ell_fixture)
        for i in range(5):
            triple = sample_params(ctx, 31, i, count=3)
            assert derive_colorings(*triple).finals_deviation() < 1e-9


class TestMatrixHYBE:
    def test_oracle_route(self, triple3):
        c, dev = triple_hybe(*triple3, "oracle")
        assert dev < 1e-9
        assert abs(abs(c) - 1) < 1e-10

    def test_scalar_is_cube_root_power(self, triple3):
        # det-normalized factors force c^(ell^2) = 1: each product has
        # determinant 1 on every ell^2 x ell^2 grade block; c^ell is not 1
        for route in ("oracle", "closed-form"):
            c, _ = triple_hybe(*triple3, route)
            assert abs(c**9 - 1) < 1e-12
            assert abs(c**3 - 1) > 0.1

    def test_scalar_root_on_shifted_triple(self):
        # ell 7, seed 42, trial 15: two factors have band exponents 4 and 3,
        # c^49 = 1 and c^7 is not
        for route in ("oracle", "closed-form"):
            c, _ = triple_hybe(*seed42_triple(7, 0.1, 15), route)
            assert abs(c**49 - 1) < 1e-12
            assert abs(c**7 - 1) > 1e-3

    def test_routes_agree(self, triple3):
        c1, dev1 = triple_hybe(*triple3, "oracle")
        c2, dev2 = triple_hybe(*triple3, "closed-form")
        assert abs(c1 - c2) < 1e-9
        assert dev2 < 10 * max(dev1, 1e-12)

    def test_rejects_intertwiner_of_another_pair(self, triple3):
        col = derive_colorings(*triple3)
        for a, b in ((col.x1, col.y1), (col.y, col.x)):
            with pytest.raises(InvalidInputError):
                hybe_residual(col, closed_form_R(a, b))


class TestGradeBlocks:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("route", ["oracle", "closed-form"])
    def test_matches_dense(self, ell, route):
        # the dense products applied to the same probe columns
        ctx = primitive_root(ell)
        x, y = sample_params(ctx, 42, 0, count=2)
        z = third_params(ctx, 42, 0, 0.1)
        factors = chain_factors(x, y, z, SOLVE[route])
        c_ref, dev_ref = dense_hybe(factors, ell, probe_dense(ell))
        c, dev = triple_hybe(x, y, z, route)
        assert abs(c - c_ref) < 1e-14
        assert abs(dev - dev_ref) < 1e-14

    @pytest.mark.parametrize("ell, radius, trial", SHIFTED)
    @pytest.mark.parametrize("route", ["oracle", "closed-form"])
    def test_matches_dense_on_shifted_pairs(self, ell, radius, trial, route):
        x, y, z = seed42_triple(ell, radius, trial)
        factors = chain_factors(x, y, z, SOLVE[route])
        c_ref, dev_ref = dense_hybe(factors, ell, probe_dense(ell))
        c, dev = triple_hybe(x, y, z, route)
        assert abs(c - c_ref) < 1e-14
        assert abs(dev - dev_ref) < 1e-14

    @pytest.mark.parametrize("ell", [3, 5, 7])
    @pytest.mark.parametrize("route", ["oracle", "closed-form"])
    def test_exact_reference_matches_dense(self, ell, route):
        # tests/reference.py's exact products against the dense ones
        x, y, z = seed42_triple(ell, 0.1, 0)
        col = derive_colorings(x, y, z)
        c_ref, dev_ref = dense_hybe(chain_factors(x, y, z, SOLVE[route]), ell)
        c, dev = exact_hybe(triple_factors(col, SOLVE[route](x, y)))
        assert abs(c - c_ref) < 1e-14
        assert abs(dev - dev_ref) < 1e-14

    @pytest.mark.parametrize("route", ["oracle", "closed-form"])
    def test_planted_defects_fail_the_gate(self, route, monkeypatch):
        # one stack entry of one of the six factors times 1 + 1e-6 or
        # 1 + 1e-5, on seed-42 triples 0-2 at ell 3-9: the probes read the
        # exact deviation within [0.5, 2]x, and every defect that the exact
        # products show at 1e-7 or more fails the hybe_residual gate.  On
        # each route three of those read under 1e-7 on the probes, so a
        # 1e-7 gate would miss them
        gate, failing, under_1e7 = THRESHOLDS["hybe_residual"], 0, 0
        for ell, trial in itertools.product((3, 5, 7, 9), range(3)):
            x, y, z = seed42_triple(ell, 0.1, trial)
            col = derive_colorings(x, y, z)
            factors = triple_factors(col, SOLVE[route](x, y))
            for k, size in itertools.product(range(6), (1e-6, 1e-5)):
                rng = np.random.default_rng([ell, trial, k])
                blocks = factors[k][0].blocks.copy()
                blocks.flat[rng.integers(blocks.size)] *= 1 + size
                planted = [(replace(f, blocks=blocks) if j == k else f, slots)
                           for j, (f, slots) in enumerate(factors)]
                _, exact = exact_hybe(planted)
                monkeypatch.setattr(hybe, "_factors",
                                    lambda col, route, fs=planted[:5]: [f for f, _ in fs])
                _, dev = hybe_residual(col, planted[5][0])
                assert 0.5 <= dev / exact <= 2
                if exact >= 1e-7:
                    failing += 1
                    under_1e7 += dev < 1e-7
                    assert not check_entry(dev, gate)["pass"]
        assert (failing, under_1e7) == (75, 3)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_apply_matches_dense(self, ell):
        # a random pair stack of every shift a, embedded on each slot pair,
        # times a random triple stack of every shift s, against the dense
        # embedding of its dense matrix times the triple stack's dense matrix.
        # _apply carries every column alike, so the products are compared on
        # the first 25 columns of each grade: all of them at ell 3 and 5
        rng = np.random.default_rng(ell)
        cols = grade_order(ell)[:, :25].ravel()

        def random(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        embed = {(0, 1): embed_12, (0, 2): embed_13, (1, 2): embed_23}
        for s in range(ell):
            P = random(ell, ell * ell, ell * ell)
            dense_P = triple_dense(P, s, ell)[:, cols]
            for a in range(ell):
                R = random(ell, ell, ell)
                for slots, dense_embed in embed.items():
                    ref = dense_embed(_dense(R, a), ell) @ dense_P
                    got = triple_dense(hybe._apply(R, a, slots, P, s), s + a, ell)[:, cols]
                    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ell, trial", [(3, 0), (5, 0), (7, 0), (7, 15), (7, 17),
                                            (7, 68), (9, 0)])
    def test_s0_matches_dense(self, ell, trial):
        # seed 42, ell 7, trials 15, 17 and 68 are the pairs of the first 100
        # whose core residual is O(1); their band exponent is 3.  There the
        # two dense products have equal norms and are orthogonal, so the
        # residual is sqrt(2): the twist diagonal alone already gives it, the
        # gauge ratio alone does not
        p1, p2 = sample_params(primitive_root(ell), 42, trial, count=2)
        pair = PairContext(p1, p2)
        Ba = np.linalg.matrix_power(clock_shift(pair.in_params[0].ctx)[1], pair.band_exp)
        U2, Ut2 = (gauge_U(q)[0] for q in (p2, pair.out_params[1]))
        gauge = np.kron(Ba, Ut2 @ np.linalg.inv(U2))
        lhs, rhs = dense_products([pair.twist[:, None] * gauge] * 6, ell)
        ref = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        res, _ = s0_diagnostic(closed_form_R(p1, p2))
        assert abs(res - ref) < 1e-14
        assert (res > 1.0) == (trial in (15, 17, 68))
        if trial in (15, 17, 68):
            norms = np.linalg.norm(lhs), np.linalg.norm(rhs)
            assert abs(norms[0] / norms[1] - 1) < 1e-15
            assert abs(np.vdot(lhs, rhs)) <= 1e-15 * norms[0] * norms[1]
            twist = pair.twist[:, None] * np.kron(Ba, np.eye(ell))
            assert abs(dense_s0(twist, ell) - np.sqrt(2)) < 1e-15
            assert 0.8 < dense_s0(gauge, ell) < 1.1

    @pytest.mark.parametrize("ell", [3, 5])
    def test_s0_random_weights(self, ell):
        # random complex twist weights at every band exponent a, with the
        # gauge ratio of two sampled representations on slot 2: s0 against
        # the dense products of R0 = D (B^a x Ut2 U2^-1).  At a = 0 the core
        # is diagonal, so the products commute; at every other a each entry
        # of the weight array moves s0
        ctx = primitive_root(ell)
        rng = np.random.default_rng(ell)
        p, q = sample_params(ctx, 42, 0, count=2)
        ratio = gauge_U(q)[0] @ np.linalg.inv(gauge_U(p)[0])
        for a in range(ell):
            gauge = np.kron(np.linalg.matrix_power(clock_shift(ctx)[1], a), ratio)
            twist = rng.normal(size=ell * ell) + 1j * rng.normal(size=ell * ell)
            pair = SimpleNamespace(in_params=(p, p), out_params=(q, q), band_exp=a,
                                   twist=twist)
            res, conclusive = s0_diagnostic(SimpleNamespace(pair=pair))
            assert conclusive
            assert abs(res - dense_s0(twist[:, None] * gauge, ell)) < 1e-14
            if a == 0:
                assert res < 1e-15
                continue
            for k in range(ell * ell):
                pair.twist = twist.copy()
                pair.twist[k] *= 1 + 1e-6
                moved, _ = s0_diagnostic(SimpleNamespace(pair=pair))
                assert abs(moved - res) > 1e-12
                assert abs(moved - dense_s0(pair.twist[:, None] * gauge, ell)) < 1e-14

    def test_mismatched_shifts(self, triple3, monkeypatch):
        # the first factor moves the grade by 1, the other five by 0: the
        # two products have disjoint supports, as in the dense reference
        ell = 3
        B, I = clock_shift(primitive_root(ell))[1], np.eye(ell)
        shifted = _kron_blocks(B, I, 1)
        assert np.array_equal(_dense(shifted, 1), np.kron(B, I))
        factors = [np.kron(B, I)] + [np.eye(ell * ell)] * 5
        col = derive_colorings(*triple3)
        identity = SimpleNamespace(blocks=_kron_blocks(I, I, 0), route="closed-form",
                                   pair=SimpleNamespace(band_exp=0,
                                                        in_params=(col.x, col.y)))
        fakes = iter([SimpleNamespace(blocks=shifted, pair=SimpleNamespace(band_exp=1))]
                     + [identity] * 4)
        monkeypatch.setattr(hybe, "closed_form_R", lambda a, b: next(fakes))
        c, dev = hybe_residual(col, identity)
        c_ref, dev_ref = dense_hybe(factors, ell)
        assert (c, dev) == (0, 1.0)
        assert (c_ref, dev_ref) == (0, 1.0)

    def test_probes_drawn_once_per_degree(self, monkeypatch):
        # the probe stack is a per-degree constant: shared, read-only, and
        # a later triple at the same degree builds no generator for it
        X = hybe._probes(5)
        assert hybe._probes(5) is X
        assert not X.flags.writeable
        x, y, z = seed42_triple(5, 0.1, 0)
        first = triple_hybe(x, y, z, "closed-form")
        built, philox = [], np.random.Philox

        def count_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", count_philox)
        assert triple_hybe(x, y, z, "closed-form") == first
        assert built == []

    def test_large_ell_closed_form(self):
        ctx = primitive_root(13)
        x, y = sample_params(ctx, 42, 0, count=2)
        z = third_params(ctx, 42, 0, 0.1)
        c, dev = triple_hybe(x, y, z, "closed-form")
        assert dev <= 1e-12
        assert abs(abs(c) - 1) <= 1e-12
        assert np.isfinite(s0_diagnostic(closed_form_R(x, y))[0])


class TestS0Diagnostic:
    def test_reports_finite(self, pair3):
        res, conclusive = s0_diagnostic(closed_form_R(*pair3))
        assert conclusive
        assert np.isfinite(res)
