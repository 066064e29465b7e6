import numpy as np
import pytest

import holobraid.cyclic as cyclic
from holobraid.cyclic import (MIN_WEIGHT, RepParams, _dense,
                              braided_rep_pair, build_rep, clock_shift, f_weights,
                              gauge_conjugation_residual, gauge_U, is_generic,
                              lift_character, z0_character)
from holobraid.errors import (DegenerateCharacterError, InconsistentLiftError,
                              InvalidParamsError, NonGenericRepresentationError)
from holobraid.glstar import Z0Char
from holobraid.intertwiner import PairContext
from holobraid.roots import primitive_root
from holobraid.sampling import _draw_params, sample_params, trial_rng


def params(ctx, u=1.0, v=1.0, x=1.0, y=1.0):
    return RepParams(ctx=ctx, u=u, v=v, x=x, y=y)


def dense_braid_factor(out1, out2):
    """G = K1^-1 E1 x F2 L2 as a dense ell^2 x ell^2 matrix."""
    r1, r2 = build_rep(out1), build_rep(out2)
    return np.kron(np.linalg.inv(r1.K) @ r1.E, r2.F @ r2.L)


def dense_is_generic(p, q, max_condition):
    """is_generic with np.linalg.cond of the dense factors (1 - t^(+-1) G)."""
    for r in (p, q):
        if np.min(np.abs(f_weights(r))) < MIN_WEIGHT or abs(r.y) < MIN_WEIGHT:
            return False
    s = z0_character(p).eta * z0_character(q).phi
    if abs(1 - s) < MIN_WEIGHT or abs(s) < MIN_WEIGHT:
        return False
    try:
        q1, q2 = braided_rep_pair(p, q)
    except (DegenerateCharacterError, InconsistentLiftError):
        return False
    if any(np.min(np.abs(f_weights(r))) < MIN_WEIGHT for r in (q1, q2)):
        return False
    G, t = dense_braid_factor(q1, q2), p.ctx.eps
    I = np.eye(len(G))
    return all(np.linalg.cond(f) <= max_condition for f in (I - t * G, I - G / t))


class TestClockShift:
    def test_clock_diagonal_ell3(self, ctx3):
        A, _ = clock_shift(ctx3)
        eps = ctx3.eps
        assert np.allclose(np.diag(A), [eps**2, eps**4, 1.0])

    def test_shift_period(self, ctx3):
        _, B = clock_shift(ctx3)
        assert np.allclose(np.linalg.matrix_power(B, 3), np.eye(3))

    def test_weyl_relation_ell5(self, ctx5):
        A, B = clock_shift(ctx5)
        assert np.linalg.norm(A @ B - ctx5.eps**2 * B @ A) < 1e-13

    @pytest.mark.parametrize("ell", [3, 7])
    def test_powers_are_identity(self, ell):
        ctx = primitive_root(ell)
        for X in clock_shift(ctx):
            assert np.linalg.norm(np.linalg.matrix_power(X, ell) - np.eye(ell)) < 1e-12


class TestBuildRep:
    def test_unit_uv_collapse(self, ctx3):
        rep = build_rep(params(ctx3, x=1.3, y=0.8))
        A, _ = clock_shift(ctx3)
        assert np.allclose(rep.K, A)
        assert np.allclose(rep.L, A)

    def test_shared_and_read_only(self, ctx3):
        p = params(ctx3, x=1.3, y=0.8)
        rep = build_rep(p)
        assert build_rep(p) is rep
        with pytest.raises(ValueError):
            rep.K[0, 0] = 1.0
        U, _ = gauge_U(p)
        assert gauge_U(p)[0] is U and not U.flags.writeable
        assert f_weights(p) is f_weights(p) and not f_weights(p).flags.writeable
        assert z0_character(p) is z0_character(p)

    def test_zero_parameter_rejected(self, ctx3):
        with pytest.raises(InvalidParamsError):
            params(ctx3, u=0.0)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_defining_relations(self, ell):
        ctx = primitive_root(ell)
        t = ctx.eps
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(-0.2, 0.2, 8)
            p = params(ctx, *np.exp(d[0::2] + 1j * d[1::2]))
            K, L, E, F = build_rep(p).as_tuple()
            Linv = np.linalg.inv(L)
            scale = max(np.linalg.norm(E) * np.linalg.norm(F), 1.0)
            assert np.linalg.norm(K @ L - L @ K) < 1e-11 * scale
            assert np.linalg.norm(K @ E - t**2 * E @ K) < 1e-11 * scale
            assert np.linalg.norm(K @ F - F @ K / t**2) < 1e-11 * scale
            assert np.linalg.norm(L @ E - t**2 * E @ L) < 1e-11 * scale
            assert np.linalg.norm(L @ F - F @ L / t**2) < 1e-11 * scale
            assert np.linalg.norm(E @ F - F @ E - (t - 1 / t) * (K - Linv)) \
                < 1e-11 * scale

    def test_casimir_scalar(self, ctx5):
        rng = np.random.default_rng(6)
        d = rng.uniform(-0.2, 0.2, 8)
        p = params(ctx5, *np.exp(d[0::2] + 1j * d[1::2]))
        K, L, E, F = build_rep(p).as_tuple()
        cas = E @ F + K / ctx5.eps + np.linalg.inv(L) * ctx5.eps
        target = p.u * (p.x + 1 / p.x)
        assert np.linalg.norm(cas - target * np.eye(5)) < 1e-12 * abs(target)


class TestCharacter:
    def test_unit_point(self, ctx3):
        c = z0_character(params(ctx3))
        assert (c.kappa, c.lam, c.eta) == (1, 1, 1)
        assert abs(c.phi) < 1e-15

    def test_v_equals_x_kills_phi(self, ctx5):
        c = z0_character(params(ctx5, u=1.2, v=0.9 + 0.1j, x=0.9 + 0.1j, y=1.1))
        assert abs(c.phi) < 1e-13

    def test_phi_matches_matrix_power(self, ctx3):
        p = params(ctx3, u=1.1, v=0.93, x=1.21 + 0.05j, y=0.97)
        F3 = np.linalg.matrix_power(build_rep(p).F, 3)
        c = z0_character(p)
        assert abs(F3[0, 0] - c.phi) < 1e-11 * abs(c.phi)
        # and the whole power is scalar
        assert np.linalg.norm(F3 - F3[0, 0] * np.eye(3)) < 1e-11 * abs(c.phi)

    def test_f_power_prefactor_adjudication(self, ctx3):
        # the suite's two readings of the F^ell scalar: phi, and phi y^ell (bare)
        p = params(ctx3, u=1.1, v=0.93, x=1.21 + 0.05j, y=0.9 + 0.2j)
        c = z0_character(p)
        F3 = np.linalg.matrix_power(build_rep(p).F, 3)
        scalar = np.trace(F3) / 3
        assert abs(c.phi - scalar) < 1e-12 * abs(scalar)
        assert abs(c.phi * c.eta - scalar) > 1e-2 * abs(scalar)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_all_powers_central(self, ell):
        ctx = primitive_root(ell)
        p = params(ctx, u=1.05 - 0.03j, v=0.97 + 0.08j, x=1.1, y=0.92 - 0.04j)
        rep = build_rep(p)
        c = z0_character(p)
        I = np.eye(ell)
        for m, s in zip(rep.as_tuple(), c.as_array()):
            P = np.linalg.matrix_power(m, ell)
            assert np.linalg.norm(P - s * I) < 1e-11 * max(abs(s), 1)


class TestLift:
    def test_round_trip(self, ctx5):
        p = params(ctx5, u=1.07, v=0.95 + 0.02j, x=1.13 - 0.04j, y=1.02 + 0.05j)
        c = z0_character(p)
        q = lift_character(c, p.u, p.x, ctx5)
        # v, y agree up to an ell-th root of unity; characters agree exactly
        assert abs(q.v**5 - p.v**5) < 1e-12
        assert abs(q.y**5 - p.y**5) < 1e-12
        c2 = z0_character(q)
        assert np.max(np.abs(c2.as_array() - c.as_array())) < 1e-11

    def test_identityish_lift(self, ctx3):
        q = lift_character(Z0Char(1.0, 1.0, 1.0, 0.0), 1.0, 1.0, ctx3)
        assert (q.u, q.v, q.x, q.y) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_eta(self, ctx3):
        with pytest.raises(DegenerateCharacterError):
            lift_character(Z0Char(1.0, 1.0, 0.0, 0.5), 1.0, 1.0, ctx3)

    def test_wrong_strand_data(self, ctx3):
        p = params(ctx3, u=1.07, v=0.95, x=1.13, y=1.02)
        c = z0_character(p)
        with pytest.raises(InconsistentLiftError):
            lift_character(c, 1.4, p.x, ctx3)


class TestGauge:
    def test_conjugation_identity(self, ctx3, ctx5):
        rng = np.random.default_rng(7)
        for ctx in (ctx3, ctx5):
            for _ in range(5):
                d = rng.uniform(-0.2, 0.2, 8)
                p = params(ctx, *np.exp(d[0::2] + 1j * d[1::2]))
                assert gauge_conjugation_residual(p, gauge_U(p)) < 1e-11

    def test_last_entry_is_one(self, ctx5):
        p = params(ctx5, u=1.05, v=0.9, x=1.2, y=0.95)
        U, z = gauge_U(p)
        assert abs(U[-1, -1] - 1) < 1e-12
        assert abs(z**5 - np.prod(f_weights(p))) < 1e-12

    def test_y_independent(self, ctx3):
        base = dict(u=1.05, v=0.9, x=1.2)
        U1, z1 = gauge_U(params(ctx3, **base, y=0.8))
        U2, z2 = gauge_U(params(ctx3, **base, y=1.7 + 0.3j))
        assert np.allclose(U1, U2)
        assert z1 == z2

    def test_constant_convention_fails_wrap(self, ctx3):
        p = params(ctx3, u=1.05, v=0.9, x=1.2, y=0.95)
        # the single-z prefactor U_nn = z prod_(m<=n) c_m^-1
        _, z = gauge_U(p)
        constant = np.diag(z / np.cumprod(f_weights(p)))
        assert gauge_conjugation_residual(p, (constant, z)) > 1e-3

    def test_degenerate_weights(self, ctx3):
        # x on the lattice v*eps^(2m-1) makes some weight vanish
        p = params(ctx3, u=1.1, v=0.9, x=0.9 * ctx3.pow(1), y=1.0)
        with pytest.raises(NonGenericRepresentationError):
            gauge_U(p)


class TestGenericity:
    def test_unit_point_is_degenerate(self, ctx3):
        # x = v puts one lowering weight at zero: 2m-1 covers every residue
        p = params(ctx3)
        assert np.min(np.abs(f_weights(p))) < 1e-14
        assert not is_generic(p, p)

    def test_constructed_degeneracy(self, ctx5):
        good = params(ctx5, u=1.02, v=0.95, x=1.2, y=1.05)
        bad = params(ctx5, u=1.02, v=0.95, x=0.95 * ctx5.pow(3), y=1.05)
        assert not is_generic(bad, good)

    def test_sampled_pairs_pass(self, ctx3):
        p1, p2 = sample_params(ctx3, 99, 0, count=2)
        assert is_generic(p1, p2)

    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_condition_on_grade_blocks(self, ell):
        # every block of 1 - t^(+-1) G has the same singular values, so
        # is_generic reads block 0 alone
        ctx = primitive_root(ell)
        I, Ib, t = np.eye(ell * ell), np.eye(ell), ctx.eps
        for radius in (0.1, 1.0):
            pair = PairContext(*sample_params(ctx, 42, 0, radius=radius, count=2))
            G = dense_braid_factor(*pair.out_params)
            assert np.array_equal(_dense(pair.G, 0), G)
            for dense, blocks in ((I - t * G, Ib - t * pair.G), (I - G / t, Ib - pair.G / t)):
                sv = np.linalg.svd(blocks, compute_uv=False)
                assert np.max(np.abs(sv - sv[0])) <= 1e-12 * sv[0, 0]
                assert abs(sv[0, 0] / sv[0, -1] / np.linalg.cond(dense) - 1) < 1e-10
            assert np.array_equal(_dense(pair.T, 0), I - t * G)

    def test_matches_dense_reference(self, monkeypatch):
        # 200 draws at radius 1.0, ell 9: four fail |eta phi| >= MIN_WEIGHT;
        # with MAX_CONDITION between two condition numbers of the draws,
        # about half fail the conditioning instead
        ctx = primitive_root(9)
        draws = []
        for i in range(200):
            rng = trial_rng(4, i)
            draws.append([_draw_params(ctx, rng, 1.0) for _ in range(2)])
        verdicts = [is_generic(p, q) for p, q in draws]
        assert verdicts == [dense_is_generic(p, q, cyclic.MAX_CONDITION) for p, q in draws]
        assert verdicts.count(False) == 4
        conds = sorted(np.linalg.cond(np.eye(81) - ctx.eps * dense_braid_factor(
            *braided_rep_pair(p, q))) for (p, q), ok in zip(draws, verdicts) if ok)
        bound = float(np.sqrt(conds[len(conds) // 2] * conds[len(conds) // 2 + 1]))
        monkeypatch.setattr(cyclic, "MAX_CONDITION", bound)
        verdicts = [is_generic(p, q) for p, q in draws]
        assert verdicts == [dense_is_generic(p, q, bound) for p, q in draws]
        assert 50 < verdicts.count(False) < 150
