"""Pair-space operators as grade-block stacks (see holobraid.cyclic) against
the dense references of tests/reference.py, on seed-42 pairs of band
exponent 0 and on the pairs of SHIFTED, whose exponent is not 0."""
import sys

import numpy as np
import pytest

from holobraid.cyclic import RepParams, _chain, _dense, _kron_blocks, _rotate, clock_shift
from holobraid.intertwiner import (BLOCK_SHIFTS, Intertwiner, PairContext,
                                   braided_rep_pair, central_invariance_residuals,
                                   check_generator_action, closed_form_R,
                                   compare_up_to_scalar, det_normalize,
                                   r1_conjugation_residuals, solve_intertwiner)
from holobraid.roots import primitive_root
from holobraid.suite import SuiteConfig, run_trial
from reference import (SHIFTED, dense_blocks, dense_central_invariance,
                       dense_closed_form, dense_det_normalize, dense_G,
                       dense_generator_action, dense_r1_residuals, dense_residual,
                       dense_spectral_factor, embed_12, seed42_pair, spectral_values)

PAIRS = [(3, 0.1, 0), (5, 0.1, 0), *SHIFTED]
SOLVE = {"oracle": solve_intertwiner, "closed-form": closed_form_R}


def test_shifted_pairs_have_nonzero_band():
    assert [PairContext(*seed42_pair(*case)).band_exp for case in SHIFTED] == [2, 3]


def random_stack(rng, ell):
    return rng.normal(size=(ell,) * 3) + 1j * rng.normal(size=(ell,) * 3)


def band_mask(ell, shift):
    """Dense mask of the entries of grade shift `shift`, from the pair grades."""
    grade = (np.arange(ell * ell) // ell + np.arange(ell * ell)) % ell
    return (grade[:, None] - grade[None, :]) % ell == shift % ell


def flat(residuals):
    """{(name, reading): value} of {name: value} or {name: {reading: value}}."""
    return {(name, reading): value for name, v in residuals.items()
            for reading, value in (v.items() if isinstance(v, dict) else [(None, v)])}


def assert_close(got, want):
    """Residuals above rounding agree to 1e-8 relative, the others to 1e-13."""
    got, want = flat(got), flat(want)
    for key, value in want.items():
        if value > 1e-9:
            assert abs(got[key] / value - 1) < 1e-8, key
        else:
            assert abs(got[key] - value) < 1e-13, key


def perturbed(intw):
    """intw with its stack's largest entry scaled by 1 + 1e-6, so that every
    residual is far above rounding and a misplaced factor shows."""
    blocks = intw.blocks.copy()
    blocks.flat[np.argmax(np.abs(blocks))] *= 1 + 1e-6
    return Intertwiner(blocks=blocks, pair=intw.pair, route=intw.route)


class TestLayout:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_kron_blocks_and_dense_match_np_kron(self, ell):
        rng = np.random.default_rng(ell)
        B = clock_shift(primitive_root(ell))[1]
        for sx in range(ell):
            for sy in (0, 1, ell - 1):
                X = np.linalg.matrix_power(B, sx) * rng.normal(size=ell)
                Y = np.linalg.matrix_power(B, sy) * rng.normal(size=ell)
                shift = (sx + sy) % ell
                assert np.array_equal(_dense(_kron_blocks(X, Y, shift), shift), np.kron(X, Y))
        # a dense X x Y keeps exactly its entries on the band
        X, Y = rng.normal(size=(2, ell, ell))
        for shift in range(ell):
            assert np.array_equal(_dense(_kron_blocks(X, Y, shift), shift),
                                  np.kron(X, Y) * band_mask(ell, shift))

    @pytest.mark.parametrize("ell", [3, 5])
    def test_chain_inverse_and_det_match_dense(self, ell):
        rng = np.random.default_rng(10 + ell)
        for s, t in ((0, 0), (1, 2), (ell - 1, 1), (2, ell - 2)):
            A, B = random_stack(rng, ell), random_stack(rng, ell)
            AB, shift = _chain([(A, s), (B, t)])
            assert shift == (s + t) % ell
            ref = _dense(A, s) @ _dense(B, t)
            assert np.max(np.abs(_dense(AB, shift) - ref)) <= 1e-14 * np.max(np.abs(ref))
            # check_generator_action's R^-1: the inverted blocks, rotated
            inv_ref = np.linalg.inv(_dense(A, s))
            assert np.max(np.abs(_dense(_rotate(np.linalg.inv(A), -s), -s) - inv_ref)) \
                <= 1e-12 * np.max(np.abs(inv_ref))
            # log|det| from the blocks, det 1 after scaling, and the dense
            # reference's root-of-unity representative
            An, logabs = det_normalize(A, s)
            assert abs(logabs - np.linalg.slogdet(_dense(A, s)).logabsdet) < 1e-12
            assert abs(np.linalg.det(_dense(An, s)) - 1) < 1e-12
            assert np.max(np.abs(_dense(An, s) - dense_det_normalize(_dense(A, s)))) < 1e-13


@pytest.mark.parametrize("ell, radius, trial", PAIRS)
class TestAgainstDense:
    def test_blocks(self, ell, radius, trial):
        pair = PairContext(*seed42_pair(ell, radius, trial))
        M, N = pair.blocks
        assert np.array_equal(_dense(pair.G, 0), dense_G(pair))
        for b, (M_ref, N_ref) in enumerate(dense_blocks(pair)):
            shift = BLOCK_SHIFTS[b]
            for stack, ref in ((M[b], M_ref), (N[b], N_ref)):
                # the dense block lies on its band, and the stack holds it
                assert not np.any(ref[~band_mask(ell, shift)])
                assert np.max(np.abs(_dense(stack, shift) - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("route", ["oracle", "closed-form"])
    def test_residual_and_conjugation_checks(self, ell, radius, trial, route):
        intw = SOLVE[route](*seed42_pair(ell, radius, trial))
        assert abs(intw.residual - dense_residual(intw.R, intw.pair)) < 1e-14
        bad = perturbed(intw)
        assert bad.residual > 1e-8
        assert abs(bad.residual / dense_residual(bad.R, bad.pair) - 1) < 1e-8
        assert_close(central_invariance_residuals(intw),
                     dense_central_invariance(intw.R, intw.pair))
        for x in (intw, bad):
            assert_close(check_generator_action(x), dense_generator_action(x.R, x.pair))
        assert check_generator_action(bad)["slot2_clock_k"]["direct"] > 1e-8

    def test_central_invariance_reads_no_R(self, ell, radius, trial):
        # the Casimir and K L^-1 act on each slot as scalars, which any
        # invertible R conjugates alike: a random stack in place of R gives
        # the same residuals, and the dense conjugation agrees to rounding
        intw = solve_intertwiner(*seed42_pair(ell, radius, trial))
        fake = Intertwiner(blocks=random_stack(np.random.default_rng(ell), ell),
                           pair=intw.pair, route=intw.route)
        assert central_invariance_residuals(fake) == central_invariance_residuals(intw)
        assert_close(central_invariance_residuals(fake),
                     dense_central_invariance(fake.R, fake.pair))

    def test_central_invariance_sees_a_wrong_target(self, ell, radius, trial):
        # an output pair whose slot-1 x is scaled by 1.01 has another
        # slot-1 Casimir: its residual is far above rounding, whatever R is
        p1, p2 = seed42_pair(ell, radius, trial)
        q1, q2 = braided_rep_pair(p1, p2)
        q1x = RepParams(ctx=q1.ctx, u=q1.u, v=q1.v, x=1.01 * q1.x, y=q1.y)
        pair = PairContext(p1, p2, target=(q1x, q2))
        intw = Intertwiner(blocks=random_stack(np.random.default_rng(ell), ell),
                           pair=pair, route="oracle")
        res = central_invariance_residuals(intw)
        assert res["casimir_slot1"] > 1e-9
        assert max(res["casimir_slot2"], res["kl_ratio_slot2"]) < 1e-13

    def test_closed_form_and_log_det(self, ell, radius, trial):
        pair = PairContext(*seed42_pair(ell, radius, trial))
        closed = closed_form_R(*pair.in_params, pair=pair)
        ctx = pair.in_params[0].ctx
        R1 = dense_spectral_factor(ell, ctx.eps_powers, spectral_values(pair.chi, ctx))
        assert np.array_equal(_dense(pair.spectral, 0), R1)
        ref = dense_closed_form(pair, R1)
        assert abs(closed.log_abs_det - np.linalg.slogdet(ref).logabsdet) < 1e-12
        # det normalization picks the dense reference's representative
        assert np.max(np.abs(closed.R - dense_det_normalize(ref))) < 1e-13
        oracle = solve_intertwiner(*pair.in_params)
        assert np.max(np.abs(oracle.R - dense_det_normalize(oracle.R))) < 1e-13
        assert compare_up_to_scalar(oracle.blocks, closed.blocks)[1] < 1e-13

    def test_r1_conjugation_residuals(self, ell, radius, trial):
        closed = closed_form_R(*seed42_pair(ell, radius, trial))
        ctx = primitive_root(ell)
        R1 = _dense(closed.pair.spectral, 0)
        assert_close(r1_conjugation_residuals(closed), dense_r1_residuals(R1, closed.pair.chi, ctx))
        # R1 is one circulant on every grade, so it commutes exactly with
        # 1 x B^-1 (the identity block on each grade) and B x 1 (a cyclic
        # shift): r1_conjugation_residuals reads neither
        B, I = clock_shift(ctx)[1], np.eye(ell)
        for X in (np.kron(I, B.T), np.kron(B, I)):
            assert np.array_equal(R1 @ X, X @ R1)
        # R1 is the same circulant on every grade, which hides a misplaced
        # grade; a spectral factor perturbed on one grade moves the
        # opposite-shift reading
        R1 = closed.pair.spectral.copy()
        R1[1, 0, ell - 1] += 1e-3
        closed.pair.__dict__["spectral"] = R1
        got = r1_conjugation_residuals(closed)
        assert_close(got, dense_r1_residuals(_dense(R1, 0), closed.pair.chi, ctx))
        assert got["opposite_shifts"] > 1e-8


@pytest.mark.parametrize("radius", [0.1, 1.0])
@pytest.mark.parametrize("ell", [9, 13])
def test_r1_conjugation_residuals_past_ell_7(ell, radius):
    # the parallel-shift reading is read off its algebra, which holds at
    # every odd degree; TestAgainstDense compares it at ell <= 7 only
    closed = closed_form_R(*seed42_pair(ell, radius, 0))
    R1 = _dense(closed.pair.spectral, 0)
    assert_close(r1_conjugation_residuals(closed),
                 dense_r1_residuals(R1, closed.pair.chi, primitive_root(ell)))


@pytest.mark.parametrize("ell", [3, 5, 7, 13])
def test_clock_pair_commutes_with_grade_zero_stacks(ell):
    # A x A acts on pair grade g as the scalar eps^(2g), so it commutes with
    # every grade-0 stack, such as the spectral factor R1: a gate on that
    # commutator could not fail, and no trial computes it
    A = clock_shift(primitive_root(ell))[0]
    AA = _kron_blocks(A, A, 0)
    rng = np.random.default_rng(ell)
    for _ in range(3):
        X = rng.normal(size=(ell,) * 3) + 1j * rng.normal(size=(ell,) * 3)
        assert np.linalg.norm(X @ AA - AA @ X) < 1e-14 * np.linalg.norm(X)


def test_trial_builds_no_dense_matrix(monkeypatch):
    # a suite trial at ell 5 on both routes, with its triple, calls neither
    # np.kron nor cyclic._dense and reads no Intertwiner.R
    calls = {"kron": 0, "_dense": 0, "R": 0}
    modules = [m for name, m in sys.modules.items()
               if name.startswith("holobraid") and m is not None]
    for name, original, owners in (("kron", np.kron, [np]), ("_dense", _dense, modules)):
        def count(*args, _fn=original, _name=name):
            calls[_name] += 1
            return _fn(*args)
        for owner in owners:
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, count)
    dense_R = Intertwiner.R.func

    def read_R(self):
        calls["R"] += 1
        return dense_R(self)
    monkeypatch.setattr(Intertwiner, "R", property(read_R))
    cfg = SuiteConfig(ell=5, trials=1, seed=42, route="both", hybe_every=1)
    run = run_trial(cfg, primitive_root(5), 0)
    assert run.record["pass"] and "c" in run.record["hybe"]
    assert calls == {"kron": 0, "_dense": 0, "R": 0}
    # the counters see a call
    run.intertwiner.R
    embed_12(np.eye(4), 2)
    assert calls == {"kron": 1, "_dense": 1, "R": 1}
