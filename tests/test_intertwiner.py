from dataclasses import fields

import numpy as np
import pytest

import holobraid.intertwiner as intertwiner
from holobraid.cyclic import RepParams, build_rep, z0_character
from holobraid.errors import (BranchMismatchError, DegenerateCharacterError,
                              InvalidInputError, NoIntertwinerError)
from holobraid.glstar import Z0Char, beta_inverse, glstar_multiply
from holobraid.intertwiner import (BAND_TOL, DetSample, Intertwiner, PairContext,
                                   _adjoint, _apply_rows, _band_rows, _band_table,
                                   _cgls, _coupling_svd, _reduced_system, braided_rep_pair,
                                   central_invariance_residuals,
                                   check_generator_action,
                                   closed_form_R, compare_up_to_scalar,
                                   det_exponent_probe,
                                   r1_conjugation_residuals, solve_intertwiner)
from holobraid.cyclic import lift_character
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params
from holobraid.suite import THRESHOLDS
from reference import (SHIFTED, band_rows, coproduct_power_misses,
                       coproduct_rep, dense_band_system, dense_blocks,
                       dense_coupling_system, full_step_solve, row_sum_reduced_system,
                       seed42_pair, slot_major)


def full_reference(p1, p2):
    """Kernel line of the unreduced eight-block stack by dense SVD: the
    reference the band oracle is compared against (small ell only)."""
    blocks = dense_blocks(PairContext(p1, p2))
    n2 = p1.ctx.ell ** 2
    I2 = np.eye(n2)
    S = np.vstack([np.kron(N, I2) - np.kron(I2, M.T) for M, N in blocks])
    _, sv, vh = np.linalg.svd(S, full_matrices=False)
    assert sv[-2] > 1e6 * sv[-1]  # a line
    return vh[-1].conj().reshape(n2, n2)


def dense_basis(z, comp, ell):
    """_reduced_system's basis Z as a dense (ell^3 x ell) matrix."""
    Z = np.zeros((len(z), ell), dtype=complex)
    Z[np.arange(len(z)), comp] = z
    return Z


class TestCoproduct:
    def test_grouplike(self, ctx3, pair3):
        p1, p2 = pair3
        r1, r2 = build_rep(p1), build_rep(p2)
        for opp in (False, True):
            m = coproduct_rep(p1, p2, "K", opp)
            assert np.allclose(m, np.kron(r1.K, r2.K))

    def test_raising_legs(self, ctx3, pair3):
        p1, p2 = pair3
        r1, r2 = build_rep(p1), build_rep(p2)
        m = coproduct_rep(p1, p2, "E", False)
        assert np.allclose(m, np.kron(r1.E, r2.K) + np.kron(np.eye(3), r2.E))

    @pytest.mark.parametrize("radius", [0.1, 1.0])
    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_powers_follow_group_law(self, ell, radius):
        # the ell-th powers of the coproducts are the scalars of
        # glstar_multiply(c1, c2), and the opposite coproduct's those of
        # glstar_multiply(c2, c1); eta and phi tell the two orders apart
        for trial in range(5):
            p1, p2 = seed42_pair(ell, radius, trial)
            c1, c2 = z0_character(p1), z0_character(p2)
            for opposite, law in ((False, (c1, c2)), (True, (c2, c1))):
                held = coproduct_power_misses(p1, p2, opposite, glstar_multiply(*law))
                swapped = coproduct_power_misses(p1, p2, opposite,
                                                 glstar_multiply(*law[::-1]))
                assert max(held) < 1e-10
                assert min(swapped[2:]) > 1e-3  # eta and phi


class TestBraidedPair:
    def test_characters_follow_coloring_map(self, pair5):
        p1, p2 = pair5
        q1, q2 = braided_rep_pair(p1, p2)
        e1, e2 = beta_inverse(z0_character(p1), z0_character(p2))
        assert np.max(np.abs(z0_character(q1).as_array() - e1.as_array())) < 1e-10
        assert np.max(np.abs(z0_character(q2).as_array() - e2.as_array())) < 1e-10

    def test_strand_data_preserved(self, pair5):
        p1, p2 = pair5
        q1, q2 = braided_rep_pair(p1, p2)
        assert (q1.u, q1.x) == (p1.u, p1.x)
        assert (q2.u, q2.x) == (p2.u, p2.x)

    def test_degenerate_character_rejected(self, ctx3):
        p1 = RepParams(ctx=ctx3, u=1.05, v=0.95, x=1.2, y=1.0)
        with pytest.raises(DegenerateCharacterError):
            lift_character(Z0Char(1.0, 1.0, 0.0, 0.2), 1.0, 1.0, ctx3)


class TestOracle:
    def test_kernel_line_and_residual(self, pair3):
        intw = solve_intertwiner(*pair3)
        assert intw.singular_gap > 1e6
        assert intw.residual < 1e-10

    def test_full_and_band_agree(self, pair3):
        oracle = solve_intertwiner(*pair3)
        assert compare_up_to_scalar(full_reference(*pair3), oracle.R)[1] < 1e-10

    def test_reads_no_closed_form_data(self, pair3, monkeypatch):
        import holobraid.intertwiner as it

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle read closed-form data")

        monkeypatch.setattr(it, "_staircase_orbit", forbidden)
        for name in ("chi", "twist"):
            monkeypatch.setattr(PairContext, name, property(forbidden))
        solve_intertwiner(*pair3)
        # the shared pair context builds its closed-form data only on demand
        pair = PairContext(*pair3)
        solve_intertwiner(*pair3, pair=pair)
        assert not {"chi", "twist", "spectral"} & set(vars(pair))

    def test_unread_residual_builds_no_blocks(self, pair3):
        intw = closed_form_R(*pair3)
        assert "blocks" not in vars(intw.pair)
        # read late, the residual is the one built with the intertwiner
        ref = Intertwiner(blocks=intw.blocks, pair=PairContext(*pair3), route=intw.route)
        assert intw.residual == ref.residual
        assert "blocks" in vars(intw.pair)

    def test_solve_builds_blocks_once(self, pair3, monkeypatch):
        # the oracle reads pair.blocks[2:] and the residual all eight: one
        # build of the system serves both, and no inverse of T is kept
        calls = {"_coproducts": 0, "_kron_blocks": 0}
        for name in calls:
            def count(*args, _fn=getattr(intertwiner, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(intertwiner, name, count)
        intw = solve_intertwiner(*pair3)
        blocks, built = intw.pair.blocks, dict(calls)
        assert built["_coproducts"] == 2
        assert intw.residual < 1e-10
        assert calls == built and intw.pair.blocks is blocks
        assert not hasattr(intw.pair, "T_inv")

    @pytest.mark.parametrize("ell", [9, 11, 13])
    def test_large_ell_accuracy(self, ell):
        # det-normalizing a unit-norm ell^2 x ell^2 kernel vector underflowed
        # np.linalg.det at ell 13; the gap and accuracy must not decay with ell
        p1, p2 = sample_params(primitive_root(ell), 42, 0, count=2)
        oracle = solve_intertwiner(p1, p2)
        assert oracle.singular_gap >= 1e13
        assert compare_up_to_scalar(oracle.R, closed_form_R(p1, p2).R)[1] <= 1e-13
        assert abs(np.linalg.det(oracle.R) - 1) <= 1e-9

    def test_coproduct_blocks_alone_leave_one_kernel_per_branch(self, pair3):
        # regression: the four coproduct equations admit one intertwiner per
        # Casimir branch, i.e. an ell-dimensional nullspace
        blocks = dense_blocks(PairContext(*pair3))[:4]
        I2 = np.eye(9)
        S = np.vstack([np.kron(N, I2) - np.kron(I2, M.T) for M, N in blocks])
        sv = np.linalg.svd(S, compute_uv=False)
        assert np.sum(sv < sv[0] * 1e-10) == 3

    def test_negative_control_unbraided(self, pair3, pair5, pair7):
        # the reduced system only restricts S, so a wrong target leaves no
        # kernel at any ell
        for p1, p2 in (pair3, pair5, pair7):
            assert abs(z0_character(p1).eta * z0_character(p2).phi) > 1e-6
            with pytest.raises(NoIntertwinerError):
                solve_intertwiner(p1, p2, pair=PairContext(p1, p2, target=(p1, p2)))

    # the smallest relative singular value each seed-42 target below is
    # rejected with, as read when S Z still held the two-term rows
    @pytest.mark.parametrize("ell, rel", [(3, 5.265e-4), (5, 4.928e-4), (7, 4.638e-4),
                                          (9, 4.457e-4)])
    def test_negative_control_perturbed_target(self, ell, rel):
        # the braided target with the first output's y scaled by 1 + 1e-3:
        # the band exponent stays, but the two-term rows no longer vanish on
        # span Z (|S_t Z| is 1e-3).  The factorisation leaves those rows
        # out, and the kernel test, which reads |S v| on the full S, still
        # rejects the target at the same distance
        p1, p2 = seed42_pair(ell, 0.1, 0)
        q1, q2 = braided_rep_pair(p1, p2)
        bad = RepParams(ctx=q1.ctx, u=q1.u, v=q1.v, x=q1.x, y=q1.y * (1 + 1e-3))
        pair = PairContext(p1, p2, target=(bad, q2))
        assert pair.band_exp == PairContext(p1, p2).band_exp
        with pytest.raises(NoIntertwinerError, match="empty nullspace") as info:
            solve_intertwiner(p1, p2, pair=pair)
        assert float(str(info.value).rsplit(" ", 1)[1]) == pytest.approx(rel, rel=1e-2)

    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_two_term_rows_split_band_into_ell_components(self, ell):
        # union-find over the unknowns that each Ex1 and 1xF row names with
        # a nonzero coefficient, independent of _band_table's index arithmetic
        p1, p2 = sample_params(primitive_root(ell), 1234, 0, count=2)
        pair = PairContext(p1, p2)
        a, n = pair.band_exp, ell ** 3
        cols, vals = _band_rows(pair.blocks, a)
        parent = list(range(n))

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for r in range(4 * n, 6 * n):
            named = {int(k) for k, v in zip(cols[:, r], vals[:, r]) if v != 0}
            assert len(named) == 2
            i, j = named
            parent[find(i)] = find(j)
        roots = np.array([find(k) for k in range(n)])
        _, sizes = np.unique(roots, return_counts=True)
        assert sorted(sizes) == [ell * ell] * ell
        # _band_table labels the same partition, and its two-term slots
        # join grid steps
        table = _band_table(ell)
        grid, two_term, comp = table.grid, table.two_term, table.comp
        assert all(len(set(roots[grid[c].ravel()])) == 1 for c in range(ell))
        assert len(set(roots[grid[:, 0, 0]])) == ell
        assert (comp[grid] == np.arange(ell)[:, None, None]).all()
        for step, nxt in ((0, np.roll(grid, -1, axis=1)), (1, np.roll(grid, -1, axis=2))):
            named_from, named_to = cols.ravel()[two_term[:, step]]
            assert (named_from == grid).all() and (named_to == nxt).all()

    @pytest.mark.parametrize("ell", [3, 5])
    def test_matches_dense_svd_of_band_system(self, ell):
        # reference: the dense SVD of the full unit-row band system S, whose
        # unknowns are the entries of R's stack
        p1, p2 = sample_params(primitive_root(ell), 1234, 0, count=2)
        intw = solve_intertwiner(p1, p2)
        a, n = intw.pair.band_exp, ell ** 3
        cols, vals = _band_rows(intw.pair.blocks, a)
        S = dense_band_system(cols, vals, n)
        _, sv, vh = np.linalg.svd(S)
        assert compare_up_to_scalar(intw.blocks, vh[-1].conj().reshape(ell, ell, ell))[1] <= 1e-13
        # sigma_2 of the full S Z is at least S's (interlacing), and the
        # gap's numerator, sigma_2 of the coupling rows' S_c Z, is at least
        # sigma_2(S Z) less the two-term rows' |S_t Z| (Weyl)
        SZc, z, comp = _reduced_system(cols, vals, ell)
        SZc = dense_coupling_system(SZc, ell)
        SZ = S @ dense_basis(z, comp, ell)
        sv_z = np.linalg.svd(SZ, compute_uv=False)
        assert sv_z[-2] >= sv[-2]
        assert np.linalg.svd(SZc, compute_uv=False)[-2] >= sv_z[-2] - np.linalg.norm(SZ[4 * n:], 2)

    def test_band_exponent_matches_weight_ratio(self, pair5):
        intw = solve_intertwiner(*pair5)
        p1, p2 = intw.pair.in_params
        q1, q2 = intw.pair.out_params
        rho = (p1.u * p1.v * p2.u * p2.v) / (q1.u * q1.v * q2.u * q2.v)
        assert abs(rho - p1.ctx.pow(2 * intw.pair.band_exp)) < 1e-10

    def test_central_invariance(self, pair3):
        intw = solve_intertwiner(*pair3)
        res = central_invariance_residuals(intw)
        assert max(res.values()) < 1e-10

    def test_det_normalization_gauge(self, pair3):
        from holobraid.intertwiner import det_normalize

        intw = solve_intertwiner(*pair3)
        a = intw.pair.band_exp
        assert abs(np.linalg.det(intw.R) - 1) < 1e-9
        # the gauge is scale-free: any scalar multiple normalizes identically
        for c in (2.0, -1.3 + 0.7j, 1e-3j):
            Rn, _ = det_normalize(c * intw.blocks, a)
            assert np.max(np.abs(Rn - intw.blocks)) < 1e-10
        # log|det| is that of the stack before scaling: det(2 R) = 2^9
        _, log_abs_det = det_normalize(2.0 * intw.blocks, a)
        assert abs(log_abs_det - 9 * np.log(2.0)) < 1e-12

    @pytest.mark.parametrize("ell, shift", [(3, 0), (5, 2)])
    def test_det_normalization_fallback(self, ell, shift):
        # a stack projected off the conjugate golden weights zeroes their
        # functional, so the largest entry pins the phase instead
        from holobraid.intertwiner import _golden_weights, det_normalize

        rng = np.random.default_rng(ell)
        X = rng.standard_normal((ell,) * 3) + 1j * rng.standard_normal((ell,) * 3)
        w = _golden_weights(ell, shift)
        X -= np.sum(w * X) / ell ** 3 * w.conj()
        Rn, log_abs_det = det_normalize(X, shift)
        assert abs(np.sum(w * Rn)) < 1e-8 * np.linalg.norm(Rn)
        assert np.angle(Rn.flat[np.argmax(np.abs(Rn))]) % (2 * np.pi) < 2 * np.pi / ell ** 2
        for c in (2.0, -1.3 + 0.7j, 1e-3j):
            Rc, log_c = det_normalize(c * X, shift)
            assert np.max(np.abs(Rc - Rn)) < 1e-10
            assert log_c - log_abs_det == pytest.approx(ell ** 2 * np.log(abs(c)), abs=1e-9)


# (ell, radius, trial, a): seed-42 pairs with every band exponent a that the
# 100-trial suites at radius 0.1 meet (only 0 at ell 3 and 5, 0 and 3 at
# ell 7, 0, 4 and 5 at ell 9), and pairs at radius 1.0; SHIFTED among them
BAND_PAIRS = [(3, 0.1, 0, 0), (5, 0.1, 0, 0), (7, 0.1, 0, 0), (7, 0.1, 15, 3),
              (9, 0.1, 0, 0), (9, 0.1, 15, 4), (9, 0.1, 71, 5), (3, 1.0, 2, 2),
              (3, 1.0, 10, 1), (5, 1.0, 3, 2), (5, 1.0, 7, 3)]
assert set(SHIFTED) <= {case[:3] for case in BAND_PAIRS}


def count_cgls_steps(monkeypatch):
    """A list whose first entry, after one solve_intertwiner call, is the
    number of CGLS steps it ran: every product with S but the starting
    residual and the final |S v|."""
    calls = [-2]

    def counted(*args):
        calls[0] += 1
        return _apply_rows(*args)

    monkeypatch.setattr(intertwiner, "_apply_rows", counted)
    return calls


def wrong_targets(p1, p2):
    """The unbraided target and the braided one with the first output's y
    scaled by 1 + 1e-3 (the negative controls above)."""
    q1, q2 = braided_rep_pair(p1, p2)
    bad = RepParams(ctx=q1.ctx, u=q1.u, v=q1.v, x=q1.x, y=q1.y * (1 + 1e-3))
    return [PairContext(p1, p2, target=(p1, p2)), PairContext(p1, p2, target=(bad, q2))]


class TestCglsStallRule:
    """CGLS stops once |S v| stalls below the kernel tolerance; the
    reference is the same solve run for all 2 ell - 3 steps."""

    @pytest.mark.parametrize("radius", [0.1, 1.0])
    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_keeps_the_full_step_accuracy(self, ell, radius):
        for trial in range(4):
            p1, p2 = seed42_pair(ell, radius, trial)
            oracle, closed = solve_intertwiner(p1, p2), closed_form_R(p1, p2)
            v, _, gap = full_step_solve(PairContext(p1, p2))
            dev = compare_up_to_scalar(oracle.blocks, closed.blocks)[1]
            assert dev <= 2 * compare_up_to_scalar(v, closed.blocks)[1]
            assert np.log10(gap / oracle.singular_gap) <= 0.15

    @pytest.mark.parametrize("radius", [0.1, 1.0])
    @pytest.mark.parametrize("ell", [7, 9, 13])
    def test_fires_on_genuine_pairs(self, ell, radius, monkeypatch):
        steps = count_cgls_steps(monkeypatch)
        for trial in range(4):
            steps[0] = -2
            solve_intertwiner(*seed42_pair(ell, radius, trial))
            assert 0 < steps[0] < 2 * ell - 3

    @pytest.mark.parametrize("ell", [3, 5, 7, 9, 13])
    def test_wrong_target_runs_every_step(self, ell, monkeypatch):
        # its |S v| never reaches the kernel tolerance, so the reading it is
        # rejected with is the full-step one
        steps = count_cgls_steps(monkeypatch)
        for pair in wrong_targets(*seed42_pair(ell, 0.1, 0)):
            _, rel, _ = full_step_solve(pair)
            steps[0] = -2
            with pytest.raises(NoIntertwinerError, match="empty nullspace") as info:
                solve_intertwiner(*pair.in_params, pair=pair)
            assert steps[0] == 2 * ell - 3
            assert str(info.value).endswith(f" {rel:.3e}")

    def test_no_steps_returns_the_start(self, pair3):
        pair = PairContext(*pair3)
        cols, vals = _band_rows(pair.blocks, pair.band_exp)
        v = np.ones(27, dtype=complex)
        r = -_apply_rows(cols, vals, v)
        out = _cgls(cols, vals, _band_table(3), v, r, steps=0, floor=1.0)
        assert out is v and (v == 1).all()

    def test_zero_residual_returns_the_start(self, pair3):
        # gamma = |S^H r|^2 = 0 would make the first step 0/0
        pair = PairContext(*pair3)
        cols, vals = _band_rows(pair.blocks, pair.band_exp)
        v, r = np.zeros(27, dtype=complex), np.zeros(cols.shape[1], dtype=complex)
        with np.errstate(all="raise"):
            out = _cgls(cols, vals, _band_table(3), v, r, steps=3, floor=1.0)
        assert out is v and not v.any()

    @pytest.mark.parametrize("ell", [3, 5])
    def test_band_tolerance_edge(self, ell):
        # the first output's v scaled by 1 + delta moves the clock-weight
        # ratio off eps^(2a) by delta / (1 + delta)
        p1, p2 = seed42_pair(ell, 0.1, 0)
        q1, q2 = braided_rep_pair(p1, p2)

        def target(delta):
            moved = RepParams(ctx=q1.ctx, u=q1.u, v=q1.v * (1 + delta), x=q1.x, y=q1.y)
            return PairContext(p1, p2, target=(moved, q2))

        outside, inside = target(1.01 * BAND_TOL), target(0.99 * BAND_TOL)
        assert inside.band_dist <= BAND_TOL < outside.band_dist
        with pytest.raises(NoIntertwinerError, match="clock-weight ratio"):
            solve_intertwiner(p1, p2, pair=outside)
        # inside, the kernel test decides; the K and L coproduct rows the
        # oracle leaves out carry the band distance into the residual
        intw = solve_intertwiner(p1, p2, pair=inside)
        assert inside.band_dist <= intw.residual <= 2 * inside.band_dist


class TestBandTable:
    """The oracle's per-degree tables against the row builder before them
    (reference.band_rows), the dense S and the thin SVD."""

    @pytest.mark.parametrize("ell, radius, trial, a", BAND_PAIRS)
    def test_matches_reference(self, ell, radius, trial, a):
        pair = PairContext(*seed42_pair(ell, radius, trial))
        assert pair.band_exp == a
        cols, vals = _band_rows(pair.blocks, a)
        ref_cols, ref_vals = band_rows(pair.blocks, a)
        assert np.array_equal(cols, slot_major(ref_cols))
        assert np.array_equal(vals, slot_major(ref_vals))
        # S^H by the transposed table against the dense conjugate transpose
        S = dense_band_system(cols, vals, ell ** 3)
        rng = np.random.default_rng(trial)
        adjoint = _adjoint(vals, _band_table(ell))
        for _ in range(3):
            y = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
            want = S.conj().T @ y
            assert np.linalg.norm(adjoint(y) - want) <= 1e-15 * np.linalg.norm(want)
        # the SVD through the R of the dense QR of S Z (reference.full_step_solve's)
        SZ = dense_coupling_system(_reduced_system(cols, vals, ell)[0], ell)
        _, sv, vh = np.linalg.svd(SZ, full_matrices=False)
        _, sv_qr, vh_qr = np.linalg.svd(np.linalg.qr(SZ, mode="r"))
        assert np.allclose(sv_qr, sv, rtol=0, atol=1e-14 * sv[0])
        # well-separated rows (the kernel row among them) agree up to a phase
        drop = -np.diff(sv)
        gaps = np.minimum(np.append(np.inf, drop), np.append(drop, np.inf))
        assert gaps[-1] > 1e-3 * sv[0]
        for k in np.flatnonzero(gaps > 1e-3 * sv[0]):
            assert compare_up_to_scalar(vh_qr[k], vh[k])[1] < 1e-10

    @pytest.mark.parametrize("radius", [0.1, 1.0])
    @pytest.mark.parametrize("ell", [3, 5, 7, 9])
    def test_coupling_rows_hold_the_kernel(self, ell, radius):
        # Z is propagated through the two-term rows (blocks 6-7), so on
        # span Z they are rounding, and the kernel line of S Z is that of
        # its coupling rows (blocks 2-5), all that _reduced_system keeps
        pair = PairContext(*seed42_pair(ell, radius, 0))
        n = ell ** 3
        cols, vals = _band_rows(pair.blocks, pair.band_exp)
        SZc, z, comp = _reduced_system(cols, vals, ell)
        SZc = dense_coupling_system(SZc, ell)
        SZ = dense_band_system(cols, vals, n) @ dense_basis(z, comp, ell)
        norm = np.linalg.norm(SZ, 2)
        assert SZc.shape == (4 * n, ell)
        assert np.allclose(SZc, SZ[:4 * n], rtol=0, atol=1e-15 * norm)
        assert np.linalg.norm(SZ[4 * n:], 2) <= 1e-13 * norm
        kernel_c, kernel = (np.linalg.svd(A)[2][-1] for A in (SZc, SZ))
        assert compare_up_to_scalar(kernel_c, kernel)[1] <= 1e-13

    def test_independent_of_first_pair(self):
        # a table filled from whichever pair comes first must serve every band
        # exponent: solve in two orders from cold caches, another a first each time
        cases = [(7, 0.1, 0), (7, 0.1, 15), (3, 0.1, 0), (3, 1.0, 2)]  # a = 0, 3, 0, 2
        pairs = [seed42_pair(*case) for case in cases]

        def solve_in(order):
            _band_table.cache_clear()
            return {k: solve_intertwiner(*pairs[k]) for k in order}

        first, second = solve_in([0, 1, 2, 3]), solve_in([1, 0, 3, 2])
        for k in range(len(pairs)):
            assert np.array_equal(first[k].blocks, second[k].blocks)
            assert first[k].singular_gap == second[k].singular_gap
        # warm tables still leave a wrong target without a kernel
        for p1, p2 in pairs:
            with pytest.raises(NoIntertwinerError):
                solve_intertwiner(p1, p2, pair=PairContext(p1, p2, target=(p1, p2)))

    def test_table_is_read_only_intp(self):
        # every gather indexes with the table as it is, so no solve casts it
        for name, arr in _band_table(5)._asdict().items():
            assert arr.dtype == np.intp, name
            assert not arr.flags.writeable, name

    @pytest.mark.parametrize("ell", range(3, 23, 2))
    def test_skipped_slots_are_structural_zeros(self, ell):
        # _apply_rows and _reduced_system read slots 2-3 on the first
        # 2 ell^3 rows alone: everywhere else they read the 0 or were
        # merged away, and every slot they do read is live
        table = _band_table(ell)
        n, rows = ell ** 3, table.cols.shape[1]
        dead = table.src == 12 * n
        dead.ravel()[table.merge[1]] = True
        skipped = np.zeros_like(dead)
        skipped[2:, 2 * n:] = True
        assert np.array_equal(dead, skipped)
        assert not dead.ravel()[table.merge[0]].any()
        # S^H reads every live slot once, each unknown's in row order
        assert np.array_equal(np.sort(table.adjoint.ravel()), np.flatnonzero(~dead))
        assert (table.cols.ravel()[table.adjoint] == np.arange(n)).all()
        assert (np.diff(table.adjoint % rows, axis=0) > 0).all()
        assert np.array_equal(table.adjoint_rows, table.adjoint % rows)
        # each two-term row has one from slot and one to slot, both in
        # slots 0-1: from names grid[c, s, t], to its neighbour
        slot, row = np.divmod(table.two_term, rows)  # axis 0: (from, to)
        assert np.array_equal(row[0], row[1])
        assert np.array_equal(np.sort(row[0].ravel()), np.arange(4 * n, rows))
        assert (slot[0] + slot[1] == 1).all()
        grid = table.grid
        named_from, named_to = table.cols.ravel()[table.two_term]
        assert (named_from == grid).all()
        assert (named_to[0] == np.roll(grid, -1, axis=1)).all()
        assert (named_to[1] == np.roll(grid, -1, axis=2)).all()

    @pytest.mark.parametrize("ell", range(3, 23, 2))
    def test_coupling_rows_split_into_column_pairs(self, ell):
        # every coupling row's live slots name unknowns of exactly two
        # components, c and c + 1 mod ell, and add to that row's place in
        # group c alone, at side 0 for c and 1 for c + 1; each group holds
        # 4 ell^2 rows, and its 2 x 2 R's upper triangle goes to rows 2c,
        # 2c + 1 and columns c, c + 1 of the stack _coupling_svd factors
        table = _band_table(ell)
        n, rows = ell ** 3, table.cols.shape[1]
        live = table.src < 12 * n
        live.ravel()[table.merge[1]] = False
        live, comp = live[:, :4 * n], table.comp[table.cols[:, :4 * n]]
        group = np.empty(4 * n, dtype=int)
        for r in range(4 * n):
            named = set(comp[live[:, r], r].tolist())
            (group[r],) = [c for c in named if (c + 1) % ell in named]
            assert named == {group[r], (group[r] + 1) % ell}
        place, side = np.divmod(table.sz_index, 2)
        assert (place[live] == np.broadcast_to(place[0], place.shape)[live]).all()
        assert np.array_equal(np.sort(place[0]), np.arange(4 * n))
        assert np.array_equal(place[0] // (4 * ell * ell), group)
        assert (((group + side) % ell)[live] == comp[live]).all()
        assert (np.bincount(group, minlength=ell) == 4 * ell * ell).all()
        r_row, r_col = np.divmod(table.r_index, ell)  # R's (0, 0), (0, 1), (1, 1)
        c = np.arange(ell)[:, None]
        assert (r_row == 2 * c + [0, 0, 1]).all()
        assert (r_col == (c + [0, 1, 1]) % ell).all()

    @pytest.mark.parametrize("ell, radius, trial, a", BAND_PAIRS + [
        (11, 0.1, 0, 0), (11, 0.1, 15, 5), (13, 0.1, 0, 0), (13, 0.1, 15, 6)])
    def test_split_qr_matches_dense_qr(self, ell, radius, trial, a):
        # the SVD through the column pairs' 2 x 2 R's against the SVD
        # through the R of the dense QR of the row-sum reference's S_c Z
        pair = PairContext(*seed42_pair(ell, radius, trial))
        assert pair.band_exp == a
        sv, vh = _coupling_svd(_reduced_system(*_band_rows(pair.blocks, a), ell)[0], ell)
        dense = row_sum_reduced_system(*band_rows(pair.blocks, a), ell)[0]
        _, ref_sv, ref_vh = np.linalg.svd(np.linalg.qr(dense, mode="r"))
        assert np.allclose(sv, ref_sv, rtol=0, atol=1e-14 * ref_sv[0])
        assert compare_up_to_scalar(vh[-1], ref_vh[-1])[1] <= 1e-13

    @pytest.mark.parametrize("ell, radius, trial, a", BAND_PAIRS)
    def test_apply_rows_is_the_four_slot_sum(self, ell, radius, trial, a):
        # the slots it skips hold exact zeros, so it is bit-equal to the
        # unsliced sum, and the dense S @ x to rounding
        pair = PairContext(*seed42_pair(ell, radius, trial))
        assert pair.band_exp == a
        cols, vals = _band_rows(pair.blocks, a)
        S = dense_band_system(cols, vals, ell ** 3)
        rng = np.random.default_rng(trial)
        for _ in range(3):
            x = rng.standard_normal(ell ** 3) + 1j * rng.standard_normal(ell ** 3)
            got = _apply_rows(cols, vals, x)
            assert np.array_equal(got, vals[0] * x[cols[0]] + vals[1] * x[cols[1]]
                                  + vals[2] * x[cols[2]] + vals[3] * x[cols[3]])
            want = S @ x
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("ell, radius, trial, a", BAND_PAIRS)
    def test_reduced_system_matches_row_sums(self, ell, radius, trial, a):
        # the two-term ratios by two gathers and S_c Z from the slot-major
        # columns are bit-equal to the row-major masked row sums
        pair = PairContext(*seed42_pair(ell, radius, trial))
        SZ, z, _ = _reduced_system(*_band_rows(pair.blocks, a), ell)
        SZ = dense_coupling_system(SZ, ell)
        ref_SZ, ref_z = row_sum_reduced_system(*band_rows(pair.blocks, a), ell)
        assert np.array_equal(z, ref_z) and np.array_equal(SZ, ref_SZ)


class TestChiData:
    def test_power_constraints(self, pair5):
        pair = PairContext(*pair5)
        cd = pair.chi
        assert cd.sigma_power_residual < 1e-11
        assert cd.chi1_mismatch < 1e-9
        assert cd.chi2_mismatch < 1e-9
        assert pair.band_dist < 1e-9

    def test_nan_twist_scalar_raises(self, ctx3, monkeypatch):
        # a NaN gauge scalar z2 for the second input makes chi2_mismatch
        # NaN; Python's max dropped it behind chi1_mismatch, and the guard
        # returned instead of raising
        p1, p2 = sample_params(ctx3, 42, 0, count=2)
        gauge = intertwiner.gauge_U
        monkeypatch.setattr(intertwiner, "gauge_U", lambda p: (
            (gauge(p)[0], float("nan")) if p is p2 else gauge(p)))
        with pytest.raises(BranchMismatchError, match="chi2 nan"):
            PairContext(p1, p2).chi

    def test_s_is_v_ratio(self, pair5):
        pair = PairContext(*pair5)
        (_, p2), (_, q2) = pair.in_params, pair.out_params
        assert q2.u == p2.u
        assert abs(pair.chi.s - p2.v / q2.v) < 1e-13

    def test_superseded_scalar_relations_fail(self, pair5):
        # the gauge-chain relation and the raising-only chi2 candidate do
        # not land on the root lattice; kept as recorded diagnostics
        cd = PairContext(*pair5).chi
        assert cd.legacy_relation_residuals["a_exp_gauge_chain"] > 1e-4

    def test_band_tie_is_not_a_reading(self, pair5):
        # the legacy table holds only the readings that assembly_scalars
        # adjudicates, and the band tie |chi1 - eps^(4a)| is no field: it
        # is a function of chi1 and band_exp, which the record holds
        cd = PairContext(*pair5).chi
        assert set(cd.legacy_relation_residuals) == {"chi2_raising_only",
                                                     "a_exp_gauge_chain"}
        assert {f.name for f in fields(cd)} == {
            "chi1", "chi2", "s", "sigma", "chi1_mismatch", "chi2_mismatch",
            "sigma_power_residual", "legacy_relation_residuals"}

    def test_needs_braided_output(self, pair5):
        p1, p2 = pair5
        pair = PairContext(p1, p2, target=braided_rep_pair(p1, p2))
        for name in ("chi", "twist"):
            with pytest.raises(InvalidInputError):
                getattr(pair, name)


class TestClosedForm:
    @pytest.mark.parametrize("fixture", ["pair3", "pair5"])
    def test_intertwines(self, fixture, request):
        p1, p2 = request.getfixturevalue(fixture)
        cf = closed_form_R(p1, p2)
        assert cf.residual < 1e-10

    @pytest.mark.parametrize("fixture", ["pair3", "pair5"])
    def test_residual_sees_every_entry(self, fixture, request):
        # scaling any one nonzero entry of R by 1 + 1e-6 fails the gate
        cf = closed_form_R(*request.getfixturevalue(fixture))
        assert cf.residual < THRESHOLDS["closed_form_residual"]
        for k in np.flatnonzero(cf.blocks):
            R = cf.blocks.copy()
            R.flat[k] *= 1 + 1e-6
            bad = Intertwiner(blocks=R, pair=cf.pair, route="closed-form")
            assert bad.residual > THRESHOLDS["closed_form_residual"]

    @pytest.mark.parametrize("fixture", ["pair3", "pair5"])
    def test_satisfies_inverted_clock_equations(self, fixture, request):
        # reference: the slot-2 clocks in their (1 x K_out) T^-1 form, with a
        # dense T^-1, where the pair's blocks multiply through by T
        p1, p2 = request.getfixturevalue(fixture)
        cf = closed_form_R(p1, p2)
        rin2 = build_rep(p2)
        rout1, rout2 = (build_rep(q) for q in cf.pair.out_params)
        I = np.eye(p1.ctx.ell)
        G = np.kron(np.linalg.inv(rout1.K) @ rout1.E, rout2.F @ rout2.L)
        T_inv = np.linalg.inv(np.eye(len(G)) - p1.ctx.eps * G)
        for M_in, M_out in ((rin2.K, rout2.K), (rin2.L, rout2.L)):
            N = np.kron(I, M_out) @ T_inv
            res = np.linalg.norm(N @ cf.R - cf.R @ np.kron(I, M_in)) / np.linalg.norm(cf.R)
            assert res <= 1e-12

    def test_matches_oracle(self, pair3):
        oracle = solve_intertwiner(*pair3)
        cf = closed_form_R(*pair3)
        scalar, dev = compare_up_to_scalar(oracle.R, cf.R)
        assert dev < 1e-8
        assert abs(abs(scalar) - 1) < 1e-9  # both det-normalized

    def test_small_spectral_parameter_regime(self, ctx3):
        # x2 near v2 makes the braiding correction (and sigma) small, and
        # the spectral factor collapses toward the identity
        p1 = RepParams(ctx=ctx3, u=1.05, v=0.93, x=1.2, y=1.02)
        p2 = RepParams(ctx=ctx3, u=0.97, v=1.08, x=1.08 * np.exp(0.02j), y=0.94)
        pair = PairContext(p1, p2)
        assert abs(pair.chi.sigma) < 0.35
        R1 = pair.spectral
        # R1 is a stack: its blocks minus eye(3) hold every entry of R1 - eye(9)
        assert np.linalg.norm(R1 - np.eye(3)) < 6 * abs(pair.chi.sigma)

    def test_r1_identities(self, pair3):
        cf = closed_form_R(*pair3)
        res = r1_conjugation_residuals(cf)
        assert set(res) == {"opposite_shifts", "parallel_shifts"}
        assert res["opposite_shifts"] < 1e-9
        assert res["parallel_shifts"] > 1e-2

    def test_r1_needs_closed_form(self, pair3):
        # an oracle intertwiner's pair has chi, but the identities are the
        # closed form's
        with pytest.raises(InvalidInputError):
            r1_conjugation_residuals(solve_intertwiner(*pair3))


class TestCompare:
    def test_self(self, pair3):
        R = solve_intertwiner(*pair3).R
        scalar, dev = compare_up_to_scalar(R, R)
        assert scalar == pytest.approx(1)
        assert dev < 1e-14

    def test_scalar_multiple(self, pair3):
        R = solve_intertwiner(*pair3).R
        scalar, dev = compare_up_to_scalar(2j * R, R)
        assert scalar == pytest.approx(2j)
        assert dev < 1e-14

    def test_zero_target(self):
        with pytest.raises(InvalidInputError):
            compare_up_to_scalar(np.eye(3, dtype=complex), np.zeros((3, 3)))

    def test_zero_first_argument(self):
        # returned (0j, nan) with a RuntimeWarning from 0/0
        with pytest.raises(InvalidInputError):
            compare_up_to_scalar(np.zeros((3, 3)), np.eye(3, dtype=complex))


class TestGeneratorActions:
    def test_expected_variants_win(self, pair3):
        intw = solve_intertwiner(*pair3)
        by = check_generator_action(intw)
        for formula in ("slot2_clock_k", "slot2_clock_l", "slot1_raising",
                        "slot2_lowering", "slot1_clock_k",
                        "power_slot1_raising", "power_slot2_lowering"):
            assert by[formula]["direct"] < 1e-9, formula
        assert by["power_slot2_clock_k"]["minus"] < 1e-11
        assert by["power_slot2_clock_k"]["plus"] > 1e-3
        assert by["slot2_raising"]["t_inverse"] < 1e-9
        assert by["slot2_raising"]["t"] > 1e-3
        assert by["slot1_lowering"]["product_inverse_t"] < 1e-9
        for loser in ("product_inverse_t_inverse", "ratio_t", "ratio_t_inverse"):
            assert by["slot1_lowering"][loser] > 1e-3


class TestDetProbe:
    def test_stable_core_exponent(self, ctx3):
        samples = []
        for i in range(12):
            cf = closed_form_R(*sample_params(ctx3, 321, i, count=2))
            samples.append(DetSample(cf.pair.chi, cf.log_abs_det, ctx3))
        out = det_exponent_probe(samples)
        assert not out["inconclusive"]
        core = out["core_fit"]
        assert core["fit_residual"] < 1e-6
        assert abs(core["alpha"] + 6.0) < 1e-6
        assert out["closest_candidate"] == "-l(l+1)/2"
        # the raw assembled determinant is not a monomial; recorded as such
        assert out["full_fit"] is None or out["full_fit"]["fit_residual"] > 1e-6

    def test_insufficient_samples(self, pair3):
        cf = closed_form_R(*pair3)
        out = det_exponent_probe([DetSample(cf.pair.chi, cf.log_abs_det, pair3[0].ctx)])
        assert out["inconclusive"]
