"""Dense ell^2 x ell^2 references for the stack code of holobraid, the
oracle's row builder before its tables, the hand-written formulas that
the adjudications read before they read the production code, and the
helpers only tests read.

Each dense reference is written out with np.kron and dense products, the
way the package computed it before pair-space operators became grade-block
stacks; the tests compare the stack code against it entry by entry.
"""
from itertools import product
from pathlib import Path

import numpy as np

from holobraid.cyclic import _chain, _dense, build_rep, clock_shift, gauge_U
from holobraid.intertwiner import (BLOCK_SHIFTS, _adjoint, _apply_rows, _band_rows,
                                   _band_table, _coproducts, _propagate, _reduced_system)
from holobraid.qseries import phi_orbit, phi_series
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params
from holobraid.suite import third_params

kron = np.kron

# (ell, radius, trial) of seed-42 pairs whose band exponent is not 0: no
# trial at radius 0.1 has one at ell 3 or 5, so a wrong grade rotation
# would pass on the default pairs alone
SHIFTED = [(3, 1.0, 2), (7, 0.1, 15)]


def seed42_pair(ell, radius, trial):
    return sample_params(primitive_root(ell), 42, trial, radius=radius, count=2)


def seed42_triple(ell, radius, trial):
    ctx = primitive_root(ell)
    return (*seed42_pair(ell, radius, trial), third_params(ctx, 42, trial, radius))


def dense_G(pair):
    """G = K1^-1 E1 x F2 L2 on the output pair."""
    r1, r2 = pair.reps[2:]
    return kron(np.linalg.inv(r1.K) @ r1.E, r2.F @ r2.L)


def dense_coproducts(r1, r2, opposite):
    I = np.eye(len(r1.K))
    if opposite:
        E = kron(r1.K, r2.E) + kron(r1.E, I)
        F = kron(I, r2.F) + kron(r1.F, np.linalg.inv(r2.L))
    else:
        E = kron(r1.E, r2.K) + kron(I, r2.E)
        F = kron(r1.F, I) + kron(np.linalg.inv(r1.L), r2.F)
    return [kron(r1.K, r2.K), kron(r1.L, r2.L), E, F]


def dense_blocks(pair):
    """The eight (M, N) of PairContext.blocks as dense matrices."""
    rin1, rin2, rout1, rout2 = pair.reps
    I = np.eye(len(rin2.K))
    T = np.eye(len(I) ** 2) - pair.in_params[0].ctx.eps * dense_G(pair)
    inv = np.linalg.inv
    return [*zip(dense_coproducts(rin1, rin2, False), dense_coproducts(rout1, rout2, True)),
            (kron(I, inv(rin2.K)), T @ kron(I, inv(rout2.K))),
            (kron(I, inv(rin2.L)), T @ kron(I, inv(rout2.L))),
            (kron(rin1.E, I), kron(rout1.E, rout2.L)),
            (kron(I, rin2.F), kron(inv(rout1.K), rout2.F))]


def two_per_row(A):
    """(cols, vals) with A[..., i, cols[..., i, t]] = vals[..., i, t] for the
    (at most) two nonzeros of each row, first and last; a missing second
    one repeats the first's column with value 0."""
    nz = A != 0
    cols = np.stack([nz.argmax(axis=-1),
                     A.shape[-1] - 1 - nz[..., ::-1].argmax(axis=-1)], axis=-1)
    vals = np.take_along_axis(A, cols, axis=-1)
    vals[..., 1] *= cols[..., 0] != cols[..., 1]
    return cols, vals


def band_rows(blocks, a):
    """intertwiner._band_rows as it was before its cached tables: each
    pair's nonzeros found by two_per_row, the merge by four mask passes."""
    M, N = (X[2:] for X in blocks)
    ell = M.shape[1]
    r = np.arange(ell)
    nc, nv = two_per_row(N[:, (r + a) % ell])  # [b, g, i, t]
    mc, mv = two_per_row(M.swapaxes(-1, -2))  # [b, g, j, t]
    # axes [b, g, i, j, t]
    g, i, j = r[:, None, None, None], r[:, None, None], r[:, None]
    gs = (g + np.array(BLOCK_SHIFTS[2:])[:, None, None, None, None]) % ell
    cols = np.concatenate(np.broadcast_arrays((g * ell + nc[:, :, :, None]) * ell + j,
                                              (gs * ell + i) * ell + mc[:, :, None]),
                          axis=-1).reshape(-1, 4)
    vals = np.concatenate(np.broadcast_arrays(nv[:, :, :, None], -mv[:, :, None]),
                          axis=-1).reshape(-1, 4)
    for p, q in product((0, 1), (2, 3)):
        same = cols[:, p] == cols[:, q]
        vals[same, p] += vals[same, q]
        vals[same, q] = 0
    return cols, vals / np.linalg.norm(vals, axis=1)[:, None]


def slot_major(x):
    """band_rows' (rows, 4) cols or vals in _band_table's layout: the
    two-term rows (the last third) swap slots 1 and 2, so that their M
    slot sits in slot 1, and the slots become the leading axis."""
    x = x.copy()
    x[2 * len(x) // 3:, 1:3] = x[2 * len(x) // 3:, 2:0:-1]
    return x.T


def row_sum_reduced_system(cols, vals, ell):
    """(S_c Z, z) of intertwiner._reduced_system as it was on band_rows'
    row-major rows: each two-term row's coefficient of its from unknown
    summed under a mask of the slots naming it, the row's sum less that as
    the other's, and S_c Z scattered from all four slots of every coupling
    row."""
    table = _band_table(ell)
    grid, n, rows = table.grid, ell ** 3, table.two_term[0] % len(vals)
    v = vals[rows]
    w_from = (v * (cols[rows] == grid[..., None])).sum(axis=-1)
    ratio = -w_from / (v.sum(axis=-1) - w_from)
    s0, t0 = np.divmod(np.abs(_propagate(ratio)).reshape(ell, -1).argmax(axis=1), ell)
    r = np.arange(ell)
    seeded = (r[:, None, None], (r[:, None] + s0[:, None, None]) % ell,
              (r + t0[:, None, None]) % ell)
    x = _propagate(ratio[(slice(None), *seeded)]).reshape(ell, -1)
    z = np.empty(n, dtype=complex)
    z[grid[seeded].reshape(ell, -1)] = x / np.linalg.norm(x, axis=1)[:, None]
    SZ = np.zeros((4 * n, ell), dtype=complex)
    col_vals = vals[:4 * n] * z[cols[:4 * n]]
    for t in range(4):
        SZ[np.arange(4 * n), table.comp[cols[:4 * n, t]]] += col_vals[:, t]
    return SZ, z


def dense_coupling_system(SZ, ell):
    """_reduced_system's split (ell, 4 ell^2, 2) S_c Z scattered back to the
    dense (4 ell^3 x ell) matrix: coupling row r sits at place
    p = sz_index[0, r] // 2 of the flat (4 ell^3, 2) pairs, in group
    c = p // (4 ell^2), with its two entries in columns c and c + 1 mod ell."""
    place = _band_table(ell).sz_index[0] // 2
    c, r = place // (4 * ell * ell), np.arange(len(place))
    dense = np.zeros((len(place), ell), dtype=complex)
    dense[r, c], dense[r, (c + 1) % ell] = SZ.reshape(-1, 2)[place].T
    return dense


def full_step_solve(pair):
    """(v, |S v| / sigma_max, gap) of solve_intertwiner's kernel step with
    its CGLS run for all 2 ell - 3 steps, as it was before the stall rule,
    and the SVD of S_c Z through the R of its dense QR, as it was before
    the split by column pairs: v is the refined unit vector (R's stack, not
    det-normalized) and the gap sigma_2(S_c Z) / |S v|."""
    ell = pair.in_params[0].ctx.ell
    cols, vals = _band_rows(pair.blocks, pair.band_exp)
    SZ, z, comp = _reduced_system(cols, vals, ell)
    _, sv, vh = np.linalg.svd(np.linalg.qr(dense_coupling_system(SZ, ell), mode="r"))
    v = z * vh[-1].conj()[comp]
    r = -_apply_rows(cols, vals, v)
    adjoint = _adjoint(vals, _band_table(ell))
    s = adjoint(r)
    p, gamma = s, np.vdot(s, s).real
    for _ in range(2 * ell - 3):
        q = _apply_rows(cols, vals, p)
        alpha = gamma / np.vdot(q, q).real
        v = v + alpha * p
        r = r - alpha * q
        s = adjoint(r)
        gamma, gamma_old = np.vdot(s, s).real, gamma
        p = s + p * (gamma / gamma_old)
    v = v / np.linalg.norm(v)
    res = np.linalg.norm(_apply_rows(cols, vals, v))
    return v.reshape(ell, ell, ell), res / sv[0], sv[-2] / res


def dense_band_system(cols, vals, n):
    """The dense (rows x n) matrix of _band_rows' slot-major rows (cols, vals)."""
    S = np.zeros((cols.shape[1], n), dtype=complex)
    np.add.at(S, (np.arange(cols.shape[1]), cols), vals)
    return S


def dense_det_normalize(R):
    """det_normalize on a dense matrix: golden-angle weights at the
    row-major flat indices of all its entries."""
    n = len(R)
    sign, logabs = np.linalg.slogdet(R)
    R1 = R * np.exp(-(logabs + 1j * np.angle(sign)) / n)
    w = np.exp(2j * np.pi * 0.6180339887498949 * np.arange(R1.size))
    k = int(float(np.angle(np.dot(w, R1.ravel())) % (2 * np.pi)) // (2 * np.pi / n))
    return R1 * np.exp(-2j * np.pi * k / n)


def dense_residual(R, pair):
    return max(np.linalg.norm(N @ R - R @ M) for M, N in dense_blocks(pair)) / np.linalg.norm(R)


def dense_conjugation(R, w_in, w_out):
    lhs = R @ w_in @ np.linalg.inv(R)
    return float(np.linalg.norm(lhs - w_out) / np.linalg.norm(w_out))


def dense_central_invariance(R, pair):
    eps = pair.in_params[0].ctx.eps
    I = np.eye(len(pair.reps[0].K))
    central = {"casimir": lambda r: r.E @ r.F + r.K / eps + np.linalg.inv(r.L) * eps,
               "kl_ratio": lambda r: r.K @ np.linalg.inv(r.L)}
    out = {}
    for name, elem in central.items():
        for slot, embed in ((1, lambda m: kron(m, I)), (2, lambda m: kron(I, m))):
            out[f"{name}_slot{slot}"] = dense_conjugation(
                R, embed(elem(pair.reps[slot - 1])), embed(elem(pair.reps[slot + 1])))
    return out


def dense_generator_action(R, pair):
    """The matrix readings of check_generator_action (its scalar ones read
    no matrix)."""
    t = pair.in_params[0].ctx.eps
    rin1, rin2, rout1, rout2 = pair.reps
    I = np.eye(len(rin1.K))
    inv = np.linalg.inv
    Kt1, Lt1, Et1, Ft1 = rout1.as_tuple()
    Kt2, Lt2, Et2, Ft2 = rout2.as_tuple()
    G = dense_G(pair)
    I2 = np.eye(len(G))
    inv_powers = (("t", inv(I2 - t * G)), ("t_inverse", inv(I2 - G / t)))
    blocks = dense_blocks(pair)
    out = {name: {"direct": dense_conjugation(R, M, N)} for name, (M, N) in zip(
        ("slot2_clock_k", "slot2_clock_l", "slot1_raising", "slot2_lowering"), blocks[4:])}
    T = I2 - t * G
    out["slot1_clock_k"] = {"direct": dense_conjugation(R, kron(rin1.K, I), T @ kron(Kt1, I))}
    lead = kron(Et1, I) + kron(Kt1, Et2)
    tailE = kron(Et1, Kt2 @ Lt2)
    out["slot2_raising"] = {name: dense_conjugation(R, kron(I, rin2.E), lead - X @ tailE)
                            for name, X in inv_powers}
    baseF = kron(Ft1, inv(Lt2)) + kron(I, Ft2)
    pref = {"product_inverse": kron(inv(Kt1 @ Lt1), Ft2), "ratio": kron(Kt1 @ inv(Lt1), Ft2)}
    out["slot1_lowering"] = {f"{p}_{name}": dense_conjugation(R, kron(rin1.F, I), baseF - X @ Y)
                             for p, X in pref.items() for name, Y in inv_powers}
    return out


def dense_spectral_factor(ell, eps_powers, vals):
    """The spectral factor of W = B x B^-1, written out entry by entry."""
    ks = np.arange(ell)
    coef = (vals[None, :] * eps_powers[(-2 * np.outer(ks, ks)) % ell]).sum(axis=1) / ell
    n2 = ell * ell
    R1 = np.zeros((n2, n2), dtype=complex)
    idx = np.arange(n2)
    n, m = idx // ell, idx % ell
    for j in range(ell):
        R1[((n + j) % ell) * ell + ((m - j) % ell), idx] = coef[j]
    return R1


def dense_closed_form(pair, R1):
    """D (B^a x Ug_out) R1 (1 x Ug_in^-1), before det normalization."""
    ctx = pair.in_params[0].ctx
    Ba = np.linalg.matrix_power(clock_shift(ctx)[1], pair.band_exp)
    U2, Ut2 = (gauge_U(q)[0] for q in (pair.in_params[1], pair.out_params[1]))
    return (pair.twist[:, None] * kron(Ba, Ut2)) @ R1 @ kron(np.eye(ctx.ell), np.linalg.inv(U2))


def dense_r1_residuals(R1, cd, ctx):
    ell = ctx.ell
    I = np.eye(ell)
    A, B = clock_shift(ctx)
    inv = np.linalg.inv
    out = {}
    lhs = R1 @ kron(I, A) @ inv(R1)
    for name, Wv in (("opposite_shifts", kron(B, inv(B))), ("parallel_shifts", kron(B, B))):
        rhs = (1 / cd.s) * kron(I, A) @ inv(np.eye(ell * ell) - cd.sigma * Wv)
        out[name] = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    return out


def embed_12(R, ell):
    """Dense R x 1 on the triple space (the reference for hybe._apply).
    np.kron is looked up at each call, so that a test can count the calls."""
    return np.kron(R, np.eye(ell))


def embed_23(R, ell):
    """Dense 1 x R on the triple space (the reference for hybe._apply)."""
    return np.kron(np.eye(ell), R)


def coproduct_rep(p1, p2, g, opposite):
    """Dense matrix of the package's (possibly opposite) coproduct of one
    generator, slot 1 the left Kronecker factor."""
    if g not in ("K", "L", "E", "F"):
        raise ValueError(f"unknown generator {g!r}")
    k = "KLEF".index(g)
    return _dense(_coproducts(build_rep(p1), build_rep(p2), opposite)[k], BLOCK_SHIFTS[k])


def coproduct_power_misses(p1, p2, opposite, law):
    """max |P - s 1| / max(1, |s|) for the ell-th power P of each coproduct
    stack on V_p1 x V_p2 (K, L, E, F in order), s the matching scalar of the
    Z0Char law.  Each power is taken through _chain and keeps grade 0."""
    ell = p1.ctx.ell
    stacks = _coproducts(build_rep(p1), build_rep(p2), opposite)
    misses = []
    for stack, shift, s in zip(stacks, BLOCK_SHIFTS, law.as_array()):
        P, total = _chain([(stack, shift)] * ell)
        assert total == 0
        misses.append(float(np.max(np.abs(P - s * np.eye(ell))) / max(1.0, abs(s))))
    return misses


def commutant_dimension(p):
    """Dimension of the joint commutant of a representation (1 certifies
    irreducibility)."""
    ell = p.ctx.ell
    I = np.eye(ell)
    S = np.vstack([kron(m, I) - kron(I, m.T) for m in build_rep(p).as_tuple()])
    sv = np.linalg.svd(S, compute_uv=False)
    return int(np.sum(sv < sv[0] * 1e-10))


def load_matrix(path):
    """Read back a holobraid TSV dump; returns (header metadata, matrix)."""
    lines = Path(path).read_text().strip().splitlines()
    meta = dict(tok.partition("=")[::2] for tok in lines[0].lstrip("# ").split())
    rows = [[complex(cell.replace("i", "j")) for cell in line.split(",")]
            for line in lines[1:]]
    return meta, np.array(rows)


def series_value(coeffs, z):
    """The power series with these coefficients at the point z, by Horner's
    rule, one point at a time."""
    acc = 0.0 + 0.0j
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def phi_variant_reference(ctx, order=60):
    """suite.phi_variant_evidence written out point by point: for each
    reading, the worst |phi_orbit - Phi / Phi(z_0)| over the four probes'
    orbits z_k = s eps^(2k-2)."""
    coeffs = phi_series(ctx, order)
    out = {}
    for variant in ("direct", "reciprocal_argument"):
        worst = 0.0
        for s in (0.12, 0.2 + 0.1j, -0.15 + 0.07j, 0.28):
            ref = np.array([series_value(coeffs, s * ctx.pow(2 * k - 2))
                            for k in range(ctx.ell)])
            vals = phi_orbit(ctx, s, variant=variant)
            worst = max(worst, float(np.max(np.abs(vals - ref / ref[0]))))
        out[variant] = worst
    return out


def spectral_values(cd, ctx):
    """The spectral factor's eigenvalue orbit as the closed form built it
    before it shared qseries' staircase step: vals[0] = 1 and
    vals[k+1] = vals[k] tau / (1 - sigma eps^(2k)), tau = 1/s."""
    tau = 1.0 / cd.s
    vals = np.empty(ctx.ell, dtype=complex)
    vals[0] = 1.0
    for k in range(ctx.ell - 1):
        vals[k + 1] = vals[k] * tau / (1 - cd.sigma * ctx.pow(2 * k))
    return vals


def f_power_scalar_variants(p):
    """The F^ell scalar's two readings as written out before the
    adjudication read z0_character: "with_inverse_power" carries the
    y^(-ell) prefactor, "bare" drops it."""
    ell = p.ctx.ell
    u, v, x, y = p.as_tuple()
    core = (x**ell * v ** (-ell) - 1) * (v**ell - x ** (-ell))
    return {"with_inverse_power": u**ell / y**ell * core, "bare": u**ell * core}
