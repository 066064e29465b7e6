"""Holonomy intertwiners: brute-force solve, closed form, and cross-checks.

For an input representation pair (p1, p2) the output pair (q1, q2) is
obtained by pushing the central characters through the inverse braiding map
and lifting slot-wise with preserved strand data.  The intertwiner R is the
matrix with

    R . rho_in(w) = rho_out(braid(w)) . R

for w running over the coproducts of the four generators *and* the four
single-factor elements 1xK, 1xL, Ex1, 1xF whose braid images are explicit.
The coproduct equations alone leave one solution per Casimir branch (an
ell-dimensional nullspace); the single-factor equations cut it to a line.
PairContext.blocks builds this system once per pair, with the slot-2
clocks multiplied through by T = 1 - eps G so that no inverse of T is
read; the oracle, Intertwiner.residual and check_generator_action read it.

The clock equations force R onto the band n' + m' = n + m + a (mod ell):
R, its equations, G, T and the spectral factor are all stacks (see
cyclic), R of grade shift a, and every check reads them as stacks; the
dense Intertwiner.R is built only when read.  The band unknowns are the
ell^3 entries of R's stack.  Every factor is monomial (K, L diagonal, E, F
shifts), so each equation row has at most four unknowns, where the degree
alone puts them: one table per ell (_band_table) makes a pair's rows one
gather of its coefficients, scaled to unit norm.  The Ex1 and 1xF rows have
two unknowns each and split the unknowns into ell components of ell^2,
each fixed by one entry.  Propagating them leaves ell unknowns: the SVD of
all the rows on that ell-column basis, taken through the R of its QR,
picks the kernel line, and a few CGLS steps on the full sparse rows (S^H
by a gather through the table) refine it.

A PairContext holds what both routes and their checks read of one pair
(the output pair, the four generator matrix sets, the band, the braid
factor, the equation blocks) and owns the closed form's pair data: its
twist scalars chi, its twist diagonal and its spectral factor, built only
when the closed form is.  Each Intertwiner carries its PairContext to the
checks; only the two routes take one, as pair=, from a caller.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cyclic import (RepParams, RepMatrices, _braid_factor, _chain, _dense,
                     _diag_blocks, _kron_blocks, _stack_index, _rotate, braided_rep_pair,
                     build_rep, clock_shift, gauge_U, z0_character)
from .errors import (BranchMismatchError, InvalidInputError, NoIntertwinerError,
                     NonGenericRepresentationError)
from .roots import RootContext, primitive_root

# oracle kernel: relative singular value below KERNEL_TOL, gap ratio above
# GAP_THRESHOLD (see solve_intertwiner)
KERNEL_TOL = 1e-6
GAP_THRESHOLD = 1e6
# largest distance of chi1, chi2 and eps^(2a) from the ell-th roots of unity
TWIST_ROOT_TOL = 1e-8
# grade shifts of the eight equation blocks of PairContext.blocks
BLOCK_SHIFTS = (0, 0, 1, -1, 0, 0, 1, -1)


def _coproducts(r1: RepMatrices, r2: RepMatrices, opposite: bool) -> list[np.ndarray]:
    """Stacks of the coproducts of K, L, E, F on r1 x r2 (slot 1 the left
    Kronecker factor), of grade shifts BLOCK_SHIFTS[:4]."""
    kron = _kron_blocks
    I = np.eye(len(r1.K))
    if opposite:
        E = kron(r1.K, r2.E, 1) + kron(r1.E, I, 1)
        F = kron(I, r2.F, -1) + kron(r1.F, np.linalg.inv(r2.L), -1)
    else:
        E = kron(r1.E, r2.K, 1) + kron(I, r2.E, 1)
        F = kron(r1.F, I, -1) + kron(np.linalg.inv(r1.L), r2.F, -1)
    return [kron(r1.K, r2.K, 0), kron(r1.L, r2.L, 0), E, F]


def _equation_blocks(reps, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (M, N) of PairContext.blocks for reps (in1, in2, out1, out2)."""
    kron = _kron_blocks
    rin1, rin2, rout1, rout2 = reps
    I = np.eye(len(rin2.K))
    inv = np.linalg.inv(np.stack([rin2.K, rout2.K, rin2.L, rout2.L]))
    M = [*_coproducts(rin1, rin2, False), kron(I, inv[0], 0), kron(I, inv[2], 0),
         kron(rin1.E, I, 1), kron(I, rin2.F, -1)]
    N = [*_coproducts(rout1, rout2, True), T @ kron(I, inv[1], 0),
         T @ kron(I, inv[3], 0), kron(rout1.E, rout2.L, 1),
         kron(np.linalg.inv(rout1.K), rout2.F, -1)]
    return np.stack(M), np.stack(N)


_BandTable = namedtuple("_BandTable", "cols src merge adjoint grid rows comp from_mask sz_index")


@lru_cache(maxsize=8)
def _band_table(ell: int) -> _BandTable:
    """Where the entries of _band_rows' system S sit at degree ell, for
    every band exponent a (read-only int32 arrays, from_mask bool).

    Built from the layout alone: the blocks of K = L = 1, E = B, F = B^-1,
    T = 1 + G have nonzeros wherever a pair's can, never cancelling, so a
    weight that happens to be 0 cannot move a column.  A block's columns do
    not depend on its grade: a enters only as the rotation N[g + a].

    Row r, slot t (N's first and last nonzero, then M's): cols[r, t] is the
    unknown, src[r, t] the flat index of its coefficient in
    (N[2:] rotated by a, -M[2:], 0); a side with one nonzero repeats its
    column and reads the 0.  merge holds the flat slot pairs (to, from)
    naming one unknown on both sides of a row.  adjoint[t, k] is the flat
    slot of the t-th of unknown k's 16 nonzero coefficients, ascending.

    grid[c, s, t] is the unknown R[(s + c, t + a - c), (s, t)], slot
    indices mod ell: stack entry R[s + t][s + c, s].  Ex1 shifts the
    slot-1 index of both sides of R and 1xF the slot-2 index, so
    c = n' - n is constant along both steps: they split the ell^3 unknowns
    into ell components of ell^2, and comp[k] is the component of unknown
    k.  rows[0, c, s, t] is the Ex1 row joining grid[c, s, t] to
    grid[c, s + 1, t], rows[1, c, s, t] the 1xF row joining it to
    grid[c, s, t + 1], and from_mask marks their slots naming
    grid[c, s, t].  Slot t of row r adds to S Z at flat sz_index[t, r].
    """
    n = ell ** 3
    I, B = np.eye(ell), clock_shift(primitive_root(ell)).B
    shape = RepMatrices(K=I, L=I, E=B, F=B.T)
    M, N = (X[2:] != 0 for X in _equation_blocks((shape,) * 4, I + _braid_factor(shape, shape)))

    def ends(nz):  # the first and last nonzero column of each row
        return np.stack([nz.argmax(-1), ell - 1 - nz[..., ::-1].argmax(-1)], axis=-1)

    def slots(n_side, m_side):  # axes [b, g, i, j, t] to [row, slot]
        return np.concatenate(np.broadcast_arrays(n_side, m_side), axis=-1).reshape(-1, 4)

    nc, mc = ends(N)[:, :, :, None], ends(M.swapaxes(-1, -2))[:, :, None]
    b, g, i, j = (x[..., None] for x in np.ogrid[:6, :ell, :ell, :ell])
    gs = (g + np.array(BLOCK_SHIFTS[2:])[:, None, None, None, None]) % ell
    cols = slots((g * ell + nc) * ell + j, (gs * ell + i) * ell + mc)
    src = slots(((b * ell + g) * ell + i) * ell + nc, 6 * n + ((b * ell + g) * ell + mc) * ell + j)
    src[:, 1::2][cols[:, 0::2] == cols[:, 1::2]] = 12 * n
    live = src < 12 * n
    r, p, q = np.nonzero((cols[:, :2, None] == cols[:, None, 2:])
                         & live[:, :2, None] & live[:, None, 2:])
    merge = np.stack([4 * r + p, 4 * r + 2 + q])
    live.ravel()[merge[1]] = False
    live = np.flatnonzero(live)
    adjoint = live[np.argsort(cols.ravel()[live], kind="stable")].reshape(n, 16).T

    def at(g, i, j):  # the index g ell^2 + i ell + j of stack entry [g][i, j]
        return ((g % ell) * ell + i % ell) * ell + j % ell

    c, s, t = np.ogrid[:ell, :ell, :ell]
    grid = at(s + t, s + c, s)
    rows = np.stack([4 * n + at(s + t, s + c + 1, s), 5 * n + at(s + t + 1, s + c, s)])
    comp = np.empty(n, dtype=np.int32)
    comp[grid] = c
    sz_index = (np.arange(6 * n)[:, None] * ell + comp[cols]).T
    table = _BandTable(*(x if x.dtype == bool else x.astype(np.int32, order="C") for x in (
        cols, src, merge, adjoint, grid, rows, comp, cols[rows] == grid[..., None], sz_index)))
    for arr in table:
        arr.setflags(write=False)
    return table


def _band_rows(blocks: tuple[np.ndarray, np.ndarray],
               a: int) -> tuple[np.ndarray, np.ndarray]:
    """The band system S of blocks 2-7 of PairContext.blocks as
    (cols, vals), each of shape (rows, 4): row r has vals[r, t] in column
    cols[r, t] and unit norm.

    Unknown k = g ell^2 + i ell + j is R's stack entry R[g][i, j], R of
    grade shift a.  Row b ell^3 + k is (N R - R M)[g][i, j] of block b + 2
    (grade shift s), with (N R)[g] = N[g + a] R[g] and
    (R M)[g] = R[g + s] M[g]: N has at most two nonzeros per row and M per
    column.  Where they sit is the degree's _band_table; a pair's rows are
    one gather of the coefficients, and an unknown named on both sides of a
    row (the clock blocks' diagonals) is merged, so the unit-norm scaling
    sees its coefficient, not two large parts.
    """
    M, N = (X[2:] for X in blocks)
    ell = M.shape[1]
    table = _band_table(ell)
    vals = np.concatenate((N[:, (np.arange(ell) + a) % ell].ravel(), -M.ravel(), [0]))[table.src]
    flat = vals.reshape(-1)
    flat[table.merge[0]] += flat[table.merge[1]]
    flat[table.merge[1]] = 0
    return table.cols.astype(np.intp), vals / np.linalg.norm(vals, axis=1)[:, None]


def _apply_rows(cols: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the sparse rows of _band_rows."""
    return np.einsum("rt,rt->r", vals, x[cols])


def _propagate(ratio: np.ndarray) -> np.ndarray:
    """x[c, s, t] with x[c, 0, 0] = 1 and the step ratios of the grid
    (ratio[0] along s, ratio[1] along t): along s at t = 0, then along t."""
    x = np.ones(ratio.shape[1:], dtype=complex)
    x[:, 1:, 0] = np.cumprod(ratio[0, :, :-1, 0], axis=1)
    x[:, :, 1:] = np.cumprod(ratio[1, :, :, :-1], axis=2) * x[:, :, :1]
    return x


def _reduced_system(cols: np.ndarray, vals: np.ndarray,
                    ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S Z, z, comp) for the basis Z of the two-term rows' kernel: column c
    of Z is z on the unknowns with comp == c and 0 elsewhere, unit norm,
    and S Z is a dense (rows x ell) matrix.

    Each component is propagated twice: from grid[c, 0, 0], then again
    from its largest entry, whose paths lose less to the spread of the
    entries (4 to 6 decades at radius 0.1).
    """
    *_, grid, rows, comp, from_mask, sz_index = _band_table(ell)
    # x[to] / x[from] across each two-term row; a row's coefficient of an
    # unknown sums the slots naming it, wherever _band_rows' merge put it
    v = vals[rows]
    w_from = (v * from_mask).sum(axis=-1)
    ratio = -w_from / (v.sum(axis=-1) - w_from)
    s0, t0 = np.divmod(np.abs(_propagate(ratio)).reshape(ell, -1).argmax(axis=1), ell)
    r = np.arange(ell)
    seeded = (r[:, None, None], (r[:, None] + s0[:, None, None]) % ell,
              (r + t0[:, None, None]) % ell)
    x = _propagate(ratio[(slice(None), *seeded)]).reshape(ell, -1)
    z = np.empty(ell ** 3, dtype=complex)
    z[grid[seeded].reshape(ell, -1)] = x / np.linalg.norm(x, axis=1)[:, None]
    SZ = np.zeros(len(cols) * ell, dtype=complex)
    col_vals = vals * z[cols]
    for t, index in enumerate(sz_index):
        SZ[index] += col_vals[:, t]
    return SZ.reshape(-1, ell), z, comp


def _adjoint(vals: np.ndarray, slots: np.ndarray):
    """y -> S^H y for _band_rows' rows and _band_table's adjoint slots:
    each unknown's 16 products, added one slot after another in row order."""
    vals_h, rows = vals.conj().ravel()[slots], slots.astype(np.intp) // vals.shape[1]
    return lambda y: (vals_h * y[rows]).sum(axis=0)


def _cgls(cols: np.ndarray, vals: np.ndarray, slots: np.ndarray, v: np.ndarray,
          r: np.ndarray, steps: int) -> np.ndarray:
    """v after CGLS steps toward min |S v| from v, r = -S v (both are
    updated in place).

    Conjugate gradients on the least-squares problem: each step is one
    product with S and one with S^H, the latter a gather of r through the
    transposed table slots (_adjoint).  From a vector near the kernel line
    they shrink the rest of it, leaving the line.
    """
    adjoint = _adjoint(vals, slots)
    s = adjoint(r)
    p, gamma = s, np.vdot(s, s).real
    for i in range(steps):
        q = _apply_rows(cols, vals, p)
        alpha = gamma / np.vdot(q, q).real
        v += alpha * p
        if i == steps - 1:
            return v
        r -= alpha * q
        s = adjoint(r)
        gamma, gamma_old = np.vdot(s, s).real, gamma
        p *= gamma / gamma_old
        p += s


def _band_offset(p1: RepParams, p2: RepParams, q1: RepParams,
                 q2: RepParams) -> tuple[int, float]:
    """Band exponent a nearest the clock-weight ratio rho = eps^(2a), and
    the distance |rho - eps^(2a)|."""
    ctx = p1.ctx
    rho = (p1.u * p1.v * p2.u * p2.v) / (q1.u * q1.v * q2.u * q2.v)
    dists = np.abs(rho - ctx.eps_powers[(2 * np.arange(ctx.ell)) % ctx.ell])
    a = int(np.argmin(dists))
    return a, float(dists[a])


def det_normalize(blocks: np.ndarray, shift: int) -> tuple[np.ndarray, float]:
    """A stack of grade shift `shift` scaled to det 1, with its residual
    root-of-unity phase fixed, and log|det| of the stack before.

    The stack's blocks sit on a permutation of the ell grades made of odd
    cycles (ell is odd), which is even: det is the product of the blocks'.
    After the det scaling a matrix is determined up to an n-th root of
    unity (n = ell^2 its size).  The representative is pinned by rotating
    arg(sum_j w_j R_j) into [0, 2 pi / n), where w are fixed golden-angle
    unit weights at the dense flat indices j (those cyclic._dense scatters
    with): a generic functional, immune to the modulus ties that a
    largest-entry rule hits on these highly structured matrices.  Scaled
    inputs c*R therefore normalize to the identical matrix.
    """
    ell = len(blocks)
    n = ell * ell
    # log det, not det: a unit-norm ell^2 x ell^2 matrix underflows det at ell 13
    signs, logabs = np.linalg.slogdet(blocks)
    sign, logabs = np.prod(signs), float(logabs.sum())
    if sign == 0:
        raise InvalidInputError("singular matrix cannot be det-normalized")
    R1 = blocks * np.exp(-(logabs + 1j * np.angle(sign)) / n)
    w = np.exp(2j * np.pi * 0.6180339887498949 * _stack_index(ell, shift)[0])
    sigma = np.dot(w.ravel(), R1.ravel())
    if abs(sigma) < 1e-8 * np.linalg.norm(R1):  # fallback, never hit in practice
        sigma = R1.flat[int(np.argmax(np.abs(R1)))]
    ang = float(np.angle(sigma) % (2 * np.pi))
    k = int(ang // (2 * np.pi / n))
    return R1 * np.exp(-2j * np.pi * k / n), logabs


@dataclass
class ChiData:
    """PairContext.chi: the closed form's scalars, with coherence diagnostics."""

    chi1: complex
    chi2: complex
    s: complex
    t: complex
    sigma: complex
    chi1_mismatch: float
    chi2_mismatch: float
    t_power_residual: float
    sigma_power_residual: float
    legacy_relation_residuals: dict = field(default_factory=dict)


class PairContext:
    """The ingredients of one pair (p1, p2), built once and read by both
    routes, their checks and the s0 diagnostic.

    Holds the output pair (braided, or the oracle's target), the four
    RepMatrices (in1, in2, out1, out2), and the band exponent a, the grade
    shift of every intertwiner of the pair, with its distance.  The braid
    factor G, T = 1 - eps G, the eight equation blocks and the closed
    form's twist scalars chi, twist diagonal D and spectral factor R1 are
    built on first use, so the oracle computes nothing of the closed form
    and an unread closed-form residual builds no blocks.  G, T, the blocks
    and R1 are stacks (see cyclic), of ell^3 entries each.
    """

    def __init__(self, p1: RepParams, p2: RepParams,
                 target: tuple[RepParams, RepParams] | None = None):
        self.in_params = (p1, p2)
        self.braided = target is None
        self.out_params = braided_rep_pair(p1, p2) if target is None else tuple(target)
        self.reps = tuple(build_rep(p) for p in (*self.in_params, *self.out_params))
        self.band_exp, self.band_dist = _band_offset(*self.in_params, *self.out_params)

    @cached_property
    def G(self) -> np.ndarray:
        return _braid_factor(*self.reps[2:])

    @cached_property
    def T(self) -> np.ndarray:
        return np.eye(len(self.G)) - self.in_params[0].ctx.eps * self.G

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(M, N): the stacks M[b], N[b] of grade shift BLOCK_SHIFTS[b] of
        the pair's equations N R = R M, each of shape (8, ell, ell, ell).

        0-3: the K, L, E, F coproducts (in, and opposite on out).  4-5: the
        slot-2 clocks multiplied through by T = 1 - eps G,
        R (1 x K_in^-1) = T (1 x K_out^-1) R and the same for L, so no
        inverse of T is read.  6-7: Ex1 and 1xF.  Every M and N but the
        K and L coproducts' is a sum of at most two monomial matrices; those
        two vanish identically on the band, so the oracle reads blocks 2-7.
        """
        return _equation_blocks(self.reps, self.T)

    @cached_property
    def chi(self) -> ChiData:
        """Twist scalars of the closed form, all pinned by explicit equations;
        InvalidInputError unless the output pair is the braided one.

        chi1 and chi2 are ell-th roots of unity identically (their ell-th
        powers cancel against conserved character combinations), as is the
        clock-weight ratio eps^(2a) of band_exp.  The spectral factor's step
        scale is 1/s exactly, with sigma^ell = 1 - s^(-ell).  The principal
        t = (1 - s^ell)^(1/ell) is the reported branch datum.  Superseded
        relations that pin no root of unity go to legacy_relation_residuals.
        """
        if not self.braided:
            raise InvalidInputError("the closed form needs the braided output pair")
        (p1, p2), (q1, q2) = self.in_params, self.out_params
        ctx = p1.ctx
        ell, eps = ctx.ell, ctx.eps
        u1, v1, x1, y1 = p1.as_tuple()
        u2, v2, x2, y2 = p2.as_tuple()
        ut1, vt1, xt1, yt1 = q1.as_tuple()
        ut2, vt2, xt2, yt2 = q2.as_tuple()
        _, z2 = gauge_U(p2)
        _, zt2 = gauge_U(q2)
        s = (u2 * v2) / (ut2 * vt2)
        if abs(1 - s**ell) < 1e-12:
            raise BranchMismatchError("s^ell = 1: spectral factor degenerate")
        t = (1 - s**ell) ** (1.0 / ell)
        chi1 = y1 * ut2 / (yt1 * vt2)
        chi2 = u2 * z2 * ut1 * vt1 * yt2 / (y2 * zt2 * ut2)
        roots = ctx.eps_powers[:ell]
        chi1_mis = float(np.min(np.abs(chi1 - roots)))
        chi2_mis = float(np.min(np.abs(chi2 - roots)))
        # the band is pinned by the clock ratio alone; chi1 is a further,
        # independent root of unity (the two only coincide near the identity)
        if max(chi1_mis, chi2_mis, self.band_dist) > TWIST_ROOT_TOL:
            raise BranchMismatchError(
                f"twist scalars off the root lattice: chi1 {chi1_mis:.2e}, "
                f"chi2 {chi2_mis:.2e}, a {self.band_dist:.2e}")
        sigma = eps * y1 * u2 * z2 / y2
        legacy = {
            # chi2 candidate from the slot-1 raising scalar alone
            "chi2_raising_only": float(np.min(np.abs(yt1 / (y1 * u2 * v2) - roots))),
            # the single-scalar tie rho = chi1 eps^(-2a) between the band and
            # the first twist; it fails whenever the lift branches split the two
            "chi1_band_tie": float(abs(chi1 - ctx.pow(4 * self.band_exp))),
        }
        legacy_cand = zt2 / yt2 * ut2 * (u1 * v1) / (z2 * (yt1 / (y1 * u2 * v2)))
        legacy["a_exp_gauge_chain"] = float(
            np.min(np.abs(legacy_cand - ctx.eps_powers[(-2 * np.arange(ell)) % ell])))
        return ChiData(
            chi1=chi1, chi2=chi2, s=s, t=t, sigma=sigma,
            chi1_mismatch=chi1_mis, chi2_mismatch=chi2_mis,
            t_power_residual=float(abs(t**ell - (1 - s**ell))),
            sigma_power_residual=float(abs(sigma**ell - y1**ell * z0_character(p2).phi)),
            legacy_relation_residuals=legacy,
        )

    @cached_property
    def twist(self) -> np.ndarray:
        """The closed form's twist diagonal D in pair order,
        D(v_n x v_m) = eps^(2nm) chi1^(-n) chi2^m (n, m = 1, ..., ell)."""
        ctx, cd = self.in_params[0].ctx, self.chi
        n = np.arange(1, ctx.ell + 1)
        return (ctx.eps_powers[(2 * np.outer(n, n)) % ctx.ell]
                * np.outer(cd.chi1 ** -n, cd.chi2 ** n)).ravel()

    @cached_property
    def spectral(self) -> np.ndarray:
        ctx = self.in_params[0].ctx
        return _spectral_factor(ctx.ell, ctx.eps_powers, _spectral_values(self.chi, ctx))


@dataclass
class Intertwiner:
    """An intertwiner as its stack (grade shift pair.band_exp), its
    PairContext and diagnostics; residual (on the pair's equation blocks)
    and R, the dense matrix that no check reads, are built on first read."""

    blocks: np.ndarray
    pair: PairContext
    route: str
    kernel_dim: int = 1
    singular_gap: float | None = None
    log_abs_det: float | None = None  # log|det R| of R before det normalization

    @property
    def ell(self) -> int:
        return self.pair.in_params[0].ctx.ell

    @cached_property
    def R(self) -> np.ndarray:
        return _dense(self.blocks, self.pair.band_exp)

    @cached_property
    def residual(self) -> float:
        """max over the blocks of |N R - R M| / |R|, all eight at once."""
        M, N = self.pair.blocks
        R, g = self.blocks, np.arange(self.ell)
        diff = N[:, (g + self.pair.band_exp) % self.ell] @ R \
            - R[(g + np.array(BLOCK_SHIFTS)[:, None]) % self.ell] @ M
        return float(np.linalg.norm(diff.reshape(len(diff), -1), axis=1).max()
                     / np.linalg.norm(R))

    @cached_property
    def _R_inv(self) -> np.ndarray:
        """The stack of R^-1, of grade shift -pair.band_exp."""
        return _rotate(np.linalg.inv(self.blocks), -self.pair.band_exp)


def _pair_of(p1: RepParams, p2: RepParams, pair: PairContext | None,
             target=None) -> PairContext:
    """pair, checked to belong to (p1, p2), or a new PairContext."""
    if pair is None:
        return PairContext(p1, p2, target)
    if pair.in_params[0] is not p1 or pair.in_params[1] is not p2 or target is not None:
        raise InvalidInputError("the pair context belongs to another pair or target")
    return pair


def solve_intertwiner(p1: RepParams, p2: RepParams,
                      target: tuple[RepParams, RepParams] | None = None, *,
                      pair: PairContext | None = None) -> Intertwiner:
    """Nullspace solve of the stacked intertwining system.

    target overrides the braided output pair (used by the negative
    controls).  pair is the PairContext of (p1, p2) when the caller shares
    one; it is built here otherwise.  Raises NoIntertwinerError on an
    empty nullspace and NonGenericRepresentationError when the nullspace
    is not a line.

    The solve reads only the four representation matrices and the braid
    factor G.  It writes blocks 2-7 of pair.blocks on the conserved weight
    band, whose unknowns are the entries of R's stack, and scales each
    sparse row of that system S to unit norm.  The Ex1 and 1xF rows have
    two unknowns each: propagated through them, the ell^3 band unknowns
    reduce to a basis Z of ell orthonormal columns (_reduced_system) that
    holds the kernel.  The SVD of S Z, with all six blocks and so every
    closure row outside the propagation, taken through the R of its QR
    (an ell x ell matrix; sv and vh are all the solve reads), gives the
    kernel coefficients c, and 2 ell - 3 CGLS steps on S refine v = Z c
    (CG needs more steps as the band grows).  Where S's entries sit is the
    degree's _band_table, built once per ell.
    The kernel criterion is relative singular value < KERNEL_TOL against
    the largest singular value of S Z, with the smallest read as |S v| of
    the refined unit vector v.  By interlacing, S Z has no singular value
    below S's smallest, so an empty kernel of S stays empty.  The gap is
    sigma_2(S Z) / |S v|, and sigma_2(S Z) is 1.2 to 1.9 times S's own
    sigma_2 (ell = 3 to 7).  It must exceed GAP_THRESHOLD; on sampled pairs
    at radius 0.1 it is 1e14 to 1e15 from ell = 3 to 13.  The negative
    controls sit 4+ orders above the tolerance, genuine kernels 7+ orders
    below.
    """
    ell = p1.ctx.ell
    pair = _pair_of(p1, p2, pair, target)
    a = pair.band_exp
    if not pair.band_dist <= 1e-6:  # NaN included
        raise NoIntertwinerError(
            "clock-weight ratio is not an ell-th root of unity; "
            "the two pairs cannot be intertwined")
    cols, vals = _band_rows(pair.blocks, a)
    SZ, z, comp = _reduced_system(cols, vals, ell)
    _, sv, vh = np.linalg.svd(np.linalg.qr(SZ, mode="r"))
    c = vh[-1].conj()
    v = _cgls(cols, vals, _band_table(ell).adjoint, z * c[comp], -(SZ @ c),
              steps=2 * ell - 3)
    v /= np.linalg.norm(v)
    sv[-1] = np.linalg.norm(_apply_rows(cols, vals, v))
    rel = sv / sv[0]
    kernel_dim = int(np.sum(rel < KERNEL_TOL))
    if kernel_dim == 0:
        raise NoIntertwinerError(
            f"empty nullspace: smallest relative singular value {rel[-1]:.3e}")
    if kernel_dim > 1:
        raise NonGenericRepresentationError(
            f"nullspace dimension {kernel_dim} > 1 (non-generic pair)")
    with np.errstate(divide="ignore"):
        gap = float(sv[-2] / sv[-1])
    if gap < GAP_THRESHOLD:
        raise NonGenericRepresentationError(
            f"singular-value gap {gap:.2e} below threshold {GAP_THRESHOLD:.1e}")
    blocks, log_abs_det = det_normalize(v.reshape(ell, ell, ell), a)
    return Intertwiner(blocks=blocks, pair=pair, route="oracle", singular_gap=gap,
                       log_abs_det=log_abs_det)


def _spectral_values(cd: ChiData, ctx: RootContext) -> np.ndarray:
    """Eigenvalue orbit of the spectral factor: vals[0] = 1 and
    vals[k+1] = vals[k] tau / (1 - sigma eps^(2k)), tau = 1/s."""
    tau = 1.0 / cd.s
    vals = np.empty(ctx.ell, dtype=complex)
    vals[0] = 1.0
    for k in range(ctx.ell - 1):
        vals[k + 1] = vals[k] * tau / (1 - cd.sigma * ctx.pow(2 * k))
    return vals


def _spectral_factor(ell: int, eps_powers: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Function of the split shift W = B x B^-1 with given eigenvalues, as
    its stack (grade shift 0).

    W^j moves (n, m) to (n+j, m-j); eigenvalue vals[k] sits on the
    eps^(2k)-eigenspace, so with coef the inverse discrete transform of
    vals, every block is the circulant with coef[(i - j) % ell] at (i, j).
    """
    ks = np.arange(ell)
    coef = (vals[None, :] * eps_powers[(-2 * np.outer(ks, ks)) % ell]).sum(axis=1) / ell
    return np.broadcast_to(coef[(ks[:, None] - ks) % ell], (ell, ell, ell))


def closed_form_R(p1: RepParams, p2: RepParams, *,
                  pair: PairContext | None = None) -> Intertwiner:
    """Assemble the explicit intertwiner from diagonal twists and the
    spectral factor.

    Structure: R = D . (B^a x Ug_out) . R1 . (1 x Ug_in^-1) where a is the
    band exponent, Ug_in/out are the lowering-gauge diagonals of the slot-2
    input/output representations, D is the pair's twist diagonal and R1 its
    spectral factor, the function of B x B^-1 whose eigenvalue orbit has
    step (1/s)/(1 - sigma eps^(2k)) with the scalars of pair.chi, starting
    at 1 (det normalization removes any other start).  pair is the
    PairContext of (p1, p2) when the caller shares one; D, R1 and chi stay
    on it for r1_conjugation_residuals, s0_diagnostic and the report.
    """
    pair = _pair_of(p1, p2, pair)
    ell, a = p1.ctx.ell, pair.band_exp
    U2, Ut2 = (gauge_U(q)[0] for q in (p2, pair.out_params[1]))
    Ba = np.linalg.matrix_power(clock_shift(p1.ctx).B, a)
    blocks, _ = _chain([(_diag_blocks(pair.twist), 0), (_kron_blocks(Ba, Ut2, a), a),
                        (pair.spectral, 0),
                        (_kron_blocks(np.eye(ell), np.linalg.inv(U2), 0), 0)])
    blocks, log_abs_det = det_normalize(blocks, a)
    return Intertwiner(blocks=blocks, pair=pair, route="closed-form", log_abs_det=log_abs_det)


def compare_up_to_scalar(r1: np.ndarray, r2: np.ndarray) -> tuple[complex, float]:
    """Best scalar lambda with r1 ~ lambda r2, and the relative deviation."""
    norm2 = np.vdot(r2, r2)
    if abs(norm2) == 0:
        raise InvalidInputError("comparison target is the zero matrix")
    scalar = np.vdot(r2, r1) / norm2
    diff = scalar * r2  # r1 - scalar r2, formed in place
    deviation = float(np.linalg.norm(np.subtract(r1, diff, out=diff)) / np.linalg.norm(r1))
    return complex(scalar), deviation


def central_invariance_residuals(intw: Intertwiner) -> dict[str, float]:
    """|w_in - w_out| / |w_out| for the Casimir and K L^-1 of each slot on
    its input and output representation.  Both act as scalars, so some R
    has R w_in R^-1 = w_out exactly when w_in = w_out: R is never read."""
    eps = intw.pair.in_params[0].ctx.eps
    reps = intw.pair.reps
    central = {"casimir": lambda r: r.E @ r.F + r.K / eps + np.linalg.inv(r.L) * eps,
               "kl_ratio": lambda r: r.K @ np.linalg.inv(r.L)}
    out = {}
    for name, elem in central.items():
        for slot in (1, 2):
            w_in, w_out = elem(reps[slot - 1]), elem(reps[slot + 1])
            out[f"{name}_slot{slot}"] = float(np.linalg.norm(w_in - w_out)
                                              / np.linalg.norm(w_out))
    return out


def check_generator_action(intw: Intertwiner) -> dict[str, dict[str, float]]:
    """Residuals of every explicit braid-image formula, per reading.

    Returns {formula id: {reading: relative residual}}.  For each formula
    at least one reading is expected under 1e-8; the suite aggregates
    which one.  Every operator is a stack (see cyclic).
    """
    pair = intw.pair
    p1, p2, q1, q2 = *pair.in_params, *pair.out_params
    ctx = p1.ctx
    ell, t = ctx.ell, ctx.eps
    kron = _kron_blocks
    I = np.eye(ell)
    rin1, rin2, rout1, rout2 = pair.reps
    K1, F1, E2 = rin1.K, rin1.F, rin2.E
    Kt1, Lt1, Et1, Ft1 = rout1.as_tuple()
    Kt2, Lt2, Et2, Ft2 = rout2.as_tuple()
    # the inverted factor (1 - t^(+-1) G)^-1 under both t-power readings
    inv_powers = tuple(zip(("t", "t_inverse"),
                           np.linalg.inv(np.stack([I - t * pair.G, I - pair.G / t]))))
    a, R_inv = pair.band_exp, intw._R_inv

    def res(w_in, w_out, shift):  # |R w_in R^-1 - w_out| / |w_out|
        lhs, _ = _chain([(intw.blocks, a), (w_in, shift), (R_inv, -a)])
        return float(np.linalg.norm(lhs - w_out) / np.linalg.norm(w_out))

    # the four single-factor equations of the pair's system, read as checks
    M, N = pair.blocks
    out = {name: {"direct": res(m, n, shift)} for name, m, n, shift in zip(
        ("slot2_clock_k", "slot2_clock_l", "slot1_raising", "slot2_lowering"),
        M[4:], N[4:], BLOCK_SHIFTS[4:])}
    out["slot1_clock_k"] = {"direct": res(kron(K1, I, 0), pair.T @ kron(Kt1, I, 0), 0)}

    # ell-th powers are central scalars; the inverted factor's sign variant
    # is exactly the braiding-sign adjudication at the character level
    c_in1, c_in2, c_out1, c_out2 = (z0_character(p) for p in (p1, p2, q1, q2))
    w = c_out1.eta * c_out2.phi * c_out2.lam / c_out1.kappa
    rhs = {name: c_out2.kappa / (1 + sign * w)
           for sign, name in ((-1, "minus"), (+1, "plus"))}
    out["power_slot2_clock_k"] = {name: float(abs(c_in2.kappa - r) / abs(r))
                                  for name, r in rhs.items()}
    out["power_slot1_raising"] = {"direct": float(
        abs(c_in1.eta - c_out1.eta * c_out2.lam) / abs(c_in1.eta))}
    out["power_slot2_lowering"] = {"direct": float(
        abs(c_in2.phi - c_out2.phi / c_out1.kappa) / max(abs(c_in2.phi), 1e-12))}

    # second-slot raising: inverted factor to the left, acting on the grade
    # tailE lands on; t-power adjudicated
    lead = kron(Et1, I, 1) + kron(Kt1, Et2, 1)
    tailE = kron(Et1, Kt2 @ Lt2, 1)
    out["slot2_raising"] = {tname: res(kron(I, E2, 1), lead - _rotate(inv, 1) @ tailE, 1)
                            for tname, inv in inv_powers}

    # first-slot lowering: prefactor and t-power adjudicated
    baseF = kron(Ft1, np.linalg.inv(Lt2), -1) + kron(I, Ft2, -1)
    pref = {"product_inverse": kron(np.linalg.inv(Kt1 @ Lt1), Ft2, -1),
            "ratio": kron(Kt1 @ np.linalg.inv(Lt1), Ft2, -1)}
    out["slot1_lowering"] = {f"{pname}_{tname}": res(kron(F1, I, -1), baseF - X @ inv, -1)
                             for pname, X in pref.items() for tname, inv in inv_powers}
    return out


def r1_conjugation_residuals(intw: Intertwiner) -> dict[str, float]:
    """Commutation identities of the spectral factor, both tensor readings.

    Requires a closed-form intertwiner; R1 and the scalars are read from
    its pair, where closed_form_R left them.
    """
    if intw.route != "closed-form":
        raise InvalidInputError("needs a closed-form intertwiner")
    ctx = intw.pair.in_params[0].ctx
    ell = ctx.ell
    cs = clock_shift(ctx)
    cd = intw.pair.chi
    tau = 1.0 / cd.s
    R1 = intw.pair.spectral
    kron = _kron_blocks
    I = np.eye(ell)
    A, B, Binv = cs.A, cs.B, np.linalg.inv(cs.B)

    def commutator(X, shift):
        RX, _ = _chain([(R1, 0), (X, shift)])
        return float(np.linalg.norm(RX - X @ R1) / np.linalg.norm(R1))

    out = {"clock_pair": commutator(kron(A, A, 0), 0),
           "slot2_shift_inv": commutator(kron(I, Binv, -1), -1),
           "slot1_shift": commutator(kron(B, I, 1), 1)}
    IA = kron(I, A, 0)
    lhs = R1 @ IA @ np.linalg.inv(R1)
    rhs = tau * IA @ np.linalg.inv(I - cd.sigma * kron(B, Binv, 0))
    out["slot2_clock_opposite_shifts"] = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    # B x B moves the grade by 2 and has order ell, so the rhs
    # tau (1 x A) (1 - sigma B x B)^-1 is sum_k tau sigma^k (B^k x A B^k) / (1 - sigma^ell),
    # its term k of grade shift 2k: only term 0 meets lhs
    powers = [np.linalg.matrix_power(B, k) for k in range(ell)]
    terms = np.stack([tau * cd.sigma**k / (1 - cd.sigma**ell) * kron(Bk, A @ Bk, 2 * k)
                      for k, Bk in enumerate(powers)])
    out["slot2_clock_parallel_shifts"] = float(
        np.linalg.norm(np.concatenate([[lhs - terms[0]], terms[1:]])) / np.linalg.norm(terms))
    return out


class DetSample(NamedTuple):
    """What det_exponent_probe reads of a closed form: its pair's chi, and
    its Intertwiner.log_abs_det and ell."""

    chi: ChiData
    log_abs_det: float
    ell: int


def det_exponent_probe(samples: list[DetSample]) -> dict:
    """Least-squares fit of the determinant growth exponent.

    Two fits are reported: the raw determinant of the assembled closed form
    against log|1 - s^ell| (the literal reading; empirically not a
    monomial, carried for the record), and the determinant of the spectral
    core in the analytic normalization against log|1 - sigma^ell|, which is
    an exact monomial.  Candidate exponents +-ell(ell+2)/2 and
    +-ell(ell+1)/2 are compared against the stable fit.
    """
    if len(samples) < 10:
        return {"inconclusive": True, "reason": f"only {len(samples)} usable samples"}
    ell = samples[0].ell
    ctx = primitive_root(ell)
    xs_full, ys_full, xs_core, ys_core = [], [], [], []
    for s in samples:
        cd = s.chi
        xs_full.append(np.log(abs(1 - cd.s**ell)))
        ys_full.append(s.log_abs_det)
        # |Phi| at the orbit base point, from the finite product: the modulus
        # of a fractional power is branch-free, and only moduli enter the fit
        z0 = cd.sigma * ctx.pow(-2)
        factors = np.abs(1 - ctx.eps_powers[(2 * np.arange(1, ell + 1)) % ell] * z0)
        if np.min(factors) < 1e-8:
            continue  # orbit base on a pole
        log_phi0 = -np.dot(np.arange(1, ell + 1) / ell, np.log(factors))
        xs_core.append(np.log(abs(1 - cd.sigma**ell)))
        ys_core.append(ell * ell * log_phi0
                       + ell * np.log(abs(np.prod(_spectral_values(cd, ctx)))))

    def fit(xs, ys):
        xs, ys = np.asarray(xs), np.asarray(ys)
        if len(xs) < 10 or np.ptp(xs) < 1e-6:
            return None
        A = np.vstack([xs, np.ones(len(xs))]).T
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        dev = float(np.max(np.abs(A @ coef - ys)))
        return {"alpha": float(coef[0]), "intercept": float(coef[1]),
                "fit_residual": dev, "n_samples": len(xs)}

    core = fit(xs_core, ys_core)
    full = fit(xs_full, ys_full)
    result = {"inconclusive": core is None, "ell": ell,
              "core_fit": core, "full_fit": full}
    if core is not None:
        cands = {"l(l+2)/2": ell * (ell + 2) / 2, "-l(l+2)/2": -ell * (ell + 2) / 2,
                 "l(l+1)/2": ell * (ell + 1) / 2, "-l(l+1)/2": -ell * (ell + 1) / 2}
        diffs = {k: abs(core["alpha"] - v) for k, v in cands.items()}
        best = min(diffs, key=diffs.get)
        result["candidates"] = {k: float(v) for k, v in cands.items()}
        result["candidate_diffs"] = {k: float(v) for k, v in diffs.items()}
        result["closest_candidate"] = best
        result["matches_closest"] = bool(diffs[best] < 1e-3)
    return result
