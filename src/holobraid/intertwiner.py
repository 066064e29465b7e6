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
gather of its coefficients, scaled to unit norm.  The table is slot-major:
each of a row's four slots is a contiguous column, and slots 2-3 are
structurally zero past the E and F coproduct rows (a third of the slots),
so S v skips them.  The Ex1 and 1xF rows have two unknowns each and split
the unknowns into ell components of ell^2, each fixed by one entry.
Propagating them leaves ell unknowns, on whose ell-column basis the
two-term rows vanish.  Each coupling row (blocks 2-5) names components c,
c + 1 mod ell alone, so its QR on that basis splits into ell two-column
blocks (block TSQR): the SVD of their stacked 2 x 2 R's picks the kernel
line, and CGLS steps on the full sparse rows (S^H by a gather through the
table) refine it until the residual stalls at its rounding floor.  Pairs of
one degree are solved in batches of BATCH_UNKNOWNS band unknowns
(solve_intertwiners): every step runs once on a leading pair axis, each
reduction along one pair's own, so a pair's result and its error, raised
only where it is read, are those of its solve alone.

A PairContext holds what both routes and their checks read of one pair
(the output pair, the band and, built on first read, the four generator
matrix sets, the braid factor and the equation blocks) and owns the
closed form's pair data: its twist scalars chi, its twist diagonal and
its spectral factor, built only when the closed form is.  Each
Intertwiner carries its PairContext to the checks; only the two routes
take one, as pair=, from a caller.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cyclic import (RepParams, RepMatrices, _braid_factor, _chain, _dense, _kron_blocks,
                     _read_only, _rotate, _shift_power, _stack_index, braided_rep_pair,
                     build_rep, clock_shift, gauge_U, z0_character)
from .errors import (BranchMismatchError, HolobraidError, InvalidInputError,
                     NoIntertwinerError, NonGenericRepresentationError)
from .glstar import beta_forward
from .qseries import _staircase_orbit
from .report import worst_residual
from .roots import RootContext

# oracle kernel: relative singular value below KERNEL_TOL, gap ratio above
# GAP_THRESHOLD (see solve_intertwiner)
KERNEL_TOL = 1e-6
GAP_THRESHOLD = 1e6
# the oracle's CGLS stops once |S v|^2 is below (KERNEL_TOL sigma_max)^2 and
# a step leaves more than this fraction of it (see _cgls)
CGLS_STALL = 0.9
# largest band_dist the oracle solves on the band.  The K and L coproduct
# rows it leaves out (they vanish on the band) are off by about band_dist
# relative, so it is the kernel test's tolerance; the closed form builds R
# from the roots themselves and holds them to TWIST_ROOT_TOL
BAND_TOL = KERNEL_TOL
# largest distance of chi1, chi2 and eps^(2a) from the ell-th roots of unity
TWIST_ROOT_TOL = 1e-8
# grade shifts of the eight equation blocks of PairContext.blocks
BLOCK_SHIFTS = (0, 0, 1, -1, 0, 0, 1, -1)
# band unknowns (ell^3 a pair) an oracle batch holds at most (batch_size), from a
# sweep: 8 pairs at ell 3, one from ell 5 on.  From 1024 the adjoint's product passes
# numpy's 256 KiB temporary elision, which can swap a complex product's operands
BATCH_UNKNOWNS = 216


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


_BandTable = namedtuple("_BandTable",
                        "cols src merge adjoint adjoint_rows grid two_term comp sz_index r_index "
                        "grades seeds starts")


@lru_cache(maxsize=8)
def _band_table(ell: int) -> _BandTable:
    """Where the entries of _band_rows' system S sit at degree ell, for
    every band exponent a (read-only intp arrays), so that every gather
    indexes with them as they are.

    Built from the layout alone: the blocks of K = L = 1, E = B, F = B^-1,
    T = 1 + G have nonzeros wherever a pair's can, never cancelling, so a
    weight that happens to be 0 cannot move a column.  A block's columns do
    not depend on its grade: a enters only as the rotation N[g + a].

    The table is slot-major, of shape (4, rows): slot t of row r (N's first
    and last nonzero, then M's) has cols[t, r] the unknown and src[t, r]
    the flat index of its coefficient in (N[2:] rotated by a, -M[2:], 0);
    a side with one nonzero repeats its column and reads the 0.  merge
    holds the flat slot pairs (to, from) naming one unknown on both sides
    of a row, and the from slot reads the 0 after the merge.  Slots 2-3 are
    live on the coproduct rows (blocks 2-3, the first 2 ell^3) alone: a
    clock row's M side is diagonal, one slot repeated and the other merged
    into N's, and a two-term row's single M slot is moved into slot 1,
    whose N repeat reads the 0.  adjoint[t, k] is the flat slot of the t-th
    of unknown k's 16 nonzero coefficients in row order, adjoint_rows its row.

    grid[c, s, t] is the unknown R[(s + c, t + a - c), (s, t)], slot
    indices mod ell: stack entry R[s + t][s + c, s].  Ex1 shifts the
    slot-1 index of both sides of R and 1xF the slot-2 index, so
    c = n' - n is constant along both steps: they split the ell^3 unknowns
    into ell components of ell^2, and comp[k] is the component of unknown
    k.  two_term[:, 0, c, s, t] holds the flat (from, to) slots of the Ex1
    row joining grid[c, s, t] (from) to grid[c, s + 1, t] (to), and
    two_term[:, 1, c, s, t] those of the 1xF row joining it to
    grid[c, s, t + 1].  Coupling row r (the first 4 ell^3) names components
    c and c + 1 alone: slot t adds to S_c Z, split as (ell, 4 ell^2, 2), at
    flat sz_index[t, r] = [c, r's place in c's rows, 0 or 1 for c or c + 1],
    and r_index[c] the flat slots of pair c's R (0, 0), (0, 1), (1, 1).
    grades[b - 2, 0] = ell b is N's first row of block b as (8 ell, ell^2),
    seeds[d] = d ell^3 and starts = 0 start a pair's ratios and unknowns.
    """
    n, rows = ell ** 3, 6 * ell ** 3
    I, B = np.eye(ell), _shift_power(ell, 1)
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
    for x in (cols, src):  # the two-term rows' live M slot into their N repeat
        x[4 * n:, 1:3] = x[4 * n:, 2:0:-1]
    live = src < 12 * n
    r, p, q = np.nonzero((cols[:, :2, None] == cols[:, None, 2:])
                         & live[:, :2, None] & live[:, None, 2:])
    merge = np.stack([p * rows + r, (2 + q) * rows + r])
    live[r, 2 + q] = False
    live = np.flatnonzero(live)
    adjoint = live[np.argsort(cols.ravel()[live], kind="stable")].reshape(n, 16).T
    cols, src = cols.T, src.T

    def at(g, i, j):  # the index g ell^2 + i ell + j of stack entry [g][i, j]
        return ((g % ell) * ell + i % ell) * ell + j % ell

    c, s, t = np.ogrid[:ell, :ell, :ell]
    grid = at(s + t, s + c, s)
    steps = np.stack([4 * n + at(s + t, s + c + 1, s), 5 * n + at(s + t + 1, s + c, s)])
    to = rows * (cols[0][steps] == grid)  # the to slot: 1 where slot 0 names grid, else 0
    comp = np.empty(n, dtype=np.intp)
    comp[grid] = c
    k = comp[cols[:, :4 * n]]  # every slot of a coupling row names its c or c + 1
    c_row = (k[0] - ((k - k[0]) % ell == ell - 1).any(axis=0)) % ell
    place = np.argsort(np.argsort(c_row, kind="stable"))  # row order within each c
    table = _BandTable(*(x.astype(np.intp, order="C") for x in (
        cols, src, merge, adjoint % 4 * rows + adjoint // 4, adjoint // 4, grid,
        np.stack([steps + rows - to, steps + to]), comp, 2 * place + (k - c_row) % ell,
        (2 * c[:, 0] + [0, 0, 1]) * ell + (c[:, 0] + [0, 1, 1]) % ell,
        np.arange(2, 8)[:, None] * ell, n * np.arange(2)[:, None, None, None], np.zeros(()))))
    for arr in table:
        arr.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _batch_table(ell: int, pairs: int = 0) -> _BandTable:
    """_band_table(ell) for a pair axis of `pairs` (none: itself), read-only:
    each index gains that axis (after the slot axis where vals has one,
    else first) and points into the pairs' arrays laid end to end."""
    one, n, p = _band_table(ell), ell ** 3, np.arange(pairs)
    if not pairs:
        return one

    def at(x, size, axis=1):  # x with a pair axis at `axis`, offset by pair * size
        return np.expand_dims(x, axis) + p.reshape(-1, *(1,) * (x.ndim - axis)) * size

    def slot(x):  # a flat slot of a pair's vals (4, 6n) in the batch's (4, pairs, 6n)
        return at(x // (6 * n) * pairs * 6 * n + x % (6 * n), 6 * n)

    table = _BandTable(at(one.cols, n), at(one.src, 12 * n + 1), slot(one.merge).reshape(2, -1),
                       slot(one.adjoint), at(one.adjoint_rows, 6 * n), one.grid,
                       slot(one.two_term), at(one.comp, ell, 0), at(one.sz_index, 8 * n),
                       at(one.r_index, 2 * ell * ell, 0), at(one.grades, 8 * ell, 0),
                       at(one.seeds, 2 * n, 0), at(one.starts[None, None, None], n, 0))
    for arr in table:
        arr.setflags(write=False)
    return table


def _band_rows(blocks: tuple[np.ndarray, np.ndarray],
               a) -> tuple[np.ndarray, np.ndarray]:
    """The band system S of blocks 2-7 of PairContext.blocks as
    (cols, vals), each slot-major of shape (4, rows): row r has vals[t, r]
    in column cols[t, r] and unit norm; with a pair axis on blocks and a,
    vals (4, pairs, rows) and cols from _batch_table.

    Unknown k = g ell^2 + i ell + j is R's stack entry R[g][i, j], R of
    grade shift a.  Row b ell^3 + k is (N R - R M)[g][i, j] of block b + 2
    (grade shift s), with (N R)[g] = N[g + a] R[g] and
    (R M)[g] = R[g + s] M[g]: N has at most two nonzeros per row and M per
    column.  Where they sit is the degree's _band_table; a pair's rows are
    one gather of the coefficients, and an unknown named on both sides of a
    row (the clock blocks' diagonals) is merged, so the unit-norm scaling
    sees its coefficient, not two large parts.  Slots 2-3 of the rows past
    the first 2 ell^3 read the 0 (see _band_table), so they hold exact
    zeros that _apply_rows and _reduced_system skip.
    """
    M, N = blocks
    ell, lead = M.shape[-1], M.shape[:-4]
    table = _batch_table(ell, *lead)
    grades = table.grades + np.add.outer(a, np.arange(ell))[..., None, :] % ell  # N[b, g + a]
    vals = np.concatenate((N.reshape(-1, ell * ell)[grades].reshape(*lead, -1),
                           -M[..., 2:, :, :, :].reshape(*lead, -1), np.zeros((*lead, 1))),
                          axis=-1).reshape(-1)[table.src]
    flat = vals.reshape(-1)
    flat[table.merge[0]] += flat[table.merge[1]]
    flat[table.merge[1]] = 0
    # np.linalg.norm of each row, the same products summed in the same order
    return table.cols, vals / np.sqrt((vals.conj() * vals).real.sum(axis=0))


def _apply_rows(cols: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x for the slot-major rows of _band_rows: slots 0-1 over all rows,
    then slots 2-3 over the coproduct rows (the first third) alone.  The
    slots skipped hold exact zeros, so this is the four-slot sum."""
    x = x.reshape(-1)
    out = vals[0] * x[cols[0]]
    out += vals[1] * x[cols[1]]
    head = out[..., :out.shape[-1] // 3]
    for t in (2, 3):
        head += vals[t, ..., :head.shape[-1]] * x[cols[t, ..., :head.shape[-1]]]
    return out


def _propagate(ratio: np.ndarray) -> np.ndarray:
    """x[..., c, s, t] with x[..., c, 0, 0] = 1 and the step ratios of the
    grid (ratio[..., 0, :, :, :] along s, ratio[..., 1, :, :, :] along t):
    along s at t = 0, then along t."""
    x = np.ones(ratio.shape[:-4] + ratio.shape[-3:], dtype=complex)
    x[..., 1:, 0] = np.cumprod(ratio[..., 0, :, :-1, 0], axis=-1)
    x[..., :, 1:] = np.cumprod(ratio[..., 1, :, :, :-1], axis=-1) * x[..., :, :1]
    return x


def _reduced_system(cols: np.ndarray, vals: np.ndarray,
                    ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_c Z, z, comp) for the basis Z of the two-term rows' kernel:
    column c of Z is z on the unknowns with comp == c and 0 elsewhere, unit
    norm, and S_c Z holds the coupling rows (blocks 2-5) by column pair, as
    (ell, 4 ell^2, 2) (after vals' pair axis, if any).  The two-term rows
    (blocks 6-7) are left out: Z is propagated through them, so they
    vanish on span Z up to rounding.

    Each component is propagated twice: from grid[c, 0, 0], then again
    from its largest entry, whose paths lose less to the spread of the
    entries (4 to 6 decades at radius 0.1).  The two-term rows' ratios are
    two gathers of the slot-major vals, and S_c Z adds up the coupling
    rows' slot columns, slots 2-3 on the coproduct rows alone: on the clock
    rows they hold exact zeros (see _band_table).
    """
    lead, n = vals.shape[1:-1], ell ** 3
    table = _batch_table(ell, *lead)
    # x[to] / x[from] = -a / b across each two-term row a x[from] + b x[to],
    # b read as (a + b) - a, as the row-sum form (tests/reference.py) rounds it
    a, b = vals.reshape(-1)[table.two_term]
    ratio = -a / ((a + b) - a)
    s0, t0 = (x[..., None, None] for x in np.divmod(
        np.abs(_propagate(ratio)).reshape(*lead, ell, -1).argmax(axis=-1), ell))
    k = np.arange(ell)
    seeded = (k[:, None, None] * ell + (k[:, None] + s0) % ell) * ell + (k + t0) % ell
    x = _propagate(ratio.reshape(-1)[table.seeds + seeded[..., None, :, :, :]])
    z = np.empty((*lead, n), dtype=complex)
    z.reshape(-1)[table.starts + table.grid.reshape(-1)[seeded]] = (
        x / np.linalg.norm(x.reshape(*lead, ell, -1), axis=-1)[..., None, None])
    coupling = table.sz_index.shape[-1]
    SZ = np.zeros((*lead, coupling * 2), dtype=complex)
    sz, zf = SZ.reshape(-1), z.reshape(-1)
    for t, index in enumerate(table.sz_index):
        live = coupling if t < 2 else coupling // 2  # slots 2-3: the coproduct rows
        sz[index[..., :live].ravel()] += (vals[t, ..., :live] * zf[cols[t, ..., :live]]).ravel()
    return SZ.reshape(*lead, ell, -1, 2), z, table.comp


def _coupling_svd(SZ: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(sv, vh) of _reduced_system's split S_c Z: the SVD of the (2 ell x ell)
    stack of its column pairs' R's, pair c's at rows 2c, 2c + 1 and columns
    c, c + 1 mod ell (r_index); block-diag(Q_c) has orthonormal columns.
    The raw QR's h[c, :, :2] holds R_c transposed, without mode "r"'s triu."""
    lead = SZ.shape[:-3]
    R = np.zeros((*lead, 2 * ell, ell), dtype=complex)
    R.reshape(-1)[_batch_table(ell, *lead).r_index] = (
        np.linalg.qr(SZ, mode="raw")[0][..., (0, 1, 1), (0, 0, 1)])
    return np.linalg.svd(R, full_matrices=False)[1:]


def _adjoint(vals: np.ndarray, table: _BandTable):
    """y -> S^H y for _band_rows' rows and the table's adjoint slots:
    each unknown's 16 products, added one slot after another in row order.
    The slots are flat slot-major indices of S's nonzeros alone, so the
    zeros _band_rows holds are never read."""
    vals_h, rows = vals.reshape(-1)[table.adjoint].conj(), table.adjoint_rows
    return lambda y: (vals_h * y.reshape(-1)[rows]).sum(axis=0)


def _sq(x: np.ndarray):
    """|x|^2 of each pair's vector as np.vdot reads it: a scalar for one, else (pairs, 1)."""
    return np.vdot(x, x).real if x.ndim == 1 else np.vecdot(x, x)[..., None].real


def _norm(x: np.ndarray):
    """|x| of each pair's vector as np.linalg.norm reads it, shaped as _sq."""
    return np.linalg.norm(x) if x.ndim == 1 else np.sqrt(_sq(x.real) + _sq(x.imag))


def _any(mask) -> bool:  # as mask.any(), without numpy's slow any() on a scalar
    return mask.any() if mask.ndim else bool(mask)


def _cgls(cols: np.ndarray, vals: np.ndarray, table: _BandTable, v: np.ndarray,
          r: np.ndarray, steps: int, floor) -> np.ndarray:
    """v after at most `steps` CGLS steps toward min |S v| from v, r = -S v
    (both updated in place), for each pair of vals' pair axis alike (table
    and cols its, floor shaped as _sq).

    Conjugate gradients on the least-squares problem: each step is one
    product with S and one with S^H, the latter a gather of r through the
    transposed table slots (_adjoint).  From a vector near the kernel line
    they shrink the rest of it, leaving the line.  A pair's steps stop
    early once its |r|^2 is below its `floor` and the last step left more
    than CGLS_STALL of it: the residual has reached its rounding floor.  An
    exact zero residual stops them too (nothing is left to shrink).  A pair
    that stops is frozen, written back before the next step, and the
    others step on without it: each pair's v is the one it gets alone.
    """
    out, ell, live = v, len(table.grid), np.arange(v.size // v.shape[-1])
    adjoint = _adjoint(vals, table)
    s = adjoint(r)
    p, gamma, rr = s, _sq(s), _sq(r)
    stop = gamma == 0
    for i in range(steps):
        if _any(stop):  # the pairs that stop are written back
            if not _any(~stop):
                break
            out[live[stop[:, 0]]] = v[stop[:, 0]]
            go = ~stop[:, 0]
            live, v, r, p, gamma, rr, floor, vals = (live[go], v[go], r[go], p[go], gamma[go],
                                                     rr[go], floor[go], vals[:, go])
            table = _batch_table(ell, len(live))
            cols, adjoint = table.cols, _adjoint(vals, table)
        q = _apply_rows(cols, vals, p)
        alpha = gamma / _sq(q)
        v += alpha * p
        if i == steps - 1:
            break
        r -= alpha * q
        rr, rr_old = _sq(r), rr
        stop = (rr < floor) & (rr > CGLS_STALL * rr_old)
        if not _any(~stop):
            break
        s = adjoint(r)
        gamma, gamma_old = _sq(s), gamma
        p *= gamma / gamma_old
        p += s
        stop |= gamma == 0
    if v is not out:
        out[live] = v
    return out


def _band_offset(p1: RepParams, p2: RepParams, q1: RepParams,
                 q2: RepParams) -> tuple[int, float]:
    """Band exponent a nearest the clock-weight ratio rho = eps^(2a), and
    the distance |rho - eps^(2a)|."""
    ctx = p1.ctx
    rho = (p1.u * p1.v * p2.u * p2.v) / (q1.u * q1.v * q2.u * q2.v)
    dists = np.abs(rho - ctx.pow(2 * np.arange(ctx.ell)))
    a = int(np.argmin(dists))
    return a, float(dists[a])


@lru_cache(maxsize=None)
def _golden_weights(ell: int, shift: int) -> np.ndarray:
    """det_normalize's weights for a stack of grade shift `shift`, read-only."""
    return _read_only(np.exp(2j * np.pi * 0.6180339887498949 * _stack_index(ell, shift)[0]))


def det_normalize(blocks: np.ndarray, shift) -> tuple[np.ndarray, float]:
    """A stack of grade shift `shift` scaled to det 1, with its residual
    root-of-unity phase fixed, and log|det| of the stack before.  Stacks
    on a leading axis (shift one per stack) are normalized each alone.

    The stack's blocks sit on a permutation of the ell grades made of odd
    cycles (ell is odd), which is even: det is the product of the blocks'.
    After the det scaling a matrix is determined up to an n-th root of
    unity (n = ell^2 its size).  The representative is pinned by rotating
    arg(sum_j w_j R_j) into [0, 2 pi / n), where w are fixed golden-angle
    unit weights at the dense flat indices j (those cyclic._dense scatters
    with, built once per (ell, shift)): a generic functional, immune to the
    modulus ties that a largest-entry rule hits on these highly structured
    matrices.  Scaled inputs c*R therefore normalize to the identical matrix.
    """
    ell, lead = blocks.shape[-1], blocks.shape[:-3]
    n = ell * ell
    # log det, not det: a unit-norm ell^2 x ell^2 matrix underflows det at ell 13
    signs, logabs = np.linalg.slogdet(blocks)
    sign, logabs = signs.prod(axis=-1), logabs.sum(axis=-1)
    if _any(sign == 0):
        raise InvalidInputError("singular matrix cannot be det-normalized")
    # each part over n alone: numpy divides arrays (not scalars) by a reciprocal
    R1 = blocks * np.exp(-logabs / n + 1j * (-np.angle(sign) / n))[..., None, None, None]
    flat = R1.reshape(*lead, -1)
    w = np.array([_golden_weights(ell, k) for k in shift]) if lead else _golden_weights(ell, shift)
    sigma = np.vecdot(w.reshape(flat.shape).conj(), flat)
    weak = np.abs(sigma) < 1e-8 * np.sqrt(np.vecdot(flat, flat).real)
    if _any(weak):  # fallback, never hit in practice
        sigma = np.where(weak, np.take_along_axis(
            flat, np.abs(flat).argmax(-1)[..., None], -1)[..., 0], sigma)
    k = np.angle(sigma) % (2 * np.pi) // (2 * np.pi / n)
    return R1 * np.exp(1j * (-2 * np.pi * k / n))[..., None, None, None], logabs


@dataclass
class ChiData:
    """PairContext.chi: the closed form's scalars chi1, chi2, s and sigma,
    the distances of chi1 and chi2 from the ell-th roots of unity and of
    sigma^ell from its character value, and the superseded relations."""

    chi1: complex
    chi2: complex
    s: complex
    sigma: complex
    chi1_mismatch: float
    chi2_mismatch: float
    sigma_power_residual: float
    legacy_relation_residuals: dict = field(default_factory=dict)


class PairContext:
    """The ingredients of one pair (p1, p2), built once and read by both
    routes and their checks.

    Holds the output pair (braided, or the oracle's target) and the band
    exponent a, the grade shift of every intertwiner of the pair, with its
    distance.  Built on first read: the generator matrices reps (in1, in2,
    out1, out2), the braid factor G, T = 1 - eps G, the eight equation
    blocks and the closed form's chi, twist diagonal D and spectral factor
    R1.  So the oracle builds nothing of the closed form, and a closed-form
    pair no generator matrix (nor, while its residual is unread, a block).
    G, T, the blocks and R1 are stacks (see cyclic), of ell^3 entries each.
    p1, p2 and a target share one RootContext, or InvalidInputError is raised.
    """

    def __init__(self, p1: RepParams, p2: RepParams,
                 target: tuple[RepParams, RepParams] | None = None):
        if any(p.ctx != p1.ctx for p in (p2, *(target or ()))):
            raise InvalidInputError("the pair's colorings are not all at one root of unity")
        self.in_params = (p1, p2)
        self.braided = target is None
        self.out_params = braided_rep_pair(p1, p2) if target is None else tuple(target)
        self.band_exp, self.band_dist = _band_offset(*self.in_params, *self.out_params)

    @cached_property
    def reps(self) -> tuple[RepMatrices, ...]:
        return tuple(build_rep(p) for p in (*self.in_params, *self.out_params))

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
        scale is 1/s exactly, with sigma^ell = 1 - s^(-ell).  Superseded
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
        chi1 = y1 * ut2 / (yt1 * vt2)
        chi2 = u2 * z2 * ut1 * vt1 * yt2 / (y2 * zt2 * ut2)
        roots = ctx.eps_powers
        chi1_mis = float(np.min(np.abs(chi1 - roots)))
        chi2_mis = float(np.min(np.abs(chi2 - roots)))
        # the band is pinned by the clock ratio alone; chi1 is a further,
        # independent root of unity (the two only coincide near the identity)
        if worst_residual(chi1_mis, chi2_mis, self.band_dist) > TWIST_ROOT_TOL:
            raise BranchMismatchError(
                f"twist scalars off the root lattice: chi1 {chi1_mis:.2e}, "
                f"chi2 {chi2_mis:.2e}, a {self.band_dist:.2e}")
        sigma = eps * y1 * u2 * z2 / y2
        legacy = {
            # chi2 candidate from the slot-1 raising scalar alone
            "chi2_raising_only": float(np.min(np.abs(yt1 / (y1 * u2 * v2) - roots))),
        }
        legacy_cand = zt2 / yt2 * ut2 * (u1 * v1) / (z2 * (yt1 / (y1 * u2 * v2)))
        legacy["a_exp_gauge_chain"] = float(
            np.min(np.abs(legacy_cand - ctx.pow(-2 * np.arange(ell)))))
        return ChiData(
            chi1=chi1, chi2=chi2, s=s, sigma=sigma,
            chi1_mismatch=chi1_mis, chi2_mismatch=chi2_mis,
            sigma_power_residual=float(abs(sigma**ell - y1**ell * z0_character(p2).phi)),
            legacy_relation_residuals=legacy,
        )

    @cached_property
    def twist(self) -> np.ndarray:
        """The closed form's twist diagonal D in pair order,
        D(v_n x v_m) = eps^(2nm) chi1^(-n) chi2^m (n, m = 1, ..., ell)."""
        ctx, cd = self.in_params[0].ctx, self.chi
        n = np.arange(1, ctx.ell + 1)
        return (ctx.pow(2 * np.outer(n, n))
                * np.outer(cd.chi1 ** -n, cd.chi2 ** n)).ravel()

    @cached_property
    def spectral(self) -> np.ndarray:
        """R1, its eigenvalues phi_orbit's staircase step at (sigma, 1/s)."""
        ctx, cd = self.in_params[0].ctx, self.chi
        return _spectral_factor(ctx, _staircase_orbit(ctx, cd.sigma, 1.0 / cd.s))


@dataclass
class Intertwiner:
    """An intertwiner as its stack (grade shift pair.band_exp), its
    PairContext and diagnostics; residual (on the pair's equation blocks)
    and R, the dense matrix that no check reads, are built on first read."""

    blocks: np.ndarray
    pair: PairContext
    route: str
    singular_gap: float | None = None
    log_abs_det: float | None = None  # log|det R| of R before det normalization

    @cached_property
    def R(self) -> np.ndarray:
        return _dense(self.blocks, self.pair.band_exp)

    @cached_property
    def residual(self) -> float:
        """max over the blocks of |N R - R M| / |R|, all eight at once."""
        M, N = self.pair.blocks
        R, g = self.blocks, np.arange(len(self.blocks))
        diff = N[:, (g + self.pair.band_exp) % len(R)] @ R \
            - R[(g + np.array(BLOCK_SHIFTS)[:, None]) % len(R)] @ M
        return float(np.linalg.norm(diff.reshape(len(diff), -1), axis=1).max()
                     / np.linalg.norm(R))


def _pair_of(p1: RepParams, p2: RepParams, pair: PairContext | None) -> PairContext:
    """pair, checked to belong to (p1, p2), or a new PairContext."""
    if pair is None:
        return PairContext(p1, p2)
    if pair.in_params[0] is not p1 or pair.in_params[1] is not p2:
        raise InvalidInputError("the pair context belongs to another pair")
    return pair


def solve_intertwiner(p1: RepParams, p2: RepParams, *,
                      pair: PairContext | None = None) -> Intertwiner:
    """Nullspace solve of the stacked intertwining system, the batch of one
    of solve_intertwiners (the same code, without the pair axis).

    pair is the PairContext of (p1, p2) when the caller shares one; it is
    built here otherwise.  A pair built with a target other than the
    braided pair (the negative controls) is solved for that output pair.
    Raises NoIntertwinerError on an empty nullspace and
    NonGenericRepresentationError when the nullspace is not a line.

    The solve reads only the four representation matrices and the braid
    factor G: blocks 2-7 of pair.blocks on the band, each sparse row of
    that system S scaled to unit norm (_band_rows).  Propagated through the
    Ex1 and 1xF rows (S_t), the ell^3 band unknowns reduce to a basis Z of
    ell orthonormal columns that holds the kernel (_reduced_system); S_t Z
    is rounding, below 1e-13 of |S_c Z| on seed-42 pairs from ell = 3 to
    9, so the SVD of the coupling rows' S_c Z through its column pairs'
    R's (_coupling_svd) gives the kernel coefficients c, and CGLS on the
    full S refines v = Z c.  It stops once |S v|^2 is below
    (KERNEL_TOL sigma_max)^2 and a step left more than CGLS_STALL of it,
    after 2 ell - 3 steps otherwise: 7.6 steps on average at ell 7 and 9.0
    at ell 13 on 20 seed-42 pairs at radius 0.1 (of 11 and 23), with the
    gap and the route deviation of all the steps.  A wrong target never
    gets below the kernel tolerance, so it runs every step and is rejected
    at the full-step distance.  The kernel criterion is relative singular
    value < KERNEL_TOL against sigma_max(S_c Z), the smallest read as
    |S v| of the refined unit v on the full S, so S_t still counts against
    a wrong target.  The gap sigma_2(S_c Z) / |S v| must exceed
    GAP_THRESHOLD: sigma_2(S_c Z) is within |S_t Z| of sigma_2(S Z) (Weyl),
    at least S's own sigma_2 (interlacing).  On sampled pairs at radius 0.1
    the gap is 1e14 to 1e15 from ell = 3 to 13; the negative controls sit
    4+ orders above the tolerance, genuine kernels 7+ orders below.
    """
    outcome, = solve_intertwiners([_pair_of(p1, p2, pair)])
    return solved(outcome)


def solved(outcome: Intertwiner | Exception) -> Intertwiner:
    """An outcome of solve_intertwiners: its Intertwiner, or its error raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def batch_size(ell: int) -> int:
    """The pairs of degree ell one oracle batch holds: BATCH_UNKNOWNS // ell^3, one at least."""
    return max(1, BATCH_UNKNOWNS // ell ** 3)


def solve_intertwiners(pairs: list[PairContext]) -> list[Intertwiner | Exception]:
    """solve_intertwiner on PairContexts of one degree, batch_size pairs a
    batch: each pair's Intertwiner, or the error it raises alone, in order.

    A batch runs each step once on a leading pair axis, so numpy's per-call
    cost is paid once.  Every reduction runs along one pair's axis, in an
    order the batch does not change, and CGLS freezes each pair at its own
    stop: a pair's outcome is bit for bit its own solve's.  The band,
    kernel-count and gap checks run per pair: a failed pair's error is its
    outcome, raised where the caller reads it (solved).  An error a batch
    raises whole (LinAlgError, a RuntimeWarning as an error) is traced to
    its pair by solving each alone.
    """
    size = batch_size(pairs[0].in_params[0].ctx.ell)
    if len(pairs) > size:
        return [out for k in range(0, len(pairs), size)
                for out in solve_intertwiners(pairs[k:k + size])]
    try:
        return _solve_batch(pairs)
    except Exception as exc:
        return [exc] if len(pairs) == 1 else [solve_intertwiners([pair])[0] for pair in pairs]


def _solve_batch(batch: list[PairContext]) -> list[Intertwiner | Exception]:
    """solve_intertwiners on one batch (see solve_intertwiner)."""
    out: list = [None if pair.band_dist <= BAND_TOL else NoIntertwinerError(  # NaN included
        "clock-weight ratio is not an ell-th root of unity; "
        "the two pairs cannot be intertwined") for pair in batch]
    fill = [i for i, outcome in enumerate(out) if outcome is None]
    if not fill:
        return out
    ell, a = batch[0].in_params[0].ctx.ell, np.array([batch[i].band_exp for i in fill])
    lead = (len(fill),) if len(fill) > 1 else ()  # a batch of one has no pair axis
    blocks = [np.stack(x) for x in zip(*(batch[i].blocks for i in fill))] if lead else \
        batch[fill[0]].blocks
    cols, vals = _band_rows(blocks, a if lead else a[0])
    SZ, z, comp = _reduced_system(cols, vals, ell)
    sv, vh = _coupling_svd(SZ, ell)
    v = z * vh[..., -1, :].conj().reshape(-1)[comp]
    v = _cgls(cols, vals, _batch_table(ell, *lead), v, -_apply_rows(cols, vals, v), steps=2 * ell - 3,
              floor=(KERNEL_TOL * (sv[:, :1] if lead else sv[0])) ** 2)
    v /= _norm(v)
    sv[..., -1:] = _norm(_apply_rows(cols, vals, v))
    sv = sv.reshape(-1, ell)  # a row a pair
    rel = sv / sv[:, :1]
    kernel_dim = np.sum(rel < KERNEL_TOL, axis=1)
    with np.errstate(divide="ignore"):
        gaps = sv[:, -2] / sv[:, -1]
    good = (kernel_dim == 1) & ~(gaps < GAP_THRESHOLD)
    R = v.reshape(*lead, ell, ell, ell)
    normalized = (zip(*det_normalize(R[good], a[good])) if lead
                  else iter([det_normalize(R, a[0])] if good[0] else []))
    for i, dim, smallest, gap in zip(fill, kernel_dim, rel[:, -1], gaps):
        if dim == 0:
            out[i] = NoIntertwinerError(
                f"empty nullspace: smallest relative singular value {smallest:.3e}")
        elif dim > 1 or gap < GAP_THRESHOLD:
            out[i] = NonGenericRepresentationError(
                f"nullspace dimension {dim} > 1 (non-generic pair)" if dim > 1 else
                f"singular-value gap {gap:.2e} below threshold {GAP_THRESHOLD:.1e}")
        else:
            R, log_abs_det = next(normalized)
            out[i] = Intertwiner(R, batch[i], "oracle", float(gap), float(log_abs_det))
    return out


@lru_cache(maxsize=None)
def _dft(ctx: RootContext) -> np.ndarray:
    """eps^(-2jk) at [j, k] for ctx's root, built once per context, read-only."""
    ks = np.arange(ctx.ell)
    return _read_only(ctx.pow(-2 * np.outer(ks, ks)))


def _spectral_factor(ctx: RootContext, vals: np.ndarray) -> np.ndarray:
    """Function of the split shift W = B x B^-1 with given eigenvalues, as
    its stack (grade shift 0).

    W^j moves (n, m) to (n+j, m-j); eigenvalue vals[k] sits on the
    eps^(2k)-eigenspace, so with coef the inverse discrete transform of
    vals, every block is the circulant with coef[(i - j) % ell] at (i, j).
    """
    ell = ctx.ell
    ks = np.arange(ell)
    coef = (vals[None, :] * _dft(ctx)).sum(axis=1) / ell
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
    at 1 (det normalization removes any other start).  All but R1 are
    monomial, so R's stack is assembled entrywise (c is R1's circulant):
    R[g][i, j] = D[i, m'] Ug_out[m'] c[(i - a - j) mod ell] / Ug_in[m], with
    m' = (g + a - i) mod ell and m = (g - j) mod ell.  pair is the
    PairContext of (p1, p2) when the caller shares one; D, R1 and chi stay
    on it for r1_conjugation_residuals, s0_diagnostic and the report.
    """
    pair = _pair_of(p1, p2, pair)
    ell, a = p1.ctx.ell, pair.band_exp
    U2, Ut2 = (np.diag(gauge_U(q)[0]) for q in (p2, pair.out_params[1]))
    k = np.arange(ell)
    g, i, j = k[:, None, None], k[:, None], k
    m_out = (g + a - i) % ell
    blocks = (pair.twist.reshape(ell, ell)[i, m_out] * Ut2[m_out]
              * pair.spectral[0][(i - a) % ell, j] / U2[(g - j) % ell])
    blocks, log_abs_det = det_normalize(blocks, a)
    return Intertwiner(blocks=blocks, pair=pair, route="closed-form", log_abs_det=log_abs_det)


def compare_up_to_scalar(r1: np.ndarray, r2: np.ndarray) -> tuple[complex, float]:
    """Best scalar lambda with r1 ~ lambda r2, and the relative deviation;
    InvalidInputError when either matrix is zero."""
    norm1, norm2 = np.linalg.norm(r1), np.vdot(r2, r2)
    if norm1 == 0 or abs(norm2) == 0:
        raise InvalidInputError("compare_up_to_scalar needs two nonzero matrices")
    scalar = np.vdot(r2, r1) / norm2
    diff = scalar * r2  # r1 - scalar r2, formed in place
    deviation = float(np.linalg.norm(np.subtract(r1, diff, out=diff)) / norm1)
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
    which one.  Every operator is a stack (see cyclic); the opposite E and
    F coproducts on the output pair are pair.blocks' N[2] and N[3], and
    1 - t G is pair.T.  R w R^-1 is computed once per element w, for all
    readings of its image.  The power_* readings compare the input
    characters with beta_forward of the output ones (inf if it raises).
    """
    pair = intw.pair
    p1, p2, q1, q2 = *pair.in_params, *pair.out_params
    ell, t = p1.ctx.ell, p1.ctx.eps
    kron = _kron_blocks
    I = np.eye(ell)
    rin1, rin2, rout1, rout2 = pair.reps
    K1, F1, E2 = rin1.K, rin1.F, rin2.E
    Kt1, Lt1, Et1, _ = rout1.as_tuple()
    Kt2, Lt2, _, Ft2 = rout2.as_tuple()
    # the inverted factor (1 - t^(+-1) G)^-1 under both t-power readings
    inv_powers = tuple(zip(("t", "t_inverse"),
                           np.linalg.inv(np.stack([pair.T, I - pair.G / t]))))
    a = pair.band_exp
    R_inv = _rotate(np.linalg.inv(intw.blocks), -a)  # R^-1's stack, of grade shift -a

    def conj(w_in, shift):  # R w_in R^-1
        return _chain([(intw.blocks, a), (w_in, shift), (R_inv, -a)])[0]

    def dev(lhs, w_out):  # |lhs - w_out| / |w_out|
        return float(np.linalg.norm(lhs - w_out) / np.linalg.norm(w_out))

    # the four single-factor equations of the pair's system, read as checks
    M, N = pair.blocks
    out = {name: {"direct": dev(conj(m, shift), n)} for name, m, n, shift in zip(
        ("slot2_clock_k", "slot2_clock_l", "slot1_raising", "slot2_lowering"),
        M[4:], N[4:], BLOCK_SHIFTS[4:])}
    out["slot1_clock_k"] = {"direct": dev(conj(kron(K1, I, 0), 0), pair.T @ kron(Kt1, I, 0))}

    # ell-th powers are central scalars, braided as characters; the
    # inverted factor's sign variant is the braiding-sign adjudication
    c_in1, c_in2, c_out1, c_out2 = (z0_character(p) for p in (p1, p2, q1, q2))
    back1, back2 = beta_forward(c_out1, c_out2)
    try:
        kappa = beta_forward(c_out1, c_out2, sign=+1)[1].kappa
        plus = float(abs(c_in2.kappa - kappa) / abs(kappa))
    except HolobraidError:  # a reading that cannot be evaluated fails it
        plus = float("inf")
    out["power_slot2_clock_k"] = {
        "minus": float(abs(c_in2.kappa - back2.kappa) / abs(back2.kappa)), "plus": plus}
    out["power_slot1_raising"] = {"direct": float(
        abs(c_in1.eta - back1.eta) / abs(c_in1.eta))}
    out["power_slot2_lowering"] = {"direct": float(
        abs(c_in2.phi - back2.phi) / max(abs(c_in2.phi), 1e-12))}

    # second-slot raising: inverted factor to the left, acting on the grade
    # tailE lands on; t-power adjudicated
    tailE = kron(Et1, Kt2 @ Lt2, 1)
    raised = conj(kron(I, E2, 1), 1)
    out["slot2_raising"] = {tname: dev(raised, N[2] - _rotate(inv, 1) @ tailE)
                            for tname, inv in inv_powers}

    # first-slot lowering: prefactor and t-power adjudicated
    pref = {"product_inverse": kron(np.linalg.inv(Kt1 @ Lt1), Ft2, -1),
            "ratio": kron(Kt1 @ np.linalg.inv(Lt1), Ft2, -1)}
    lowered = conj(kron(F1, I, -1), -1)
    out["slot1_lowering"] = {f"{pname}_{tname}": dev(lowered, N[3] - X @ inv)
                             for pname, X in pref.items() for tname, inv in inv_powers}
    return out


def r1_conjugation_residuals(intw: Intertwiner) -> dict[str, float]:
    """r1_clock_conjugation's evidence: the spectral factor R1's conjugation
    of 1 x A under both slot-2 clock readings: the chosen opposite shifts
    from stacks, the rejected parallel shifts from term 0 and the norms
    their algebra fixes.  R1 is one circulant on every grade, and A x A the
    scalar eps^(2g) on grade g, so R1 commutes with 1 x B^-1, B x 1 and
    A x A for every pair; no commutator is computed.  Needs a closed form:
    R1 and the scalars are read from its pair."""
    if intw.route != "closed-form":
        raise InvalidInputError("needs a closed-form intertwiner")
    cd, R1 = intw.pair.chi, intw.pair.spectral
    tau, ell = 1.0 / cd.s, len(R1)
    A, B = clock_shift(intw.pair.in_params[0].ctx)
    IA = _kron_blocks(np.eye(ell), A, 0)
    lhs = R1 @ IA @ np.linalg.inv(R1)
    rhs = tau * IA @ np.linalg.inv(np.eye(ell) - cd.sigma * _kron_blocks(B, B.T, 0))
    out = {"opposite_shifts": float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))}
    # B x B moves the grade by 2 and has order ell, so the rhs tau (1 x A)
    # (1 - sigma B x B)^-1 is sum_k c_k (B^k x A B^k), c_k = tau sigma^k /
    # (1 - sigma^ell), term k of grade shift 2k.  These differ for odd ell:
    # only term 0 (c_0 1 x A) meets lhs, the terms' supports are disjoint,
    # and each is monomial with unit-modulus entries, of norm |c_k| ell
    c = tau * cd.sigma ** np.arange(ell) / (1 - cd.sigma ** ell)
    miss = np.linalg.norm(lhs - c[0] * IA) ** 2 + ell ** 2 * np.sum(np.abs(c[1:]) ** 2)
    out["parallel_shifts"] = float(np.sqrt(miss) / (ell * np.linalg.norm(c)))
    return out


class DetSample(NamedTuple):
    """What det_exponent_probe reads of a closed form: its pair's chi, its
    Intertwiner.log_abs_det and its RootContext."""

    chi: ChiData
    log_abs_det: float
    ctx: RootContext


def det_exponent_probe(samples: list[DetSample]) -> dict:
    """Least-squares fit of the determinant growth exponent.

    Two fits are reported: the raw determinant of the assembled closed form
    against log|1 - s^ell| (the literal reading; empirically not a
    monomial, carried for the record), and the determinant of the spectral
    core in the analytic normalization against log|1 - sigma^ell|, which is
    an exact monomial, with R1's eigenvalues from the step that builds it.
    Candidate exponents +-ell(ell+2)/2 and +-ell(ell+1)/2 are compared
    against the stable fit, on the root of the samples' RootContext.
    """
    if len(samples) < 10:
        return {"inconclusive": True, "reason": f"only {len(samples)} usable samples"}
    ctx, ell = samples[0].ctx, samples[0].ctx.ell
    xs_full, ys_full, xs_core, ys_core = [], [], [], []
    for s in samples:
        cd = s.chi
        xs_full.append(np.log(abs(1 - cd.s**ell)))
        ys_full.append(s.log_abs_det)
        # |Phi| at the orbit base point, from the finite product: the modulus
        # of a fractional power is branch-free, and only moduli enter the fit
        z0 = cd.sigma * ctx.pow(-2)
        factors = np.abs(1 - ctx.pow(2 * np.arange(1, ell + 1)) * z0)
        if np.min(factors) < 1e-8:
            continue  # orbit base on a pole
        log_phi0 = -np.dot(np.arange(1, ell + 1) / ell, np.log(factors))
        xs_core.append(np.log(abs(1 - cd.sigma**ell)))
        ys_core.append(ell * ell * log_phi0 + ell * np.log(
            abs(np.prod(_staircase_orbit(ctx, cd.sigma, 1.0 / cd.s)))))

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
    result = {"inconclusive": core is None, "core_fit": core, "full_fit": full}
    if core is not None:
        cands = {"l(l+2)/2": ell * (ell + 2) / 2, "-l(l+2)/2": -ell * (ell + 2) / 2,
                 "l(l+1)/2": ell * (ell + 1) / 2, "-l(l+1)/2": -ell * (ell + 1) / 2}
        diffs = {k: abs(core["alpha"] - v) for k, v in cands.items()}
        best = min(diffs, key=diffs.get)
        result["closest_candidate"] = best
        result["matches_closest"] = bool(diffs[best] < 1e-3)
    return result
