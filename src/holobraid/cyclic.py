"""Cyclic irreducible representations in the clock-and-shift presentation.

The dimension-ell representation attached to nonzero parameters (u, v, x, y)
acts on a basis v_1..v_ell (cyclically, v_{ell+1} = v_1) by

    K v_m = u v eps^(2m) v_m        L v_m = (v/u) eps^(2m) v_m
    E v_m = y v_{m+1}
    F v_m = (u/y) c_m v_{m-1},  c_m = (x v^-1 eps^(1-2m) - 1)(v eps^(2m-1) - x^-1)

F is defined entrywise by the weights c_m; the equivalent operator-product
presentation is ordering-sensitive and not used.  Arrays are 0-indexed with
index i standing for basis vector v_{i+1}.

Every operator on pairs v_n x v_m built here (an intertwiner, its equations,
the braid factor G, the spectral factor) moves the pair grade n + m (mod ell)
by a fixed shift.  It is held as its stack, an (ell, ell, ell) array whose
blocks[g] maps grade g to grade g + shift: blocks[g][i, j] is the entry in
row (i, g + shift - i) and column (j, g - j), slot indices mod ell.
_kron_blocks builds X x Y as a stack, _chain multiplies stacks and _dense
scatters one into its ell^2 x ell^2 matrix; hybe's _apply applies a stack
on two slots of the triple space.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (DegenerateCharacterError, InconsistentLiftError,
                     InvalidParamsError, NonGenericRepresentationError)
from .glstar import Z0Char, beta_inverse
from .roots import RootContext

# genericity (is_generic): smallest weight and eta, largest condition number
MIN_WEIGHT = 1e-6
MAX_CONDITION = 1e8
# largest relative miss of lam and phi that lift_character accepts
LIFT_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RepParams:
    """Nonzero parameter quadruple of a cyclic representation.

    The lowering weights, generator matrices, their ell-th powers, central
    character and geometric gauge are computed once per instance (the
    cached properties below, returned by f_weights, build_rep, ell_powers,
    z0_character and gauge_U), and so are its braidings (braided_rep_pair).
    Their arrays are read-only, because every caller shares them.
    """

    ctx: RootContext
    u: complex
    v: complex
    x: complex
    y: complex

    def __post_init__(self):
        if self.u == 0 or self.v == 0 or self.x == 0 or self.y == 0:
            raise InvalidParamsError("parameters must be nonzero")

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return self.u, self.v, self.x, self.y

    @cached_property
    def _weights(self) -> np.ndarray:
        ctx, (u, v, x, y) = self.ctx, self.as_tuple()
        ms = np.arange(1, ctx.ell + 1)
        return _read_only(((x / v) * ctx.pow(1 - 2 * ms) - 1)
                          * (v * ctx.pow(2 * ms - 1) - 1 / x))

    @cached_property
    def _matrices(self) -> RepMatrices:
        ell = self.ctx.ell
        u, v, x, y = self.as_tuple()
        A, B = clock_shift(self.ctx)
        F = np.zeros((ell, ell), dtype=complex)
        w = self._weights
        for i in range(ell):  # F v_{i+1} = (u/y) c_{i+1} v_i
            F[(i - 1) % ell, i] = (u / y) * w[i]
        return RepMatrices(K=_read_only(u * v * A), L=_read_only((v / u) * A),
                           E=_read_only(y * B), F=_read_only(F))

    @cached_property
    def _powers(self) -> tuple[tuple[np.ndarray, complex], ...]:
        ell = self.ctx.ell
        powers = (_read_only(np.linalg.matrix_power(m, ell))
                  for m in self._matrices.as_tuple())
        return tuple((P, np.trace(P) / ell) for P in powers)

    @cached_property
    def _character(self) -> Z0Char:
        ell = self.ctx.ell
        u, v, x, y = self.as_tuple()
        return Z0Char(
            kappa=(u * v) ** ell,
            lam=(v / u) ** ell,
            eta=y**ell,
            phi=u**ell / y**ell * (x**ell + x ** (-ell) - v**ell - v ** (-ell)),
        )

    @cached_property
    def _braidings(self) -> dict:
        return {}

    @cached_property
    def _gauge(self) -> tuple[np.ndarray, complex]:
        ell, w = self.ctx.ell, self._weights
        if np.min(np.abs(w)) < 1e-12:
            raise NonGenericRepresentationError("some lowering weight c_m = 0")
        z = np.prod(w) ** (1.0 / ell)
        return _read_only(np.diag(z ** np.arange(1, ell + 1) / np.cumprod(w))), z


@dataclass(frozen=True)
class RepMatrices:
    K: np.ndarray
    L: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def as_tuple(self):
        return self.K, self.L, self.E, self.F


@lru_cache(maxsize=None)
def _shift_power(ell: int, k: int) -> np.ndarray:
    """B^k, the shift v_m -> v_(m+k), built once per (ell, k) and read-only."""
    return _read_only(np.roll(np.eye(ell, dtype=complex), k, axis=0))


@lru_cache(maxsize=None)
def clock_shift(ctx: RootContext) -> tuple[np.ndarray, np.ndarray]:
    """(A, B): the clock A = diag(eps^2, ..., eps^(2 ell)) of ctx's root and
    the cyclic shift B, with A^ell = B^ell = 1 and A B = eps^2 B A.  Built
    once per context and read-only."""
    A = np.diag(ctx.pow(2 * np.arange(1, ctx.ell + 1)))
    return _read_only(A), _shift_power(ctx.ell, 1)


def f_weights(p: RepParams) -> np.ndarray:
    """The lowering weights c_1..c_ell (computed once per p, read-only)."""
    return p._weights


def build_rep(p: RepParams) -> RepMatrices:
    """The four generator matrices.

    They are built once per p and shared by every caller, so the arrays
    are read-only: copy one before writing to it.
    """
    return p._matrices


def ell_powers(p: RepParams) -> tuple[tuple[np.ndarray, complex], ...]:
    """(K^ell, its trace / ell), then the same for L, E and F: each ell-th
    power with the scalar it is numerically (computed once per p, read-only)."""
    return p._powers


def _rotate(stack: np.ndarray, k: int) -> np.ndarray:
    """stack[(g + k) % ell] at position g, as np.roll(stack, -k, axis=0)."""
    k %= len(stack)
    return np.concatenate((stack[k:], stack[:k])) if k else stack


@lru_cache(maxsize=None)
def _stack_index(ell: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat, slot2) of the entries blocks[g][i, j] of a stack of grade shift
    `shift`, in row (i, m') and column (j, m): flat is the entry's row-major
    index in the dense ell^2 x ell^2 matrix, slot2 = m' ell + m."""
    g, i, j = np.ogrid[:ell, :ell, :ell]
    m_row, m_col = (g + shift - i) % ell, (g - j) % ell
    return (_read_only((i * ell + m_row) * ell * ell + j * ell + m_col),
            _read_only(m_row * ell + m_col))


def _kron_blocks(X: np.ndarray, Y: np.ndarray, shift: int) -> np.ndarray:
    """X x Y as a stack of grade shift `shift` (entries off that band are
    dropped): entry X[i, j] Y[m', m], the one product np.kron takes."""
    return X * Y.ravel()[_stack_index(len(X), shift)[1]]


def _dense(blocks: np.ndarray, shift: int) -> np.ndarray:
    """The dense ell^2 x ell^2 matrix of a stack of grade shift `shift`."""
    ell = len(blocks)
    M = np.zeros(ell ** 4, dtype=blocks.dtype)
    M[_stack_index(ell, shift)[0]] = blocks
    return M.reshape(ell * ell, ell * ell)


def _chain(factors: list[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """Product F_1 F_2 ... of (stack, shift) factors, left to right; returns
    the product's (stack, shift) in the same form."""
    blocks, total = factors[-1]
    ell = blocks.shape[0]
    total %= ell
    for stack, shift in reversed(factors[:-1]):
        # the factor acts on grade g + total, where the product so far lands
        blocks = _rotate(stack, total) @ blocks
        total = (total + shift) % ell
    return blocks, total


def _braid_factor(out1: RepMatrices, out2: RepMatrices) -> np.ndarray:
    """G = K1^-1 E1 x F2 L2 on a braided output pair, as its stack.

    G moves v_n x v_m to v_(n+1) x v_(m-1), so it keeps the pair grade.
    The braid images of the slot-2 clock generators carry (1 - eps G)^-1,
    which is inverted block by block.
    """
    return _kron_blocks(np.linalg.inv(out1.K) @ out1.E, out2.F @ out2.L, 0)


def z0_character(p: RepParams) -> Z0Char:
    """Central character: the scalars by which the ell-th powers act.

    The F^ell scalar carries the y^(-ell) prefactor; this is pinned against
    the matrix power of F in the tests.  Computed once per p.
    """
    return p._character


def lift_character(c: Z0Char, u: complex, x: complex, ctx: RootContext) -> RepParams:
    """Lift a character to representation parameters with given strand data.

    v and y are principal ell-th roots of kappa/u^ell and eta; the lift is
    rejected unless the remaining two character values are reproduced, which
    happens exactly when (u, x) carry the character's conserved invariants.
    """
    ell = ctx.ell
    if abs(c.eta) < 1e-300:
        raise DegenerateCharacterError("eta = 0 has no cyclic lift")
    if abs(c.kappa) < 1e-300:
        raise DegenerateCharacterError("kappa = 0 is not a character")
    v = (c.kappa / u**ell) ** (1.0 / ell)
    y = c.eta ** (1.0 / ell)
    p = RepParams(ctx=ctx, u=u, v=v, x=x, y=y)
    c2 = z0_character(p)
    lam_res = abs(c2.lam - c.lam) / abs(c.lam)
    phi_scale = max(abs(c.phi), abs(c2.phi), 1e-9)
    phi_res = abs(c2.phi - c.phi) / phi_scale
    if lam_res > LIFT_TOL or phi_res > LIFT_TOL:
        raise InconsistentLiftError(
            f"lift residuals lam={lam_res:.2e} phi={phi_res:.2e}; wrong strand data?")
    return p


def braided_rep_pair(p1: RepParams, p2: RepParams) -> tuple[RepParams, RepParams]:
    """Output-slot parameters: coloring map on characters plus strand lifts,
    computed once per pair of objects and shared.  p1's memo, keyed by
    id(p2), holds p2 so that the id stays p2's, but not p1 (no cycle)."""
    memo = p1._braidings
    if id(p2) not in memo:
        o1, o2 = beta_inverse(z0_character(p1), z0_character(p2))
        q1 = lift_character(o1, p1.u, p1.x, p1.ctx)
        q2 = lift_character(o2, p2.u, p2.x, p2.ctx)
        memo[id(p2)] = (q1, q2, None if p2 is p1 else p2)
    return memo[id(p2)][:2]


def gauge_U(p: RepParams) -> tuple[np.ndarray, complex]:
    """Diagonal gauge conjugating the normalized lowering operator to a shift.

    Returns (U, z) with z = (prod_m c_m)^(1/ell) principal and
    U_nn = z^n prod_{m<=n} c_m^(-1) (so U_ll = 1).  Then
    U^-1 Fhat U = z B^-1 holds exactly around the cycle, where
    Fhat = (y/u) F.  The gauge is computed once per p and shared, so its U
    is read-only.
    """
    return p._gauge


def gauge_conjugation_residual(p: RepParams, gauge: tuple[np.ndarray, complex]) -> float:
    """|| U^-1 Fhat U - z B^-1 || / |z| of a gauge (U, z) of p, the
    wrap-around included."""
    U, z = gauge
    fhat = (p.y / p.u) * build_rep(p).F
    lhs = np.linalg.inv(U) @ fhat @ U
    return float(np.linalg.norm(lhs - z * np.linalg.inv(clock_shift(p.ctx)[1])) / abs(z))


def is_generic(p: RepParams, q: RepParams) -> bool:
    """Genericity predicate for a representation pair about to be braided.

    Requires: nonvanishing lowering weights on both inputs and both braided
    outputs, nonzero eta everywhere, the braiding correction factor and
    1 - s^ell bounded away from zero, a consistent strand-preserving lift,
    and well-conditioned inverted factors in the generator-action checks.
    """
    for r in (p, q):
        if np.min(np.abs(f_weights(r))) < MIN_WEIGHT:
            return False
        if abs(r.y) < MIN_WEIGHT:
            return False
    cx, cy = z0_character(p), z0_character(q)
    om = 1 - cx.eta * cy.phi
    if abs(om) < MIN_WEIGHT:
        return False
    if abs(cx.eta * cy.phi) < MIN_WEIGHT:  # |1 - s^ell| = |eta phi / om|
        return False
    try:
        q1, q2 = braided_rep_pair(p, q)
    except (DegenerateCharacterError, InconsistentLiftError):
        return False
    for r in (q1, q2):
        if np.min(np.abs(f_weights(r))) < MIN_WEIGHT:
            return False
    # conditioning of the inverted factors (1 - t^(+-1) G) on the output
    # pair, read on grade block 0: each block of G is a weighted cyclic
    # shift whose weight moduli are the same cyclic sequence up to
    # relabelling and whose product around the cycle is the same, so the
    # blocks are unitarily equivalent and share their singular values
    t = p.ctx.eps
    G0 = _braid_factor(build_rep(q1), build_rep(q2))[0]
    eye = np.eye(len(G0))
    sv = np.linalg.svd(np.stack([eye - t * G0, eye - G0 / t]), compute_uv=False)
    with np.errstate(divide="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    return not np.any(cond > MAX_CONDITION)
