"""Triple tensor products and the holonomy Yang-Baxter equation.

A crossing consumes the colorings of the two strands it braids and emits
new ones; chaining three crossings in the two bracketing orders must give
the same final triple of colorings (the set-theoretic Yang-Baxter property
of the coloring map), and the corresponding product of slot-embedded
intertwiners must agree up to one scalar of modulus 1.  hybe_residual
reads the chain that derive_colorings built for the set-theoretic check
and the trial's own (x, y) intertwiner, so a triple derives its colorings
once and solves five new factors.

Every intertwiner is a stack of grade shift its band exponent (see
cyclic), so a factor embedded on two of the three tensor slots maps total
grade n1 + n2 + n3 to that grade plus the same shift, and it is
block-diagonal over the third slot's index.  Neither triple product is
formed: both act on _probes' PROBES = 4 Gaussian columns per total grade,
which read the exact deviation within 2x (Freivalds' check, with the
deviation estimated as well as detected).  _apply multiplies by each
embedded factor's ell^2 blocks of ell x ell in one batched matmul, O(ell^4)
per column.  The probes are drawn once per degree, from a fixed Philox key,
and kept read-only, so a fresh call repeats a suite trial's numbers.  The
zero-spectral-parameter core R0 of s0_diagnostic, the pair's twist diagonal
times B^a x (a diagonal gauge ratio), sends v_n x v_m to a weight times
v_(n+a) x v_m.  Embedded on slots (i, j) it shifts slot i by a and keeps the
rest, so both triple products shift slot 1 twice and slot 2 once: they send
each triple index to the same one, and s0_diagnostic compares their weights
on the ell^3 triple index grid, in O(ell^3).  The dense slot embedding
embed_13 is a reference the tests compare _apply against, with embed_12 and
embed_23 of tests/reference.py, whose exact_hybe forms both products.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclic import RepParams, _read_only, braided_rep_pair, gauge_U
from .errors import AssemblyError, InvalidInputError
from .intertwiner import (Intertwiner, PairContext, batch_size, closed_form_R,
                          compare_up_to_scalar, solve_intertwiner, solve_intertwiners, solved)
from .report import worst_residual


@dataclass(frozen=True)
class ColoringTriple:
    """All intermediate colorings of the two chain orders of Fig-style triples.

    lhs chain braids slots (2,3), then (1,3), then (1,2); rhs chain braids
    (1,2), then (1,3), then (2,3).  Their finals, the (slot1, slot2, slot3)
    colorings after the full chain, are (x2, y2, z2) and (xb, yb, zb).
    """

    x: RepParams
    y: RepParams
    z: RepParams
    y1: RepParams
    z1: RepParams
    x1: RepParams
    z2: RepParams
    x2: RepParams
    y2: RepParams
    xa: RepParams
    ya: RepParams
    xb: RepParams
    za: RepParams
    yb: RepParams
    zb: RepParams

    def finals_deviation(self) -> float:
        """Worst entry deviation of the two chains' finals; NaN as inf."""
        return worst_residual(*(abs(complex(ai) - complex(bi))
                                for a, b in ((self.x2, self.xb), (self.y2, self.yb),
                                             (self.z2, self.zb))
                                for ai, bi in zip(a.as_tuple(), b.as_tuple())))


def derive_colorings(x: RepParams, y: RepParams, z: RepParams) -> ColoringTriple:
    """Chain the coloring map along both bracketing orders."""
    y1, z1 = braided_rep_pair(y, z)
    x1, z2 = braided_rep_pair(x, z1)
    x2, y2 = braided_rep_pair(x1, y1)
    xa, ya = braided_rep_pair(x, y)
    xb, za = braided_rep_pair(xa, z)
    yb, zb = braided_rep_pair(ya, za)
    return ColoringTriple(x=x, y=y, z=z, y1=y1, z1=z1, x1=x1, z2=z2, x2=x2,
                          y2=y2, xa=xa, ya=ya, xb=xb, za=za, yb=yb, zb=zb)


PROBES = 4  # Gaussian probe columns per total grade: see hybe_residual
PROBE_KEY = 0x68796265  # the probe stream's Philox key is (ell, PROBE_KEY)


def embed_13(R: np.ndarray, ell: int) -> np.ndarray:
    """R x 1 with tensor slots 2 and 3 exchanged on both sides (dense reference)."""
    n3 = ell**3
    return np.kron(R, np.eye(ell)).reshape((ell,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(n3, n3)


def _apply(R: np.ndarray, a: int, slots: tuple[int, int], P: np.ndarray,
           s: int) -> np.ndarray:
    """R, a pair stack of grade shift a (see cyclic), embedded on tensor
    slots `slots` of the triple space, times the triple stack P of shift s:
    the product's stack, of shift s + a.

    P[G] maps the triples of total grade G to those of grade G + s, with
    rows indexed n1 ell + n2 (n3 is fixed by the grade) and any number of
    columns (PROBES in hybe_residual, ell^2 for an operator).  The
    embedded R is block-diagonal over the third (spectator) slot: R's block
    of pair grade G + s - spectator acts on the pair's first slot.  So it is
    one batched matmul, written straight into the product, once P[G]'s rows
    are laid out as (spectator, first slot): a reshape on slots (1, 2), a
    swap of n1 and n2 on (0, 2), and on (0, 1) a row gather and scatter,
    one gather as large as P, over all grades.
    """
    ell = len(R)
    k = np.arange(ell)
    blocks = R[(k[:, None] + s - k) % ell]  # [G, spectator index]
    out = np.empty_like(P)
    if slots == (0, 1):  # rows (n3, n1) of P[G], n2 fixed by the grade
        G, n3, n1 = k[:, None, None], k[:, None], k
        n2 = G + s - n3 - n1
        out[G, n1 * ell + (n2 + a) % ell] = blocks @ P[G, n1 * ell + n2 % ell]
        return out
    Q, O = P.reshape(ell, ell, ell, -1), out.reshape(ell, ell, ell, -1)
    if slots == (0, 2):
        Q, O = Q.swapaxes(1, 2), O.swapaxes(1, 2)
    np.matmul(blocks, Q, out=O)
    return out


@lru_cache(maxsize=8)
def _probes(ell: int) -> np.ndarray:
    """The probe stack of shift 0, (ell, ell^2, PROBES), drawn once per
    degree from the key (ell, PROBE_KEY), read-only."""
    re, im = np.random.Generator(np.random.Philox(key=[ell, PROBE_KEY])).standard_normal(
        (2, ell, ell * ell, PROBES))
    return _read_only(re + 1j * im)


def _factors(col: ColoringTriple, route: str) -> list[Intertwiner]:
    """hybe_residual's factors of (x1, y1), (x, z1), (y, z), (ya, za), (xa, z)
    on route; the oracle's as batches where batch_size allows, the first
    that failed raising its error."""
    pairs = [(col.x1, col.y1), (col.x, col.z1), (col.y, col.z), (col.ya, col.za), (col.xa, col.z)]
    if route == "oracle" and batch_size(col.x.ctx.ell) > 1:
        return [solved(outcome) for outcome in solve_intertwiners([PairContext(*p) for p in pairs])]
    solve = solve_intertwiner if route == "oracle" else closed_form_R
    return [solve(*pair) for pair in pairs]


def hybe_residual(col: ColoringTriple, xy: Intertwiner) -> tuple[complex, float]:
    """Up-to-scalar holonomy Yang-Baxter deviation for one triple.

    col is the triple's coloring chain (derive_colorings) and xy an
    intertwiner of its pair (col.x, col.y), which is the (x, y) factor; the
    other five factors are solved on xy's route (_factors).  Applies the ordered
    products of the six det-normalized intertwiners, embedded into the
    triple space, to the probes X (_probes), each factor by _apply, right
    to left: O(ell^4 PROBES) work and no array larger than X.  Returns
    (c, deviation): LHS X = c * RHS X with the least-squares scalar c,
    whose modulus must be 1.  For det-normalized factors c is an ell^2-th
    root of unity: both products have determinant 1 on each grade block.

    The deviation |(LHS - c RHS) X|_F / |LHS X|_F estimates the exact
    |LHS - c RHS|_F / |LHS|_F (tests/reference.py): PROBES = 4 columns read
    it within 0.55-1.46x on 288 planted one-entry defects, so each that the
    exact check fails at 1e-7 fails the 1e-8 gate.  X is drawn from the
    fixed key (ell, PROBE_KEY), not the trial's stream, so the signature
    carries none.  Products whose total shifts differ have disjoint
    supports: then c = 0 and the deviation is 1.

    Raises InvalidInputError when xy's input pair is not (col.x, col.y)
    itself.
    """
    if xy.pair.in_params[0] is not col.x or xy.pair.in_params[1] is not col.y:
        raise InvalidInputError("xy is not an intertwiner of the triple's pair (x, y)")
    if not np.isfinite(col.finals_deviation()):
        raise AssemblyError("coloring chains failed to produce finite finals")
    ell = col.x.ctx.ell
    X = _probes(ell)

    def product(factors):
        """(stack, shift) of the product of (intertwiner, slots) factors times X."""
        P, s = X, 0
        for intw, slots in reversed(factors):
            P, s = _apply(intw.blocks, intw.pair.band_exp, slots, P, s), s + intw.pair.band_exp
        return P, s % ell

    f = _factors(col, xy.route)
    lhs, lhs_shift = product([(f[0], (0, 1)), (f[1], (0, 2)), (f[2], (1, 2))])
    rhs, rhs_shift = product([(f[3], (1, 2)), (f[4], (0, 2)), (xy, (0, 1))])
    if lhs_shift != rhs_shift:
        return 0j, 1.0
    return compare_up_to_scalar(lhs, rhs)


def s0_diagnostic(intw: Intertwiner) -> tuple[float, bool]:
    """Constant Yang-Baxter residual of the zero-spectral-parameter core of
    the closed-form intertwiner intw.

    Substitutes the identity for the spectral factor, leaving
    R0 = D (B^a x Ug_out Ug_in^-1), and tests
    R0_12 R0_13 R0_23 = R0_23 R0_13 R0_12 with this single matrix in all
    three slots; the residual is |lhs - rhs|_F / |lhs|_F.  R0 sends
    v_n x v_m to W[n + a, m] v_(n+a) x v_m, with W the twist diagonal times
    the gauge ratio on slot 2.  Each product shifts slot 1 twice and slot 2
    once, so both send v_n1 x v_n2 x v_n3 to v_(n1+2a) x v_(n2+a) x v_n3,
    and the residual compares their weights over the ell^3 triple indices:
    O(ell^3).  Purely diagnostic: returns (relative residual, conclusive
    flag); no threshold is attached.  D and the band exponent a are read
    from intw's pair, where closed_form_R left D.

    At a band exponent a != 0 the residual can be sqrt(2): the two weight
    arrays have equal norms and are orthogonal (seed 42, ell 7, trials 15,
    17 and 68; the twist diagonal alone gives the same sqrt(2)).
    """
    pair = intw.pair
    ell, a = pair.in_params[0].ctx.ell, pair.band_exp
    U2, Ut2 = (gauge_U(q)[0] for q in (pair.in_params[1], pair.out_params[1]))
    W = pair.twist.reshape(ell, ell) * (np.diag(Ut2) / np.diag(U2))
    n1, n2, n3 = np.ogrid[:ell, :ell, :ell]
    s1, s2, t1 = (n1 + a) % ell, (n2 + a) % ell, (n1 + 2 * a) % ell
    # R0_12 R0_13 R0_23 and R0_23 R0_13 R0_12, weights taken right to left
    lhs = W[t1, s2] * (W[s1, n3] * W[s2, n3])
    rhs = W[s2, n3] * (W[t1, n3] * W[s1, n2])
    residual = float(np.sqrt((np.abs(lhs - rhs) ** 2).sum()) / np.linalg.norm(lhs))
    conclusive = bool(np.isfinite(residual))
    return residual, conclusive
