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
block-diagonal over the third slot's index.  Each triple product is held
as its ell blocks of ell^2 x ell^2, one per total grade, and _apply
multiplies it by one embedded factor's ell^2 blocks of ell x ell in one
batched matmul: O(ell^6) for the triple, not the O(ell^9) of dense
ell^3 x ell^3 products.  The zero-spectral-parameter core of
s0_diagnostic, the pair's twist diagonal times B^a x (a diagonal gauge
ratio), is monomial, one nonzero entry per column, and so is each of
its slot embeddings: its triple products are composed as (target index,
weight) pairs over the ell^3 triple indices (_embed_monomial, _compose),
in O(ell^3).  The dense slot embeddings embed_12, embed_13 and embed_23 are
kept as the reference the tests compare against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclic import RepParams, _kron, braided_rep_pair, gauge_U
from .errors import AssemblyError, InvalidInputError
from .intertwiner import Intertwiner, closed_form_R, solve_intertwiner


@dataclass(frozen=True)
class ColoringTriple:
    """All intermediate colorings of the two chain orders of Fig-style triples.

    lhs chain braids slots (2,3), then (1,3), then (1,2); rhs chain braids
    (1,2), then (1,3), then (2,3).  finals_* are the (slot1, slot2, slot3)
    colorings after the full chain.
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

    @property
    def finals_lhs(self):
        return self.x2, self.y2, self.z2

    @property
    def finals_rhs(self):
        return self.xb, self.yb, self.zb

    def finals_deviation(self) -> float:
        dev = 0.0
        for a, b in zip(self.finals_lhs, self.finals_rhs):
            dev = max(dev, max(abs(complex(ai) - complex(bi))
                               for ai, bi in zip(a.as_tuple(), b.as_tuple())))
        return dev


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


def embed_12(R: np.ndarray, ell: int) -> np.ndarray:
    """Dense R x 1 on the triple space (the reference for _apply)."""
    return _kron(R, np.eye(ell))


def embed_23(R: np.ndarray, ell: int) -> np.ndarray:
    """Dense 1 x R on the triple space (the reference for _apply)."""
    return _kron(np.eye(ell), R)


def embed_13(R: np.ndarray, ell: int) -> np.ndarray:
    """R x 1 with tensor slots 2 and 3 exchanged on both sides (dense reference)."""
    n3 = ell**3
    return embed_12(R, ell).reshape((ell,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(n3, n3)


@lru_cache(maxsize=64)
def _slot_index(ell: int, slots: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair, rest, place) for a pair-basis map on tensor slots (a, b)
    (0-based) of the triple space: triple index j has pair index
    pair[j] = n_a ell + n_b, and j = rest[j] + place[pair[j]], where place[P]
    is the triple index with pair P on slots (a, b) and 0 on the third."""
    a, b = slots
    stride = ell ** (2 - np.arange(3))
    P = np.arange(ell * ell)
    place = P // ell * stride[a] + P % ell * stride[b]
    n = np.indices((ell,) * 3).reshape(3, -1)
    pair = n[a] * ell + n[b]
    rest = np.arange(ell ** 3) - place[pair]
    for arr in (pair, rest, place):
        arr.setflags(write=False)
    return pair, rest, place


def _embed_monomial(R: tuple[np.ndarray, np.ndarray],
                    slots: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A monomial pair-basis map R = (target, weight), with
    R e_J = weight[J] e_target[J], embedded on tensor slots (a, b) of the
    triple space, in the same form over the triple indices."""
    target, weight = R
    pair, rest, place = _slot_index(round(np.sqrt(len(target))), slots)
    return rest + place[target[pair]], weight[pair]


def _compose(factors: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Product F_1 F_2 ... of monomial maps (target, weight), left to right;
    returns the product in the same form."""
    target, weight = factors[-1]
    for t, w in reversed(factors[:-1]):
        weight = w[target] * weight
        target = t[target]
    return target, weight


def _relative_distance(A: tuple[np.ndarray, np.ndarray],
                       B: tuple[np.ndarray, np.ndarray]) -> float:
    """|A - B|_F / |A|_F of two monomial maps (target, weight): a column the
    two send to different rows contributes both of its entries."""
    (at, aw), (bt, bw) = A, B
    diff = np.where(at == bt, np.abs(aw - bw) ** 2, np.abs(aw) ** 2 + np.abs(bw) ** 2)
    return float(np.sqrt(diff.sum()) / np.linalg.norm(aw))


def _apply(R: np.ndarray, a: int, slots: tuple[int, int], P: np.ndarray,
           s: int) -> np.ndarray:
    """R, a pair stack of grade shift a (see cyclic), embedded on tensor
    slots `slots` of the triple space, times the triple stack P of shift s:
    the product's stack, of shift s + a.

    P[G] maps the triples of total grade G to those of grade G + s, with
    rows and columns indexed n1 ell + n2 (n3 is fixed by the grade).  The
    embedded R is block-diagonal over the third (spectator) slot: R's block
    of pair grade G + s - spectator acts on the pair's first slot.  So it is
    one batched matmul, written straight into the product, once P[G]'s rows
    are laid out as (spectator, first slot): a reshape on slots (1, 2), a
    swap of n1 and n2 on (0, 2), and on (0, 1) a row gather and scatter,
    one grade at a time so that the gathered copy is one block.
    """
    ell = len(R)
    k = np.arange(ell)
    blocks = R[(k[:, None] + s - k) % ell]  # [G, spectator index]
    out = np.empty_like(P)
    if slots == (0, 1):  # rows (n3, n1) of P[G], n2 fixed by the grade
        n3, n1 = k[:, None], k
        for G in range(ell):
            n2 = G + s - n3 - n1
            out[G, n1 * ell + (n2 + a) % ell] = blocks[G] @ P[G, n1 * ell + n2 % ell]
        return out
    Q, O = P.reshape(ell, ell, ell, -1), out.reshape(ell, ell, ell, -1)
    if slots == (0, 2):
        Q, O = Q.swapaxes(1, 2), O.swapaxes(1, 2)
    np.matmul(blocks, Q, out=O)
    return out


def hybe_residual(col: ColoringTriple, xy: Intertwiner) -> tuple[complex, float, dict]:
    """Up-to-scalar holonomy Yang-Baxter deviation for one triple.

    col is the triple's coloring chain (derive_colorings) and xy an
    intertwiner of its pair (col.x, col.y), which is the (x, y) factor; the
    other five factors are solved on xy's route.  Embeds the six
    det-normalized intertwiners into the triple space and compares the
    ordered products.  Returns (c, deviation, info): LHS = c * RHS with the
    least-squares scalar c, whose modulus must be 1.  For det-normalized
    factors c is an ell^2-th root of unity: both products have determinant
    1 on each of their ell^2 x ell^2 grade blocks.

    Each factor is a stack of grade shift its band exponent, so each
    product is formed as ell grade blocks of size ell^2 x ell^2, starting
    from the identity and applying the factors right to left (_apply):
    O(ell^6) work, no ell^3 x ell^3 array.
    Products whose total shifts differ have disjoint supports: then c = 0
    and the deviation is 1, as for the dense matrices.

    Raises InvalidInputError when xy's input pair is not (col.x, col.y)
    itself.
    """
    if xy.pair.in_params[0] is not col.x or xy.pair.in_params[1] is not col.y:
        raise InvalidInputError("xy is not an intertwiner of the triple's pair (x, y)")
    dev_params = col.finals_deviation()
    if not np.isfinite(dev_params):
        raise AssemblyError("coloring chains failed to produce finite finals")
    solve = solve_intertwiner if xy.route == "oracle" else closed_form_R
    ell = col.x.ctx.ell

    def product(factors):
        """(triple stack, shift) of the product of (intertwiner, slots) factors."""
        P, s = np.stack([np.eye(ell * ell, dtype=complex)] * ell), 0
        for intw, slots in reversed(factors):
            P, s = _apply(intw.blocks, intw.pair.band_exp, slots, P, s), s + intw.pair.band_exp
        return P, s % ell

    lhs, lhs_shift = product([(solve(col.x1, col.y1), (0, 1)),
                              (solve(col.x, col.z1), (0, 2)),
                              (solve(col.y, col.z), (1, 2))])
    rhs, rhs_shift = product([(solve(col.ya, col.za), (1, 2)),
                              (solve(col.xa, col.z), (0, 2)),
                              (xy, (0, 1))])
    if lhs_shift != rhs_shift:
        c, dev, gap = 0j, 1.0, 0.0
    else:
        c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
        # cross-check scalar from the largest entries
        idx = int(np.argmax(np.abs(rhs)))
        gap = float(abs(c - lhs.flat[idx] / rhs.flat[idx]))
        diff = c * rhs  # lhs - c rhs, formed in place
        dev = float(np.linalg.norm(np.subtract(lhs, diff, out=diff)) / np.linalg.norm(lhs))
    info = {
        "colorings_deviation": float(dev_params),
        "c_modulus": float(abs(c)),
        "c_argument": float(np.angle(c)),
        "c_entry_ratio_gap": gap,
        "route": xy.route,
    }
    return complex(c), dev, info


def s0_diagnostic(intw: Intertwiner) -> tuple[float, bool]:
    """Constant Yang-Baxter residual of the zero-spectral-parameter core of
    the closed-form intertwiner intw.

    Substitutes the identity for the spectral factor, leaving
    R0 = D (B^a x Ug_out Ug_in^-1), and tests
    R0_12 R0_13 R0_23 = R0_23 R0_13 R0_12 with this single matrix in all
    three slots; the residual is |lhs - rhs|_F / |lhs|_F.  R0 is monomial
    (B^a a shift, the rest diagonal), and so are its slot embeddings and
    their products, each kept as a (target index, weight) pair over the
    ell^3 triple indices: O(ell^3).  Purely diagnostic: returns (relative
    residual, conclusive flag); no threshold is attached.  D and the band
    exponent a are read from intw's pair, where closed_form_R left D.

    At a band exponent a != 0 the residual can be sqrt(2): the two products
    send each column to the same row, but their weight vectors have equal
    norms and are orthogonal (seed 42, ell 7, trials 15, 17 and 68; the
    twist diagonal alone gives the same sqrt(2)).
    """
    pair = intw.pair
    ell, a = pair.in_params[0].ctx.ell, pair.band_exp
    U2, Ut2 = (gauge_U(q)[0] for q in (pair.in_params[1], pair.out_params[1]))
    n, m = np.divmod(np.arange(ell * ell), ell)
    target = ((n + a) % ell) * ell + m  # B^a x 1 sends v_n x v_m to v_(n+a) x v_m
    R0 = target, pair.twist[target] * (np.diag(Ut2) / np.diag(U2))[m]
    r12, r13, r23 = (_embed_monomial(R0, slots) for slots in ((0, 1), (0, 2), (1, 2)))
    residual = _relative_distance(_compose([r12, r13, r23]), _compose([r23, r13, r12]))
    conclusive = bool(np.isfinite(residual))
    return residual, conclusive
