"""Triple tensor products and the holonomy Yang-Baxter equation.

A crossing consumes the colorings of the two strands it braids and emits
new ones; chaining three crossings in the two bracketing orders must give
the same final triple of colorings (the set-theoretic Yang-Baxter property
of the coloring map), and the corresponding product of slot-embedded
intertwiners must agree up to one scalar of modulus 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclic import RepParams, _kron
from .errors import AssemblyError
from .intertwiner import (_twist_core, braided_rep_pair, closed_form_R,
                          solve_intertwiner)


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
    return _kron(R, np.eye(ell))


def embed_23(R: np.ndarray, ell: int) -> np.ndarray:
    return _kron(np.eye(ell), R)


def embed_13(R: np.ndarray, ell: int) -> np.ndarray:
    """R x 1 with tensor slots 2 and 3 exchanged on both sides."""
    n3 = ell**3
    return embed_12(R, ell).reshape((ell,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(n3, n3)


def hybe_residual(x: RepParams, y: RepParams, z: RepParams,
                  route: str = "oracle") -> tuple[complex, float, dict]:
    """Up-to-scalar holonomy Yang-Baxter deviation for one triple.

    Builds the six det-normalized intertwiners along the two chains, embeds
    them into the triple space and compares the ordered products.  Returns
    (c, deviation, info): LHS = c * RHS with the least-squares scalar c,
    whose modulus must be 1 (it is an (ell^3)-rd root of unity for
    det-normalized factors).
    """
    ell = x.ctx.ell
    col = derive_colorings(x, y, z)
    dev_params = col.finals_deviation()
    if not np.isfinite(dev_params):
        raise AssemblyError("coloring chains failed to produce finite finals")

    def rmat(a: RepParams, b: RepParams) -> np.ndarray:
        if route == "oracle":
            return solve_intertwiner(a, b).R
        if route == "closed-form":
            return closed_form_R(a, b).R
        raise ValueError(f"unknown route {route!r}")

    lhs = embed_12(rmat(col.x1, col.y1), ell) \
        @ embed_13(rmat(col.x, col.z1), ell) \
        @ embed_23(rmat(col.y, col.z), ell)
    rhs = embed_23(rmat(col.ya, col.za), ell) \
        @ embed_13(rmat(col.xa, col.z), ell) \
        @ embed_12(rmat(col.x, col.y), ell)
    c = np.vdot(rhs, lhs) / np.vdot(rhs, rhs)
    dev = float(np.linalg.norm(lhs - c * rhs) / np.linalg.norm(lhs))
    # cross-check scalar from the largest entries
    idx = int(np.argmax(np.abs(rhs)))
    c_entry = lhs.flat[idx] / rhs.flat[idx]
    info = {
        "colorings_deviation": float(dev_params),
        "c_modulus": float(abs(c)),
        "c_argument": float(np.angle(c)),
        "c_entry_ratio_gap": float(abs(c - c_entry)),
        "route": route,
    }
    return complex(c), dev, info


def s0_diagnostic(p1: RepParams, p2: RepParams) -> tuple[float, bool]:
    """Constant Yang-Baxter residual of the zero-spectral-parameter core.

    Substitutes the identity for the spectral factor, leaving
    R0 = D (B^a x Ug_out Ug_in^-1), and tests
    R0_12 R0_13 R0_23 = R0_23 R0_13 R0_12 with this single matrix in all
    three slots.  Purely diagnostic: returns (relative residual,
    conclusive flag); no threshold is attached.
    """
    ell = p1.ctx.ell
    _, _, _, D, Ba, U2, Ut2 = _twist_core(p1, p2)
    R0 = D[:, None] * _kron(Ba, Ut2 @ np.linalg.inv(U2))
    lhs = embed_12(R0, ell) @ embed_13(R0, ell) @ embed_23(R0, ell)
    rhs = embed_23(R0, ell) @ embed_13(R0, ell) @ embed_12(R0, ell)
    residual = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))
    conclusive = bool(np.isfinite(residual))
    return residual, conclusive
