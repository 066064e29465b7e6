"""Characters of the big center, their group law, and the braiding map.

A character is stored as the four scalars (kappa, lam, eta, phi) by which
the central elements K^ell, L^ell, E^ell, F^ell act.  The group law is the
one dual to the coproduct on those elements; the braiding map beta pushes a
pair of characters through the braiding automorphism.  beta_inverse is the
module-coloring map: it supplies the characters of the two output slots of
an intertwiner, with slot 1 retaining the strand data of input slot 1.

The correction factor carries a minus sign:

    Omega = 1 - eta_x * phi_y * lam_y / kappa_x        (beta_forward)
    Omega' = 1 - eta_x * phi_y                          (beta_inverse)

The plus-sign variant is kept behind ``sign=+1`` purely so the suite can
adjudicate the two numerically.  Both signs conserve Dt = kappa/lam
slot-wise, since each scales a slot's kappa and lam by one factor; only the
minus variant conserves the trace invariant T and admits intertwiners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFactorizableError, SingularBraidingError

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class Z0Char:
    """Values of (K^ell, L^ell, E^ell, F^ell) at a point of the dual group."""

    kappa: complex
    lam: complex
    eta: complex
    phi: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.kappa, self.lam, self.eta, self.phi])


IDENTITY_CHAR = Z0Char(1.0, 1.0, 0.0, 0.0)


def char_distance(a: Z0Char, b: Z0Char) -> float:
    """Max componentwise deviation, NaN if any component's is NaN."""
    devs = (abs(a.kappa - b.kappa), abs(a.lam - b.lam), abs(a.eta - b.eta),
            abs(a.phi - b.phi))
    # max() drops a NaN that is not first; the sum of the nonnegative
    # deviations is NaN exactly when one of them is
    total = sum(devs)
    return float(total if math.isnan(total) else max(devs))


def glstar_multiply(p: Z0Char, q: Z0Char) -> Z0Char:
    """Group law dual to the coproduct on the central ell-th powers."""
    return Z0Char(
        kappa=p.kappa * q.kappa,
        lam=p.lam * q.lam,
        eta=p.eta * q.kappa + q.eta,
        phi=p.phi + q.phi / p.lam,
    )


def beta_forward(x: Z0Char, y: Z0Char, sign: int = -1) -> tuple[Z0Char, Z0Char]:
    """Push (x, y) through the braiding automorphism of the character space.

    Output pair (p, q) satisfies p*q = y*x and shares invariants slot-wise
    with (x, y).  Raises SingularBraidingError when the correction factor
    vanishes.
    """
    om = 1 + sign * x.eta * y.phi * y.lam / x.kappa
    if abs(om) < _SINGULAR_TOL:
        raise SingularBraidingError(f"correction factor ~ 0 ({om})")
    kp, lp = x.kappa * om, x.lam * om
    kq, lq = y.kappa / om, y.lam / om
    ep = x.eta * y.lam
    fq = y.phi / x.kappa
    eq = x.kappa * y.eta + x.eta - ep * kq
    fp = x.phi / y.lam + y.phi - fq / lp
    return Z0Char(kp, lp, ep, fp), Z0Char(kq, lq, eq, fq)


def beta_inverse(x: Z0Char, y: Z0Char, sign: int = -1) -> tuple[Z0Char, Z0Char]:
    """The inverse braiding map: beta_forward(beta_inverse(x, y)) == (x, y).

    This is the module-coloring map: applied to the characters of an input
    representation pair it yields the characters of the output slots.
    """
    om = 1 + sign * x.eta * y.phi
    if abs(om) < _SINGULAR_TOL:
        raise SingularBraidingError(f"correction factor ~ 0 ({om})")
    kp, lp = x.kappa / om, x.lam / om
    kq, lq = y.kappa * om, y.lam * om
    ep = x.eta / lq
    fq = y.phi * kp
    eq = (y.eta - ep + x.eta * y.kappa) / kp
    fp = (x.phi - fq + y.phi / x.lam) * lq
    return Z0Char(kp, lp, ep, fp), Z0Char(kq, lq, eq, fq)


def conserved_quantities(p: Z0Char) -> tuple[complex, complex]:
    """(T, Dt) = (kappa + 1/lam + eta*phi, kappa/lam).

    Both are preserved slot-wise by beta_forward and beta_inverse; for a
    character coming from representation parameters (u, v, x, y) they
    evaluate to u^ell (x^ell + x^-ell) and u^(2 ell).
    """
    return p.kappa + 1 / p.lam + p.eta * p.phi, p.kappa / p.lam


# -- matrix realization ------------------------------------------------------
#
# Calibration: the plus part carries (lam, phi), the minus part (kappa, eta)
# with a minus sign on eta, so that componentwise matrix multiplication of
# realizations reproduces glstar_multiply exactly.  The eta sign mirrors the
# minus sign of the braiding correction; the plus-sign calibration would
# reproduce only the rejected plus-sign braiding variant.


def realize_char(p: Z0Char) -> tuple[np.ndarray, np.ndarray]:
    """Triangular pair (b_plus, b_minus) realizing the character."""
    b_plus = np.array([[1.0, p.lam * p.phi], [0.0, p.lam]], dtype=complex)
    b_minus = np.array([[p.kappa, 0.0], [-p.eta, 1.0]], dtype=complex)
    return b_plus, b_minus


def factorization_matrix(p: Z0Char) -> np.ndarray:
    """I(p) = b_plus @ inv(b_minus)."""
    b_plus, b_minus = realize_char(p)
    return b_plus @ np.linalg.inv(b_minus)


def refactor_gl2(m: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Split an invertible 2x2 matrix as b_plus @ inv(b_minus).

    Returns the four triangular coordinates (a, b, c, d) with
    b_plus = [[1, b], [0, a]] and b_minus = [[d, 0], [c, 1]]; requires
    m[1,1] != 0 and det(m) != 0.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(m[1, 1]) < _SINGULAR_TOL or abs(det) < _SINGULAR_TOL:
        raise NonFactorizableError("matrix has m22 = 0 or det = 0")
    a = m[1, 1]
    b = m[0, 1]
    d = m[1, 1] / det
    c = -m[1, 0] / det
    return a, b, c, d


def char_from_factorization(m: np.ndarray) -> Z0Char:
    """Read a character back from its factorization matrix I(p)."""
    a, b, c, d = refactor_gl2(m)
    # under realize_char: a = lam, b = lam*phi, d = kappa, c = -eta
    return Z0Char(kappa=d, lam=a, eta=-c, phi=b / a)


def matrix_route_beta(first: Z0Char, second: Z0Char) -> tuple[Z0Char, Z0Char]:
    """Braid a character pair through factorization-matrix conjugation.

    out1 solves I(out1) = first_minus I(second) first_minus^-1, then out2
    solves I(out2) = (out1)_plus^-1 I(first) (out1)_plus.  The returned
    tuple is (out1, out2) as constructed.  The printed formulas take
    (first, second) = (x, y) for the pair (x, y), and the role-swapped
    reading takes (y, x); the suite adjudicates which argument order and
    slot reading reproduces the character-route braiding.
    """
    _, f_minus = realize_char(first)
    m1 = f_minus @ factorization_matrix(second) @ np.linalg.inv(f_minus)
    out1 = char_from_factorization(m1)
    o1_plus, _ = realize_char(out1)
    m2 = np.linalg.inv(o1_plus) @ factorization_matrix(first) @ o1_plus
    out2 = char_from_factorization(m2)
    return out1, out2
