"""Truncated power series, q-factorials, and the staircase product function.

The series here back two different jobs:

* identities for f(z;q) = sum_n (1-q)^n z^n / ((1-q)...(1-q^n)), checked
  both through its sum form, its product form and its functional equation
  f(zq;q) = (1-z)f(z;q);
* the staircase product Phi(z) = prod_{m=1..ell} (1 - eps^(2m) z)^(-m/ell),
  which is only ever needed through its Taylor expansion (phi_series) and
  through its value orbit along z -> eps^2 z (phi_orbit).

Fractional powers are taken through the logarithmic series, which is
well-defined because every factor has constant term 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectralParameterError, SingularParameterError
from .roots import RootContext

DEFAULT_ORDER = 40


@dataclass
class Series:
    """Complex power series truncated at a fixed order (inclusive)."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "Series":
        c = np.zeros(order + 1, dtype=complex)
        c[0] = 1.0
        return cls(c)

    def __sub__(self, other: "Series") -> "Series":
        return Series(self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = self.order
            full = np.convolve(self.coeffs, other.coeffs)
            return Series(full[: n + 1])
        return Series(self.coeffs * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        """1/self; requires a nonzero constant term."""
        a = self.coeffs
        if a[0] == 0:
            raise SingularParameterError("reciprocal of a series with zero constant term")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for n in range(1, len(a)):
            b[n] = -np.dot(a[1 : n + 1], b[n - 1 :: -1]) / a[0]
        return Series(b)

    def exp(self) -> "Series":
        """exp(self); requires zero constant term."""
        a = self.coeffs
        if a[0] != 0:
            raise SingularParameterError("exp requires zero constant term")
        b = np.zeros_like(a)
        b[0] = 1.0
        ks = np.arange(len(a))
        for n in range(1, len(a)):
            b[n] = np.dot(ks[1 : n + 1] * a[1 : n + 1], b[n - 1 :: -1]) / n
        return Series(b)

    def shift_scale(self, c: complex) -> "Series":
        """Substitute z -> c*z."""
        return Series(self.coeffs * c ** np.arange(len(self.coeffs)))

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc


def q_bracket(n: int, q: complex) -> complex:
    """(1 - q^n)/(1 - q)."""
    if q == 1:
        raise SingularParameterError("q = 1")
    return (1 - q**n) / (1 - q)


def q_factorial_b(n: int, q: complex) -> complex:
    """b_n = prod_{k=1..n} (1-q^k)/(1-q); b_0 = 1 (empty product)."""
    if n < 0:
        raise SingularParameterError(f"n must be >= 0, got {n}")
    if q == 1:
        raise SingularParameterError("q = 1")
    out = 1.0 + 0.0j
    for k in range(1, n + 1):
        out *= (1 - q**k) / (1 - q)
    return out


def pairing_monomial(n: int, m: int, n2: int, m2: int, q: complex) -> complex:
    """Dual-monomial pairing value: delta_{n n2} delta_{m m2} n! b_m(q)."""
    if q == 1:
        raise SingularParameterError("q = 1")
    if n != n2 or m != m2:
        return 0.0 + 0.0j
    return math.factorial(n) * q_factorial_b(m, q)


def _check_f_args(q: complex, order: int):
    if order < 1:
        raise SingularParameterError(f"order must be >= 1, got {order}")
    for k in range(1, order + 1):
        if abs(1 - q**k) < 1e-13:
            raise SingularParameterError(f"q^{k} = 1 within tolerance")


def series_f(q: complex, order: int = DEFAULT_ORDER) -> Series:
    """Sum form of f(z;q): coefficient of z^n is (1-q)^n / prod_{k<=n}(1-q^k)."""
    _check_f_args(q, order)
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, order + 1):
        c[n] = c[n - 1] * (1 - q) / (1 - q**n)
    return Series(c)


def series_f_product(q: complex, order: int = DEFAULT_ORDER) -> Series:
    """Product form of the same function: prod_{n>=0} (1 - (1-q) z q^n)^(-1).

    Factors are multiplied until they are 1 + O(1e-18) so the truncation
    error is below double precision for |q| < 1.
    """
    _check_f_args(q, order)
    if abs(q) >= 1:
        raise SingularParameterError("product form needs |q| < 1")
    out = Series.one(order)
    n = 0
    while abs((1 - q) * q**n) > 1e-18 and n < 5000:
        factor = Series.one(order)
        factor.coeffs[1] = -(1 - q) * q**n
        out = out * factor.reciprocal()
        n += 1
    return out


def check_f_functional(q: complex, order: int = DEFAULT_ORDER) -> float:
    """Max coefficient modulus of f(zq;q) - (1-z)f(z;q), truncated at order.

    The shift identity holds for the plain staircase product
    f(z;q) = prod_{n>=0} (1 - z q^n)^(-1); the weighted sum form of
    series_f is this function with z scaled by (1-q).  The plain
    coefficients 1/prod_{k<=n}(1-q^k) are built directly rather than by
    rescaling, which would amplify rounding at |q| near 1.
    """
    _check_f_args(q, order)
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, order + 1):
        c[n] = c[n - 1] / (1 - q**n)
    f = Series(c)
    lhs = f.shift_scale(q)
    one_minus_z = Series.one(order)
    one_minus_z.coeffs[1] = -1.0
    rhs = one_minus_z * f
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    return float(np.max(np.abs((lhs - rhs).coeffs)) / scale)


def phi_series(ctx: RootContext, order: int = DEFAULT_ORDER) -> Series:
    """Taylor expansion of prod_{m=1..ell} (1 - eps^(2m) z)^(-m/ell).

    Built as exp((1/ell) * sum_m m * sum_k (eps^(2m) z)^k / k); each factor
    has constant term 1 so the principal branch is the one the expansion
    defines.
    """
    if order < 1:
        raise SingularParameterError(f"order must be >= 1, got {order}")
    ell = ctx.ell
    log_c = np.zeros(order + 1, dtype=complex)
    ks = np.arange(1, order + 1)
    for m in range(1, ell + 1):
        w = ctx.pow(2 * m)
        log_c[1:] += (m / ell) * w**ks / ks
    return Series(log_c).exp()


def phi_orbit(ctx: RootContext, s: complex, variant: str = "direct") -> np.ndarray:
    """Values of the staircase function along the orbit z_k = s*eps^(2k-2).

    Returns phi_0..phi_{ell-1} with phi_0 normalized to 1, generated by the
    one-step functional equation with step scale t = (1-s^ell)^(1/ell)
    (principal branch).  variant selects the inhomogeneous factor:

    * "direct"              -- step factor t / (1 - z_{k+1});
    * "reciprocal_argument" -- step factor t / (1 - eps^2 / z_k), kept only
                               so the two readings can be compared.

    After ell steps the accumulated "direct" factor telescopes to
    t^ell / (1 - s^ell) = 1, so the orbit closes.
    """
    ell = ctx.ell
    s_ell = s**ell
    if abs(1 - s_ell) < 1e-12:
        raise DegenerateSpectralParameterError(f"s^ell = 1 within tolerance (s={s})")
    t = (1 - s_ell) ** (1.0 / ell)
    vals = np.empty(ell, dtype=complex)
    vals[0] = 1.0
    for k in range(ell - 1):
        if variant == "direct":
            z_next = s * ctx.pow(2 * k)  # z_{k+1} = s*eps^(2(k+1)-2)
            step = t / (1 - z_next)
        elif variant == "reciprocal_argument":
            z_k = s * ctx.pow(2 * k - 2)
            step = t / (1 - ctx.pow(2) / z_k)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        vals[k + 1] = vals[k] * step
    return vals


def phi_orbit_closure(ctx: RootContext, s: complex) -> float:
    """|product of the ell direct step factors - 1| (telescoping check):
    phi_orbit's last value times the step from z_ell back to z_1."""
    ell = ctx.ell
    last = phi_orbit(ctx, s)[-1]
    t = (1 - s**ell) ** (1.0 / ell)
    return float(abs(last * (t / (1 - s * ctx.pow(2 * ell - 2))) - 1))


def q_shift_coefficient_check(n: int, q: complex) -> float:
    """Expand (S1+S2)^n on the first basis vector for a q-commuting shift pair.

    S1, S2 are (n+1)x(n+1) shifts with S1 S2 = q S2 S1; the total coefficient
    in front of the landing vector must equal prod_{j=0..n-1} (1+q^j), and
    b_n must satisfy b_n = [n]_q b_{n-1}.  Returns the larger of the two
    residuals.
    """
    if not (1 <= n <= 12):
        raise SingularParameterError(f"n must be in 1..12, got {n}")
    dim = n + 1
    s1 = np.zeros((dim, dim), dtype=complex)
    s2 = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        s1[i + 1, i] = q**i
        s2[i + 1, i] = 1.0
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    vec = np.linalg.matrix_power(s1 + s2, n) @ e0
    total = vec[n]
    expected = np.prod([1 + q**j for j in range(n)])
    r1 = abs(total - expected) / max(abs(expected), 1e-30)
    r2 = abs(q_factorial_b(n, q) - q_bracket(n, q) * q_factorial_b(n - 1, q))
    return float(max(r1, r2))
