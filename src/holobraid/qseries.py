"""Truncated power series and the staircase product function.

A power series is its complex coefficient array c[0..order], and a
truncated product of two series is np.convolve(a, b)[:len(a)].  The series
here back two jobs:

* identities for f(z;q) = sum_n (1-q)^n z^n / ((1-q)...(1-q^n)), checked
  through its sum form, its product form and its functional equation
  f(zq;q) = (1-z)f(z;q);
* the staircase product Phi(z) = prod_{m=1..ell} (1 - eps^(2m) z)^(-m/ell),
  which is only ever needed through its Taylor expansion (phi_series) and
  through its value orbit along z -> eps^2 z (phi_orbit), whose step
  (_staircase_orbit) also builds the closed form's spectral factor.

Fractional powers are taken through the logarithmic series, which is
well-defined because every factor has constant term 1.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectralParameterError, SingularParameterError
from .roots import RootContext

DEFAULT_ORDER = 40


def _check_f_args(q: complex, order: int):
    if order < 1:
        raise SingularParameterError(f"order must be >= 1, got {order}")
    for k in range(1, order + 1):
        if abs(1 - q**k) < 1e-13:
            raise SingularParameterError(f"q^{k} = 1 within tolerance")


def series_f(q: complex, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Sum form of f(z;q): coefficient of z^n is (1-q)^n / prod_{k<=n}(1-q^k)."""
    _check_f_args(q, order)
    c = np.zeros(order + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, order + 1):
        c[n] = c[n - 1] * (1 - q) / (1 - q**n)
    return c


def series_f_product(q: complex, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Product form of the same function: prod_{n>=0} (1 - (1-q) z q^n)^(-1).

    Each factor is the geometric series with ratio (1-q) q^n.  Factors are
    multiplied until they are 1 + O(1e-18), so the truncation error is below
    double precision for |q| < 1; raises SingularParameterError where that
    takes more than 5000 factors (|q| near 1).
    """
    _check_f_args(q, order)
    if abs(q) >= 1:
        raise SingularParameterError("product form needs |q| < 1")
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    n = 0
    while abs(ratio := (1 - q) * q**n) > 1e-18:
        if n == 5000:
            raise SingularParameterError(f"product form needs over 5000 factors at q={q}")
        geometric = np.full(order + 1, ratio, dtype=complex)
        geometric[0] = 1.0
        out = np.convolve(out, np.cumprod(geometric))[: order + 1]
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
    f = np.zeros(order + 1, dtype=complex)
    f[0] = 1.0
    for n in range(1, order + 1):
        f[n] = f[n - 1] / (1 - q**n)
    lhs = f * q ** np.arange(order + 1)
    rhs = f - np.r_[0.0, f[:-1]]
    scale = max(1.0, float(np.max(np.abs(f))))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def _exp(a: np.ndarray) -> np.ndarray:
    """exp of a series with zero constant term."""
    b = np.zeros_like(a)
    b[0] = 1.0
    ks = np.arange(len(a))
    for n in range(1, len(a)):
        b[n] = np.dot(ks[1 : n + 1] * a[1 : n + 1], b[n - 1 :: -1]) / n
    return b


def phi_series(ctx: RootContext, order: int = DEFAULT_ORDER) -> np.ndarray:
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
    return _exp(log_c)


def _staircase_orbit(ctx: RootContext, z: complex, scale: complex) -> np.ndarray:
    """vals[k+1] = vals[k] scale / (1 - z eps^(2k)) from vals[0] = 1, the step
    Phi(eps^2 w) = scale Phi(w) / (1 - eps^2 w) along w = z eps^(2k-2)."""
    vals = np.ones(ctx.ell, dtype=complex)
    for k in range(ctx.ell - 1):
        vals[k + 1] = vals[k] * scale / (1 - z * ctx.pow(2 * k))
    return vals


def phi_orbit(ctx: RootContext, s: complex, variant: str = "direct") -> np.ndarray:
    """Values of the staircase function along the orbit z_k = s*eps^(2k-2).

    Returns phi_0..phi_{ell-1} with phi_0 normalized to 1, generated by the
    one-step functional equation with step scale t = (1-s^ell)^(1/ell)
    (principal branch).  variant selects the inhomogeneous factor:

    * "direct"              -- step factor t / (1 - z_{k+1}), the closed
                               form's spectral step (_staircase_orbit);
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
    if variant == "direct":
        return _staircase_orbit(ctx, s, t)
    if variant != "reciprocal_argument":
        raise ValueError(f"unknown variant {variant!r}")
    vals = np.ones(ell, dtype=complex)
    for k in range(ell - 1):  # z_k = s eps^(2k-2)
        vals[k + 1] = vals[k] * (t / (1 - ctx.pow(2) / (s * ctx.pow(2 * k - 2))))
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
    in front of the landing vector must equal prod_{j=0..n-1} (1+q^j).
    Returns the relative residual of that coefficient.
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
    return float(abs(total - expected) / max(abs(expected), 1e-30))
