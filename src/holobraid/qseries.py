"""Truncated power series and the staircase product function.

A power series is its complex coefficient array c[0..order].  The one
function here is the staircase product
Phi(z) = prod_{m=1..ell} (1 - eps^(2m) z)^(-m/ell), as its Taylor
expansion (phi_series, which serves the public API, the tests' reference
and a benchmark span) and as its value orbit along z -> eps^2 z
(phi_orbit), whose step (_staircase_orbit) also builds the closed form's
spectral factor.  The suite's values of Phi itself
(suite.phi_variant_evidence, intertwiner.det_exponent_probe) come from
the finite product.

The series takes fractional powers through the logarithmic series, which
is well-defined because every factor has constant term 1.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectralParameterError, SingularParameterError
from .roots import RootContext


def _exp(a: np.ndarray) -> np.ndarray:
    """exp of a series with zero constant term."""
    b = np.zeros_like(a)
    b[0] = 1.0
    ks = np.arange(len(a))
    for n in range(1, len(a)):
        b[n] = np.dot(ks[1 : n + 1] * a[1 : n + 1], b[n - 1 :: -1]) / n
    return b


def phi_series(ctx: RootContext, order: int) -> np.ndarray:
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
