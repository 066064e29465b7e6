"""Primitive roots of unity of odd degree and derived constants.

Everything downstream works over a fixed primitive ell-th root of unity
eps = exp(2*pi*i/ell) with ell odd, so that eps^(2n) runs through all
ell-th roots of unity as n does a full cycle.  Oddness of ell is a hard
precondition: the even-exponent sublattice only covers every root when
gcd(2, ell) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDegreeError


@dataclass(frozen=True)
class RootContext:
    """An odd degree ell with its chosen primitive root of unity.

    eps_powers holds eps^k for k = 0..ell-1, each computed directly, so
    that any exponent (eps^(2m-1), eps^(2nm) and friends), reduced mod ell,
    is looked up without drift from repeated multiplication.  The table
    follows from ell and takes no part in == or hash.
    """

    ell: int
    eps: complex
    eps_powers: np.ndarray = field(repr=False, compare=False)

    def pow(self, k: int) -> complex:
        """eps^k for any integer k (reduced mod ell)."""
        return self.eps_powers[k % self.ell]


def primitive_root(ell: int) -> RootContext:
    """Build the context for eps = exp(2*pi*i/ell).

    Raises InvalidDegreeError unless ell is an odd integer >= 3.
    """
    if not isinstance(ell, (int, np.integer)):
        raise InvalidDegreeError(f"degree must be an integer, got {ell!r}")
    if ell < 3 or ell % 2 == 0:
        raise InvalidDegreeError(f"degree must be odd and >= 3, got {ell}")
    eps = np.exp(2j * np.pi / ell)
    powers = np.exp(2j * np.pi * np.arange(ell) / ell)
    return RootContext(ell=int(ell), eps=eps, eps_powers=powers)
