"""Primitive roots of unity of odd degree and derived constants.

A RootContext holds an odd degree ell and a primitive ell-th root of unity
eps (ell odd, so that eps^(2n) runs through all ell-th roots as n does a
full cycle); every table that depends on eps reads it from the context it
is given.  primitive_root builds eps = exp(2*pi*i/ell), and a context built
by hand at any other primitive root is honoured the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDegreeError, InvalidInputError

# largest distance of eps, and of each eps_powers entry, from its exact value
ROOT_TOL = 1e-12


def check_degree(ell) -> None:
    """Raise InvalidDegreeError unless ell is an odd integer >= 3."""
    if not isinstance(ell, (int, np.integer)) or ell < 3 or ell % 2 == 0:
        raise InvalidDegreeError(f"degree must be an odd integer >= 3, got {ell!r}")


@dataclass(frozen=True)
class RootContext:
    """An odd degree ell with its chosen primitive root of unity eps.

    eps_powers holds eps^k for k = 0..ell-1, each computed directly, so
    that any exponent (eps^(2m-1), eps^(2nm) and friends), reduced mod ell,
    is looked up without drift from repeated multiplication.  The table
    follows from eps and takes no part in == or hash.  Raises
    InvalidDegreeError for a bad ell (check_degree), and InvalidInputError
    unless eps is within ROOT_TOL of an exp(2 pi i k / ell), gcd(k, ell) = 1,
    and eps_powers within ROOT_TOL of its powers.
    """

    ell: int
    eps: complex
    eps_powers: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        check_degree(self.ell)
        ell = int(self.ell)
        k = round(np.angle(self.eps) * ell / (2 * np.pi)) % ell
        exact = np.exp(2j * np.pi * (k * np.arange(ell) % ell) / ell)
        if math.gcd(k, ell) != 1 or not abs(self.eps - exact[1]) <= ROOT_TOL:
            raise InvalidInputError(f"{self.eps} is not a primitive {ell}-th root of unity")
        if np.shape(self.eps_powers) != (ell,) \
                or not np.max(np.abs(self.eps_powers - exact)) <= ROOT_TOL:
            raise InvalidInputError(f"eps_powers is not eps^0, ..., eps^{ell - 1}")

    def pow(self, k: int) -> complex:
        """eps^k for any integer k (reduced mod ell)."""
        return self.eps_powers[k % self.ell]


def primitive_root(ell: int) -> RootContext:
    """The context of eps = exp(2*pi*i/ell), ell checked first (check_degree)."""
    check_degree(ell)
    eps = np.exp(2j * np.pi / ell)
    powers = np.exp(2j * np.pi * np.arange(ell) / ell)
    return RootContext(ell=int(ell), eps=eps, eps_powers=powers)
