"""Primitive roots of unity of odd degree and derived constants.

A RootContext holds an odd degree ell and the index k of its primitive
root eps = exp(2*pi*i*k/ell) (ell odd, so that eps^(2n) runs through all
ell-th roots as n does a full cycle); every table that depends on eps
reads it from the context it is given.  primitive_root is k = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDegreeError, InvalidInputError


def check_degree(ell) -> None:
    """Raise InvalidDegreeError unless ell is an odd integer >= 3."""
    if not isinstance(ell, (int, np.integer)) or ell < 3 or ell % 2 == 0:
        raise InvalidDegreeError(f"degree must be an odd integer >= 3, got {ell!r}")


@dataclass(frozen=True)
class RootContext:
    """An odd degree ell with its primitive root eps = exp(2 pi i k / ell).

    The root is named by its index k, an integer prime to ell stored mod
    ell, so contexts compare and hash by (ell, k) exactly.  eps and the
    read-only eps_powers (eps^j for j = 0..ell-1, each computed directly,
    so no exponent drifts by repeated multiplication) are built from k.
    eps is numpy's scalar exp, which differs from eps_powers[1] (its array
    exp) in the last bit at some degrees (13, 21, 27, ...); either stays
    at rounding, and the scalar keeps reports unchanged.  Raises
    InvalidDegreeError for a bad ell (check_degree), and InvalidInputError
    unless k is an integer with gcd(k, ell) = 1.
    """

    ell: int
    k: int
    eps: complex = field(init=False, compare=False)
    eps_powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_degree(self.ell)
        ell, k = int(self.ell), self.k
        if not isinstance(k, (int, np.integer)) or math.gcd(int(k), ell) != 1:
            raise InvalidInputError(f"k = {k!r} does not index a primitive {ell}-th root of unity")
        k = int(k) % ell
        powers = np.exp(2j * np.pi * (k * np.arange(ell) % ell) / ell)
        powers.flags.writeable = False
        for name, value in (("ell", ell), ("k", k), ("eps", np.exp(2j * np.pi * k / ell)),
                            ("eps_powers", powers)):
            object.__setattr__(self, name, value)

    def pow(self, n: int | np.ndarray) -> complex | np.ndarray:
        """eps^n for an integer n, or elementwise for an integer array n
        (reduced mod ell)."""
        return self.eps_powers[n % self.ell]


def primitive_root(ell: int) -> RootContext:
    """The context of eps = exp(2*pi*i/ell), ell checked first (check_degree)."""
    return RootContext(ell, 1)
