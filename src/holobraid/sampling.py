"""Deterministic sampling of generic representation parameters.

Every trial draws from a counter-based generator keyed by (seed, trial
index), so a trial's parameters do not depend on how many trials ran
before it or on the worker that runs it.
"""
from __future__ import annotations

import numpy as np

from .cyclic import RepParams, is_generic
from .errors import SamplingExhaustedError
from .roots import RootContext

MAX_ATTEMPTS = 100


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Philox stream for one (seed, trial) cell."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(trial_index & 0xFFFFFFFFFFFFFFFF)])
    return np.random.Generator(np.random.Philox(key=key))


def _draw_params(ctx: RootContext, rng: np.random.Generator, radius: float) -> RepParams:
    d = rng.uniform(-radius, radius, 8)
    return RepParams(ctx=ctx,
                     u=np.exp(d[0] + 1j * d[1]),
                     v=np.exp(d[2] + 1j * d[3]),
                     x=np.exp(d[4] + 1j * d[5]),
                     y=np.exp(d[6] + 1j * d[7]))


def sample_params(ctx: RootContext, seed: int, trial_index: int,
                  radius: float = 0.1, count: int = 2
                  ) -> tuple[RepParams, ...]:
    """Draw `count` representation parameter sets, each adjacent pair generic.

    Parameters are exp of a uniform draw from the complex box with half
    width `radius`, keeping them in a neighborhood of 1 where the braided
    lifts stay on principal branches.  Rejection-resamples (up to 100
    attempts) until every adjacent pair (p_i, p_(i+1)), the pair the caller
    braids, passes the genericity predicate; a single draw p is checked as
    (p, p).
    """
    rng = trial_rng(seed, trial_index)
    for _ in range(MAX_ATTEMPTS):
        ps = tuple(_draw_params(ctx, rng, radius) for _ in range(count))
        if all(is_generic(a, b) for a, b in zip(ps, ps[1:] or ps)):
            return ps
    raise SamplingExhaustedError(
        f"{MAX_ATTEMPTS} consecutive rejections at radius {radius}; "
        "radius too extreme for generic sampling")
