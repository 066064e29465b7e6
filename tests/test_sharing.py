"""A suite trial shares its pair data and its intertwiner between stages;
every shared result must equal a fresh public call's."""
import numpy as np
import pytest

import holobraid.intertwiner as intertwiner
import holobraid.suite as suite
from holobraid.hybe import derive_colorings, hybe_residual
from holobraid.intertwiner import (central_invariance_residuals,
                                   check_generator_action, closed_form_R,
                                   solve_intertwiner)
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params

FRESH = {"oracle": solve_intertwiner, "closed-form": closed_form_R}


@pytest.mark.parametrize("ell", [3, 5])
@pytest.mark.parametrize("route", ["both", "closed-form"])
def test_suite_path_matches_fresh_calls(ell, route, monkeypatch):
    made = []
    for name in ("solve_intertwiner", "closed_form_R"):
        def record(*args, _fn=getattr(suite, name), **kwargs):
            made.append(_fn(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(suite, name, record)
    ctx = primitive_root(ell)
    trial = suite.run_trial(suite.SuiteConfig(ell=ell, trials=1, seed=42, route=route),
                            ctx, 0).record
    # new parameter objects, so that nothing computed in the trial is reused
    p1, p2 = sample_params(ctx, 42, 0, count=2)
    p3, = sample_params(ctx, 42, 1 << 32, count=1)
    routes = {"both": ["oracle", "closed-form"], "closed-form": ["closed-form"]}[route]
    assert [intw.route for intw in made] == routes
    for intw in made:
        assert intw.R.tobytes() == FRESH[intw.route](p1, p2).R.tobytes()
    # the action checks read the shared generator matrices
    acted = FRESH[routes[0]](p1, p2)
    assert trial["checks"]["central_invariance"]["residual"]["value"] == \
        max(central_invariance_residuals(acted).values())
    for formula, readings in check_generator_action(acted).items():
        assert trial["evidence"][formula] == readings
    c, dev, _ = hybe_residual(derive_colorings(p1, p2, p3), FRESH[routes[0]](p1, p2))
    assert complex(*trial["hybe"]["c"]) == c
    assert trial["checks"]["hybe_residual"]["residual"]["value"] == dev


def test_trial_builds_braid_factor_once(monkeypatch):
    # the trial's PairContext owns the band, G and 1 - eps G, and builds
    # its equation blocks once (one _coproducts call for each side) for the
    # residuals and the action checks.  No ell^2 x ell^2 matrix is
    # inverted: the stacked inverses are the blocks' one of the four slot-2
    # clock matrices, R1^-1 and (1 - sigma B x B^-1)^-1 in
    # r1_conjugation_residuals, then in check_generator_action
    # (1 - eps G)^-1 and (1 - G / eps)^-1 as one inverse of the stack of G's
    # grade blocks, and R^-1 (the central invariance check reads no R)
    ell = 3
    braids, coproducts, inverses, block_inverses, bands = [], [], [], [], []
    braid_factor, coproduct, inv = (intertwiner._braid_factor, intertwiner._coproducts,
                                    np.linalg.inv)
    band_offset = intertwiner._band_offset

    def count_braid(*args):
        braids.append(args)
        return braid_factor(*args)

    def count_coproduct(*args):
        coproducts.append(args)
        return coproduct(*args)

    def count_inv(a):
        if a.shape == (ell * ell, ell * ell):
            inverses.append(a)
        elif a.shape[-2:] == (ell, ell) and a.ndim > 2:
            block_inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(intertwiner, "_braid_factor", count_braid)
    monkeypatch.setattr(intertwiner, "_coproducts", count_coproduct)
    monkeypatch.setattr(np.linalg, "inv", count_inv)
    monkeypatch.setattr(intertwiner, "_band_offset",
                        lambda *args: bands.append(args) or band_offset(*args))
    suite.run_trial(suite.SuiteConfig(ell=ell, trials=1, seed=42, hybe_every=0),
                    primitive_root(ell), 0)
    assert len(braids) == 1
    assert len(bands) == 1
    assert len(coproducts) == 2
    assert len(inverses) == 0
    assert block_inverses == [(4, ell, ell)] + [(ell, ell, ell)] * 2 \
        + [(2, ell, ell, ell), (ell, ell, ell)]
