"""A suite trial shares its pair data and its intertwiner between stages;
every shared result must equal a fresh public call's."""
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import holobraid.cyclic as cyclic
import holobraid.hybe as hybe
import holobraid.intertwiner as intertwiner
import holobraid.suite as suite
from holobraid.cyclic import braided_rep_pair, z0_character
from holobraid.errors import NoIntertwinerError, NonGenericRepresentationError
from holobraid.glstar import beta_inverse
from holobraid.hybe import derive_colorings, hybe_residual
from holobraid.intertwiner import (PairContext, check_generator_action, closed_form_R,
                                   solve_intertwiner, solve_intertwiners, solved)
from holobraid.report import emit_report
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
    p3 = suite.third_params(ctx, 42, 0, 0.1)
    routes = {"both": ["oracle", "closed-form"], "closed-form": ["closed-form"]}[route]
    assert [intw.route for intw in made] == routes
    for intw in made:
        assert intw.R.tobytes() == FRESH[intw.route](p1, p2).R.tobytes()
    # the action checks read the shared generator matrices
    acted = FRESH[routes[0]](p1, p2)
    for formula, readings in check_generator_action(acted).items():
        assert trial["evidence"][formula] == readings
    c, dev = hybe_residual(derive_colorings(p1, p2, p3), FRESH[routes[0]](p1, p2))
    assert complex(*trial["hybe"]["c"]) == c
    assert trial["checks"]["hybe_residual"]["residual"]["value"] == dev


# seed-42 trials at radius 1.0 whose band exponents mix 0 with 2 (ell 3,
# trial 2) and with 2 and 3 (ell 5, trials 3 and 7)
MIXED = {3: [0, 1, 2, 3, 4, 5, 6], 5: [0, 1, 3, 4, 7]}


def fresh_pair(ell, trial, radius=1.0):
    """New parameter objects of a seed-42 trial, so that nothing is reused."""
    return sample_params(primitive_root(ell), 42, trial, radius=radius, count=2)


def wrong_target(p1, p2):
    """The braided target with the first output's y scaled by 1 + 1e-3."""
    q1, q2 = braided_rep_pair(p1, p2)
    return replace(q1, y=q1.y * (1 + 1e-3)), q2


@pytest.mark.parametrize("ell", [3, 5])
def test_batch_matches_solo(ell):
    # every pair of one batch, band exponents 0 and != 0 mixed and a wrong
    # target that runs every CGLS step beside pairs that stop early, equals
    # its solve alone bit for bit
    pairs = [PairContext(*fresh_pair(ell, t)) for t in MIXED[ell]]
    pairs.insert(2, PairContext(*pairs[0].in_params, target=wrong_target(*pairs[0].in_params)))
    assert {pair.band_exp for pair in pairs} > {0}
    outcomes = intertwiner._solve_batch(pairs)
    assert isinstance(outcomes[2], NoIntertwinerError)
    for t, intw in zip(MIXED[ell], outcomes[:2] + outcomes[3:]):
        solo = solve_intertwiner(*fresh_pair(ell, t))
        assert intw.R.tobytes() == solo.R.tobytes()
        assert (intw.singular_gap, intw.log_abs_det) == (solo.singular_gap, solo.log_abs_det)


def test_batch_failures_are_per_pair():
    # a wrong target and a clock ratio off the roots fail with the errors
    # they raise alone, raised when read; the other pairs keep their results
    ell = 3
    p1, p2 = fresh_pair(ell, 0)
    q1, q2 = braided_rep_pair(p1, p2)
    pairs = [PairContext(*fresh_pair(ell, t)) for t in range(4)]
    pairs[1] = PairContext(p1, p2, target=wrong_target(p1, p2))
    pairs[3] = PairContext(p1, p2, target=(replace(q1, v=q1.v * 1.01), q2))
    outcomes = solve_intertwiners(pairs)
    for pair, outcome in zip(pairs, outcomes):
        try:
            alone = solve_intertwiner(*pair.in_params, pair=PairContext(
                *pair.in_params, target=None if pair.braided else pair.out_params))
        except (NoIntertwinerError, NonGenericRepresentationError) as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            with pytest.raises(type(exc), match=str(exc)):
                solved(outcome)
        else:
            assert solved(outcome).R.tobytes() == alone.R.tobytes()
            assert outcome.singular_gap == alone.singular_gap
    assert [type(o) for o in outcomes] == [intertwiner.Intertwiner, NoIntertwinerError,
                                           intertwiner.Intertwiner, NoIntertwinerError]
    assert "clock-weight ratio" in str(outcomes[3])


@pytest.mark.parametrize("ell, trials", [(3, 100), (5, 20)])
def test_suite_records_match_run_trial(ell, trials):
    # run_suite solves its trials' oracle pairs a chunk at a time and each
    # triple's five factors as a batch; every record is run_trial's alone
    cfg = suite.SuiteConfig(ell=ell, trials=trials, seed=42)
    report = suite.run_suite(cfg)[1]
    ctx = primitive_root(ell)
    assert intertwiner.batch_size(ell) < trials
    for i, record in enumerate(report["trials"]):
        assert emit_report(record) == emit_report(suite.run_trial(cfg, ctx, i).record)


def test_triple_raises_its_first_failed_factor(monkeypatch):
    # the five factors are read in hybe_residual's order, so the first that
    # failed raises, as when each was solved in turn
    x, y = fresh_pair(3, 0, 0.1)
    col = derive_colorings(x, y, suite.third_params(primitive_root(3), 42, 0, 0.1))
    first, second = NoIntertwinerError("factor 2"), NonGenericRepresentationError("factor 4")
    good = solve_intertwiner(x, y)
    monkeypatch.setattr(hybe, "solve_intertwiners",
                        lambda pairs: [good, first, good, second, good])
    with pytest.raises(NoIntertwinerError, match="factor 2"):
        hybe_residual(col, good)


def clear_degree_caches():
    for cached in (cyclic._shift_power, cyclic.clock_shift, intertwiner._golden_weights,
                   intertwiner._dft):
        cached.cache_clear()


@pytest.mark.parametrize("warm", [False, True])
def test_trial_build_counts_do_not_depend_on_caches(warm):
    # the per-degree and per-root caches may be empty or full when a trial
    # runs: the counts of test_trial_builds_braid_factor_once hold either way
    clear_degree_caches()
    if warm:
        suite.run_trial(suite.SuiteConfig(ell=3, trials=1, seed=42, hybe_every=0),
                        primitive_root(3), 0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        test_trial_builds_braid_factor_once(monkeypatch)


def test_trial_builds_braid_factor_once(monkeypatch):
    # the trial's PairContext owns the band, G and 1 - eps G, and builds
    # its equation blocks once (one _coproducts call for each side) for the
    # residuals and the action checks.  No ell^2 x ell^2 matrix is
    # inverted: the stacked inverses are the blocks' one of the four slot-2
    # clock matrices, R1^-1 and (1 - sigma B x B^-1)^-1 in
    # r1_conjugation_residuals, then in check_generator_action
    # (1 - eps G)^-1 and (1 - G / eps)^-1 as one inverse of the stack of G's
    # grade blocks, and R^-1 (the central invariance check reads no R).
    # The per-degree constants invert nothing, so the counts do not depend
    # on whether their caches are full
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


# the triple's factors in the order hybe_residual solves them, each as
# (input pair, output pair) of coloring-chain fields; the trial's own
# intertwiner is the (x, y) factor
SOLVED_FACTORS = [(("x1", "y1"), ("x2", "y2")), (("x", "z1"), ("x1", "z2")),
                  (("y", "z"), ("y1", "z1")), (("ya", "za"), ("yb", "zb")),
                  (("xa", "z"), ("xb", "za"))]


@pytest.mark.parametrize("route", ["both", "oracle", "closed-form"])
def test_trial_braids_each_pair_once(route, monkeypatch):
    # each braiding lifts two characters.  Trial 0 has a triple: the sampler
    # braids (x, y) and (z, z) in its genericity checks, the coloring chain
    # five more pairs, and the trial's PairContext and the five factors'
    # braid none again (28 lifts when each braided anew).  Trial 1 has no
    # triple and braids (x, y) once (4 when braided anew)
    lifts, solved = [], []
    lift = cyclic.lift_character
    monkeypatch.setattr(cyclic, "lift_character",
                        lambda *args: lifts.append(args) or lift(*args))
    def record(*args, _fn=hybe._factors):
        solved.extend(_fn(*args))
        return solved[-5:]
    monkeypatch.setattr(hybe, "_factors", record)
    ctx = primitive_root(3)
    cfg = suite.SuiteConfig(ell=3, trials=2, seed=42, route=route)
    run = suite.run_trial(cfg, ctx, 0)
    assert len(lifts) == 14
    col = run.colorings
    factors = [*zip(solved, SOLVED_FACTORS), (run.intertwiner, (("x", "y"), ("xa", "ya")))]
    assert len(factors) == 6
    for intw, (ins, outs) in factors:
        for params, names in ((intw.pair.in_params, ins), (intw.pair.out_params, outs)):
            assert all(p is getattr(col, name) for p, name in zip(params, names))
    lifts.clear()
    suite.run_trial(cfg, ctx, 1)
    assert len(lifts) == 2


def test_closed_form_builds_no_generator_matrices():
    # closed_form_R reads parameters, gauges and chi alone, so its pair's
    # generator matrices, braid factor and equation blocks stay unbuilt, and
    # a closed-form triple builds the matrices of none of the ten colorings
    # that its five solved factors add to (x, y, z) and the trial's (xa, ya)
    ctx = primitive_root(5)
    p1, p2 = sample_params(ctx, 42, 0, count=2)
    xy = closed_form_R(p1, p2)
    assert {"reps", "G", "blocks"}.isdisjoint(vars(xy.pair))
    col = derive_colorings(p1, p2, suite.third_params(ctx, 42, 0, 0.1))
    hybe_residual(col, xy)
    added = {name for pairs in SOLVED_FACTORS for names in pairs for name in names} \
        - {"x", "y", "z", "xa", "ya"}
    assert len(added) == 10
    assert [name for name in sorted(added) if "_matrices" in vars(getattr(col, name))] == []


def test_braiding_is_shared_and_fresh():
    # the memo returns the same objects each time, equal to a fresh lift of
    # the braided characters; braiding p with itself keeps p collectable
    # without the cycle collector
    ctx = primitive_root(3)
    p, q = sample_params(ctx, 42, 0, count=2)
    q1, q2 = braided_rep_pair(p, q)
    assert braided_rep_pair(p, q)[0] is q1 and braided_rep_pair(p, q)[1] is q2
    o1, o2 = beta_inverse(z0_character(p), z0_character(q))
    assert q1.as_tuple() == cyclic.lift_character(o1, p.u, p.x, ctx).as_tuple()
    assert q2.as_tuple() == cyclic.lift_character(o2, q.u, q.x, ctx).as_tuple()
    assert braided_rep_pair(q, p)[0] is not q1  # keyed by order
    gc.disable()
    try:
        r, = sample_params(ctx, 42, 1 << 32, count=1)  # braids (r, r)
        assert braided_rep_pair(r, r)[0] is braided_rep_pair(r, r)[0]
        ref = weakref.ref(r)
        del r
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("ell", [3, 9])
def test_degree_caches_are_read_only_and_fresh(ell):
    ctx = primitive_root(ell)
    A, B = cyclic.clock_shift(ctx)
    ks = np.arange(ell)
    fresh = {
        "B^a": [(cyclic._shift_power(ell, a), np.linalg.matrix_power(B, a))
                for a in range(ell)],
        "golden": [(intertwiner._golden_weights(ell, s),
                    np.exp(2j * np.pi * 0.6180339887498949
                           * cyclic._stack_index(ell, s)[0])) for s in range(ell)],
        "clock": [(A, np.diag(ctx.eps_powers[2 * (ks + 1) % ell])),
                  (B, np.roll(np.eye(ell, dtype=complex), 1, axis=0))],
        "dft": [(intertwiner._dft(ctx), ctx.eps_powers[(-2 * np.outer(ks, ks)) % ell])],
    }
    for name, pairs in fresh.items():
        for cached, ref in pairs:
            assert cached.tobytes() == ref.tobytes(), name
            with pytest.raises(ValueError):
                cached[(0,) * cached.ndim] = 1.0
