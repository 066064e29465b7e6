import json
from pathlib import Path

import numpy as np
import pytest

import holobraid.intertwiner as intertwiner
from holobraid.cyclic import RepParams, clock_shift
from holobraid.errors import InvalidDegreeError, InvalidInputError
from holobraid.intertwiner import det_exponent_probe
from holobraid.roots import RootContext, primitive_root
from holobraid.suite import SuiteConfig, _aggregate_adjudications, run_trial

EXPECTED_CHOSEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                              / "expected_adjudications.json").read_text())["chosen"]


def test_canonical_choice_ell3():
    ctx = primitive_root(3)
    assert ctx.eps == pytest.approx(complex(-0.5, np.sqrt(3) / 2))


def test_primitivity():
    ctx = primitive_root(5)
    assert abs(ctx.eps**5 - 1) < 1e-14
    for k in range(1, 5):
        assert abs(ctx.eps**k - 1) > 0.5


@pytest.mark.parametrize("bad", [4, 2, 1, 0, -3, 6])
def test_invalid_degree(bad):
    with pytest.raises(InvalidDegreeError):
        primitive_root(bad)


def test_non_integer_degree():
    with pytest.raises(InvalidDegreeError):
        primitive_root(3.5)


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_power_table(ell):
    ctx = primitive_root(ell)
    assert len(ctx.eps_powers) == ell
    for k in range(ell):
        assert abs(ctx.eps_powers[k] * ctx.eps_powers[(ell - k) % ell] - 1) < 1e-13
    # even exponents cover every root exactly once for odd degree
    evens = sorted(round(np.angle(ctx.pow(2 * n)) % (2 * np.pi), 9) for n in range(1, ell + 1))
    alls = sorted(round(np.angle(ctx.pow(k)) % (2 * np.pi), 9) for k in range(ell))
    assert evens == alls


def test_contexts_compare_and_hash_by_degree():
    # two contexts of one degree are distinct objects with equal tables
    a, b = primitive_root(3), primitive_root(3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != primitive_root(5)
    p, q = (RepParams(ctx=ctx, u=1.1, v=0.9, x=1.2, y=0.8) for ctx in (a, b))
    assert p == q and hash(p) == hash(q)
    assert len({p, q, RepParams(ctx=a, u=1.1, v=0.9, x=1.2, y=0.7)}) == 2


def test_primitive_root_is_the_hand_built_k1_context():
    for ell in (3, 5, 7, 9):
        ctx, ref = primitive_root(ell), RootContext(ell, 1)
        assert ctx == ref and ctx.k == 1 and ctx.eps == np.exp(2j * np.pi / ell)
        table = np.exp(2j * np.pi * np.arange(ell) / ell)
        assert ctx.eps_powers.tobytes() == ref.eps_powers.tobytes() == table.tobytes()
        assert not ctx.eps_powers.flags.writeable


@pytest.mark.parametrize("ell, k", [
    (5, 0),  # eps = 1 is a root, not a primitive one
    (9, 3),  # order 3
    (5, 1.0),  # an integral float is not an index
    (5, 0.5),  # nor is a fraction
], ids=["eps_1", "ell_9_k_3", "k_float", "k_half"])
def test_malformed_root_rejected(ell, k):
    with pytest.raises(InvalidInputError):
        RootContext(ell, k)


def test_hand_built_degree_checked():
    for ell in (4, 5.0):
        with pytest.raises(InvalidDegreeError):
            RootContext(ell, 1)


@pytest.mark.parametrize("ell", [5, 7])
def test_index_names_the_root(ell):
    # a root has one context whatever representative of k names it, and each
    # context's cached tables are the ones built from its own power table
    ks = np.arange(ell)
    for k in (1, 2, -1):
        ctxs = [RootContext(ell, k + shift) for shift in (0, ell, -ell)]
        assert all(c.k == k % ell for c in ctxs)
        assert len(set(ctxs)) == 1 and len({hash(c) for c in ctxs}) == 1
        assert len({c.eps_powers.tobytes() for c in ctxs}) == 1
        for ctx in ctxs:
            assert ctx.eps == np.exp(2j * np.pi * (k % ell) / ell)
            assert np.array_equal(np.diag(clock_shift(ctx)[0]),
                                  ctx.eps_powers[2 * (ks + 1) % ell])
            assert np.array_equal(intertwiner._dft(ctx),
                                  ctx.eps_powers[(-2 * np.outer(ks, ks)) % ell])


def test_contexts_of_one_degree_get_their_own_tables():
    # every table that depends on eps is cached per context, so two roots
    # of one degree never share one
    a, b = primitive_root(5), RootContext(5, 2)
    assert a != b
    A_a, A_b = clock_shift(a)[0], clock_shift(b)[0]
    assert np.allclose(np.diag(A_b), b.pow(2 * np.arange(1, 6)))
    assert not np.allclose(A_a, A_b)
    assert clock_shift(a)[1] is clock_shift(b)[1]  # B does not depend on eps
    assert not np.allclose(intertwiner._dft(a), intertwiner._dft(b))


@pytest.mark.parametrize("ell, k", [(3, -1), (5, 2), (5, -1), (7, 3)])
def test_every_primitive_root_passes_the_suite_trials(ell, k):
    # the construction holds at any primitive root: 20 seed-42 trials at
    # RootContext(ell, k) pass, each formula is adjudicated to the reading chosen
    # at eps = exp(2 pi i / ell), and the det probe picks the same exponent
    ctx = RootContext(ell, k)
    cfg = SuiteConfig(ell=ell, trials=20, seed=42, hybe_every=2)
    runs = [run_trial(cfg, ctx, i) for i in range(cfg.trials)]
    records = [run.record for run in runs]
    assert all(record["pass"] for record in records)
    assert sum("hybe" in record for record in records) == 10
    adjudications = _aggregate_adjudications(records, ctx)
    assert {f: a["chosen"] for f, a in adjudications.items()} == EXPECTED_CHOSEN
    probe = det_exponent_probe([run.det_sample for run in runs])
    assert probe["closest_candidate"] == "-l(l+1)/2" and probe["matches_closest"]
