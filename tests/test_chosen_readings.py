"""An adjudication's chosen reading is the formula R is built from: the F^ell
scalar is z0_character's phi, the orbit step is the closed form's spectral
step, and the power readings are beta_forward.  A defect planted in any of
them moves both, and the code agrees with the hand-written formulas that
tests/reference.py keeps."""
import dataclasses

import pytest

import holobraid.intertwiner as intertwiner
import holobraid.qseries as qseries
from holobraid.cyclic import RepParams, ell_powers
from holobraid.errors import SingularBraidingError
from holobraid.intertwiner import check_generator_action, closed_form_R
from holobraid.roots import primitive_root
from holobraid.suite import (ADJUDICATION_PASS, SuiteConfig, _rep_evidence,
                             phi_variant_evidence, run_trial)
from reference import SHIFTED, f_power_scalar_variants, seed42_pair

PAIRS = [(3, 0.1, 0), (5, 0.1, 0), (7, 0.1, 3), (9, 0.1, 0), (5, 1.0, 17), *SHIFTED]
DEFECT = 1 + 1e-6


def fresh_pair(ell, trial=0):
    """New parameter objects, so that no cached character or braiding is reused."""
    return tuple(RepParams(ctx=p.ctx, u=p.u, v=p.v, x=p.x, y=p.y)
                 for p in seed42_pair(ell, 0.1, trial))


@pytest.mark.parametrize("ell, radius, trial", PAIRS)
def test_f_power_readings_match_the_old_formulas(ell, radius, trial):
    for p in seed42_pair(ell, radius, trial):
        ref = f_power_scalar_variants(p)
        evidence = _rep_evidence(p)["f_power_prefactor"]
        _, scalar = ell_powers(p)[3]
        for name, value in ref.items():
            old = float(abs(value - scalar) / max(1.0, abs(scalar)))
            assert abs(evidence[name] - old) <= 1e-14 * max(1.0, old)


def test_planted_phi_defect_fails_the_f_power_adjudication(monkeypatch):
    character = RepParams._character.func

    def scaled(p):
        ch = character(p)
        return dataclasses.replace(ch, phi=ch.phi * DEFECT)

    # drawn before the defect is planted: the sampler's lift reads phi too
    (before, _), (after, _) = fresh_pair(5), fresh_pair(5)
    assert _rep_evidence(before)["f_power_prefactor"]["with_inverse_power"] < ADJUDICATION_PASS
    monkeypatch.setattr(RepParams, "_character", property(scaled))
    assert _rep_evidence(after)["f_power_prefactor"]["with_inverse_power"] > ADJUDICATION_PASS


def test_planted_step_defect_fails_the_orbit_and_the_closed_form(monkeypatch):
    ctx = primitive_root(5)
    step = qseries._staircase_orbit
    # one function serves both: the closed form binds the recurrence by name
    assert intertwiner._staircase_orbit is step
    assert phi_variant_evidence(ctx)["direct"] < ADJUDICATION_PASS
    assert closed_form_R(*fresh_pair(5)).residual < 1e-9

    def scaled(ctx, z, scale):
        return step(ctx, z, scale * DEFECT)

    for module in (qseries, intertwiner):
        monkeypatch.setattr(module, "_staircase_orbit", scaled)
    assert phi_variant_evidence(ctx)["direct"] > ADJUDICATION_PASS
    assert closed_form_R(*fresh_pair(5)).residual > 1e-9


def test_planted_beta_defect_fails_the_power_lowering_reading(monkeypatch):
    intw = closed_form_R(*fresh_pair(5))
    assert check_generator_action(intw)["power_slot2_lowering"]["direct"] < ADJUDICATION_PASS
    beta_forward = intertwiner.beta_forward

    def scaled(x, y, sign=-1):
        p, q = beta_forward(x, y, sign=sign)
        return p, dataclasses.replace(q, phi=q.phi * DEFECT)

    monkeypatch.setattr(intertwiner, "beta_forward", scaled)
    readings = check_generator_action(intw)
    assert readings["power_slot2_lowering"]["direct"] > ADJUDICATION_PASS
    assert readings["power_slot1_raising"]["direct"] < ADJUDICATION_PASS


def test_plus_sign_map_that_raises_reads_inf(monkeypatch):
    beta_forward = intertwiner.beta_forward

    def singular_plus(x, y, sign=-1):
        if sign == +1:
            raise SingularBraidingError("correction factor ~ 0")
        return beta_forward(x, y, sign=sign)

    monkeypatch.setattr(intertwiner, "beta_forward", singular_plus)
    cfg = SuiteConfig(ell=3, trials=1, seed=42)
    record = run_trial(cfg, primitive_root(3), 0).record
    readings = record["evidence"]["power_slot2_clock_k"]
    assert readings["plus"] == float("inf")
    assert readings["minus"] < ADJUDICATION_PASS
    assert record["pass"]


def test_each_conjugation_is_computed_once(monkeypatch):
    # seven elements w (the four single-factor equations, K x 1, 1 x E and
    # F x 1) for eleven matrix readings
    intw = closed_form_R(*fresh_pair(3))
    chain, calls = intertwiner._chain, []

    def counted(factors):
        calls.append(len(factors))
        return chain(factors)

    monkeypatch.setattr(intertwiner, "_chain", counted)
    readings = check_generator_action(intw)
    assert len(calls) == 7
    assert sum(len(r) for name, r in readings.items() if not name.startswith("power_")) == 11
