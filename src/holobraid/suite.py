"""Trial orchestration: per-trial check battery, adjudications, reports.

Each trial is a pure function of (seed, trial index, config), so a
report is identical for a fixed config up to its timestamp.

A trial's evidence is one flat table {formula: {reading: residual}} over
every adjudicated formula, merged from one producer per stage: the
representation (_rep_evidence), the character pair (character_checks),
the closed form (_closed_form_evidence) and the action intertwiner
(check_generator_action).  A gate over an adjudicated formula reads its
evidence.  A NaN residual is recorded as inf (residual_value, and
worst_residual for the worst of several), like a reading that raises, so
that it fails its gate and is never adjudicated as passing.  _aggregate_adjudications keeps each reading's worst residual
over the trials, adds phi_step_factor once per suite, and resolves each
formula to the readings under ADJUDICATION_PASS.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .cyclic import (RepParams, build_rep, ell_powers, f_power_scalar_variants,
                     f_weights, gauge_U, gauge_conjugation_residual, z0_character)
from .errors import HolobraidError
from .glstar import (IDENTITY_CHAR, Z0Char, beta_forward, beta_inverse,
                     char_distance, conserved_quantities, glstar_multiply,
                     matrix_route_beta)
from .hybe import ColoringTriple, derive_colorings, hybe_residual, s0_diagnostic
from .intertwiner import (DetSample, Intertwiner, PairContext,
                          central_invariance_residuals,
                          check_generator_action, closed_form_R,
                          compare_up_to_scalar, det_exponent_probe,
                          r1_conjugation_residuals, solve_intertwiner)
from .qseries import phi_orbit, phi_series
from .report import (check_entry, complex_pair, new_report, params_entry,
                     residual_entry, residual_value, worst_residual)
from .roots import RootContext, primitive_root
from .sampling import sample_params

# Gate thresholds; keys double as check names in the per-trial report.
THRESHOLDS = {
    "rep_relations": 1e-9,
    "central_powers": 1e-9,
    "casimir_scalar": 1e-9,
    "center_relation": 1e-9,
    "gauge_conjugation": 1e-11,
    "braiding_round_trip": 1e-10,
    "braiding_product": 1e-10,
    "conserved_T": 1e-10,
    "conserved_Dt": 1e-10,
    "identity_fixed_points": 1e-12,
    "matrix_route": 1e-9,
    "oracle_residual": 1e-9,
    "central_invariance": 1e-9,
    "closed_form_residual": 1e-9,
    "route_deviation": 1e-8,
    "r1_commutants": 1e-11,
    "generator_actions": 1e-8,
    "set_ybe": 1e-9,
    "hybe_residual": 1e-7,
    "hybe_c_modulus": 1e-8,
}
ADJUDICATION_PASS = 1e-8


@dataclass
class SuiteConfig:
    ell: int
    trials: int
    seed: int
    radius: float = 0.1
    route: str = "both"  # oracle | closed-form | both
    hybe_every: int = 5

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ValueError("ell must be odd and >= 3")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0 < self.radius <= 1):
            raise ValueError("radius must be in (0, 1]")
        if self.route not in ("oracle", "closed-form", "both"):
            raise ValueError(f"unknown route {self.route!r}")
        if self.hybe_every < 0:
            raise ValueError("hybe_every must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def _scale(*vals) -> float:
    return max(1.0, *(abs(v) for v in vals))


def rep_checks(p: RepParams) -> dict[str, float]:
    """Residuals of the defining relations and central structure of one rep."""
    ctx = p.ctx
    t = ctx.eps
    rep = build_rep(p)
    K, L, E, F = rep.as_tuple()
    Linv = np.linalg.inv(L)
    nK, nL, nE, nF = (np.linalg.norm(m) for m in (K, L, E, F))

    def comm(a, b, factor, na, nb):
        return np.linalg.norm(a @ b - factor * (b @ a)) / (na * nb)

    rel = worst_residual(
        comm(K, L, 1.0, nK, nL),
        comm(K, E, t**2, nK, nE),
        comm(K, F, t**-2, nK, nF),
        comm(L, E, t**2, nL, nE),
        comm(L, F, t**-2, nL, nF),
        np.linalg.norm(E @ F - F @ E - (t - 1 / t) * (K - Linv)) / (nE * nF),
    )
    ch = z0_character(p)
    I = np.eye(ctx.ell)
    central = 0.0
    for (P, scalar), s in zip(ell_powers(p), (ch.kappa, ch.lam, ch.eta, ch.phi)):
        central = worst_residual(central,
                                 np.linalg.norm(P - scalar * I) / _scale(scalar),
                                 abs(scalar - s) / _scale(s))
    cas = E @ F + K / t + Linv * t
    cas_target = p.u * (p.x + 1 / p.x)
    casimir = np.linalg.norm(cas - cas_target * I) / _scale(cas_target)
    prod = np.prod([cas_target - (p.u * p.v) * ctx.pow(j + 1)
                    - (p.u / p.v) * ctx.pow(-j - 1) for j in range(ctx.ell)])
    center_rel = abs(prod - ch.eta * ch.phi) / _scale(ch.eta * ch.phi)
    return {"rep_relations": float(rel), "central_powers": float(central),
            "casimir_scalar": float(casimir), "center_relation": float(center_rel)}


def _rep_evidence(p: RepParams) -> dict[str, dict[str, float]]:
    """gauge_scale and f_power_prefactor of one representation."""
    _, scalar = ell_powers(p)[3]  # F^ell, shared with rep_checks
    U, z = gauge_U(p)
    # the rejected reading: the single-z prefactor U_nn = z prod_(m<=n) c_m^-1
    gauges = {"geometric": (U, z), "constant": (np.diag(z / np.cumprod(f_weights(p))), z)}
    return {"gauge_scale": {name: gauge_conjugation_residual(p, gauge)
                            for name, gauge in gauges.items()},
            "f_power_prefactor": {name: float(abs(val - scalar) / _scale(scalar))
                                  for name, val in f_power_scalar_variants(p).items()}}


def _char_dev(a: Z0Char, b: Z0Char) -> float:
    return char_distance(a, b) / _scale(*b.as_array())


def character_checks(cx: Z0Char, cy: Z0Char) -> tuple[dict, dict]:
    """(checks, evidence) of one character pair.

    The evidence tables are braiding_correction_sign (slot-wise
    conservation of T under both correction signs) and matrix_route (the
    deviation of every conjugation-route reading from the character route;
    inf for each reading of a variant whose evaluation raises).
    conserved_T gates the "minus" sign's reading and matrix_route the best
    reading; the other checks are the braiding-map invariants.  Each
    braiding of (cx, cy) is computed once.
    """
    braided = {name: (beta_forward(cx, cy, sign=sign), beta_inverse(cx, cy, sign=sign))
               for sign, name in ((-1, "minus"), (+1, "plus"))}
    invariants = [conserved_quantities(c) for c in (cx, cy)]

    def drift(outs, k: int) -> float:
        """Worst slot-wise relative change of invariant k (0: T, 1: Dt)
        from (cx, cy) to the braided pairs outs."""
        return worst_residual(*(abs(conserved_quantities(o)[k] - i[k]) / _scale(i[k])
                                for out in outs for o, i in zip(out, invariants)))

    targets = braided["minus"]
    (p, q), (P, Q) = targets
    mre = {}
    for variant, (first, second) in (("first_conjugates", (cx, cy)),
                                     ("second_conjugates", (cy, cx))):
        try:
            m1, m2 = matrix_route_beta(first, second)
        except HolobraidError:  # a reading that cannot be evaluated fails it
            mre.update({f"{variant}:{tname}:{slots}": float("inf")
                        for tname in ("forward", "inverse")
                        for slots in ("direct", "swapped")})
            continue
        for tname, (t1, t2) in zip(("forward", "inverse"), targets):
            mre[f"{variant}:{tname}:direct"] = worst_residual(_char_dev(m1, t1),
                                                              _char_dev(m2, t2))
            mre[f"{variant}:{tname}:swapped"] = worst_residual(_char_dev(m2, t1),
                                                               _char_dev(m1, t2))
    evidence = {"matrix_route": mre,
                "braiding_correction_sign": {name: drift(outs, 0)
                                             for name, outs in braided.items()}}

    rx, ry = beta_inverse(p, q)
    sx, sy = beta_forward(P, Q)
    fx = beta_forward(cx, IDENTITY_CHAR)
    fy = beta_forward(IDENTITY_CHAR, cy)
    residuals = {
        "braiding_round_trip": worst_residual(_char_dev(rx, cx), _char_dev(ry, cy),
                                              _char_dev(sx, cx), _char_dev(sy, cy)),
        "braiding_product": _char_dev(glstar_multiply(p, q), glstar_multiply(cy, cx)),
        "conserved_T": evidence["braiding_correction_sign"]["minus"],
        "conserved_Dt": drift(targets, 1),
        "identity_fixed_points": worst_residual(
            _char_dev(fx[0], cx), char_distance(fx[1], IDENTITY_CHAR),
            char_distance(fy[0], IDENTITY_CHAR), _char_dev(fy[1], cy)),
    }
    checks = {name: check_entry(float(res), THRESHOLDS[name])
              for name, res in residuals.items()}
    checks["matrix_route"] = check_entry(min(mre.values()), THRESHOLDS["matrix_route"],
                                         variant=min(mre, key=mre.get))
    return checks, evidence


def phi_variant_evidence(ctx: RootContext, order: int = 60) -> dict[str, float]:
    """Orbit-vs-series agreement for both step-factor readings."""
    series = phi_series(ctx, order)
    probes = [0.12, 0.2 + 0.1j, -0.15 + 0.07j, 0.28]
    out = {}
    for variant in ("direct", "reciprocal_argument"):
        worst = 0.0
        for s in probes:
            vals = phi_orbit(ctx, s, variant=variant)
            pts = [s * ctx.pow(2 * k - 2) for k in range(ctx.ell)]
            ref = np.array([series(z) for z in pts])
            worst = worst_residual(worst, np.max(np.abs(vals - ref / ref[0])))
        out[variant] = worst
    return out


def _closed_form_evidence(pair: PairContext, r1res: dict[str, float]) -> dict:
    """assembly_scalars and r1_clock_conjugation of a closed-form pair, from
    its chi data, its band distance and its r1_conjugation_residuals.

    chi1_band_tie is a diagnostic (intermittently zero near the identity),
    not a competing recipe, so it stays out of assembly_scalars.
    """
    cd = pair.chi
    return {
        "assembly_scalars": {
            "derived": worst_residual(cd.chi1_mismatch, cd.chi2_mismatch,
                                      pair.band_dist, cd.sigma_power_residual),
            **{f"legacy_{k}": v for k, v in cd.legacy_relation_residuals.items()
               if k != "chi1_band_tie"}},
        "r1_clock_conjugation": {shifts: r1res[f"slot2_clock_{shifts}"]
                                 for shifts in ("opposite_shifts", "parallel_shifts")},
    }


def third_params(ctx: RootContext, seed: int, idx: int, radius: float) -> RepParams:
    """The third coloring of trial idx's triple, drawn at index idx + 2^32."""
    p3, = sample_params(ctx, seed, idx + (1 << 32), radius=radius, count=1)
    return p3


class TrialRun(NamedTuple):
    """What run_trial built."""

    record: dict  # the trial's report record
    intertwiner: Intertwiner  # the one the action checks and the triple read
    colorings: ColoringTriple | None  # None unless a triple ran and was not rejected
    det_sample: DetSample | None  # for det_exponent_probe; None on the oracle route


def run_trial(cfg: SuiteConfig, ctx: RootContext, idx: int) -> TrialRun:
    """Full check battery for one trial; returns its record with what it built.

    The pair's ingredients are built once (one PairContext), shared by both
    routes and carried by their intertwiners to every check that reads
    them; the trial's intertwiner is the triple's (x, y) factor, and one
    coloring chain serves both triple checks.
    """
    p1, p2 = sample_params(ctx, cfg.seed, idx, radius=cfg.radius, count=2)
    checks = {name: check_entry(res, THRESHOLDS[name])
              for name, res in rep_checks(p1).items()}
    rep_evidence = _rep_evidence(p1)
    checks["gauge_conjugation"] = check_entry(
        rep_evidence["gauge_scale"]["geometric"], THRESHOLDS["gauge_conjugation"])
    char_checks, evidence = character_checks(z0_character(p1), z0_character(p2))
    checks.update(char_checks)
    evidence.update(rep_evidence)

    trial: dict = {"index": idx,
                   "params": [params_entry(p1), params_entry(p2)],
                   "checks": checks}

    pair = PairContext(p1, p2)
    oracle = closed = None
    if cfg.route in ("oracle", "both"):
        oracle = solve_intertwiner(p1, p2, pair=pair)
        checks["oracle_residual"] = check_entry(oracle.residual, THRESHOLDS["oracle_residual"])
        checks["oracle_kernel_dim"] = {"variant": "direct",
                                       "residual": residual_entry(0.0),
                                       "threshold": 1.0,
                                       "pass": oracle.kernel_dim == 1}
        trial["oracle"] = {"kernel_dim": oracle.kernel_dim,
                           "band_exp": pair.band_exp,
                           "singular_gap": float(oracle.singular_gap),
                           "residual": residual_entry(oracle.residual)}
    if cfg.route in ("closed-form", "both"):
        closed = closed_form_R(p1, p2, pair=pair)
        checks["closed_form_residual"] = check_entry(
            closed.residual, THRESHOLDS["closed_form_residual"])
        cd = pair.chi
        trial["chi"] = {
            "chi1": complex_pair(cd.chi1), "chi2": complex_pair(cd.chi2),
            "a_exp": pair.band_exp, "s": complex_pair(cd.s), "t": complex_pair(cd.t),
            "sigma": complex_pair(cd.sigma),
            "t_power_residual": residual_entry(cd.t_power_residual),
            "sigma_power_residual": residual_entry(cd.sigma_power_residual),
            "chi1_band_tie": residual_entry(cd.legacy_relation_residuals["chi1_band_tie"]),
        }
        r1res = r1_conjugation_residuals(closed)
        evidence.update(_closed_form_evidence(pair, r1res))
        checks["r1_commutants"] = check_entry(
            worst_residual(r1res["clock_pair"], r1res["slot2_shift_inv"],
                           r1res["slot1_shift"]),
            THRESHOLDS["r1_commutants"])
    if closed is not None:
        sres, sconcl = s0_diagnostic(closed)
        trial["s0_diagnostic"] = {"residual": residual_entry(sres),
                                  "conclusive": sconcl}
    if cfg.route == "both":
        scalar, dev = compare_up_to_scalar(oracle.blocks, closed.blocks)
        checks["route_deviation"] = check_entry(dev, THRESHOLDS["route_deviation"])
        trial["route_comparison"] = {"scalar": complex_pair(scalar),
                                     "deviation": residual_entry(dev)}

    # action checks run on whichever route produced a matrix
    intw = oracle if oracle is not None else closed
    cinv = central_invariance_residuals(intw)
    checks["central_invariance"] = check_entry(
        worst_residual(*cinv.values()), THRESHOLDS["central_invariance"])
    actions = check_generator_action(intw)
    evidence.update(actions)
    evidence = {formula: {v: residual_value(r) for v, r in readings.items()}
                for formula, readings in evidence.items()}
    checks["generator_actions"] = check_entry(
        max(min(evidence[f].values()) for f in actions), THRESHOLDS["generator_actions"])

    colorings = None
    if cfg.hybe_every and idx % cfg.hybe_every == 0:
        p3 = third_params(ctx, cfg.seed, idx, cfg.radius)
        try:
            col = derive_colorings(p1, p2, p3)
            checks["set_ybe"] = check_entry(col.finals_deviation(), THRESHOLDS["set_ybe"])
            c, dev, info = hybe_residual(col, intw)
            checks["hybe_residual"] = check_entry(dev, THRESHOLDS["hybe_residual"])
            checks["hybe_c_modulus"] = check_entry(
                abs(abs(c) - 1), THRESHOLDS["hybe_c_modulus"])
            trial["hybe"] = {"c": complex_pair(c),
                             "c_argument": float(np.angle(c)),
                             "residual": residual_entry(dev),
                             "info": {k: (float(v) if isinstance(v, (int, float))
                                          else v) for k, v in info.items()}}
            colorings = col
        except HolobraidError as exc:
            trial["hybe"] = {"rejected": True, "reason": str(exc)}

    trial["evidence"] = evidence
    trial["pass"] = all(c["pass"] for c in checks.values())
    det_sample = (DetSample(pair.chi, closed.log_abs_det, closed.ell)
                  if closed is not None else None)
    return TrialRun(trial, intw, colorings, det_sample)


def _aggregate_adjudications(trials: list[dict], ctx: RootContext) -> dict:
    """Merge per-trial variant evidence into one verdict per formula."""
    agg: dict[str, dict[str, float]] = {}
    for tr in trials:
        for formula, variants in tr["evidence"].items():
            slot = agg.setdefault(formula, {})
            for v, r in variants.items():
                slot[v] = max(slot.get(v, 0.0), float(r))
    agg["phi_step_factor"] = phi_variant_evidence(ctx)
    out = {}
    for formula, variants in agg.items():
        passing = sorted(v for v, r in variants.items() if r < ADJUDICATION_PASS)
        out[formula] = {
            "variants": {v: residual_entry(r) for v, r in sorted(variants.items())},
            "passing": passing,
            "chosen": passing[0] if len(passing) == 1 else None,
            "resolved": len(passing) == 1,
        }
    return out


def check_summary(trials: list[dict]) -> dict:
    """Per check name, sorted: how many trials ran it, passed it, and the
    worst residual."""
    stats: dict[str, dict] = {}
    for tr in trials:
        for name, c in tr["checks"].items():
            st = stats.setdefault(name, {"count": 0, "passed": 0, "max_residual": 0.0})
            st["count"] += 1
            st["passed"] += int(c["pass"])
            st["max_residual"] = max(st["max_residual"], c["residual"]["value"])
    for st in stats.values():
        st["max_residual"] = residual_entry(st["max_residual"])
    return dict(sorted(stats.items()))


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Execute the whole battery; returns (exit code, report dict).

    Writes nothing: report.write_report saves the report.
    """
    ctx = primitive_root(cfg.ell)
    report = new_report(cfg.to_dict())
    trials, det_samples = [], []
    for i in range(cfg.trials):
        record, _, _, det_sample = run_trial(cfg, ctx, i)
        trials.append(record)
        if det_sample is not None:
            det_samples.append(det_sample)
    report["det_probe"] = det_exponent_probe(det_samples) if det_samples else {
        "inconclusive": True, "reason": "closed-form route disabled"}
    report["adjudications"] = _aggregate_adjudications(trials, ctx)
    report["trials"] = trials

    n_pass = sum(tr["pass"] for tr in trials)
    adj_ok = all(a["resolved"] for a in report["adjudications"].values())
    probe = report["det_probe"]
    probe_ok = bool(probe.get("inconclusive")) or \
        (probe.get("core_fit") or {}).get("fit_residual", 1.0) < 1e-6
    n_hybe = sum("hybe" in tr for tr in trials)
    n_hybe_rejected = sum(tr.get("hybe", {}).get("rejected", False) for tr in trials)
    report["summary"] = {
        "trials": cfg.trials,
        "passed": int(n_pass),
        "failed": int(cfg.trials - n_pass),
        "hybe_triples": int(n_hybe),
        "hybe_rejected": int(n_hybe_rejected),
        "adjudications_resolved": bool(adj_ok),
        "det_probe_ok": bool(probe_ok),
        "checks": check_summary(trials),
    }
    exit_code = 0 if (n_pass == cfg.trials and adj_ok and probe_ok) else 1
    return exit_code, report
