"""Trial orchestration: per-trial check battery, adjudications, reports.

Each trial is a pure function of (seed, trial index, config), so a
report is identical for a fixed config up to its timestamp.

Every trial verdict is decided here.  Each stage returns residuals; gates
turns them into the record's checks at THRESHOLDS, and trial_passes fails
a trial on a failing gate or a triple that run_triple rejected (a
HolobraidError, recorded with its reason).  braid-map, rmatrix and hybe
call the same three.  A trial's evidence is one flat table
{formula: {reading: residual}}, merged from one producer per stage: the
representation (_rep_evidence), the character pair (character_checks),
the closed form (_closed_form_evidence) and the action intertwiner
(check_generator_action).  A gate over an adjudicated formula reads its
evidence, and a record holds only values that can move with the pair,
each once.  A NaN residual is recorded as inf (residual_value,
worst_residual), like a reading that raises, so that it fails its gate
and is never adjudicated as passing.  _aggregate_adjudications keeps each
reading's worst residual over the trials, adds phi_step_factor once per
suite, and resolves each formula to the readings under ADJUDICATION_PASS.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .cyclic import (RepParams, build_rep, ell_powers, f_weights, gauge_U,
                     gauge_conjugation_residual, z0_character)
from .errors import HolobraidError
from .glstar import (Z0Char, beta_forward, beta_inverse, char_distance,
                     conserved_quantities, glstar_multiply, matrix_route_beta)
from .hybe import ColoringTriple, derive_colorings, hybe_residual
from .intertwiner import (DetSample, Intertwiner, PairContext, batch_size,
                          check_generator_action, closed_form_R,
                          compare_up_to_scalar, det_exponent_probe,
                          r1_conjugation_residuals, solve_intertwiner,
                          solve_intertwiners, solved)
from .qseries import phi_orbit
from .report import (check_entry, complex_pair, new_report, params_entry,
                     residual_entry, residual_value, worst_residual)
from .roots import RootContext, check_degree, primitive_root
from .sampling import sample_params

# Gate thresholds; keys double as check names in the per-trial report.
THRESHOLDS = {
    "rep_relations": 1e-9,
    "central_powers": 1e-9,
    "casimir_scalar": 1e-9,
    "gauge_conjugation": 1e-11,
    "braiding_round_trip": 1e-10,
    "braiding_product": 1e-10,
    "conserved_T": 1e-10,
    "matrix_route": 1e-9,
    "oracle_residual": 1e-9,
    "closed_form_residual": 1e-9,
    "route_deviation": 1e-8,
    "generator_actions": 1e-8,
    "set_ybe": 1e-9,
    "hybe_residual": 1e-8,
    "hybe_c_modulus": 1e-8,
}
ADJUDICATION_PASS = 1e-8
ROUTES = ("oracle", "closed-form", "both")  # SuiteConfig.route


@dataclass
class SuiteConfig:
    """A run's settings and their one check: a ValueError names the setting
    and its value unless ell passes check_degree, trials >= 1, hybe_every
    >= 0 and seed in [0, 2^64) are integers (numpy's too, not bool), radius
    is a real number in (0, 1] (not bool) and route is in ROUTES.  Numbers
    are stored as Python int and float."""

    ell: int
    trials: int
    seed: int
    radius: float = 0.1
    route: str = "both"
    hybe_every: int = 5

    def __post_init__(self):
        check_degree(self.ell)
        self.ell = int(self.ell)
        for name, low, high in (("trials", 1, math.inf), ("seed", 0, 2**64),
                                ("hybe_every", 0, math.inf)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
                    or not low <= value < high:
                bound = f">= {low}" if high == math.inf else "in [0, 2^64)"
                raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
            setattr(self, name, int(value))
        r = self.radius
        if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0 < r <= 1:
            raise ValueError(f"radius must be a real number in (0, 1], got {r!r}")
        self.radius = float(r)
        if self.route not in ROUTES:
            raise ValueError(f"route must be one of {', '.join(ROUTES)}, got {self.route!r}")


def _scale(*vals) -> float:
    return max(1.0, *(abs(v) for v in vals))


def rep_checks(p: RepParams) -> dict[str, float]:
    """Residuals of the defining relations and central structure of one rep."""
    ctx, t = p.ctx, p.ctx.eps
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
    return {"rep_relations": float(rel), "central_powers": float(central),
            "casimir_scalar": float(casimir)}


def _rep_evidence(p: RepParams) -> dict[str, dict[str, float]]:
    """gauge_scale and f_power_prefactor of one representation."""
    _, scalar = ell_powers(p)[3]  # F^ell, shared with rep_checks
    ch = z0_character(p)
    f_powers = {"with_inverse_power": ch.phi, "bare": ch.phi * ch.eta}  # bare: no y^-ell in phi
    U, z = gauge_U(p)
    # the rejected reading: the single-z prefactor U_nn = z prod_(m<=n) c_m^-1
    gauges = {"geometric": (U, z), "constant": (np.diag(z / np.cumprod(f_weights(p))), z)}
    return {"gauge_scale": {name: gauge_conjugation_residual(p, gauge)
                            for name, gauge in gauges.items()},
            "f_power_prefactor": {name: float(abs(val - scalar) / _scale(scalar))
                                  for name, val in f_powers.items()}}


def _char_dev(a: Z0Char, b: Z0Char) -> float:
    return char_distance(a, b) / _scale(b.kappa, b.lam, b.eta, b.phi)


def character_checks(cx: Z0Char, cy: Z0Char) -> tuple[dict, dict]:
    """(residuals, evidence) of one character pair.

    The evidence tables are braiding_correction_sign (slot-wise
    conservation of T under both correction signs) and matrix_route (the
    deviation of every conjugation-route reading from the character route;
    inf for each reading of a variant whose evaluation raises).  The
    residuals, gated by the caller (gates), are braiding_round_trip,
    braiding_product, conserved_T (the "minus" reading) and matrix_route
    (the best reading).  Each braiding of (cx, cy) is computed once.
    """
    braided = {name: (beta_forward(cx, cy, sign=sign), beta_inverse(cx, cy, sign=sign))
               for sign, name in ((-1, "minus"), (+1, "plus"))}
    traces = [conserved_quantities(c)[0] for c in (cx, cy)]

    def drift(outs) -> float:
        """Worst slot-wise relative change of T from (cx, cy) to the
        braided pairs outs."""
        return worst_residual(*(abs(conserved_quantities(o)[0] - T) / _scale(T)
                                for out in outs for o, T in zip(out, traces)))

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
                "braiding_correction_sign": {name: drift(outs)
                                             for name, outs in braided.items()}}

    rx, ry = beta_inverse(p, q)
    sx, sy = beta_forward(P, Q)
    residuals = {
        "braiding_round_trip": worst_residual(_char_dev(rx, cx), _char_dev(ry, cy),
                                              _char_dev(sx, cx), _char_dev(sy, cy)),
        "braiding_product": _char_dev(glstar_multiply(p, q), glstar_multiply(cy, cx)),
        "conserved_T": evidence["braiding_correction_sign"]["minus"],
        "matrix_route": min(mre.values()),
    }
    return residuals, evidence


def phi_variant_evidence(ctx: RootContext) -> dict[str, float]:
    """Orbit-vs-reference agreement for both step-factor readings.  The
    reference is Phi's finite product exp(-sum_m (m/ell) log(1 - eps^(2m) z))
    at every probe's orbit points at once.  Each |z| <= 0.28 puts every factor
    in the right half-plane, where the principal log is the branch of Phi's
    Taylor series (phi_series); the tests compare the two."""
    probes = [0.12, 0.2 + 0.1j, -0.15 + 0.07j, 0.28]
    pts = np.array(probes)[:, None] * ctx.pow(2 * np.arange(ctx.ell) - 2)  # z_k = s eps^(2k-2)
    m = np.arange(1, ctx.ell + 1)
    ref = np.exp(-(m / ctx.ell * np.log(1 - ctx.pow(2 * m) * pts[..., None])).sum(axis=-1))
    ref = ref / ref[:, :1]
    out = {}
    for variant in ("direct", "reciprocal_argument"):
        vals = np.array([phi_orbit(ctx, s, variant=variant) for s in probes])
        out[variant] = worst_residual(*np.max(np.abs(vals - ref), axis=1))
    return out


def _closed_form_evidence(pair: PairContext, r1res: dict[str, float]) -> dict:
    """assembly_scalars and r1_clock_conjugation of a closed-form pair, from
    its chi data, its band distance and its r1_conjugation_residuals."""
    cd = pair.chi
    return {
        "assembly_scalars": {
            "derived": worst_residual(cd.chi1_mismatch, cd.chi2_mismatch,
                                      pair.band_dist, cd.sigma_power_residual),
            **{f"legacy_{k}": v for k, v in cd.legacy_relation_residuals.items()}},
        "r1_clock_conjugation": r1res,
    }


def gates(residuals: dict[str, float]) -> dict[str, dict]:
    """Each {name: residual} as its gate at THRESHOLDS[name], in the order given."""
    return {name: check_entry(res, THRESHOLDS[name]) for name, res in residuals.items()}


def trial_passes(trial: dict) -> bool:
    """A trial record's verdict: every gate passes and no triple was rejected."""
    return (all(c["pass"] for c in trial["checks"].values())
            and not trial.get("hybe", {}).get("rejected", False))


def third_params(ctx: RootContext, seed: int, idx: int, radius: float) -> RepParams:
    """The third coloring of trial idx's triple, drawn at index idx + 2^32."""
    p3, = sample_params(ctx, seed, idx + (1 << 32), radius=radius, count=1)
    return p3


def run_triple(seed: int, idx: int, radius: float, p1: RepParams, p2: RepParams,
               intw: Intertwiner | None = None) -> tuple[dict, dict, ColoringTriple | None]:
    """Trial idx's triple (p1, p2, third_params): (residuals, record, colorings).

    The third coloring is drawn at p1's root, so a triple has one root.
    set_ybe of the coloring chain and, given the trial's intertwiner intw,
    hybe_residual and hybe_c_modulus, with c in the record ({} without
    intw).  A HolobraidError rejects the triple: the record is
    {"rejected": True, "reason": ...}, beside the residuals computed before it.
    """
    residuals: dict[str, float] = {}
    try:
        col = derive_colorings(p1, p2, third_params(p1.ctx, seed, idx, radius))
        residuals["set_ybe"] = col.finals_deviation()
        if intw is None:
            return residuals, {}, col
        c, dev = hybe_residual(col, intw)
    except HolobraidError as exc:
        return residuals, {"rejected": True, "reason": str(exc)}, None
    residuals.update(hybe_residual=dev, hybe_c_modulus=abs(abs(c) - 1))
    return residuals, {"c": complex_pair(c)}, col


class TrialRun(NamedTuple):
    """What run_trial built."""

    record: dict  # the trial's report record
    intertwiner: Intertwiner  # the one the action checks and the triple read
    colorings: ColoringTriple | None  # None unless a triple ran and was not rejected
    det_sample: DetSample | None  # for det_exponent_probe; None on the oracle route


def run_trial(cfg: SuiteConfig, ctx: RootContext, idx: int, pair: PairContext | None = None,
              outcome: Intertwiner | Exception | None = None) -> TrialRun:
    """Full check battery for one trial; returns its record with what it built.

    The pair's ingredients are built once (one PairContext), shared by both
    routes and carried by their intertwiners to every check that reads
    them; the trial's intertwiner is the triple's (x, y) factor, and one
    coloring chain serves both triple checks.  run_suite may hand over the
    pair and its solve_intertwiners outcome (raised here if an error).
    """
    p1, p2 = pair.in_params if pair else sample_params(ctx, cfg.seed, idx, radius=cfg.radius,
                                                       count=2)
    rep_evidence = _rep_evidence(p1)
    residuals = {**rep_checks(p1), "gauge_conjugation": rep_evidence["gauge_scale"]["geometric"]}
    char_residuals, evidence = character_checks(z0_character(p1), z0_character(p2))
    residuals.update(char_residuals)
    evidence.update(rep_evidence)

    pair = pair or PairContext(p1, p2)
    trial: dict = {"index": idx,
                   "params": [params_entry(p1), params_entry(p2)],
                   "band_exp": pair.band_exp,
                   "checks": None}  # the gates, filled in last

    oracle = closed = None
    if cfg.route in ("oracle", "both"):
        oracle = solve_intertwiner(p1, p2, pair=pair) if outcome is None else solved(outcome)
        residuals["oracle_residual"] = oracle.residual
        trial["oracle"] = {"singular_gap": float(oracle.singular_gap)}
    if cfg.route in ("closed-form", "both"):
        closed = closed_form_R(p1, p2, pair=pair)
        residuals["closed_form_residual"] = closed.residual
        cd = pair.chi
        trial["chi"] = {
            "chi1": complex_pair(cd.chi1), "chi2": complex_pair(cd.chi2),
            "s": complex_pair(cd.s), "sigma": complex_pair(cd.sigma),
            "sigma_power_residual": residual_entry(cd.sigma_power_residual),
        }
        evidence.update(_closed_form_evidence(pair, r1_conjugation_residuals(closed)))
    if cfg.route == "both":
        _, dev = compare_up_to_scalar(oracle.blocks, closed.blocks)
        residuals["route_deviation"] = dev
        trial["route_comparison"] = {"deviation": residual_entry(dev)}

    # action checks run on whichever route produced a matrix
    intw = oracle if oracle is not None else closed
    actions = check_generator_action(intw)
    evidence.update(actions)
    evidence = {formula: {v: residual_value(r) for v, r in readings.items()}
                for formula, readings in evidence.items()}
    residuals["generator_actions"] = max(min(evidence[f].values()) for f in actions)

    colorings = None
    if cfg.hybe_every and idx % cfg.hybe_every == 0:
        triple, trial["hybe"], colorings = run_triple(cfg.seed, idx, cfg.radius, p1, p2, intw)
        residuals.update(triple)

    trial["evidence"] = evidence
    trial["checks"] = gates(residuals)
    trial["pass"] = trial_passes(trial)
    det_sample = DetSample(pair.chi, closed.log_abs_det, ctx) if closed is not None else None
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
    """Execute the whole battery; returns (exit code, report dict) and
    writes nothing: report.write_report saves the report.

    Where an oracle batch holds several pairs (batch_size), the oracle
    routes run trials a batch at a time: the chunk's PairContexts are built
    and solved as one batch (solve_intertwiners), then each trial runs on
    its pair and outcome, a failed solve raising at its own trial."""
    ctx = primitive_root(cfg.ell)
    report = new_report(asdict(cfg))
    trials, det_samples = [], []
    size = batch_size(cfg.ell) if cfg.route != "closed-form" else 1
    for start in range(0, cfg.trials, size):
        chunk = range(start, min(start + size, cfg.trials))
        pairs = outcomes = [None] * len(chunk)
        if size > 1:  # the sampler braided each pair already, so no PairContext raises
            pairs = [PairContext(*sample_params(ctx, cfg.seed, i, radius=cfg.radius, count=2))
                     for i in chunk]
            outcomes = solve_intertwiners(pairs)
        for i, pair, outcome in zip(chunk, pairs, outcomes):
            record, _, _, det_sample = run_trial(cfg, ctx, i, pair, outcome)
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
    report["summary"] = {
        "trials": cfg.trials,
        "passed": int(n_pass),
        "hybe_triples": sum("hybe" in tr for tr in trials),
        "hybe_rejected": sum(tr.get("hybe", {}).get("rejected", False) for tr in trials),
        "adjudications_resolved": bool(adj_ok),
        "det_probe_ok": bool(probe_ok),
        "checks": check_summary(trials),
    }
    return (0 if (n_pass == cfg.trials and adj_ok and probe_ok) else 1), report
