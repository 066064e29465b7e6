"""Workload definitions and the verdict-level correctness gate.

Pure Python with no holobraid or numpy import, so the harness (run.py) can
use it without loading the program it measures.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_ADJUDICATIONS = json.loads(
    (HERE / "expected_adjudications.json").read_text())["chosen"]

# Oracle-vs-closed-form deviation allowed in the side probe of closed-form
# workloads: the suite's own route tolerance for degrees it does not list.
PROBE_ROUTE_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One `holobraid suite` configuration; the seed comes from the run."""

    ell: int
    trials: int
    route: str
    hybe_every: int
    # the worker.Reference kernel whose kind of work dominates the suite:
    # its time, measured beside each suite call, scales the reported timings
    reference: str
    radius: float = 0.1

    def argv(self, seed: int, report_path: str) -> list[str]:
        return ["suite", "--ell", str(self.ell), "--radius", repr(self.radius),
                "--route", self.route, "--hybe-every", str(self.hybe_every),
                "--trials", str(self.trials), "--seed", str(seed),
                "--report", report_path]

    @property
    def triples(self) -> int:
        if not self.hybe_every:
            return 0
        return len(range(0, self.trials, self.hybe_every))

    @property
    def operations(self) -> int:
        """Operations one suite call attempts: trials plus Yang-Baxter triples."""
        return self.trials + self.triples


WORKLOADS = {
    "suite-l3-many": Workload(ell=3, trials=100, route="both", hybe_every=5,
                              reference="interpreter"),
    "suite-l7-oracle": Workload(ell=7, trials=5, route="both", hybe_every=5,
                                reference="blas"),
    "triples-l9-closed": Workload(ell=9, trials=1, route="closed-form",
                                  hybe_every=1, reference="blas"),
}


def suite_seed(run_seed: int, k: int, part: int = 0) -> int:
    """Seed of the k-th suite call of a run's part-th worker process."""
    return (run_seed << 24) + (part << 16) + k


def gate(exit_code: int, report: dict) -> list[str]:
    """Reasons the suite verdict is wrong; empty when the run counts as correct.

    Only verdicts are compared, never report bytes or residual values, which
    a correct optimisation may shift.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    summary = report.get("summary", {})
    if summary.get("passed") != summary.get("trials"):
        reasons.append(f"{summary.get('passed')}/{summary.get('trials')} trials passed")
    if not summary.get("det_probe_ok"):
        reasons.append("det_probe_ok is false")
    adjudications = report.get("adjudications", {})
    for formula, chosen in EXPECTED_ADJUDICATIONS.items():
        got = adjudications.get(formula, {})
        if not got.get("resolved") or got.get("chosen") != chosen:
            reasons.append(f"adjudication {formula}: chosen {got.get('chosen')!r}, "
                           f"expected {chosen!r}")
    for formula in sorted(set(adjudications) - set(EXPECTED_ADJUDICATIONS)):
        reasons.append(f"adjudication {formula} is not in the expected table")
    return reasons


def failed_operations(report: dict) -> int:
    """Trials that failed a check plus triples that were rejected or failed."""
    failed = 0
    for trial in report.get("trials", []):
        failed += not trial.get("pass", False)
        hybe = trial.get("hybe")
        if hybe is not None:
            checks = trial.get("checks", {})
            failed += bool(hybe.get("rejected")) or not all(
                checks[name]["pass"] for name in ("set_ybe", "hybe_residual",
                                                  "hybe_c_modulus")
                if name in checks)
    return failed


def trial_accuracy(report: dict) -> dict[str, list[float]]:
    """Per-trial accuracy digits of one suite report (larger is better).

    check_margin_digits: min over the trial's gated checks of
    log10(threshold/residual); route_agreement_digits: -log10 of the
    oracle-vs-closed-form deviation; oracle_gap_digits: log10 of the oracle's
    singular-value gap.  The last two exist only when the suite ran both
    routes.  A run reports the median over all its trials, which stays steady
    from seed to seed where the per-suite minimum does not.
    """
    out = {"check_margin_digits": [], "route_agreement_digits": [],
           "oracle_gap_digits": []}
    for trial in report.get("trials", []):
        margins = [math.log10(check["threshold"] / check["residual"]["value"])
                   for check in trial.get("checks", {}).values()
                   if check["residual"]["value"] > 0]
        if margins:
            out["check_margin_digits"].append(min(margins))
        if "route_comparison" in trial:
            out["route_agreement_digits"].append(
                -math.log10(trial["route_comparison"]["deviation"]["value"]))
        if "oracle" in trial:
            out["oracle_gap_digits"].append(math.log10(trial["oracle"]["singular_gap"]))
    return {k: v for k, v in out.items() if v}
