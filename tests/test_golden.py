"""Seed-42 verdicts under a committed golden file.

tests/golden/verdicts.json holds, for four seed-42 suite runs with a
triple on every trial, everything that decides or states a verdict: the
exit code, the summary counts, each adjudication's passing readings and
choice, and each trial's verdict, band exponent, failing checks and
whether its triple was rejected.  It holds no residual, so a change that
moves residuals at rounding leaves it equal, and one that moves a verdict
or an adjudication choice fails here.

Regenerating the file is a data change: list every entry that moved.
Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
from pathlib import Path

from holobraid.suite import SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "golden" / "verdicts.json"

# run name: the SuiteConfig settings beside trials=20, seed=42, hybe_every=1
RUNS = {
    "ell3": {"ell": 3},
    "ell5": {"ell": 5},
    "ell7": {"ell": 7},
    "ell3-radius1": {"ell": 3, "radius": 1.0},
}
SUMMARY = ("passed", "hybe_triples", "hybe_rejected", "adjudications_resolved", "det_probe_ok")


def verdicts(code: int, report: dict) -> dict:
    """The verdict fields of one suite run's (exit code, report)."""
    return {
        "exit_code": code,
        "summary": {k: report["summary"][k] for k in SUMMARY},
        "adjudications": {formula: {"chosen": a["chosen"], "passing": a["passing"]}
                          for formula, a in report["adjudications"].items()},
        "trials": [{"pass": tr["pass"], "band_exp": tr["band_exp"],
                    "failing": sorted(n for n, c in tr["checks"].items() if not c["pass"]),
                    "hybe_rejected": tr.get("hybe", {}).get("rejected", False)}
                   for tr in report["trials"]],
    }


def compute() -> dict:
    return {name: verdicts(*run_suite(SuiteConfig(trials=20, seed=42, hybe_every=1, **kw)))
            for name, kw in RUNS.items()}


def dumps(data: dict) -> str:
    """JSON with one line per trial and per adjudication, so that a moved
    verdict is a one-line diff."""
    def block(items, indent):
        pad = " " * indent
        return "{\n" + ",\n".join(f"{pad} {json.dumps(k)}: {v}" for k, v in items) + f"\n{pad}}}"

    runs = []
    for name, run in sorted(data.items()):
        trials = ",\n".join(f"   {json.dumps(tr, sort_keys=True)}" for tr in run["trials"])
        adjudications = block(((f, json.dumps(a, sort_keys=True))
                               for f, a in sorted(run["adjudications"].items())), 2)
        runs.append((name, block([("adjudications", adjudications),
                                  ("exit_code", run["exit_code"]),
                                  ("summary", json.dumps(run["summary"], sort_keys=True)),
                                  ("trials", f"[\n{trials}\n  ]")], 1)))
    return block(runs, 0) + "\n"


def test_seed42_verdicts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert set(got) == set(golden)
    for name in RUNS:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dumps(compute()))
    print(f"wrote {GOLDEN}")
