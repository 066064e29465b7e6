"""Command-line front end.

Subcommands:
  suite      full per-trial battery with JSON report
  braid-map  the suite's character checks of trial i's pair and the
             set-theoretic Yang-Baxter check of its triple (no matrix solves)
  rmatrix    suite trial i without its triple; --dump-dir writes the first
             representation's K, L, E, F and the trial's R as TSV
  hybe       suite trial i with its triple, and the triple's 15 colorings

Each command builds one JSON report: --report writes it to a file, and
without --report every command but suite prints it.  braid-map, rmatrix
and hybe run the suite's own trial code, and the suite decides every
trial's verdict (suite.gates and suite.trial_passes).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import dumps
from .cyclic import z0_character
from .report import emit_report, new_report, params_entry, write_report
from .roots import primitive_root
from .sampling import sample_params
from .suite import (ROUTES, SuiteConfig, character_checks, check_summary, gates,
                    run_suite, run_trial, run_triple, trial_passes)


def _add_common(p: argparse.ArgumentParser, handler) -> None:
    """--ell, --seed, --radius, --report, the handler and p.error as usage_error."""
    p.set_defaults(handler=handler, usage_error=p.error)
    p.add_argument("--ell", type=int, default=3, help="odd root-of-unity degree")
    p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p.add_argument("--radius", type=float, default=0.1,
                   help="half-width of the log-space sampling box")
    p.add_argument("--report", default=None, help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="holobraid",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the full verification battery")
    _add_common(p, _cmd_suite)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--route", choices=ROUTES, default="both")
    p.add_argument("--hybe-every", type=int, default=5,
                   help="run a triple test every N-th trial (0 disables)")

    p = sub.add_parser("braid-map", help="character and coloring checks only")
    _add_common(p, _cmd_braid_map)
    p.add_argument("--trials", type=int, default=50)

    p = sub.add_parser("rmatrix", help="one suite trial without its triple")
    _add_common(p, _cmd_trial)
    p.add_argument("--trial", type=int, default=0, help="trial index to sample")
    p.add_argument("--route", choices=ROUTES, default="both")
    p.add_argument("--dump-dir", default=None,
                   help="write the trial's K, L, E, F and R as TSV files here")

    p = sub.add_parser("hybe", help="one suite trial with its Yang-Baxter triple")
    _add_common(p, _cmd_trial)
    p.add_argument("--trial", type=int, default=0, help="trial index to sample")
    p.add_argument("--route", choices=ROUTES, default="oracle")
    return ap


def _cmd_suite(args, cfg: SuiteConfig) -> tuple[int, dict]:
    code, report = run_suite(cfg)
    s = report["summary"]
    print(f"suite ell={cfg.ell}: {s['passed']}/{s['trials']} trials passed, "
          f"adjudications_resolved={s['adjudications_resolved']}, "
          f"det_probe_ok={s['det_probe_ok']}")
    return code, report


def _cmd_braid_map(args, cfg: SuiteConfig) -> tuple[int, dict]:
    ctx = primitive_root(cfg.ell)
    report = new_report({"command": "braid-map", "ell": cfg.ell,
                         "seed": cfg.seed, "trials": cfg.trials,
                         "radius": cfg.radius})
    trials = report["trials"]
    for i in range(cfg.trials):
        p1, p2 = sample_params(ctx, cfg.seed, i, radius=cfg.radius, count=2)
        residuals, evidence = character_checks(z0_character(p1), z0_character(p2))
        triple, record, _ = run_triple(cfg.seed, i, cfg.radius, p1, p2)
        trial = {"index": i, "checks": gates({**residuals, **triple}), "evidence": evidence}
        if record:  # a coloring chain that raised
            trial["hybe"] = record
        trial["pass"] = trial_passes(trial)
        trials.append(trial)
    n_pass = sum(tr["pass"] for tr in trials)
    report["summary"] = {"trials": cfg.trials, "passed": n_pass,
                         "checks": check_summary(trials)}
    return (0 if n_pass == cfg.trials else 1), report


def _cmd_trial(args, cfg: SuiteConfig) -> tuple[int, dict]:
    """rmatrix and hybe: suite trial args.trial, with its triple for hybe."""
    trial, intw, col, _ = run_trial(cfg, primitive_root(cfg.ell), args.trial)
    out = {"command": args.command, "ell": cfg.ell, "seed": cfg.seed,
           "radius": cfg.radius, "route": cfg.route, **trial}
    if col is not None:
        out["colorings"] = {f.name: params_entry(getattr(col, f.name))
                            for f in fields(col)}
    dump_dir = getattr(args, "dump_dir", None)
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
        stem = os.path.join(dump_dir, f"trial{args.trial}_")
        for kind, m in zip("KLEF", intw.pair.reps[0].as_tuple()):
            dumps.dump_rep_matrix(f"{stem}{kind}.tsv", m, kind, intw.pair.in_params[0])
        dumps.dump_intertwiner(f"{stem}R.tsv", intw)
    return (0 if trial["pass"] else 1), out


def main(argv=None) -> int:
    """Run one command; a setting out of range is a usage error before any work."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "trial", 0) < 0:
            raise ValueError(f"--trial must be >= 0, got {args.trial}")
        if args.command in ("rmatrix", "hybe"):  # one suite trial, with its triple for hybe
            cfg = SuiteConfig(args.ell, 1, args.seed, args.radius, args.route,
                              int(args.command == "hybe"))
        else:
            cfg = SuiteConfig(**{f.name: getattr(args, f.name)
                                 for f in fields(SuiteConfig) if hasattr(args, f.name)})
    except ValueError as exc:
        args.usage_error(str(exc))
    try:
        code, report = args.handler(args, cfg)
        if args.report:
            write_report(report, args.report)
            print(f"report written to {args.report}")
        elif args.command != "suite":
            print(emit_report(report))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
