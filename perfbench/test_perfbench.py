"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spans
import worker
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = Workload(ell=3, trials=5, route="both", hybe_every=2,
                 reference="interpreter")


@pytest.fixture(scope="module")
def workdir():
    worker.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK_DIR) as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def _bindings():
    """Every module attribute that holds one of the trace targets."""
    import numpy.linalg
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.startswith("holobraid")]
    modules.append(numpy.linalg)
    return {(module.__name__, attr): value
            for module in modules for attr, value in vars(module).items()
            if callable(value) and any(attr == fn for _, fn in spans.TARGETS)}


def test_seed_suite_passes_gate(cli, workdir):
    record = worker.run_suite_call(cli, SMALL, 42, str(workdir / "r.json"))
    assert record["reasons"] == []
    assert record["failed"] == 0
    assert record["attempted"] == 5 + 3


def test_negative_control_radius_one_is_incorrect(cli, workdir):
    # at radius 1.0, 3 of these 20 trials fail their checks
    control = Workload(ell=5, trials=20, route="both", hybe_every=5,
                       reference="interpreter", radius=1.0)
    record = worker.run_suite_call(cli, control, 7, str(workdir / "r.json"))
    assert record["reasons"]
    assert record["failed"] >= 3


def test_escaped_error_is_failed_operation(cli, workdir, monkeypatch):
    from holobraid.errors import NoIntertwinerError

    def broken(cfg):
        raise NoIntertwinerError("forced")

    monkeypatch.setattr(cli, "run_suite", broken)
    record = worker.run_suite_call(cli, SMALL, 1, str(workdir / "r.json"))
    assert record["failed"] == record["attempted"] == SMALL.operations
    assert "NoIntertwinerError: forced" in record["reasons"][0]


def test_tracer_patches_call_sites_and_restores_them(cli):
    import holobraid.cli
    import holobraid.hybe
    import holobraid.intertwiner
    import holobraid.suite
    import numpy.linalg

    before = _bindings()
    call_sites = [(holobraid.suite, "solve_intertwiner"),
                  (holobraid.hybe, "solve_intertwiner"),
                  (holobraid.intertwiner, "build_rep"),
                  (holobraid.cli, "run_suite"),
                  (numpy.linalg, "eigh")]
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            for module, attr in call_sites:
                assert getattr(module, attr) is not before[(module.__name__, attr)]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_account_for_traced_wall(cli, workdir):
    tracer = spans.Tracer()
    record = worker.run_suite_call(cli, SMALL, 3, str(workdir / "r.json"), tracer)
    layers = record["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert layers["trace.uncovered_s"] >= 0
    assert self_total + layers["trace.uncovered_s"] == pytest.approx(
        record["wall_s"], rel=1e-9, abs=1e-9)
    assert layers["suite.run_trial.calls"] == SMALL.trials
    assert layers["suite.run_suite.calls"] == 1
    assert all(v >= -1e-12 for k, v in layers.items() if k.endswith("_s"))
    trial_of = {i: s[4] for i, s in enumerate(tracer.spans)}
    for name, _, _, parent, trial in tracer.spans:
        if name == "intertwiner.solve_intertwiner" and parent >= 0:
            assert trial is not None and trial == trial_of[parent]


def test_summarize_nested_same_name_counts_busy_once():
    s = [("suite.rep_checks", 0.0, 4.0, -1, None),
         ("suite.rep_checks", 1.0, 2.0, 0, None),
         ("cyclic.build_rep", 2.5, 3.0, 0, None)]
    out = spans.summarize(s, wall_s=5.0)
    assert out["suite.rep_checks.calls"] == 2
    assert out["suite.rep_checks.busy_s"] == 4.0
    assert out["suite.rep_checks.self_s"] == 3.0 - 0.5 + 1.0
    assert out["trace.uncovered_s"] == 1.0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "suite-l3-many", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert [m["name"] for m in spec[key]] == list(result["metrics"])
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_workloads_match_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_without_source_exits_nonzero_and_prints_no_result():
    with tempfile.TemporaryDirectory(dir=worker.WORK_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _bench("--workload", "suite-l3-many", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
