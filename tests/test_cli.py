import json

import numpy as np
import pytest

import holobraid.cli
import holobraid.suite
from holobraid.cli import main
from holobraid.errors import AssemblyError
from holobraid.report import emit_report, params_entry
from holobraid.roots import primitive_root
from holobraid.suite import SuiteConfig, run_trial
from reference import load_matrix


def _trial_record(idx, **cfg):
    """run_trial's record at idx, as the JSON report carries it."""
    run = run_trial(SuiteConfig(trials=idx + 1, **cfg), primitive_root(cfg["ell"]), idx)
    return json.loads(emit_report(run.record))


def test_suite_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["suite", "--ell", "3", "--trials", "3", "--seed", "42",
                 "--report", str(out)])
    assert code == 0
    assert "3/3 trials passed" in capsys.readouterr().out
    rep = json.loads(out.read_text())
    assert rep["config"]["seed"] == 42
    assert rep["summary"]["failed"] == 0


def test_even_degree_is_usage_error(capsys):
    # and every other out-of-range value: each would run, check nothing or
    # end in a traceback
    for argv in (["suite", "--ell", "4", "--trials", "1", "--seed", "0"],
                 ["braid-map", "--trials", "0"],
                 ["suite", "--trials", "0"],
                 ["suite", "--trials", "1", "--hybe-every", "-1"],
                 ["suite", "--trials", "1", "--radius", "2"],
                 ["rmatrix", "--radius", "0"],
                 ["series", "--order", "0"],
                 ["series", "--order", "-3"],
                 ["rmatrix", "--trial", "-1"],
                 ["hybe", "--trial", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_route_both_emits_comparison(tmp_path):
    out = tmp_path / "r.json"
    assert main(["suite", "--ell", "3", "--trials", "2", "--seed", "1",
                 "--route", "both", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert all("route_comparison" in tr for tr in rep["trials"])


def test_braid_map_command(tmp_path):
    out = tmp_path / "b.json"
    assert main(["braid-map", "--ell", "3", "--trials", "4", "--seed", "6",
                 "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["trials"]) == 4
    assert rep["summary"]["passed"] == 4
    assert rep["summary"]["checks"]["set_ybe"]["max_residual"]["value"] < 1e-9


def test_braid_map_checks_are_the_suites(tmp_path):
    out = tmp_path / "b.json"
    assert main(["braid-map", "--ell", "5", "--trials", "3", "--seed", "9",
                 "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    names = ("braiding_round_trip", "braiding_product", "conserved_T",
             "conserved_Dt", "identity_fixed_points", "matrix_route")
    for i, tr in enumerate(rep["trials"]):
        suite_checks = _trial_record(i, ell=5, seed=9, route="closed-form",
                                     hybe_every=1)["checks"]
        assert set(tr["checks"]) == {*names, "set_ybe"}
        assert tr["checks"] == {k: suite_checks[k] for k in tr["checks"]}


def test_rmatrix_command(tmp_path):
    d = tmp_path / "dumps"
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--ell", "3", "--seed", "5", "--dump-dir", str(d),
                 "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["route_comparison"]["deviation"]["value"] < 1e-8
    assert "hybe" not in rep
    names = sorted(f.name for f in d.iterdir())
    assert names == ["trial0_E.tsv", "trial0_F.tsv", "trial0_K.tsv",
                     "trial0_L.tsv", "trial0_R.tsv"]
    meta, m = load_matrix(d / "trial0_R.tsv")
    assert m.shape == (9, 9)


def test_hybe_command(tmp_path):
    out = tmp_path / "h.json"
    assert main(["hybe", "--ell", "3", "--seed", "11", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["checks"]["hybe_c_modulus"]["residual"]["value"] < 1e-8
    assert rep["checks"]["hybe_residual"]["residual"]["value"] < 1e-7
    assert len(rep["colorings"]) == 15 and "z2" in rep["colorings"]


@pytest.mark.parametrize("argv, hybe_every", [
    (["rmatrix", "--trial", "2"], 0),
    (["hybe", "--trial", "0", "--route", "both"], 1),
])
def test_trial_commands_match_run_trial(tmp_path, argv, hybe_every):
    out = tmp_path / "t.json"
    assert main([*argv, "--ell", "3", "--seed", "7", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    trial = _trial_record(int(argv[2]), ell=3, seed=7, hybe_every=hybe_every)
    assert (rep["command"], rep["ell"], rep["seed"]) == (argv[0], 3, 7)
    for key in ("checks", "oracle", "route_comparison"):
        assert rep[key] == trial[key]
    assert rep.get("hybe") == trial.get("hybe")
    assert ("hybe" in rep) == bool(hybe_every)


def _count_steps(monkeypatch):
    """Calls of each trial step through the suite's and the CLI's bindings,
    as (name, count keyword) pairs, and the TrialRuns the CLI received."""
    calls, runs = [], []
    for module in (holobraid.suite, holobraid.cli):
        for name in ("sample_params", "derive_colorings", "solve_intertwiner"):
            if hasattr(module, name):
                def record(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls.append((_name, kwargs.get("count")))
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, record)

    def keep(*args, _fn=holobraid.cli.run_trial):
        runs.append(_fn(*args))
        return runs[-1]
    monkeypatch.setattr(holobraid.cli, "run_trial", keep)
    return calls, runs


def test_trial_commands_run_each_step_once(tmp_path, monkeypatch, capsys):
    calls, runs = _count_steps(monkeypatch)
    assert main(["hybe", "--ell", "3", "--seed", "11"]) == 0
    assert calls.count(("derive_colorings", None)) == 1
    assert calls.count(("sample_params", 2)) == 1  # the pair; the third is count=1
    assert calls.count(("solve_intertwiner", None)) == 1
    assert json.loads(capsys.readouterr().out)["colorings"]["x"] == \
        params_entry(runs[0].colorings.x)

    calls.clear()
    d = tmp_path / "dumps"
    assert main(["rmatrix", "--ell", "3", "--seed", "5", "--trial", "2",
                 "--dump-dir", str(d), "--report", str(tmp_path / "r.json")]) == 0
    assert calls.count(("solve_intertwiner", None)) == 1
    assert calls.count(("sample_params", 2)) == 1
    _, R = load_matrix(d / "trial2_R.tsv")
    assert np.array_equal(R, runs[1].intertwiner.R)


def test_hybe_rejected_triple_exits_one(monkeypatch, capsys):
    def rejected(*args, **kwargs):
        raise AssemblyError("forced")

    monkeypatch.setattr(holobraid.suite, "hybe_residual", rejected)
    assert main(["hybe", "--ell", "3", "--seed", "11"]) == 1
    rep = json.loads(capsys.readouterr().out)  # printed without --report
    assert rep["hybe"] == {"rejected": True, "reason": "forced"}
    assert rep["pass"]  # a rejected triple does not fail the trial itself


def test_series_command(tmp_path):
    out = tmp_path / "s.json"
    assert main(["series", "--ell", "5", "--order", "30", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["checks"]["orbit_telescoping"]["value"] < 1e-12
    assert rep["checks"]["phi_variants"]["direct"]["value"] < 1e-8
    assert rep["checks"]["phi_variants"]["reciprocal_argument"]["value"] > 1e-3


def test_series_nan_fails(tmp_path, monkeypatch):
    # a NaN orbit closure after the first probe: max dropped it and the
    # series command passed
    closure, calls = holobraid.cli.phi_orbit_closure, []

    def planted(ctx, s):
        calls.append(s)
        return float("nan") if len(calls) == 2 else closure(ctx, s)

    monkeypatch.setattr(holobraid.cli, "phi_orbit_closure", planted)
    out = tmp_path / "s.json"
    assert main(["series", "--ell", "5", "--order", "30", "--report", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["checks"]["orbit_telescoping"]["approx"] == "inf"
