import json

import numpy as np
import pytest

import holobraid.cli
import holobraid.suite
from holobraid.cli import main
from holobraid.errors import AssemblyError
from holobraid.report import emit_report, params_entry
from holobraid.roots import primitive_root
from holobraid.suite import SuiteConfig, run_suite, run_trial
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
    assert rep["summary"]["passed"] == rep["summary"]["trials"] == 3


def test_even_degree_is_usage_error(capsys):
    # and every other out-of-range value: each would run, check nothing or
    # end in a traceback; SuiteConfig (and main, for --trial) rejects it
    # before any work, on the subcommand's usage line
    for argv, message in (
            (["suite", "--ell", "4", "--trials", "1", "--seed", "0"], "degree must be an odd integer >= 3, got 4"),
            (["braid-map", "--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["suite", "--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["suite", "--trials", "1", "--hybe-every", "-1"], "hybe_every must be an integer >= 0, got -1"),
            (["suite", "--trials", "1", "--radius", "2"], "radius must be a real number in (0, 1], got 2.0"),
            (["rmatrix", "--radius", "0"], "radius must be a real number in (0, 1], got 0.0"),
            (["rmatrix", "--trial", "-1"], "--trial must be >= 0, got -1"),
            (["hybe", "--trial", "-1"], "--trial must be >= 0, got -1")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == f"holobraid {argv[0]}: error: {message}"


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
    names = ("braiding_round_trip", "braiding_product", "conserved_T", "matrix_route")
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
    assert rep["checks"]["hybe_residual"]["residual"]["value"] < 1e-8
    assert len(rep["colorings"]) == 15 and "z2" in rep["colorings"]


def test_braid_map_rejected_chain(tmp_path, capsys):
    # at radius 1.0 the phi lift of six ell 7 coloring chains misses
    # LIFT_TOL: each is recorded with its reason and fails its trial, and
    # the command still writes its report
    out = tmp_path / "b.json"
    assert main(["braid-map", "--ell", "7", "--trials", "20", "--seed", "42",
                 "--radius", "1.0", "--report", str(out)]) == 1
    rep = json.loads(out.read_text())
    rejected = [tr["index"] for tr in rep["trials"] if "hybe" in tr]
    assert rejected == [4, 5, 15, 16, 17, 18]
    for i in rejected:
        tr = rep["trials"][i]
        assert tr["hybe"]["rejected"] and "lift residuals" in tr["hybe"]["reason"]
        assert not tr["pass"] and "set_ybe" not in tr["checks"]
    assert rep["summary"]["passed"] == 9


def test_braid_map_counts_rejected_chains_as_the_suite(tmp_path):
    # braid-map's summary counts the rejected coloring chains as hybe_rejected,
    # as a suite with a triple on every trial counts its rejected triples
    out = tmp_path / "b.json"
    argv = ["--ell", "5", "--trials", "20", "--seed", "42", "--radius", "1.0"]
    assert main(["braid-map", *argv, "--report", str(out)]) == 1
    summary = json.loads(out.read_text())["summary"]
    cfg = SuiteConfig(ell=5, trials=20, seed=42, radius=1.0, route="closed-form", hybe_every=1)
    assert summary["hybe_rejected"] == run_suite(cfg)[1]["summary"]["hybe_rejected"] == 2


@pytest.mark.parametrize("argv, hybe_every", [
    (["rmatrix", "--trial", "2"], 0),
    (["hybe", "--trial", "0", "--route", "both", "--radius", "0.5"], 1),
])
def test_trial_commands_match_run_trial(tmp_path, argv, hybe_every):
    radius = float(argv[-1]) if "--radius" in argv else 0.1
    out = tmp_path / "t.json"
    assert main([*argv, "--ell", "3", "--seed", "7", "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    trial = _trial_record(int(argv[2]), ell=3, seed=7, hybe_every=hybe_every,
                          radius=radius)
    assert list(rep)[:5] == ["command", "ell", "seed", "radius", "route"]
    assert (rep["command"], rep["ell"], rep["seed"]) == (argv[0], 3, 7)
    assert (rep["radius"], rep["route"]) == (radius, "both")
    for key in ("params", "band_exp", "checks", "oracle", "route_comparison"):
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
    assert not rep["pass"]  # a rejected triple fails its trial


def test_unresolved_adjudication_fails_suite(monkeypatch):
    # an orbit scaled by 1 + 1e-3 k leaves no step-factor reading under the
    # adjudication threshold; the trials still pass, the run does not
    orbit = holobraid.suite.phi_orbit

    def planted(ctx, s, variant):
        return orbit(ctx, s, variant=variant) * (1 + 1e-3 * np.arange(ctx.ell))

    monkeypatch.setattr(holobraid.suite, "phi_orbit", planted)
    code, report = run_suite(SuiteConfig(ell=3, trials=2, seed=42, hybe_every=0))
    assert code == 1 and report["summary"]["passed"] == 2
    assert not report["summary"]["adjudications_resolved"]
    assert report["adjudications"]["phi_step_factor"]["passing"] == []


def test_unwritable_report_exits_two(tmp_path, capsys):
    # an OSError from writing the report is one error line, not a traceback
    path = tmp_path / "missing" / "report.json"
    assert main(["suite", "--ell", "3", "--trials", "1", "--report", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert not path.parent.exists()
