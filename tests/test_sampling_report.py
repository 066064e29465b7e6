import json
import re
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import holobraid.cli as cli
import holobraid.cyclic as cyclic
import holobraid.report as report
import holobraid.sampling as sampling
import holobraid.suite as suite
from holobraid.dumps import dump_intertwiner, dump_rep_matrix
from holobraid.errors import (AssemblyError, NonFactorizableError,
                              SamplingExhaustedError)
from holobraid.intertwiner import solve_intertwiner
from holobraid.cyclic import build_rep, z0_character
from holobraid.report import check_entry, emit_report, residual_entry, write_report
from holobraid.roots import primitive_root
from holobraid.sampling import sample_params
from holobraid.suite import SuiteConfig, run_suite
from reference import commutant_dimension, load_matrix

INF = float("inf")


def keys(obj):
    """Every dict key in a JSON value, at any depth."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from keys(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from keys(v)


def assert_fails(check):
    """check failed its gate with residual inf."""
    assert not check["pass"] and check["residual"]["value"] == INF


def force_second_conjugates_raise(monkeypatch):
    """Make the second_conjugates reading of matrix_route_beta raise."""
    route, calls = suite.matrix_route_beta, []

    def second_raises(first, second):
        # the second_conjugates reading is the previous call's pair swapped
        if calls and calls[-1] == (second, first):
            raise NonFactorizableError("forced")
        calls.append((first, second))
        return route(first, second)

    monkeypatch.setattr(suite, "matrix_route_beta", second_raises)


class TestSampling:
    def test_deterministic(self, ctx3):
        a = sample_params(ctx3, 42, 7, count=2)
        b = sample_params(ctx3, 42, 7, count=2)
        assert all(p.as_tuple() == q.as_tuple() for p, q in zip(a, b))

    def test_trials_independent(self, ctx3):
        a = sample_params(ctx3, 42, 0, count=1)[0]
        b = sample_params(ctx3, 42, 1, count=1)[0]
        assert a.as_tuple() != b.as_tuple()

    def test_parameters_near_one(self, ctx3):
        (p,) = sample_params(ctx3, 13, 3, radius=0.05, count=1)
        for val in p.as_tuple():
            assert abs(np.log(val)) < 0.05 * np.sqrt(2) + 1e-12

    def test_low_rejection_rate(self, ctx3):
        # genericity failures are a measure-zero locus; count rejections
        # indirectly by checking many trials sample on the first attempt
        rejections = 0
        for i in range(200):
            rng = sampling.trial_rng(11, i)
            ps = tuple(sampling._draw_params(ctx3, rng, 0.1) for _ in range(2))
            if not sampling.is_generic(*ps):
                rejections += 1
        assert rejections / 200 < 0.05

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_genericity_check_per_draw(self, ctx3, monkeypatch, count):
        # on the pair the caller braids: (p1, p2), or (p, p) for one draw;
        # the first draw is rejected, so the redraw is checked too
        calls = []

        def reject_first(p, q):
            calls.append((p.as_tuple(), q.as_tuple()))
            return len(calls) > 1

        monkeypatch.setattr(sampling, "is_generic", reject_first)
        ps = sample_params(ctx3, 42, 0, count=count)
        rng = sampling.trial_rng(42, 0)
        draws = [[sampling._draw_params(ctx3, rng, 0.1) for _ in range(count)]
                 for _ in range(2)]
        assert [p.as_tuple() for p in ps] == [p.as_tuple() for p in draws[1]]
        assert calls == [(d[0].as_tuple(), d[-1].as_tuple()) for d in draws]

    def test_accepts_what_both_orientations_accept(self):
        # a first draw that passes the filter of both orientations is
        # returned as it is; at ell 9 and radius 1.0 some draws fail it
        ctx, checked = primitive_root(9), 0
        for i in range(300):
            rng = sampling.trial_rng(0, i)
            p1, p2 = (sampling._draw_params(ctx, rng, 1.0) for _ in range(2))
            if sampling.is_generic(p1, p2) and sampling.is_generic(p2, p1):
                q1, q2 = sample_params(ctx, 0, i, radius=1.0, count=2)
                assert (q1.as_tuple(), q2.as_tuple()) == (p1.as_tuple(), p2.as_tuple())
                checked += 1
        assert 250 <= checked < 300

    def test_exhaustion(self, ctx3, monkeypatch):
        monkeypatch.setattr(sampling, "is_generic", lambda *a, **k: False)
        with pytest.raises(SamplingExhaustedError):
            sample_params(ctx3, 1, 0, count=2)


class TestDumps:
    def test_rep_matrix_roundtrip(self, tmp_path, pair3):
        p = pair3[0]
        rep = build_rep(p)
        path = tmp_path / "K.tsv"
        dump_rep_matrix(path, rep.K, "K", p)
        meta, m = load_matrix(path)
        assert meta["kind"] == "K" and meta["ell"] == "3"
        assert np.max(np.abs(m - rep.K)) < 1e-15

    def test_intertwiner_header(self, tmp_path, pair3):
        intw = solve_intertwiner(*pair3)
        path = tmp_path / "R.tsv"
        dump_intertwiner(path, intw)
        meta, m = load_matrix(path)
        assert meta["kind"] == "R"
        assert float(meta["residual"]) < 1e-9
        assert np.max(np.abs(m - intw.R)) < 1e-15


class TestReports:
    def test_residual_entry_holds_the_double(self):
        assert residual_entry(1.23456e-11) == {"value": 1.23456e-11}

    def test_report_roundtrips_raw_doubles(self):
        blob = emit_report({"x": residual_entry(0.1 + 1e-17)})
        assert json.loads(blob)["x"]["value"] == 0.1 + 1e-17

    def test_suite_deterministic(self, tmp_path):
        cfg = dict(ell=3, trials=4, seed=5, route="both")
        _, rep1 = run_suite(SuiteConfig(**cfg))
        _, rep2 = run_suite(SuiteConfig(**cfg))
        rep1["generated_at"] = rep2["generated_at"] = "T"
        assert emit_report(rep1) == emit_report(rep2)

    def test_exit_zero_and_file(self, tmp_path):
        path = tmp_path / "out.json"
        code, rep = run_suite(SuiteConfig(ell=3, trials=3, seed=2))
        assert code == 0
        assert list(tmp_path.iterdir()) == []  # run_suite writes no file
        write_report(rep, path)
        on_disk = json.loads(path.read_text())
        assert on_disk["summary"]["passed"] == 3
        assert len(on_disk["trials"]) == 3

    def test_raising_reading_is_evidence(self, tmp_path, monkeypatch):
        # a matrix-route variant whose evaluation raises (second_conjugates
        # on trial 4 of ell 7, radius 1.0, seed 42) fails its four readings
        # with residual inf instead of stopping the run
        force_second_conjugates_raise(monkeypatch)
        code, rep = run_suite(SuiteConfig(ell=3, trials=2, seed=42, hybe_every=0))
        path = tmp_path / "out.json"
        write_report(rep, path)
        on_disk = json.loads(path.read_text())
        assert code == 0
        for trial in on_disk["trials"]:
            readings = trial["evidence"]["matrix_route"]
            assert len(readings) == 8
            assert all((v == float("inf")) == k.startswith("second_conjugates:")
                       for k, v in readings.items())
            check = trial["checks"]["matrix_route"]
            assert check["residual"]["value"] == min(readings.values())
            assert check["pass"]
        adjudication = on_disk["adjudications"]["matrix_route"]
        assert adjudication["chosen"] == "first_conjugates:inverse:swapped"
        assert adjudication["variants"]["second_conjugates:forward:direct"]["value"] == INF

    def test_record_holds_each_value_once(self, tmp_path, monkeypatch):
        # ell 3 trials with both routes and a triple record only values
        # that can move, each once, in every command's report; every report
        # is plain JSON as built
        reports = []
        monkeypatch.setattr(cli, "write_report", lambda rep, path: reports.append(rep))
        for argv in (["suite", "--ell", "3", "--trials", "10", "--seed", "42", "--route", "both"],
                     ["braid-map", "--ell", "3", "--trials", "2"],
                     ["rmatrix", "--ell", "3", "--seed", "5", "--trial", "2"],
                     ["hybe", "--ell", "3", "--seed", "11"]):
            assert cli.main([*argv, "--report", str(tmp_path / "r.json")]) == 0
        suite_rep, braid_rep, *trial_reps = reports
        for rep in reports:
            assert not {"variant", "a_exp", "approx"} & set(keys(rep))
            assert "failed" not in rep.get("summary", {})
        for record in (*suite_rep["trials"], *trial_reps):
            assert list(record)[list(record).index("params") + 1] == "band_exp"
            assert list(keys(record)).count("band_exp") == 1
        assert "band_exp" not in keys(braid_rep)
        assert set(suite_rep["det_probe"]) == {"inconclusive", "core_fit", "full_fit",
                                               "closest_candidate", "matches_closest"}
        trial = suite_rep["trials"][0]
        assert set(trial["oracle"]) == {"singular_gap"}
        # the band tie is a function of chi1 and band_exp, the route
        # comparison's scalar and the triple's entry-ratio gap are bounded
        # by its deviation, and the triple's route is the config's
        for record in (*suite_rep["trials"], *trial_reps):
            if "chi" in record:
                assert set(record["chi"]) == {"chi1", "chi2", "s", "sigma",
                                              "sigma_power_residual"}
            if "route_comparison" in record:
                assert set(record["route_comparison"]) == {"deviation"}
            if "hybe" in record:
                assert set(record["hybe"]) == {"c"}
        assert "chi" in trial_reps[0] and "route_comparison" in trial_reps[0]
        assert "c" in trial["hybe"] and "c" in trial_reps[1]["hybe"]
        assert "s0_diagnostic" not in trial
        assert "oracle_kernel_dim" not in trial["checks"]
        force_second_conjugates_raise(monkeypatch)
        reports.append(run_suite(SuiteConfig(ell=3, trials=2, seed=42, hybe_every=0))[1])
        assert reports[-1]["adjudications"]["matrix_route"]["variants"][
            "second_conjugates:forward:direct"]["value"] == INF
        for rep in reports:
            assert json.loads(json.dumps(rep)) == rep

    def test_reports_take_the_c_encoder(self, tmp_path, monkeypatch):
        # an indent sends a report through json's pure-Python encoder
        # (json.encoder._make_iterencode), three times slower than the C one
        reports = []
        monkeypatch.setattr(cli, "write_report", lambda rep, path: reports.append(rep))
        for argv in (["suite", "--ell", "3", "--trials", "3", "--seed", "42"],
                     ["braid-map", "--ell", "3", "--trials", "2"],
                     ["rmatrix", "--ell", "3", "--seed", "5", "--trial", "2"],
                     ["hybe", "--ell", "3", "--seed", "11"]):
            assert cli.main([*argv, "--report", str(tmp_path / "r.json")]) == 0

        def pure_python(*args, **kwargs):
            raise AssertionError("report went through the pure-Python encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python)
        path = tmp_path / "out.json"
        for rep in reports:
            write_report(rep, path)
            assert json.loads(path.read_text()) == rep

    def test_report_layout(self, tmp_path):
        # one top-level key a line and one trial a line, so a diff of two
        # reports without their generated_at line compares everything else
        _, rep = run_suite(SuiteConfig(ell=3, trials=3, seed=42))
        path = tmp_path / "out.json"
        write_report(rep, path)
        text = path.read_text()
        assert text.endswith("}\n")
        lines = text.splitlines()
        assert len(lines) == len(rep) + len(rep["trials"]) + 3
        assert sum('"generated_at"' in line for line in lines) == 1
        start = lines.index('  "trials": [') + 1
        trial_lines = lines[start:start + 3]
        assert [json.loads(line.rstrip(",")) for line in trial_lines] == rep["trials"]
        assert lines[start + 3] == "  ]"

    def test_report_values_match_indented_json(self, monkeypatch):
        # the forced-raise report of test_raising_reading_is_evidence, whose
        # inf readings are written as Infinity
        force_second_conjugates_raise(monkeypatch)
        _, rep = run_suite(SuiteConfig(ell=3, trials=2, seed=42, hybe_every=0))
        text = emit_report(rep)
        assert "Infinity" in text
        assert json.loads(text) == json.loads(json.dumps(rep, indent=2))

    def test_checks_are_the_thresholds(self, ctx3):
        # with both routes and a triple on every trial, every trial runs
        # exactly the gates THRESHOLDS names, each at its threshold: no
        # threshold is dead and no check runs without one; the closed-form
        # route runs all but the oracle's two
        _, rep = run_suite(SuiteConfig(ell=3, trials=20, seed=42, hybe_every=1))
        assert rep["summary"]["hybe_rejected"] == 0
        for trial in rep["trials"]:
            assert {name: c["threshold"] for name, c in trial["checks"].items()} \
                == suite.THRESHOLDS
        cfg = SuiteConfig(ell=3, trials=1, seed=42, route="closed-form", hybe_every=1)
        assert set(suite.run_trial(cfg, ctx3, 0).record["checks"]) \
            == set(suite.THRESHOLDS) - {"oracle_residual", "route_deviation"}

    def test_rejected_triple_fails_its_trial(self, monkeypatch):
        # every triple counts: a HolobraidError in the triple is recorded
        # with its reason and fails the trial, so the suite exits 1
        def rejected(*args, **kwargs):
            raise AssemblyError("forced")

        monkeypatch.setattr(suite, "hybe_residual", rejected)
        code, rep = run_suite(SuiteConfig(ell=3, trials=3, seed=42, hybe_every=1))
        assert code == 1
        for trial in rep["trials"]:
            assert trial["hybe"] == {"rejected": True, "reason": "forced"}
            assert not trial["pass"]
            assert all(c["pass"] for c in trial["checks"].values())
        assert rep["summary"]["hybe_rejected"] == 3
        assert rep["summary"]["passed"] == 0

    def test_nan_reading_is_recorded_as_inf(self, monkeypatch):
        # Python's max and min drop a NaN that is not their first argument:
        # a NaN planted in the chosen slot2_raising reading was adjudicated
        # as passing with residual 0, and one in slot1_clock_k's only
        # reading passed the generator_actions gate.  Recorded as inf, both
        # fail like a reading that raises
        actions = suite.check_generator_action

        def plant_nan(intw):
            out = actions(intw)
            out["slot2_raising"]["t_inverse"] = float("nan")
            out["slot1_clock_k"]["direct"] = float("nan")
            return out

        monkeypatch.setattr(suite, "check_generator_action", plant_nan)
        code, rep = run_suite(SuiteConfig(ell=3, trials=3, seed=42))
        assert code == 1
        for trial in rep["trials"]:
            assert trial["evidence"]["slot2_raising"]["t_inverse"] == float("inf")
            gate = trial["checks"]["generator_actions"]
            assert not gate["pass"] and gate["residual"]["value"] == float("inf")
        adjudication = rep["adjudications"]["slot2_raising"]
        assert adjudication["passing"] == [] and adjudication["chosen"] is None
        assert adjudication["variants"]["t_inverse"]["value"] == float("inf")
        assert rep["summary"]["checks"]["generator_actions"]["passed"] == 0

    def test_summary_keeps_a_nan_residual(self):
        trials = [{"checks": {"x": check_entry(r, 1.0)}} for r in (0.5, float("nan"))]
        summary = suite.check_summary(trials)["x"]
        assert summary["passed"] == 1
        assert summary["max_residual"] == {"value": INF}

    def test_worst_residual_keeps_nan(self):
        nan = float("nan")
        assert report.worst_residual(0.5, nan) == INF
        assert report.worst_residual(nan, 0.5) == INF
        assert report.worst_residual(1e-3, 2e-3, 0.0) == 2e-3

    def test_nan_conserved_T(self, ctx3, monkeypatch):
        # a NaN T on the second slot of the minus reading's forward braiding,
        # the fourth conserved_quantities call: max kept the first slot's
        # drift and conserved_T passed
        quantities, calls = suite.conserved_quantities, []

        def planted(c):
            calls.append(c)
            T, Dt = quantities(c)
            return (float("nan"), Dt) if len(calls) == 4 else (T, Dt)

        monkeypatch.setattr(suite, "conserved_quantities", planted)
        p1, p2 = sample_params(ctx3, 42, 0, count=2)
        residuals, evidence = suite.character_checks(z0_character(p1), z0_character(p2))
        assert evidence["braiding_correction_sign"]["minus"] == INF
        assert_fails(suite.gates(residuals)["conserved_T"])

    def test_nan_character_deviations(self, ctx3, monkeypatch):
        # char_distance gives NaN against cy (the second term of
        # braiding_round_trip) and for the second output of every
        # matrix-route reading
        p1, p2 = sample_params(ctx3, 42, 0, count=2)
        cx, cy = z0_character(p1), z0_character(p2)
        route, distance, seconds = suite.matrix_route_beta, suite.char_distance, []

        def planted_route(first, second):
            m1, m2 = route(first, second)
            seconds.append(m2)
            return m1, m2

        def planted_distance(a, b):
            if b is cy or any(a is m for m in seconds):
                return float("nan")
            return distance(a, b)

        monkeypatch.setattr(suite, "matrix_route_beta", planted_route)
        monkeypatch.setattr(suite, "char_distance", planted_distance)
        residuals, evidence = suite.character_checks(cx, cy)
        assert set(evidence["matrix_route"].values()) == {INF}
        checks = suite.gates(residuals)
        for name in ("matrix_route", "braiding_round_trip"):
            assert_fails(checks[name])

    def test_nan_central_power(self, ctx3, monkeypatch):
        # the L^ell scalar planted as NaN; _scale drops it too
        (p,) = sample_params(ctx3, 42, 0, count=1)
        powers = list(suite.ell_powers(p))
        powers[1] = (powers[1][0], complex("nan"))
        monkeypatch.setattr(suite, "ell_powers", lambda q: powers)
        assert suite.rep_checks(p)["central_powers"] == INF

    def test_nan_assembly_scalar(self):
        nan = float("nan")
        chi = SimpleNamespace(chi1_mismatch=1e-16, chi2_mismatch=nan,
                              sigma_power_residual=1e-16, legacy_relation_residuals={})
        pair = SimpleNamespace(chi=chi, band_dist=0.0)
        r1res = {"opposite_shifts": 0.0, "parallel_shifts": 1.0}
        evidence = suite._closed_form_evidence(pair, r1res)
        assert evidence["assembly_scalars"]["derived"] == INF

    def test_nan_trial_gates(self, ctx3, monkeypatch):
        # a NaN route deviation fails the trial, and one in the R1
        # conjugation evidence is recorded as inf
        compare, r1_residuals = suite.compare_up_to_scalar, suite.r1_conjugation_residuals

        def planted_compare(r1, r2):
            scalar, _ = compare(r1, r2)
            return scalar, float("nan")

        def planted_r1(intw):
            out = r1_residuals(intw)
            out["opposite_shifts"] = float("nan")
            return out

        monkeypatch.setattr(suite, "compare_up_to_scalar", planted_compare)
        monkeypatch.setattr(suite, "r1_conjugation_residuals", planted_r1)
        cfg = SuiteConfig(ell=3, trials=1, seed=42, route="both", hybe_every=0)
        record = suite.run_trial(cfg, ctx3, 0).record
        assert_fails(record["checks"]["route_deviation"])
        assert record["route_comparison"]["deviation"]["value"] == INF
        assert record["evidence"]["r1_clock_conjugation"]["opposite_shifts"] == INF
        assert not record["pass"]

    def test_nan_phi_orbit(self, ctx3, monkeypatch):
        # a NaN reciprocal_argument orbit was recorded as 0.0 and adjudicated
        # as passing beside the direct reading
        orbit = suite.phi_orbit

        def planted(ctx, s, variant):
            vals = orbit(ctx, s, variant=variant)
            return vals * float("nan") if variant == "reciprocal_argument" else vals

        monkeypatch.setattr(suite, "phi_orbit", planted)
        adjudication = suite._aggregate_adjudications([], ctx3)["phi_step_factor"]
        assert adjudication["variants"]["reciprocal_argument"]["value"] == INF
        assert adjudication["passing"] == ["direct"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(ell=4, trials=1, seed=0)
        with pytest.raises(ValueError):
            SuiteConfig(ell=3, trials=0, seed=0)
        with pytest.raises(ValueError):
            SuiteConfig(ell=3, trials=1, seed=0, radius=1.5)

    @pytest.mark.parametrize("name, value", [
        ("trials", 2.0), ("trials", True), ("seed", 1.5), ("hybe_every", 1.5),
        ("radius", True), ("route", "x"), ("hybe_every", -1), ("radius", float("nan"))])
    def test_config_names_a_bad_setting(self, name, value):
        # SuiteConfig is the command line's only check too; unchecked, a
        # float or bool count, seed or radius runs or fails mid-run
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(value))}$"):
            SuiteConfig(**{"ell": 3, "trials": 1, "seed": 0, name: value})

    def test_config_stores_plain_numbers(self):
        cfg = SuiteConfig(ell=np.int64(3), trials=np.int32(2), seed=np.uint64(7),
                          radius=np.float32(0.5), hybe_every=np.int8(1))
        config = asdict(cfg)
        assert config == {"ell": 3, "trials": 2, "seed": 7, "radius": 0.5,
                          "route": "both", "hybe_every": 1}
        assert [type(v) for v in config.values()] == [int, int, int, float, str, int]

    def test_empty_report_is_valid_json(self):
        from holobraid.report import new_report

        rep = new_report({"note": "empty"})
        rep["summary"] = {"trials": 0, "passed": 0}
        parsed = json.loads(emit_report(rep))
        assert parsed["trials"] == []
        assert parsed["summary"]["trials"] == 0


class TestRetiredGates:
    """The defects that central_invariance and conserved_Dt would catch
    (a lift off its strand data, a braiding that moves Dt) are caught
    before them or beside them, so neither value needs a gate."""

    def test_lift_off_its_strand_data_is_never_drawn(self, ctx3, monkeypatch):
        # the lift's own lam/phi check rejects every draw, so no gate runs
        lift = cyclic.lift_character

        def planted(c, u, x, ctx):
            return lift(c, u * (1 + 1e-7), x, ctx)

        monkeypatch.setattr(cyclic, "lift_character", planted)
        with pytest.raises(SamplingExhaustedError):
            sample_params(ctx3, 42, 0, count=2)

    @pytest.mark.parametrize("name", ["beta_forward", "beta_inverse"])
    def test_kappa_off_by_one_ppm_fails(self, ctx3, monkeypatch, name):
        # kappa scaled on the first output moves Dt = kappa/lam too
        braid = getattr(suite, name)

        def planted(x, y, sign=-1):
            p, q = braid(x, y, sign=sign)
            return replace(p, kappa=p.kappa * (1 + 1e-6)), q

        monkeypatch.setattr(suite, name, planted)
        p1, p2 = sample_params(ctx3, 42, 0, count=2)
        residuals, _ = suite.character_checks(z0_character(p1), z0_character(p2))
        checks = suite.gates(residuals)
        for gate in ("braiding_round_trip", "conserved_T"):
            assert not checks[gate]["pass"]


def test_commutant_witness_certifies_irreducibility(ctx3, ctx5, ctx7):
    for ctx in (ctx3, ctx5, ctx7):
        (p,) = sample_params(ctx, 3, 1, count=1)
        assert commutant_dimension(p) == 1
