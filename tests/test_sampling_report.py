import json
from types import SimpleNamespace

import numpy as np
import pytest

import holobraid.report as report
import holobraid.sampling as sampling
import holobraid.suite as suite
from holobraid.dumps import dump_intertwiner, dump_rep_matrix
from holobraid.errors import NonFactorizableError, SamplingExhaustedError
from holobraid.intertwiner import solve_intertwiner
from holobraid.cyclic import build_rep, z0_character
from holobraid.report import check_entry, emit_report, residual_entry, write_report
from holobraid.sampling import sample_params
from holobraid.suite import SuiteConfig, run_suite
from reference import commutant_dimension, load_matrix

INF = float("inf")


def assert_fails(check):
    """check failed its gate with residual inf."""
    assert not check["pass"] and check["residual"]["value"] == INF


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
        assert meta["kernel_dim"] == "1"
        assert float(meta["residual"]) < 1e-9
        assert np.max(np.abs(m - intw.R)) < 1e-15


class TestReports:
    def test_residual_entry_digits(self):
        e = residual_entry(1.23456e-11)
        assert e["approx"] == "1.23e-11"
        assert e["value"] == 1.23456e-11

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
        route = suite.matrix_route_beta

        calls = []

        def second_raises(first, second):
            # the second_conjugates reading is the previous call's pair swapped
            if calls and calls[-1] == (second, first):
                raise NonFactorizableError("forced")
            calls.append((first, second))
            return route(first, second)

        monkeypatch.setattr(suite, "matrix_route_beta", second_raises)
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
            assert check["variant"] == "first_conjugates:inverse:swapped"
            assert check["pass"]
        adjudication = on_disk["adjudications"]["matrix_route"]
        assert adjudication["chosen"] == "first_conjugates:inverse:swapped"
        assert adjudication["variants"]["second_conjugates:forward:direct"]["approx"] == "inf"

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
        assert summary["max_residual"] == {"approx": "inf", "value": float("inf")}

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
        checks, evidence = suite.character_checks(z0_character(p1), z0_character(p2))
        assert evidence["braiding_correction_sign"]["minus"] == INF
        assert_fails(checks["conserved_T"])

    def test_nan_character_deviations(self, ctx3, monkeypatch):
        # char_distance gives NaN against cy (the second term of
        # braiding_round_trip, the last of identity_fixed_points) and for the
        # second output of every matrix-route reading
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
        checks, evidence = suite.character_checks(cx, cy)
        assert set(evidence["matrix_route"].values()) == {INF}
        for name in ("matrix_route", "braiding_round_trip", "identity_fixed_points"):
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
        r1res = {"slot2_clock_opposite_shifts": 0.0, "slot2_clock_parallel_shifts": 1.0}
        evidence = suite._closed_form_evidence(pair, r1res)
        assert evidence["assembly_scalars"]["derived"] == INF

    def test_nan_trial_gates(self, ctx3, monkeypatch):
        # a NaN in the last central-invariance residual and the last
        # commutant residual fails the trial
        def planted(check, key):
            def run(intw):
                out = check(intw)
                out[key] = float("nan")
                return out
            return run

        monkeypatch.setattr(suite, "central_invariance_residuals",
                            planted(suite.central_invariance_residuals, "kl_ratio_slot2"))
        monkeypatch.setattr(suite, "r1_conjugation_residuals",
                            planted(suite.r1_conjugation_residuals, "slot1_shift"))
        cfg = SuiteConfig(ell=3, trials=1, seed=42, route="closed-form", hybe_every=0)
        record = suite.run_trial(cfg, ctx3, 0).record
        for name in ("central_invariance", "r1_commutants"):
            assert_fails(record["checks"][name])
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

    def test_empty_report_is_valid_json(self):
        from holobraid.report import new_report

        rep = new_report({"note": "empty"})
        rep["summary"] = {"trials": 0, "passed": 0, "failed": 0}
        parsed = json.loads(emit_report(rep))
        assert parsed["trials"] == []
        assert parsed["summary"]["trials"] == 0


def test_commutant_witness_certifies_irreducibility(ctx3, ctx5, ctx7):
    for ctx in (ctx3, ctx5, ctx7):
        (p,) = sample_params(ctx, 3, 1, count=1)
        assert commutant_dimension(p) == 1
