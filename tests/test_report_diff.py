"""tests/report_diff.py, the comparator behind the reference runs' equal-report check."""
import json
import subprocess
import sys

import pytest

import report_diff


@pytest.fixture
def compare(tmp_path, capsys):
    """report_diff's (exit code, printed lines) for two JSON documents."""
    def run(old, new):
        paths = [tmp_path / "old.json", tmp_path / "new.json"]
        for path, doc in zip(paths, (old, new)):
            path.write_text(json.dumps(doc))
        code = report_diff.main([str(p) for p in paths])
        return code, capsys.readouterr().out.splitlines()
    return run


def test_equal_reports(compare):
    report = {"summary": {"passed": 3}, "trials": [{"x": 1.5, "c": [0.0, 1.0]}]}
    assert compare(report, json.loads(json.dumps(report))) == (0, [])


def test_only_top_level_generated_at_is_ignored(compare):
    assert compare({"generated_at": "a", "x": 1}, {"generated_at": "b", "x": 1}) == (0, [])
    code, lines = compare({"meta": {"generated_at": "a"}}, {"meta": {"generated_at": "b"}})
    assert code == 1
    assert lines == ["meta.generated_at: 'a' -> 'b'"]


def test_approx_beside_value_is_reported(compare):
    # no report writes an "approx" string, so one beside "value" is compared too
    code, lines = compare({"r": {"value": 0.25, "approx": "2.5e-01"}},
                          {"r": {"value": 0.25, "approx": "0.25"}})
    assert code == 1
    assert lines == ["r.approx: '2.5e-01' -> '0.25'"]


def test_nan_equals_nan(compare):
    assert compare({"x": [float("nan")]}, {"x": [float("nan")]}) == (0, [])


def test_moved_number(compare):
    # the largest absolute change (1.0, of 4 -> 5) and the largest relative
    # one (0.5, of 1 -> 1.5) come from different trials
    code, lines = compare({"trials": [{"x": 1.0}, {"x": 4.0}, {"x": 7.0}]},
                          {"trials": [{"x": 1.5}, {"x": 5.0}, {"x": 7.0}]})
    assert code == 1
    assert lines == ["trials.*.x: 2 moved, max abs 1, max rel 0.5"]


def test_one_sided_key_is_listed(compare):
    code, lines = compare({"a": 1}, {"a": 1, "b": "x"})
    assert code == 1
    assert lines == ["b: '<absent>' -> 'x'"]


def test_one_sided_field_folds_over_trials(compare):
    # a key retired from every trial is one line, not one per trial
    code, lines = compare({"trials": [{"x": 1, "y": 2.0}, {"x": 1, "y": "a"}]},
                          {"trials": [{"x": 1}, {"x": 1}]})
    assert code == 1
    assert lines == ["trials.*.y: 2 differ, e.g. trials.0.y: 2.0 -> '<absent>'"]


def test_empty_container_is_a_value(compare):
    # an empty list or dict yielded no leaf, so these two compared equal
    code, lines = compare({"a": [], "b": {"passing": []}}, {"b": {}})
    assert code == 1
    assert lines == ["a: [] -> '<absent>'", "b: '<absent>' -> {}",
                     "b.passing: [] -> '<absent>'"]
    assert compare({"a": [], "b": {}}, {"a": [], "b": {}}) == (0, [])


@pytest.mark.parametrize("argv", [[], ["one.json"], ["a", "b", "c"]])
def test_wrong_arguments(argv, capsys):
    assert report_diff.main(argv) == 2
    assert "usage" in capsys.readouterr().err


def test_closed_pipe_keeps_the_exit_code(tmp_path):
    # more output than a pipe holds, to a reader that reads none of it
    # (| head, | true): no BrokenPipeError traceback, and exit 1 for differ
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    paths[0].write_text(json.dumps({f"field_{i:05d}": i for i in range(5000)}))
    paths[1].write_text(json.dumps({f"field_{i:05d}": str(i) for i in range(5000)}))
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, report_diff.__file__, *map(str, paths)],
                                stdout=subprocess.PIPE, stderr=err)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "stderr").read_bytes() == b""


@pytest.mark.parametrize("content", [None, "", "{not json", b"\xff\xfe"])
def test_unreadable_report_is_a_usage_error(tmp_path, capsys, content):
    # a missing, empty, non-JSON or non-UTF-8 file: one stderr line naming
    # it and exit 2, the code for wrong arguments, not 1 ("reports differ")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text("{}")
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    for argv in ([str(good), str(bad)], [str(bad), str(good)]):
        assert report_diff.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"report_diff: cannot read {bad}: ")
