"""The benchmark's span tracer names functions of holobraid by string; a
rename that misses perfbench/spans.py TARGETS breaks only the benchmark."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, fn in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), fn)), (module, fn)
