"""In-memory span tracing of holobraid's public functions.

Each target is wrapped at every binding that refers to it: the attribute in
its defining module and every copy a ``from ... import`` made in another
holobraid module (``holobraid.suite.solve_intertwiner``,
``holobraid.hybe.solve_intertwiner``, ``holobraid.cli.run_suite``, ...).
The numpy.linalg kernels are wrapped on the ``numpy.linalg`` module, the
binding holobraid calls them through; numpy's own internal calls are not
counted.  Spans are (name, start, end, parent index, trial index).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

TARGETS = (
    ("holobraid.sampling", "sample_params"),
    ("holobraid.cyclic", "is_generic"),
    ("holobraid.cyclic", "build_rep"),
    ("holobraid.cyclic", "gauge_U"),
    ("holobraid.glstar", "beta_forward"),
    ("holobraid.glstar", "beta_inverse"),
    ("holobraid.glstar", "matrix_route_beta"),
    ("holobraid.intertwiner", "solve_intertwiner"),
    ("holobraid.intertwiner", "closed_form_R"),
    ("holobraid.intertwiner", "check_generator_action"),
    ("holobraid.intertwiner", "central_invariance_residuals"),
    ("holobraid.intertwiner", "r1_conjugation_residuals"),
    ("holobraid.intertwiner", "det_exponent_probe"),
    ("holobraid.hybe", "hybe_residual"),
    ("holobraid.hybe", "embed_13"),
    ("holobraid.hybe", "s0_diagnostic"),
    ("holobraid.hybe", "derive_colorings"),
    ("holobraid.qseries", "phi_series"),
    ("holobraid.qseries", "phi_orbit"),
    ("holobraid.suite", "run_suite"),
    ("holobraid.suite", "run_trial"),
    ("holobraid.suite", "rep_checks"),
    ("holobraid.suite", "character_checks"),
    ("holobraid.suite", "_aggregate_adjudications"),
    ("holobraid.report", "write_report"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "det"),
)
TRIAL_SPAN = "suite.run_trial"
FILTER_SPAN = "cyclic.is_generic"


def span_name(module: str, fn: str) -> str:
    return f"{module.removeprefix('holobraid.')}.{fn}"


class Tracer:
    """Context manager that patches every binding of the targets and records spans.

    On exit every patched binding is restored to the original object.
    """

    def __init__(self):
        self.spans: list = []
        self.accepted = 0  # is_generic calls that returned True
        self._stack: list[int] = []
        self._trial = None
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "holobraid"
                                         or name.startswith("holobraid."))]
        try:
            for module_name, fn in TARGETS:
                home = importlib.import_module(module_name)
                original = getattr(home, fn)
                wrapper = self._wrap(span_name(module_name, fn), original)
                for module in {id(m): m for m in (home, *modules)}.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.accepted = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_trial, is_filter = name == TRIAL_SPAN, name == FILTER_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_trial = self._trial
            if is_trial:
                self._trial = args[2] if len(args) > 2 else kwargs.get("idx")
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._trial)
                self._trial = outer_trial
            if is_filter and result:
                self.accepted += 1
            return result

        return wrapper


def summarize(spans: list, wall_s: float, accepted: int = 0) -> dict[str, float]:
    """Per-function calls, busy (inclusive) and self time of one traced call.

    Self time is a span's duration minus the durations of its wrapped
    children, so the self times of all spans plus ``trace.uncovered_s`` (the
    part of ``wall_s`` no root span covers) add up to ``wall_s``.  Busy time
    counts a span only when no enclosing span has the same name.
    """
    names = [span_name(m, f) for m, f in TARGETS]
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    children = [0.0] * len(spans)
    covered = 0.0
    trial_ms = []
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
        else:
            covered += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - children[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += duration
        if name == TRIAL_SPAN:
            trial_ms.append(duration * 1e3)
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
    if len(trial_ms) >= 2:
        deciles = statistics.quantiles(trial_ms, n=10, method="inclusive")
        out[f"{TRIAL_SPAN}.p50_ms"] = statistics.median(trial_ms)
        out[f"{TRIAL_SPAN}.p90_ms"] = deciles[8]
    elif trial_ms:
        out[f"{TRIAL_SPAN}.p50_ms"] = out[f"{TRIAL_SPAN}.p90_ms"] = trial_ms[0]
    filtered = calls[FILTER_SPAN]
    out["sampling.accept_ratio"] = accepted / filtered if filtered else 1.0
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - covered
    return out
