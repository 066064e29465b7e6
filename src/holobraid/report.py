"""Machine-readable reports: stable field order, JSON-safe numbers, one
trial a line (`python3 -m json.tool` indents a report)."""
from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

from .cyclic import RepParams


def complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def residual_value(x: float) -> float:
    """x as a float, NaN recorded as inf: a residual that cannot be
    computed fails its gate and is the worst one, as one that raises."""
    x = float(x)
    return math.inf if math.isnan(x) else x


def worst_residual(*xs: float) -> float:
    """The largest of xs, each as residual_value: Python's max drops a NaN
    that is not its first argument, so a NaN would pass its gate."""
    return max(map(residual_value, xs))


def residual_entry(x: float) -> dict:
    """The residual as its double, once (residual_value)."""
    return {"value": residual_value(x)}


def params_entry(p: RepParams) -> dict:
    return {"u": complex_pair(p.u), "v": complex_pair(p.v),
            "x": complex_pair(p.x), "y": complex_pair(p.y)}


def check_entry(residual: float, threshold: float) -> dict:
    """A gate: its residual (residual_entry), threshold and verdict."""
    return {"residual": residual_entry(residual), "threshold": threshold,
            "pass": bool(residual < threshold)}


def new_report(config_dict: dict) -> dict:
    return {
        "config": config_dict,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "summary": {},
        "adjudications": {},
        "det_probe": {},
        "trials": [],
    }


def emit_report(report: dict) -> str:
    """Serialize in insertion order, `"key": <value>` a line and one trial a
    line, every value compact: an indent would take CPython's pure-Python
    encoder.  Every report value is already a Python scalar, list or dict."""
    encode = json.JSONEncoder().encode
    parts = []
    for key, value in report.items():
        parts += [",\n  " if parts else "{\n  ", encode(key), ": "]
        if key == "trials":
            parts += ["[\n    ", ",\n    ".join(map(encode, value)), "\n  ]"]
        else:
            parts.append(encode(value))
    return "".join(parts + ["\n}" if parts else "{}"])


def write_report(report: dict, path) -> None:
    with open(path, "w") as f:
        f.write(emit_report(report))
        f.write("\n")
