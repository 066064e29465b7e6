"""Machine-readable reports: stable field order, JSON-safe numbers."""
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


def residual_entry(x: float) -> dict:
    """Three-significant-digit string plus the double (residual_value)."""
    x = residual_value(x)
    return {"approx": f"{x:.3g}", "value": x}


def params_entry(p: RepParams) -> dict:
    return {"u": complex_pair(p.u), "v": complex_pair(p.v),
            "x": complex_pair(p.x), "y": complex_pair(p.y)}


def check_entry(residual: float, threshold: float, variant: str = "direct") -> dict:
    return {"variant": variant, "residual": residual_entry(residual),
            "threshold": threshold, "pass": bool(residual < threshold)}


def new_report(config_dict: dict) -> dict:
    return {
        "config": config_dict,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "summary": {},
        "adjudications": {},
        "det_probe": {},
        "trials": [],
    }


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return complex_pair(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def emit_report(report: dict) -> str:
    """Serialize with stable key order (insertion order, never re-sorted)."""
    return json.dumps(report, indent=2, default=_json_default)


def write_report(report: dict, path) -> None:
    from pathlib import Path

    Path(path).write_text(emit_report(report) + "\n")
