"""TSV-style matrix dumps with a single header line of metadata."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .cyclic import RepParams
from .intertwiner import Intertwiner


def format_complex(z: complex) -> str:
    """re+imi / re-imi with full double precision."""
    re, im = float(np.real(z)), float(np.imag(z))
    return f"{re:.17g}{im:+.17g}i"


def _matrix_lines(m: np.ndarray) -> list[str]:
    return [",".join(format_complex(z) for z in row) for row in np.asarray(m)]


def dump_rep_matrix(path: str | Path, m: np.ndarray, kind: str, p: RepParams) -> None:
    """Write one generator (or gauge) matrix of a representation."""
    header = (f"# ell={p.ctx.ell} kind={kind}"
              f" u={np.real(p.u):.17g},{np.imag(p.u):.17g}"
              f" v={np.real(p.v):.17g},{np.imag(p.v):.17g}"
              f" x={np.real(p.x):.17g},{np.imag(p.x):.17g}"
              f" y={np.real(p.y):.17g},{np.imag(p.y):.17g}")
    Path(path).write_text("\n".join([header] + _matrix_lines(m)) + "\n")


def dump_intertwiner(path: str | Path, intw: Intertwiner) -> None:
    header = f"# ell={len(intw.blocks)} kind=R residual={intw.residual:.6e}"
    Path(path).write_text("\n".join([header] + _matrix_lines(intw.R)) + "\n")
