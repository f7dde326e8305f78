"""Precomputed image feature tables.

Features arrive as CSV rows of ``name,f1,...,fD`` (one image per line),
extracted offline by some frozen network.  They are plain data here: the
models never push gradient into them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, MissingFeatureError
from .textpipe import QARecord, _read_text


@dataclass
class FeatureTable:
    dim: int
    rows: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, name: str) -> bool:
        return name in self.rows

    def vector(self, name: str) -> np.ndarray:
        try:
            return self.rows[name]
        except KeyError:
            raise MissingFeatureError(f"no feature row for image '{name}'") from None


def load_feature_table(source) -> FeatureTable:
    """Parse a feature CSV; the first row fixes the dimensionality.  Every
    value must be finite: a nan or inf would poison every parameter it
    reaches."""
    lines = _read_text(source).split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise FormatError("feature file is empty")
    dim = -1
    rows: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            raise FormatError(f"blank feature line {lineno}")
        parts = line.split(",")
        name, raw = parts[0].strip(), parts[1:]
        if not name:
            raise FormatError(f"missing image name on feature line {lineno}")
        if not raw:
            raise FormatError(f"no feature values on feature line {lineno}")
        try:
            values = np.asarray([float(v) for v in raw], dtype=np.float64)
        except ValueError:
            raise FormatError(f"non-numeric feature value on line {lineno}")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite feature value on line {lineno}")
        if dim < 0:
            dim = values.size
        elif values.size != dim:
            raise FormatError(
                f"feature line {lineno} has {values.size} values, expected {dim}"
            )
        if name in rows:
            raise FormatError(f"duplicate image name '{name}' on feature line {lineno}")
        rows[name] = values
    return FeatureTable(dim=dim, rows=rows)


def align(records: list[QARecord], table: FeatureTable) -> np.ndarray:
    """One feature row per record, in record order (images may repeat)."""
    out = np.zeros((len(records), table.dim), dtype=np.float64)
    for i, record in enumerate(records):
        out[i] = table.vector(record.image_name)
    return out


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit length; vectors with norm <= 1e-12 pass through."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        return v.copy()
    return v / norm


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    return np.stack([l2_normalize(row) for row in matrix]) if len(matrix) else matrix.copy()
