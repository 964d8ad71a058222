"""CSV persistence for datasets.

The format is a plain CSV with a schema-bearing header: the first column
holds object labels, each remaining column is ``name:direction``::

    label,price:min,traveltime:min,stops:min
    RouteA,420,14.5,1

Loading restores names, directions and labels exactly, so a round trip is
the identity on every field of :class:`~repro.core.types.Dataset`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from ..core.types import Dataset, Direction

__all__ = ["save_csv", "load_csv", "parse_csv"]

_LABEL_COLUMN = "label"


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset to ``path`` in the schema-bearing CSV format."""
    path = Path(path)
    header = [_LABEL_COLUMN] + [
        f"{name}:{direction.value}"
        for name, direction in zip(dataset.names, dataset.directions)
    ]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(dataset.n_objects):
            row = [dataset.labels[i]] + [
                _format_value(v) for v in dataset.values[i]
            ]
            writer.writerow(row)


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset written by :func:`save_csv` (or hand-authored)."""
    path = Path(path)
    with path.open(newline="") as handle:
        return parse_csv(handle, source=str(path))


def parse_csv(lines: Iterable[str], source: str) -> Dataset:
    """Parse the schema-bearing CSV format from ``lines``.

    ``source`` names the input in error messages.  Every malformed input
    -- no header, a header not starting with ``label``, a ragged row, a
    non-numeric cell -- raises :class:`ValueError`.
    """
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{source}: empty file, expected a header row")
    if not header:
        raise ValueError(f"{source}:1: blank line, expected a header row")
    if header[0] != _LABEL_COLUMN:
        raise ValueError(
            f"{source}: first header cell must be {_LABEL_COLUMN!r}, "
            f"got {header[0]!r}"
        )
    names: list[str] = []
    directions: list[Direction] = []
    for cell in header[1:]:
        name, sep, direction = cell.partition(":")
        if not sep:
            direction = "min"
        names.append(name)
        directions.append(Direction.coerce(direction))
    labels: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{source}:{lineno}: expected {len(header)} cells, got {len(row)}"
            )
        labels.append(row[0])
        try:
            rows.append([float(x) for x in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    matrix = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, len(names)), dtype=np.float64)
    )
    return Dataset(
        values=matrix,
        names=tuple(names),
        directions=tuple(directions),
        labels=tuple(labels),
    )


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))
