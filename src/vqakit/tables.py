"""Clip-id keyed CSV tables: features, scores and MOS."""

from __future__ import annotations

import csv
import math

from .errors import DuplicateId, NumericalError

__all__ = ["read_score_table", "write_score_table"]


def _cell(path, line: int, clip_id: str, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is not None and math.isfinite(value):
        return value
    where = f"{path}: row {line} (clip {clip_id!r}), column {column!r} is {text!r}"
    if value is None:
        raise ValueError(f"{where}, not a number")
    raise NumericalError(f"{where}, not a finite number")


def read_id_rows(path, columns: tuple[str, ...]) -> tuple[list[str], list[list[float]]]:
    """Read a `clip_id,<columns...>` CSV into (clip ids, rows of floats).

    A wrong header, a row of the wrong width or a cell that is not a number
    raises ValueError; a nan or inf cell raises NumericalError. Cell errors
    name the file, row and column.
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or [h.strip() for h in header] != ["clip_id", *columns]:
            raise ValueError(f"{path}: expected header 'clip_id,{','.join(columns)}', got {header}")
        ids, rows = [], []
        for row in r:
            if not row:
                continue
            if len(row) != len(columns) + 1:
                raise ValueError(f"{path}: row {r.line_num} has {len(row)} fields, "
                                 f"the header {len(columns) + 1}")
            rows.append([_cell(path, r.line_num, row[0], col, text)
                         for col, text in zip(columns, row[1:])])
            ids.append(row[0])
    return ids, rows


def read_score_table(path, value_field: str) -> dict[str, float]:
    """Read a `clip_id,<value_field>` CSV into an ordered id->value map."""
    out: dict[str, float] = {}
    for cid, (val,) in zip(*read_id_rows(path, (value_field,))):
        if cid in out:
            raise DuplicateId(cid)
        out[cid] = val
    return out


def write_score_table(path, values: dict[str, float], value_field: str = "score"):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["clip_id", value_field])
        for cid, val in values.items():
            w.writerow([cid, repr(float(val))])
