"""Clip-id keyed CSV tables: features, scores and MOS."""

from __future__ import annotations

import csv
import math

from .errors import DuplicateId, NumericalError

__all__ = ["read_score_table", "write_score_table"]


def read_id_rows(path, columns: tuple[str, ...]) -> tuple[list[str], list[list[float]]]:
    """Read a `clip_id,<columns...>` CSV into (clip ids, rows of floats).

    A wrong header or a row of the wrong width raises ValueError; a nan or
    inf cell raises NumericalError naming the file, row and column.
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
            values = [float(x) for x in row[1:]]
            for col, text, value in zip(columns, row[1:], values):
                if not math.isfinite(value):
                    raise NumericalError(f"{path}: row {r.line_num} (clip {row[0]!r}), column "
                                         f"{col!r} is {text!r}, not a finite number")
            ids.append(row[0])
            rows.append(values)
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
