"""Report rows and their CSV/JSON renderings.

The CSV carries the 2-decimal presentation (half-up rounding, fixed column
order); the JSON carries full-precision values plus the same display strings,
so golden-file comparisons and high-precision regression checks coexist.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .analysis import ProjectAnalysis

_UNIT_INTERVAL_COLUMNS = frozenset({"di", "ncbo", "ndcbo", "nlcom", "nrfc", "mai", "dmai"})


@dataclass(frozen=True)
class ReportRow:
    """One report line; the field order is the CSV column order."""

    project: str
    di: float
    cbo: float
    dcbo: float
    lcom: float
    rfc: float
    loc: int
    ncbo: float
    ndcbo: float
    nlcom: float
    nrfc: float
    mai: float
    dmai: float


CSV_COLUMNS = tuple(field.name for field in fields(ReportRow))
CSV_HEADER = ",".join(CSV_COLUMNS)


class ReportFormatError(ValueError):
    """Malformed report input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


def report_row(analysis: ProjectAnalysis) -> ReportRow:
    metrics = analysis.metrics
    return ReportRow(
        project=analysis.name,
        di=metrics.di_proportion,
        cbo=metrics.mean_cbo,
        dcbo=metrics.mean_dcbo,
        lcom=metrics.mean_lcom,
        rfc=metrics.mean_rfc,
        loc=metrics.total_loc,
        **vars(analysis.scores),
    )


def format_decimal(value: float) -> str:
    """Two decimal places with half-up rounding (0.125 -> "0.13")."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _display_cells(row: ReportRow) -> dict[str, str]:
    cells = {"project": row.project, "loc": str(row.loc)}
    for column in CSV_COLUMNS:
        if column in cells:
            continue
        cells[column] = format_decimal(getattr(row, column))
    return cells


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        cells = _display_cells(row)
        writer.writerow([cells[column] for column in CSV_COLUMNS])
    return buffer.getvalue()


def rows_to_json(rows: Sequence[ReportRow]) -> str:
    payload = []
    for row in rows:
        entry: dict = {column: getattr(row, column) for column in CSV_COLUMNS}
        entry["display"] = _display_cells(row)
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def parse_report_csv(text: str) -> list[ReportRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ReportFormatError(1, "empty report") from None
    if header != list(CSV_COLUMNS):
        raise ReportFormatError(1, f"unexpected header {','.join(header)!r}")
    rows = []
    start = reader.line_num + 1  # a record's number is that of its first physical line
    for record in reader:
        line_number, start = start, reader.line_num + 1
        if not record:
            continue
        if len(record) != len(CSV_COLUMNS):
            raise ReportFormatError(
                line_number, f"expected {len(CSV_COLUMNS)} fields, got {len(record)}"
            )
        values: dict = {"project": record[0]}
        for column, cell in zip(CSV_COLUMNS[1:], record[1:]):
            try:
                value = int(cell) if column == "loc" else float(cell)
            except ValueError as exc:
                raise ReportFormatError(line_number, f"bad numeric field: {exc}") from None
            if not math.isfinite(value):
                raise ReportFormatError(line_number, f"{column} is not finite: {cell!r}")
            if column in _UNIT_INTERVAL_COLUMNS and not 0.0 <= value <= 1.0:
                raise ReportFormatError(line_number, f"{column} {cell!r} is outside [0, 1]")
            values[column] = value
        rows.append(ReportRow(**values))
    return rows
