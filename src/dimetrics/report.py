"""Report rows and their CSV/JSON renderings.

The CSV carries the 2-decimal presentation (half-up rounding, fixed column
order); the JSON carries full-precision values plus the same display strings,
so golden-file comparisons and high-precision regression checks coexist.
"""
from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from collections.abc import Sequence

_UNIT_INTERVAL_COLUMNS = frozenset({"di", "ncbo", "ndcbo", "nlcom", "nrfc", "mai", "dmai"})


# One report line; the field order is the CSV column order.
ReportRow = namedtuple(
    "ReportRow", "project di cbo dcbo lcom rfc loc ncbo ndcbo nlcom nrfc mai dmai"
)
CSV_COLUMNS = ReportRow._fields


class ReportFormatError(ValueError):
    """Malformed report input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


def report_row(analysis) -> ReportRow:
    """The row of one ``analysis.ProjectAnalysis``."""
    metrics = analysis.metrics
    return ReportRow(
        project=analysis.name,
        di=metrics.di_proportion,
        cbo=metrics.mean_cbo,
        dcbo=metrics.mean_dcbo,
        lcom=metrics.mean_lcom,
        rfc=metrics.mean_rfc,
        loc=metrics.total_loc,
        **analysis.scores._asdict(),
    )


def format_decimal(value: float) -> str:
    """Two decimal places with half-up rounding (0.125 -> "0.13")."""
    from decimal import ROUND_HALF_UP, Decimal  # stats and chart, which only read, never load it

    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _display_cells(row: ReportRow) -> dict[str, str]:
    cells = {"project": row.project, "loc": str(row.loc)}
    cells.update({c: format_decimal(getattr(row, c)) for c in CSV_COLUMNS if c not in cells})
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
    import json  # only this writer needs it

    payload = []
    for row in rows:
        entry: dict = {column: getattr(row, column) for column in CSV_COLUMNS}
        entry["display"] = _display_cells(row)
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def _records(text: str):
    """Each CSV record with the number of its first physical line."""
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for record in reader:
            yield start, record
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ReportFormatError(start, f"malformed CSV: {exc}") from None


def parse_report_csv(text: str) -> list[ReportRow]:
    records = _records(text)
    header = next(records, (1, None))[1]
    if header is None:
        raise ReportFormatError(1, "empty report")
    if header != list(CSV_COLUMNS):
        raise ReportFormatError(1, f"unexpected header {','.join(header)!r}")
    rows = []
    for line_number, record in records:
        if not record:
            continue
        if len(record) != len(CSV_COLUMNS):
            message = f"expected {len(CSV_COLUMNS)} fields, got {len(record)}"
            raise ReportFormatError(line_number, message)
        values: dict = {"project": record[0]}
        for column, cell in zip(CSV_COLUMNS[1:], record[1:]):
            try:
                value = int(cell) if column == "loc" else float(cell)
            except ValueError as exc:
                raise ReportFormatError(line_number, f"bad numeric field: {exc}") from None
            if column != "loc" and not math.isfinite(value):  # an int is always finite
                raise ReportFormatError(line_number, f"{column} is not finite: {cell!r}")
            if column in _UNIT_INTERVAL_COLUMNS and not 0.0 <= value <= 1.0:
                raise ReportFormatError(line_number, f"{column} {cell!r} is outside [0, 1]")
            if value < 0:  # an analysis writes no negative count or mean of counts
                raise ReportFormatError(line_number, f"{column} {cell!r} is negative")
            values[column] = value
        rows.append(ReportRow(**values))
    return rows
