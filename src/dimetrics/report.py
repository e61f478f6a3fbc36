"""Report rows and their CSV/JSON renderings.

The CSV carries the 2-decimal presentation (half-up rounding, fixed column
order); the JSON carries full-precision values plus the same display strings,
so golden-file comparisons and high-precision regression checks coexist.
"""
from __future__ import annotations

import _csv as csv  # csv's own reader, writer and Error, without the re csv.Sniffer needs
import io
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

_UNIT_INTERVAL_COLUMNS = frozenset({"di", "ncbo", "ndcbo", "nlcom", "nrfc", "mai", "dmai"})


# One report line; the field order is the CSV column order.
ReportRow = namedtuple(
    "ReportRow", "project di cbo dcbo lcom rfc loc ncbo ndcbo nlcom nrfc mai dmai"
)
CSV_COLUMNS = ReportRow._fields
_DECIMAL_COLUMNS = CSV_COLUMNS[1:6] + CSV_COLUMNS[7:]  # every column but project and loc


class ReportFormatError(ValueError):
    """Malformed report input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


def report_row(analysis) -> ReportRow:
    """The row of one ``analysis.ProjectAnalysis``."""
    metrics, scores = analysis.metrics, analysis.scores
    return ReportRow(analysis.name, metrics.di_proportion, metrics.mean_cbo, metrics.mean_dcbo,
                     metrics.mean_lcom, metrics.mean_rfc, metrics.total_loc, scores.ncbo,
                     scores.ndcbo, scores.nlcom, scores.nrfc, scores.mai, scores.dmai)


_DECIMAL = None  # Decimal, the 0.01 quantum and ROUND_HALF_UP, from the first call on


def format_decimals(values: Iterable[float]) -> list[str]:
    """Each value to two places, rounded half up from its shortest repr (0.125 -> "0.13")."""
    global _DECIMAL
    if _DECIMAL is None:  # stats and chart, which only read, never load decimal
        from decimal import ROUND_HALF_UP, Decimal

        _DECIMAL = Decimal, Decimal("0.01"), ROUND_HALF_UP
    decimal, cent, half_up = _DECIMAL
    return [str(decimal(repr(float(value))).quantize(cent, half_up)) for value in values]


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        cells = format_decimals(row[1:6] + row[7:])
        writer.writerow([row.project, *cells[:5], row.loc, *cells[5:]])  # an int writes as str()
    return buffer.getvalue()


def rows_to_json(rows: Sequence[ReportRow]) -> str:
    import json  # only this writer needs it

    payload = []
    for row in rows:
        entry: dict = dict(zip(CSV_COLUMNS, row))
        entry["display"] = {"project": row.project, "loc": str(row.loc),
                            **dict(zip(_DECIMAL_COLUMNS, format_decimals(row[1:6] + row[7:])))}
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
