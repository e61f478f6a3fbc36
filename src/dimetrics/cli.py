"""Command-line interface.

Subcommands: ``analyze`` (project dirs -> CSV/JSON report), ``generate``
(emit the synthetic suite), ``stats`` (Friedman + Holm over a report CSV),
``chart`` (SVG trendlines from a report CSV).

Exit codes: 0 success, 1 analysis/input failure (diagnostics on stderr),
2 usage error.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .analysis import analyze_directory, project_name
from .chart import render_chart
from .frontend import Diagnostic
from .generator import generate_suite
from .report import ReportFormatError, parse_report_csv, report_row, rows_to_csv, rows_to_json
from .stats import friedman_test, split_by_threshold


def _print_diagnostic(diag: Diagnostic) -> None:
    print(
        f"{diag.path}:{diag.line}:{diag.column}: {diag.severity}: {diag.message}",
        file=sys.stderr,
    )


def _write_file(path: str, payload: str, what: str) -> bool:
    """Write ``payload`` to ``path``; False after printing a positioned error."""
    try:
        Path(path).write_text(payload, encoding="utf-8")
    except OSError as exc:
        _print_diagnostic(Diagnostic(path, 1, 1, f"cannot write {what}: {exc}", "error"))
        return False
    return True


def cmd_analyze(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    by_name: dict[str, Path] = {}
    for path in paths:
        if not path.is_dir():
            _print_diagnostic(Diagnostic(str(path), 1, 1, "not a directory", "error"))
            return 2
        name = project_name(path)
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # undecodable bytes, kept as surrogates
            message = "project name is not valid UTF-8"
            _print_diagnostic(Diagnostic(str(path), 1, 1, message, "error"))
            return 2
        first = by_name.setdefault(name, path)
        if first is not path:
            message = f"duplicate project name {name!r}: {first} and {path}"
            _print_diagnostic(Diagnostic(str(path), 1, 1, message, "error"))
            return 2
    rows = []
    failed = False
    for name in sorted(by_name):  # rows in name order
        try:
            analysis, diagnostics = analyze_directory(by_name[name])
        except Exception as exc:  # a fault in one project must not cost the other rows
            message = f"internal error: {type(exc).__name__}: {exc}"
            analysis, diagnostics = None, [Diagnostic(str(by_name[name]), 1, 1, message, "error")]
        for diag in diagnostics:
            _print_diagnostic(diag)
        if analysis is None:
            failed = True
            continue
        rows.append(report_row(analysis))
    payload = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out is None:
        sys.stdout.write(payload)
    elif not _write_file(args.out, payload, "report"):
        failed = True
    return 1 if failed else 0


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        dirs = generate_suite(Path(args.output_root), step=args.step)
    except ValueError as exc:
        _print_diagnostic(Diagnostic(args.output_root, 1, 1, str(exc), "error"))
        return 2
    except OSError as exc:
        _print_diagnostic(Diagnostic(args.output_root, 1, 1, str(exc), "error"))
        return 1
    for project_dir in dirs:
        print(project_dir)
    return 0


def _load_report(path: str) -> list | None:
    """The report's rows, or None after printing a positioned error."""
    try:
        rows = parse_report_csv(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        _print_diagnostic(Diagnostic(path, 1, 1, f"cannot read report: {exc}", "error"))
        return None
    except ReportFormatError as exc:
        _print_diagnostic(Diagnostic(path, exc.line, 1, str(exc), "error"))
        return None
    if not rows:
        _print_diagnostic(Diagnostic(path, 1, 1, "report has no rows", "error"))
        return None
    return rows


def _fraction(text: str, closed: bool = False) -> float:
    """argparse type: a number strictly between 0 and 1, or in [0, 1] if ``closed``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 <= value <= 1.0 if closed else 0.0 < value < 1.0):  # both false for nan
        interval = "[0, 1]" if closed else "(0, 1)"
        raise argparse.ArgumentTypeError(f"expected a number in {interval}, got {text!r}")
    return value


def cmd_stats(args: argparse.Namespace) -> int:
    rows = _load_report(args.report_csv)
    if rows is None:
        return 1
    pairs = [(row.di, getattr(row, args.metric)) for row in rows]
    try:
        matrix = split_by_threshold(pairs, args.threshold, args.boundary)
    except ValueError as exc:
        _print_diagnostic(Diagnostic(args.report_csv, 1, 1, str(exc), "error"))
        return 1
    low, high = matrix.group_sizes
    if low != high:
        message = f"unequal group sizes ({low} vs {high}); truncating to the shorter"
        _print_diagnostic(Diagnostic(args.report_csv, 1, 1, message, "warning"))
    result = friedman_test(matrix, alpha=args.alpha)
    print(f"metric: {args.metric}")
    print(f"blocks: {matrix.n_blocks}  treatments: {matrix.n_treatments}")
    print(f"Friedman chi-square: {result.chi_square:.6f} (df={result.df})")
    print(f"p-value: {result.p_value:.6f}")
    ranks = "  ".join(f"{name}={rank:.3f}" for name, rank in result.mean_ranks.items())
    print(f"mean ranks: {ranks}")
    print("Holm pairwise comparisons:")
    for comparison in result.pairwise:
        verdict = "reject" if comparison.rejected else "retain"
        print(
            f"  {comparison.pair[0]} vs {comparison.pair[1]}:"
            f" z={comparison.z:.4f}"
            f" raw p={comparison.raw_p:.6f}"
            f" adjusted p={comparison.adjusted_p:.6f}"
            f" -> {verdict}"
        )
    decision = "reject" if any(c.rejected for c in result.pairwise) else "retain"
    print(f"decision at alpha={args.alpha:g}: {decision}")
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    rows = _load_report(args.report_csv)
    if rows is None:
        return 1
    return 0 if _write_file(args.out_svg, render_chart(rows), "chart") else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimetrics",
        description="Measure dependency injection and its effect on coupling"
        " and maintainability metrics in class-based source projects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze project directories into a report")
    analyze.add_argument("paths", nargs="+", help="project directories (one row each)")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--out", default=None, help="output file (default: stdout)")
    analyze.set_defaults(func=cmd_analyze)

    generate = sub.add_parser("generate", help="emit the synthetic benchmark suite")
    generate.add_argument("output_root", help="directory to create the projects under")
    generate.add_argument("--step", type=int, default=10, help="injection percent step")
    generate.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats", help="Friedman test over an analyze report")
    stats.add_argument("report_csv", help="CSV produced by the analyze command")
    stats.add_argument("--threshold", type=lambda text: _fraction(text, closed=True), default=0.5)
    stats.add_argument("--boundary", choices=("exclude", "lower", "upper"), default="exclude")
    stats.add_argument("--metric", choices=("mai", "dmai"), default="dmai")
    stats.add_argument("--alpha", type=_fraction, default=0.05)
    stats.set_defaults(func=cmd_stats)

    chart = sub.add_parser("chart", help="SVG trendlines from an analyze report")
    chart.add_argument("report_csv", help="CSV produced by the analyze command")
    chart.add_argument("out_svg", help="output SVG path")
    chart.set_defaults(func=cmd_chart)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
