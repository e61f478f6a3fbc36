"""Command-line interface.

Subcommands: ``analyze`` (project dirs -> CSV/JSON report), ``generate``
(emit the synthetic suite), ``stats`` (Friedman + Holm over a report CSV),
``chart`` (SVG trendlines from a report CSV).

Each subcommand loads only the modules it runs.  The functions it calls are
module globals that import their module on the first call, so code that
swaps them by name (a tracer, a test) still sees every call.

A command that cannot go on raises ``_Failure`` where it finds the fault;
``main`` alone catches it, prints its one positioned error and returns its
exit code.  A failed project in ``analyze`` is printed where it is found
instead, so the other projects' rows are still written.

Exit codes: 0 success, 1 analysis/input failure (diagnostics on stderr),
2 usage error.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys


def _lazy(module: str, name: str):
    """A stand-in for ``module.name`` that imports the module on its first call."""

    def call(*args, **kwargs):
        # -X importtime reports an __import__, but not an importlib.import_module
        loaded = __import__(f"{__package__}.{module}", fromlist=[name])
        return getattr(loaded, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


generate_suite = _lazy("generator", "generate_suite")
analyze_directory = _lazy("analysis", "analyze_directory")
report_row = _lazy("report", "report_row")
rows_to_csv = _lazy("report", "rows_to_csv")
rows_to_json = _lazy("report", "rows_to_json")
parse_report_csv = _lazy("report", "parse_report_csv")
split_by_threshold = _lazy("stats", "split_by_threshold")
friedman_test = _lazy("stats", "friedman_test")
render_chart = _lazy("chart", "render_chart")


class _Failure(Exception):
    """A command's failure: ``main`` prints it at ``path:line`` and returns ``code``."""

    def __init__(self, code: int, path: str, message: str, line: int = 1) -> None:
        self.code, self.path, self.message, self.line = code, path, message, line


def _print_diagnostic(path: str, message: str, severity="error", line=1, column=1) -> None:
    """One stderr line: a character that is not printable, such as a newline
    in a file name, is written as its escape (``\\n``, ``\\x1b``, ``\\udcff``)."""
    text = f"{path}:{line}:{column}: {severity}: {message}"
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in text), file=sys.stderr)


def _write_file(path: str, payload: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.write(payload)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _Failure(1, path, f"cannot write {what}: {exc}")


def cmd_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path  # discovery loads it anyway

    from .analysis import project_name

    if "" in args.paths:  # Path("") is the current directory
        raise _Failure(2, "", "empty path")
    by_name: dict[str, Path] = {}
    for path in map(Path, args.paths):
        if not path.is_dir():
            raise _Failure(2, str(path), "not a directory")
        name = project_name(path)
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # undecodable bytes, kept as surrogates
            raise _Failure(2, str(path), "project name is not valid UTF-8")
        first = by_name.setdefault(name, path)
        if first is not path:
            raise _Failure(2, str(path), f"duplicate project name {name!r}: {first} and {path}")
    rows = []
    failed = False
    # The analysis makes no reference cycles (tests/test_gc.py), so the cyclic
    # GC would only spend time scanning its many live objects.  The caller's
    # GC state comes back on every path.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name in sorted(by_name):  # rows in name order
            path = by_name[name]
            try:
                analysis, diagnostics = analyze_directory(path)
            except Exception as exc:  # a fault in one project must not cost the other rows
                _print_diagnostic(str(path), f"internal error: {type(exc).__name__}: {exc}")
                failed = True
                continue
            for diag in diagnostics:
                _print_diagnostic(diag.path, diag.message, diag.severity, diag.line, diag.column)
            if analysis is None:
                failed = True
                continue
            rows.append(report_row(analysis))
    finally:
        if gc_was_enabled:
            gc.enable()
    payload = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    if args.out is None:
        sys.stdout.write(payload)
    else:
        _write_file(args.out, payload, "report")
    return 1 if failed else 0


def cmd_generate(args: argparse.Namespace) -> int:
    if not args.output_root:  # Path("") is the current directory
        raise _Failure(2, "", "empty path")
    try:
        dirs = generate_suite(args.output_root, step=args.step)
    except (ValueError, OSError) as exc:  # ValueError: a bad step, a usage error
        raise _Failure(1 if isinstance(exc, OSError) else 2, args.output_root, str(exc))
    for project_dir in dirs:
        print(project_dir)
    return 0


def _load_report(path: str) -> list:
    """The report's rows; at least one."""
    from .report import ReportFormatError  # the module parse_report_csv loads anyway

    try:
        with open(path, encoding="utf-8") as file:
            rows = parse_report_csv(file.read())
    except ReportFormatError as exc:
        raise _Failure(1, path, str(exc), exc.line)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a NUL in the path
        raise _Failure(1, path, f"cannot read report: {exc}")
    if not rows:
        raise _Failure(1, path, "report has no rows")
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
    pairs = [(row.di, getattr(row, args.metric)) for row in _load_report(args.report_csv)]
    try:
        matrix = split_by_threshold(pairs, args.threshold, args.boundary)
    except ValueError as exc:
        raise _Failure(1, args.report_csv, str(exc))
    low, high = matrix.group_sizes
    if low != high:
        message = f"unequal group sizes ({low} vs {high}); truncating to the shorter"
        _print_diagnostic(args.report_csv, message, "warning")
    result = friedman_test(matrix, alpha=args.alpha)
    print(f"metric: {args.metric}")
    print(f"blocks: {len(matrix.blocks)}  treatments: {len(matrix.treatments)}")
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
    _write_file(args.out_svg, render_chart(_load_report(args.report_csv)), "chart")
    return 0


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
    try:
        return args.func(args)
    except _Failure as failure:
        _print_diagnostic(failure.path, failure.message, line=failure.line)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
