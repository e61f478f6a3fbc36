"""Command-line interface: ``analyze``, ``generate``, ``stats`` and ``chart``, as in ``USAGE``.

Each subcommand loads only the modules it runs.  The functions it calls are
module globals that import their module on the first call, so code that
swaps them by name (a tracer, a test) still sees every call.

A command that cannot go on raises ``_Failure`` where it finds the fault;
``main`` alone catches it, prints its one positioned error and returns its
exit code.  A failed project in ``analyze`` is printed where it is found
instead, so the other projects' rows are still written.  ``_parse`` reads
the command line from the ``COMMANDS`` table; a usage error is a failure at
``dimetrics:1:1``.  Each result goes out through ``_write_file`` alone; a
failed write to stdout is an error at ``<stdout>:1:1``.

Exit codes, which ``main`` returns and ``run`` exits with: 0 success, 1 analysis/
input/output failure (diagnostics on stderr), 2 usage error.
"""
from __future__ import annotations

import gc
import os
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
    """One stderr line, each unprintable character (a newline in a file name) as its escape
    (``\\n``, ``\\x1b``, ``\\udcff``).  A stderr that fails is dropped; the command goes on."""
    text = f"{path}:{line}:{column}: {severity}: {message}"
    try:  # not print, which writes to stdout once sys.stderr is None
        sys.stderr.write("".join(c if c.isprintable() else repr(c)[1:-1] for c in text) + "\n")
    except (AttributeError, OSError, ValueError):  # None (closed at start or dropped), or failed
        sys.stderr = None


def _write_file(path: str | None, payload: str, what: str) -> int:
    """Write ``payload`` to the file ``path``, or to stdout if it is None, and return 0."""
    try:
        if path is not None:
            with open(path, "w", encoding="utf-8") as file:
                file.write(payload)
        elif sys.stdout is None:  # what Python makes of a closed file descriptor 1
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()  # where a block-buffered stdout fails
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, text stdout cannot encode
        if path is None:  # else Python's exit would flush what stdout still holds, and fail again
            sys.stdout = None
        raise _Failure(1, "<stdout>" if path is None else path, f"cannot write {what}: {exc}")
    return 0


def cmd_analyze(*paths: str, format: str, out: str | None) -> int:
    from pathlib import Path  # discovery loads it anyway

    from .analysis import project_name

    if "" in paths:  # Path("") is the current directory
        raise _Failure(2, "", "empty path")
    by_name: dict[str, Path] = {}
    for path in map(Path, paths):
        try:
            if not path.is_dir():
                raise _Failure(2, str(path), "not a directory")
        except OSError:  # EACCES, EIO: analyze_directory reports it as its project's error
            pass
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
    _write_file(out, rows_to_csv(rows) if format == "csv" else rows_to_json(rows), "report")
    return 1 if failed else 0


def cmd_generate(output_root: str, *, step: int) -> int:
    if not output_root:  # Path("") is the current directory
        raise _Failure(2, "", "empty path")
    try:
        dirs = generate_suite(output_root, step=step)
    except (ValueError, OSError) as exc:  # ValueError: a bad step, a usage error
        raise _Failure(1 if isinstance(exc, OSError) else 2, output_root, str(exc))
    return _write_file(None, "".join(f"{path}\n" for path in dirs), "directory list")


_REPORT_LIMIT = 1 << 23  # characters, about 120,000 rows: an endless input ends here


def _load_report(path: str) -> list:
    """The report's rows; at least one."""
    from .report import ReportFormatError  # the module parse_report_csv loads anyway

    try:
        with open(path, encoding="utf-8") as file:
            text = file.read(_REPORT_LIMIT + 1)
        if len(text) > _REPORT_LIMIT:
            raise _Failure(1, path, f"report larger than {_REPORT_LIMIT} characters")
        rows = parse_report_csv(text)
    except ReportFormatError as exc:
        raise _Failure(1, path, str(exc), exc.line)
    except (OSError, ValueError) as exc:  # ValueError: undecodable text or a NUL in the path
        raise _Failure(1, path, f"cannot read report: {exc}")
    if not rows:
        raise _Failure(1, path, "report has no rows")
    return rows


def cmd_stats(report_csv: str, *, threshold: float, boundary: str, metric: str,
              alpha: float) -> int:
    pairs = [(row.di, getattr(row, metric)) for row in _load_report(report_csv)]
    try:
        matrix = split_by_threshold(pairs, threshold, boundary)
    except ValueError as exc:
        raise _Failure(1, report_csv, str(exc))
    low, high = matrix.group_sizes
    if low != high:
        message = f"unequal group sizes ({low} vs {high}); truncating to the shorter"
        _print_diagnostic(report_csv, message, "warning")
    result = friedman_test(matrix, alpha=alpha)
    ranks = "  ".join(f"{name}={rank:.3f}" for name, rank in result.mean_ranks.items())
    holm = "".join(f"  {c.pair[0]} vs {c.pair[1]}: z={c.z:.4f} raw p={c.raw_p:.6f} adjusted"
                   f" p={c.adjusted_p:.6f} -> {'reject' if c.rejected else 'retain'}\n"
                   for c in result.pairwise)
    decision = "reject" if any(c.rejected for c in result.pairwise) else "retain"
    return _write_file(None, f"metric: {metric}\n"
                       f"blocks: {len(matrix.blocks)}  treatments: {len(matrix.treatments)}\n"
                       f"Friedman chi-square: {result.chi_square:.6f} (df={result.df})\n"
                       f"p-value: {result.p_value:.6f}\nmean ranks: {ranks}\n"
                       f"Holm pairwise comparisons:\n{holm}"
                       f"decision at alpha={alpha:g}: {decision}\n", "statistics")


def cmd_chart(report_csv: str, out_svg: str) -> int:
    return _write_file(out_svg, render_chart(_load_report(report_csv)), "chart")


USAGE = (
    "usage: dimetrics analyze PATH... [--format csv|json] [--out FILE]\n"
    "       dimetrics generate OUTPUT_ROOT [--step N]\n"
    "       dimetrics stats REPORT_CSV [--threshold T] [--boundary exclude|lower|upper]"
    " [--metric mai|dmai] [--alpha A]\n"
    "       dimetrics chart REPORT_CSV OUT_SVG\n"
)


def _reader(expected: str, convert, accepts=lambda value: True):
    """An option's reader: ``convert(text)``, if it ``accepts`` that value;
    else a ValueError that says what was ``expected``."""
    def read(text: str):
        try:
            if accepts(value := convert(text)):  # a comparison with nan is false
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {expected}, got {text!r}")
    return read


def _choice(names: str):
    return _reader(names, str, names.split("|").__contains__)


# Each command: its function, the names of its positionals (a last name that
# ends in "..." takes one or more) and its options, each with its default and
# the reader of its value.  The function takes the positionals in order and
# each option as the keyword of its name without the dashes.
COMMANDS = {
    "analyze": (cmd_analyze, ("PATH...",), {"--format": ("csv", _choice("csv|json")),
                                            "--out": (None, str)}),
    "generate": (cmd_generate, ("OUTPUT_ROOT",), {"--step": (10, _reader("an integer", int))}),
    "stats": (cmd_stats, ("REPORT_CSV",), {
        "--threshold": (0.5, _reader("a number in [0, 1]", float, lambda x: 0 <= x <= 1)),
        "--boundary": ("exclude", _choice("exclude|lower|upper")),
        "--metric": ("dmai", _choice("mai|dmai")),
        "--alpha": (0.05, _reader("a number in (0, 1)", float, lambda x: 0 < x < 1)),
    }),
    "chart": (cmd_chart, ("REPORT_CSV", "OUT_SVG"), {}),
}


def _parse(argv: list[str]):
    """The function to call, its positionals and its options.  An option is
    ``--name value`` or ``--name=value``; ``-h`` or ``--help`` before ``--``
    asks for ``USAGE``, and ``--`` ends the options."""
    if {"-h", "--help"} & set(argv[: argv.index("--")] if "--" in argv else argv):
        return _write_file, [None, USAGE, "usage"], {}
    command = argv[0] if argv else None
    if command not in COMMANDS:
        got = "" if command is None else f", got {command!r}"
        raise _Failure(2, "dimetrics", f"expected a command ({'|'.join(COMMANDS)}){got}")
    func, names, readers = COMMANDS[command]
    options = {name[2:]: default for name, (default, _) in readers.items()}
    positionals = []
    words = iter(argv[1:])
    for word in words:
        if word == "--":
            positionals.extend(words)
        elif word.startswith("-") and word != "-":  # "-" is a path
            name, has_value, value = word.partition("=")
            if name not in readers:
                raise _Failure(2, "dimetrics", f"{command}: unknown option {word!r}")
            if not has_value and (value := next(words, None)) is None:
                raise _Failure(2, "dimetrics", f"argument {name}: expected a value")
            try:
                options[name[2:]] = readers[name][1](value)
            except ValueError as exc:
                raise _Failure(2, "dimetrics", f"argument {name}: {exc}") from None
        else:
            positionals.append(word)
    variadic = names[-1].endswith("...")
    if len(positionals) < len(names) or len(positionals) > len(names) and not variadic:
        message = f"{command} takes {' '.join(names)}; {len(positionals)} given"
        raise _Failure(2, "dimetrics", message)
    return func, positionals, options


def main(argv: list[str] | None = None) -> int:
    # The analysis makes no reference cycles (tests/test_gc.py), so the cyclic GC
    # would only scan its many live objects.  The few cyclic closures of json's
    # indenting encoder go to the caller's collector, whose state comes back here.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        func, positionals, options = _parse(sys.argv[1:] if argv is None else argv)
        return func(*positionals, **options)
    except _Failure as failure:
        _print_diagnostic(failure.path, failure.message, line=failure.line)
        return failure.code
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The program: ``main`` on ``sys.argv``, then, its output all flushed, an exit that skips
    the interpreter's teardown, unless development mode or a tracer or profiler works at exit."""
    code = main()
    tools = getattr(sys, "monitoring", None)  # 3.12+: cProfile registers a tool (ids 0-5)
    if sys.flags.dev_mode or sys.gettrace() or sys.getprofile() or (
            tools and any(map(tools.get_tool, range(6)))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
