#!/usr/bin/env python3
"""Check that two dimetrics source trees give byte-identical outputs.

Usage: scripts/compare_outputs.py SRC_A SRC_B

Each SRC is a ``src`` directory, the one that holds ``dimetrics/``.  Each
side works in its own scratch directory on the same inputs:

* the paper's suite, written by that side's own ``generate --step 10``;
* perfbench large_project trees for seeds 7 and 8 and a seed-7 corpus_study
  tree, written once by ``perfbench/synth.py``;
* an empty project, a project with a lexical error, a project that declares
  one class twice, and a missing path.

Every command runs as ``python -m dimetrics.cli`` from the side's scratch
directory with relative paths, so the two sides print the same paths.  The
script compares each command's stdout, stderr and exit code, then every file
under ``out/``, byte for byte.  It prints ``identical: <n> commands, <m>
files`` and exits 0, or prints the first difference and exits 1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import synth  # noqa: E402

SUITE = [f"out/suite/di_{percent}" for percent in range(0, 101, 10)]


def _analyze_report_and_stats(name: str, projects: list[str]) -> list[list[str]]:
    """``analyze`` to CSV and JSON, then ``stats`` three ways and ``chart``."""
    report = f"out/{name}.csv"
    return [
        ["analyze", *projects, "--out", report],
        ["analyze", *projects, "--format", "json"],
        ["stats", report, "--metric", "mai"],
        ["stats", report, "--metric", "dmai"],
        ["stats", report, "--threshold", "0.3", "--boundary", "upper"],
        ["chart", report, f"out/{name}.svg"],
    ]


def commands(corpus: list[str]) -> list[list[str]]:
    return [
        ["generate", "out/suite", "--step", "10"],
        *_analyze_report_and_stats("suite", SUITE),
        *_analyze_report_and_stats("large7", ["inputs/large7/large"]),
        *_analyze_report_and_stats("large8", ["inputs/large8/large"]),
        *_analyze_report_and_stats("corpus", [*corpus, *SUITE]),
        ["analyze", "inputs/empty"],
        ["analyze", "inputs/lexical", SUITE[0]],
        ["analyze", "inputs/duplicate", SUITE[0]],
        ["analyze", "inputs/missing"],
    ]


def write_inputs(inputs: Path) -> list[str]:
    """Write every input tree under ``inputs``; returns the corpus project paths."""
    synth.write_large_project(inputs / "large7", 7)
    synth.write_large_project(inputs / "large8", 8)
    plans = synth.write_corpus(inputs / "corpus", 7)
    (inputs / "empty").mkdir()
    (inputs / "lexical").mkdir()
    (inputs / "lexical" / "A.java").write_text('class A {\n    String s() { return "x; }\n}\n')
    (inputs / "duplicate").mkdir()
    (inputs / "duplicate" / "A.java").write_text("class A {\n}\n")
    (inputs / "duplicate" / "B.java").write_text("class B {\n}\nclass A {\n}\n")
    return [f"inputs/corpus/{plan.name}" for plan in plans]


def run_side(src: str, side: Path, argvs: list[list[str]]) -> list[tuple[bytes, bytes, int]]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    (side / "out").mkdir()
    results = []
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "dimetrics.cli", *argv],
                              cwd=side, env=env, capture_output=True, check=False)
        results.append((done.stdout, done.stderr, done.returncode))
    return results


def tree_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a != line_b:
            return f"line {number}: {line_a!r} != {line_b!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def compare(src_a: str, src_b: str, work: Path) -> str | None:
    """The first difference between the two sides, or None."""
    corpus = write_inputs(work / "a" / "inputs")
    shutil.copytree(work / "a" / "inputs", work / "b" / "inputs", symlinks=True)
    argvs = commands(corpus)
    results_a = run_side(src_a, work / "a", argvs)
    results_b = run_side(src_b, work / "b", argvs)
    for argv, result_a, result_b in zip(argvs, results_a, results_b):
        shown = " ".join(argv if len(argv) < 8 else [*argv[:4], "...", *argv[-3:]])
        for what, a, b in zip(("stdout", "stderr"), result_a, result_b):
            if a != b:
                return f"dimetrics {shown}: {what} differs, {first_difference(a, b)}"
        if result_a[2] != result_b[2]:
            return f"dimetrics {shown}: exit code {result_a[2]} != {result_b[2]}"
    files_a, files_b = tree_files(work / "a" / "out"), tree_files(work / "b" / "out")
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b or name not in files_a:
            return f"out/{name}: written by only one side"
        if files_a[name] != files_b[name]:
            return f"out/{name}: {first_difference(files_a[name], files_b[name])}"
    print(f"identical: {len(argvs)} commands, {len(files_a)} files")
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        difference = compare(argv[0], argv[1], Path(work))
    if difference is not None:
        print(difference)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
