#!/usr/bin/env python3
"""Check that two dimetrics source trees give the same outputs and models.

Usage: scripts/compare_outputs.py SRC_A SRC_B

Each SRC is a ``src`` directory, the one that holds ``dimetrics/``.  Each
side works in its own scratch directory on the same inputs:

* the paper's suite, written by that side's own ``generate --step 10``;
* perfbench large_project trees for seeds 7 and 8 and a seed-7 corpus_study
  tree, written once by ``perfbench/synth.py``;
* an empty project, a project with a lexical error, a project that declares
  one class twice, and a missing path;
* a report with only its header and one whose row holds ``nan``.

Besides the runs over those inputs, 16 commands each fail in their own way
(an empty path, a duplicate project, an unwritable output, a bad step, a
missing, malformed or empty report, a threshold that cannot split, and four
usage errors: an unknown command, a missing path, a bad integer and an
option value out of range) and write nothing.

Every command runs as ``python -m dimetrics.cli`` from the side's scratch
directory with relative paths, so the two sides print the same paths.  Side
A runs under ``PYTHONHASHSEED=0`` and side B under ``1``, so a tree compared
with itself is also checked for outputs that depend on the hash seed.  The
script compares each command's stdout, stderr and exit code, then every file
under ``out/``, byte for byte, and prints ``identical: <n> commands, <m>
files``.

Then it loads each side's ``dimetrics/frontend.py`` as a module of its own
and runs every input through each side's ``parse_source``, comparing the
class models and every diagnostic's ``(line, column, message, severity)``.
The inputs, all from fixed seeds:

* every file of side A's seed-7 corpus_study tree, seed-7 large_project
  tree and suite, in that order;
* 20 random prefixes of each such file, and 20 copies with one to three
  random edits each: an inserted, deleted or replaced piece, drawn from
  whitespace (with ``\\r`` and ``\\f``), quotes, a backslash, comment
  markers, ``é ² ٣``, NUL and grammar words;
* 10,000 random strings over grammar words and those pieces.

It prints ``inputs: <n>, failing: <f>, mismatches: <m>, raised: <r>``,
counting the inputs that failed to parse on side A and those that made
either side raise.  It exits 0 when everything matched and nothing raised,
else it prints the first difference and exits 1, without parsing anything
after a difference in the commands.
"""
from __future__ import annotations

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import synth  # noqa: E402

SUITE = [f"out/suite/di_{percent}" for percent in range(0, 101, 10)]
# the trees whose files the front ends parse, as side A wrote them
PARSED = ["inputs/corpus", "inputs/large7", "out/suite"]
VARIANTS_PER_FILE = 20
RANDOM_STRINGS = 10_000
PIECES = [
    " ", "\t", "\n", "\r", "\f", "\r\n", '"', "'", "\\", "//", "/*", "*/",
    "é", "²", "٣", "\0",
    "class", "extends", "implements", "new", "return", "this", "void", "null",
    "public", "static", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "A", "x", "42", "1.5", '"s"', "'c'",
]


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
        # each failure below prints one positioned error and writes nothing
        ["analyze", ""],
        ["analyze", SUITE[0], SUITE[0]],
        ["analyze", SUITE[0], "--out", "out/missing/r.csv"],
        ["generate", ""],
        ["generate", "out/bad", "--step", "25"],
        ["generate", "inputs/lexical/A.java"],
        ["stats", "out/missing.csv"],
        ["stats", "inputs/lexical/A.java"],
        ["stats", "out/suite.csv", "--threshold", "1"],
        ["chart", "out/suite.csv", "out/missing/x.svg"],
        ["stats", "inputs/reports/header.csv"],
        ["stats", "inputs/reports/nan.csv"],
        ["frobnicate"],
        ["analyze"],
        ["generate", "out/x", "--step", "x"],
        ["stats", "out/suite.csv", "--alpha", "7"],
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
    (inputs / "reports").mkdir()
    header = "project,di,cbo,dcbo,lcom,rfc,loc,ncbo,ndcbo,nlcom,nrfc,mai,dmai\n"
    (inputs / "reports" / "header.csv").write_text(header)
    (inputs / "reports" / "nan.csv").write_text(header + "p,nan,1,1,0,1,8,0.5,0.4,0,0.5,0.6,0.7\n")
    return [f"inputs/corpus/{plan.name}" for plan in plans]


def run_side(
    src: str, side: Path, argvs: list[list[str]], hash_seed: str
) -> list[tuple[bytes, bytes, int]]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": hash_seed}
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


def first_difference(a: list, b: list, unit: str = "line") -> str:
    """Where two sequences first differ, each side shown in at most 400 characters."""
    for number, (item_a, item_b) in enumerate(zip(a, b), start=1):
        if item_a != item_b:
            return f"{unit} {number}: {repr(item_a)[:400]} != {repr(item_b)[:400]}"
    return f"{len(a)} {unit}s != {len(b)} {unit}s"


def compare_commands(src_a: str, src_b: str, work: Path) -> str | None:
    """The first difference between the two sides' commands and files, or None."""
    corpus = write_inputs(work / "a" / "inputs")
    shutil.copytree(work / "a" / "inputs", work / "b" / "inputs", symlinks=True)
    argvs = commands(corpus)
    results_a = run_side(src_a, work / "a", argvs, "0")
    results_b = run_side(src_b, work / "b", argvs, "1")
    for argv, result_a, result_b in zip(argvs, results_a, results_b):
        shown = " ".join(argv if len(argv) < 8 else [*argv[:4], "...", *argv[-3:]])
        for what, a, b in zip(("stdout", "stderr"), result_a, result_b):
            if a != b:
                difference = first_difference(a.splitlines(), b.splitlines())
                return f"dimetrics {shown}: {what} differs, {difference}"
        if result_a[2] != result_b[2]:
            return f"dimetrics {shown}: exit code {result_a[2]} != {result_b[2]}"
    files_a, files_b = tree_files(work / "a" / "out"), tree_files(work / "b" / "out")
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_b or name not in files_a:
            return f"out/{name}: written by only one side"
        if files_a[name] != files_b[name]:
            difference = first_difference(files_a[name].splitlines(), files_b[name].splitlines())
            return f"out/{name}: {difference}"
    print(f"identical: {len(argvs)} commands, {len(files_a)} files")
    return None


def load_frontend(src: str, name: str):
    """``src/dimetrics/frontend.py`` as a module of its own named ``name``."""
    spec = importlib.util.spec_from_file_location(name, Path(src, "dimetrics", "frontend.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outcome(frontend, text: str) -> list[tuple]:
    """One item per model (its scalar fields first), then one per diagnostic,
    or a single item for what was raised."""
    try:
        models, diagnostics = frontend.parse_source(frontend.SourceFile("Input.java", text))
    except Exception as exc:  # a traceback is a finding to report, not the end of the run
        return [("raised", type(exc).__name__, str(exc))]
    return [
        ("model", m.name, m.path, m.line, m.column, m.file_line_count, m.line_count,
         m.super_types, [tuple(record._asdict().items()) for record in m.fields + m.methods])
        for m in models
    ] + [("diagnostic", d.line, d.column, d.message, d.severity) for d in diagnostics]


def edited(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        operation = rng.randrange(3)
        if operation == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif operation == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at + 1 :]
    return text


def fuzzed(texts: list[str], rng: random.Random):
    """Each text, then its prefixes and edited copies; then random strings."""
    for text in texts:
        yield text
        for _ in range(VARIANTS_PER_FILE):
            yield text[: rng.randint(0, len(text))]
            yield edited(text, rng)
    for _ in range(RANDOM_STRINGS):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 60)))


def compare_parses(src_a: str, src_b: str, inputs) -> str | None:
    """Parse each input with both sides' front ends and print the counts;
    the first mismatch or raise, or None."""
    side_a, side_b = load_frontend(src_a, "frontend_a"), load_frontend(src_b, "frontend_b")
    count = failing = mismatches = raised = 0
    first = None
    for text in inputs:
        count += 1
        items_a, items_b = outcome(side_a, text), outcome(side_b, text)
        mismatch = items_a != items_b
        raises = any(item[0] == "raised" for item in items_a + items_b)
        mismatches += mismatch
        raised += raises
        failing += any(item[0] == "diagnostic" for item in items_a)
        if first is None and (mismatch or raises):
            found = first_difference(items_a, items_b, "item") if mismatch else f"both {items_a[0]}"
            first = f"parse_source on {text[:200]!r}: {found}"
    print(f"inputs: {count}, failing: {failing}, mismatches: {mismatches}, raised: {raised}")
    return first


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        difference = compare_commands(argv[0], argv[1], Path(work))
        if difference is None:
            texts = [path.read_bytes().decode("utf-8")
                     for tree in PARSED for path in sorted(Path(work, "a", tree).rglob("*.java"))]
            difference = compare_parses(argv[0], argv[1], fuzzed(texts, random.Random(7)))
    if difference is not None:
        print(difference)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
