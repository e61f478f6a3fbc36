#!/usr/bin/env python3
"""Check that two versions of ``frontend.py`` parse every input alike.

Usage: scripts/compare_frontend.py FRONTEND_A FRONTEND_B

Each argument is the path of a ``frontend.py`` file; both are loaded side by
side as modules of their own.  Every input goes through each side's
``parse_source``, and the script compares the class models and every
diagnostic's ``(line, column, message, severity)``.  The inputs, all from
fixed seeds:

* every file of the paper's suite (``generate --step 10``), of a seed-7
  perfbench large_project tree and of a seed-7 corpus_study tree, written
  by ``perfbench/synth.py`` into a temporary directory;
* 20 random prefixes of each such file, and 20 copies with one to three
  random edits each: an inserted, deleted or replaced piece, drawn from
  whitespace (with ``\\r`` and ``\\f``), quotes, a backslash, comment
  markers, ``é ² ٣``, NUL and grammar words;
* 10,000 random strings over grammar words and those pieces.

It prints the number of inputs, of inputs that failed to parse (on side A)
and of mismatches, and exits 1 if any input gave different results or made
either side raise.
"""
from __future__ import annotations

import importlib.util
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import synth  # noqa: E402
from dimetrics.generator import generate_suite  # noqa: E402

VARIANTS_PER_FILE = 20
RANDOM_STRINGS = 10_000
PIECES = [
    " ", "\t", "\n", "\r", "\f", "\r\n", '"', "'", "\\", "//", "/*", "*/",
    "é", "²", "٣", "\0",
    "class", "extends", "implements", "new", "return", "this", "void", "null",
    "public", "static", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=",
    "A", "x", "42", "1.5", '"s"', "'c'",
]


def load_frontend(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def named_values(record) -> tuple:
    """A record's ``(field name, value)`` pairs."""
    return tuple(record._asdict().items())


def outcome(frontend, text: str) -> list[tuple]:
    """One item per model (its scalar fields first), then one per diagnostic,
    or a single item for what was raised."""
    try:
        models, diagnostics = frontend.parse_source(frontend.SourceFile("Input.java", text))
    except Exception as exc:  # a traceback is a finding to report, not the end of the run
        return [("raised", type(exc).__name__, str(exc))]
    return [
        ("model", m.name, m.path, m.line, m.column, m.file_line_count, m.line_count,
         m.super_types, [*map(named_values, m.fields + m.methods)])
        for m in models
    ] + [("diagnostic", d.line, d.column, d.message, d.severity) for d in diagnostics]


def first_difference(items_a: list[tuple], items_b: list[tuple]) -> str:
    for item_a, item_b in zip(items_a, items_b):
        if item_a != item_b:
            return f"A: {str(item_a)[:400]}\n  B: {str(item_b)[:400]}"
    return f"A gave {len(items_a)} items, B {len(items_b)}"


def source_texts(work: Path) -> list[str]:
    generate_suite(work / "suite", 10)
    synth.write_large_project(work / "large", 7)
    synth.write_corpus(work / "corpus", 7)
    return [path.read_bytes().decode("utf-8") for path in sorted(work.rglob("*.java"))]


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


def inputs(texts: list[str], rng: random.Random):
    for text in texts:
        yield text
        for _ in range(VARIANTS_PER_FILE):
            yield text[: rng.randint(0, len(text))]
            yield edited(text, rng)
    for _ in range(RANDOM_STRINGS):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 60)))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    side_a = load_frontend(argv[0], "frontend_a")
    side_b = load_frontend(argv[1], "frontend_b")
    with tempfile.TemporaryDirectory() as work:
        texts = source_texts(Path(work))
    count = failing = mismatches = raised = 0
    for text in inputs(texts, random.Random(7)):
        count += 1
        items_a, items_b = outcome(side_a, text), outcome(side_b, text)
        raised += any(item[0] == "raised" for item in items_a + items_b)
        failing += any(item[0] == "diagnostic" for item in items_a)
        if items_a != items_b:
            mismatches += 1
            if mismatches == 1:
                print(f"first mismatch, on {text[:200]!r}:\n  {first_difference(items_a, items_b)}")
    print(f"inputs: {count}, failing: {failing}, mismatches: {mismatches}, raised: {raised}")
    return 1 if mismatches or raised else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
