"""The three workloads: their inputs, the CLI calls of one op, and its checks.

Every op is one complete study in the paper's shape: ``generate`` the
paper's 11-project suite, ``analyze`` it together with the workload's own
projects into a CSV report, run ``stats`` on the report and draw the
``chart``.  paper_suite analyzes the suite alone and adds the JSON report
and the MAI test, as the paper's experiment does.  The workloads differ in
what ``analyze`` reads:

* paper_suite   - the 11 suite projects only (121 classes): start-up,
  import, generator, stats and chart dominate;
* large_project - one 1000-class project with 1500-method god classes: the
  per-class layers (lex, parse, CBO degree scan, LCOM) dominate;
* corpus_study  - 300 small comment-heavy projects: per-file and
  per-project costs (discover, read, LOC scan, lex, resolve) dominate, and
  the report side reads and writes 311 rows.

All paths are relative to a run directory: inputs live under ``inputs/``,
one op's outputs under ``op/``.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import oracle
import synth

NAMES = ("paper_suite", "large_project", "corpus_study")
SUITE_DIRS = tuple(f"op/suite/di_{p}" for p in range(0, 101, 10))
OUTPUTS = ("report.csv", "report.json", "stats_mai.txt", "stats_dmai.txt", "trends.svg")


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]  # arguments after ``dimetrics``
    stdout: str | None = None  # file under the run directory that receives stdout

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Study:
    name: str
    input_dirs: tuple[str, ...]
    expected: tuple[oracle.Expected, ...]  # every report row, suite included

    @property
    def full(self) -> bool:
        """The paper's experiment also writes the JSON report and tests MAI."""
        return self.name == "paper_suite"

    @property
    def classes(self) -> int:
        """Classes one ``analyze`` call reads."""
        return sum(e.classes for e in self.expected)

    def calls(self) -> list[Call]:
        projects = (*SUITE_DIRS, *self.input_dirs)
        calls = [
            Call(("generate", "op/suite", "--step", "10"), "op/generate.txt"),
            Call(("analyze", *projects, "--out", "op/report.csv")),
        ]
        if self.full:
            calls.append(Call(("analyze", *projects, "--format", "json", "--out", "op/report.json")))
            calls.append(Call(("stats", "op/report.csv", "--metric", "mai"), "op/stats_mai.txt"))
        calls.append(Call(("stats", "op/report.csv", "--metric", "dmai"), "op/stats_dmai.txt"))
        calls.append(Call(("chart", "op/report.csv", "op/trends.svg")))
        return calls

    def check(self, run_dir: Path) -> tuple[list[str], dict[str, str]]:
        """Problems found in the op's outputs, and the digest of each output."""
        op = run_dir / "op"
        texts: dict[str, str] = {}
        for name in ("generate.txt", *OUTPUTS):
            try:
                texts[name] = (op / name).read_text(encoding="utf-8")
            except OSError:
                pass
        wanted = ["generate.txt", "report.csv", "stats_dmai.txt", "trends.svg"]
        if self.full:
            wanted += ["report.json", "stats_mai.txt"]
        missing = [name for name in wanted if name not in texts]
        if missing:
            return [f"missing outputs: {', '.join(missing)}"], {}
        rows = list(self.expected)
        problems = []
        if len(texts["generate.txt"].split()) != len(SUITE_DIRS):
            problems.append("generate did not list the 11 suite projects")
        try:
            problems += oracle.check_csv(texts["report.csv"], rows)
            problems += oracle.check_stats(texts["stats_dmai.txt"], rows, "reject" if self.full else None)
            problems += oracle.check_svg(texts["trends.svg"], rows)
            if self.full:
                problems += oracle.check_json(texts["report.json"], texts["report.csv"], rows)
                problems += oracle.check_stats(texts["stats_mai.txt"], rows)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
        digests = {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in texts.items() if name in OUTPUTS
        }
        return problems, digests


def write_inputs(name: str, run_dir: Path, seed: int) -> Study:
    """Write the workload's seeded inputs under ``run_dir/inputs``."""
    inputs = run_dir / "inputs"
    if name == "paper_suite":
        plans = []
    elif name == "large_project":
        plans = synth.write_large_project(inputs, seed)
    elif name == "corpus_study":
        plans = synth.write_corpus(inputs, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Study(
        name=name,
        input_dirs=tuple(f"inputs/{plan.name}" for plan in plans),
        expected=(*oracle.suite_rows(), *(oracle.plan_row(plan) for plan in plans)),
    )


class Tally:
    """Attempted and failed ops; an op fails on any problem or changed output bytes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.baseline: dict[str, str] | None = None
        self.first_problems: list[str] = []

    def add(self, problems: list[str], digests: dict[str, str] | None = None) -> None:
        """Count one checked op; ``digests`` are compared with the first clean op's."""
        if digests is not None and self.baseline is None and not problems:
            self.baseline = digests
        elif digests is not None and self.baseline is not None and digests != self.baseline:
            problems = problems + ["outputs differ from the first op's bytes"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if not self.first_problems:
                self.first_problems = problems[:5]
