#!/usr/bin/env python3
"""Run the full experiment loop into one output directory.

Generates the di_0 … di_100 suite under ``projects/``, analyzes it into
``report.csv`` and ``report.json``, renders the trendline chart
``trends.svg``, and prints the Friedman/Holm analysis for both
maintainability indices at the 0.5 DI threshold.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dimetrics.cli import main as dimetrics_main


def run(out_dir: Path) -> int:
    """Each call in turn; the exit code of the first that fails, else 0."""
    projects = out_dir / "projects"
    report_csv = str(out_dir / "report.csv")
    project_dirs = [str(projects / f"di_{percent}") for percent in range(0, 101, 10)]
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = [
        ["generate", str(projects), "--step", "10"],
        ["analyze", *project_dirs, "--out", report_csv],
        ["analyze", *project_dirs, "--format", "json", "--out", str(out_dir / "report.json")],
        ["chart", report_csv, str(out_dir / "trends.svg")],
        ["stats", report_csv, "--metric", "mai"],
        ["stats", report_csv, "--metric", "dmai"],
    ]
    for argv in calls:
        code = dimetrics_main(argv)
        if code:
            return code
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default="experiment_out", help="where to place all artifacts"
    )
    args = parser.parse_args()
    return run(Path(args.out_dir))


if __name__ == "__main__":
    sys.exit(main())
