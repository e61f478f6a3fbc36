"""Start-up budget: each CLI subcommand loads only the modules it runs.

Every CLI call is a fresh interpreter, and most of a short call's time is
spent importing.  Each case runs ``cli.main`` in a new ``python -S``
process and lists ``sys.modules`` after importing ``dimetrics.cli`` and
after the call; the import-time cases check that ``-X importtime``, the
README's way to see what each import costs, reports those modules.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from conftest import run_python

CHILD = """\
import sys
from dimetrics import cli
imported = sorted(sys.modules)
status = cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write(" ".join(imported) + "\\n" + " ".join(sorted(sys.modules)) + "\\n")
sys.exit(status)
"""
ANALYSIS = {"analysis", "di", "frontend", "maintainability", "metrics", "report"}
# the package modules each call loads besides the package and the cli
LOADS = {
    "generate": {"generator"},
    "analyze": ANALYSIS,
    "analyze-json": ANALYSIS,
    "stats": {"report", "stats"},
    "chart": {"report", "chart"},
}
# The cli reads and writes its one file with ``open``, so importing it and
# running ``stats`` or ``chart`` loads no pathlib.  ``analyze`` and
# ``generate`` still load it: discovery returns ``Path``s, and so does
# ``generate_suite``.  Nor do those two, which only read a report, load the
# ``decimal`` that only the report writers need, or the ``re`` that only
# ``csv.Sniffer`` needs: the report reads through ``_csv``.
READERS = {"stats", "chart"}
READERS_NEVER = {"pathlib", "decimal", "re"}
# the cli reads its command line itself: argparse and the gettext it imports
# would cost a short call more than its own work
NEVER = {"typing", "dataclasses", "inspect", "argparse", "gettext"}


def _argv(case: str, paper_suite, out: Path) -> list[str]:
    """The call of ``case`` on the shared suite and report, writing under ``out``."""
    projects, report = [str(p) for p in paper_suite[0]], str(paper_suite[1])
    return {
        "generate": ["generate", str(out / "generated")],
        "analyze": ["analyze", *projects, "--format", "csv", "--out", str(out / "out.csv")],
        "analyze-json": ["analyze", *projects, "--format", "json", "--out", str(out / "out.json")],
        "stats": ["stats", report],
        "chart": ["chart", report, str(out / "trends.svg")],
    }[case]


def _modules(out: Path, argv: list[str]) -> tuple[set[str], set[str]]:
    """Modules loaded by ``import dimetrics.cli`` and by then calling ``main(argv)``."""
    listing = out / "modules.txt"
    done = run_python("-S", "-c", CHILD, listing, *argv, timeout=60)
    assert done.returncode == 0 and done.stderr == b"", done.stderr
    imported, loaded = listing.read_text(encoding="utf-8").splitlines()
    return set(imported.split()), set(loaded.split())


def _package(modules: set[str]) -> set[str]:
    """The ``dimetrics`` submodules among ``modules``, without the cli."""
    return {m.split(".", 1)[1] for m in modules if m.startswith("dimetrics.")} - {"cli"}


def test_importing_the_cli_loads_no_subsystem(tmp_path):
    imported, loaded = _modules(tmp_path, [])
    assert _package(loaded) == set()
    assert {"dimetrics", "dimetrics.cli"} <= imported
    assert not (NEVER | {"pathlib", "re"}) & loaded


@pytest.mark.parametrize("case", sorted(LOADS))
def test_each_subcommand_loads_only_what_it_runs(case, paper_suite, tmp_path):
    imported, loaded = _modules(tmp_path, _argv(case, paper_suite, tmp_path))
    assert _package(imported) == set()
    assert _package(loaded) == LOADS[case]
    assert not NEVER & loaded
    if case == "analyze":
        assert "json" not in loaded  # only the JSON writer needs it
    if case in READERS:
        assert not READERS_NEVER & loaded


@pytest.mark.parametrize("case", ["analyze", "chart", "generate", "stats"])
def test_importtime_reports_every_module_a_subcommand_loads(case, paper_suite, tmp_path):
    argv = _argv(case, paper_suite, tmp_path)
    done = run_python("-S", "-X", "importtime", "-m", "dimetrics.cli", *argv, timeout=60)
    assert done.returncode == 0, done.stderr
    timed = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.decode().splitlines()
        if line.startswith("import time:")
    }
    assert {f"dimetrics.{module}" for module in LOADS[case]} <= timed
    if case in READERS:
        assert not READERS_NEVER & timed
