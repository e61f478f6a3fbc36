"""Deterministic cost gates: each pipeline stage's Python call count, and the
bytes the parsed class models hold, grow no faster than the number of
classes, the parser makes few calls per token, and on a Python version with
measured ceilings no stage makes more calls per class, and the models hold
no more bytes per class, than its ceiling.  Counts of calls, not times, are
the same on every run on one Python version, so a gate on them holds
exactly.  The gates that run on every version print their readings, one
line each, which ``pytest -rP`` shows: each stage's calls per class on both
trees, the parser's calls per token and each tree's model bytes.  So a
ceiling for a new version can be read from a CI log."""
from __future__ import annotations

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

from dimetrics.analysis import ProjectAnalysis
from dimetrics.di import apply_injection_weights, detect_injections
from dimetrics.frontend import (
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
    tokenize,
)
from dimetrics.maintainability import compute_scores
from dimetrics.metrics import build_coupling_graph, compute_project_metrics
from dimetrics.report import report_row, rows_to_csv

from conftest import PERFBENCH, run_python

# ``call`` + ``c_call`` events per class on the 400-class tree, a few per cent
# above what each version read (3.11.7: 38.05, 339.74, 148.5, 18.2, 48.0, 0.0225
# and 0.1475, the last two one project's 9 and 59 calls; 3.12.1 and 3.13.0:
# 45.08 and 43.08, 331.32, 146.47, 16.16, 46.0, 0.0225 and 0.1425).  A version
# with no entry gets only the growth gate: the counts differ between versions.
CEILINGS = {
    (3, 11): {
        "discover_and_read": 40,
        "parse_source": 350,
        "build_coupling_graph": 156,
        "detect_injections": 19,
        "compute_project_metrics": 50,
        "compute_scores": 0.0235,
        "rows_to_csv": 0.153,
    },
    (3, 12): {
        "discover_and_read": 47,
        "parse_source": 342,
        "build_coupling_graph": 152,
        "detect_injections": 17,
        "compute_project_metrics": 48,
        "compute_scores": 0.0235,
        "rows_to_csv": 0.148,
    },
    (3, 13): {
        "discover_and_read": 45,
        "parse_source": 342,
        "build_coupling_graph": 152,
        "detect_injections": 17,
        "compute_project_metrics": 48,
        "compute_scores": 0.0235,
        "rows_to_csv": 0.148,
    },
}
# ``tracemalloc`` bytes the 400-class tree's models hold per class, a few per
# cent above what each version read (3.11.7: 8,015; 3.12.1: 7,977; 3.13.0: 7,979).
MODEL_BYTES_CEILINGS = {(3, 11): 8_300, (3, 12): 8_250, (3, 13): 8_250}
# The bytes that the class models ``parse_source`` returns for the tree named
# on its command line still hold once it has returned, the process-wide name
# table included.  Each tree is read in its own fresh ``python -S`` child, so
# neither what the tests loaded before nor the names of another tree, already
# in the table, can move the figure.
MODEL_BYTES = """\
import sys, tracemalloc
from dimetrics.frontend import discover_source_files, load_source_file, parse_source
sources = [load_source_file(path) for path in discover_source_files(sys.argv[1])]
tracemalloc.start()
models = [model for source in sources for model in parse_source(source)[0]]
print(tracemalloc.get_traced_memory()[0])  # read while ``models`` holds them
"""


def _counted(function, *args):
    """``function(*args)`` and the count of each profiler event it made.  The
    collector is off meanwhile: when it runs depends on what was allocated
    before, and a ``gc.callbacks`` hook, such as Hypothesis's, makes calls."""
    events = Counter()

    def count(frame, event, arg):
        events[event] += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, events


def _calls(events: Counter) -> int:
    return events["call"] + events["c_call"]


def model_bytes(root: Path) -> int:
    """The bytes the models of the tree under ``root`` hold, read in a fresh child."""
    done = run_python("-S", "-c", MODEL_BYTES, root, timeout=60)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def stage_events(root: Path) -> dict[str, Counter]:
    """The profiler events each stage makes on the project under ``root``."""
    sources, read_events = _counted(
        lambda: [load_source_file(path) for path in discover_source_files(root)]
    )
    parsed, parse_events = _counted(lambda: [parse_source(source) for source in sources])
    project, diagnostics = resolve_project([model for models, _ in parsed for model in models])
    assert project is not None, diagnostics
    graph, graph_events = _counted(build_coupling_graph, project)
    summary, detect_events = _counted(detect_injections, project, graph)
    di_proportion = apply_injection_weights(graph, summary)
    metrics, metrics_events = _counted(
        compute_project_metrics, project, graph, summary.dip_per_class, di_proportion
    )
    scores, scores_events = _counted(compute_scores, metrics)
    analysis = ProjectAnalysis(root.name, graph, summary, metrics, scores)
    _, csv_events = _counted(lambda: rows_to_csv([report_row(analysis)]))
    return {
        "discover_and_read": read_events,
        "parse_source": parse_events,
        "build_coupling_graph": graph_events,
        "detect_injections": detect_events,
        "compute_project_metrics": metrics_events,
        "compute_scores": scores_events,
        "rows_to_csv": csv_events,
    }


@pytest.fixture(scope="module")
def large_project(tmp_path_factory):
    """perfbench's seed-7 large_project trees of 100 and 400 classes: the
    events of each stage on each, and the directory that holds both trees,
    ``small`` and ``large``."""
    root = tmp_path_factory.mktemp("large_project")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import synth

        synth.write_large_project(root / "small", 7, 100)
        synth.write_large_project(root / "large", 7, 400)
        # relative paths: ``Path`` makes calls per part of a path, so the depth
        # of the temporary directory would move the discovery stage's count
        monkeypatch.chdir(root)
        return stage_events(Path("small")), stage_events(Path("large")), root


def test_no_stage_makes_more_than_4_1_times_the_calls_on_4_times_the_classes(large_project):
    """A stage linear in the classes reads a ratio of 4 or less (Python 3.11
    reads 3.98, 2.98, 2.82, 4.00, about 3.4, 1.00 and 1.00: scores and the
    report row cost the same for any project).  A coupling graph that counts
    each class's degree by scanning every edge reads 10.48, and discovery
    that sorts ``Path``s, a Python-level comparison per pair, 4.52."""
    small, large, _ = large_project
    ratios = {stage: round(_calls(large[stage]) / _calls(small[stage]), 2) for stage in small}
    per_class = {stage: (_calls(small[stage]) / 100, _calls(large[stage]) / 400) for stage in small}
    print("calls per class on 100 and on 400 classes:", per_class, "ratios:", ratios)
    assert max(ratios.values()) <= 4.1, ratios


def test_parser_makes_at_most_0_6_python_calls_per_token(large_project):
    """The parser calls a function only to parse a rule that recurses or
    repeats, checks every other word in place and takes an identifier by set
    membership, and the binder binds a class's methods in one loop.  Counts
    Python ``call`` events, not C calls (3.11 reads 0.465, 3.12 and 3.13
    0.439; a cursor object with a helper call per expected word read 0.737,
    and with one more for each statement's ``;`` and ``}`` and a bind call
    per method, 1.99)."""
    _, large, root = large_project
    paths = discover_source_files(root / "large")
    tokens = sum(len(tokenize(load_source_file(path).text)) for path in paths)
    calls = large["parse_source"]["call"]
    print(f"parse_source calls per token: {calls / tokens:.3f} ({calls} / {tokens})")
    assert calls / tokens <= 0.6, f"{calls} calls for {tokens} tokens"


@pytest.mark.skipif(sys.version_info[:2] not in CEILINGS, reason="no ceilings for this Python")
def test_no_stage_makes_more_calls_per_class_than_its_ceiling(large_project):
    """On 3.11, a coupling graph that counts each class's degree by scanning
    every edge reads 1347 calls per class against the graph's ceiling of 156,
    a parser that calls a helper for each statement's ``;`` and ``}`` and a
    binder that calls one per method read 832.7 against 350, and discovery
    that sorts ``Path``s, with reading through a buffered ``open``, reads 69.4
    against 40."""
    _, large, _ = large_project
    ceilings = CEILINGS[sys.version_info[:2]]
    per_class = {stage: _calls(large[stage]) / 400 for stage in ceilings}
    assert all(per_class[stage] <= ceilings[stage] for stage in ceilings), per_class


def test_parse_source_makes_the_same_calls_whatever_was_parsed_before(large_project):
    """The name table is filled by the same calls whether or not it already
    holds a file's names, so the counts above do not depend on the order in
    which the tests parse: the 100-class tree, parsed again after the
    400-class tree, makes the events it made before it."""
    small, _, root = large_project
    assert stage_events(root / "small")["parse_source"] == small["parse_source"]


def test_the_models_hold_bytes_linear_in_the_classes(large_project):
    """The 400-class tree's models may hold at most 4.1 times the bytes of
    the 100-class tree's (3.11.7 reads about 2.4), and on a Python version with a
    ceiling no more bytes per class than it.  Models that each keep their own
    copy of every name read 14,118 bytes per class against 3.11's 8,300, and
    models that each hold a copy of their file's text more."""
    _, _, root = large_project
    small, large = model_bytes(root / "small"), model_bytes(root / "large")
    print(f"model bytes: {small} on 100 classes, {large} on 400 ({large / 400:.0f} per class)")
    assert large / small <= 4.1, (small, large)
    ceiling = MODEL_BYTES_CEILINGS.get(sys.version_info[:2])
    assert ceiling is None or large / 400 <= ceiling, (large / 400, ceiling)
