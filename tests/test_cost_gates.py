"""Deterministic cost gates: each pipeline stage's Python call count grows no
faster than the number of classes.  Counts of calls, not times, are the same
on every run on one Python version, so a gate holds exactly."""
from __future__ import annotations

import sys
from pathlib import Path

from dimetrics.di import apply_injection_weights, detect_injections
from dimetrics.frontend import (
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
)
from dimetrics.metrics import build_coupling_graph, compute_project_metrics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _counted(function, *args):
    """``function(*args)`` and the ``call`` and ``c_call`` events it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" or event == "c_call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = function(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def stage_calls(root: Path) -> dict[str, int]:
    """The calls each stage makes on the project under ``root``."""
    sources = [load_source_file(path) for path in discover_source_files(root)]
    parsed, parse_calls = _counted(lambda: [parse_source(source) for source in sources])
    project, diagnostics = resolve_project([model for models, _ in parsed for model in models])
    assert project is not None, diagnostics
    graph, graph_calls = _counted(build_coupling_graph, project)
    summary, detect_calls = _counted(detect_injections, project, graph)
    di_proportion = apply_injection_weights(graph, summary)
    _, metrics_calls = _counted(
        compute_project_metrics, project, graph, summary.dip_per_class, di_proportion
    )
    return {
        "parse_source": parse_calls,
        "build_coupling_graph": graph_calls,
        "detect_injections": detect_calls,
        "compute_project_metrics": metrics_calls,
    }


def test_no_stage_makes_more_than_4_1_times_the_calls_on_4_times_the_classes(
    tmp_path, monkeypatch
):
    """On perfbench's seed-7 large_project trees of 100 and 400 classes, a
    stage linear in the classes reads a ratio of 4 or less (Python 3.11 reads
    2.90, 2.84, 4.00 and 3.41).  A coupling graph that counts each class's
    degree by scanning every edge reads 10.48."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import synth

    synth.write_large_project(tmp_path / "small", 7, 100)
    synth.write_large_project(tmp_path / "large", 7, 400)
    small, large = stage_calls(tmp_path / "small"), stage_calls(tmp_path / "large")
    ratios = {stage: round(large[stage] / small[stage], 2) for stage in small}
    assert max(ratios.values()) <= 4.1, ratios
