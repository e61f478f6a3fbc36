"""The traced benchmark run (perfbench/tracing.py) wraps pipeline functions by
name; a renamed, reshaped or reordered seam must fail here instead of
silently dropping a layer from ``perfbench/run.py --trace 1``."""
from __future__ import annotations

from pathlib import Path

from dimetrics.analysis import analyze_directory
from dimetrics.frontend import (
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
)
from dimetrics.generator import generate_suite
from dimetrics.metrics import build_coupling_graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = (
    "frontend.lex",
    "frontend.parse",
    "metrics.graph",
    "metrics.project",
    "metrics.cbo",
    "metrics.rfc",
    "metrics.lcom",
    "di.detect",
    "di.weights",
    "maintainability.scores",
)


def _referenced_pairs(project_dir: Path) -> int:
    """(client, referenced dependency) pairs of a project, from its graph."""
    models = []
    for path in discover_source_files(project_dir):
        models.extend(parse_source(load_source_file(path))[0])
    project, _ = resolve_project(models)
    graph = build_coupling_graph(project)
    return sum(len(graph.references[model.name]) for model in project.classes)


def test_traced_layers_record_spans(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    dirs = generate_suite(tmp_path / "projects", step=50)
    tracer = tracing.Tracer()
    with tracer.installed():
        for project in dirs:
            analysis, diagnostics = analyze_directory(project)
            assert analysis is not None and diagnostics == []
    names = {span[0] for span in tracer.spans}
    for layer in LAYERS:
        assert layer in names, layer
    counts = tracer.counts[0]
    for count in ("frontend.tokens", "metrics.edges", "di.findings"):
        assert counts[count] > 0, count
    assert counts["di.findings"] == sum(_referenced_pairs(project) for project in dirs)
