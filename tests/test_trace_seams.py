"""The traced benchmark run (perfbench/tracing.py) wraps pipeline functions by
name; a renamed or reshaped seam must fail here instead of silently dropping
a layer from ``perfbench/run.py --trace 1``."""
from __future__ import annotations

from pathlib import Path

from dimetrics.analysis import analyze_directory
from dimetrics.generator import generate_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    for layer in ("frontend.lex", "frontend.parse", "metrics.graph", "di.detect", "di.weights"):
        assert layer in names, layer
    counts = tracer.counts[0]
    for count in ("frontend.tokens", "metrics.edges", "di.findings"):
        assert counts[count] > 0, count
