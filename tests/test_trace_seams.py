"""The traced benchmark run (perfbench/tracing.py) wraps pipeline functions by
name; a renamed, reshaped or reordered seam must fail here instead of
silently dropping a layer from ``perfbench/run.py --trace 1``."""
from __future__ import annotations

import json
from collections import Counter

from dimetrics.analysis import analyze_directory

from conftest import PERFBENCH, SRC, run_python

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


def test_traced_layers_record_spans(paper_suite, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    referenced_pairs = 0  # (client, referenced dependency) pairs, from each graph
    with tracer.installed():
        for project in paper_suite[0]:
            analysis, diagnostics = analyze_directory(project)
            assert analysis is not None and diagnostics == []
            referenced_pairs += sum(len(refs) for refs in analysis.graph.references.values())
    names = {span[0] for span in tracer.spans}
    for layer in LAYERS:
        assert layer in names, layer
    counts = tracer.counts[0]
    for count in ("frontend.tokens", "metrics.edges", "di.findings"):
        assert counts[count] > 0, count
    assert counts["di.findings"] == referenced_pairs


# One op in a fresh interpreter: the tracer must find every CLI seam before
# any subcommand has run, and a seam must stay wrapped after its first call.
FRESH_OP = """\
import contextlib, io, json, sys
import tracing
from dimetrics import cli

work = sys.argv[1]
projects = [f"{work}/suite/di_{p}" for p in range(0, 101, 20)]
argvs = [
    ["generate", f"{work}/suite", "--step", "20"],
    ["analyze", *projects, "--out", f"{work}/report.csv"],
    ["stats", f"{work}/report.csv"],
    ["chart", f"{work}/report.csv", f"{work}/trends.svg"],
]
seams = dict(cli.__dict__)
tracer = tracing.Tracer()
with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
restored = [name for name, value in seams.items() if cli.__dict__[name] is value]
print(json.dumps({"codes": codes, "spans": [span[0] for span in tracer.spans],
                  "restored": len(restored) == len(seams)}))
"""


def test_cli_seams_are_traced_in_a_fresh_interpreter(tmp_path):
    done = run_python("-S", "-c", FRESH_OP, tmp_path, path=(SRC, PERFBENCH))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["restored"]
    spans = Counter(result["spans"])
    # 6 projects: one report_row each, then rows_to_csv
    assert spans["generator.suite"] == 1
    assert spans["analysis.directory"] == 6
    assert spans["report.write"] == 7
    assert spans["report.read"] == 2  # stats and chart
    assert spans["stats.friedman"] == 2  # split_by_threshold and friedman_test
    assert spans["chart.render"] == 1
