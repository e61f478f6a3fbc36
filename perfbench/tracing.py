"""Traced in-process run: spans around the public calls into each module.

The op of the chosen workload runs through ``dimetrics.cli.main`` inside
this process, once untraced and once traced, until ``--seconds`` pass.
Tracing swaps each public function that the CLI and ``analyze_directory``
call (and ``tokenize``, ``SourceFile.from_text``, ``CouplingGraph.degree``,
``compute_rfc`` and ``compute_lcom`` below them) for a wrapper that records
a span ``[name, start_ns, end_ns, parent, op]`` and a few counts, and puts
the originals back afterwards.  No code under ``src/`` changes.

A layer's time is its spans' self time (duration minus the time of child
spans), as a median over traced ops; ``analysis.directory_s`` alone is
inclusive.  ``analysis.coverage`` is the share of ``analyze_directory``
time that the named layers account for.  ``trace.overhead_s`` is the
median traced op minus the median untraced op.

The growth metrics come first, while the process is fresh, from
``analyze_directory`` on the large_project input at a quarter of its size
and at full size: ``log(t_full / t_quarter) / log 4``, which is 1 for a
linear layer and 2 for a quadratic one.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
import synth
import workloads

IMPORT_SAMPLES = 5
MIN_TRACED_OPS = 2
GROWTH_REPEATS = 3
GROWTH_LAYERS = {
    "frontend.lex_growth": "frontend.lex",
    "frontend.parse_bind_growth": "frontend.parse",
    "metrics.cbo_growth": "metrics.cbo",
    "metrics.lcom_growth": "metrics.lcom",
    "di.detect_growth": "di.detect",
}
# metric name -> span name whose self time it reports
SELF_TIMES = {
    "generator.suite_s": "generator.suite",
    "frontend.discover_s": "frontend.discover",
    "frontend.read_s": "frontend.read",
    "frontend.loc_s": "frontend.loc",
    "frontend.lex_s": "frontend.lex",
    "frontend.parse_bind_s": "frontend.parse",
    "frontend.resolve_s": "frontend.resolve",
    "metrics.graph_s": "metrics.graph",
    "metrics.cbo_s": "metrics.cbo",
    "metrics.rfc_s": "metrics.rfc",
    "metrics.lcom_s": "metrics.lcom",
    "metrics.project_s": "metrics.project",
    "di.detect_s": "di.detect",
    "di.weights_s": "di.weights",
    "maintainability.scores_s": "maintainability.scores",
    "report.write_s": "report.write",
    "report.read_s": "report.read",
    "stats.friedman_s": "stats.friedman",
    "chart.render_s": "chart.render",
}
COUNTS = ("generator.files", "frontend.files", "frontend.bytes", "frontend.tokens",
          "frontend.classes", "frontend.methods", "metrics.edges", "metrics.lcom_pairs",
          "di.findings", "report.rows", "report.bytes")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.analyses: list[tuple[str, object]] = []  # (root, analysis) of traced op 0
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            index, parent = len(self.spans), self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                # a tuple of atoms, which the cyclic GC stops tracking
                self.spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, return_value, *args)
            return return_value

        return traced

    def add(self, key: str, amount: int) -> None:
        self.counts.setdefault(self.op, Counter())[key] += amount

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced functions in for the duration of the block."""
        from dimetrics import analysis, cli, frontend, metrics

        targets = [
            (cli, "generate_suite", "generator.suite",
             lambda t, dirs, *a: t.add("generator.files", sum(len(list(d.glob("*.java"))) for d in dirs))),
            (cli, "analyze_directory", "analysis.directory",
             lambda t, result, root, *a: t.op == 0 and t.analyses.append((str(root), result[0]))),
            (cli, "report_row", "report.write", None),
            (cli, "rows_to_csv", "report.write",
             lambda t, text, rows: (t.add("report.rows", len(rows)), t.add("report.bytes", len(text.encode())))),
            (cli, "rows_to_json", "report.write",
             lambda t, text, rows: t.add("report.bytes", len(text.encode()))),
            (cli, "parse_report_csv", "report.read", None),
            (cli, "split_by_threshold", "stats.friedman", None),
            (cli, "friedman_test", "stats.friedman", None),
            (cli, "render_chart", "chart.render", None),
            (analysis, "discover_source_files", "frontend.discover",
             lambda t, files, *a: t.add("frontend.files", len(files))),
            (analysis, "load_source_file", "frontend.read",
             lambda t, source, *a: t.add("frontend.bytes", len(source.text.encode()))),
            (analysis, "parse_source", "frontend.parse",
             lambda t, result, *a: (t.add("frontend.classes", len(result[0])),
                                    t.add("frontend.methods", sum(len(m.methods) for m in result[0])))),
            (frontend, "tokenize", "frontend.lex",
             lambda t, tokens, *a: t.add("frontend.tokens", len(tokens))),
            (analysis, "resolve_project", "frontend.resolve", None),
            (analysis, "build_coupling_graph", "metrics.graph",
             lambda t, graph, *a: t.add("metrics.edges", graph.edge_count)),
            (analysis, "compute_project_metrics", "metrics.project", None),
            (metrics.CouplingGraph, "degree", "metrics.cbo", None),
            (metrics, "compute_rfc", "metrics.rfc", None),
            (metrics, "compute_lcom", "metrics.lcom",
             lambda t, lcom, model: t.add("metrics.lcom_pairs",
                                          len(model.methods) * (len(model.methods) - 1) // 2)),
            (analysis, "detect_injections", "di.detect",
             lambda t, summary, *a: t.add("di.findings", len(summary.findings))),
            (analysis, "apply_injection_weights", "di.weights", None),
            (analysis, "compute_scores", "maintainability.scores", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        for owner, attr, name, count in targets:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
        from_text = frontend.SourceFile.__dict__["from_text"]
        frontend.SourceFile.from_text = classmethod(self.wrap("frontend.loc", from_text.__func__))
        try:
            yield
        finally:
            frontend.SourceFile.from_text = from_text
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> dict[object, tuple[Counter, Counter]]:
        """Per op: (self ns, inclusive ns) per span name."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops: dict[object, tuple[Counter, Counter]] = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            own, total = ops.setdefault(op, (Counter(), Counter()))
            own[name] += end - start - child[index]
            total[name] += end - start
        return ops


def run_op_in_process(study: workloads.Study, work: Path,
                      tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """One op through ``dimetrics.cli.main`` in this process: (seconds, problems).

    With a tracer, each CLI call is the root span ``cli.<command>``.
    """
    from dimetrics import cli

    shutil.rmtree(work / "op", ignore_errors=True)
    (work / "op").mkdir()
    problems = []
    elapsed = 0.0
    previous = os.getcwd()
    os.chdir(work)
    try:
        for call in study.calls():
            out, err = io.StringIO(), io.StringIO()
            started = time.perf_counter()
            main = tracer.wrap(f"cli.{call.command}", cli.main) if tracer else cli.main
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(call.argv))
            elapsed += time.perf_counter() - started
            if code != 0:
                problems.append(f"{call.command} returned {code}: {err.getvalue().strip()[-300:]}")
            if call.stdout:
                Path(call.stdout).write_text(out.getvalue(), encoding="utf-8")
    finally:
        os.chdir(previous)
    return elapsed, problems


def import_seconds(src: Path) -> float:
    """Median time to import ``dimetrics.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import dimetrics.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def growth(tracer: Tracer, work: Path, seed: int, tally: workloads.Tally) -> dict[str, float]:
    """Layer growth between the large_project input at 1/4 size and at full size.

    Each size is analyzed GROWTH_REPEATS times; a layer's time at a size is
    its fastest repeat, which is the least disturbed by other tenants.
    """
    from dimetrics.analysis import analyze_directory

    fastest = {}
    for label, classes in (("quarter", synth.LARGE_CLASSES // 4), ("full", synth.LARGE_CLASSES)):
        plan = synth.write_large_project(work / "growth" / label, seed, classes)[0]
        expected = oracle.plan_row(plan)
        runs = []
        for repeat in range(GROWTH_REPEATS):
            tracer.op = f"growth-{label}-{repeat}"
            with tracer.installed():
                analysis, _ = analyze_directory(work / "growth" / label / plan.name)
            runs.append(tracer.self_times()[tracer.op][0])
            metrics = analysis.metrics if analysis is not None else None
            same = metrics is not None and (
                metrics.mean_cbo, metrics.mean_dcbo, metrics.di_proportion,
                metrics.mean_rfc, metrics.mean_lcom, metrics.total_loc,
            ) == (float(expected.cbo), float(expected.dcbo), float(expected.di),
                  float(expected.rfc), float(expected.lcom), expected.loc)
            tally.add([] if same else [f"growth {label}: metrics differ from the plan"])
        fastest[label] = {span: min(run[span] for run in runs) for span in GROWTH_LAYERS.values()}
    return {
        metric: math.log(fastest["full"][span] / fastest["quarter"][span]) / math.log(4)
        for metric, span in GROWTH_LAYERS.items()
    }


def run(name: str, seed: int, seconds: float, work: Path, out: Path, src: Path):
    sys.path.insert(0, str(src))
    from dimetrics.analysis import analyze_directory

    study = workloads.write_inputs(name, work, seed)
    tally = workloads.Tally()
    tracer = Tracer()
    growth_values = growth(tracer, work, seed, tally)
    untraced, traced = [], []
    started = time.perf_counter()
    while len(traced) < MIN_TRACED_OPS or time.perf_counter() - started < seconds:
        for times, active in ((untraced, None), (traced, tracer)):
            tracer.op = len(traced)
            with tracer.installed() if active else contextlib.nullcontext():
                elapsed, problems = run_op_in_process(study, work, active)
            times.append(elapsed)
            found, digests = study.check(work)
            tally.add(problems + found, digests)

    # The traced pipeline must compute what the untraced one does.
    for root, analysis in tracer.analyses:
        again, _ = analyze_directory(Path(work, root))
        same = analysis is not None and again is not None and analysis.metrics == again.metrics
        tally.add([] if same else [f"traced metrics differ for {root}"])

    by_op = tracer.self_times()
    per_op = [by_op[op] for op in range(len(traced))]
    values: dict[str, float] = {"cli.import_s": import_seconds(src)}
    for metric, span in SELF_TIMES.items():
        values[metric] = statistics.median(own[span] for own, _ in per_op) / 1e9
    directory = [total["analysis.directory"] for _, total in per_op]
    directory_self = [own["analysis.directory"] for own, _ in per_op]
    values["analysis.directory_s"] = statistics.median(directory) / 1e9
    values["analysis.coverage"] = statistics.median(
        1 - s / t for s, t in zip(directory_self, directory))
    counts = tracer.counts[0]
    for key in COUNTS:
        values[key] = counts[key]
    values["frontend.tokens_per_s"] = counts["frontend.tokens"] / values["frontend.lex_s"]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values.update(growth_values)

    # The growth probe and the first traced op come first in the list; later ops
    # repeat the first, so the file keeps that prefix (parent indices stay valid).
    first_later = next((i for i, span in enumerate(tracer.spans) if span[4] == 1), len(tracer.spans))
    out.mkdir(parents=True, exist_ok=True)
    (out / f"spans-{name}.json").write_text(
        json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": tracer.spans[:first_later]}), encoding="utf-8")
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}
    samples = {key: len(traced) for key in SELF_TIMES}
    samples["cli.import_s"] = IMPORT_SAMPLES
    return tally, metrics, {"samples": samples, "traced_ops": len(traced),
                            "untraced_ops": len(untraced)}


def unit_of(key: str) -> str:
    if key == "frontend.tokens_per_s":
        return "tokens/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_growth"):
        return "exponent"
    if key == "analysis.coverage":
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"
