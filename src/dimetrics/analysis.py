"""End-to-end pipeline: source tree -> metrics and scores.

A parsed project goes graph -> injection analysis -> DI proportion ->
metrics -> scores, so every metric is built once and none is filled in later.
"""
from __future__ import annotations

import os
from collections import namedtuple
from pathlib import Path

from .di import apply_injection_weights, detect_injections
from .frontend import (
    ClassModel,
    Diagnostic,
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
)
from .maintainability import compute_scores
from .metrics import build_coupling_graph, compute_project_metrics


# A project named as in project_name and what each stage built: graph, DiSummary, metrics, scores.
ProjectAnalysis = namedtuple("ProjectAnalysis", "name graph injections metrics scores")


def analyze_project_model(project: tuple[ClassModel, ...], name: str) -> ProjectAnalysis:
    graph = build_coupling_graph(project)
    injections = detect_injections(project, graph)
    di_proportion = apply_injection_weights(graph, injections)
    metrics = compute_project_metrics(project, graph, injections.dip_per_class, di_proportion)
    return ProjectAnalysis(name, graph, injections, metrics, compute_scores(metrics))


def project_name(root: Path | str) -> str:
    """A project's name: the last component of its absolute path, so ``.`` is named too."""
    return Path(os.path.abspath(root)).name


def analyze_directory(root: Path | str) -> tuple[ProjectAnalysis | None, list[Diagnostic]]:
    """Analyze one project directory, named by ``project_name``.

    Returns ``(analysis, diagnostics)``; the analysis is None exactly when
    an error diagnostic occurred (strict mode: an unparsable file poisons
    the whole project).  An empty project analyzes to zero metrics with a
    warning diagnostic, and a directory that cannot be read is an error.
    """
    root = Path(root)
    try:
        files = discover_source_files(root)
    except OSError as exc:
        return None, [Diagnostic(str(root), 1, 1, f"cannot read directory: {exc}", "error")]
    diagnostics: list[Diagnostic] = []
    models = []
    for path in files:
        try:
            source = load_source_file(path)
        except (OSError, UnicodeDecodeError) as exc:
            diagnostics.append(Diagnostic(str(path), 1, 1, f"cannot read file: {exc}", "error"))
            continue
        parsed, parse_diags = parse_source(source)
        diagnostics.extend(parse_diags)
        models.extend(parsed)
    if any(d.severity == "error" for d in diagnostics):
        return None, diagnostics
    project, resolve_diags = resolve_project(models)
    diagnostics.extend(resolve_diags)
    if project is None:
        return None, diagnostics
    if not files:
        diagnostics.append(Diagnostic(str(root), 1, 1, "no .java files found", "warning"))
    elif not project:
        diagnostics.append(Diagnostic(str(root), 1, 1, "no class declarations found", "warning"))
    return analyze_project_model(project, project_name(root)), diagnostics
