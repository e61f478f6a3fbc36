"""Coupling graph and the classic class-level metrics.

CBO counts the distinct project classes a class is coupled to, where coupling
is the symmetric relation induced by field types, parameter types, return
types, object creation, resolvable method invocations, and supertypes.
Library types are excluded, and CBO is a graph degree rather than a
reference count.  The graph is built from each class's set of referenced
project classes, the one place that decides which type names couple; its
degrees are counted once per edge, so reading a class's CBO costs O(1).

RFC is the size of the response set: own methods (constructors included)
plus distinct methods of referenced classes reachable by one call, counting
``new T(...)`` as a call of T's constructor (``<init>``, as in ckjm, so it
never collides with a method named T).  LCOM is the LCOM1 variant: method
pairs sharing no instance field minus pairs sharing at least one, floored
at zero.  It is counted over groups of methods with identical field-access
sets, each pair of groups tested once and weighted by the product of their
sizes, so a class costs O(M + G^2) for M methods with G distinct sets.

The metrics run after the injection analysis, so each ClassMetrics is built
once with its DIP and DCBO, and ProjectMetrics once with its DI proportion;
no metric is filled in later.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable, Mapping

from .frontend import ClassModel, ProjectModel, base_type_name


def type_references(model: ClassModel) -> list[str]:
    """Base names of the types a class declares or uses, unfiltered."""
    refs = [base_type_name(fld.type_name) for fld in model.fields]
    refs.extend(model.super_types)
    for method in model.methods:
        refs.extend(base_type_name(ptype) for ptype in method.param_types)
        if method.return_type is not None:
            refs.append(base_type_name(method.return_type))
        refs.extend(method.instantiated_types)
        refs.extend(receiver_type for receiver_type, _ in method.invoked_methods)
    return refs


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected coupling relation over project classes.

    ``edges`` holds each coupled pair once, as a sorted name pair.
    ``degrees`` maps every project class to its number of edges, and
    ``references`` maps it to the other project classes it references
    itself (the directed half of its edges).  Treat as read-only.
    """

    edges: frozenset[tuple[str, str]]
    degrees: Mapping[str, int]
    references: Mapping[str, set[str]]

    def degree(self, name: str) -> int:
        return self.degrees[name]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_coupling_graph(project: ProjectModel) -> CouplingGraph:
    """Edge {A, B} exists iff either class references the other."""
    names = project.class_names
    references = {
        model.name: {ref for ref in type_references(model) if ref in names} - {model.name}
        for model in project.classes
    }
    edges = frozenset(
        (name, ref) if name < ref else (ref, name)
        for name, referenced in references.items()
        for ref in referenced
    )
    degrees = dict.fromkeys(names, 0)
    for a, b in edges:
        degrees[a] += 1
        degrees[b] += 1
    return CouplingGraph(edges=edges, degrees=degrees, references=references)


def compute_rfc(model: ClassModel, referenced: set[str]) -> int:
    """Own methods plus the distinct calls and constructors of ``referenced`` classes."""
    methods = model.methods
    calls = {call for m in methods for call in m.invoked_methods if call[0] in referenced}
    created = {new for m in methods for new in m.instantiated_types}
    return len(methods) + len(calls) + len(created & referenced)


def compute_lcom(model: ClassModel) -> int:
    groups = list(Counter(method.accessed_fields for method in model.methods).items())
    disjoint = 0
    sharing = 0
    for index, (fields, count) in enumerate(groups):
        within = count * (count - 1) // 2
        if fields:
            sharing += within
        else:
            disjoint += within
        for other, other_count in groups[index + 1 :]:
            if fields & other:
                sharing += count * other_count
            else:
                disjoint += count * other_count
    return max(disjoint - sharing, 0)


@dataclass(frozen=True)
class ClassMetrics:
    class_name: str
    cbo: int
    rfc: int
    lcom: int
    loc: int
    dip: int
    dcbo: float


@dataclass(frozen=True)
class ProjectMetrics:
    class_metrics: tuple[ClassMetrics, ...]
    mean_cbo: float
    mean_dcbo: float
    mean_lcom: float
    mean_rfc: float
    total_loc: int
    di_proportion: float


def mean_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return fmean(values) if values else 0.0


def compute_project_metrics(
    project: ProjectModel, graph: CouplingGraph, dip_per_class: Mapping[str, int],
    di_proportion: float,
) -> ProjectMetrics:
    """Per-class metrics, with DCBO = CBO - DIP, and their arithmetic means.

    All at full precision; rounding happens only at report time.
    """
    per_class = []
    for model in sorted(project.classes, key=lambda m: m.name):
        cbo = graph.degree(model.name)
        dip = dip_per_class[model.name]
        per_class.append(
            ClassMetrics(
                class_name=model.name,
                cbo=cbo,
                rfc=compute_rfc(model, graph.references[model.name]),
                lcom=compute_lcom(model),
                loc=model.line_count,
                dip=dip,
                dcbo=float(cbo - dip),
            )
        )
    files = {model.path: model.file_line_count for model in project.classes}
    return ProjectMetrics(
        class_metrics=tuple(per_class),
        mean_cbo=mean_or_zero(cm.cbo for cm in per_class),
        mean_dcbo=mean_or_zero(cm.dcbo for cm in per_class),
        mean_lcom=mean_or_zero(cm.lcom for cm in per_class),
        mean_rfc=mean_or_zero(cm.rfc for cm in per_class),
        total_loc=sum(files.values()),
        di_proportion=di_proportion,
    )
