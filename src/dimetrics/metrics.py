"""Coupling graph and the classic class-level metrics.

CBO counts the distinct project classes a class is coupled to, where coupling
is the symmetric relation induced by field types, parameter types, return
types, object creation, resolvable method invocations, and supertypes.
Couplings to non-project (library) types are excluded, and CBO is a graph
degree rather than a reference count.  The graph records only which pairs
are coupled, not through which usages.  It is built from each class's set of
referenced project classes, which is all the injection analysis needs from
a class's type references; the degrees are counted once per edge, so reading
a class's CBO costs O(1).

RFC is the size of the response set: own methods (constructors included)
plus distinct remote methods reachable by one call, counting ``new T(...)``
as a call of T's constructor (``<init>``, as in ckjm, so it never collides
with a method that is also named T).  LCOM is the LCOM1 variant: method pairs
sharing no instance field minus pairs sharing at least one, floored at zero.
It is counted over groups of methods with identical field-access sets: pairs
inside a group share a field unless the set is empty, and each pair of
groups is tested once and weighted by the product of their sizes, so a
class costs O(M + G^2) for M methods with G distinct access sets.
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


def compute_rfc(model: ClassModel, project: ProjectModel) -> int:
    own = len(model.methods)
    remote: set[tuple[str, str]] = set()
    for method in model.methods:
        for receiver_type, name in method.invoked_methods:
            if receiver_type != model.name and receiver_type in project.class_names:
                remote.add((receiver_type, name))
        for created in method.instantiated_types:
            if created != model.name and created in project.class_names:
                remote.add((created, "<init>"))  # constructor call
    return own + len(remote)


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
    dip: int = 0  # filled by the injection analysis
    dcbo: float = 0.0  # filled by the injection analysis


@dataclass(frozen=True)
class ProjectMetrics:
    project_name: str
    class_metrics: tuple[ClassMetrics, ...]
    mean_cbo: float
    mean_dcbo: float
    mean_lcom: float
    mean_rfc: float
    total_loc: int
    di_proportion: float = 0.0  # filled by the injection analysis


def mean_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return fmean(values) if values else 0.0


def compute_project_metrics(
    project: ProjectModel, graph: CouplingGraph, project_name: str = "project"
) -> ProjectMetrics:
    """Per-class metrics and their arithmetic means, at full precision.

    DIP and DCBO start at their injection-free values (0 and CBO); the
    injection analysis rewrites them.  Rounding happens only at report time.
    """
    per_class = []
    for model in sorted(project.classes, key=lambda m: m.name):
        cbo = graph.degree(model.name)
        per_class.append(
            ClassMetrics(
                class_name=model.name,
                cbo=cbo,
                rfc=compute_rfc(model, project),
                lcom=compute_lcom(model),
                loc=model.line_count,
                dip=0,
                dcbo=float(cbo),
            )
        )
    files = {model.path: model.file_line_count for model in project.classes}
    return ProjectMetrics(
        project_name=project_name,
        class_metrics=tuple(per_class),
        mean_cbo=mean_or_zero(cm.cbo for cm in per_class),
        mean_dcbo=mean_or_zero(cm.dcbo for cm in per_class),
        mean_lcom=mean_or_zero(cm.lcom for cm in per_class),
        mean_rfc=mean_or_zero(cm.rfc for cm in per_class),
        total_loc=sum(files.values()),
    )
