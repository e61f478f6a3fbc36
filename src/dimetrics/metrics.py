"""Coupling graph and the classic class-level metrics.

CBO counts the distinct project classes a class is coupled to, where coupling
is the symmetric relation induced by field types, parameter types, return
types, object creation, resolvable method invocations, and supertypes.
Library types are excluded, and CBO is a graph degree rather than a
reference count.  The graph takes the project's classes as a name-ordered
tuple and is built from each class's set of referenced project classes, the
one place that decides which type names couple.

RFC is the size of the response set: own methods (constructors included)
plus distinct methods of referenced classes reachable by one call, counting
``new T(...)`` as a call of T's constructor (``<init>``, as in ckjm, so it
never collides with a method named T).  LCOM is the LCOM1 variant: method
pairs sharing no instance field minus pairs sharing at least one, floored
at zero, where a method uses the fields it reads, writes, or calls or reads
through.  That is all pairs less twice the sharing ones, so only those are
counted, over groups of methods with one non-empty field-access set: each
pair of groups is tested once and weighted by the product of their sizes.

Each layer makes a few calls per class and none per type reference (set
comprehensions gather the type names; only a name with ``[]`` is split).
One pass counts each edge once and the degrees with it, so a CBO read is
O(1).  LCOM is O(M + G^2) for M methods with G distinct access sets: n
methods that each read their own field make n^2/2 set tests (ROADMAP 20).

The metrics run after the injection analysis, so each ClassMetrics is built
once with its DIP and DCBO, and ProjectMetrics once with its DI proportion;
no metric is filled in later.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

from .frontend import ClassModel


def type_references(model: ClassModel) -> set[str]:
    """Names of the types a class declares or uses, unfiltered, and ``T`` for each ``T[]``."""
    methods = model.methods
    names = {name for method in methods
             for name in (*method.param_types, method.return_type, *method.instantiated_types)}
    names.discard(None)  # the return type of a constructor or void method
    names.update([fld.type_name for fld in model.fields], model.super_types,
                 [receiver for method in methods for receiver, _ in method.invoked_methods])
    names.update([name.split("[", 1)[0] for name in names if "[" in name])
    return names


class CouplingGraph(namedtuple("CouplingGraph", "edge_count degrees references")):
    """Undirected coupling relation over project classes.

    ``edge_count`` is the number of coupled pairs.  ``degrees`` maps every
    project class to its number of edges, and ``references`` maps it to the
    other project classes it references itself (the directed half of its
    edges).  Treat as read-only.
    """

    __slots__ = ()

    def degree(self, name: str) -> int:
        return self.degrees[name]


def build_coupling_graph(classes: tuple[ClassModel, ...]) -> CouplingGraph:
    """Edge {A, B} exists iff either class references the other."""
    degrees = dict.fromkeys([model.name for model in classes], 0)
    nodes = set(degrees)
    references = {model.name: (type_references(model) & nodes) - {model.name} for model in classes}
    edge_count = 0
    for name, referenced in references.items():
        for ref in referenced:
            if name < ref or name not in references[ref]:  # a mutual pair counts once
                degrees[name] += 1
                degrees[ref] += 1
                edge_count += 1
    return CouplingGraph(edge_count, degrees, references)


def compute_rfc(model: ClassModel, referenced: set[str]) -> int:
    """Own methods plus the distinct calls and constructors of ``referenced`` classes."""
    methods = model.methods
    calls = {call for m in methods for call in m.invoked_methods if call[0] in referenced}
    created = {new for m in methods for new in m.instantiated_types if new in referenced}
    return len(methods) + len(calls) + len(created)


def compute_lcom(model: ClassModel) -> int:
    counts: dict[frozenset[str], int] = {}  # methods per non-empty field-access set
    for method in model.methods:
        if fields := method.accessed_fields:
            counts[fields] = counts[fields] + 1 if fields in counts else 1
    sharing, groups = 0, [*counts.items()]
    while groups:
        fields, count = groups.pop()
        sharing += count * (count - 1) // 2
        for other, other_count in groups:
            if not fields.isdisjoint(other):
                sharing += count * other_count
    return max(math.comb(len(model.methods), 2) - 2 * sharing, 0)


ClassMetrics = namedtuple("ClassMetrics", "class_name cbo rfc lcom loc dip dcbo")
ProjectMetrics = namedtuple("ProjectMetrics", [
    "class_metrics",  # a tuple of ClassMetrics in class name order
    "mean_cbo", "mean_dcbo", "mean_lcom", "mean_rfc", "total_loc", "di_proportion",
])


def compute_project_metrics(
    classes: tuple[ClassModel, ...], graph: CouplingGraph, dip_per_class: Mapping[str, int],
    di_proportion: float,
) -> ProjectMetrics:
    """Per-class metrics, with DCBO = CBO - DIP, and their arithmetic means.

    All at full precision; rounding happens only at report time.
    """
    per_class = []
    for model in classes:
        cbo = graph.degree(model.name)
        dip = dip_per_class[model.name]
        rfc = compute_rfc(model, graph.references[model.name])
        per_class.append(tuple.__new__(ClassMetrics, (  # as namedtuple._make builds it
            model.name, cbo, rfc, compute_lcom(model), model.line_count, dip, float(cbo - dip))))
    _, cbos, rfcs, lcoms, _, _, dcbos = zip(*per_class) if per_class else [()] * 7
    means = [math.fsum(col) / len(col) if col else 0.0 for col in (cbos, dcbos, lcoms, rfcs)]
    files = {model.path: model.file_line_count for model in classes}
    return ProjectMetrics(tuple(per_class), *means, sum(files.values()), di_proportion)
