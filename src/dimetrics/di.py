"""Detection of parameter-injected dependencies and the DI-weighted coupling.

A dependency D of a client class c is considered truly injected when D
appears among c's constructor or method parameter types and c never builds
its own D with ``new``.  Those pairs (patterns CND and MND) count toward
DIP; a parameter-injected dependency with an internal default construction
(CWD/MWD) keeps the full coupling penalty because changing D's construction
still requires touching every such client.

DCBO subtracts the injected pairs from CBO, and the project DI proportion is
2 * sum(DIP) / sum(CBO): the factor 2 mirrors the two-way counting of CBO,
so a project whose every coupling is injected scores 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .frontend import ProjectModel, base_type_name
from .metrics import CouplingGraph, ProjectMetrics, mean_or_zero

CND = "CND"  # constructor parameter, no internal default
MND = "MND"  # method parameter, no internal default
CWD = "CWD"  # constructor parameter with an internal default construction
MWD = "MWD"  # method parameter with an internal default construction
HARD = "HARD"  # referenced but never parameter-injected


class MetricConsistencyError(RuntimeError):
    """Raised when DIP exceeds CBO, which indicates a bug upstream."""


@dataclass(frozen=True)
class InjectionFinding:
    client_class: str
    dependency_class: str
    pattern: str
    sites: tuple[tuple[str, str], ...]  # (method name, "param i" | "new")


@dataclass(frozen=True)
class DiSummary:
    findings: tuple[InjectionFinding, ...]
    dip_per_class: Mapping[str, int]


def detect_injections(project: ProjectModel, graph: CouplingGraph) -> DiSummary:
    """Classify every referenced (client, dependency) pair of project classes.

    The pairs come from ``graph.references``.  Exactly one finding is emitted
    per pair a client references.  DIP counts distinct CND/MND dependency
    classes per client, never raw parameter occurrences.
    """
    findings: list[InjectionFinding] = []
    dip: dict[str, int] = {}
    names = project.class_names
    for model in sorted(project.classes, key=lambda m: m.name):
        ctor_deps: set[str] = set()
        method_deps: set[str] = set()
        param_sites: dict[str, list[tuple[str, str]]] = {}
        creation_sites: dict[str, list[tuple[str, str]]] = {}
        for method in model.methods:
            for index, ptype in enumerate(method.param_types):
                base = base_type_name(ptype)
                if base in names and base != model.name:
                    (ctor_deps if method.is_constructor else method_deps).add(base)
                    param_sites.setdefault(base, []).append((method.name, f"param {index}"))
            for created in method.instantiated_types:
                if created in names and created != model.name:
                    creation_sites.setdefault(created, []).append((method.name, "new"))
        injected_count = 0
        for dep in sorted(graph.references[model.name]):
            injected = dep in ctor_deps or dep in method_deps
            constructed = dep in creation_sites
            if injected and not constructed:
                pattern = CND if dep in ctor_deps else MND
                injected_count += 1
            elif injected:
                pattern = CWD if dep in ctor_deps else MWD
            else:
                pattern = HARD
            sites = tuple(param_sites.get(dep, []) + creation_sites.get(dep, []))
            findings.append(InjectionFinding(model.name, dep, pattern, sites))
        dip[model.name] = injected_count
    return DiSummary(findings=tuple(findings), dip_per_class=dip)


def apply_injection_weights(metrics: ProjectMetrics, summary: DiSummary) -> ProjectMetrics:
    """Fill DIP/DCBO per class and the project DI proportion.

    DCBO is CBO - DIP; a DIP above CBO means a bug upstream and raises
    :class:`MetricConsistencyError`.  The proportion is clamped to [0, 1]
    and is 0 for a project without couplings.
    """
    updated = []
    for cm in metrics.class_metrics:
        dip = summary.dip_per_class.get(cm.class_name, 0)
        if dip > cm.cbo:
            raise MetricConsistencyError(f"class {cm.class_name}: DIP {dip} exceeds CBO {cm.cbo}")
        updated.append(replace(cm, dip=dip, dcbo=float(cm.cbo - dip)))
    cbo_total = sum(cm.cbo for cm in updated)
    dip_total = sum(summary.dip_per_class.values())
    proportion = min(max(2.0 * dip_total / cbo_total, 0.0), 1.0) if cbo_total else 0.0
    return replace(
        metrics,
        class_metrics=tuple(updated),
        mean_dcbo=mean_or_zero(cm.dcbo for cm in updated),
        di_proportion=proportion,
    )
