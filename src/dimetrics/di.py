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

The analysis reads only the coupling graph's references and runs before the
metrics, which take each class's DIP and the proportion from it; neither is
filled in later.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .frontend import ProjectModel, base_type_name
from .metrics import CouplingGraph

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


@dataclass(frozen=True)
class DiSummary:
    findings: tuple[InjectionFinding, ...]
    dip_per_class: Mapping[str, int]


def detect_injections(project: ProjectModel, graph: CouplingGraph) -> DiSummary:
    """Classify every referenced (client, dependency) pair of project classes.

    The pairs come from ``graph.references``, one finding per pair.  DIP
    counts distinct CND/MND dependency classes per client, never raw
    parameter occurrences.
    """
    findings: list[InjectionFinding] = []
    dip: dict[str, int] = {}
    for model in project.classes:
        methods = model.methods
        # (declared by a constructor, base type name) of every parameter
        params = {(m.is_constructor, base_type_name(p)) for m in methods for p in m.param_types}
        constructed = {new for m in methods for new in m.instantiated_types}
        injected_count = 0
        for dep in sorted(graph.references[model.name]):
            by_ctor = (True, dep) in params
            if not by_ctor and (False, dep) not in params:
                pattern = HARD
            elif dep in constructed:
                pattern = CWD if by_ctor else MWD
            else:
                pattern = CND if by_ctor else MND
                injected_count += 1
            findings.append(InjectionFinding(model.name, dep, pattern))
        dip[model.name] = injected_count
    return DiSummary(findings=tuple(findings), dip_per_class=dip)


def apply_injection_weights(graph: CouplingGraph, summary: DiSummary) -> float:
    """The project DI proportion 2 * sum(DIP) / sum(CBO), clamped to [0, 1].

    It is 0 for a project without couplings.  A DIP above its class's CBO
    means a bug upstream and raises :class:`MetricConsistencyError`.
    """
    for name, dip in summary.dip_per_class.items():
        cbo = graph.degrees[name]
        if dip > cbo:
            raise MetricConsistencyError(f"class {name}: DIP {dip} exceeds CBO {cbo}")
    cbo_total = sum(graph.degrees.values())
    dip_total = sum(summary.dip_per_class.values())
    return min(max(2.0 * dip_total / cbo_total, 0.0), 1.0) if cbo_total else 0.0
