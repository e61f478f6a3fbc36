"""Detection of parameter-injected dependencies and the DI-weighted coupling.

A dependency D of a client class c is considered truly injected when D
appears among c's constructor or method parameter types and c never builds
its own D with ``new``.  Those pairs (patterns CND and MND) count toward
DIP; a parameter-injected dependency with an internal default construction
(CWD/MWD) keeps the full coupling penalty because changing D's construction
still requires touching every such client.

DCBO subtracts the injected pairs from CBO.  The project DI proportion,
sum(DIP) / edge count, reads as injected client-dependency pairs per coupled
pair; a coupled pair adds 1 to two CBOs, so it is 2 * sum(DIP) / sum(CBO).

The analysis reads only the coupling graph's references and runs before the
metrics, which take each class's DIP and the proportion from it; neither is
filled in later.
"""
from __future__ import annotations

from collections import namedtuple

from .frontend import ClassModel, base_type_name
from .metrics import CouplingGraph

CND = "CND"  # constructor parameter, no internal default
MND = "MND"  # method parameter, no internal default
CWD = "CWD"  # constructor parameter with an internal default construction
MWD = "MWD"  # method parameter with an internal default construction
HARD = "HARD"  # referenced but never parameter-injected


class MetricConsistencyError(RuntimeError):
    """Raised when DIP exceeds CBO, which indicates a bug upstream."""


InjectionFinding = namedtuple("InjectionFinding", [
    "client_class", "dependency_class",
    "pattern",  # CND, MND, CWD, MWD or HARD
])
DiSummary = namedtuple("DiSummary", [
    "findings",  # a tuple of InjectionFinding
    "dip_per_class",  # class name -> DIP
])


def detect_injections(classes: tuple[ClassModel, ...], graph: CouplingGraph) -> DiSummary:
    """Classify every referenced (client, dependency) pair of project classes.

    The pairs come from ``graph.references``, one finding per pair.  DIP
    counts distinct CND/MND dependency classes per client, never raw
    parameter occurrences.
    """
    findings: list[InjectionFinding] = []
    dip: dict[str, int] = {}
    for model in classes:
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
    """The project DI proportion sum(DIP) / edge count: 0 without couplings, at most 1.

    The bound acts when two classes inject each other (2 for their pair).  A
    DIP above its class's CBO means a bug upstream and raises
    :class:`MetricConsistencyError`.
    """
    for name, dip in summary.dip_per_class.items():
        cbo = graph.degrees[name]
        if dip > cbo:
            raise MetricConsistencyError(f"class {name}: DIP {dip} exceeds CBO {cbo}")
    dip_total = sum(summary.dip_per_class.values())
    return min(dip_total / graph.edge_count, 1.0) if graph.edge_count else 0.0
