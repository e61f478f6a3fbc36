"""dimetrics: dependency-injection-aware coupling and maintainability metrics."""

from .analysis import ProjectAnalysis, analyze_directory, analyze_project_model
from .di import (
    CND,
    CWD,
    HARD,
    MND,
    MWD,
    DiSummary,
    InjectionFinding,
    apply_injection_weights,
    detect_injections,
)
from .frontend import (
    ClassModel,
    Diagnostic,
    FieldDecl,
    MethodModel,
    ProjectModel,
    SourceFile,
    discover_source_files,
    load_source_file,
    parse_source,
    resolve_project,
)
from .generator import ExperimentSpec, generate_project, generate_suite
from .maintainability import (
    MaintainabilityScores,
    compute_scores,
    normalize_complexity,
    normalize_lcom,
)
from .metrics import (
    ClassMetrics,
    CouplingGraph,
    ProjectMetrics,
    build_coupling_graph,
    compute_lcom,
    compute_project_metrics,
    compute_rfc,
)
from .report import ReportRow, parse_report_csv, report_row, rows_to_csv, rows_to_json
from .stats import (
    FriedmanResult,
    RankMatrix,
    chi_square_upper_tail,
    friedman_test,
    split_by_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "CND",
    "CWD",
    "ClassMetrics",
    "ClassModel",
    "CouplingGraph",
    "Diagnostic",
    "DiSummary",
    "ExperimentSpec",
    "FieldDecl",
    "FriedmanResult",
    "HARD",
    "InjectionFinding",
    "MND",
    "MWD",
    "MaintainabilityScores",
    "MethodModel",
    "ProjectAnalysis",
    "ProjectMetrics",
    "ProjectModel",
    "RankMatrix",
    "ReportRow",
    "SourceFile",
    "analyze_directory",
    "analyze_project_model",
    "apply_injection_weights",
    "build_coupling_graph",
    "chi_square_upper_tail",
    "compute_lcom",
    "compute_project_metrics",
    "compute_rfc",
    "compute_scores",
    "detect_injections",
    "discover_source_files",
    "friedman_test",
    "generate_project",
    "generate_suite",
    "load_source_file",
    "normalize_complexity",
    "normalize_lcom",
    "parse_report_csv",
    "parse_source",
    "report_row",
    "resolve_project",
    "rows_to_csv",
    "rows_to_json",
    "split_by_threshold",
]
