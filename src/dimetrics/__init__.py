"""dimetrics: dependency-injection-aware coupling and maintainability metrics."""

from .analysis import analyze_directory

__all__ = ["analyze_directory"]
