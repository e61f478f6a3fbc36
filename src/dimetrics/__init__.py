"""dimetrics: dependency-injection-aware coupling and maintainability metrics."""

__all__ = ["analyze_directory"]


def __getattr__(name: str):
    if name == "analyze_directory":  # loaded on first use: most subcommands never analyze
        from .analysis import analyze_directory

        return analyze_directory
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
