"""Synthetic benchmark projects with a controlled amount of injection.

Each project is one ``Dog`` class plus ``pen_count`` ``DogPen`` classes.
A pen either receives its ``Dog`` through the constructor (injected
variant) or builds its own with ``new`` (default variant).  Class bodies
are fixed so the suite has exactly known metrics: with 10 pens and k of
them injected, mean CBO = 20/11, mean DCBO = (20 - k)/11, mean RFC =
(32 - k)/11, mean LCOM = 0, DI proportion = k/10, and total LOC =
108 - 2k (Dog and an injected pen are 8 significant lines, a default
pen is 10).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

_DOG_SOURCE = """public class Dog {
    private String name;
    public Dog(String name) { this.name = name; }
    public String getName() {
        String result = this.name;
        return result;
    }
}
"""

_INJECTED_PEN_TEMPLATE = """public class {name} {{
    private Dog dog;
    public {name}(Dog dog) {{ this.dog = dog; }}
    public Dog getDog() {{
        Dog result = this.dog;
        return result;
    }}
}}
"""

_DEFAULT_PEN_TEMPLATE = """public class {name} {{
    private Dog dog;
    public {name}() {{
        this.dog = new Dog("Rex");
    }}
    public Dog getDog() {{
        Dog result = this.dog;
        return result;
    }}
}}
"""

_SUITE_PENS = 10


@dataclass(frozen=True)
class ExperimentSpec:
    output_dir: Path
    injected_count: int
    pen_count: int = 10

    def __post_init__(self):
        if self.pen_count <= 0:
            raise ValueError(f"pen_count must be positive, got {self.pen_count}")
        if not 0 <= self.injected_count <= self.pen_count:
            raise ValueError(
                f"injected_count must lie in [0, {self.pen_count}],"
                f" got {self.injected_count}"
            )


def generate_project(spec: ExperimentSpec) -> list[Path]:
    """Write the project's source files; returns the written paths."""
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    dog = out / "Dog.java"
    dog.write_text(_DOG_SOURCE, encoding="utf-8")
    written.append(dog)
    for i in range(1, spec.pen_count + 1):
        name = f"DogPen{i}"
        template = _INJECTED_PEN_TEMPLATE if i <= spec.injected_count else _DEFAULT_PEN_TEMPLATE
        path = out / f"{name}.java"
        path.write_text(template.format(name=name), encoding="utf-8")
        written.append(path)
    return written


def generate_suite(output_root: Path, step: int = 10) -> list[Path]:
    """One project of 10 pens per injected proportion 0, step, ..., 100 percent.

    ``step`` must divide 100 and produce an integral injected pen count at
    every stop, which with 10 pens means a multiple of 10.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if 100 % step != 0:
        raise ValueError(f"step must divide 100, got {step}")
    percents = range(0, 101, step)
    for percent in percents:
        if (percent * _SUITE_PENS) % 100 != 0:
            raise ValueError(
                f"step {step} yields a non-integral injected count at {percent}%"
                f" with {_SUITE_PENS} pens"
            )
    root = Path(output_root)
    dirs = []
    for percent in percents:
        project_dir = root / f"di_{percent}"
        generate_project(
            ExperimentSpec(
                output_dir=project_dir,
                injected_count=percent * _SUITE_PENS // 100,
                pen_count=_SUITE_PENS,
            )
        )
        dirs.append(project_dir)
    return dirs
