"""The synthetic benchmark suite, with a controlled amount of injection.

Each project is one ``Dog`` class plus a fixed 10 ``DogPen`` classes.  A pen
either receives its ``Dog`` through the constructor (injected variant) or
builds its own with ``new`` (default variant).  Class bodies are fixed so
the suite has exactly known metrics: with k of the 10 pens injected, mean
CBO = 20/11, mean DCBO = (20 - k)/11, mean RFC = (32 - k)/11, mean LCOM = 0,
DI proportion = k/10, and total LOC = 108 - 2k (Dog and an injected pen are
8 significant lines, a default pen is 10).
"""
from __future__ import annotations

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

# the constructor is the only difference between the two variants
_PEN_TEMPLATE = """public class {name} {{
    private Dog dog;
    {constructor}
    public Dog getDog() {{
        Dog result = this.dog;
        return result;
    }}
}}
"""
_INJECTED_CONSTRUCTOR = "public {name}(Dog dog) {{ this.dog = dog; }}"
_DEFAULT_CONSTRUCTOR = """public {name}() {{
        this.dog = new Dog("Rex");
    }}"""

_SUITE_PENS = 10


def generate_suite(output_root: Path | str, step: int) -> list[Path]:
    """One project of 10 pens per injected proportion 0, step, ..., 100 percent.

    Each project holds ``Dog.java`` and ``DogPen1.java`` .. ``DogPen10.java``;
    the first k pens are injected.  ``step`` must divide 100 and give an
    integral injected pen count, which with 10 pens means a multiple of 10.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if 100 % step != 0:
        raise ValueError(f"step must divide 100, got {step}")
    # every stop is a multiple of step, so step is the first one that can fail
    if (step * _SUITE_PENS) % 100 != 0:
        raise ValueError(
            f"step {step} yields a non-integral injected count at {step}%"
            f" with {_SUITE_PENS} pens"
        )
    dirs = []
    for percent in range(0, 101, step):
        project_dir = Path(output_root, f"di_{percent}")
        project_dir.mkdir(parents=True, exist_ok=True)
        (project_dir / "Dog.java").write_text(_DOG_SOURCE, encoding="utf-8")
        injected = percent * _SUITE_PENS // 100
        for i in range(1, _SUITE_PENS + 1):
            name = f"DogPen{i}"
            constructor = _INJECTED_CONSTRUCTOR if i <= injected else _DEFAULT_CONSTRUCTOR
            pen = _PEN_TEMPLATE.format(name=name, constructor=constructor.format(name=name))
            (project_dir / f"{name}.java").write_text(pen, encoding="utf-8")
        dirs.append(project_dir)
    return dirs
