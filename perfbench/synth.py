"""Seeded synthetic Java-subset projects together with their own plan.

The writer decides every class, dependency and method before it writes a
line, and keeps that decision as a plan.  The plan is the reference the
benchmark checks the analyzer's report against, so it never calls into
``dimetrics``: CBO, DIP, DCBO, DI, RFC, LCOM and LOC all follow from what
was written, by the definitions in the project README.

Only grammar-valid source is emitted (see docs/grammar.md): calls use a bare
field or ``this`` as receiver and never chain (``this.f.m()`` is rejected).
Each dependency of a client is written with one of four patterns:

* CND  - constructor parameter, never constructed by the client
* MND  - setter parameter, never constructed by the client
* CWD  - constructor parameter plus a ``new`` in a reset method
* HARD - constructed in the constructor, never a parameter

CND and MND count toward DIP; CWD and HARD keep their full coupling weight.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CND, MND, CWD, HARD = "CND", "MND", "CWD", "HARD"
INJECTED = (CND, MND)
CONSTRUCTED = (CWD, HARD)
LARGE_CLASSES = 1000
FAN_OUT = 3
GOD_METHODS = 1500
GOD_FIELDS = 20


@dataclass
class ClassPlan:
    name: str
    deps: dict[str, str] = field(default_factory=dict)  # dependency -> pattern
    invoked: set[tuple[str, str]] = field(default_factory=set)  # (dependency, method)
    accesses: list[frozenset[str]] = field(default_factory=list)  # one per method
    loc: int = 0  # significant lines of the class's file


@dataclass
class ProjectPlan:
    name: str
    classes: list[ClassPlan]


@dataclass(frozen=True)
class Shape:
    """Size and style knobs of one synthetic project."""

    classes: int
    injected_share: float = 0.5
    god_every: int = 0  # every n-th class is a god class (0: none)
    header_lines: int = 1  # comment lines at the top of every file
    method_comments: bool = False  # a block comment before every method


class _Lines:
    """Source lines plus the count of those that hold code."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.code = 0

    def code_line(self, text: str) -> None:
        self.lines.append(text)
        self.code += 1

    def comment_line(self, text: str) -> None:
        self.lines.append(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _method(out: _Lines, plan: ClassPlan, shape: Shape, header: str,
            body: list[str], accesses: set[str], what: str) -> None:
    if shape.method_comments:
        out.comment_line("    /*")
        out.comment_line(f"     * {what}")
        out.comment_line("     */")
    out.code_line(f"    {header} {{")
    for line in body:
        out.code_line(f"        {line}")
    out.code_line("    }")
    plan.accesses.append(frozenset(accesses))


def _write_class(plan: ClassPlan, shape: Shape, rng: random.Random, god: bool) -> str:
    out = _Lines()
    for i in range(shape.header_lines):
        out.comment_line(f"// {plan.name}: synthetic class, header line {i + 1}")
    out.code_line(f"public class {plan.name} {{")
    dep_fields = {dep: f"d{i}" for i, dep in enumerate(plan.deps)}
    for dep, fname in dep_fields.items():
        out.code_line(f"    private {dep} {fname};")
    out.code_line("    private String label;")
    out.code_line("    private int n0;")
    out.code_line("    private int n1;")
    god_fields = [f"g{i}" for i in range(GOD_FIELDS)] if god else []
    for gname in god_fields:
        out.code_line(f"    private int {gname};")
    out.comment_line("")

    ctor_params = [(dep, f) for dep, f in dep_fields.items() if plan.deps[dep] in (CND, CWD)]
    ctor_body = [f"this.{f} = {f};" for _, f in ctor_params]
    ctor_body += [
        f"this.{f} = new {dep}();" for dep, f in dep_fields.items() if plan.deps[dep] == HARD
    ]
    ctor_body.append('this.label = "c"; // default label')
    ctor_access = {f for dep, f in dep_fields.items() if plan.deps[dep] != MND} | {"label"}
    params = ", ".join(f"{dep} {f}" for dep, f in ctor_params)
    _method(out, plan, shape, f"public {plan.name}({params})", ctor_body, ctor_access,
            "Constructor: receives injected collaborators, builds hard ones.")

    for dep, fname in dep_fields.items():
        pattern, suffix = plan.deps[dep], fname.upper()
        if pattern == MND:
            _method(out, plan, shape, f"public void set{suffix}({dep} {fname})",
                    [f"this.{fname} = {fname};"], {fname}, "Setter injection.")
        elif pattern == CWD:
            _method(out, plan, shape, f"public void reset{suffix}()",
                    [f"this.{fname} = new {dep}();"], {fname}, "Default construction.")
        op = f"op{rng.randrange(4)}"
        plan.invoked.add((dep, op))
        _method(out, plan, shape, f"public {dep} use{suffix}()",
                [f"{fname}.{op}();", f"return this.{fname};"], {fname},
                "Calls the collaborator through the bare field.")

    _method(out, plan, shape, "public String getLabel()",
            ["String result = this.label;", "return result;"], {"label"}, "Label getter.")
    for i in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            _method(out, plan, shape, f"public int count{i}()",
                    [f"int v = this.n{i % 2};", "return v;"], {f"n{i % 2}"}, "Counter read.")
        elif kind == 1:
            _method(out, plan, shape, f"public void touch{i}()",
                    ["this.getLabel();"], set(), "Own call through this.")
        else:
            _method(out, plan, shape, f"public void mark{i}(int value)",
                    ["this.n0 = value;", "this.n1 = value;"], {"n0", "n1"}, "Two writes.")
    for i in range(GOD_METHODS if god else 0):
        gname = god_fields[i % GOD_FIELDS]
        _method(out, plan, shape, f"public int gm{i:04d}()",
                [f"int v = this.{gname};", "return v;"], {gname}, "God-class accessor.")
    out.code_line("}")
    plan.loc = out.code
    return out.text()


def _pick_pattern(rng: random.Random, share: float) -> str:
    if rng.random() < share:
        return CND if rng.random() < 0.6 else MND
    return CWD if rng.random() < 0.4 else HARD


def write_project(root: Path, name: str, shape: Shape, rng: random.Random,
                  prefix: str = "C") -> ProjectPlan:
    """Write one project under ``root/name``; returns its plan."""
    width = max(2, len(str(shape.classes - 1)))
    names = [f"{prefix}{i:0{width}d}" for i in range(shape.classes)]
    plans = []
    for i, cname in enumerate(names):
        others = names[:i] + names[i + 1 :]
        deps = rng.sample(others, min(FAN_OUT, len(others)))
        plans.append(ClassPlan(cname, {d: _pick_pattern(rng, shape.injected_share) for d in deps}))
    directory = root / name
    directory.mkdir(parents=True, exist_ok=True)
    for i, plan in enumerate(plans):
        god = shape.god_every > 0 and i % shape.god_every == 0
        text = _write_class(plan, shape, rng, god)
        (directory / f"{plan.name}.java").write_text(text, encoding="utf-8")
    return ProjectPlan(name, plans)


def write_large_project(root: Path, seed: int, classes: int = LARGE_CLASSES) -> list[ProjectPlan]:
    """One project of ``classes`` classes; every 250th is a 1500-method god class."""
    rng = random.Random(f"large_project:{seed}:{classes}")
    shape = Shape(classes=classes, god_every=250)
    return [write_project(root, "large", shape, rng)]


def write_corpus(root: Path, seed: int, projects: int = 300) -> list[ProjectPlan]:
    """Small comment-heavy projects whose injection share straddles 0.5."""
    rng = random.Random(f"corpus_study:{seed}:{projects}")
    plans = []
    for p in range(projects):
        shape = Shape(
            classes=rng.randint(3, 8),
            injected_share=rng.random(),
            header_lines=12,
            method_comments=True,
        )
        plans.append(write_project(root, f"p{p:03d}", shape, rng, prefix="K"))
    return plans
