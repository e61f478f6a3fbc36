"""Round trip: a class model printed as source parses back to itself.

``print_class`` writes a ``ClassModel`` in the accepted grammar
(docs/grammar.md), with one printed form per recorded fact that the parser
maps back to exactly that fact:

* an invoked ``(T, m)``: ``T vN = null; vN.m();`` (the local carries the
  receiver type, and reading a local is no field access);
* an accessed field ``f``: ``this.f = null;``;
* each creation, in order: ``new T();``.

So the random projects of the criterion-4 battery can run a second time
through the real front end, and must give the same metrics.
"""
from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from dimetrics.analysis import analyze_project_model
from dimetrics.frontend import ClassModel, MethodModel, resolve_project

from conftest import parse_text, random_project


def _print_method(method: MethodModel) -> list[str]:
    params = ", ".join(f"{ptype} p{i}" for i, ptype in enumerate(method.param_types))
    result = "" if method.is_constructor else f"{method.return_type or 'void'} "
    body = [
        f"{receiver} v{n} = null; v{n}.{name}();"
        for n, (receiver, name) in enumerate(sorted(method.invoked_methods))
    ]
    body.extend(f"this.{field} = null;" for field in sorted(method.accessed_fields))
    body.extend(f"new {type_name}();" for type_name in method.instantiated_types)
    return [
        f"    public {result}{method.name}({params}) {{",
        *(f"        {line}" for line in body),
        "    }",
    ]


def print_class(model: ClassModel) -> str:
    """Source text that declares ``model``; the parser keeps super types in order."""
    header = f"public class {model.name}"
    if model.super_types:
        header += f" extends {model.super_types[0]}"
    if model.super_types[1:]:
        header += " implements " + ", ".join(model.super_types[1:])
    lines = [header + " {"]
    lines.extend(f"    private {fld.type_name} {fld.name};" for fld in model.fields)
    for method in model.methods:
        lines.extend(_print_method(method))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_project(project: tuple[ClassModel, ...]) -> tuple[ClassModel, ...]:
    parsed = []
    for model in project:
        models, diagnostics = parse_text(print_class(model), f"{model.name}.java")
        assert diagnostics == [], (print_class(model), diagnostics)
        parsed.extend(models)
    resolved, diagnostics = resolve_project(parsed)
    assert resolved is not None, diagnostics
    return resolved


def _per_class(metrics) -> list[tuple]:
    return [(m.class_name, m.cbo, m.dip, m.dcbo, m.rfc, m.lcom) for m in metrics.class_metrics]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_printed_project_parses_back_to_its_model(seed):
    project = random_project(random.Random(seed))
    parsed = _parse_project(project)
    assert [model.name for model in parsed] == [model.name for model in project]
    for got, want in zip(parsed, project):
        assert got.super_types == want.super_types
        assert got.fields == want.fields
        assert got.methods == want.methods


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_printed_project_has_the_metrics_of_its_model(seed):
    project = random_project(random.Random(seed))
    parsed = _parse_project(project)
    got = analyze_project_model(parsed, "printed").metrics
    want = analyze_project_model(project, "model").metrics
    assert _per_class(got) == _per_class(want)
    assert got.di_proportion == want.di_proportion
