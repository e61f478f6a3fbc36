"""Shared builders for hand-made and randomized class models."""
from __future__ import annotations

import random

from dimetrics.frontend import (
    ClassModel,
    FieldDecl,
    MethodModel,
    ProjectModel,
    SourceFile,
    parse_source,
    resolve_project,
)


def make_method(
    name: str,
    *,
    is_constructor: bool = False,
    params: tuple[str, ...] = (),
    return_type: str | None = None,
    instantiates: tuple[str, ...] = (),
    invokes: tuple[tuple[str, str], ...] = (),
    accesses: tuple[str, ...] = (),
) -> MethodModel:
    return MethodModel(
        name=name,
        is_constructor=is_constructor,
        param_types=params,
        return_type=return_type,
        instantiated_types=instantiates,
        invoked_methods=frozenset(invokes),
        accessed_fields=frozenset(accesses),
    )


def make_class(
    name: str,
    *,
    fields: tuple[tuple[str, str], ...] = (),
    methods: tuple[MethodModel, ...] = (),
    supers: tuple[str, ...] = (),
    line_count: int = 8,
) -> ClassModel:
    return ClassModel(
        name=name,
        super_types=supers,
        fields=tuple(FieldDecl(fname, ftype) for fname, ftype in fields),
        methods=methods,
        path=f"{name}.java",
        line=1,
        column=1,
        file_line_count=line_count,
        line_count=line_count,
    )


def make_project(*classes: ClassModel) -> ProjectModel:
    project, diagnostics = resolve_project(list(classes))
    assert project is not None, diagnostics
    return project


def parse_text(text: str, path: str = "Test.java"):
    return parse_source(SourceFile.from_text(path, text))


def random_project(rng: random.Random, max_classes: int = 6) -> ProjectModel:
    """A structurally valid random project over class names C0..C5.

    Reference pools include non-project names (String, int, Ext) so that
    library-coupling filtering is exercised, plus array spellings.
    """
    n = rng.randint(1, max_classes)
    names = [f"C{i}" for i in range(n)]
    type_pool = names + ["String", "int", "Ext"] + [f"{name}[]" for name in names[:2]]
    classes = []
    for name in names:
        field_names = [f"f{j}" for j in range(rng.randint(0, 3))]
        fields = tuple((fname, rng.choice(type_pool)) for fname in field_names)
        methods = []
        if rng.random() < 0.8:
            methods.append(
                make_method(
                    name,
                    is_constructor=True,
                    params=tuple(rng.choice(type_pool) for _ in range(rng.randint(0, 2))),
                    instantiates=tuple(
                        rng.choice(names + ["Ext"]) for _ in range(rng.randint(0, 2))
                    ),
                    accesses=tuple(
                        rng.sample(field_names, rng.randint(0, len(field_names)))
                    ),
                )
            )
        for j in range(rng.randint(0, 3)):
            methods.append(
                make_method(
                    f"m{j}",
                    params=tuple(rng.choice(type_pool) for _ in range(rng.randint(0, 2))),
                    return_type=rng.choice(type_pool + [None]),
                    instantiates=tuple(
                        rng.choice(names + ["Ext"]) for _ in range(rng.randint(0, 1))
                    ),
                    invokes=tuple(
                        (rng.choice(names + ["Ext"]), f"call{rng.randint(0, 4)}")
                        for _ in range(rng.randint(0, 2))
                    ),
                    accesses=tuple(
                        rng.sample(field_names, rng.randint(0, len(field_names)))
                    ),
                )
            )
        supers = ()
        others = [other for other in names if other != name]
        if others and rng.random() < 0.2:
            supers = (rng.choice(others),)
        classes.append(
            make_class(
                name,
                fields=fields,
                methods=tuple(methods),
                supers=supers,
                line_count=rng.randint(3, 12),
            )
        )
    return make_project(*classes)
