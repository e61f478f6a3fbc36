#!/usr/bin/env python3
"""Print one Java source tree's cost record, a JSON object of exact counts.

Usage: PYTHONPATH=src python -S scripts/cost_record.py TREE

For each stage of TREE's analysis, ``stages`` holds the Python and C calls it
makes (``call`` and ``c_call`` profile events) and the bytecodes it executes in
``dimetrics`` frames.  The stages after the parse are counted inside the real
``analysis.analyze_project_model``, each summed over its calls there.  The record
also holds the ``tracemalloc`` bytes of the class models, name table included; the
tokens; ``parse_source``'s calls again, with the tree's names in the name table; and
the report's calls on 100 and 400 rows of the tree's analysis under distinct names.
The passes run in this order:

1. every stage on a fixed two-class project, so no count holds a first call's set-up;
2. the model bytes: after any pass over the tree, free lists serve tuples that
   ``tracemalloc`` never sees;
3. the name table, the only history the counts see, set back to what 1 left;
4. the calls and the bytecodes, in one pass: opcode trace events on 3.11,
   ``sys.monitoring`` instruction events from 3.12 on, where opcode events miss frames.
Name TREE relative to the working directory: ``Path`` calls per part.
"""
from __future__ import annotations

import json
import os
import sys
import tracemalloc
from collections import Counter
from functools import partial

from dimetrics import analysis, frontend
from dimetrics.frontend import (SourceFile, discover_source_files, load_source_file,
                                parse_source, resolve_project, tokenize)
from dimetrics.report import report_row, rows_to_csv

PACKAGE = os.path.dirname(frontend.__file__) + os.sep
WARM_UP = "class A {\n    B b;\n    A(B b) {\n        this.b = b;\n    }\n}\nclass B {\n}\n"
POST_PARSE = ("build_coupling_graph", "detect_injections", "apply_injection_weights",
              "compute_project_metrics", "compute_scores")


def pipeline(read, name, measure):
    """The sources that ``read()`` returns and their analysis under ``name``, each
    stage run as ``measure(stage, function, *args)``, which returns its result."""
    sources = measure("discover_and_read", read)
    models = measure("parse_source", parse, sources)
    real = {stage: getattr(analysis, stage) for stage in POST_PARSE}
    for stage, function in real.items():
        setattr(analysis, stage, partial(measure, stage, function))
    done = analysis.analyze_project_model(resolve_project(models)[0], name)
    for stage, function in real.items():
        setattr(analysis, stage, function)
    measure("rows_to_csv", lambda: rows_to_csv([report_row(done)]))
    return sources, done


def parse(sources):
    return [model for source in sources for model in parse_source(source)[0]]


def model_bytes(function, *args):
    """``function(*args)`` and the bytes allocated in it that still hold after it."""
    tracemalloc.start()
    result = function(*args), tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return result


def bytecodes(function, *args):
    """``function(*args)`` and the bytecodes it executed in ``dimetrics`` frames."""
    count = 0
    monitoring = getattr(sys, "monitoring", None)

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_lines, frame.f_trace_opcodes = False, True
            return opcode
        return None

    def instruction(code, offset):
        nonlocal count
        if not code.co_filename.startswith(PACKAGE):
            return monitoring.DISABLE
        count += 1

    if monitoring is None:
        sys.settrace(trace)
    else:
        monitoring.use_tool_id(monitoring.PROFILER_ID, "bytecodes")
        monitoring.register_callback(monitoring.PROFILER_ID, monitoring.events.INSTRUCTION,
                                     instruction)
        monitoring.set_events(monitoring.PROFILER_ID, monitoring.events.INSTRUCTION)
    result = function(*args)
    if monitoring is None:
        sys.settrace(None)
    else:
        monitoring.set_events(monitoring.PROFILER_ID, 0)
        monitoring.free_tool_id(monitoring.PROFILER_ID)
    return result, count


def calls(function, *args):
    """``function(*args)`` and the Python and C calls it made, in any frame."""
    events = Counter()

    def count(frame, event, arg):
        events[event] += 1

    sys.setprofile(count)
    result = function(*args)
    sys.setprofile(None)
    return result, {"calls": events["call"], "c_calls": events["c_call"]}


def counting(into):
    """A ``measure`` that counts each stage's calls and bytecodes, summed in ``into``."""
    def measure(stage, function, *args):
        (result, made), executed = bytecodes(calls, function, *args)
        into.setdefault(stage, Counter()).update(made, bytecodes=executed)
        return result
    return measure


def record(tree: str) -> dict:
    """The cost record of the tree under ``tree``, in the order the module docstring gives."""
    def read():
        return [load_source_file(path) for path in discover_source_files(tree)]

    pipeline(lambda: [SourceFile.from_text("A.java", WARM_UP)], "A",
             lambda stage, function, *args: function(*args))
    names = dict(frontend._NAMES)
    held = model_bytes(parse, read())[1]
    frontend._NAMES.clear()
    frontend._NAMES.update(names)
    stages = {}
    sources, done = pipeline(read, analysis.project_name(tree), counting(stages))
    counts = {
        "tokens": sum(len(tokenize(source.text)) for source in sources),
        "model_bytes": held,
        "stages": stages,
        "parse_source_again": calls(parse, sources)[1],
    }
    for size in (100, 400):
        batch = [done._replace(name=f"p{i:03}") for i in range(size)]
        counts[f"report_{size}_rows"] = calls(
            lambda: rows_to_csv([report_row(row) for row in batch]))[1]
    return counts


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    print(json.dumps(record(sys.argv[1]), indent=1))
