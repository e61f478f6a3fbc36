"""Reference values and output checks that never call the analyzer.

Expected report rows come from two independent sources:

* the paper suite (``dimetrics generate --step 10``): the closed forms in the
  generator's docstring.  With k of 10 pens injected, mean CBO = 20/11, mean
  DCBO = (20 - k)/11, mean RFC = (32 - k)/11, mean LCOM = 0, DI = k/10 and
  total LOC = 108 - 2k;
* synthetic projects: the writer's plan (see ``synth.py``).

Exact columns (di, cbo, dcbo, lcom, rfc, loc) must match the report's
2-decimal half-up rendering.  The normalized columns and the two indices are
recomputed from the README formulas and must lie within half a unit of the
last printed place.  Every check returns a list of problems; an empty list
means the output is correct.
"""
from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from synth import INJECTED, CONSTRUCTED, ProjectPlan

COLUMNS = ("project", "di", "cbo", "dcbo", "lcom", "rfc", "loc",
           "ncbo", "ndcbo", "nlcom", "nrfc", "mai", "dmai")
EXACT = ("di", "cbo", "dcbo", "lcom", "rfc")
SUITE_CLASSES = 11


@dataclass(frozen=True)
class Expected:
    project: str
    di: Fraction
    cbo: Fraction
    dcbo: Fraction
    lcom: Fraction
    rfc: Fraction
    loc: int
    classes: int

    def derived(self) -> dict[str, float]:
        def squash(x: Fraction) -> float:
            return 1.0 - 1.0 / (1.0 + float(x))

        ncbo, ndcbo, nrfc = squash(self.cbo), squash(self.dcbo), squash(self.rfc)
        nlcom = 0.0 if self.lcom == 0 else min(1.0 / float(self.lcom), 1.0)
        return {
            "ncbo": ncbo,
            "ndcbo": ndcbo,
            "nlcom": nlcom,
            "nrfc": nrfc,
            "mai": 1.0 - ncbo / 3.0 - nlcom / 3.0 - nrfc / 3.0,
            "dmai": 1.0 - ndcbo / 3.0 - nlcom / 3.0 - nrfc / 3.0,
        }


def suite_rows(step: int = 10) -> list[Expected]:
    rows = []
    for percent in range(0, 101, step):
        k = percent // 10
        rows.append(Expected(
            project=f"di_{percent}",
            di=Fraction(k, 10),
            cbo=Fraction(20, 11),
            dcbo=Fraction(20 - k, 11),
            lcom=Fraction(0),
            rfc=Fraction(32 - k, 11),
            loc=108 - 2 * k,
            classes=SUITE_CLASSES,
        ))
    return rows


def lcom1(accesses: list[frozenset[str]]) -> int:
    """LCOM1 from groups of identical access sets (no pairwise scan)."""
    m = len(accesses)
    if m < 2:
        return 0
    groups = list(Counter(accesses).items())
    sharing = 0
    for i, (first, n_first) in enumerate(groups):
        if first:
            sharing += n_first * (n_first - 1) // 2
        for second, n_second in groups[i + 1 :]:
            if first & second:
                sharing += n_first * n_second
    disjoint = m * (m - 1) // 2 - sharing
    return max(disjoint - sharing, 0)


def plan_row(plan: ProjectPlan) -> Expected:
    neighbours: dict[str, set[str]] = {c.name: set() for c in plan.classes}
    for cls in plan.classes:
        for dep in cls.deps:
            neighbours[cls.name].add(dep)
            neighbours[dep].add(cls.name)
    n = len(plan.classes)
    cbo_total = sum(len(adj) for adj in neighbours.values())
    dip_total = sum(1 for c in plan.classes for p in c.deps.values() if p in INJECTED)
    rfc = [
        len(c.accesses) + len(c.invoked) + sum(1 for p in c.deps.values() if p in CONSTRUCTED)
        for c in plan.classes
    ]
    di = Fraction(0) if cbo_total == 0 else min(Fraction(2 * dip_total, cbo_total), Fraction(1))
    return Expected(
        project=plan.name,
        di=di,
        cbo=Fraction(cbo_total, n),
        dcbo=Fraction(cbo_total - dip_total, n),
        lcom=Fraction(sum(lcom1(c.accesses) for c in plan.classes), n),
        rfc=Fraction(sum(rfc), n),
        loc=sum(c.loc for c in plan.classes),
        classes=n,
    )


def half_up(value: Fraction) -> str:
    hundredths = math.floor(value * 100 + Fraction(1, 2))
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def check_csv(text: str, expected: list[Expected]) -> list[str]:
    records = list(csv.reader(io.StringIO(text)))
    if not records or tuple(records[0]) != COLUMNS:
        return [f"bad CSV header {records[0] if records else None!r}"]
    body = [r for r in records[1:] if r]
    want = sorted(expected, key=lambda e: e.project)
    if [r[0] for r in body] != [e.project for e in want]:
        return [f"CSV projects {[r[0] for r in body][:5]}... != expected {[e.project for e in want][:5]}..."]
    problems = []
    for record, exp in zip(body, want):
        cells = dict(zip(COLUMNS, record))
        for column in EXACT:
            if cells[column] != half_up(getattr(exp, column)):
                problems.append(f"{exp.project}.{column}: {cells[column]} != {half_up(getattr(exp, column))}")
        if cells["loc"] != str(exp.loc):
            problems.append(f"{exp.project}.loc: {cells['loc']} != {exp.loc}")
        for column, value in exp.derived().items():
            if abs(float(cells[column]) - value) > 0.005 + 1e-9:
                problems.append(f"{exp.project}.{column}: {cells[column]} vs {value:.6f}")
    return problems


def check_json(text: str, csv_text: str, expected: list[Expected]) -> list[str]:
    entries = json.loads(text)
    want = sorted(expected, key=lambda e: e.project)
    records = [r for r in csv.reader(io.StringIO(csv_text))][1:]
    if len(entries) != len(want) or len(records) != len(want):
        return [f"JSON has {len(entries)} entries, CSV {len(records)}, expected {len(want)}"]
    problems = []
    for entry, record, exp in zip(entries, records, want):
        if entry["display"] != dict(zip(COLUMNS, record)):
            problems.append(f"{exp.project}: JSON display cells differ from the CSV row")
        full = {column: float(getattr(exp, column)) for column in EXACT}
        full.update(exp.derived())
        for column, value in full.items():
            if not math.isclose(entry[column], value, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{exp.project}.{column}: JSON {entry[column]!r} vs {value!r}")
        if entry["loc"] != exp.loc:
            problems.append(f"{exp.project}.loc: JSON {entry['loc']} != {exp.loc}")
    return problems


def check_stats(text: str, expected: list[Expected], verdict: str | None = None,
                threshold: Fraction = Fraction(1, 2)) -> list[str]:
    """Blocks follow from the expected DI values; the verdict is checked when given."""
    below = sum(1 for e in expected if e.di < threshold)
    above = sum(1 for e in expected if e.di > threshold)
    problems = []
    lines = text.splitlines()
    if f"blocks: {min(below, above)}  treatments: 2" not in lines:
        problems.append(f"stats: no 'blocks: {min(below, above)}' line")
    decisions = [line for line in lines if line.startswith("decision at alpha=0.05: ")]
    if len(decisions) != 1:
        problems.append("stats: no decision line")
    elif verdict is not None and decisions[0] != f"decision at alpha=0.05: {verdict}":
        problems.append(f"stats: {decisions[0]!r}, expected {verdict}")
    return problems


def check_svg(text: str, expected: list[Expected]) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    if len(circles) != 4 * len(expected):
        return [f"SVG has {len(circles)} points, expected {4 * len(expected)}"]
    return []

