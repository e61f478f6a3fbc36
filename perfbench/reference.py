"""Fixed reference task that measures how fast the host runs Python right now.

The benchmark runs this script in a fresh ``python -S`` after every op and
scales its timings by the reference's median CPU time (see ``run.py``).
On a shared machine the speed of the same Python code drifts by tens of
percent over minutes as other tenants come and go; the reference, which
never touches ``dimetrics``, drifts with it.  It does what the CLI does at
small scale: start an interpreter, import the standard-library modules the
CLI uses, lex text into a retained heap of frozen dataclasses, intersect
small sets pairwise, and fill dicts, CSV and JSON.  Changing this file
changes every normalized metric, so it stays fixed.
"""
import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import csv
import dataclasses
import decimal
import io
import itertools
import json
import statistics

TEXT = "public class K01 {\n    private K02 d0;\n    public K01(K02 d0) { this.d0 = d0; }\n}\n" * 2200
PAIR_SETS = 1000


@dataclasses.dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def lex(text: str) -> list[Token]:
    tokens = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c.isalnum():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(Token("ident", text[i:j], line))
            i = j
        else:
            if c == "\n":
                line += 1
            elif c != " ":
                tokens.append(Token("punct", c, line))
            i += 1
    return tokens


def main() -> None:
    # a retained heap of small objects, as a parsed project is
    tokens = lex(TEXT) + lex(TEXT.replace("K0", "Q0"))
    lines: dict[str, list[int]] = {}
    for token in tokens:
        lines.setdefault(token.text, []).append(token.line)
    # pairwise set intersections, as LCOM's method-pair scan does
    sets = [frozenset((t.line % 13, t.line % 7)) for t in tokens[:PAIR_SETS]]
    sharing = sum(1 for a, b in itertools.combinations(sets, 2) if a & b)
    out = io.StringIO()
    writer = csv.writer(out)
    for key in sorted(lines):
        writer.writerow([key, len(lines[key]), str(decimal.Decimal(len(lines[key])) / 7)])
    print(len(tokens), sharing, len(json.dumps(sorted(lines))), len(out.getvalue()),
          statistics.median(len(v) for v in lines.values()))


if __name__ == "__main__":
    main()
