"""``scripts/compare_outputs.py``'s front-end comparison finds a difference."""
from __future__ import annotations

import importlib.util

from conftest import PERFBENCH, ROOT, SRC

SCRIPT = ROOT / "scripts" / "compare_outputs.py"
TEXTS = [
    "",
    "class",
    "class A {\n}\n",
    "class A {\n    int x = 1;\n}\n",
    "class B {\n    void m() {\n    }\n}\n",
]


def test_an_edited_message_is_one_mismatch(tmp_path, monkeypatch, capsys):
    # the script puts perfbench on sys.path; monkeypatch restores sys.path after
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    assert script.compare_parses(SRC, SRC, TEXTS) is None
    assert capsys.readouterr().out == "inputs: 5, failing: 2, mismatches: 0, raised: 0\n"

    text = (SRC / "dimetrics" / "frontend.py").read_text(encoding="utf-8")
    edited = text.replace("initializers are not supported", "initializers are unsupported")
    assert edited != text
    (tmp_path / "dimetrics").mkdir()
    (tmp_path / "dimetrics" / "frontend.py").write_text(edited, encoding="utf-8")
    difference = script.compare_parses(SRC, str(tmp_path), TEXTS)
    assert capsys.readouterr().out == "inputs: 5, failing: 2, mismatches: 1, raised: 0\n"
    assert difference == (
        "parse_source on 'class A {\\n    int x = 1;\\n}\\n': item 1:"
        " ('diagnostic', 2, 11, 'field initializers are not supported', 'error')"
        " != ('diagnostic', 2, 11, 'field initializers are unsupported', 'error')"
    )
