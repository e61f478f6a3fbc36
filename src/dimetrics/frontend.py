"""Parsing front end for a strict Java-like class subset.

The analyzer does not ingest full Java.  It accepts exactly the subset needed
to express small class-based projects:

* top-level ``class`` declarations with optional ``extends``/``implements``,
* field declarations (modifiers, declared type, name; no initializers),
* constructors and methods with typed parameter lists,
* statements: local variable declarations with an optional initializer,
  assignments, ``return``, and expression statements,
* expressions: object creation ``new T(args)``, one-level method calls and
  field reads on ``this``, a parameter, a local, or a field, plain names,
  and literals.

``docs/grammar.md`` holds the normative grammar.  Parsing is strict: the
first construct outside the subset fails the whole file with a single
diagnostic and the file contributes no class models.  Silently skipping
unsupported syntax would corrupt coupling and response counts invisibly,
which is why partial models are never emitted.

A failing file reports a lexical error anywhere in it first, then its first
syntax error, then duplicate fields, duplicate parameters and name errors
class by class in source order: names are bound only after the whole file
has parsed.
"""
from __future__ import annotations

import os
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    """A parse or resolution problem at a 1-based source position."""

    path: str
    line: int
    column: int
    message: str
    severity: str  # "error" | "warning"


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        return cls(path=path, text=text)


@dataclass(frozen=True)
class FieldDecl:
    name: str
    type_name: str  # declared form, e.g. "Dog" or "Dog[]"


@dataclass(frozen=True)
class MethodModel:
    """One constructor or method, reduced to what the metrics need.

    ``invoked_methods`` holds (receiver type, method name) pairs resolved by
    local static typing; calls through ``this`` appear with the owning class
    as receiver type.  ``accessed_fields`` holds own-class fields only.
    """

    name: str
    is_constructor: bool
    param_types: tuple[str, ...]
    return_type: str | None  # None for constructors and void methods
    instantiated_types: tuple[str, ...]  # multiset of `new T(...)` targets
    invoked_methods: frozenset[tuple[str, str]]
    accessed_fields: frozenset[str]


@dataclass(frozen=True)
class ClassModel:
    name: str
    super_types: tuple[str, ...]
    fields: tuple[FieldDecl, ...]
    methods: tuple[MethodModel, ...]
    path: str  # the file that declares the class
    line: int  # position of the class name in that file
    column: int
    file_line_count: int  # LOC of that whole file
    line_count: int  # LOC spanned by this declaration


@dataclass(frozen=True)
class ProjectModel:
    classes: tuple[ClassModel, ...]
    class_names: frozenset[str]


def base_type_name(type_name: str) -> str:
    """Strip array suffixes: ``Dog[][]`` resolves to ``Dog``."""
    return type_name.split("[", 1)[0]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "implements",
        "new",
        "return",
        "this",
        "void",
        "true",
        "false",
        "null",
        "public",
        "private",
        "protected",
        "static",
        "final",
    }
)
_MODIFIERS = frozenset({"public", "private", "protected", "static", "final"})
# The token table of docs/grammar.md.  Each match is (skipped, token, rest):
# the whitespace and comments before a token, the token, and, where no token
# starts, the rest of the file.  The rest group ends the scan at the first
# lexical error; without it findall would retry the failed token at every
# later character, which is quadratic on a long unterminated literal.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)"
    r"(?:([A-Za-z_$][A-Za-z0-9_$]*|[0-9]+(?:\.[0-9]+)?"
    r"""|"(?:[^"\\\n]|\\[^\n])*"|'(?:[^'\\\n]|\\[^\n])*'|[{}()\[\];,.=])|(.*))""",
    re.DOTALL,
)
# A token's first character decides its kind; identifiers and numbers are ASCII.
_KIND = {
    **dict.fromkeys(string.ascii_letters + "_$", "ident"),
    **dict.fromkeys(string.digits, "number"),
    **dict.fromkeys("{}()[];,.=", "punct"),
    '"': "string",
    "'": "char",
}
# Argument lists nested deeper than this fail the file.  The parser recurses
# once per level, so the limit keeps it far below Python's recursion limit.
MAX_EXPRESSION_NESTING = 100


class Token(NamedTuple):
    kind: str  # "ident" | "kw" | "number" | "string" | "char" | "punct" | "eof"
    text: str
    line: int
    col: int


class ParseFailure(Exception):
    """Internal signal carrying the position of the offending token."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = col = 1
    for skipped, word, rest in _TOKEN.findall(text):
        if skipped:
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
        if word:
            kind = "kw" if word in _KEYWORDS else _KIND[word[0]]
            tokens.append(Token(kind, word, line, col))
            col += len(word)
        elif rest:
            if rest.startswith("/*"):
                raise ParseFailure(line, col, "unterminated block comment")
            if rest[0] in "\"'":
                raise ParseFailure(line, col, f"unterminated {_KIND[rest[0]]} literal")
            raise ParseFailure(line, col, f"unsupported character {rest[0]!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Raw declarations (internal to the frontend)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RawField:
    type_name: str
    name_tok: Token


@dataclass(frozen=True)
class _RawMethod:
    name_tok: Token
    is_constructor: bool
    params: tuple[tuple[str, Token], ...]
    return_type: str | None
    # (kind, receiver, token) uses in the order the binder checks them;
    # see _Parser._block
    body: tuple[tuple[str, Token | str | None, Token], ...]


@dataclass(frozen=True)
class _RawClass:
    name_tok: Token
    super_types: tuple[str, ...]
    fields: tuple[_RawField, ...]
    methods: tuple[_RawMethod, ...]
    line_count: int


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        # A second EOF token keeps _peek(1) in range even at the first EOF, so
        # _peek needs no bounds check.  The only deeper lookahead,
        # _at("]", 2), runs only after _peek(1) found "[".
        tokens.append(tokens[-1])
        self._toks = tokens
        self._pos = 0
        self._nesting = 0
        self._uses: list[tuple[str, Token | str | None, Token]] = []  # see _block

    # token plumbing ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._toks[self._pos + ahead]

    def _advance(self) -> Token:
        tok = self._peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _fail(self, tok: Token, message: str) -> None:
        raise ParseFailure(tok.line, tok.col, message)

    # A keyword or punctuation token is known by its text alone: no
    # identifier, number or literal token spells one.

    def _at(self, text: str, ahead: int = 0) -> bool:
        return self._peek(ahead).text == text

    def _expect(self, text: str) -> Token:
        tok = self._advance()
        if tok.text != text:
            self._fail(tok, f"expected {text!r}, found {tok.text or 'end of file'!r}")
        return tok

    def _expect_ident(self, what: str = "identifier") -> Token:
        tok = self._advance()
        if tok.kind != "ident":
            self._fail(tok, f"expected {what}, found {tok.text or 'end of file'!r}")
        return tok

    # declarations --------------------------------------------------------

    def parse_file(self) -> list[_RawClass]:
        classes = []
        while self._peek().kind != "eof":
            classes.append(self._class_decl())
        return classes

    def _modifiers(self) -> None:
        while self._peek().text in _MODIFIERS:
            self._advance()

    def _class_decl(self) -> _RawClass:
        start = self._pos
        self._modifiers()
        self._expect("class")
        name_tok = self._expect_ident("class name")
        supers: list[str] = []
        if self._at("extends"):
            self._advance()
            supers.append(self._expect_ident("superclass name").text)
        if self._at("implements"):
            self._advance()
            supers.append(self._expect_ident("interface name").text)
            while self._at(","):
                self._advance()
                supers.append(self._expect_ident("interface name").text)
        self._expect("{")
        fields: list[_RawField] = []
        methods: list[_RawMethod] = []
        while not self._at("}"):
            if self._peek().kind == "eof":
                self._fail(self._peek(), "unexpected end of file in class body")
            self._member(name_tok.text, fields, methods)
        self._expect("}")
        span = self._toks[start : self._pos]
        return _RawClass(
            name_tok=name_tok,
            super_types=tuple(supers),
            fields=tuple(fields),
            methods=tuple(methods),
            line_count=len({t.line for t in span}),
        )

    def _member(
        self, class_name: str, fields: list[_RawField], methods: list[_RawMethod]
    ) -> None:
        self._modifiers()
        tok = self._peek()
        if tok.kind == "ident" and tok.text == class_name and self._at("(", 1):
            name_tok = self._advance()
            params = self._params()
            body = self._block()
            methods.append(_RawMethod(name_tok, True, params, None, body))
            return
        is_void = self._at("void")
        if is_void:
            self._advance()
            declared: str | None = None
        else:
            declared = self._type_ref()
        name_tok = self._expect_ident("member name")
        if self._at("("):
            params = self._params()
            body = self._block()
            methods.append(_RawMethod(name_tok, False, params, declared, body))
        elif self._at(";"):
            if is_void:
                self._fail(name_tok, "a field cannot have type void")
            self._advance()
            fields.append(_RawField(declared, name_tok))
        elif self._at("="):
            self._fail(self._peek(), "field initializers are not supported")
        else:
            self._fail(
                self._peek(),
                f"expected '(' or ';' after member name, found {self._peek().text!r}",
            )

    def _type_ref(self) -> str:
        tok = self._expect_ident("type name")
        name = tok.text
        while self._at("["):
            self._advance()
            self._expect("]")
            name += "[]"
        return name

    def _params(self) -> tuple[tuple[str, Token], ...]:
        self._expect("(")
        params: list[tuple[str, Token]] = []
        if not self._at(")"):
            while True:
                ptype = self._type_ref()
                pname = self._expect_ident("parameter name")
                params.append((ptype, pname))
                if self._at(","):
                    self._advance()
                    continue
                break
        self._expect(")")
        return tuple(params)

    # statements ----------------------------------------------------------

    def _block(self) -> tuple:
        """Parse a method body into a flat tuple of ``(kind, receiver, token)`` uses.

        ``("new", None, type)``, ``("call", receiver, member)``,
        ``("field", receiver, member)``, ``("name", None, name)`` and
        ``("local", declared_type, name)``; a ``None`` receiver is ``this``.
        Uses follow the order the binder must check them: pre-order, a
        local's initializer before its declaration, and an assignment's
        value before its target.
        """
        self._expect("{")
        self._uses = []
        while not self._at("}"):
            if self._peek().kind == "eof":
                self._fail(self._peek(), "unexpected end of file in method body")
            self._statement()
        self._advance()
        return tuple(self._uses)

    def _statement(self) -> None:
        tok = self._peek()
        if self._at("return"):
            self._advance()
            if not self._at(";"):
                self._expression()
            self._expect(";")
        elif tok.kind == "ident" and (
            self._peek(1).kind == "ident" or (self._at("[", 1) and self._at("]", 2))
        ):
            dtype = self._type_ref()
            name_tok = self._expect_ident("variable name")
            if self._at("="):
                self._advance()
                self._expression()
            self._expect(";")
            self._uses.append(("local", dtype, name_tok))
        elif tok.kind == "ident" or tok.text in ("this", "new"):
            self._finish_expression_statement(self._expression())
        else:
            self._fail(tok, f"expected statement, found {tok.text or 'end of file'!r}")

    def _finish_expression_statement(self, kind: str) -> None:
        if self._at("="):
            eq = self._advance()
            if kind not in ("name", "field"):
                self._fail(eq, "invalid assignment target")
            target = self._uses.pop()
            self._expression()
            self._uses.append(target)
            self._expect(";")
            return
        semi = self._peek()
        self._expect(";")
        if kind not in ("call", "new"):
            self._fail(
                semi, "only method calls and object creations can stand alone as statements"
            )

    # expressions ---------------------------------------------------------

    def _expression(self) -> str:
        """Parse one expression, record its uses and return its kind."""
        tok = self._advance()
        if tok.text == "new":
            self._uses.append(("new", None, self._expect_ident("type name")))
            self._arguments()
            return "new"
        if tok.text == "this":
            return self._postfix(None)
        if tok.kind == "ident":
            if self._at("("):
                self._fail(
                    tok,
                    f"unqualified call to {tok.text!r} is not supported"
                    " (use an explicit receiver)",
                )
            return self._postfix(tok)
        if tok.kind in ("number", "string", "char") or tok.text in ("true", "false", "null"):
            return "literal"
        self._fail(tok, f"expected expression, found {tok.text or 'end of file'!r}")

    def _postfix(self, receiver: Token | None) -> str:
        if not self._at("."):
            if receiver is None:
                return "this"
            self._uses.append(("name", None, receiver))
            return "name"
        self._advance()
        member = self._expect_ident("member name")
        if self._at("("):
            self._uses.append(("call", receiver, member))
            self._arguments()
            return "call"
        self._uses.append(("field", receiver, member))
        return "field"

    def _arguments(self) -> None:
        open_tok = self._expect("(")
        self._nesting += 1
        if self._nesting > MAX_EXPRESSION_NESTING:
            self._fail(open_tok, f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep")
        if not self._at(")"):
            self._expression()
            while self._at(","):
                self._advance()
                self._expression()
        self._expect(")")
        self._nesting -= 1


# ---------------------------------------------------------------------------
# Binder: raw syntax -> immutable models
# ---------------------------------------------------------------------------


def _bind_class(raw: _RawClass, path: str, file_line_count: int) -> ClassModel:
    field_types: dict[str, str] = {}
    for fld in raw.fields:
        if fld.name_tok.text in field_types:
            raise ParseFailure(
                fld.name_tok.line, fld.name_tok.col, f"duplicate field {fld.name_tok.text!r}"
            )
        field_types[fld.name_tok.text] = fld.type_name
    own_members = {m.name_tok.text for m in raw.methods}
    name_tok = raw.name_tok
    methods = tuple(
        _bind_method(m, name_tok.text, field_types, own_members) for m in raw.methods
    )
    return ClassModel(
        name=name_tok.text,
        super_types=raw.super_types,
        fields=tuple(FieldDecl(f.name_tok.text, f.type_name) for f in raw.fields),
        methods=methods,
        path=path,
        line=name_tok.line,
        column=name_tok.col,
        file_line_count=file_line_count,
        line_count=raw.line_count,
    )


def _bind_method(
    raw: _RawMethod,
    class_name: str,
    field_types: dict[str, str],
    own_members: set[str],
) -> MethodModel:
    params: dict[str, str] = {}
    for ptype, ptok in raw.params:
        if ptok.text in params:
            raise ParseFailure(ptok.line, ptok.col, f"duplicate parameter {ptok.text!r}")
        params[ptok.text] = ptype
    locals_: dict[str, str] = {}
    accessed: set[str] = set()
    invoked: set[tuple[str, str]] = set()
    created: list[str] = []
    for kind, receiver, tok in raw.body:
        name = tok.text
        if kind == "new":
            created.append(name)
        elif kind == "local":
            if name in locals_ or name in params:
                raise ParseFailure(tok.line, tok.col, f"duplicate variable {name!r}")
            locals_[name] = receiver
        elif kind == "name":
            if name not in locals_ and name not in params:
                if name not in field_types:
                    raise ParseFailure(tok.line, tok.col, f"unknown name {name!r}")
                accessed.add(name)
        elif receiver is None:  # a member of this
            if kind == "call":
                if name not in own_members:
                    raise ParseFailure(tok.line, tok.col, f"unknown method {name!r}")
                invoked.add((class_name, name))
            else:
                if name not in field_types:
                    raise ParseFailure(tok.line, tok.col, f"unknown field {name!r}")
                accessed.add(name)
        else:
            # a foreign member: the receiver must resolve, the member is unchecked
            for table in (locals_, params, field_types):
                if receiver.text in table:
                    break
            else:
                raise ParseFailure(
                    receiver.line, receiver.col, f"unknown name {receiver.text!r}"
                )
            if kind == "call":
                invoked.add((base_type_name(table[receiver.text]), name))

    return MethodModel(
        name=raw.name_tok.text,
        is_constructor=raw.is_constructor,
        param_types=tuple(ptype for ptype, _ in raw.params),
        return_type=raw.return_type,
        instantiated_types=tuple(created),
        invoked_methods=frozenset(invoked),
        accessed_fields=frozenset(accessed),
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_source(source: SourceFile) -> tuple[list[ClassModel], list[Diagnostic]]:
    """Parse one file.

    Returns ``(models, diagnostics)``.  In strict mode these are mutually
    exclusive: the first unsupported construct yields one error diagnostic
    and an empty model list.  The file's LOC is the number of distinct lines
    that hold a token (comments and whitespace produce none).
    """
    try:
        tokens = tokenize(source.text)
        file_line_count = len({tok.line for tok in tokens[:-1]})
        raws = _Parser(tokens).parse_file()
        models = [_bind_class(raw, source.path, file_line_count) for raw in raws]
    except ParseFailure as failure:
        diag = Diagnostic(source.path, failure.line, failure.col, failure.message, "error")
        return [], [diag]
    return models, []


def resolve_project(
    models: list[ClassModel],
) -> tuple[ProjectModel | None, list[Diagnostic]]:
    """Combine parsed classes into a project, rejecting duplicate names."""
    seen: dict[str, ClassModel] = {}
    diagnostics: list[Diagnostic] = []
    for model in models:
        first = seen.get(model.name)
        if first is not None:
            diagnostics.append(
                Diagnostic(
                    model.path,
                    model.line,
                    model.column,
                    f"duplicate class {model.name!r} (also declared in {first.path})",
                    "error",
                )
            )
        else:
            seen[model.name] = model
    if diagnostics:
        return None, diagnostics
    return ProjectModel(classes=tuple(models), class_names=frozenset(seen)), []


def discover_source_files(root: Path | str) -> list[Path]:
    """All ``.java`` files under ``root``, skipping hidden directories."""
    found: list[Path] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        found.extend(Path(dirpath, name) for name in filenames if name.endswith(".java"))
    return sorted(found)


def load_source_file(path: Path | str) -> SourceFile:
    text = Path(path).read_text(encoding="utf-8")
    return SourceFile.from_text(str(path), text)
