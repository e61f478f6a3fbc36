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
"""
from __future__ import annotations

import os
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
_PUNCT = frozenset("{}()[];,.=")
# Argument lists nested deeper than this fail the file.  The parser and the
# binder recurse once per level, so the limit keeps both far below Python's
# recursion limit.
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
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            start_line, start_col = line, col
            i += 2
            col += 2
            closed = False
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    i += 2
                    col += 2
                    closed = True
                    break
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if not closed:
                raise ParseFailure(start_line, start_col, "unterminated block comment")
        elif c in "\"'":
            quote = c
            start_col = col
            j = i + 1
            while j < n and text[j] != quote and text[j] != "\n":
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n or text[j] != quote:
                kind = "string" if quote == '"' else "char"
                raise ParseFailure(line, start_col, f"unterminated {kind} literal")
            lexeme = text[i : j + 1]
            tokens.append(Token("string" if quote == '"' else "char", lexeme, line, start_col))
            col += j + 1 - i
            i = j + 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isalpha() or c in "_$":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            tokens.append(Token("kw" if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
        elif c in _PUNCT:
            tokens.append(Token("punct", c, line, col))
            col += 1
            i += 1
        else:
            raise ParseFailure(line, col, f"unsupported character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Syntax trees (internal to the frontend)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Name:
    text: str
    line: int
    col: int


@dataclass(frozen=True)
class _ThisRef:
    line: int
    col: int


@dataclass(frozen=True)
class _LiteralExpr:
    line: int
    col: int


@dataclass(frozen=True)
class _CreationExpr:
    type_name: str
    args: tuple
    line: int
    col: int


@dataclass(frozen=True)
class _CallExpr:
    receiver: object  # _ThisRef | _Name
    method: str
    args: tuple
    line: int
    col: int


@dataclass(frozen=True)
class _FieldAccess:
    receiver: object  # _ThisRef | _Name
    field: str
    line: int
    col: int


@dataclass(frozen=True)
class _LocalDecl:
    type_name: str
    name: str
    init: object | None
    line: int
    col: int


@dataclass(frozen=True)
class _Assign:
    target: object  # _Name | _FieldAccess
    value: object


@dataclass(frozen=True)
class _ReturnStmt:
    value: object | None


@dataclass(frozen=True)
class _ExprStmt:
    expr: object


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
    body: tuple


@dataclass(frozen=True)
class _RawClass:
    name: str
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
        # _at_punct("]", 2), runs only after _peek(1) found "[".
        tokens.append(tokens[-1])
        self._toks = tokens
        self._pos = 0
        self._nesting = 0

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

    def _at_punct(self, ch: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok.kind == "punct" and tok.text == ch

    def _at_kw(self, word: str) -> bool:
        tok = self._peek()
        return tok.kind == "kw" and tok.text == word

    def _expect_punct(self, ch: str) -> Token:
        tok = self._advance()
        if tok.kind != "punct" or tok.text != ch:
            self._fail(tok, f"expected {ch!r}, found {tok.text or 'end of file'!r}")
        return tok

    def _expect_kw(self, word: str) -> Token:
        tok = self._advance()
        if tok.kind != "kw" or tok.text != word:
            self._fail(tok, f"expected {word!r}, found {tok.text or 'end of file'!r}")
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
        while self._peek().kind == "kw" and self._peek().text in _MODIFIERS:
            self._advance()

    def _class_decl(self) -> _RawClass:
        start = self._pos
        self._modifiers()
        self._expect_kw("class")
        name_tok = self._expect_ident("class name")
        supers: list[str] = []
        if self._at_kw("extends"):
            self._advance()
            supers.append(self._expect_ident("superclass name").text)
        if self._at_kw("implements"):
            self._advance()
            supers.append(self._expect_ident("interface name").text)
            while self._at_punct(","):
                self._advance()
                supers.append(self._expect_ident("interface name").text)
        self._expect_punct("{")
        fields: list[_RawField] = []
        methods: list[_RawMethod] = []
        while not self._at_punct("}"):
            if self._peek().kind == "eof":
                self._fail(self._peek(), "unexpected end of file in class body")
            self._member(name_tok.text, fields, methods)
        self._expect_punct("}")
        span = self._toks[start : self._pos]
        return _RawClass(
            name=name_tok.text,
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
        if tok.kind == "ident" and tok.text == class_name and self._at_punct("(", 1):
            name_tok = self._advance()
            params = self._params()
            body = self._block()
            methods.append(_RawMethod(name_tok, True, params, None, body))
            return
        is_void = self._at_kw("void")
        if is_void:
            self._advance()
            declared: str | None = None
        else:
            declared = self._type_ref()
        name_tok = self._expect_ident("member name")
        if self._at_punct("("):
            params = self._params()
            body = self._block()
            methods.append(_RawMethod(name_tok, False, params, declared, body))
        elif self._at_punct(";"):
            if is_void:
                self._fail(name_tok, "a field cannot have type void")
            self._advance()
            fields.append(_RawField(declared, name_tok))
        elif self._at_punct("="):
            self._fail(self._peek(), "field initializers are not supported")
        else:
            self._fail(
                self._peek(),
                f"expected '(' or ';' after member name, found {self._peek().text!r}",
            )

    def _type_ref(self) -> str:
        tok = self._expect_ident("type name")
        name = tok.text
        while self._at_punct("["):
            self._advance()
            self._expect_punct("]")
            name += "[]"
        return name

    def _params(self) -> tuple[tuple[str, Token], ...]:
        self._expect_punct("(")
        params: list[tuple[str, Token]] = []
        if not self._at_punct(")"):
            while True:
                ptype = self._type_ref()
                pname = self._expect_ident("parameter name")
                params.append((ptype, pname))
                if self._at_punct(","):
                    self._advance()
                    continue
                break
        self._expect_punct(")")
        return tuple(params)

    # statements ----------------------------------------------------------

    def _block(self) -> tuple:
        self._expect_punct("{")
        stmts = []
        while not self._at_punct("}"):
            if self._peek().kind == "eof":
                self._fail(self._peek(), "unexpected end of file in method body")
            stmts.append(self._statement())
        self._advance()
        return tuple(stmts)

    def _statement(self):
        tok = self._peek()
        if self._at_kw("return"):
            self._advance()
            if self._at_punct(";"):
                self._advance()
                return _ReturnStmt(None)
            value = self._expression()
            self._expect_punct(";")
            return _ReturnStmt(value)
        if self._at_kw("this") or self._at_kw("new"):
            return self._finish_expression_statement(self._expression())
        if tok.kind == "ident":
            nxt = self._peek(1)
            if nxt.kind == "ident" or (self._at_punct("[", 1) and self._at_punct("]", 2)):
                dtype = self._type_ref()
                name_tok = self._expect_ident("variable name")
                init = None
                if self._at_punct("="):
                    self._advance()
                    init = self._expression()
                self._expect_punct(";")
                return _LocalDecl(dtype, name_tok.text, init, name_tok.line, name_tok.col)
            return self._finish_expression_statement(self._expression())
        self._fail(tok, f"expected statement, found {tok.text or 'end of file'!r}")

    def _finish_expression_statement(self, expr):
        if self._at_punct("="):
            eq = self._advance()
            if not isinstance(expr, (_Name, _FieldAccess)):
                self._fail(eq, "invalid assignment target")
            value = self._expression()
            self._expect_punct(";")
            return _Assign(expr, value)
        semi = self._peek()
        self._expect_punct(";")
        if not isinstance(expr, (_CallExpr, _CreationExpr)):
            self._fail(
                semi, "only method calls and object creations can stand alone as statements"
            )
        return _ExprStmt(expr)

    # expressions ---------------------------------------------------------

    def _expression(self):
        tok = self._peek()
        if self._at_kw("new"):
            ntok = self._advance()
            type_tok = self._expect_ident("type name")
            args = self._arguments()
            return _CreationExpr(type_tok.text, args, ntok.line, ntok.col)
        if self._at_kw("this"):
            ttok = self._advance()
            return self._postfix(_ThisRef(ttok.line, ttok.col))
        if tok.kind == "ident":
            self._advance()
            if self._at_punct("("):
                self._fail(
                    tok,
                    f"unqualified call to {tok.text!r} is not supported"
                    " (use an explicit receiver)",
                )
            return self._postfix(_Name(tok.text, tok.line, tok.col))
        if tok.kind in ("number", "string", "char"):
            self._advance()
            return _LiteralExpr(tok.line, tok.col)
        if tok.kind == "kw" and tok.text in ("true", "false", "null"):
            self._advance()
            return _LiteralExpr(tok.line, tok.col)
        self._fail(tok, f"expected expression, found {tok.text or 'end of file'!r}")

    def _postfix(self, base):
        if self._at_punct("."):
            self._advance()
            member = self._expect_ident("member name")
            if self._at_punct("("):
                args = self._arguments()
                return _CallExpr(base, member.text, args, member.line, member.col)
            return _FieldAccess(base, member.text, member.line, member.col)
        return base

    def _arguments(self) -> tuple:
        open_tok = self._expect_punct("(")
        self._nesting += 1
        if self._nesting > MAX_EXPRESSION_NESTING:
            self._fail(open_tok, f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep")
        args = []
        if not self._at_punct(")"):
            args.append(self._expression())
            while self._at_punct(","):
                self._advance()
                args.append(self._expression())
        self._expect_punct(")")
        self._nesting -= 1
        return tuple(args)


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
    methods = tuple(
        _bind_method(m, raw.name, field_types, own_members) for m in raw.methods
    )
    return ClassModel(
        name=raw.name,
        super_types=raw.super_types,
        fields=tuple(FieldDecl(f.name_tok.text, f.type_name) for f in raw.fields),
        methods=methods,
        path=path,
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

    def receiver_type(node) -> str:
        if isinstance(node, _ThisRef):
            return class_name
        for table in (locals_, params, field_types):
            if node.text in table:
                return base_type_name(table[node.text])
        raise ParseFailure(node.line, node.col, f"unknown name {node.text!r}")

    def walk(expr) -> None:
        if isinstance(expr, _CreationExpr):
            created.append(expr.type_name)
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, _CallExpr):
            if isinstance(expr.receiver, _ThisRef) and expr.method not in own_members:
                raise ParseFailure(expr.line, expr.col, f"unknown method {expr.method!r}")
            invoked.add((receiver_type(expr.receiver), expr.method))
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, _FieldAccess):
            if isinstance(expr.receiver, _ThisRef):
                if expr.field not in field_types:
                    raise ParseFailure(expr.line, expr.col, f"unknown field {expr.field!r}")
                accessed.add(expr.field)
            else:
                # foreign member: receiver must resolve, the member is unchecked
                receiver_type(expr.receiver)
        elif isinstance(expr, _Name):
            if expr.text in locals_ or expr.text in params:
                return
            if expr.text in field_types:
                accessed.add(expr.text)
                return
            raise ParseFailure(expr.line, expr.col, f"unknown name {expr.text!r}")

    for stmt in raw.body:
        if isinstance(stmt, _LocalDecl):
            if stmt.init is not None:
                walk(stmt.init)
            if stmt.name in locals_ or stmt.name in params:
                raise ParseFailure(stmt.line, stmt.col, f"duplicate variable {stmt.name!r}")
            locals_[stmt.name] = stmt.type_name
        elif isinstance(stmt, _Assign):
            walk(stmt.value)
            walk(stmt.target)
        elif isinstance(stmt, _ReturnStmt):
            if stmt.value is not None:
                walk(stmt.value)
        elif isinstance(stmt, _ExprStmt):
            walk(stmt.expr)

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
                    1,
                    1,
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
