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

The lexer scans a file once into a ``TokenStream``; parser and binder carry
token indices, and only a class name or the failing token gets a position.
"""
from __future__ import annotations

import os
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, NoReturn


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

_MODIFIERS = frozenset({"public", "private", "protected", "static", "final"})
_KEYWORDS = _MODIFIERS.union(
    "class extends implements new return this void true false null".split()
)
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
    "": "eof",
}
# Argument lists nested deeper than this fail the file.  The parser recurses
# once per level, so the limit keeps it far below Python's recursion limit.
MAX_EXPRESSION_NESTING = 100


class Token(NamedTuple):
    """One token with its 1-based position, as ``TokenStream`` iteration yields it."""

    kind: str  # "ident" | "kw" | "number" | "string" | "char" | "punct" | "eof"
    text: str
    line: int
    col: int


class ParseFailure(Exception):
    """Internal signal carrying the index of the offending token."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _fail(index: int, message: str) -> NoReturn:
    raise ParseFailure(index, message)


def _kind(word: str) -> str:
    return "kw" if word in _KEYWORDS else _KIND[word[:1]]


@dataclass(frozen=True)
class TokenStream:
    """One scan of a text: ``words[i]`` is token i, ``skips[i]`` the text skipped before it.

    The last word is ``""``, at the end of the text or where the lexical
    ``error`` stops the scan.  Iterating yields positioned ``Token`` views."""

    text: str
    skips: tuple[str, ...]
    words: tuple[str, ...]
    error: str | None

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Token]:
        for word, (line, col) in zip(self.words, self.positions(range(len(self)))):
            yield Token(_kind(word), word, line, col)

    def positions(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        """The ``(line, col)`` of each of the ascending token ``indices``, in one
        pass that measures only the words and skips from one index to the next."""
        found, line, col = [], 1, 1
        offset = passed_skips = passed_words = 0  # text[:offset] holds those skips and words
        for index in indices:
            start = offset + sum(map(len, self.words[passed_words:index]))
            start += sum(map(len, self.skips[passed_skips : index + 1]))
            newlines = self.text.count("\n", offset, start)
            if newlines:
                line += newlines
                col = start - self.text.rfind("\n", offset, start)
            else:
                col += start - offset
            found.append((line, col))
            offset, passed_skips, passed_words = start, index + 1, index
        return found

    def line_count(self, start: int, end: int) -> int:
        """Lines that tokens ``start`` to ``end - 1`` occupy: no token spans a
        line, so one begins a new line iff the skip before it holds a ``\\n``."""
        return len([skip for skip in self.skips[start + 1 : end] if "\n" in skip]) + (end > start)


def tokenize(text: str) -> TokenStream:
    """Scan ``text`` with one ``_TOKEN.findall``.  A lexical error does not
    raise: the stream ends there with its message, and parsing fails there."""
    matches = _TOKEN.findall(text)
    # findall ends with an empty match; after a match without a token (a
    # trailing skip or a lexical error) it is a second end of file.
    if len(matches) > 1 and not matches[-2][1]:
        matches.pop()
    skips, words, _ = zip(*matches)
    rest = matches[-1][2]
    error = None
    if rest.startswith("/*"):
        error = "unterminated block comment"
    elif rest[:1] in ('"', "'"):
        error = f"unterminated {_KIND[rest[0]]} literal"
    elif rest:
        error = f"unsupported character {rest[0]!r}"
    return TokenStream(text, skips, words, error)


# ---------------------------------------------------------------------------
# Raw declarations (internal to the frontend); names are token indices
# ---------------------------------------------------------------------------


class _RawMethod(NamedTuple):
    name: int
    is_constructor: bool
    params: tuple[tuple[str, int], ...]  # (declared type, name)
    return_type: str | None
    body: tuple[tuple[str, int | str | None, int], ...]  # uses; see _Parser._block


class _RawClass(NamedTuple):
    name: int
    super_types: tuple[str, ...]
    fields: tuple[tuple[str, int], ...]  # (declared type, name), like parameters
    methods: tuple[_RawMethod, ...]
    line_count: int  # the lines its tokens occupy


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: TokenStream):
        if tokens.error:
            _fail(len(tokens) - 1, tokens.error)
        self._tokens = tokens
        # a second end of file keeps _peek(1), and _at("]", 2) after "[", in range
        self._words = tokens.words + ("",)
        self._pos = self._nesting = 0
        self._uses: list[tuple[str, int | str | None, int]] = []  # see _block

    # token plumbing ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        return self._words[self._pos + ahead]

    def _advance(self) -> int:
        """Step past the current token, except end of file, and return its index."""
        index = self._pos
        if self._words[index]:
            self._pos = index + 1
        return index

    # A keyword or punctuation token is known by its text alone: no
    # identifier, number or literal token spells one.

    def _at(self, text: str, ahead: int = 0) -> bool:
        return self._words[self._pos + ahead] == text

    def _take(self, text: str) -> bool:
        taken = self._words[self._pos] == text
        self._pos += taken
        return taken

    def _expect(self, text: str) -> int:
        index = self._advance()
        word = self._words[index]
        if word != text:
            _fail(index, f"expected {text!r}, found {word or 'end of file'!r}")
        return index

    def _expect_ident(self, what: str) -> int:
        index = self._advance()
        word = self._words[index]
        if _kind(word) != "ident":
            _fail(index, f"expected {what}, found {word or 'end of file'!r}")
        return index

    # declarations --------------------------------------------------------

    def parse_file(self) -> list[_RawClass]:
        classes = []
        while self._peek():
            classes.append(self._class_decl())
        return classes

    def _modifiers(self) -> None:
        while self._peek() in _MODIFIERS:
            self._advance()

    def _class_decl(self) -> _RawClass:
        start = self._pos
        self._modifiers()
        self._expect("class")
        name = self._expect_ident("class name")
        supers: list[str] = []
        if self._take("extends"):
            supers.append(self._words[self._expect_ident("superclass name")])
        if self._take("implements"):
            supers.append(self._words[self._expect_ident("interface name")])
            while self._take(","):
                supers.append(self._words[self._expect_ident("interface name")])
        self._expect("{")
        fields: list[tuple[str, int]] = []
        methods: list[_RawMethod] = []
        while not self._at("}"):
            if not self._peek():
                _fail(self._pos, "unexpected end of file in class body")
            self._member(self._words[name], fields, methods)
        self._expect("}")
        line_count = self._tokens.line_count(start, self._pos)
        return _RawClass(name, tuple(supers), tuple(fields), tuple(methods), line_count)

    def _member(
        self, class_name: str, fields: list[tuple[str, int]], methods: list[_RawMethod]
    ) -> None:
        self._modifiers()
        if self._at(class_name) and self._at("(", 1):
            methods.append(_RawMethod(self._advance(), True, self._params(), None, self._block()))
            return
        is_void = self._take("void")
        declared = None if is_void else self._type_ref()
        name = self._expect_ident("member name")
        if self._at("("):
            methods.append(_RawMethod(name, False, self._params(), declared, self._block()))
        elif self._take(";"):
            if is_void:
                _fail(name, "a field cannot have type void")
            fields.append((declared, name))
        elif self._at("="):
            _fail(self._pos, "field initializers are not supported")
        else:
            _fail(self._pos, f"expected '(' or ';' after member name, found {self._peek()!r}")

    def _type_ref(self) -> str:
        name = self._words[self._expect_ident("type name")]
        while self._take("["):
            self._expect("]")
            name += "[]"
        return name

    def _params(self) -> tuple[tuple[str, int], ...]:
        self._expect("(")
        params: list[tuple[str, int]] = []
        if not self._at(")"):
            params.append((self._type_ref(), self._expect_ident("parameter name")))
            while self._take(","):
                params.append((self._type_ref(), self._expect_ident("parameter name")))
        self._expect(")")
        return tuple(params)

    # statements ----------------------------------------------------------

    def _block(self) -> tuple:
        """Parse a method body into a flat tuple of ``(kind, receiver, name)`` uses.

        ``("new", None, type)``, ``("call", receiver, member)``,
        ``("field", receiver, member)``, ``("name", None, name)`` and
        ``("local", declared_type, name)``, names and receivers as token
        indices; a ``None`` receiver is ``this``.  Uses follow the order the
        binder checks them: pre-order, a local's initializer before its
        declaration, and an assignment's value before its target.
        """
        self._expect("{")
        self._uses = []
        while not self._at("}"):
            if not self._peek():
                _fail(self._pos, "unexpected end of file in method body")
            self._statement()
        self._advance()
        return tuple(self._uses)

    def _statement(self) -> None:
        word = self._peek()
        is_ident = _kind(word) == "ident"
        if self._take("return"):
            if not self._at(";"):
                self._expression()
            self._expect(";")
        elif is_ident and (
            _kind(self._peek(1)) == "ident" or (self._at("[", 1) and self._at("]", 2))
        ):
            dtype = self._type_ref()
            name = self._expect_ident("variable name")
            if self._take("="):
                self._expression()
            self._expect(";")
            self._uses.append(("local", dtype, name))
        elif is_ident or word in ("this", "new"):
            self._finish_expression_statement(self._expression())
        else:
            _fail(self._pos, f"expected statement, found {word or 'end of file'!r}")

    def _finish_expression_statement(self, kind: str) -> None:
        if self._at("="):
            eq = self._advance()
            if kind not in ("name", "field"):
                _fail(eq, "invalid assignment target")
            target = self._uses.pop()
            self._expression()
            self._uses.append(target)
            self._expect(";")
            return
        semi = self._expect(";")
        if kind not in ("call", "new"):
            _fail(semi, "only method calls and object creations can stand alone as statements")

    # expressions ---------------------------------------------------------

    def _expression(self) -> str:
        """Parse one expression, record its uses and return its kind."""
        index = self._advance()
        word = self._words[index]
        if word == "new":
            self._uses.append(("new", None, self._expect_ident("type name")))
            self._arguments()
            return "new"
        if word == "this":
            return self._postfix(None)
        kind = _kind(word)
        if kind == "ident":
            if self._at("("):
                reason = "is not supported (use an explicit receiver)"
                _fail(index, f"unqualified call to {word!r} {reason}")
            return self._postfix(index)
        if kind in ("number", "string", "char") or word in ("true", "false", "null"):
            return "literal"
        _fail(index, f"expected expression, found {word or 'end of file'!r}")

    def _postfix(self, receiver: int | None) -> str:
        if not self._take("."):
            if receiver is None:
                return "this"
            self._uses.append(("name", None, receiver))
            return "name"
        member = self._expect_ident("member name")
        if self._at("("):
            self._uses.append(("call", receiver, member))
            self._arguments()
            return "call"
        self._uses.append(("field", receiver, member))
        return "field"

    def _arguments(self) -> None:
        open_paren = self._expect("(")
        self._nesting += 1
        if self._nesting > MAX_EXPRESSION_NESTING:
            _fail(open_paren, f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep")
        if not self._at(")"):
            self._expression()
            while self._take(","):
                self._expression()
        self._expect(")")
        self._nesting -= 1


# ---------------------------------------------------------------------------
# Binder: raw syntax -> immutable models
# ---------------------------------------------------------------------------


def _bind_class(
    raw: _RawClass, words: tuple[str, ...], path: str, position: tuple[int, int], file_loc: int
) -> ClassModel:
    field_types: dict[str, str] = {}
    for ftype, findex in raw.fields:
        if words[findex] in field_types:
            _fail(findex, f"duplicate field {words[findex]!r}")
        field_types[words[findex]] = ftype
    own_members = {words[m.name] for m in raw.methods}
    class_name = words[raw.name]
    methods = tuple(
        _bind_method(m, words, class_name, field_types, own_members) for m in raw.methods
    )
    return ClassModel(
        name=class_name,
        super_types=raw.super_types,
        fields=tuple(FieldDecl(words[findex], ftype) for ftype, findex in raw.fields),
        methods=methods,
        path=path,
        line=position[0],
        column=position[1],
        file_line_count=file_loc,
        line_count=raw.line_count,
    )


def _bind_method(
    raw: _RawMethod,
    words: tuple[str, ...],
    class_name: str,
    field_types: dict[str, str],
    own_members: set[str],
) -> MethodModel:
    params: dict[str, str] = {}
    for ptype, pindex in raw.params:
        if words[pindex] in params:
            _fail(pindex, f"duplicate parameter {words[pindex]!r}")
        params[words[pindex]] = ptype
    locals_: dict[str, str] = {}
    accessed: set[str] = set()
    invoked: set[tuple[str, str]] = set()
    created: list[str] = []
    for kind, receiver, index in raw.body:
        name = words[index]
        if kind == "new":
            created.append(name)
        elif kind == "local":
            if name in locals_ or name in params:
                _fail(index, f"duplicate variable {name!r}")
            locals_[name] = receiver
        elif kind == "name":
            if name not in locals_ and name not in params:
                if name not in field_types:
                    _fail(index, f"unknown name {name!r}")
                accessed.add(name)
        elif receiver is None:  # a member of this
            if kind == "call":
                if name not in own_members:
                    _fail(index, f"unknown method {name!r}")
                invoked.add((class_name, name))
            else:
                if name not in field_types:
                    _fail(index, f"unknown field {name!r}")
                accessed.add(name)
        else:
            # a foreign member: the receiver must resolve, the member is unchecked
            receiver_name = words[receiver]
            for table in (locals_, params, field_types):
                if receiver_name in table:
                    break
            else:
                _fail(receiver, f"unknown name {receiver_name!r}")
            if kind == "call":
                invoked.add((base_type_name(table[receiver_name]), name))

    return MethodModel(
        name=words[raw.name],
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
    """Parse one file into ``(models, diagnostics)``.

    In strict mode these are mutually exclusive: the first unsupported
    construct yields one error diagnostic and no models.  Only the class
    names and the failing token get a position.  A class's LOC counts the
    lines that hold its tokens; the file's LOC, the lines of all its tokens.
    """
    tokens = tokenize(source.text)
    try:
        raws = _Parser(tokens).parse_file()
        file_line_count = tokens.line_count(0, len(tokens) - 1)
        models = [
            _bind_class(raw, tokens.words, source.path, position, file_line_count)
            for raw, position in zip(raws, tokens.positions([raw.name for raw in raws]))
        ]
    except ParseFailure as failure:
        [(line, col)] = tokens.positions([failure.index])
        return [], [Diagnostic(source.path, line, col, str(failure), "error")]
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
    """All ``.java`` files under ``root``, skipping hidden directories.

    As in ``os.walk``, a symlinked directory is neither entered nor a file and
    an unreadable directory is skipped, but an explicit stack bounds no depth.
    """
    found: list[Path] = []
    stack = [os.fspath(root)]
    while stack:
        try:
            with os.scandir(stack.pop()) as scan:
                entries = list(scan)
        except OSError:
            continue
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                if not entry.name.startswith("."):
                    stack.append(entry.path)
            elif entry.name.endswith(".java") and not (
                entry.is_symlink() and os.path.isdir(entry.path)
            ):
                found.append(Path(entry.path))
    return sorted(found)


def load_source_file(path: Path | str) -> SourceFile:
    """Read a file as UTF-8 with its line endings as on disk (text mode ends a line at CR)."""
    text = Path(path).read_bytes().decode("utf-8")
    return SourceFile.from_text(str(path), text)
