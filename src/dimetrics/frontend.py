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

The lexer scans a file once into a ``TokenStream``.  The parser reads its
words through one cursor and records token indices; only a class name or the
failing token gets a position.  Its statement and class body loops and name
tests read words through locals, calling ``_expect`` only to raise.  One loop
per class binds its methods.  Models share one string per distinct name, kept
in the process-wide ``_NAMES``, and one empty frozenset; no value changes.
"""
from __future__ import annotations

import os
import re
import stat
from collections import namedtuple
from collections.abc import Iterable
from pathlib import Path


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


# A parse or resolution problem at a 1-based source position.
Diagnostic = namedtuple("Diagnostic", [
    "path", "line", "column", "message",
    "severity",  # "error" | "warning"
])


class SourceFile(namedtuple("SourceFile", "path text")):
    __slots__ = ()

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        return cls(path, text)


FieldDecl = namedtuple("FieldDecl", [
    "name",
    "type_name",  # declared form, e.g. "Dog" or "Dog[]"
])

# One constructor or method, reduced to what the metrics need.
# ``invoked_methods`` holds (receiver type, method name) pairs resolved by
# local static typing; calls through ``this`` appear with the owning class
# as receiver type.  ``accessed_fields`` holds the unshadowed own fields it
# reads, writes, or calls or reads through: ``x``, ``this.x``, ``x.m()``, ``x.n``.
MethodModel = namedtuple("MethodModel", [
    "name", "is_constructor",
    "param_types",  # tuple of declared types
    "return_type",  # None for constructors and void methods
    "instantiated_types",  # multiset of `new T(...)` targets, a tuple
    "invoked_methods",  # frozenset of (receiver type, method name)
    "accessed_fields",  # frozenset of field names
])

ClassModel = namedtuple("ClassModel", [
    "name", "super_types", "fields", "methods",
    "path",  # the file that declares the class
    "line", "column",  # position of the class name in that file
    "file_line_count",  # LOC of that whole file
    "line_count",  # LOC spanned by this declaration
])


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
# lexical error; without it the scan would retry the failed token at every
# later character, which is quadratic on a long unterminated literal.  Every
# other quantifier is possessive and the block comment is unrolled, so a scan
# never backtracks and is linear in the text.  Because the rest group always
# matches, a backtracking scan would never leave its first path either, so
# the tokens are those of the plain greedy pattern.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]++|//[^\n]*+|/\*[^*]*+\*++(?:[^/*][^*]*+\*++)*+/)*+)"
    r"(?:([A-Za-z_$][A-Za-z0-9_$]*+|[0-9]++(?:\.[0-9]++)?+"
    r"""|"(?:[^"\\\n]|\\[^\n])*+"|'(?:[^'\\\n]|\\[^\n])*+'|[{}()\[\];,.=])|(.*))""",
    re.DOTALL,
)
# A token's first character and _KEYWORDS decide its kind; identifiers and
# numbers are ASCII.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")
_LITERAL_START = frozenset("0123456789\"'")
# Argument lists nested deeper than this fail the file.  The parser recurses
# once per level, so the limit keeps it far below Python's recursion limit.
MAX_EXPRESSION_NESTING = 100


class ParseFailure(Exception):
    """Internal signal carrying the index of the offending token."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class TokenStream:
    """One scan of a text: ``words[i]`` is token i, ``skips[i]`` the text skipped before it.

    The last word is ``""``, at the end of the text or where the lexical
    ``error`` stops the scan."""

    __slots__ = ("text", "skips", "words", "error")

    def __init__(self, text: str, skips: list[str], words: list[str], error: str | None):
        self.text, self.skips, self.words, self.error = text, skips, words, error

    def __len__(self) -> int:
        return len(self.words)

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
    """Scan ``text`` with one ``_TOKEN.split``, which adds ``""``, the skip, the
    token or None and the rest or None for each match.  A lexical error does
    not raise: the stream ends there with its message, and parsing fails there."""
    parts = _TOKEN.split(text)
    # The scan ends with an empty match; after a match without a token (a
    # trailing skip or a lexical error) it is a second end of file.
    end = len(parts) - 4 if len(parts) > 5 and parts[-7] is None else len(parts)
    words = parts[2:end:4]
    words[-1] = ""
    rest = parts[end - 2]
    error = None
    if rest.startswith("/*"):
        error = "unterminated block comment"
    elif rest[:1] in ('"', "'"):
        error = "unterminated string literal" if rest[0] == '"' else "unterminated char literal"
    elif rest:
        error = f"unsupported character {rest[0]!r}"
    return TokenStream(text, parts[1:end:4], words, error)


# ---------------------------------------------------------------------------
# Raw declarations (internal to the frontend); names are token indices
# ---------------------------------------------------------------------------


# params and fields are (declared type, name) pairs; a method is the tuple
# (name, is_constructor, params, return_type, body), its body the uses of
# _Parser._block; line_count is the lines that the class's tokens occupy.
_RawClass = namedtuple("_RawClass", "name super_types fields methods line_count")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The first string seen with each identifier and array type the process has met
# (a word is never an array type), and the one empty set, which models share.
_NAMES: dict[str, str] = {}
_EMPTY: frozenset = frozenset()


class _Parser:
    """A cursor ``_pos`` over ``_words``: code reads the words through locals
    and steps past a word once it has checked it.  The statement and class
    body loops and the name tests call ``_expect`` only to raise, at the
    wrong word.  A keyword or punctuation token is known by its text alone,
    an identifier by ``_NAMES``, to which ``__init__`` adds the file's."""

    __slots__ = ("_tokens", "_words", "_pos", "_nesting", "_uses")

    def __init__(self, tokens: TokenStream):
        if tokens.error:
            raise ParseFailure(len(tokens) - 1, tokens.error)
        self._tokens = tokens
        self._words = words = tokens.words
        new = {w for w in set(words).difference(_NAMES, _KEYWORDS) if w[:1] in _IDENT_START}
        _NAMES.update(zip(new, new))  # unconditional: the calls made do not depend on the past
        self._pos = self._nesting = 0

    def _take(self, text: str) -> bool:
        taken = self._words[self._pos] == text
        self._pos += taken
        return taken

    def _expect(self, text: str, what: str = "") -> int:
        """Step past the token ``text``, or an identifier named ``what``; return its index."""
        index = self._pos
        word = self._words[index]
        if (word in _NAMES if what else word == text):
            self._pos = index + 1
            return index
        raise ParseFailure(index, f"expected {what or repr(text)}, found {word or 'end of file'!r}")

    # declarations --------------------------------------------------------

    def parse_file(self) -> tuple[list[_RawClass], int]:
        """The file's classes and its LOC, the lines that their tokens occupy."""
        classes, line_count, skips = [], 0, self._tokens.skips
        while self._words[self._pos]:
            if classes and "\n" not in skips[self._pos]:  # starts where the last one ends
                line_count -= 1
            classes.append(self._class_decl())
            line_count += classes[-1].line_count
        return classes, line_count

    def _class_decl(self) -> _RawClass:
        words, start = self._words, self._pos
        while words[self._pos] in _MODIFIERS:
            self._pos += 1
        self._expect("class")
        name = self._expect("", "class name")
        supers: list[str] = []
        if self._take("extends"):
            supers.append(_NAMES[words[self._expect("", "superclass name")]])
        if self._take("implements"):
            supers.append(_NAMES[words[self._expect("", "interface name")]])
            while self._take(","):
                supers.append(_NAMES[words[self._expect("", "interface name")]])
        self._expect("{")
        fields: list[tuple[str, int]] = []
        methods: list[tuple] = []
        while words[self._pos] != "}":
            if not words[self._pos]:
                raise ParseFailure(self._pos, "unexpected end of file in class body")
            self._member(words[name], fields, methods)
        self._pos += 1
        line_count = self._tokens.line_count(start, self._pos)
        return _RawClass(name, tuple(supers), tuple(fields), tuple(methods), line_count)

    def _member(self, class_name: str, fields: list[tuple[str, int]], methods: list[tuple]) -> None:
        words, pos = self._words, self._pos
        while words[pos] in _MODIFIERS:
            pos += 1
        if words[pos] == class_name and words[pos + 1] == "(":
            methods.append((pos, True, self._params(pos + 1), None, self._block()))
            return
        is_void = words[pos] == "void"
        self._pos = pos + is_void
        declared = None if is_void else self._type_ref()
        name = self._pos
        if words[name] not in _NAMES:
            self._expect("", "member name")
        word = words[name + 1]
        if word == "(":
            methods.append((name, False, self._params(name + 1), declared, self._block()))
        elif word == ";":
            if is_void:
                raise ParseFailure(name, "a field cannot have type void")
            self._pos = name + 2
            fields.append((declared, name))
        elif word == "=":
            raise ParseFailure(name + 1, "field initializers are not supported")
        else:
            raise ParseFailure(name + 1, f"expected '(' or ';' after member name, found {word!r}")

    def _type_ref(self) -> str:
        name = self._words[self._pos]
        if name not in _NAMES:
            self._expect("", "type name")
        self._pos += 1
        while self._words[self._pos] == "[":
            self._pos += 1
            self._expect("]")
            name += "[]"
            _NAMES.setdefault(name, name)
        return _NAMES[name]

    def _params(self, open_paren: int) -> tuple[tuple[str, int], ...]:
        self._pos = open_paren + 1
        params: list[tuple[str, int]] = []
        if self._words[open_paren + 1] != ")":
            params.append((self._type_ref(), self._expect("", "parameter name")))
            while self._take(","):
                params.append((self._type_ref(), self._expect("", "parameter name")))
        self._expect(")")
        return tuple(params)

    # statements and expressions ------------------------------------------

    def _block(self) -> tuple:
        """Parse a method body into a flat tuple of ``(kind, receiver, name)`` uses.

        ``("new", None, type)``, ``("call", receiver, member)``,
        ``("field", receiver, member)``, ``("name", name, name)`` and
        ``("local", declared_type, name)``, names and receivers as token
        indices; a ``None`` receiver is ``this``, a bare name its own receiver.
        Uses follow the order the binder checks them: pre-order, a local's
        initializer before its declaration, and an assignment's value before
        its target.  The loop reads each statement's own words in place.
        """
        words, idents = self._words, _NAMES
        pos = self._expect("{")
        uses = self._uses = []
        while True:
            self._pos = pos = pos + 1  # past the '{' or the last statement's ';'
            word = words[pos]
            if word == "}":
                self._pos = pos + 1
                return tuple(uses)
            if word == "return":
                self._pos = pos + 1
                if words[pos + 1] != ";":
                    self._expression()
            elif word in idents and (
                words[pos + 1] in idents or (words[pos + 1] == "[" and words[pos + 2] == "]")
            ):
                dtype = self._type_ref()
                name = self._expect("", "variable name")
                if words[name + 1] == "=":
                    self._pos = name + 2
                    self._expression()
                uses.append(("local", dtype, name))
            elif word in idents or word in ("this", "new"):
                kind = self._expression()
                pos = self._pos
                if words[pos] == "=":
                    if kind not in ("name", "field"):
                        raise ParseFailure(pos, "invalid assignment target")
                    target = uses.pop()
                    self._pos = pos + 1
                    self._expression()
                    uses.append(target)
                elif kind not in ("call", "new") and words[pos] == ";":
                    message = "only method calls and object creations can stand alone as statements"
                    raise ParseFailure(pos, message)
            elif not word:
                raise ParseFailure(pos, "unexpected end of file in method body")
            else:
                raise ParseFailure(pos, f"expected statement, found {word!r}")
            pos = self._pos
            if words[pos] != ";":
                self._expect(";")

    def _expression(self) -> str:
        """Parse one expression, record its uses and return its kind."""
        words = self._words
        index = self._pos
        word = words[index]
        self._pos = index + 1
        if word == "new":
            self._uses.append(("new", None, self._expect("", "type name")))
            self._arguments()
            return "new"
        if word == "this":
            receiver = None
        elif word in _NAMES:
            if words[index + 1] == "(":
                reason = "is not supported (use an explicit receiver)"
                raise ParseFailure(index, f"unqualified call to {word!r} {reason}")
            receiver = index
        elif word[:1] in _LITERAL_START or word in ("true", "false", "null"):
            return "literal"
        else:
            raise ParseFailure(index, f"expected expression, found {word or 'end of file'!r}")
        if words[index + 1] != ".":
            if receiver is None:
                return "this"
            self._uses.append(("name", receiver, receiver))
            return "name"
        self._pos = member = index + 2
        if words[member] not in _NAMES:
            self._expect("", "member name")
        self._pos = member + 1
        kind = "call" if words[member + 1] == "(" else "field"
        self._uses.append((kind, receiver, member))
        if kind == "call":
            self._arguments()
        return kind

    def _arguments(self) -> None:
        open_paren = self._expect("(")
        self._nesting += 1
        if self._nesting > MAX_EXPRESSION_NESTING:
            message = f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep"
            raise ParseFailure(open_paren, message)
        if not self._take(")"):
            self._expression()
            while self._take(","):
                self._expression()
            self._expect(")")
        self._nesting -= 1


# ---------------------------------------------------------------------------
# Binder: raw syntax -> immutable models
# ---------------------------------------------------------------------------


def _bind_class(
    raw: _RawClass, words: list[str], path: str, position: tuple[int, int], file_loc: int
) -> ClassModel:
    """Bind a parsed class to its model, every name as its ``_NAMES`` string.  One
    loop binds each method: its parameters and locals form one scope, and each
    use resolves against that scope, then against the class's fields and methods."""
    field_types: dict[str, str] = {}
    for ftype, findex in raw.fields:
        if words[findex] in field_types:
            raise ParseFailure(findex, f"duplicate field {words[findex]!r}")
        field_types[_NAMES[words[findex]]] = ftype
    own_members = {words[method[0]] for method in raw.methods}
    class_name = _NAMES[words[raw.name]]
    methods = []
    for method, is_constructor, params, return_type, body in raw.methods:
        scope: dict[str, str] = {}  # parameters, then locals as they are declared
        for ptype, pindex in params:
            if words[pindex] in scope:
                raise ParseFailure(pindex, f"duplicate parameter {words[pindex]!r}")
            scope[words[pindex]] = ptype
        accessed: set[str] = set()
        invoked: set[tuple[str, str]] = set()
        created: list[str] = []
        for kind, receiver, index in body:
            name = _NAMES[words[index]]
            if kind == "new":
                created.append(name)
            elif kind == "local":
                if name in scope:
                    raise ParseFailure(index, f"duplicate variable {name!r}")
                scope[name] = receiver
            elif receiver is not None:  # a bare name, or a foreign member (left unchecked)
                receiver_name = words[receiver]
                receiver_type = scope.get(receiver_name)
                if receiver_type is None:
                    receiver_type = field_types.get(receiver_name)
                    if receiver_type is None:
                        raise ParseFailure(receiver, f"unknown name {receiver_name!r}")
                    accessed.add(_NAMES[receiver_name])
                if kind == "call":
                    invoked.add((_NAMES[base_type_name(receiver_type)], name))
            elif kind == "call":  # a method of this
                if name not in own_members:
                    raise ParseFailure(index, f"unknown method {name!r}")
                invoked.add((class_name, name))
            elif name not in field_types:  # a field of this
                raise ParseFailure(index, f"unknown field {name!r}")
            else:
                accessed.add(name)
        methods.append(MethodModel(
            _NAMES[words[method]], is_constructor,
            tuple([ptype for ptype, _ in params]) if params else (), return_type,
            tuple(created) if created else (), frozenset(invoked) if invoked else _EMPTY,
            frozenset(accessed) if accessed else _EMPTY,
        ))
    fields = tuple([FieldDecl(name, ftype) for name, ftype in field_types.items()])
    return ClassModel(
        class_name, raw.super_types, fields, tuple(methods),
        path, position[0], position[1], file_loc, raw.line_count,
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
        raws, file_line_count = _Parser(tokens).parse_file()
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
) -> tuple[tuple[ClassModel, ...] | None, list[Diagnostic]]:
    """Combine parsed classes into a project, the tuple of its classes in
    name order, rejecting duplicate names in the order the classes come."""
    seen: dict[str, ClassModel] = {}
    diagnostics: list[Diagnostic] = []
    for model in models:
        first = seen.get(model.name)
        if first is not None:
            message = f"duplicate class {model.name!r} (also declared in {first.path})"
            diagnostics.append(Diagnostic(model.path, model.line, model.column, message, "error"))
        else:
            seen[model.name] = model
    if diagnostics:
        return None, diagnostics
    return tuple(seen[name] for name in sorted(seen)), []


def discover_source_files(root: Path | str) -> list[Path]:
    """All ``.java`` files under ``root``, skipping hidden directories.

    As in ``os.walk``, a symlinked directory is neither entered nor a file,
    but an explicit stack bounds no depth.  A directory that cannot be read
    raises its ``OSError``.
    """
    found: list[Path] = []
    stack = [os.fspath(root)]
    while stack:
        with os.scandir(stack.pop()) as entries:
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
    if not stat.S_ISREG(os.stat(path).st_mode):  # a FIFO blocks the open, a device may never end
        raise OSError("not a regular file")
    with open(path, "rb") as file:
        text = file.read().decode("utf-8")
    return SourceFile.from_text(str(path), text)
