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

The lexer scans a file once into a ``TokenStream``.  The parser is a function
per grammar rule that recurses or repeats, passed the words and the index where
its rule starts, which returns the index after it: all its state is arguments
and locals.  It records token indices; only a class name or the failing token
gets a position.  Of a method's uses it keeps only those the class must
resolve, for it knows the method's scope: its parameters and the locals declared
so far.  One loop per class binds them: a method's model takes its declared
types, its ``new`` targets and the sets of calls and fields its uses name, each
model built as ``namedtuple._make`` builds it.  Models share one string per
distinct name, kept in the process-wide ``_NAMES``, and one empty frozenset; no
value changes.
"""
from __future__ import annotations

import os
import re
import stat
from collections import namedtuple
from collections.abc import Iterable
from operator import methodcaller
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


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_MODIFIERS = frozenset({"public", "private", "protected", "static", "final"})
_KEYWORDS = _MODIFIERS.union(
    "class extends implements new return this void true false null".split()
)
# The token table of docs/grammar.md, which explains both patterns.
_WORD = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*+|[{}()\[\];,.=]|[0-9]++(?:\.[0-9]++)?+"
    r"""|"(?:[^"\\\n]++|\\[^\n])*+"|'(?:[^'\\\n]++|\\[^\n])*+'"""
)
_TOKEN = re.compile(
    r"([ \t\r\n]*+(?:(?://[^\n]*+|/\*[^*]*+\*++(?:[^/*][^*]*+\*++)*+/)[ \t\r\n]*+)*+)"
    rf"({_WORD.pattern}|(?s:.*+))"
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


def tokenize(text: str) -> TokenStream:
    """Scan ``text`` with one ``_TOKEN.split``: ``""``, skip and word per match, the last
    match empty.  Unless the word before that is a token, its match ends the file: ``""``
    after a trailing skip, or the rest at a lexical error, where the stream stops with it."""
    parts = _TOKEN.split(text)
    end = len(parts) - 3 if text and not _WORD.fullmatch(parts[-5]) else len(parts)
    words = parts[2:end:3]
    rest, words[-1] = words[-1], ""
    error = None
    if rest.startswith("/*"):
        error = "unterminated block comment"
    elif rest[:1] in ('"', "'"):
        error = "unterminated string literal" if rest[0] == '"' else "unterminated char literal"
    elif rest:
        error = f"unsupported character {rest[0]!r}"
    return TokenStream(text, parts[1:end:3], words, error)


# ---------------------------------------------------------------------------
# Raw declarations (internal to the frontend); names are token indices
# ---------------------------------------------------------------------------


# fields are (declared type, element type, name) triples; a method is the tuple
# (name, is_constructor, param types, return_type, uses), its uses those of
# _block; line_count is the lines that the class's tokens occupy.
_RawClass = namedtuple("_RawClass", "name super_types fields methods line_count")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The first string seen with each identifier and array type the process has met
# (a word is never an array type), and the one empty set, which models share.
_NAMES: dict[str, str] = {}
_EMPTY: frozenset = frozenset()

# Below _file, a rule's function returns the index after its rule with what its
# docstring names.  A keyword or punctuation token is known by its text alone,
# an identifier by _NAMES, to which _file adds the file's.


def _expected(words: list[str], index: int, what: str) -> ParseFailure:
    """The failure at token ``index``, where ``what`` should have stood."""
    return ParseFailure(index, f"expected {what}, found {words[index] or 'end of file'!r}")


def _file(tokens: TokenStream) -> tuple[list[_RawClass], int]:
    """The file's classes and its LOC, the lines that their tokens occupy."""
    if tokens.error:
        raise ParseFailure(len(tokens) - 1, tokens.error)
    words, skips = tokens.words, tokens.skips
    new = {w for w in set(words).difference(_NAMES, _KEYWORDS) if w[:1] in _IDENT_START}
    _NAMES.update(zip(new, new))  # unconditional: the calls made do not depend on the past
    classes, line_count, index = [], 0, 0
    while words[index]:  # no token spans a line: one starts a line iff its skip holds a \n
        if classes and "\n" not in skips[index]:  # starts where the last one ends
            line_count -= 1
        end, parts = _class_decl(words, index)
        classes.append(_RawClass(*parts, len([s for s in skips[index + 1 : end] if "\n" in s]) + 1))
        line_count += classes[-1].line_count
        index = end
    return classes, line_count


def _class_decl(words: list[str], index: int) -> tuple[int, tuple]:
    """``class_decl``: its name's index, super types, fields and methods.  The
    body loop parses each ``member`` in place, and a type with no ``[]`` too."""
    while words[index] in _MODIFIERS:
        index += 1
    if words[index] != "class":
        raise _expected(words, index, "'class'")
    name = index + 1
    if words[name] not in _NAMES:
        raise _expected(words, name, "class name")
    index = name + 1
    supers: list[str] = []
    for keyword, what in (("extends", "superclass name"), ("implements", "interface name")):
        separator = keyword
        while words[index] == separator:
            if words[index + 1] not in _NAMES:
                raise _expected(words, index + 1, what)
            supers.append(_NAMES[words[index + 1]])
            index, separator = index + 2, "," if keyword == "implements" else None
    if words[index] != "{":
        raise _expected(words, index, "'{'")
    class_name, fields, methods = words[name], [], []
    index += 1
    while words[index] != "}":
        if not words[index]:
            raise ParseFailure(index, "unexpected end of file in class body")
        while words[index] in _MODIFIERS:
            index += 1
        word = words[index]
        is_constructor = word == class_name and words[index + 1] == "("
        if is_constructor or word == "void":
            member, declared = index + (word == "void"), None
        elif word in _NAMES and words[index + 1] != "[":
            member, declared = index + 1, _NAMES[word]
        else:
            member, declared = _type(words, index)
        if words[member] not in _NAMES:
            raise _expected(words, member, "member name")
        word = words[member + 1]
        if word == "(":
            scope, uses = {}, []
            if words[member + 2] == ")":
                index, params = member + 3, ()
            else:
                index, params = _params(words, member + 1, scope, uses)
            index = _block(words, index, scope, uses)
            methods.append((member, is_constructor, params, declared, uses))
        elif word == ";" and declared is not None:
            fields.append((declared, _NAMES[words[index]], member))
            index = member + 2
        elif word == ";":
            raise ParseFailure(member, "a field cannot have type void")
        elif word == "=":
            raise ParseFailure(member + 1, "field initializers are not supported")
        else:
            raise ParseFailure(member + 1, f"expected '(' or ';' after member name, found {word!r}")
    return index + 1, (name, tuple(supers), tuple(fields), tuple(methods))


def _type(words: list[str], index: int) -> tuple[int, str]:
    """``type``: its ``_NAMES`` string."""
    name = words[index]
    if name not in _NAMES:
        raise _expected(words, index, "type name")
    index += 1
    while words[index] == "[":
        if words[index + 1] != "]":
            raise _expected(words, index + 1, "']'")
        index, name = index + 2, name + "[]"
        _NAMES.setdefault(name, name)
    return index, _NAMES[name]


def _params(words: list[str], index: int, scope: dict, uses: list) -> tuple[int, tuple[str, ...]]:
    """``'(' params ')'``: the declared types.  Each name enters ``scope`` with
    its type's element name, a repeated one adding its error to ``uses``."""
    types: list[str] = []
    separator = "("
    while words[index] == separator:
        index, declared = _type(words, start := index + 1)
        name = words[index]
        if name not in _NAMES:
            raise _expected(words, index, "parameter name")
        if name in scope:
            uses.append((f"duplicate parameter {name!r}", None, index))
        scope[name] = _NAMES[words[start]]
        types.append(declared)
        index, separator = index + 1, ","
    if words[index] != ")":
        raise _expected(words, index, "')'")
    return index + 1, tuple(types)


def _block(words: list[str], index: int, scope: dict, uses: list) -> int:
    """``block``: each local enters ``scope`` after its initializer.  ``uses`` gains,
    pre-order with an assignment's value before its target, ``("new", None, type)``,
    ``("call" or "field", receiver, member)``, ``("name", name, name)`` (a None
    receiver is ``this``), ``("typed", element type, member)`` for a call through a
    name in scope, and a repeated local's ``(error, None, name)``.  The loop parses
    each ``statement``, and a name in scope before a ``;``, in place."""
    if words[index] != "{":
        raise _expected(words, index, "'{'")
    while True:
        index += 1  # past the '{' or the last statement's ';'
        word = words[index]
        if word == "}":
            return index + 1
        if word == "return":
            index += 1
            if words[index] in scope and words[index + 1] == ";":
                index += 1
            elif words[index] != ";":
                index = _expression(words, index, scope, uses, 0)[0]
        elif word in _NAMES and (
            words[index + 1] in _NAMES or (words[index + 1] == "[" and words[index + 2] == "]")
        ):
            name = _type(words, index)[0] if words[index + 1] == "[" else index + 1
            if words[name] not in _NAMES:
                raise _expected(words, name, "variable name")
            index = name + 1
            if words[index] == "=":
                index = _expression(words, index + 1, scope, uses, 0)[0]
            if words[name] in scope:
                uses.append((f"duplicate variable {words[name]!r}", None, name))
            scope[words[name]] = _NAMES[word]
        elif word in _NAMES or word in ("this", "new"):
            index, kind = _expression(words, index, scope, uses, 0)
            if words[index] == "=":
                if kind not in ("name", "field", "local"):
                    raise ParseFailure(index, "invalid assignment target")
                target = [uses.pop()] if kind != "local" else []
                if words[index + 1] in scope and words[index + 2] == ";":
                    index += 2
                else:
                    index = _expression(words, index + 1, scope, uses, 0)[0]
                uses += target
            elif kind not in ("call", "new") and words[index] == ";":
                message = "only method calls and object creations can stand alone as statements"
                raise ParseFailure(index, message)
        elif not word:
            raise ParseFailure(index, "unexpected end of file in method body")
        else:
            raise ParseFailure(index, f"expected statement, found {word!r}")
        if words[index] != ";":
            raise _expected(words, index, "';'")


def _expression(words: list[str], index: int, scope: dict, uses: list,
                nesting: int) -> tuple[int, str]:
    """``expression`` inside ``nesting`` argument lists: its kind, after it
    appends its uses, ``"local"`` for a name in scope or a field read through
    one.  Each alternative is parsed in place."""
    word = words[index]
    if word == "new":
        if words[index + 1] not in _NAMES:
            raise _expected(words, index + 1, "type name")
        if words[index + 2] != "(":
            raise _expected(words, index + 2, "'('")
        uses.append(("new", None, index + 1))
        return _args(words, index + 2, scope, uses, nesting + 1), "new"
    if word == "this":
        receiver = None
    elif word in _NAMES:
        if words[index + 1] == "(":
            reason = "is not supported (use an explicit receiver)"
            raise ParseFailure(index, f"unqualified call to {word!r} {reason}")
        receiver = index
    elif word[:1] in _LITERAL_START or word in ("true", "false", "null"):
        return index + 1, "literal"
    else:
        raise _expected(words, index, "expression")
    if words[index + 1] != ".":
        if receiver is None:
            return index + 1, "this"
        if word in scope:
            return index + 1, "local"
        uses.append(("name", receiver, receiver))
        return index + 1, "name"
    member = index + 2
    if words[member] not in _NAMES:
        raise _expected(words, member, "member name")
    if words[member + 1] == "(":  # ``this`` is a keyword, never in scope
        uses.append(("typed", scope[word], member) if word in scope else ("call", receiver, member))
        return _args(words, member + 1, scope, uses, nesting + 1), "call"
    if word in scope:
        return member + 1, "local"
    uses.append(("field", receiver, member))
    return member + 1, "field"


def _args(words: list[str], index: int, scope: dict, uses: list, nesting: int) -> int:
    """``'(' args? ')'`` as the ``nesting``-th list in: it appends the uses of
    its arguments, so it returns only the index after its ``)``."""
    if nesting > MAX_EXPRESSION_NESTING:
        raise ParseFailure(index, f"argument lists nested more than {MAX_EXPRESSION_NESTING} deep")
    if words[index + 1] == ")":
        return index + 2
    separator = "("
    while words[index] == separator:
        index = _expression(words, index + 1, scope, uses, nesting)[0]
        separator = ","
    if words[index] != ")":
        raise _expected(words, index, "')'")
    return index + 1


# ---------------------------------------------------------------------------
# Binder: raw syntax -> immutable models
# ---------------------------------------------------------------------------


def _bind_class(
    raw: _RawClass, words: list[str], path: str, position: tuple[int, int], file_loc: int
) -> ClassModel:
    """Bind a parsed class to its model, every name as its ``_NAMES`` string and
    each record built as ``namedtuple._make`` builds it.  One loop binds each
    method: it checks each use against the class's fields and methods."""
    names, new = _NAMES, tuple.__new__
    field_types: dict[str, str] = {}  # each field's element type
    for _, element, findex in raw.fields:
        if words[findex] in field_types:
            raise ParseFailure(findex, f"duplicate field {words[findex]!r}")
        field_types[names[words[findex]]] = element
    own_members = {words[method[0]] for method in raw.methods}
    class_name = names[words[raw.name]]
    methods = []
    for method, is_constructor, params, return_type, uses in raw.methods:
        accessed, invoked, created = set(), set(), []
        for kind, receiver, index in uses:
            name = names[words[index]]
            if receiver is None:  # this's field or method, a new object, or an error
                if kind == "field":
                    if name not in field_types:
                        raise ParseFailure(index, f"unknown field {name!r}")
                    accessed.add(name)
                elif kind == "call":
                    if name not in own_members:
                        raise ParseFailure(index, f"unknown method {name!r}")
                    invoked.add((class_name, name))
                elif kind == "new":
                    created.append(name)
                else:
                    raise ParseFailure(index, kind)
            elif kind == "typed":
                invoked.add((receiver, name))
            else:  # a bare name, or a foreign member (left unchecked) through one
                receiver_name = words[receiver]
                receiver_type = field_types.get(receiver_name)
                if receiver_type is None:
                    raise ParseFailure(receiver, f"unknown name {receiver_name!r}")
                accessed.add(names[receiver_name])
                if kind == "call":
                    invoked.add((receiver_type, name))
        methods.append(new(MethodModel, (
            names[words[method]], is_constructor, params, return_type,
            tuple(created) if created else (), frozenset(invoked) if invoked else _EMPTY,
            frozenset(accessed) if accessed else _EMPTY,
        )))
    fields = tuple([new(FieldDecl, (names[words[i]], declared)) for declared, _, i in raw.fields])
    return new(ClassModel, (class_name, raw.super_types, fields, tuple(methods), path, *position,
                            file_loc, raw.line_count))


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
        raws, file_line_count = _file(tokens)
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
    """All ``.java`` files under ``root``, sorted by their parts, skipping hidden directories.

    As in ``os.walk``, a symlinked directory is neither entered nor a file,
    but an explicit stack bounds no depth.  A directory that cannot be read
    raises its ``OSError``.
    """
    found: list[str] = []
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
                    found.append(entry.path)
    return [Path(path) for path in sorted(found, key=methodcaller("split", os.sep))]


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # Windows: no CRLF translation


def load_source_file(path: Path | str) -> SourceFile:
    """Read a regular file to its end in raw reads, as UTF-8 with its line endings as on disk."""
    path = os.fspath(path)
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):  # a FIFO blocks the open, a device may never end
        raise OSError("not a regular file")
    fd = os.open(path, _READ_FLAGS)
    try:
        data = os.read(fd, info.st_size + 1)  # Linux reads at most 0x7ffff000 bytes at once
        if len(data) != info.st_size:  # a short read, or the file grew or shrank after the stat
            data += b"".join(iter(lambda: os.read(fd, 1 << 20), b""))
    finally:
        os.close(fd)
    return SourceFile.from_text(path, data.decode("utf-8"))
