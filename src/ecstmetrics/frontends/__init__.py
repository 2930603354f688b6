"""Language frontends, source text to eCST: one module per language
holds its parser, with its LexerSpec as SPEC.  FRONTENDS maps a
language id to that parser class."""

from __future__ import annotations

import re

from .. import scan as _scan
from ..errors import LexError, SourceIoError, UnsupportedLanguageError
from ..tree import EcstTree, SourceSpan, Token
from .java import JavaParser
from .modula2 import Modula2Parser

FRONTENDS = {
    "modula2": Modula2Parser,
    "javaoo": JavaParser,
}

# A character outside XML 1.0's Char production, which tree XML cannot
# carry: the explicit set compiles ten times faster than the negated range.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _frontend(language_id: str):
    """The parser class, with its SPEC, for a language id."""
    parser_cls = FRONTENDS.get(language_id)
    if parser_cls is None:
        raise UnsupportedLanguageError(f"no frontend for language {language_id!r}")
    return parser_cls


def _unix_newlines(source: str) -> str:
    """The one line-break rule: "\\r\\n" and "\\r" are read as "\\n"."""
    return source.replace("\r\n", "\n").replace("\r", "\n")


def lex(source: str, language_id: str) -> list[Token]:
    """Tokenize source text; comments kept, whitespace dropped.

    Spans are 1-based and inclusive.  Raises LexError on unlexable
    input and UnsupportedLanguageError for unknown language ids.
    """
    return _scan.scan(_unix_newlines(source), _frontend(language_id).SPEC)


def count_physical_lines(source: str) -> int:
    """Physical line count of a source text, at least 1.

    A line ends at "\\n" once line breaks are read as lex reads them; a
    final line break starts no new line.
    """
    text = _unix_newlines(source)
    return text.count("\n") + (not text.endswith("\n"))


def _span_at(text: str, at: int) -> SourceSpan:
    """The span of the character at index at of text, whose line breaks
    are read already."""
    line = text.count("\n", 0, at) + 1
    col = at - text.rfind("\n", 0, at)
    return SourceSpan(line, col, line, col)


def _check_xml_chars(text: str) -> None:
    """Raise LexError at the first character tree XML cannot store.

    Called once lex has accepted the text, whose line breaks are read
    already: the scanner rejects any such character outside a comment
    or string, so the first one in the text is the one to report.
    """
    m = _NOT_XML_CHAR.search(text)
    if m is not None:
        raise LexError(
            f"character {m.group()!r} cannot be stored in tree XML",
            span=_span_at(text, m.start()),
        )


def parse_source(source: str, language_id: str, source_path: str = "<string>") -> EcstTree:
    """Lex and parse source text into an eCST."""
    parser_cls = _frontend(language_id)
    bad = _NOT_XML_CHAR.search(source_path)
    if bad is not None:
        raise SourceIoError(
            f"character {bad.group()!r} in the file name cannot be stored in tree XML"
        )
    # One copy with the line breaks read: lex and count_physical_lines
    # find no "\r" in it, and str.replace returns such a text itself.
    text = _unix_newlines(source)
    parser = parser_cls(lex(text, language_id), language_id, source_path)
    _check_xml_chars(text)
    return parser.build_tree(count_physical_lines(text))


def _read_source(path) -> str:
    """A source file's text, decoded from its bytes as UTF-8 with its
    line breaks read; SourceIoError at the first byte that is not UTF-8,
    with the line and column lex would give a character there.  The
    bytes are freed on return, before any parsing."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
    try:
        return _unix_newlines(data.decode())
    except UnicodeDecodeError as e:
        before = _unix_newlines(data[: e.start].decode())
        raise SourceIoError(
            f"cannot decode {path}: {e.reason}", span=_span_at(before, len(before))
        ) from e


def parse_file(path, language_id: str) -> EcstTree:
    """Read a source file and parse it into an eCST."""
    return parse_source(_read_source(path), language_id, source_path=str(path))


__all__ = ["FRONTENDS", "count_physical_lines", "lex", "parse_source", "parse_file"]
