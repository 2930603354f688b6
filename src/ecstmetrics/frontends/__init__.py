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


def _check_xml_chars(text: str) -> None:
    """Raise LexError at the first character tree XML cannot store.

    Called once lex has accepted the text, whose line breaks are read
    already: the scanner rejects any such character outside a comment
    or string, so the first one in the text is the one to report.
    """
    m = _NOT_XML_CHAR.search(text)
    if m is None:
        return
    at = m.start()
    line = text.count("\n", 0, at) + 1
    col = at - text.rfind("\n", 0, at)
    raise LexError(
        f"character {m.group()!r} cannot be stored in tree XML",
        span=SourceSpan(line, col, line, col),
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


def parse_file(path, language_id: str) -> EcstTree:
    """Read a source file and parse it into an eCST."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            source = f.read()
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise SourceIoError(f"cannot decode {path}: {e.reason}") from e
    return parse_source(source, language_id, source_path=str(path))


__all__ = ["FRONTENDS", "count_physical_lines", "lex", "parse_source", "parse_file"]
