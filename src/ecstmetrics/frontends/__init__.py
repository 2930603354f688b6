"""Language frontends: token stream to eCST."""

from __future__ import annotations

import re

from ..errors import LexError, SourceIoError, UnsupportedLanguageError
from ..lexer import count_physical_lines, lex
from ..tree import EcstNode, EcstTree, SourceSpan
from .java import JavaParser
from .modula2 import Modula2Parser

FRONTENDS = {
    "modula2": Modula2Parser,
    "javaoo": JavaParser,
}

# A character outside XML 1.0's Char production, which tree XML cannot carry.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _check_xml_chars(source: str, tokens: list[EcstNode]) -> None:
    """Raise LexError at the first character tree XML cannot store.

    The scanner rejects any such character outside a comment or string,
    so a lexeme holds each one the source has.
    """
    if _NOT_XML_CHAR.search(source) is None:
        return
    for tok in tokens:
        m = _NOT_XML_CHAR.search(tok.label)
        if m is None:
            continue
        before = tok.label[: m.start()]
        line = tok.span.start_line + before.count("\n")
        newline = before.rfind("\n")
        col = m.start() - newline if newline >= 0 else tok.span.start_col + m.start()
        raise LexError(
            f"character {m.group()!r} cannot be stored in tree XML",
            span=SourceSpan(line, col, line, col),
        )


def parse_source(source: str, language_id: str, source_path: str = "<string>") -> EcstTree:
    """Lex and parse source text into an eCST."""
    parser_cls = FRONTENDS.get(language_id)
    if parser_cls is None:
        raise UnsupportedLanguageError(f"no frontend for language {language_id!r}")
    bad = _NOT_XML_CHAR.search(source_path)
    if bad is not None:
        raise SourceIoError(
            f"character {bad.group()!r} in the file name cannot be stored in tree XML"
        )
    tokens = lex(source, language_id)
    _check_xml_chars(source, tokens)
    parser = parser_cls(tokens, language_id, source_path)
    return parser.build_tree(count_physical_lines(source))


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


__all__ = ["FRONTENDS", "parse_source", "parse_file"]
