"""Tokenization: turns source text into classified tokens.

Each token gets one of the six token types (keyword, identifier,
literal, operator, punctuation, comment) according to the per-language
configuration below; the scan module does the work in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scan as _scan
from .errors import UnsupportedLanguageError
from .scan import Token


@dataclass(frozen=True)
class LexerSpec:
    """Everything the scanner and classifier need for one language."""

    keywords: frozenset
    operator_words: frozenset  # word-shaped operators such as DIV or AND
    literal_words: frozenset  # word-shaped literals such as true/false
    two_char_ops: frozenset
    single_chars: str
    punctuation: frozenset  # symbol lexemes that are punctuation, not operators
    line_comment: str
    block_open: str
    block_close: str
    nested_blocks: bool
    string_escapes: bool


MODULA2_SPEC = LexerSpec(
    keywords=frozenset(
        """MODULE BEGIN END PROCEDURE VAR CONST TYPE IF THEN ELSIF ELSE
           WHILE DO REPEAT UNTIL FOR TO BY OF ARRAY RETURN IMPORT FROM
           EXPORT""".split()
    ),
    operator_words=frozenset({"AND", "OR", "NOT", "DIV", "MOD"}),
    literal_words=frozenset(),
    two_char_ops=frozenset({":=", "<=", ">=", "<>", ".."}),
    single_chars="+-*/=#<>&()[],;:.",
    punctuation=frozenset({"(", ")", "[", "]", ",", ";", ":", "."}),
    line_comment="",
    block_open="(*",
    block_close="*)",
    nested_blocks=True,
    string_escapes=False,
)

JAVA_SPEC = LexerSpec(
    keywords=frozenset(
        """class public private protected static final void int long short
           byte char boolean float double if else while do for return new
           break continue""".split()
    ),
    operator_words=frozenset(),
    literal_words=frozenset({"true", "false", "null"}),
    two_char_ops=frozenset(
        {"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%="}
    ),
    single_chars="+-*/%=<>!()[]{},;.",
    punctuation=frozenset({"(", ")", "[", "]", "{", "}", ",", ";", "."}),
    line_comment="//",
    block_open="/*",
    block_close="*/",
    nested_blocks=False,
    string_escapes=True,
)

LEXER_SPECS = {
    "modula2": MODULA2_SPEC,
    "javaoo": JAVA_SPEC,
}


def lex(source: str, language_id: str) -> list[Token]:
    """Tokenize source text; comments kept, whitespace dropped.

    Spans are 1-based and inclusive.  Raises LexError on unlexable
    input and UnsupportedLanguageError for unknown language ids.
    """
    spec = LEXER_SPECS.get(language_id)
    if spec is None:
        raise UnsupportedLanguageError(f"no lexer for language {language_id!r}")
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    return _scan.scan(text, spec)


def count_physical_lines(source: str) -> int:
    """Physical line count of a source text, at least 1.

    A line ends at "\\n" once "\\r\\n" and "\\r" are read as "\\n", as
    the lexer does; a final line break starts no new line.
    """
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    return text.count("\n") + (not text.endswith("\n"))
