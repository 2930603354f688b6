"""Scanning and token classification in one pass.

A LexerSpec holds one language's lexical rules; each language's parser
keeps its own as SPEC.  One compiled pattern per spec splits the text
into tokens; each match is classified by the spec and becomes a token,
the plain tuple the tree keeps, with its 1-based, inclusive position in
its last four items; only a LexError's span is a SourceSpan.
Blanks ride with the match before them: every match takes the blanks
after it, and a line break takes the next line's indentation, so the
loop turns once per token and once per line.  The pattern matches only
a block comment's opener; a str.find loop then finds the closer,
because Modula-2 comments nest.  Tokens of one word, symbol or literal
share one str, found through the same tables that give its type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import LexError
from .tree import SourceSpan, Token

#: The scanner implementation, named in benchmark reports.
KERNEL = "python"


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


def _string(quote: str, escapes: bool) -> str:
    """A one-line string literal; with escapes a backslash protects the
    next character unless that is a line break."""
    if escapes:
        return rf"{quote}(?:[^{quote}\\\n]|\\[^\n])*{quote}"
    return rf"{quote}[^{quote}\n]*{quote}"


@lru_cache(maxsize=None)
def _compile(spec):
    """The match function and classification tables for one LexerSpec."""
    # The common kinds come first; a comment opener must precede the
    # symbol it starts with.
    groups = [r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"]
    if spec.line_comment:
        groups.append(rf"(?P<line_comment>{re.escape(spec.line_comment)}[^\n]*)")
    if spec.block_open:
        groups.append(rf"(?P<block_comment>{re.escape(spec.block_open)})")
    # two-character operators first, so "<=" is not read as "<" then "="
    symbols = [re.escape(op) for op in sorted(spec.two_char_ops)]
    symbols.append("[" + "".join(re.escape(c) for c in spec.single_chars) + "]")
    groups.append("(?P<symbol>" + "|".join(symbols) + ")")
    strings = _string('"', spec.string_escapes) + "|" + _string("'", spec.string_escapes)
    groups += [
        # a line break takes the next line's indentation along
        r"(?P<newline>\n[ \t\r]*)",
        # a decimal point only when a digit follows keeps ".." a symbol
        r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
        f"(?P<string>{strings})",
        r"""(?P<quote>["'])""",
        # blanks at the start of the text or after a block comment
        r"(?P<space>[ \t\r]+)",
    ]

    # Each table maps a lexeme to (its one str, its type), so every token
    # of that lexeme shares the str.  Later updates win: a keyword beats
    # an operator word beats a literal word.
    word_types = {word: (word, "literal") for word in spec.literal_words}
    word_types.update({word: (word, "operator") for word in spec.operator_words})
    word_types.update({word: (word, "keyword") for word in spec.keywords})
    symbol_types = {
        symbol: (symbol, "punctuation" if symbol in spec.punctuation else "operator")
        for symbol in (*spec.two_char_ops, *spec.single_chars)
    }
    pattern = "(?:" + "|".join(groups) + r")[ \t\r]*"
    return re.compile(pattern).match, word_types, symbol_types


def _block_comment_end(text: str, pos: int, spec) -> int:
    """Offset just past the block comment whose opener ends at pos, or -1
    when the comment is not closed."""
    opener, closer = spec.block_open, spec.block_close
    depth = 1
    while True:
        close = text.find(closer, pos)
        if close < 0:
            return -1
        if spec.nested_blocks:
            # An opener counts when it starts before the closer, even when
            # the two overlap as in "(*)".
            inner = text.find(opener, pos, close + len(opener) - 1)
            if inner >= 0:
                depth += 1
                pos = inner + len(opener)
                continue
        depth -= 1
        pos = close + len(closer)
        if depth == 0:
            return pos


def _error(message: str, line: int, col: int) -> LexError:
    return LexError(message, span=SourceSpan(line, col, line, col))


def scan(text: str, spec: LexerSpec) -> list[Token]:
    """Tokenize text by spec; comments kept, whitespace dropped.

    Newlines must already be normalized to "\\n".  Each token is the
    tuple (label, token_type, start_line, start_col, end_line, end_col),
    its position 1-based and inclusive.  Raises LexError, whose
    SourceSpan is the position of the offending character or of the
    opener of an unterminated literal or comment.
    """
    match, word_types, symbol_types = _compile(spec)
    # The word table, which takes each new identifier, number and string
    # literal at its first token; a comment is seldom repeated and keeps
    # its own str.
    labels = dict(word_types)
    tokens = []
    append = tokens.append
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    n = len(text)
    while pos < n:
        m = match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise _error(f"unrecognized character {text[pos]!r}", line, col)
        kind = m.lastgroup
        if kind == "word":
            lexeme = m[kind]
            entry = labels.get(lexeme)
            if entry is None:
                entry = labels[lexeme] = (lexeme, "identifier")
            lexeme, token_type = entry
        elif kind == "symbol":
            lexeme, token_type = symbol_types[m[kind]]
        elif kind == "newline":
            line += 1
            line_start = pos + 1
            pos = m.end()
            continue
        elif kind == "block_comment":
            # the opener's own end: blanks after it belong to the comment
            end = _block_comment_end(text, m.end(kind), spec)
            if end < 0:
                raise _error("unterminated block comment", line, col)
            start_line = line
            breaks = text.count("\n", pos, end)
            if breaks:
                line += breaks
                line_start = text.rfind("\n", pos, end) + 1
            append((text[pos:end], "comment", start_line, col, line, end - line_start))
            pos = end
            continue
        elif kind == "space":
            pos = m.end()
            continue
        elif kind == "quote":
            raise _error("unterminated string literal", line, col)
        elif kind == "line_comment":
            lexeme = m[kind]
            token_type = "comment"
        else:  # a number or a string literal
            lexeme = m[kind]
            entry = labels.get(lexeme)
            if entry is None:
                entry = labels[lexeme] = (lexeme, "literal")
            lexeme, token_type = entry
        append((lexeme, token_type, line, col, line, col + len(lexeme) - 1))
        pos = m.end()
    return tokens
