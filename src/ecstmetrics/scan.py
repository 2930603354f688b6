"""Scanning and token classification in one pass.

One compiled pattern per LexerSpec splits the text into tokens; each
match is classified by the spec and becomes a concrete EcstNode, the
token the tree keeps, with a 1-based, inclusive SourceSpan.  The
pattern matches only a block comment's opener; a str.find loop then
finds the closer, because Modula-2 comments nest.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import LexError
from .tree import EcstNode, SourceSpan

#: The scanner implementation, named in benchmark reports.
KERNEL = "python"


# Token type of every match group whose type does not depend on the lexeme.
_GROUP_TYPES = {
    "number": "literal",
    "string": "literal",
    "line_comment": "comment",
}


def _string(quote: str, escapes: bool) -> str:
    """A one-line string literal; with escapes a backslash protects the
    next character unless that is a line break."""
    if escapes:
        return rf"{quote}(?:[^{quote}\\\n]|\\[^\n])*{quote}"
    return rf"{quote}[^{quote}\n]*{quote}"


@lru_cache(maxsize=None)
def _compile(spec):
    """The match function and classification tables for one LexerSpec."""
    groups = [r"(?P<newline>\n)", r"(?P<space>[ \t\r]+)"]
    if spec.line_comment:
        groups.append(rf"(?P<line_comment>{re.escape(spec.line_comment)}[^\n]*)")
    if spec.block_open:
        groups.append(rf"(?P<block_comment>{re.escape(spec.block_open)})")
    strings = _string('"', spec.string_escapes) + "|" + _string("'", spec.string_escapes)
    groups += [
        r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
        # a decimal point only when a digit follows keeps ".." a symbol
        r"(?P<number>[0-9]+(?:\.[0-9]+)?)",
        f"(?P<string>{strings})",
        r"""(?P<quote>["'])""",
    ]
    # two-character operators first, so "<=" is not read as "<" then "="
    symbols = [re.escape(op) for op in sorted(spec.two_char_ops)]
    symbols.append("[" + "".join(re.escape(c) for c in spec.single_chars) + "]")
    groups.append("(?P<symbol>" + "|".join(symbols) + ")")

    # later updates win: a keyword beats an operator word beats a literal word
    word_types = dict.fromkeys(spec.literal_words, "literal")
    word_types.update(dict.fromkeys(spec.operator_words, "operator"))
    word_types.update(dict.fromkeys(spec.keywords, "keyword"))
    symbol_types = {
        symbol: "punctuation" if symbol in spec.punctuation else "operator"
        for symbol in (*spec.two_char_ops, *spec.single_chars)
    }
    return re.compile("|".join(groups)).match, word_types, symbol_types


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


def scan(text: str, spec) -> list[EcstNode]:
    """Tokenize text by spec (a lexer.LexerSpec); comments kept,
    whitespace dropped.

    Newlines must already be normalized to "\\n".  Spans are 1-based and
    inclusive.  Raises LexError, whose span is the position of the
    offending character or of the opener of an unterminated literal or
    comment.
    """
    match, word_types, symbol_types = _compile(spec)
    tokens = []
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
        end = m.end()
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "space":
            pass
        elif kind == "block_comment":
            end = _block_comment_end(text, end, spec)
            if end < 0:
                raise _error("unterminated block comment", line, col)
            start_line = line
            breaks = text.count("\n", pos, end)
            if breaks:
                line += breaks
                line_start = text.rfind("\n", pos, end) + 1
            span = SourceSpan(start_line, col, line, end - line_start)
            tokens.append(EcstNode.concrete(text[pos:end], "comment", span))
        elif kind == "quote":
            raise _error("unterminated string literal", line, col)
        else:
            lexeme = m.group()
            if kind == "word":
                token_type = word_types.get(lexeme, "identifier")
            elif kind == "symbol":
                token_type = symbol_types[lexeme]
            else:
                token_type = _GROUP_TYPES[kind]
            span = SourceSpan(line, col, line, col + end - pos - 1)
            tokens.append(EcstNode.concrete(lexeme, token_type, span))
        pos = end
    return tokens
