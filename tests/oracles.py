"""Independent oracles for the test suite.

The line oracles deliberately avoid the package's scanner and tree
machinery: they walk the raw text with a small state machine so metric
values can be checked against a second, unrelated implementation.

reference_lex is the character-loop scanner and classifier the package
used before its single-pass regex scanner; the lexer must agree with it
token for token and on every LexError.
"""

from __future__ import annotations

from ecstmetrics.errors import LexError, UnsupportedLanguageError
from ecstmetrics.lexer import LEXER_SPECS, Token
from ecstmetrics.tree import SourceSpan


def line_count(text: str) -> int:
    """Lines end at "\\n" only, after "\\r\\n" and "\\r" become "\\n"."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return max(1, len(lines))


def classify_lines(text: str, language_id: str):
    """Return (code_lines, comment_lines) as sets of 1-based numbers.

    A line is a code line when it holds any non-whitespace character
    outside comments, and a comment line when a comment covers it,
    including blank interior lines of a block comment.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if language_id == "modula2":
        block_open, block_close = "(*", "*)"
        line_comment = None
        nested = True
        escapes = False
    elif language_id == "javaoo":
        block_open, block_close = "/*", "*/"
        line_comment = "//"
        nested = False
        escapes = True
    else:
        raise ValueError(f"no oracle for language {language_id!r}")

    code: set[int] = set()
    comment: set[int] = set()
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t":
            i += 1
            continue
        if line_comment is not None and text.startswith(line_comment, i):
            comment.add(line)
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(block_open, i):
            depth = 1
            comment.add(line)
            i += len(block_open)
            while i < n and depth:
                comment.add(line)
                if text[i] == "\n":
                    line += 1
                    i += 1
                    continue
                if nested and text.startswith(block_open, i):
                    depth += 1
                    i += len(block_open)
                    continue
                if text.startswith(block_close, i):
                    depth -= 1
                    i += len(block_close)
                    continue
                i += 1
            continue
        if c in "'\"":
            code.add(line)
            quote = c
            i += 1
            while i < n and text[i] not in (quote, "\n"):
                i += 2 if escapes and text[i] == "\\" else 1
            if i < n and text[i] == quote:
                i += 1
            continue
        code.add(line)
        i += 1
    return code, comment


WORD = 0
NUMBER = 1
STRING = 2
SYMBOL = 3
COMMENT = 4


def _lex_error(message, line, col):
    return LexError(message, span=SourceSpan(line, col, line, col))


def reference_scan(
    text,
    line_comment,
    block_open,
    block_close,
    nested_blocks,
    two_char_ops,
    single_chars,
    string_escapes,
):
    """Tokenize text into raw (code, start, end, line, col, end_line,
    end_col) stretches; start/end are half-open offsets, the rest 1-based
    inclusive positions.  Newlines must already be normalized to "\\n"."""
    out = []
    i = 0
    n = len(text)
    line = 1
    col = 1
    lc_len = len(line_comment)
    bo_len = len(block_open)
    bc_len = len(block_close)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c == " " or c == "\t" or c == "\r":
            i += 1
            col += 1
            continue
        if lc_len and c == line_comment[0] and text.startswith(line_comment, i):
            j = i + lc_len
            while j < n and text[j] != "\n":
                j += 1
            out.append((COMMENT, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if bo_len and c == block_open[0] and text.startswith(block_open, i):
            start_line = line
            start_col = col
            depth = 1
            j = i + bo_len
            cur_line = line
            cur_col = col + bo_len
            closed = False
            while j < n:
                if text.startswith(block_close, j):
                    depth -= 1
                    j += bc_len
                    cur_col += bc_len
                    if depth == 0:
                        closed = True
                        break
                elif nested_blocks and text.startswith(block_open, j):
                    depth += 1
                    j += bo_len
                    cur_col += bo_len
                elif text[j] == "\n":
                    j += 1
                    cur_line += 1
                    cur_col = 1
                else:
                    j += 1
                    cur_col += 1
            if not closed:
                raise _lex_error("unterminated block comment", start_line, start_col)
            out.append((COMMENT, i, j, start_line, start_col, cur_line, cur_col - 1))
            i = j
            line = cur_line
            col = cur_col
            continue
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_":
            j = i + 1
            while j < n:
                c2 = text[j]
                if (
                    ("a" <= c2 <= "z")
                    or ("A" <= c2 <= "Z")
                    or ("0" <= c2 <= "9")
                    or c2 == "_"
                ):
                    j += 1
                else:
                    break
            out.append((WORD, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            # decimal point only when a digit follows; keeps ".." a symbol
            if j + 1 < n and text[j] == "." and "0" <= text[j + 1] <= "9":
                j += 2
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            out.append((NUMBER, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if c == '"' or c == "'":
            j = i + 1
            closed = False
            while j < n:
                c2 = text[j]
                if c2 == c:
                    j += 1
                    closed = True
                    break
                if c2 == "\n":
                    break
                if string_escapes and c2 == "\\" and j + 1 < n and text[j + 1] != "\n":
                    j += 2
                    continue
                j += 1
            if not closed:
                raise _lex_error("unterminated string literal", line, col)
            out.append((STRING, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if i + 1 < n and text[i : i + 2] in two_char_ops:
            out.append((SYMBOL, i, i + 2, line, col, line, col + 1))
            col += 2
            i += 2
            continue
        if c in single_chars:
            out.append((SYMBOL, i, i + 1, line, col, line, col))
            col += 1
            i += 1
            continue
        raise _lex_error(f"unrecognized character {c!r}", line, col)
    return out


def reference_lex(source, language_id):
    """Tokenize and classify source text the way the lexer must."""
    spec = LEXER_SPECS.get(language_id)
    if spec is None:
        raise UnsupportedLanguageError(f"no lexer for language {language_id!r}")
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    raw = reference_scan(
        text,
        spec.line_comment,
        spec.block_open,
        spec.block_close,
        spec.nested_blocks,
        spec.two_char_ops,
        spec.single_chars,
        spec.string_escapes,
    )
    tokens = []
    for code, start, end, line, col, end_line, end_col in raw:
        lexeme = text[start:end]
        if code == WORD:
            if lexeme in spec.keywords:
                token_type = "keyword"
            elif lexeme in spec.operator_words:
                token_type = "operator"
            elif lexeme in spec.literal_words:
                token_type = "literal"
            else:
                token_type = "identifier"
        elif code == NUMBER or code == STRING:
            token_type = "literal"
        elif code == SYMBOL:
            token_type = "punctuation" if lexeme in spec.punctuation else "operator"
        else:
            token_type = "comment"
        tokens.append(
            Token(lexeme, token_type, SourceSpan(line, col, end_line, end_col))
        )
    return tokens
