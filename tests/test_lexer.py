"""Token classification for both language subsets."""

from __future__ import annotations

import pytest

from ecstmetrics.errors import LexError, UnsupportedLanguageError
from ecstmetrics.frontends import count_physical_lines, lex


def _types(tokens):
    return [t[:2] for t in tokens]


class TestModula2Lexing:
    def test_if_header_classification(self):
        tokens = lex("IF a > b THEN", "modula2")
        assert _types(tokens) == [
            ("IF", "keyword"),
            ("a", "identifier"),
            (">", "operator"),
            ("b", "identifier"),
            ("THEN", "keyword"),
        ]

    def test_operator_words(self):
        tokens = lex("x DIV y MOD z AND w OR v", "modula2")
        kinds = {t[0]: t[1] for t in tokens}
        assert kinds["DIV"] == "operator"
        assert kinds["MOD"] == "operator"
        assert kinds["AND"] == "operator"
        assert kinds["OR"] == "operator"

    def test_keywords_are_case_sensitive(self):
        tokens = lex("begin BEGIN", "modula2")
        assert _types(tokens) == [("begin", "identifier"), ("BEGIN", "keyword")]

    def test_punctuation_versus_operator_symbols(self):
        tokens = lex("a[i] := (b + c) * 2;", "modula2")
        kinds = {t[0]: t[1] for t in tokens}
        assert kinds["["] == "punctuation"
        assert kinds["("] == "punctuation"
        assert kinds[";"] == "punctuation"
        assert kinds[":="] == "operator"
        assert kinds["*"] == "operator"

    def test_comment_token_and_span(self):
        tokens = lex("x := 1; (* note\nspans lines *)\ny := 2;", "modula2")
        comments = [t for t in tokens if t[1] == "comment"]
        assert len(comments) == 1
        _, _, start_line, _, end_line, _ = comments[0]
        assert (start_line, end_line) == (1, 2)

    def test_string_literal(self):
        tokens = lex("s := 'hi';", "modula2")
        assert ("'hi'", "literal") in _types(tokens)

    def test_number_literal(self):
        tokens = lex("n := 42;", "modula2")
        assert ("42", "literal") in _types(tokens)


class TestJavaLexing:
    def test_do_while_keywords(self):
        tokens = lex("do { } while (x);", "javaoo")
        assert tokens[0][0] == "do"
        assert tokens[0][1] == "keyword"
        assert ("while", "keyword") in _types(tokens)

    def test_literal_words(self):
        tokens = lex("flag = true; other = null;", "javaoo")
        kinds = {t[0]: t[1] for t in tokens}
        assert kinds["true"] == "literal"
        assert kinds["null"] == "literal"

    def test_two_char_operators(self):
        tokens = lex("a <= b && c != d || e++", "javaoo")
        ops = [t[0] for t in tokens if t[1] == "operator"]
        assert ops == ["<=", "&&", "!=", "||", "++"]

    def test_braces_are_punctuation(self):
        tokens = lex("{ }", "javaoo")
        assert _types(tokens) == [("{", "punctuation"), ("}", "punctuation")]

    def test_both_comment_styles(self):
        tokens = lex("// one\n/* two */ x", "javaoo")
        assert [t[1] for t in tokens] == ["comment", "comment", "identifier"]


class TestLexerContract:
    def test_empty_source(self):
        assert lex("", "modula2") == []
        assert lex("", "javaoo") == []

    def test_whitespace_dropped_comments_kept(self):
        tokens = lex("  a\t b  (* c *)  ", "modula2")
        assert [t[0] for t in tokens] == ["a", "b", "(* c *)"]

    def test_spans_are_one_based_inclusive(self):
        tokens = lex("ab cd", "modula2")
        cols = [(col, end_col) for _, _, _, col, _, end_col in tokens]
        assert cols == [(1, 2), (4, 5)]

    def test_crlf_normalized(self):
        tokens = lex("a\r\nb", "modula2")
        assert tokens[1][2] == 2  # start_line

    def test_unknown_language(self):
        with pytest.raises(UnsupportedLanguageError):
            lex("x", "cobol")

    def test_lex_error_carries_span(self):
        with pytest.raises(LexError) as info:
            lex("a := 1;\nb ? 2;", "modula2")
        assert info.value.span.start_line == 2
        assert info.value.span.start_col == 3

    def test_unterminated_comment_is_lex_error(self):
        with pytest.raises(LexError) as info:
            lex("x := 1;\n(* open", "modula2")
        assert info.value.span.start_line == 2

    def test_count_physical_lines(self):
        assert count_physical_lines("") == 1
        assert count_physical_lines("a") == 1
        assert count_physical_lines("a\n") == 1
        assert count_physical_lines("a\nb") == 2
        assert count_physical_lines("a\nb\n") == 2
        assert count_physical_lines("a\r\nb\rc") == 3
        assert count_physical_lines("a\x0cb\x1c\x85\u2028\u2029\n") == 1
