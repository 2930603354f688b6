"""The single-pass scanner, through lex, and its agreement with the
reference character-loop lexer in oracles.py.

The lexer must be indistinguishable from the reference: identical
tokens (lexeme, type, span) on every input, and identical LexError
messages and spans on every rejection.
"""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
from ecstmetrics.errors import LexError
from ecstmetrics.frontends import lex

from conftest import CORPUS, FIXTURE_DIR

LANGUAGES = ("modula2", "javaoo")


def _lexemes(tokens):
    return [t[0] for t in tokens]


def _positions(token):
    return token[2:]


def _error(text, language):
    with pytest.raises(LexError) as info:
        lex(text, language)
    span = info.value.span
    return str(info.value), (span.start_line, span.start_col)


class TestPureKernel:
    def test_word_number_symbol_layout(self):
        tokens = lex("i := i + 10", "modula2")
        assert [t[1] for t in tokens] == [
            "identifier",
            "operator",
            "identifier",
            "operator",
            "literal",
        ]
        assert _lexemes(tokens) == ["i", ":=", "i", "+", "10"]
        # 1-based inclusive positions
        assert _positions(tokens[0]) == (1, 1, 1, 1)
        assert _positions(tokens[1]) == (1, 3, 1, 4)
        assert _positions(tokens[4]) == (1, 10, 1, 11)

    def test_range_operator_not_a_decimal(self):
        tokens = lex("[1 .. 9]", "modula2")
        assert _lexemes(tokens) == ["[", "1", "..", "9", "]"]
        assert tokens[1][1] == "literal"
        assert tokens[2][1] == "operator"

    def test_decimal_number_needs_digit_after_point(self):
        tokens = lex("x = 1.5;", "javaoo")
        assert _lexemes(tokens) == ["x", "=", "1.5", ";"]
        assert tokens[2][1] == "literal"

    def test_multiline_block_comment_span(self):
        tokens = lex("(* a\n   b *) END", "modula2")
        assert tokens[0][1] == "comment"
        assert _positions(tokens[0]) == (1, 1, 2, 7)
        assert _positions(tokens[1]) == (2, 9, 2, 11)

    def test_nested_block_comment(self):
        tokens = lex("(* outer (* inner *) tail *) x", "modula2")
        assert [t[1] for t in tokens] == ["comment", "identifier"]
        assert tokens[0][0] == "(* outer (* inner *) tail *)"

    def test_java_block_comment_does_not_nest(self):
        tokens = lex("/* a /* b */ x", "javaoo")
        assert [t[1] for t in tokens] == ["comment", "identifier"]
        assert tokens[1][0] == "x"

    def test_line_comment_runs_to_newline(self):
        tokens = lex("a // rest of line\nb", "javaoo")
        assert [t[1] for t in tokens] == ["identifier", "comment", "identifier"]
        assert tokens[1][0] == "// rest of line"
        assert _positions(tokens[2])[:2] == (2, 1)

    def test_line_comment_at_eof(self):
        tokens = lex("// tail", "javaoo")
        assert [t[1] for t in tokens] == ["comment"]

    def test_string_with_escape(self):
        tokens = lex('say("a\\"b");', "javaoo")
        strings = [t[0] for t in tokens if t[0].startswith('"')]
        assert strings == ['"a\\"b"']
        assert [t[1] for t in tokens if t[0] in strings] == ["literal"]

    def test_modula2_string_has_no_escapes(self):
        tokens = lex("s := 'a\\'", "modula2")
        strings = [t[0] for t in tokens if t[0].startswith("'")]
        assert strings == ["'a\\'"]

    def test_unterminated_string_position(self):
        message, position = _error('x = "abc\n', "javaoo")
        assert "unterminated string" in message
        assert position == (1, 5)

    def test_unterminated_block_comment_position(self):
        message, position = _error("x;\n(* no close", "modula2")
        assert message == "unterminated block comment"
        assert position == (2, 1)

    def test_unrecognized_character_position(self):
        message, position = _error("int a = 1;\nb = a $ 2;", "javaoo")
        assert "$" in message
        assert position == (2, 7)

    def test_empty_input(self):
        assert lex("", "modula2") == []

    def test_carriage_return_skipped(self):
        tokens = lex("a\r\nb", "modula2")
        assert _positions(tokens[1])[:2] == (2, 1)


FUZZ_ALPHABET = (
    string.ascii_letters + string.digits + " \t\n" + "+-*/=<>#&()[]{},;:.|!%" + "'\"\\_"
)


def _fuzz_cases(seed_count=150):
    rng = random.Random(20260822)
    cases = []
    for _ in range(seed_count):
        length = rng.randint(0, 120)
        cases.append("".join(rng.choice(FUZZ_ALPHABET) for _ in range(length)))
    cases += [
        "(* nested (* deep (* deeper *) *) still open",
        "och '' \"\" ''",
        "..." * 30,
        "0..9..17",
        "//" + "x" * 500,
        "a" * 2000,
        "1" * 300 + "." + "2" * 300,
        # an opener overlapping a closer, and a closer right after an opener
        "(*) x *) y",
        "(* (*) *) *) z",
        "(*)",
        "/*/ x */ y",
        "x ? y",
        "x ~ y",
        '"open',
        "'open",
        "(* open",
        "/* open",
        'a = "x\\\n"',
        'a = "x\\',
        "s := 'a\\' + 'b'",
        "a\r\nb\rc (* x\r\n y *) d",
        "x\x0c// form feed\n\u2028",
    ]
    return cases


def _outcome(lexer, text, language):
    """The tokens, or the LexError's message and span."""
    try:
        return ("ok", lexer(text, language))
    except LexError as e:
        return ("err", str(e), e.span)


def _assert_agrees(text, language):
    expected = _outcome(oracles.reference_lex, text, language)
    assert _outcome(lex, text, language) == expected, f"divergence on {text!r}"


# Fragments chosen so that generated text meets every scanner rule and
# their boundaries: comment delimiters of both languages, quotes and
# escapes, decimal points and ranges, line breaks, and characters
# neither language accepts.
FRAGMENTS = st.sampled_from(
    [
        *"aZ_9 0.\t\n\r'\"\\()*/{}[]<>=!+-&|:;,#%$?~\x07\x0c\u2028é",
        "(*",
        "*)",
        "/*",
        "*/",
        "//",
        "..",
        ":=",
        "<>",
        "&&",
        "++",
        "1.5",
        "\r\n",
        "IF",
        "DIV",
        "while",
        "true",
        "null",
    ]
)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(text=st.lists(FRAGMENTS, max_size=40).map("".join), language=st.sampled_from(LANGUAGES))
    def test_generated_text(self, text, language):
        _assert_agrees(text, language)

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_fuzz_cases(self, language):
        for case in _fuzz_cases():
            _assert_agrees(case, language)

    def test_fixture_corpus(self):
        for name, language in CORPUS:
            text = (FIXTURE_DIR / name).read_text(encoding="utf-8")
            expected = oracles.reference_lex(text, language)
            assert lex(text, language) == expected, name

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_generated_programs(self, language):
        for seed in range(200):
            source = generators.generate(language, seed).source
            expected = oracles.reference_lex(source, language)
            assert lex(source, language) == expected, seed


# Blanks ride with the match before them; each case puts blanks where
# that folding has to keep lines, columns and lexemes right.
BLANK_CASES = {
    "modula2": {
        "leading blanks": " \t  x := 1",
        "trailing blanks": "x := 1;  \t\ny := 2 \t ",
        "tab indentation": "BEGIN\n\tx := 1;\n\t\t y := 2\nEND",
        "blank lines with spaces": "x := 1;\n  \n \t \n\n   y := 2",
        "blanks after block comment opener": "(*   x *)   y (*\t\n  z *)  w",
        "unrecognized character after indentation": "x := 1;\n    $ y",
        "unterminated string after indentation": "x := 1;\n\t  'abc\ny",
    },
    "javaoo": {
        "leading blanks": " \t  x = 1;",
        "trailing blanks": "x = 1;  \t\ny = 2; \t ",
        "tab indentation": "{\n\tx = 1;\n\t\t y = 2;\n}",
        "blank lines with spaces": "x = 1;\n  \n \t \n\n   y = 2;",
        "blanks after block comment opener": "/*   x */   y /*\t\n  z */  w",
        "unrecognized character after indentation": "x = 1;\n    $ y",
        "unterminated string after indentation": 'x = 1;\n\t  "abc\ny',
    },
}


class TestBlankFolding:
    @pytest.mark.parametrize(
        "language,case",
        [(language, case) for language, cases in BLANK_CASES.items() for case in cases],
    )
    def test_agrees_with_reference(self, language, case):
        text = BLANK_CASES[language][case]
        _assert_agrees(text, language)
        outcome = _outcome(lex, text, language)
        # Each case reaches the path it names.
        assert (outcome[0] == "err") == case.startswith(("unrecognized", "unterminated"))

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_comment_keeps_its_blanks(self, language):
        text = BLANK_CASES[language]["blanks after block comment opener"]
        tokens = lex(text, language)
        assert [t[1] for t in tokens] == ["comment", "identifier"] * 2
        assert tokens[0][0] == text[:9]  # "(*   x *)" or "/*   x */"
        assert tokens[2][0] == text[14:24]
        assert _positions(tokens[1]) == (1, 13, 1, 13)
        assert _positions(tokens[2]) == (1, 15, 2, 6)
        assert _positions(tokens[3]) == (2, 9, 2, 9)

    @pytest.mark.parametrize("language", LANGUAGES)
    def test_error_column_after_indentation(self, language):
        cases = BLANK_CASES[language]
        assert _error(cases["unrecognized character after indentation"], language) == (
            "unrecognized character '$'",
            (2, 5),
        )
        message, position = _error(cases["unterminated string after indentation"], language)
        assert message == "unterminated string literal"
        assert position == (2, 4)


class TestKernelSelection:
    def test_active_kernel_exported(self):
        from ecstmetrics.scan import KERNEL, scan

        assert KERNEL == "python"
        assert callable(scan)
