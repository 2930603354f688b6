"""One module per language: FRONTENDS maps each language id to a parser
class that carries the language's lexical rules as SPEC."""

from __future__ import annotations

import pytest

import oracles
from ecstmetrics.errors import UnsupportedLanguageError
from ecstmetrics.frontends import FRONTENDS, java, lex, modula2, parse_source
from ecstmetrics.frontends.registry import BUILTIN
from ecstmetrics.scan import LexerSpec


def _node_openers(parser_cls) -> set[str]:
    """The _STATEMENTS keys whose statement opens a universal node."""
    return {lexeme for lexeme, (kind, _) in parser_cls._STATEMENTS.items() if kind is not None}


# language id -> every keyword its parser tests for by name
PARSER_KEYWORDS = {
    "javaoo": java.JavaParser._CONSTRUCTS
    | _node_openers(java.JavaParser)
    | set(java.MODIFIERS)
    | java.FLAT_KEYWORDS,
    "modula2": modula2.Modula2Parser._CONSTRUCTS
    | _node_openers(modula2.Modula2Parser)
    | set(modula2.SECTION_KEYWORDS)
    | {word for word in modula2.COND_STOPS if word.isalpha()},
}


@pytest.mark.parametrize("entry", [lex, parse_source, oracles.reference_lex])
def test_unknown_language_has_one_message(entry):
    with pytest.raises(UnsupportedLanguageError) as info:
        entry("x", "cobol")
    assert str(info.value) == "no frontend for language 'cobol'"


@pytest.mark.parametrize("language", sorted(FRONTENDS))
def test_every_frontend_has_a_spec(language):
    assert isinstance(FRONTENDS[language].SPEC, LexerSpec)


def test_keyword_sets_cover_every_frontend():
    assert PARSER_KEYWORDS.keys() == FRONTENDS.keys()


@pytest.mark.parametrize("language", sorted(PARSER_KEYWORDS))
def test_parser_keywords_are_spec_keywords(language):
    assert PARSER_KEYWORDS[language] <= FRONTENDS[language].SPEC.keywords


@pytest.mark.parametrize("language", sorted(FRONTENDS))
def test_statements_with_a_node_are_constructs(language):
    # A flat run must reject such a keyword: taken flat, its statement's
    # node would be lost.
    parser_cls = FRONTENDS[language]
    assert _node_openers(parser_cls) <= parser_cls._CONSTRUCTS


def test_every_builtin_language_has_a_frontend():
    assert set(BUILTIN.values()) <= FRONTENDS.keys()
