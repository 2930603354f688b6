"""Seeded-random property tests over generated programs."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import generators
from ecstmetrics import parse_source
from ecstmetrics.errors import LexError, ParseError
from ecstmetrics.lexer import lex
from ecstmetrics.metrics import measure_tree
from ecstmetrics.tree import preorder, validate_tree, walk
from ecstmetrics.xmlio import parse_tree_xml, serialize_tree
from oracles import same_tree, subtree_span
from test_reference_parity import PROGRAMS

LANGUAGES = ("modula2", "javaoo")
SEEDS = range(40)


def _cases():
    return [(lang, seed) for lang in LANGUAGES for seed in SEEDS]


@pytest.mark.parametrize("language,seed", _cases())
def test_generated_trees_validate(language, seed):
    program = generators.generate(language, seed)
    tree = parse_source(program.source, language)
    validate_tree(tree)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    language=st.shared(st.sampled_from(LANGUAGES), key="language"),
    source=PROGRAMS,
)
# A method without a name must be a parse error, not a tree that fails
# validation only when it is reloaded.
@example(language="javaoo", source="class A {\n  void () { }\n}\n")
def test_every_parsed_tree_validates(language, source):
    try:
        tree = parse_source(source, language)
    except (LexError, ParseError):
        return
    validate_tree(tree)


@pytest.mark.parametrize("language,seed", _cases())
def test_token_and_comment_preservation(language, seed):
    program = generators.generate(language, seed)
    tree = parse_source(program.source, language)
    tokens = lex(program.source, language)
    concrete = [n for n in preorder(tree.root) if n.span is not None]
    code = [n.label for n in concrete if n.token_type != "comment"]
    comments = [n.label for n in concrete if n.token_type == "comment"]
    assert code == [t.label for t in tokens if t.token_type != "comment"]
    assert sorted(comments) == sorted(
        t.label for t in tokens if t.token_type == "comment"
    )


@pytest.mark.parametrize("language,seed", _cases())
def test_generated_trees_round_trip(language, seed):
    program = generators.generate(language, seed)
    tree = parse_source(program.source, language)
    document = serialize_tree(tree)
    again = parse_tree_xml(document)
    assert same_tree(again, tree)
    assert serialize_tree(again) == document


@pytest.mark.parametrize("language,seed", _cases())
def test_measurement_bounds(language, seed):
    program = generators.generate(language, seed)
    tree = parse_source(program.source, language)
    span = subtree_span(tree.root)
    assert span.end_line <= tree.total_lines
    report = measure_tree(tree)
    assert report.totals.sloc <= report.totals.loc
    assert report.totals.cloc <= report.totals.loc
    for row in report.elements:
        assert 1 <= row.start_line <= row.end_line <= tree.total_lines
        assert row.loc == row.end_line - row.start_line + 1
        assert 0 < row.sloc <= row.loc
        assert 0 <= row.cloc <= row.loc
        assert row.cc >= 0
    extended = measure_tree(tree, extended=True)
    assert all(
        e.cc >= b.cc for e, b in zip(extended.elements, report.elements)
    )


def _language_independent_view(language, seed):
    """What the paper claims no language changes: the universal skeleton
    (kind and entry/exit) and the (annotation, cc) columns, plain and
    extended."""
    tree = parse_source(generators.generate(language, seed).source, language)
    skeleton = [
        (node.kind, hi is not None)
        for node, _, hi in walk(tree.root)
        if node.kind is not None
    ]
    columns = [
        [(row.annotation, row.cc) for row in measure_tree(tree, extended=ext).elements]
        for ext in (False, True)
    ]
    return skeleton, columns


def _assert_languages_agree(seed):
    modula2 = _language_independent_view("modula2", seed)
    java = _language_independent_view("javaoo", seed)
    assert modula2[0] == java[0], "universal skeletons differ"
    assert modula2[1] == java[1], "(annotation, cc) columns differ"


@pytest.mark.parametrize("seed", range(400))
def test_languages_agree_on_generated_programs(seed):
    # The generators draw the same constructs for a seed in both languages.
    _assert_languages_agree(seed)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=400, max_value=2**32 - 1))
def test_languages_agree_on_any_seed(seed):
    _assert_languages_agree(seed)
