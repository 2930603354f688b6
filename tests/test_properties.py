"""Seeded-random property tests over generated programs."""

from __future__ import annotations

import pytest

import generators
from ecstmetrics import parse_source
from ecstmetrics.lexer import lex
from ecstmetrics.metrics import measure_tree
from ecstmetrics.tree import preorder, validate_tree
from ecstmetrics.xmlio import parse_tree_xml, serialize_tree
from oracles import subtree_span

LANGUAGES = ("modula2", "javaoo")
SEEDS = range(40)


def _cases():
    return [(lang, seed) for lang in LANGUAGES for seed in SEEDS]


@pytest.mark.parametrize("language,seed", _cases())
def test_generated_trees_validate(language, seed):
    program = generators.generate(language, seed)
    tree = parse_source(program.source, language)
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
    assert again == tree
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
