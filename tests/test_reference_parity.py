"""The one-pass comment attachment and measurement against the subtree
re-walking reference implementations kept in oracles.py."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
from conftest import CORPUS, FIXTURE_DIR
from ecstmetrics import parse_source
from ecstmetrics.errors import LexError, ParseError
from ecstmetrics.metrics import measure_tree
from ecstmetrics.xmlio import serialize_tree

LANGUAGES = ("modula2", "javaoo")
SEEDS = range(200)

COMMENTS = {"modula2": ("(* c *)", "(* a (* b *) *)"), "javaoo": ("/* c */", "// c\n")}
STATEMENTS = {"modula2": ("INC(a);", "a := F(a) + 1;"), "javaoo": ("a++;", "a = f(a) + 1;")}


def _assert_same(source, language):
    """Tree XML and both metric reports equal the reference's."""
    try:
        tree = parse_source(source, language)
    except (LexError, ParseError) as error:
        with pytest.raises(type(error)) as info:
            oracles.reference_parse_source(source, language)
        assert str(info.value) == str(error)
        return
    reference = oracles.reference_parse_source(source, language)
    assert serialize_tree(tree) == serialize_tree(reference)
    expected = oracles.reference_measure_tree(tree)
    for extended in (False, True):
        assert measure_tree(tree, extended) == expected[extended]


def _mutate(source, language, edits):
    """Apply (kind, where) edits; where in [0, 1) picks a whitespace gap
    or a line."""
    for kind, where in edits:
        if kind == "comment" or kind == "statement":
            gaps = [i for i, c in enumerate(source) if c in " \n"]
            i = gaps[int(where * len(gaps))]
            pool = COMMENTS if kind == "comment" else STATEMENTS
            text = pool[language][int(where * 1000) % 2]
            source = f"{source[:i]} {text} {source[i:]}"
        elif kind == "drop-parameters":
            source = source.replace("(VAR a: INTEGER)", "", 1)
        else:
            lines = source.split("\n")
            k = int(where * len(lines))
            if kind == "delete":
                del lines[k]
            else:
                lines.insert(k, lines[k])
            source = "\n".join(lines)
    return source


PROGRAMS = st.builds(
    lambda language, seed, edits: _mutate(
        generators.generate(language, seed).source, language, edits
    ),
    language=st.shared(st.sampled_from(LANGUAGES), key="language"),
    seed=st.integers(0, 10_000),
    edits=st.lists(
        st.tuples(
            st.sampled_from(
                ("comment", "comment", "statement", "drop-parameters", "delete", "copy")
            ),
            st.floats(0, 1, exclude_max=True),
        ),
        max_size=6,
    ),
)


@pytest.mark.parametrize("name,language", CORPUS)
def test_fixtures_match_reference(name, language):
    _assert_same((FIXTURE_DIR / name).read_text(encoding="utf-8"), language)


@pytest.mark.parametrize("language", LANGUAGES)
def test_generated_programs_match_reference(language):
    for seed in SEEDS:
        _assert_same(generators.generate(language, seed).source, language)


@settings(max_examples=150, deadline=None)
@given(
    language=st.shared(st.sampled_from(LANGUAGES), key="language"),
    source=PROGRAMS,
)
def test_mutated_programs_match_reference(language, source):
    _assert_same(source, language)
