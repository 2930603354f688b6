"""The one-pass comment attachment and measurement against the subtree
re-walking reference implementations kept in oracles.py."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generators
import oracles
from conftest import CORPUS, FIXTURE_DIR
from ecstmetrics import parse_source, xmlio
from ecstmetrics.cli import main
from ecstmetrics.errors import LexError, ParseError
from ecstmetrics.metrics import measure_tree
from ecstmetrics.tree import SourceSpan, UniversalKind, validate_tree
from ecstmetrics.xmlio import parse_tree_xml, serialize_metrics, serialize_tree

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
        assert type(error.span) is SourceSpan
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


# One file per comment shape.  The deepest construct is the CONDITION of
# the innermost branch; "@" marks the gap between its last two tokens.
BODIES = {
    "modula2": "MODULE M;\nPROCEDURE P;\nBEGIN\n  WHILE a DO\n"
    "    IF b >@ c THEN x := 1 END\n  END\nEND P;\nEND M.\n",
    "javaoo": "class A {\n  void m() {\n    while (a) {\n"
    "      if (b > c@) { x = 1; }\n    }\n  }\n}\n",
}


def _around_branch(body, before="", after=""):
    """body with text just before and just after the loop body's
    branching statement, the one on the line that holds "@"."""
    start = body.rindex("\n", 0, body.index("@")) + 1
    end = body.index("\n", start)
    branch = body[start:end].replace("@", "")
    return f"{body[:start]}{before} {branch} {after}{body[end:]}"


SHAPES = {
    "no comments": lambda body, c: body.replace("@", ""),
    "before the first token": lambda body, c: f"{c[0]}\n{c[1]} " + body.replace("@", ""),
    "after the last token": lambda body, c: body.replace("@", "") + f"{c[0]} {c[1]}",
    "inside the deepest construct": lambda body, c: body.replace("@", f" {c[0]} "),
    # Next after the comment, two nodes open: the branching statement
    # and its first branch.  It goes before both, into the loop.
    "before the loop body's branch": lambda body, c: _around_branch(body, before=c[0]),
    # Between the branching statement's last token and the comment, one
    # node closes in Modula-2 (after END) and two in Java (after "}").
    "after the loop body's branch": lambda body, c: _around_branch(body, after=c[0]),
    "around the loop body's branch": lambda body, c: _around_branch(body, c[0], c[0]),
}
# (parent kind, parent depth, index among the parent's children) per
# comment; a negative index counts from the end.
PLACES = {
    "no comments": [],
    "before the first token": [("COMPILATION_UNIT", 0, 0), ("COMPILATION_UNIT", 0, 1)],
    "after the last token": [("COMPILATION_UNIT", 0, -2), ("COMPILATION_UNIT", 0, -1)],
    "inside the deepest construct": [("CONDITION", 5, -2)],
    "before the loop body's branch": [("LOOP_STATEMENT", 2, -3)],
    "after the loop body's branch": [("LOOP_STATEMENT", 2, -2)],
    "around the loop body's branch": [("LOOP_STATEMENT", 2, -4), ("LOOP_STATEMENT", 2, -2)],
}


def _comment_places(tree, expected):
    """Each comment's place in the tree's nested view, its index counted
    as in the expected one."""
    places = []
    # Per open node, in preorder: its view and the index of its next child.
    stack = [(oracles.nested(tree), 0)]
    while stack:
        parent, index = stack.pop()
        if index == len(parent.children):
            continue
        stack.append((parent, index + 1))
        child = parent.children[index]
        if child.kind is not None:
            stack.append((child, 0))
        elif child.token_type == "comment":
            if expected[len(places)][2] < 0:
                index -= len(parent.children)
            places.append((parent.label, len(stack) - 1, index))
    return places


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("language", LANGUAGES)
def test_comment_shapes_match_reference(language, shape):
    source = SHAPES[shape](BODIES[language], COMMENTS[language])
    _assert_same(source, language)
    expected = PLACES[shape]
    assert _comment_places(parse_source(source, language), expected) == expected


def _comment_edged_tree():
    """A FUNCTION_DECL that starts with a two-line comment, around a
    LOOP_STATEMENT that starts with a comment and ends with a two-line
    one.  No frontend places comments so, but the tree is valid."""

    def tok(label, token_type, *span):
        return oracles.Leaf(label, token_type, *span)

    loop = oracles.Nested(
        UniversalKind.LOOP_STATEMENT,
        [
            tok("// c", "comment", 4, 3, 4, 6),
            tok("while", "keyword", 5, 3, 5, 7),
            tok("/* d\n */", "comment", 5, 9, 6, 3),
        ],
    )
    unit = oracles.Nested(
        UniversalKind.FUNCTION_DECL,
        [
            tok("/* a\n   b */", "comment", 1, 1, 2, 7),
            tok("void", "keyword", 3, 1, 3, 4),
            tok("P", "identifier", 3, 6, 3, 6),
            loop,
            tok("// e", "comment", 7, 1, 7, 4),
        ],
    )
    root = oracles.Nested(UniversalKind.COMPILATION_UNIT, [unit])
    return oracles.tree_of(root, "Edged.java", "javaoo", 7)


def test_comment_edged_nodes_match_reference(monkeypatch):
    # A node's first or last line may be a comment's: its rows span from
    # the first comment's start to the last comment's end.
    tree = _comment_edged_tree()
    validate_tree(tree)
    doc = serialize_tree(tree)
    with monkeypatch.context() as patch:
        patch.setattr(xmlio.expat, "ParserCreate", None)
        by_lines = parse_tree_xml(doc)
    parsers = []
    real = xmlio.expat.ParserCreate

    def create(*args):
        parsers.append(args)
        return real(*args)

    monkeypatch.setattr(xmlio.expat, "ParserCreate", create)
    by_expat = parse_tree_xml(doc.replace('"', "'"))  # the line reader declines
    assert len(parsers) == 1
    for reloaded in (by_lines, by_expat):
        assert oracles.same_tree(reloaded, tree)
    for t in (tree, by_lines, by_expat):
        expected = oracles.reference_measure_tree(t)
        for extended in (False, True):
            assert measure_tree(t, extended) == expected[extended]
    rows = [
        (r.name, r.cc, r.loc, r.sloc, r.cloc, r.start_line, r.end_line)
        for r in measure_tree(tree).elements
    ]
    assert rows == [("P", 2, 7, 2, 6, 1, 7), ("WHILE", 1, 3, 1, 3, 4, 6)]


def _unusual_tree():
    """A valid tree in shapes no frontend builds: a unit whose only
    identifier follows its "(", a branch with two CONDITIONs whose second
    direct keyword, after them, makes it an else-if, an else branch whose
    only other keyword is inside its CONDITION, a branch and a loop with
    no keyword, and a logical operator inside a condition."""

    def tok(label, token_type, line, col):
        return oracles.Leaf(label, token_type, line, col, line, col + len(label) - 1)

    def node(kind, *children):
        return oracles.Nested(kind, list(children))

    elsif = node(
        UniversalKind.BRANCH,
        tok("else", "keyword", 2, 1),
        node(UniversalKind.CONDITION, tok("not", "keyword", 2, 6), tok("a", "identifier", 2, 10)),
        node(
            UniversalKind.CONDITION,
            tok("b", "identifier", 2, 12),
            tok("&&", "operator", 2, 14),
            tok("c", "identifier", 2, 17),
        ),
        tok("if", "keyword", 2, 19),
    )
    unit = node(
        UniversalKind.FUNCTION_DECL,
        tok("void", "keyword", 1, 1),
        tok("(", "punctuation", 1, 6),
        tok("q", "identifier", 1, 7),
        tok(")", "punctuation", 1, 8),
        node(
            UniversalKind.BRANCH_STATEMENT,
            elsif,
            node(
                UniversalKind.BRANCH,
                tok("else", "keyword", 3, 1),
                node(UniversalKind.CONDITION, tok("if", "keyword", 3, 6)),
            ),
            node(UniversalKind.BRANCH, tok("z", "identifier", 4, 1)),
        ),
        node(
            UniversalKind.LOOP_STATEMENT,
            node(UniversalKind.CONDITION, tok("d", "identifier", 5, 1)),
        ),
    )
    root = node(UniversalKind.COMPILATION_UNIT, unit)
    return oracles.tree_of(root, "Odd.java", "javaoo", 5)


def test_unusual_names_and_decisions_match_reference(tmp_path, capsys):
    tree = _unusual_tree()
    validate_tree(tree)
    expected = oracles.reference_measure_tree(tree)
    rows = [(r.name, r.cc) for r in expected[True].elements]
    assert rows == [
        ("q", 5), ("BRANCHING", 3), ("ELSIF", 2), ("ELSE", 1), ("BRANCH", 0), ("LOOP", 1)
    ]
    path = tmp_path / "Odd.java.ecst.xml"
    path.write_text(serialize_tree(tree), encoding="utf-8")
    out = tmp_path / "m.xml"
    for extended, flags in ((False, []), (True, ["--extended-cc"])):
        assert measure_tree(tree, extended) == expected[extended]
        # measure folds the file as it reads it, with no tree built
        assert main(["measure", str(path), *flags, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == serialize_metrics(expected[extended])
