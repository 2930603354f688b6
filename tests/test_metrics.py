"""Metric computation against hand-derived fixture values.

Expected rows were derived by hand from the fixture sources: decision
points counted manually, line classes (blank, comment-only, code) tallied
per line, spans read off the construct boundaries.
"""

from __future__ import annotations

import re

import pytest

import oracles
from ecstmetrics import parse_source
from ecstmetrics.cli import main
from ecstmetrics.errors import MalformedTreeError
from ecstmetrics.metrics import MEASURED_KINDS, measure_tree, render_table
from ecstmetrics.tree import UniversalKind
from ecstmetrics.xmlio import parse_tree_xml
from oracles import Leaf, Nested, tree_of

# (name, annotation, cc, loc, sloc, cloc, startLine, endLine)
EXPECTED_ROWS = {
    "QuickSort.mod": [
        ("Sort", "FUNCTION_DECL", 7, 32, 30, 3, 15, 46),
        ("REPEAT", "LOOP_STATEMENT", 4, 15, 15, 1, 24, 38),
        ("WHILE", "LOOP_STATEMENT", 1, 3, 3, 0, 25, 27),
        ("WHILE", "LOOP_STATEMENT", 1, 3, 3, 0, 28, 30),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 7, 7, 1, 31, 37),
        ("IF", "BRANCH", 1, 6, 6, 1, 31, 36),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 3, 3, 0, 40, 42),
        ("IF", "BRANCH", 1, 2, 2, 0, 40, 41),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 3, 3, 0, 43, 45),
        ("IF", "BRANCH", 1, 2, 2, 0, 43, 44),
    ],
    "QuickSort.java": [
        ("sort", "FUNCTION_DECL", 7, 27, 21, 3, 4, 30),
        ("DO-WHILE", "LOOP_STATEMENT", 4, 15, 12, 1, 9, 23),
        ("WHILE", "LOOP_STATEMENT", 1, 2, 2, 0, 10, 11),
        ("WHILE", "LOOP_STATEMENT", 1, 2, 2, 0, 12, 13),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 7, 6, 1, 15, 21),
        ("IF", "BRANCH", 1, 7, 6, 1, 15, 21),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 2, 2, 0, 26, 27),
        ("IF", "BRANCH", 1, 2, 2, 0, 26, 27),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 2, 2, 0, 28, 29),
        ("IF", "BRANCH", 1, 2, 2, 0, 28, 29),
    ],
    "Features.mod": [
        ("Classify", "FUNCTION_DECL", 4, 15, 15, 0, 11, 25),
        ("BRANCHING", "BRANCH_STATEMENT", 3, 9, 9, 0, 15, 23),
        ("IF", "BRANCH", 1, 2, 2, 0, 15, 16),
        ("ELSIF", "BRANCH", 1, 2, 2, 0, 17, 18),
        ("ELSIF", "BRANCH", 1, 2, 2, 0, 19, 20),
        ("ELSE", "BRANCH", 0, 2, 2, 0, 21, 22),
        ("Tally", "FUNCTION_DECL", 3, 18, 16, 0, 27, 44),
        ("Bump", "FUNCTION_DECL", 1, 4, 4, 0, 29, 32),
        ("FOR", "LOOP_STATEMENT", 1, 3, 3, 0, 38, 40),
        ("REPEAT", "LOOP_STATEMENT", 1, 3, 3, 0, 41, 43),
    ],
    "Features.java": [
        ("classify", "FUNCTION_DECL", 4, 13, 13, 0, 6, 18),
        ("BRANCHING", "BRANCH_STATEMENT", 3, 9, 9, 0, 8, 16),
        ("IF", "BRANCH", 1, 3, 3, 0, 8, 10),
        ("ELSIF", "BRANCH", 1, 3, 3, 0, 10, 12),
        ("ELSIF", "BRANCH", 1, 3, 3, 0, 12, 14),
        ("ELSE", "BRANCH", 0, 3, 3, 0, 14, 16),
        ("tally", "FUNCTION_DECL", 5, 15, 15, 0, 20, 34),
        ("FOR", "LOOP_STATEMENT", 1, 3, 3, 0, 22, 24),
        ("FOR", "LOOP_STATEMENT", 2, 5, 5, 0, 25, 29),
        ("BRANCHING", "BRANCH_STATEMENT", 1, 2, 2, 0, 27, 28),
        ("IF", "BRANCH", 1, 2, 2, 0, 27, 28),
        ("DO-WHILE", "LOOP_STATEMENT", 1, 3, 3, 0, 30, 32),
    ],
}

EXPECTED_TOTALS = {
    "QuickSort.mod": (48, 39, 4),
    "QuickSort.java": (31, 23, 4),
    "Features.mod": (49, 39, 2),
    "Features.java": (35, 31, 2),
}

# Logical operators add to the cc column only; one entry per row, in order.
EXPECTED_EXTENDED_CC = {
    "QuickSort.mod": [7, 4, 1, 1, 1, 1, 1, 1, 1, 1],
    "QuickSort.java": [7, 4, 1, 1, 1, 1, 1, 1, 1, 1],
    "Features.mod": [6, 5, 2, 2, 1, 0, 3, 1, 1, 1],
    "Features.java": [6, 5, 2, 2, 1, 0, 5, 1, 2, 1, 1, 1],
}


def _rows(report):
    return [
        (r.name, r.annotation, r.cc, r.loc, r.sloc, r.cloc, r.start_line, r.end_line)
        for r in report.elements
    ]


def _of(tree, annotation, extended=False):
    """The rows of one annotation, in preorder."""
    rows = measure_tree(tree, extended).elements
    return [r for r in rows if r.annotation == annotation]


def _detached(node, extended=False):
    """The rows of a node measured as the only child of a tree's root."""
    root = Nested(UniversalKind.COMPILATION_UNIT, [node])
    return measure_tree(tree_of(root, "T"), extended).elements


class TestFixtureValues:
    @pytest.mark.parametrize("name", sorted(EXPECTED_ROWS))
    def test_rows(self, corpus, name):
        _, tree = corpus[name]
        assert _rows(measure_tree(tree)) == EXPECTED_ROWS[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_TOTALS))
    def test_totals(self, corpus, name):
        _, tree = corpus[name]
        totals = measure_tree(tree).totals
        assert (totals.loc, totals.sloc, totals.cloc) == EXPECTED_TOTALS[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_EXTENDED_CC))
    def test_extended_cc_touches_only_cc(self, corpus, name):
        _, tree = corpus[name]
        base = measure_tree(tree)
        extended = measure_tree(tree, extended=True)
        assert [r.cc for r in extended.elements] == EXPECTED_EXTENDED_CC[name]
        strip = lambda rows: [
            (r.name, r.annotation, r.loc, r.sloc, r.cloc, r.start_line, r.end_line)
            for r in rows
        ]
        assert strip(extended.elements) == strip(base.elements)
        assert extended.totals == base.totals

    def test_cross_language_agreement(self, corpus):
        _, mod_tree = corpus["QuickSort.mod"]
        _, java_tree = corpus["QuickSort.java"]
        mod_cc = [r.cc for r in measure_tree(mod_tree).elements]
        java_cc = [r.cc for r in measure_tree(java_tree).elements]
        assert mod_cc == java_cc


class TestAgainstLineOracle:
    @pytest.mark.parametrize(
        "name,language",
        [
            ("QuickSort.mod", "modula2"),
            ("QuickSort.java", "javaoo"),
            ("Features.mod", "modula2"),
            ("Features.java", "javaoo"),
        ],
    )
    def test_sloc_cloc_match_line_classifier(self, corpus, name, language):
        text, tree = corpus[name]
        _assert_rows_match_line_oracle(text, tree, language)

    # Sources where a node's first code or comment token starts on the
    # line the count had last reached before the node: the line is the
    # node's, and counted once in the file.  A comment outside a node on
    # the node's first or last line is not the node's: CLOC counts the
    # lines of the comments inside the node.
    SHARED_LINES = {
        "java comment ends where a branch starts": (
            "class A {\n"
            "  void m(boolean b) {\n"
            "    /* y\n"
            "     */ if (b) { b = true; }\n"
            "  }\n"
            "}\n",
            "javaoo",
        ),
        "java comment after a branch": (
            "class A {\n"
            "  void m(boolean b) {\n"
            "    if (b) { b = true; } // t\n"
            "  }\n"
            "}\n",
            "javaoo",
        ),
        "java statement then loop": (
            "class A {\n"
            "  int m(int n) {\n"
            "    int i = 0; while (i < n) {\n"
            "      i++; } if (i > 2) { i = 0;\n"
            "    } else { i = 1; } return i;\n"
            "  }\n"
            "}\n",
            "javaoo",
        ),
        "java two comments on a line": (
            "class A {\n"
            "  /* one */ /* two */\n"
            "  void m() { /* a */ int x = 1; // b\n"
            "    if (x > 0) /* c */ /* d */ { x = 2; } // e\n"
            "  }\n"
            "}\n",
            "javaoo",
        ),
        "java block comment ends on code": (
            "class A {\n"
            "  void m(boolean b) {\n"
            "    /* first\n"
            "       second */ while (b) { /* z */ b = false;\n"
            "      if (b) { /* y\n"
            "       */ b = true; } }\n"
            "  }\n"
            "}\n",
            "javaoo",
        ),
        "modula2 statement then loop": (
            "MODULE M;\n"
            "VAR i: INTEGER;\n"
            "PROCEDURE P;\n"
            "BEGIN\n"
            "  i := 0; WHILE i < 3 DO\n"
            "    i := i + 1 END; IF i > 2 THEN i := 0\n"
            "  ELSE i := 1 END\n"
            "END P;\n"
            "END M.\n",
            "modula2",
        ),
        "modula2 two comments on a line": (
            "MODULE M;\n"
            "(* one *) (* two *)\n"
            "PROCEDURE P; (* a *) (* b *)\n"
            "BEGIN\n"
            "  IF TRUE THEN (* c *) (* d *) P END (* e *)\n"
            "END P;\n"
            "END M.\n",
            "modula2",
        ),
        "modula2 block comment ends on code": (
            "MODULE M;\n"
            "VAR i: INTEGER;\n"
            "PROCEDURE P;\n"
            "BEGIN\n"
            "  (* first\n"
            "     second *) WHILE i < 3 DO (* z *) i := i + 1;\n"
            "    IF i > 2 THEN (* y\n"
            "     *) i := 0 END END\n"
            "END P;\n"
            "END M.\n",
            "modula2",
        ),
    }

    @pytest.mark.parametrize("case", sorted(SHARED_LINES))
    def test_shared_lines_match_line_classifier(self, case):
        text, language = self.SHARED_LINES[case]
        _assert_rows_match_line_oracle(text, parse_source(text, language), language)

    def test_file_loc_counts_line_feeds_only(self):
        # A next-line character in a comment and a line separator in a
        # string are not line breaks: the scanner and every span count
        # "\n" alone.  (A form feed is one too, but tree XML cannot carry
        # it, so parse_source rejects it.)
        text = 'class A {\n    // page\x85break\n    static String s = "a\u2028b";\n}\n'
        report = measure_tree(parse_source(text, "javaoo"))
        assert report.totals.loc == 4
        assert oracles.line_count(text) == 4


def _assert_rows_match_line_oracle(text, tree, language) -> None:
    code, comment, comments = oracles.classify_lines(text, language)
    report = measure_tree(tree)
    assert report.totals.loc == oracles.line_count(text)
    assert report.totals.sloc == len(code)
    assert report.totals.cloc == len(comment)
    nodes = [n for n in oracles.preorder(tree) if n.kind in MEASURED_KINDS]
    for row, node in zip(report.elements, nodes, strict=True):
        span = oracles.subtree_span(node)
        assert (row.start_line, row.end_line) == (span.start_line, span.end_line)
        window = range(row.start_line, row.end_line + 1)
        assert row.loc == row.end_line - row.start_line + 1
        assert row.sloc == sum(1 for n in window if n in code)
        assert row.cloc == oracles.comment_lines_inside(comments, node)


class TestDecisionCounting:
    def test_hand_counted_subtrees(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        unit = _of(tree, "FUNCTION_DECL")[0]
        assert unit.cc - 1 == 6
        repeat = _of(tree, "LOOP_STATEMENT")[0]
        assert repeat.cc == 4

    def test_else_branch_is_not_a_decision(self, corpus):
        _, tree = corpus["Features.mod"]
        else_branch = _of(tree, "BRANCH")[3]
        assert else_branch.name == "ELSE"
        assert else_branch.cc == 0

    def test_loops_are_decisions_even_without_condition(self):
        tree = parse_source(
            "class T { void m() { for (;;) { break; } } }", "javaoo"
        )
        assert _of(tree, "LOOP_STATEMENT")[0].cc == 1

    def test_empty_body_function_is_one(self):
        for src, lang in [
            ("PROCEDURE P; BEGIN END P;", "modula2"),
            ("class T { void m() { } }", "javaoo"),
        ]:
            tree = parse_source(src, lang)
            assert _of(tree, "FUNCTION_DECL")[0].cc == 1

    def test_universal_node_without_tokens_is_malformed(self):
        # A tree no frontend builds and validate_tree rejects: the fold
        # itself refuses a measured node with nothing to span.
        unit = Nested(
            UniversalKind.COMPILATION_UNIT,
            [
                Leaf("x", "identifier", 1, 1, 1, 1),
                Nested(UniversalKind.FUNCTION_DECL, []),
            ],
        )
        with pytest.raises(
            MalformedTreeError,
            match="^universal node 'FUNCTION_DECL' has no concrete descendants$",
        ):
            measure_tree(tree_of(unit, "T.java", "javaoo"))

    def test_operator_tokens_only_count_in_extended_mode(self):
        cond = Nested(
            UniversalKind.CONDITION,
            [
                Leaf("a", "identifier", 1, 4, 1, 4),
                Leaf("AND", "operator", 1, 6, 1, 8),
                Leaf("'AND'", "literal", 1, 10, 1, 14),
            ],
        )
        branch = Nested(
            UniversalKind.BRANCH,
            [Leaf("IF", "keyword", 1, 1, 1, 2), cond],
        )
        assert [r.cc for r in _detached(branch)] == [1]
        assert [r.cc for r in _detached(branch, extended=True)] == [2]

    def test_logical_operator_outside_condition_does_not_count(self):
        tree = parse_source(
            "class T { void m() { b = x && y; if (x || y) { } } }", "javaoo"
        )
        assert _of(tree, "FUNCTION_DECL", extended=True)[0].cc == 3

    def test_nested_procedure_decisions_roll_up(self):
        src = (
            "MODULE M;\n"
            "PROCEDURE Outer;\n"
            "   PROCEDURE Inner;\n"
            "   BEGIN\n"
            "      IF a THEN b := 1 END\n"
            "   END Inner;\n"
            "BEGIN\n"
            "   WHILE c DO d := 2 END\n"
            "END Outer;\n"
            "END M.\n"
        )
        tree = parse_source(src, "modula2")
        outer, inner = _of(tree, "FUNCTION_DECL")
        assert inner.cc == 2
        # the subtree rule includes nested declarations
        assert outer.cc == 3


# A BRANCH whose CONDITION holds another BRANCH with "a && b": legal tree
# XML, though no frontend nests conditions.
NESTED_CONDITIONS_XML = """\
<ecst source="Nested.java" language="javaoo" totalLines="1">
  <node kind="COMPILATION_UNIT">
    <node kind="FUNCTION_DECL">
      <token type="identifier" line="1" col="1" endLine="1" endCol="1">f</token>
      <node kind="BRANCH_STATEMENT">
        <node kind="BRANCH">
          <token type="keyword" line="1" col="3" endLine="1" endCol="4">if</token>
          <node kind="CONDITION">
            <node kind="BRANCH_STATEMENT">
              <node kind="BRANCH">
                <token type="keyword" line="1" col="6" endLine="1" endCol="7">if</token>
                <node kind="CONDITION">
                  <token type="identifier" line="1" col="9" endLine="1" endCol="9">a</token>
                  <token type="operator" line="1" col="11" endLine="1" endCol="12">&amp;&amp;</token>
                  <token type="identifier" line="1" col="14" endLine="1" endCol="14">b</token>
                </node>
              </node>
            </node>
          </node>
        </node>
      </node>
    </node>
  </node>
</ecst>
"""


class TestNestedConditions:
    def test_operator_counts_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "nested.ecst.xml"
        path.write_text(NESTED_CONDITIONS_XML, encoding="utf-8")
        assert main(["measure", "nested.ecst.xml", "--extended-cc"]) == 0
        metrics = (tmp_path / "nested.metrics.xml").read_text(encoding="utf-8")
        cc = re.findall(r'name="([^"]+)" annotation="([A-Z_]+)" cc="(\d+)"', metrics)
        assert cc == [
            ("f", "FUNCTION_DECL", "4"),
            ("BRANCHING", "BRANCH_STATEMENT", "3"),
            ("IF", "BRANCH", "3"),
            ("BRANCHING", "BRANCH_STATEMENT", "2"),
            ("IF", "BRANCH", "2"),
        ]

    def test_plain_cc_ignores_operators(self):
        report = measure_tree(parse_tree_xml(NESTED_CONDITIONS_XML))
        assert [r.cc for r in report.elements] == [3, 2, 2, 1, 1]


class TestMonotonicity:
    def test_adding_a_branch_raises_cc_by_one(self, corpus):
        text, tree = corpus["QuickSort.mod"]
        lines = text.splitlines(keepends=True)
        # splice a fresh IF into the REPEAT body, after the second WHILE
        lines.insert(30, "      IF i < j THEN i := i + 1 END;\n")
        mutated = parse_source("".join(lines), "modula2")
        base_rows = measure_tree(tree).elements
        new_rows = measure_tree(mutated).elements
        assert len(new_rows) == len(base_rows) + 2
        assert new_rows[0].cc == base_rows[0].cc + 1
        assert new_rows[1].cc == base_rows[1].cc + 1


class TestElementNames:
    def test_function_name_precedes_parameter_list(self):
        tree = parse_source(
            "PROCEDURE Max(a, b: INTEGER): INTEGER; BEGIN RETURN a END Max;",
            "modula2",
        )
        assert _of(tree, "FUNCTION_DECL")[0].name == "Max"

    def test_parameterless_function_uses_first_identifier(self):
        tree = parse_source("PROCEDURE Ping; BEGIN END Ping;", "modula2")
        assert _of(tree, "FUNCTION_DECL")[0].name == "Ping"

    def test_java_method_name_skips_modifiers_and_types(self):
        tree = parse_source(
            "class T { public static int twice(int x) { return x; } }", "javaoo"
        )
        assert _of(tree, "FUNCTION_DECL")[0].name == "twice"

    def test_parameterless_unit_is_not_named_after_a_call(self):
        tree = parse_source(
            "PROCEDURE F; BEGIN IF Odd(x) THEN y := 1 END END F;", "modula2"
        )
        assert [r.name for r in measure_tree(tree).elements][0] == "F"

    def test_function_procedure_is_not_named_after_a_call(self):
        tree = parse_source(
            "PROCEDURE F: INTEGER; BEGIN RETURN G(1) END F;", "modula2"
        )
        assert [r.name for r in measure_tree(tree).elements] == ["F"]

    def test_unit_without_header_identifier_uses_first_identifier(self):
        unit = Nested(
            UniversalKind.FUNCTION_DECL,
            [
                Leaf("(", "punctuation", 1, 1, 1, 1),
                Leaf("x", "identifier", 1, 2, 1, 2),
                Leaf(")", "punctuation", 1, 3, 1, 3),
            ],
        )
        assert [r.name for r in _detached(unit)] == ["x"]

    def test_nameless_unit_is_anonymous(self):
        unit = Nested(
            UniversalKind.FUNCTION_DECL,
            [Leaf("(", "punctuation", 1, 1, 1, 1)],
        )
        assert [r.name for r in _detached(unit)] == ["<anonymous>"]

    def test_loop_annotation_comes_from_keyword(self, corpus):
        _, tree = corpus["Features.java"]
        loops = _of(tree, "LOOP_STATEMENT")
        assert [r.name for r in loops] == ["FOR", "FOR", "DO-WHILE"]


class TestLocBundle:
    def test_bundle_matches_span_arithmetic(self, corpus):
        # One row per FUNCTION_DECL, LOOP_STATEMENT, BRANCH_STATEMENT and BRANCH.
        for _, tree in corpus.values():
            for row in measure_tree(tree).elements:
                assert 0 <= row.cloc <= row.loc
                assert 0 < row.sloc <= row.loc

    def test_multiline_token_counts_every_line(self):
        src = "MODULE M;\n(* one\n   two *)\nEND M.\n"
        tree = parse_source(src, "modula2")
        assert measure_tree(tree).totals.cloc == 2


class TestRenderTable:
    def test_table_layout(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        table = render_table(measure_tree(tree))
        lines = table.splitlines()
        assert lines[0].split() == [
            "ELEMENT", "ANNOTATION", "CC", "LOC", "SLOC", "CLOC", "LINES",
        ]
        assert all(line == line.rstrip() for line in lines)
        file_row = lines[-1].split()
        assert file_row[0] == "<file>"
        assert file_row[-4:-1] == ["48", "39", "4"]

    def test_table_lists_every_element(self, corpus):
        _, tree = corpus["Features.java"]
        report = measure_tree(tree)
        table = render_table(report)
        assert len(table.splitlines()) == len(report.elements) + 2
