"""Java frontend: universal-node shapes and parse errors."""

from __future__ import annotations

from collections import Counter

import pytest

from ecstmetrics import parse_source
from ecstmetrics.errors import ParseError
from ecstmetrics.lexer import lex
from ecstmetrics.tree import UniversalKind, find_nodes, preorder
from oracles import same_tree


def _wrap(statements: str) -> str:
    return f"class T {{\n    static void m(int a) {{\n{statements}\n    }}\n}}\n"


def _kinds(tree):
    return Counter(n.kind for n in preorder(tree.root) if n.is_universal)


class TestStructure:
    def test_do_while_is_one_loop(self):
        tree = parse_source(_wrap("do { a++; } while (a < 10);"), "javaoo")
        loops = find_nodes(tree, UniversalKind.LOOP_STATEMENT)
        assert len(loops) == 1
        labels = [c.label for c in loops[0].children]
        assert labels[0] == "do"
        assert "while" in labels
        # the tail condition and its semicolon belong to the same loop node
        assert loops[0].children[-1].label == ";"
        assert loops[0].children[-2].kind is UniversalKind.CONDITION

    def test_else_if_chain_flattens(self):
        tree = parse_source(
            _wrap(
                "if (a == 1) { x(); }\n"
                "else if (a == 2) { y(); }\n"
                "else { z(); }"
            ),
            "javaoo",
        )
        chains = find_nodes(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 1
        branches = chains[0].children
        assert all(b.kind is UniversalKind.BRANCH for b in branches)
        assert len(branches) == 3
        assert [c.label for c in branches[1].children[:2]] == ["else", "if"]
        with_condition = [
            bool(find_nodes(b, UniversalKind.CONDITION)) for b in branches
        ]
        assert with_condition == [True, True, False]

    def test_dangling_else_binds_to_inner_if(self):
        tree = parse_source(
            _wrap("if (a > 0) if (a > 1) x(); else y();"), "javaoo"
        )
        chains = find_nodes(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 2
        outer, inner = chains
        assert len(outer.children) == 1
        assert len(inner.children) == 2
        assert inner.children[1].children[0].label == "else"

    def test_while_condition_keeps_parentheses(self):
        tree = parse_source(_wrap("while (a < 10) a++;"), "javaoo")
        cond = find_nodes(tree, UniversalKind.CONDITION)[0]
        assert cond.children[0].label == "("
        assert cond.children[-1].label == ")"

    def test_for_condition_is_bare_test(self):
        tree = parse_source(
            _wrap("for (k = 0; k < n; k++) { a += k; }"), "javaoo"
        )
        loop = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        cond = find_nodes(loop, UniversalKind.CONDITION)[0]
        assert [n.label for n in cond.children] == ["k", "<", "n"]

    def test_headless_for_has_no_condition(self):
        tree = parse_source(
            _wrap("for (;;) { if (a > 9) break; a++; }"), "javaoo"
        )
        loop = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        direct = [c for c in loop.children if c.kind is UniversalKind.CONDITION]
        assert direct == []
        # the nested if still owns one
        assert len(find_nodes(loop, UniversalKind.CONDITION)) == 1

    def test_method_and_field_members(self):
        tree = parse_source(
            "class T {\n    static int limit = 10;\n    void go() { }\n}\n",
            "javaoo",
        )
        units = find_nodes(tree, UniversalKind.FUNCTION_DECL)
        assert len(units) == 1
        idents = [n.label for n in preorder(units[0]) if n.token_type == "identifier"]
        assert idents[0] == "go"

    def test_quicksort_kind_counts_match_modula2(self, corpus):
        _, java_tree = corpus["QuickSort.java"]
        _, mod_tree = corpus["QuickSort.mod"]
        assert _kinds(java_tree) == _kinds(mod_tree)


class TestCommentAttachment:
    def test_leading_comment_attaches_to_root(self, corpus):
        _, tree = corpus["QuickSort.java"]
        first = tree.root.children[0]
        assert first.token_type == "comment"
        assert first.span.start_line == 1

    def test_method_body_comments(self, corpus):
        _, tree = corpus["QuickSort.java"]
        unit = find_nodes(tree, UniversalKind.FUNCTION_DECL)[0]
        direct = [
            c.span.start_line for c in unit.children if c.token_type == "comment"
        ]
        assert direct == [8, 25]

    def test_swap_comment_sits_inside_branch(self, corpus):
        _, tree = corpus["QuickSort.java"]
        branch = find_nodes(tree, UniversalKind.BRANCH)[0]
        comments = [c for c in branch.children if c.token_type == "comment"]
        assert [c.span.start_line for c in comments] == [16]


class TestInvariants:
    def test_token_preservation(self, corpus):
        for name in ("QuickSort.java", "Features.java"):
            text, tree = corpus[name]
            tokens = [t for t in lex(text, "javaoo") if t.token_type != "comment"]
            concrete = [
                n for n in preorder(tree.root)
                if n.span is not None and n.token_type != "comment"
            ]
            assert [t.label for t in tokens] == [n.label for n in concrete]

    def test_parse_is_deterministic(self, corpus):
        text, tree = corpus["QuickSort.java"]
        again = parse_source(text, "javaoo", source_path="QuickSort.java")
        assert same_tree(again, tree)


class TestErrors:
    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_source(_wrap("while (a < 10 { a++; }"), "javaoo")

    @pytest.mark.parametrize(
        "statement,message,col",
        [
            ("a = f(b];", "expected ')', found ']'", 8),
            ("a = f(g[b)];", "expected ']', found ')'", 10),
            ("while (a < 10] { a++; }", "expected ')', found ']'", 14),
            ("for (i = 0; i < n; i++] { }", "expected ')', found ']'", 23),
        ],
    )
    def test_closer_must_match_its_opener(self, statement, message, col):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap(statement), "javaoo")
        assert str(info.value) == message
        assert info.value.span[:2] == (3, col)

    def test_nested_brackets_of_each_kind(self):
        tree = parse_source(_wrap("a[f(x[0])] = g((b), {c});"), "javaoo")
        assert _kinds(tree)[UniversalKind.FUNCTION_DECL] == 1

    def test_missing_while_after_do(self):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap("do { a++; } until (a < 10);"), "javaoo")
        assert "while" in str(info.value)

    def test_missing_class_keyword(self):
        with pytest.raises(ParseError):
            parse_source("public T { }", "javaoo")

    def test_trailing_input_after_class(self):
        with pytest.raises(ParseError):
            parse_source("class T { } ;", "javaoo")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_source("", "javaoo")

    def test_error_span_points_at_offender(self):
        src = _wrap("do { a++; } whale (a < 10);")
        with pytest.raises(ParseError) as info:
            parse_source(src, "javaoo")
        line = src.splitlines()[info.value.span.start_line - 1]
        col = info.value.span.start_col
        assert line[col - 1 :].startswith("whale")
