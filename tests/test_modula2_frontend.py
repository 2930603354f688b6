"""Modula-2 frontend: universal-node shapes and parse errors."""

from __future__ import annotations

from collections import Counter

import pytest

from ecstmetrics import parse_source
from ecstmetrics.errors import ParseError
from ecstmetrics.lexer import lex
from ecstmetrics.tree import UniversalKind, find_nodes, preorder
from oracles import same_tree, subtree_span


def _wrap(statements: str) -> str:
    return f"MODULE T;\nPROCEDURE P;\nBEGIN\n{statements}\nEND P;\nEND T.\n"


def _kinds(tree):
    return Counter(
        n.kind for n in preorder(tree.root) if n.is_universal
    )


class TestStructure:
    def test_if_else_two_branches(self):
        tree = parse_source(
            _wrap("IF a > b THEN res := 1; ELSE res := 0; END;"), "modula2"
        )
        chains = find_nodes(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 1
        branches = [c for c in chains[0].children if c.is_universal]
        assert [b.kind for b in branches] == [UniversalKind.BRANCH, UniversalKind.BRANCH]
        first_conditions = find_nodes(branches[0], UniversalKind.CONDITION)
        else_conditions = find_nodes(branches[1], UniversalKind.CONDITION)
        assert len(first_conditions) == 1
        assert len(else_conditions) == 0

    def test_minimal_procedure(self):
        tree = parse_source("PROCEDURE P; BEGIN END P;", "modula2")
        units = find_nodes(tree, UniversalKind.FUNCTION_DECL)
        assert len(units) == 1
        idents = [n.label for n in preorder(units[0]) if n.token_type == "identifier"]
        assert "P" in idents

    def test_if_keyword_sits_inside_first_branch(self):
        tree = parse_source(_wrap("IF a > b THEN x := 1 END;"), "modula2")
        chain = find_nodes(tree, UniversalKind.BRANCH_STATEMENT)[0]
        first = chain.children[0]
        assert first.kind is UniversalKind.BRANCH
        assert first.children[0].label == "IF"
        # END closes the chain, not the branch
        assert chain.children[-1].label == "END"

    def test_elsif_chain_flat_branches(self):
        tree = parse_source(
            _wrap(
                "IF a THEN x := 1\n"
                "ELSIF b THEN x := 2\n"
                "ELSIF c THEN x := 3\n"
                "ELSE x := 4\n"
                "END;"
            ),
            "modula2",
        )
        chain = find_nodes(tree, UniversalKind.BRANCH_STATEMENT)[0]
        branches = [c for c in chain.children if c.is_universal]
        assert len(branches) == 4
        heads = [b.children[0].label for b in branches]
        assert heads == ["IF", "ELSIF", "ELSIF", "ELSE"]
        with_condition = [
            bool(find_nodes(b, UniversalKind.CONDITION)) for b in branches
        ]
        assert with_condition == [True, True, True, False]

    def test_while_loop_shape(self):
        tree = parse_source(_wrap("WHILE a < b DO a := a + 1 END;"), "modula2")
        loop = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        assert loop.children[0].label == "WHILE"
        assert loop.children[1].kind is UniversalKind.CONDITION
        assert loop.children[-1].label == "END"

    def test_separator_semicolon_stays_outside_constructs(self):
        tree = parse_source(_wrap("WHILE a DO b := 1 END;\nc := 2"), "modula2")
        loop = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        assert loop.children[-1].label == "END"
        unit = find_nodes(tree, UniversalKind.FUNCTION_DECL)[0]
        loop_index = unit.children.index(loop)
        assert unit.children[loop_index + 1].label == ";"

    def test_repeat_until_single_loop(self):
        tree = parse_source(_wrap("REPEAT a := a - 1 UNTIL a = 0;"), "modula2")
        loops = find_nodes(tree, UniversalKind.LOOP_STATEMENT)
        assert len(loops) == 1
        labels = [c.label for c in loops[0].children]
        assert labels[0] == "REPEAT"
        assert "UNTIL" in labels
        assert loops[0].children[-1].kind is UniversalKind.CONDITION

    def test_for_loop_has_condition_on_bound(self):
        tree = parse_source(
            _wrap("FOR i := 1 TO n BY 2 DO x := x + i END;"), "modula2"
        )
        loop = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        conditions = [c for c in loop.children if c.kind is UniversalKind.CONDITION]
        assert len(conditions) == 1
        assert [n.label for n in conditions[0].children] == ["n"]

    def test_nested_procedures(self, corpus):
        _, tree = corpus["Features.mod"]
        units = find_nodes(tree, UniversalKind.FUNCTION_DECL)
        names = []
        for unit in units:
            for n in preorder(unit):
                if n.token_type == "identifier":
                    names.append(n.label)
                    break
        assert names == ["Classify", "Tally", "Bump"]
        # Bump nests inside Tally
        tally = units[1]
        assert find_nodes(tally, UniversalKind.FUNCTION_DECL) == [tally, units[2]]

    def test_quicksort_kind_counts(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        kinds = _kinds(tree)
        assert kinds[UniversalKind.FUNCTION_DECL] == 1
        assert kinds[UniversalKind.LOOP_STATEMENT] == 3
        assert kinds[UniversalKind.BRANCH_STATEMENT] == 3
        assert kinds[UniversalKind.BRANCH] == 3


class TestCommentAttachment:
    def test_leading_comment_attaches_to_root(self, corpus):
        text, tree = corpus["QuickSort.mod"]
        root_comments = [
            c.span.start_line for c in tree.root.children if c.token_type == "comment"
        ]
        assert root_comments == [3]

    def test_trailing_comment_does_not_stretch_loop(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        repeat = find_nodes(tree, UniversalKind.LOOP_STATEMENT)[0]
        span = subtree_span(repeat)
        assert (span.start_line, span.end_line) == (24, 38)
        unit = find_nodes(tree, UniversalKind.FUNCTION_DECL)[0]
        unit_comment_lines = sorted(
            c.span.start_line for c in unit.children if c.token_type == "comment"
        )
        assert unit_comment_lines == [20, 39]

    def test_interior_comment_attaches_inside_branch(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        branch = find_nodes(tree, UniversalKind.BRANCH)[0]
        comments = [c for c in branch.children if c.token_type == "comment"]
        assert [c.span.start_line for c in comments] == [32]


class TestInvariants:
    def test_token_preservation(self, corpus):
        for name in ("QuickSort.mod", "Features.mod"):
            text, tree = corpus[name]
            tokens = [t for t in lex(text, "modula2") if t.token_type != "comment"]
            concrete = [
                n for n in preorder(tree.root)
                if n.span is not None and n.token_type != "comment"
            ]
            assert [t.label for t in tokens] == [n.label for n in concrete]

    def test_parse_is_deterministic(self, corpus):
        text, tree = corpus["QuickSort.mod"]
        again = parse_source(text, "modula2", source_path="QuickSort.mod")
        assert same_tree(again, tree)


class TestErrors:
    @pytest.mark.parametrize(
        "statement,message,col",
        [
            ("a := F(b];", "expected ')', found ']'", 9),
            ("a := F(G[b)];", "expected ']', found ')'", 11),
            ("WHILE F(a] DO a := 1 END;", "expected ')', found ']'", 10),
        ],
    )
    def test_closer_must_match_its_opener(self, statement, message, col):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap(statement), "modula2")
        assert str(info.value) == message
        assert info.value.span[:2] == (4, col)

    def test_missing_then(self):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap("IF a ; THEN x := 1 END;"), "modula2")
        assert info.value.span is not None

    def test_missing_end_reports_position(self):
        with pytest.raises(ParseError):
            parse_source("MODULE T;\nBEGIN\nx := 1\nEND T", "modula2")

    def test_statement_cannot_start_with_operator(self):
        with pytest.raises(ParseError):
            parse_source(_wrap(":= 1;"), "modula2")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_source("", "modula2")

    def test_trailing_input_after_module(self):
        with pytest.raises(ParseError):
            parse_source("MODULE T;\nEND T.\nextra", "modula2")

    def test_error_span_points_at_offender(self):
        with pytest.raises(ParseError) as info:
            parse_source("MODULE T\nEND T.", "modula2")
        # the missing ';' is discovered at END on line 2
        assert info.value.span.start_line == 2
