"""Modula-2 frontend: universal-node shapes and parse errors."""

from __future__ import annotations

from collections import Counter

import pytest

from ecstmetrics import parse_source
from ecstmetrics.cli import main
from ecstmetrics.errors import ParseError
from ecstmetrics.frontends import lex
from ecstmetrics.tree import UniversalKind
from oracles import nested, nodes_of, preorder, same_tree, subtree_span


def _wrap(statements: str) -> str:
    return f"MODULE T;\nPROCEDURE P;\nBEGIN\n{statements}\nEND P;\nEND T.\n"


def _kinds(tree):
    return Counter(
        n.kind for n in preorder(tree) if n.kind is not None
    )


class TestStructure:
    def test_if_else_two_branches(self):
        tree = parse_source(
            _wrap("IF a > b THEN res := 1; ELSE res := 0; END;"), "modula2"
        )
        chains = nodes_of(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 1
        branches = [c for c in chains[0].children if c.kind is not None]
        assert [b.kind for b in branches] == [UniversalKind.BRANCH, UniversalKind.BRANCH]
        first_conditions = nodes_of(branches[0], UniversalKind.CONDITION)
        else_conditions = nodes_of(branches[1], UniversalKind.CONDITION)
        assert len(first_conditions) == 1
        assert len(else_conditions) == 0

    def test_minimal_procedure(self):
        tree = parse_source("PROCEDURE P; BEGIN END P;", "modula2")
        units = nodes_of(tree, UniversalKind.FUNCTION_DECL)
        assert len(units) == 1
        idents = [n.label for n in preorder(units[0]) if n.token_type == "identifier"]
        assert "P" in idents

    def test_if_keyword_sits_inside_first_branch(self):
        tree = parse_source(_wrap("IF a > b THEN x := 1 END;"), "modula2")
        chain = nodes_of(tree, UniversalKind.BRANCH_STATEMENT)[0]
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
        chain = nodes_of(tree, UniversalKind.BRANCH_STATEMENT)[0]
        branches = [c for c in chain.children if c.kind is not None]
        assert len(branches) == 4
        heads = [b.children[0].label for b in branches]
        assert heads == ["IF", "ELSIF", "ELSIF", "ELSE"]
        with_condition = [
            bool(nodes_of(b, UniversalKind.CONDITION)) for b in branches
        ]
        assert with_condition == [True, True, True, False]

    def test_while_loop_shape(self):
        tree = parse_source(_wrap("WHILE a < b DO a := a + 1 END;"), "modula2")
        loop = nodes_of(tree, UniversalKind.LOOP_STATEMENT)[0]
        assert loop.children[0].label == "WHILE"
        assert loop.children[1].kind is UniversalKind.CONDITION
        assert loop.children[-1].label == "END"

    def test_separator_semicolon_stays_outside_constructs(self):
        view = nested(parse_source(_wrap("WHILE a DO b := 1 END;\nc := 2"), "modula2"))
        loop = nodes_of(view, UniversalKind.LOOP_STATEMENT)[0]
        assert loop.children[-1].label == "END"
        unit = nodes_of(view, UniversalKind.FUNCTION_DECL)[0]
        loop_index = unit.children.index(loop)
        assert unit.children[loop_index + 1].label == ";"

    def test_repeat_until_single_loop(self):
        tree = parse_source(_wrap("REPEAT a := a - 1 UNTIL a = 0;"), "modula2")
        loops = nodes_of(tree, UniversalKind.LOOP_STATEMENT)
        assert len(loops) == 1
        labels = [c.label for c in loops[0].children]
        assert labels[0] == "REPEAT"
        assert "UNTIL" in labels
        assert loops[0].children[-1].kind is UniversalKind.CONDITION

    def test_for_loop_has_condition_on_bound(self):
        tree = parse_source(
            _wrap("FOR i := 1 TO n BY 2 DO x := x + i END;"), "modula2"
        )
        loop = nodes_of(tree, UniversalKind.LOOP_STATEMENT)[0]
        conditions = [c for c in loop.children if c.kind is UniversalKind.CONDITION]
        assert len(conditions) == 1
        assert [n.label for n in conditions[0].children] == ["n"]

    def test_nested_procedures(self, corpus):
        _, tree = corpus["Features.mod"]
        units = nodes_of(tree, UniversalKind.FUNCTION_DECL)
        names = []
        for unit in units:
            for n in preorder(unit):
                if n.token_type == "identifier":
                    names.append(n.label)
                    break
        assert names == ["Classify", "Tally", "Bump"]
        # Bump nests inside Tally
        tally = units[1]
        assert nodes_of(tally, UniversalKind.FUNCTION_DECL) == [tally, units[2]]

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
        comments = [c for c in nested(tree).children if c.token_type == "comment"]
        assert [line for line, _, _, _ in (c.span for c in comments)] == [3]

    def test_trailing_comment_does_not_stretch_loop(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        repeat = nodes_of(tree, UniversalKind.LOOP_STATEMENT)[0]
        span = subtree_span(repeat)
        assert (span.start_line, span.end_line) == (24, 38)
        unit = nodes_of(tree, UniversalKind.FUNCTION_DECL)[0]
        comments = [c for c in unit.children if c.token_type == "comment"]
        assert sorted(line for line, _, _, _ in (c.span for c in comments)) == [20, 39]

    def test_interior_comment_attaches_inside_branch(self, corpus):
        _, tree = corpus["QuickSort.mod"]
        branch = nodes_of(tree, UniversalKind.BRANCH)[0]
        comments = [c for c in branch.children if c.token_type == "comment"]
        assert [line for line, _, _, _ in (c.span for c in comments)] == [32]


class TestInvariants:
    def test_token_preservation(self, corpus):
        for name in ("QuickSort.mod", "Features.mod"):
            text, tree = corpus[name]
            tokens = [t for t in lex(text, "modula2") if t[1] != "comment"]
            concrete = [
                n for n in preorder(tree)
                if n.kind is None and n.token_type != "comment"
            ]
            assert tokens == concrete

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

    @pytest.mark.parametrize(
        "statement,keyword,col",
        [
            ("x := F(y) WHILE", "WHILE", 11),
            ("x := 1 IF a THEN y := 2 END;", "IF", 8),
            ("F(REPEAT)", "REPEAT", 3),
            ("x := y FOR", "FOR", 8),
            ("x := 1 PROCEDURE Q;", "PROCEDURE", 8),
            ("x := 1 MODULE Q;", "MODULE", 8),
        ],
    )
    def test_construct_inside_a_flat_statement(self, statement, keyword, col):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap(statement), "modula2")
        assert str(info.value) == f"{keyword!r} inside a flat statement"
        assert info.value.span[:2] == (4, col)

    def test_loop_is_rejected_where_it_starts(self, tmp_path, monkeypatch, capsys):
        # LOOP is outside the subset; read flat, its END would close the
        # procedure and the fault would be reported at the procedure's END.
        source = (
            "MODULE L;\nVAR x: INTEGER;\nPROCEDURE P;\nBEGIN\n  x := 0;\n"
            "  LOOP x := x + 1; EXIT END\nEND P;\nBEGIN\n  P\nEND L.\n"
        )
        with pytest.raises(ParseError) as info:
            parse_source(source, "modula2")
        assert str(info.value) == "LOOP statements are not supported"
        assert info.value.span == (6, 3, 6, 6)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.mod").write_text(source, encoding="utf-8")
        assert main(["run", "loop.mod"]) == 3
        assert capsys.readouterr().err == (
            "loop.mod:6:3: error: LOOP statements are not supported\n"
        )

    def test_procedure_types_stay_flat(self):
        source = (
            "MODULE T;\nTYPE F = PROCEDURE (INTEGER): BOOLEAN;\nVAR p: PROCEDURE;\n"
            "PROCEDURE P(f: F; g: PROCEDURE (CHAR));\nBEGIN\nEND P;\nEND T.\n"
        )
        assert _kinds(parse_source(source, "modula2")) == {
            UniversalKind.COMPILATION_UNIT: 1,
            UniversalKind.FUNCTION_DECL: 1,
        }

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

    # A unit that opens neither a MODULE nor a declaration: the message
    # names the token found there, and "empty" is left for a unit with no
    # token at all.
    @pytest.mark.parametrize(
        "source,message,span",
        [
            ("x := 1;\n", "expected 'MODULE' or a declaration, found 'x'", (1, 1, 1, 1)),
            ("(* c *)\nFOO BAR\n", "expected 'MODULE' or a declaration, found 'FOO'", (2, 1, 2, 3)),
            (
                "IMPLEMENTATION MODULE I;\nEND I.\n",
                "expected 'MODULE' or a declaration, found 'IMPLEMENTATION'",
                (1, 1, 1, 14),
            ),
            ("(* only a comment *)\n", "empty compilation unit", (1, 1, 1, 1)),
            ("", "empty compilation unit", (1, 1, 1, 1)),
        ],
    )
    def test_unit_message_names_what_it_found(
        self, tmp_path, monkeypatch, capsys, source, message, span
    ):
        with pytest.raises(ParseError) as info:
            parse_source(source, "modula2")
        assert (str(info.value), info.value.span) == (message, span)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "S.mod").write_text(source, encoding="utf-8")
        assert main(["run", "S.mod"]) == 3
        assert capsys.readouterr().err == f"S.mod:{span[0]}:{span[1]}: error: {message}\n"

    def test_trailing_input_after_module(self):
        with pytest.raises(ParseError):
            parse_source("MODULE T;\nEND T.\nextra", "modula2")

    def test_error_span_points_at_offender(self):
        with pytest.raises(ParseError) as info:
            parse_source("MODULE T\nEND T.", "modula2")
        # the missing ';' is discovered at END on line 2
        assert info.value.span.start_line == 2
