"""Java frontend: universal-node shapes and parse errors."""

from __future__ import annotations

from collections import Counter

import pytest

from ecstmetrics import parse_source
from ecstmetrics.errors import ParseError
from ecstmetrics.frontends import lex
from ecstmetrics.frontends.java import JavaParser
from ecstmetrics.tree import UniversalKind
from oracles import nested, nodes_of, preorder, same_tree


def _wrap(statements: str) -> str:
    return f"class T {{\n    static void m(int a) {{\n{statements}\n    }}\n}}\n"


def _kinds(tree):
    return Counter(n.kind for n in preorder(tree) if n.kind is not None)


class TestStructure:
    def test_do_while_is_one_loop(self):
        tree = parse_source(_wrap("do { a++; } while (a < 10);"), "javaoo")
        loops = nodes_of(tree, UniversalKind.LOOP_STATEMENT)
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
        chains = nodes_of(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 1
        branches = chains[0].children
        assert all(b.kind is UniversalKind.BRANCH for b in branches)
        assert len(branches) == 3
        assert [c.label for c in branches[1].children[:2]] == ["else", "if"]
        with_condition = [
            bool(nodes_of(b, UniversalKind.CONDITION)) for b in branches
        ]
        assert with_condition == [True, True, False]

    def test_dangling_else_binds_to_inner_if(self):
        tree = parse_source(
            _wrap("if (a > 0) if (a > 1) x(); else y();"), "javaoo"
        )
        chains = nodes_of(tree, UniversalKind.BRANCH_STATEMENT)
        assert len(chains) == 2
        outer, inner = chains
        assert len(outer.children) == 1
        assert len(inner.children) == 2
        assert inner.children[1].children[0].label == "else"

    def test_while_condition_keeps_parentheses(self):
        tree = parse_source(_wrap("while (a < 10) a++;"), "javaoo")
        cond = nodes_of(tree, UniversalKind.CONDITION)[0]
        assert cond.children[0].label == "("
        assert cond.children[-1].label == ")"

    def test_for_condition_is_bare_test(self):
        tree = parse_source(
            _wrap("for (k = 0; k < n; k++) { a += k; }"), "javaoo"
        )
        loop = nodes_of(tree, UniversalKind.LOOP_STATEMENT)[0]
        cond = nodes_of(loop, UniversalKind.CONDITION)[0]
        assert [n.label for n in cond.children] == ["k", "<", "n"]

    def test_headless_for_has_no_condition(self):
        tree = parse_source(
            _wrap("for (;;) { if (a > 9) break; a++; }"), "javaoo"
        )
        loop = nodes_of(tree, UniversalKind.LOOP_STATEMENT)[0]
        direct = [c for c in loop.children if c.kind is UniversalKind.CONDITION]
        assert direct == []
        # the nested if still owns one
        assert len(nodes_of(loop, UniversalKind.CONDITION)) == 1

    def test_method_and_field_members(self):
        tree = parse_source(
            "class T {\n    static int limit = 10;\n    void go() { }\n}\n",
            "javaoo",
        )
        units = nodes_of(tree, UniversalKind.FUNCTION_DECL)
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
        first = nested(tree).children[0]
        assert first.token_type == "comment"
        start_line, _, _, _ = first.span
        assert start_line == 1

    def test_method_body_comments(self, corpus):
        _, tree = corpus["QuickSort.java"]
        unit = nodes_of(tree, UniversalKind.FUNCTION_DECL)[0]
        comments = [c for c in unit.children if c.token_type == "comment"]
        assert [line for line, _, _, _ in (c.span for c in comments)] == [8, 25]

    def test_swap_comment_sits_inside_branch(self, corpus):
        _, tree = corpus["QuickSort.java"]
        branch = nodes_of(tree, UniversalKind.BRANCH)[0]
        comments = [c for c in branch.children if c.token_type == "comment"]
        assert [line for line, _, _, _ in (c.span for c in comments)] == [16]

    def test_attachment_is_linear_in_a_flat_body(self):
        # Every comment of one flat body goes into the same run of
        # events: inserting them one at a time would move n * comments
        # events.  The merge grows the list once and then writes each
        # event at most once where it ends, from the back, so the writes
        # are at most the final length plus one per new slot.
        n = 2_000
        parser = JavaParser(lex(_wrap("x = x + i; // c\n" * n), "javaoo"), "javaoo", "T.java")
        parser._put(UniversalKind.COMPILATION_UNIT)
        parser.parse_compilation_unit()
        parser._put(None)
        events = parser.events = _WriteCountingList(parser.events)
        parser._attach_comments()
        assert sum(type(e) is tuple and e[1] == "comment" for e in events) == n
        assert events.written <= len(events) + n


class _WriteCountingList(list):
    """A list that counts the elements each of its operations writes,
    shifted ones included."""

    written = 0

    def insert(self, index, item):
        start = min(max(index + len(self) if index < 0 else index, 0), len(self))
        self.written += len(self) - start + 1
        super().insert(index, item)

    def append(self, item):
        self.written += 1
        super().append(item)

    def extend(self, items):
        items = list(items)
        self.written += len(items)
        super().extend(items)

    def __iadd__(self, items):
        self.extend(items)
        return self

    def pop(self, index=-1):
        self.written += len(self) - (index % len(self)) - 1 if self else 0
        return super().pop(index)

    def __setitem__(self, index, value):
        if isinstance(index, slice):
            value = list(value)
            start, stop, _ = index.indices(len(self))
            # elements after a slice that changes length shift too
            shifted = len(self) - stop if len(value) != stop - start else 0
            self.written += len(value) + shifted
        else:
            self.written += 1
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self.written += len(self)
        super().__delitem__(index)


class TestInvariants:
    def test_token_preservation(self, corpus):
        for name in ("QuickSort.java", "Features.java"):
            text, tree = corpus[name]
            tokens = [t for t in lex(text, "javaoo") if t[1] != "comment"]
            concrete = [
                n for n in preorder(tree)
                if n.kind is None and n.token_type != "comment"
            ]
            assert tokens == concrete

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

    @pytest.mark.parametrize(
        "statement,keyword,col",
        [
            ("try { if (a) { b(); } } catch (E e) { c(); }", "if", 7),
            ("x = f(() -> { while (a) { } });", "while", 15),
            ("r = () -> { for (;;) { } };", "for", 13),
            ("final class L { void f() { } }", "class", 7),
            ("x = y else z = 1;", "else", 7),
        ],
    )
    def test_construct_inside_a_flat_statement(self, statement, keyword, col):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap(statement), "javaoo")
        assert str(info.value) == f"{keyword!r} inside a flat statement"
        assert info.value.span[:2] == (3, col)

    # A ";" inside braces of a flat statement: the statements of an
    # anonymous class or a lambda body, whose methods would get no row.
    @pytest.mark.parametrize(
        "statement,col",
        [
            ("Runnable r = new Runnable() { public void run() { x = 1; } };", 56),
            ("f(x -> { y = 2; });", 15),
            ("g(new int[] { 1 }, () -> { return; });", 34),
        ],
    )
    def test_statement_inside_braces_of_a_flat_statement(self, statement, col):
        with pytest.raises(ParseError) as info:
            parse_source(_wrap(statement), "javaoo")
        assert str(info.value) == "';' inside a flat statement"
        assert info.value.span[:2] == (3, col)

    def test_anonymous_class_field_is_an_error(self):
        source = "class A {\n  Runnable r = new Runnable() { void run() { x(); } };\n}\n"
        with pytest.raises(ParseError) as info:
            parse_source(source, "javaoo")
        assert str(info.value) == "';' inside a flat statement"
        assert info.value.span[:2] == (2, 49)

    def test_array_initializers_stay_flat(self):
        source = (
            "class A {\n  int[] a = { 1, 2 };\n"
            "  void m() {\n    int[][] b = {{1}, {2, 3}};\n    f(new int[] { 4 });\n  }\n}\n"
        )
        tree = parse_source(source, "javaoo")
        assert _kinds(tree) == {
            UniversalKind.COMPILATION_UNIT: 1,
            UniversalKind.FUNCTION_DECL: 1,
        }

    def test_class_literal_stays_flat(self):
        tree = parse_source(_wrap("c = A.class; f(B.class, 1);"), "javaoo")
        assert _kinds(tree) == {
            UniversalKind.COMPILATION_UNIT: 1,
            UniversalKind.FUNCTION_DECL: 1,
        }

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
