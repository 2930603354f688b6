"""Core tree model: spans, construction, traversal, validation."""

from __future__ import annotations

import pytest

from ecstmetrics.errors import MalformedTreeError
from ecstmetrics.tree import (
    EcstNode,
    EcstTree,
    SourceSpan,
    UniversalKind,
    assign_node_ids,
    find_nodes,
    preorder,
    validate_tree,
    walk,
)
from oracles import subtree_span


def _tok(lexeme, token_type="identifier", line=1, col=1, end_col=None):
    end = end_col if end_col is not None else col + len(lexeme) - 1
    return EcstNode.concrete(lexeme, token_type, SourceSpan(line, col, line, end))


def _unit(children):
    return EcstNode.universal(UniversalKind.FUNCTION_DECL, children)


def _tree(root_children, total_lines=1):
    root = EcstNode.universal(UniversalKind.COMPILATION_UNIT, root_children)
    assign_node_ids(root)
    return EcstTree(root=root, source_path="t", language_id="modula2", total_lines=total_lines)


class TestSourceSpan:
    def test_single_position(self):
        span = SourceSpan(3, 7, 3, 7)
        assert span.start_line == span.end_line == 3

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError):
            SourceSpan(0, 1, 1, 1)
        with pytest.raises(ValueError):
            SourceSpan(1, 0, 1, 1)

    def test_rejects_reversed_lines(self):
        with pytest.raises(ValueError):
            SourceSpan(4, 1, 3, 1)

    def test_rejects_reversed_cols_on_same_line(self):
        with pytest.raises(ValueError):
            SourceSpan(2, 9, 2, 5)

    def test_multiline_allows_smaller_end_col(self):
        span = SourceSpan(1, 10, 2, 2)
        assert span.end_line == 2


class TestNodeConstruction:
    def test_universal_label_matches_kind(self):
        node = EcstNode.universal(UniversalKind.LOOP_STATEMENT, [])
        assert node.label == "LOOP_STATEMENT"
        assert node.is_universal

    def test_concrete_carries_token_fields(self):
        node = _tok("WHILE", "keyword")
        assert not node.is_universal
        assert node.token_type == "keyword"
        assert node.span.end_col == 5

    def test_equality_ignores_node_id_and_token_index(self):
        a = _tok("x")
        b = _tok("x")
        a.node_id = 3
        b.node_id = 9
        assert a == b


class TestTraversal:
    def test_preorder_order(self):
        inner = _unit([_tok("f"), _tok("(", "punctuation", col=2), _tok(")", "punctuation", col=3)])
        tree = _tree([_tok("MODULE", "keyword"), inner])
        labels = [n.label for n in preorder(tree.root)]
        assert labels == ["COMPILATION_UNIT", "MODULE", "FUNCTION_DECL", "f", "(", ")"]

    def test_find_nodes(self):
        inner = _unit([_tok("f")])
        tree = _tree([inner])
        assert find_nodes(tree.root, UniversalKind.FUNCTION_DECL) == [inner]

    def test_assign_node_ids_is_preorder(self):
        inner = _unit([_tok("f")])
        tree = _tree([_tok("a"), inner])
        ids = [n.node_id for n in preorder(tree.root)]
        assert ids == [0, 1, 2, 3]


class TestWalk:
    def test_token_ranges_with_exit_markers(self):
        inner = _unit([_tok("f", col=3), _tok("(", "punctuation", col=4)])
        tree = _tree([_tok("a"), inner, _tok(";", "punctuation", col=5)])
        events = [(n.label, lo, hi) for n, lo, hi in walk(tree.root)]
        assert events == [
            ("COMPILATION_UNIT", 0, None),
            ("a", 0, 1),
            ("FUNCTION_DECL", 1, None),
            ("f", 1, 2),
            ("(", 2, 3),
            ("FUNCTION_DECL", 1, 3),
            (";", 3, 4),
            ("COMPILATION_UNIT", 0, 4),
        ]

    def test_empty_universal_has_empty_range(self):
        cond = EcstNode.universal(UniversalKind.CONDITION, [])
        events = [(n.label, lo, hi) for n, lo, hi in walk(cond)]
        assert events == [("CONDITION", 0, None), ("CONDITION", 0, 0)]

    def test_deep_nesting_needs_no_recursion(self):
        node = _tok("x")
        for _ in range(5000):
            node = EcstNode.universal(UniversalKind.LOOP_STATEMENT, [node])
        *_, (last, lo, hi) = walk(node)
        assert (last, lo, hi) == (node, 0, 1)


class TestSubtreeSpan:
    def test_span_covers_min_and_max(self):
        node = _unit([_tok("f", line=2, col=5), _tok("g", line=4, col=1)])
        span = subtree_span(node)
        assert (span.start_line, span.start_col) == (2, 5)
        assert (span.end_line, span.end_col) == (4, 1)

    def test_span_of_single_token(self):
        node = _tok("END", "keyword", line=7, col=1)
        span = subtree_span(node)
        assert (span.start_line, span.end_line) == (7, 7)

    def test_same_line_ordering_uses_columns(self):
        node = _unit([_tok("b", line=1, col=9), _tok("a", line=1, col=2)])
        span = subtree_span(node)
        assert (span.start_col, span.end_col) == (2, 9)

    def test_empty_universal_raises(self):
        node = EcstNode.universal(UniversalKind.CONDITION, [])
        with pytest.raises(MalformedTreeError):
            subtree_span(node)


class TestValidation:
    def test_accepts_wellformed(self, corpus):
        for _, tree in corpus.values():
            validate_tree(tree)

    def test_rejects_non_unit_root(self):
        root = EcstNode.universal(UniversalKind.BRANCH, [_tok("x")])
        assign_node_ids(root)
        tree = EcstTree(root=root, source_path="t", language_id="modula2", total_lines=1)
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_universal_without_tokens(self):
        tree = _tree([EcstNode.universal(UniversalKind.BRANCH_STATEMENT, [])])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_condition_outside_guarded_construct(self):
        cond = EcstNode.universal(UniversalKind.CONDITION, [_tok("x")])
        tree = _tree([cond])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_accepts_condition_under_branch(self):
        cond = EcstNode.universal(UniversalKind.CONDITION, [_tok("x", col=4)])
        branch = EcstNode.universal(
            UniversalKind.BRANCH, [_tok("IF", "keyword"), cond]
        )
        chain = EcstNode.universal(
            UniversalKind.BRANCH_STATEMENT, [branch, _tok("END", "keyword", col=9)]
        )
        validate_tree(_tree([chain]))

    def test_rejects_stray_branch_statement_child(self):
        loop = EcstNode.universal(
            UniversalKind.LOOP_STATEMENT, [_tok("WHILE", "keyword")]
        )
        chain = EcstNode.universal(UniversalKind.BRANCH_STATEMENT, [loop])
        tree = _tree([chain])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_function_without_identifier(self):
        unit = _unit([_tok("BEGIN", "keyword")])
        tree = _tree([unit])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_bad_token_type(self):
        node = EcstNode(label="x", token_type="mystery", span=SourceSpan(1, 1, 1, 1))
        tree = _tree([node])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_concrete_with_children(self):
        bad = _tok("x")
        bad.children.append(_tok("y", col=2))
        tree = _tree([bad])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_swapped_tokens(self):
        tree = _tree([_tok("b", col=3), _tok("a", col=1)])
        with pytest.raises(MalformedTreeError, match="does not start after"):
            validate_tree(tree)

    def test_rejects_overlapping_tokens(self):
        tree = _tree([_tok("abc", col=1), _tok("cd", col=3)])
        with pytest.raises(MalformedTreeError, match="does not start after"):
            validate_tree(tree)

    def test_rejects_token_at_the_same_position(self):
        tree = _tree([_tok("x"), _tok("x")])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_order_spans_lines_and_nesting(self):
        inner = _unit([_tok("f", line=2, col=1), _tok("g", line=3, col=1)])
        tree = _tree([_tok("a", line=1, col=9), inner, _tok("z", line=3, col=2)])
        validate_tree(tree)
        tree = _tree([_tok("a", line=2, col=1), _unit([_tok("f", line=1, col=5)])])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_duplicate_node_ids(self):
        tree = _tree([_tok("x"), _tok("y", col=2)])
        for node in preorder(tree.root):
            node.node_id = 0
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)
