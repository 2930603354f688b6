"""Core tree model: spans, construction, the event list, validation."""

from __future__ import annotations

import pytest

import generators
from ecstmetrics import metrics, xmlio
from ecstmetrics import tree as tree_module
from ecstmetrics.errors import LexError, MalformedTreeError, ParseError, TreeXmlError
from ecstmetrics.frontends import lex, parse_source
from ecstmetrics.metrics import measure_tree
from ecstmetrics.tree import EcstTree, SourceSpan, UniversalKind, validate_tree
from ecstmetrics.xmlio import parse_tree_xml, serialize_tree
from oracles import Leaf, Nested, events_of, nested, preorder, same_tree, subtree_span, tree_of

UNIT = UniversalKind.COMPILATION_UNIT
# An XML declaration: no line of the writer's form, so expat reads the rest.
DECLARATION = '<?xml version="1.0"?>\n'


def _tok(lexeme, token_type="identifier", line=1, col=1, end_col=None):
    """A token of a nested view; events_of gives the tree its tuple."""
    end = end_col if end_col is not None else col + len(lexeme) - 1
    return Leaf(lexeme, token_type, line, col, line, end)


def _label(event):
    """A token's lexeme or a kind's spelling; None for an exit."""
    if event is None:
        return None
    return event[0] if type(event) is tuple else event.value


def _unit(children):
    return Nested(UniversalKind.FUNCTION_DECL, children)


def _tree(root_children, total_lines=1):
    root = Nested(UniversalKind.COMPILATION_UNIT, root_children)
    return tree_of(root, total_lines=total_lines)


def _rejected_on_reload(tree_or_doc, match):
    """The rules on one node's own fields belong to the XML reader: a tree
    that breaks one is written out as it is, and cannot be read back."""
    doc = tree_or_doc if isinstance(tree_or_doc, str) else serialize_tree(tree_or_doc)
    with pytest.raises(TreeXmlError, match=match):
        parse_tree_xml(doc)


class TestSourceSpan:
    def test_single_position(self):
        span = SourceSpan(3, 7, 3, 7)
        assert span.start_line == span.end_line == 3

    def test_rejects_zero_based(self):
        _rejected_on_reload(_tree([_tok("x", line=0)]), "'line' must be >= 1")
        _rejected_on_reload(_tree([_tok("x", col=0, end_col=1)]), "'col' must be >= 1")

    def test_rejects_reversed_lines(self):
        node = Leaf("x", "identifier", 4, 1, 3, 1)
        _rejected_on_reload(_tree([node], total_lines=4), "span start after end")

    def test_rejects_reversed_cols_on_same_line(self):
        node = Leaf("x", "identifier", 2, 9, 2, 5)
        _rejected_on_reload(_tree([node], total_lines=2), "span start after end")

    def test_multiline_allows_smaller_end_col(self):
        span = SourceSpan(1, 10, 2, 2)
        assert span.end_line == 2

    @pytest.mark.parametrize(
        "source,language,error",
        [
            ("a := 1;\nb ? 2;", "modula2", LexError),
            ("x := 1;\n(* open", "modula2", LexError),
            ("class T {\n  // \x00\n}\n", "javaoo", LexError),
            ("class T {\n  void m() { do { } whale (x); }\n}\n", "javaoo", ParseError),
            ("MODULE M;\nBEGIN\n  IF x THEN\nEND M.\n", "modula2", ParseError),
            ("class T {\n  void m() {\n", "javaoo", ParseError),
            ("", "javaoo", ParseError),
        ],
    )
    def test_error_span_is_a_source_span(self, source, language, error):
        with pytest.raises(error) as info:
            parse_source(source, language)
        assert type(info.value.span) is SourceSpan


class TestNodeConstruction:
    def test_universal_label_matches_kind(self):
        # A universal event is its kind, found by its spelling too, which
        # is the name the XML writes.
        for kind in UniversalKind:
            assert kind.value == kind.name and UniversalKind(kind.value) is kind
            tree = _tree([Nested(kind, [_tok("x")])])
            assert tree.events[1] is kind
            assert f'<node kind="{kind.name}">' in serialize_tree(tree)

    def test_concrete_carries_token_fields(self):
        (token,) = lex("  WHILE", "modula2")
        assert token == ("WHILE", "keyword", 1, 3, 1, 7)
        label, token_type, start_line, start_col, end_line, end_col = token
        assert SourceSpan(start_line, start_col, end_line, end_col) == (1, 3, 1, 7)

    def test_tokens_are_slotted_leaves(self, corpus):
        # One plain tuple per token: no children and no instance __dict__.
        for name, (text, tree) in corpus.items():
            lexed = lex(text, tree.language_id)
            reloaded = parse_tree_xml(serialize_tree(tree))
            tokens = [e for e in reloaded.events if type(e) is tuple]
            assert len(tokens) == len(lexed), name
            for tok in lexed + tokens:
                assert type(tok) is tuple and len(tok) == 6
                assert not hasattr(tok, "children")
                assert not hasattr(tok, "__dict__")


class TestWalk:
    """A tree is its events in preorder: a universal node at its entry,
    each token, and None at its exit."""

    def test_nodes_in_preorder_with_exit_markers(self):
        tree = parse_source("MODULE M;\nPROCEDURE P;\nEND P;\nEND M.\n", "modula2")
        assert [_label(n) for n in tree.events] == [
            "COMPILATION_UNIT",
            "MODULE", "M", ";",
            "FUNCTION_DECL",
            "PROCEDURE", "P", ";", "END", "P", ";",
            None,
            "END", "M", ".",
            None,
        ]
        assert tree.events[0] is UNIT
        assert tree.events[4] is UniversalKind.FUNCTION_DECL
        assert tree.events[1] == ("MODULE", "keyword", 1, 1, 1, 6)

    def test_empty_universal_is_followed_by_its_exit(self):
        cond = Nested(UniversalKind.CONDITION, [])
        loop = Nested(UniversalKind.LOOP_STATEMENT, [cond, _tok("x")])
        tree = _tree([loop])
        labels = [_label(n) for n in tree.events]
        assert labels == [
            "COMPILATION_UNIT", "LOOP_STATEMENT", "CONDITION", None, "x", None, None
        ]
        assert '<node kind="CONDITION">\n      </node>\n' in serialize_tree(tree)
        with pytest.raises(MalformedTreeError, match="'CONDITION' has no concrete"):
            validate_tree(tree)

    def test_deep_nesting_needs_no_recursion(self):
        # Every pass reads the flat events: no pass recurses on depth.
        loop = UniversalKind.LOOP_STATEMENT
        events = [UNIT, *[loop] * 5000, ("x", "identifier", 1, 1, 1, 1), *[None] * 5001]
        tree = EcstTree(events, "t", "modula2", 1)
        validate_tree(tree)
        assert same_tree(parse_tree_xml(serialize_tree(tree)), tree)
        rows = measure_tree(tree).elements
        assert len(rows) == 5000 and rows[0].cc == 5000
        assert events_of(nested(tree)) == events

    def test_one_item_per_node_and_one_exit_per_universal_node(self, corpus):
        for name, (_, tree) in corpus.items():
            nodes = list(preorder(tree))
            universal = sum(n.kind is not None for n in nodes)
            assert len(tree.events) == len(nodes) + universal, name
            assert tree.events.count(None) == universal, name
            tokens = [n for n in nodes if n.kind is None]
            assert [n for n in tree.events if type(n) is tuple] == tokens, name
            assert events_of(nested(tree)) == tree.events, name


_TOKEN_FIELDS = (str, str, int, int, int, int)


def _shape_faults(events) -> list[str]:
    """How events break the shape every tree's events have, if they do:
    a UniversalKind member at each entry, each token a plain tuple of a
    str label and type and four int positions, and None at each exit."""
    faults = []
    if not events or events[0] is not UNIT:
        faults.append("the first event is not COMPILATION_UNIT")
    depth = 0  # open universal nodes
    for index, node in enumerate(events):
        if node is None:
            depth -= 1
            if depth < 0 or depth == 0 and index != len(events) - 1:
                faults.append(f"event {index} closes the root before the end")
                break
        elif type(node) is UniversalKind:
            depth += 1
        elif type(node) is not tuple:
            faults.append(f"event {index} is a {type(node).__name__}")
        elif tuple(map(type, node)) != _TOKEN_FIELDS:
            faults.append(f"token {index} holds {tuple(type(f).__name__ for f in node)}")
    if depth:
        faults.append(f"{depth} nodes left open")
    return faults


def _programs(corpus):
    """(language, source) of the fixtures and generator seeds 0-199."""
    programs = [(tree.language_id, text) for text, tree in corpus.values()]
    return programs + [
        (language, generators.generate(language, seed).source)
        for language in ("modula2", "javaoo")
        for seed in range(200)
    ]


class TestEventShape:
    """Every parsed and every reloaded tree holds its events in one shape:
    COMPILATION_UNIT first and its None last, entries and Nones balanced,
    each universal event a UniversalKind member and each token a plain
    tuple of six fields."""

    def test_parsed_and_reloaded_trees(self, corpus, monkeypatch):
        readers = []  # the source of each reload: line reader or expat
        line_events = xmlio._line_events

        def spied(pieces, share=False):
            readers.append("lines")
            return line_events(pieces, share)

        monkeypatch.setattr(xmlio, "_line_events", spied)
        for language, source in _programs(corpus):
            tree = parse_source(source, language)
            doc = serialize_tree(tree)
            del readers[:]
            reloaded = [parse_tree_xml(doc), parse_tree_xml(DECLARATION + doc)]
            assert readers == ["lines", "lines"]  # the second one declined
            assert reloaded[1].events == reloaded[0].events == tree.events
            for got in (tree, *reloaded):
                assert _shape_faults(got.events) == [], (language, source[:40])

    def test_the_check_sees_each_fault(self):
        x = ("x", "identifier", 1, 1, 1, 1)
        assert _shape_faults([UNIT, x, None]) == []
        assert _shape_faults([x, None]) != []
        assert _shape_faults([UNIT, x, None, None]) != []
        assert _shape_faults([UNIT, x, None, x]) != []
        assert _shape_faults([UNIT, x]) != []
        assert _shape_faults([UNIT, [x], None]) != []
        assert _shape_faults([UNIT, list(x), None]) != []
        assert _shape_faults([UNIT, Leaf(*x), None]) != []
        assert _shape_faults([UNIT, ("x", "identifier", "1", 1, 1, 1), None]) != []
        assert _shape_faults([UNIT, ("x", "identifier", 1, 1, 1), None]) != []
        assert _shape_faults(["COMPILATION_UNIT", x, None]) != []
        assert _shape_faults([UNIT, "BRANCH", x, None, None]) != []


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
        node = Nested(UniversalKind.CONDITION, [])
        with pytest.raises(MalformedTreeError):
            subtree_span(node)


class TestValidation:
    def test_accepts_wellformed(self, corpus):
        for _, tree in corpus.values():
            validate_tree(tree)

    def test_accepts_hand_built_tree(self):
        unit = _unit([_tok("PROCEDURE", "keyword"), _tok("P", col=11)])
        validate_tree(_tree([unit, _tok(";", "punctuation", col=12)]))

    def test_rejects_non_unit_root(self):
        tree = tree_of(Nested(UniversalKind.BRANCH, [_tok("x")]))
        _rejected_on_reload(tree, "top-level <node> must be COMPILATION_UNIT")

    def test_rejects_universal_without_tokens(self):
        tree = _tree([Nested(UniversalKind.BRANCH_STATEMENT, [])])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_condition_outside_guarded_construct(self):
        cond = Nested(UniversalKind.CONDITION, [_tok("x")])
        tree = _tree([cond])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_accepts_condition_under_branch(self):
        cond = Nested(UniversalKind.CONDITION, [_tok("x", col=4)])
        branch = Nested(
            UniversalKind.BRANCH, [_tok("IF", "keyword"), cond]
        )
        chain = Nested(
            UniversalKind.BRANCH_STATEMENT, [branch, _tok("END", "keyword", col=9)]
        )
        validate_tree(_tree([chain]))

    def test_rejects_stray_branch_statement_child(self):
        loop = Nested(
            UniversalKind.LOOP_STATEMENT, [_tok("WHILE", "keyword")]
        )
        chain = Nested(UniversalKind.BRANCH_STATEMENT, [loop])
        tree = _tree([chain])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_branch_statement_children_are_checked_at_their_entry(self):
        # A CONDITION right inside a BRANCH_STATEMENT is worded as the
        # chain's child before its own place is checked; an empty BRANCH
        # before a LOOP_STATEMENT is the first fault in document order.
        cond = Nested(UniversalKind.CONDITION, [_tok("x")])
        chain = Nested(UniversalKind.BRANCH_STATEMENT, [cond])
        with pytest.raises(MalformedTreeError) as info:
            validate_tree(_tree([chain]))
        assert str(info.value) == "BRANCH_STATEMENT has a universal child of kind CONDITION"
        empty = Nested(UniversalKind.BRANCH, [])
        loop = Nested(UniversalKind.LOOP_STATEMENT, [_tok("WHILE", "keyword")])
        chain = Nested(UniversalKind.BRANCH_STATEMENT, [empty, loop])
        with pytest.raises(MalformedTreeError) as info:
            validate_tree(_tree([chain]))
        assert str(info.value) == "universal node 'BRANCH' has no concrete descendants"

    def test_rejects_function_without_identifier(self):
        unit = _unit([_tok("BEGIN", "keyword")])
        tree = _tree([unit])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)

    def test_rejects_bad_token_type(self):
        node = Leaf("x", "mystery", 1, 1, 1, 1)
        _rejected_on_reload(_tree([node]), "unknown token type 'mystery'")

    def test_rejects_concrete_with_children(self):
        # The writer never descends into a token, so the child is put in by hand.
        doc = serialize_tree(_tree([_tok("x")])).replace(
            ">x</token>",
            '>x<token type="identifier" line="1" col="2" endLine="1" endCol="2">y'
            "</token></token>",
        )
        _rejected_on_reload(doc, "<token> must not contain elements")

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

    def test_rejects_a_token_ending_after_the_last_line(self):
        # A multi-line token on lines 2-3 of a 2-line tree; ending on the
        # last line itself is allowed.
        comment = Leaf("(*\n*)", "comment", 2, 1, 3, 2)
        tokens = [_tok("m", line=1), comment]
        validate_tree(_tree([_unit(tokens)], total_lines=3))
        with pytest.raises(MalformedTreeError) as info:
            validate_tree(_tree([_unit(tokens)], total_lines=2))
        assert str(info.value) == "last token ends on line 3, after the last line 2"

    def test_order_spans_lines_and_nesting(self):
        inner = _unit([_tok("f", line=2, col=1), _tok("g", line=3, col=1)])
        tree = _tree(
            [_tok("a", line=1, col=9), inner, _tok("z", line=3, col=2)], total_lines=3
        )
        validate_tree(tree)
        tree = _tree([_tok("a", line=2, col=1), _unit([_tok("f", line=1, col=5)])])
        with pytest.raises(MalformedTreeError):
            validate_tree(tree)


class TestPerEventLoops:
    """No per-event loop reads a kind through the Enum class or .value.
    On Python 3.11 each read such as UniversalKind.BRANCH takes
    EnumType's __getattr__, about 110 ns against 8 ns for a module
    global, and each kind.value is a Python-level property, about
    220 ns.  The loops read tree's module names and its SPELLING table."""

    @pytest.mark.parametrize(
        "function",
        [
            tree_module._checked,
            metrics._fold,
            metrics._named,
            xmlio.serialize_tree,
            xmlio._line_events,
        ],
        ids=lambda function: function.__qualname__,
    )
    def test_no_enum_machinery(self, function):
        names = function.__code__.co_names
        assert "UniversalKind" not in names and "value" not in names

    def test_module_names_are_the_kinds(self):
        kinds = (
            tree_module.UNIT,
            tree_module.FUNCTION,
            tree_module.LOOP,
            tree_module.BRANCHING,
            tree_module.BRANCH,
            tree_module.CONDITION,
        )
        assert kinds == tuple(UniversalKind)
        assert tree_module.SPELLING == {kind: kind.value for kind in UniversalKind}
