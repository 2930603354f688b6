"""eCST XML serialization, parsing, and schema diagnostics."""

from __future__ import annotations

import random

import pytest

import generators
from ecstmetrics import parse_source, xmlio
from ecstmetrics.cli import main
from ecstmetrics.errors import SourceIoError, TreeXmlError
from ecstmetrics.metrics import ElementMetrics, LocBundle, MetricsReport, measure_tree
from ecstmetrics.tree import EcstNode, EcstTree, SourceSpan, UniversalKind
from ecstmetrics.xmlio import (
    load_tree_file,
    parse_tree_xml,
    serialize_metrics,
    serialize_tree,
)
from oracles import reference_parse_tree_xml, same_tree

# A hand-built two-token tree; the serialized form below is frozen.
MINI_XML = (
    '<ecst source="Mini.mod" language="modula2" totalLines="1">\n'
    '  <node kind="COMPILATION_UNIT">\n'
    '    <node kind="FUNCTION_DECL">\n'
    '      <token type="keyword" line="1" col="1" endLine="1" endCol="9">PROCEDURE</token>\n'
    '      <token type="identifier" line="1" col="11" endLine="1" endCol="11">P</token>\n'
    "    </node>\n"
    "  </node>\n"
    "</ecst>\n"
)


def _mini_tree() -> EcstTree:
    unit = EcstNode.universal(
        UniversalKind.FUNCTION_DECL,
        [
            EcstNode.concrete("PROCEDURE", "keyword", SourceSpan(1, 1, 1, 9)),
            EcstNode.concrete("P", "identifier", SourceSpan(1, 11, 1, 11)),
        ],
    )
    root = EcstNode.universal(UniversalKind.COMPILATION_UNIT, [unit])
    return EcstTree(
        root=root, source_path="Mini.mod", language_id="modula2", total_lines=1
    )


class TestSerialize:
    def test_frozen_minimal_document(self):
        assert serialize_tree(_mini_tree()) == MINI_XML

    def test_serialization_is_deterministic(self, corpus):
        for _, tree in corpus.values():
            assert serialize_tree(tree) == serialize_tree(tree)

    def test_no_declaration_and_trailing_newline(self, corpus):
        for _, tree in corpus.values():
            doc = serialize_tree(tree)
            assert doc.startswith("<ecst ")
            assert doc.endswith("</ecst>\n")

    def test_markup_characters_escaped(self):
        tree = _mini_tree()
        tree.root.children[0].children.append(
            EcstNode.concrete("a<b&c", "operator", SourceSpan(1, 13, 1, 17))
        )
        doc = serialize_tree(tree)
        assert "a&lt;b&amp;c" in doc
        assert "a<b" not in doc


class TestRoundTrip:
    def test_mini_parses_back(self):
        tree = parse_tree_xml(MINI_XML)
        assert same_tree(tree, _mini_tree())
        assert serialize_tree(tree) == MINI_XML

    def test_corpus_round_trips(self, corpus):
        for _, tree in corpus.values():
            doc = serialize_tree(tree)
            again = parse_tree_xml(doc)
            assert same_tree(again, tree)
            assert serialize_tree(again) == doc

    def test_escaped_lexemes_survive(self):
        tree = _mini_tree()
        tree.root.children[0].children.append(
            EcstNode.concrete('"x<&>"', "literal", SourceSpan(1, 13, 1, 18))
        )
        again = parse_tree_xml(serialize_tree(tree))
        assert again.root.children[0].children[-1].label == '"x<&>"'

    def test_multiline_span_with_smaller_end_col(self):
        doc = MINI_XML.replace(
            'col="11" endLine="1" endCol="11"', 'col="11" endLine="2" endCol="2"'
        )
        tree = parse_tree_xml(doc)
        assert tree.root.children[0].children[1].span == SourceSpan(1, 11, 2, 2)
        assert serialize_tree(tree) == doc

    def test_bytes_and_str_inputs_agree(self):
        assert same_tree(parse_tree_xml(MINI_XML.encode()), parse_tree_xml(MINI_XML))
        # A non-ASCII lexeme before the fault: both are read as UTF-8.
        bad = MINI_XML.replace(">P</token>", ">\u00e9</token><")
        messages = []
        for doc in (bad, bad.encode()):
            with pytest.raises(TreeXmlError, match="not well-formed") as info:
                parse_tree_xml(doc)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


    def test_str_is_read_as_its_characters(self):
        # A declared encoding applies to bytes; a str is already decoded.
        doc = '<?xml version="1.0" encoding="latin-1"?>\n' + MINI_XML.replace(
            ">P</token>", ">\u00e9</token>"
        )
        token = parse_tree_xml(doc).root.children[0].children[1]
        assert token.label == "\u00e9"
        token = parse_tree_xml(doc.encode("latin-1")).root.children[0].children[1]
        assert token.label == "\u00e9"


class TestSchemaErrors:
    def _raises(self, doc: str, *needles: str):
        with pytest.raises(TreeXmlError) as info:
            parse_tree_xml(doc)
        for needle in needles:
            assert needle in str(info.value), str(info.value)

    def test_unknown_kind(self):
        self._raises(
            MINI_XML.replace("FUNCTION_DECL", "WIDGET"),
            "unknown universal kind",
            "'WIDGET'",
            "line 3",
        )

    def test_root_must_be_compilation_unit(self):
        doc = MINI_XML.replace('kind="COMPILATION_UNIT"', 'kind="BRANCH"')
        self._raises(doc, "COMPILATION_UNIT", "line 2")
        doc = MINI_XML.replace('kind="COMPILATION_UNIT"', 'kind="FUNCTION_DECL"')
        self._raises(doc, "top-level <node> must be COMPILATION_UNIT", "line 2")

    def test_unknown_token_type(self):
        self._raises(
            MINI_XML.replace('type="identifier"', 'type="wibble"'),
            "unknown token type",
            "line 5",
        )
        self._raises(
            MINI_XML.replace('type="keyword"', 'type="mystery"'),
            "unknown token type 'mystery'",
            "line 4",
        )

    def test_missing_span_attribute(self):
        self._raises(
            MINI_XML.replace(' endCol="9"', "", 1),
            "missing attribute 'endCol'",
            "<token>",
        )

    def test_non_integer_attribute(self):
        self._raises(
            MINI_XML.replace('col="11"', 'col="x"'),
            "not an integer",
        )

    def test_zero_position_rejected(self):
        self._raises(
            MINI_XML.replace('line="1" col="1"', 'line="0" col="1"', 1),
            ">= 1",
        )
        self._raises(
            MINI_XML.replace('line="1" col="1"', 'line="1" col="0"', 1),
            "attribute 'col' must be >= 1, got 0",
            "line 4",
        )

    def test_reversed_span_rejected(self):
        self._raises(
            MINI_XML.replace(
                'line="1" col="1" endLine="1" endCol="9"',
                'line="1" col="9" endLine="1" endCol="1"',
            ),
            "invalid span",
        )
        self._raises(
            MINI_XML.replace(
                'line="1" col="11" endLine="1"', 'line="4" col="11" endLine="3"'
            ),
            "invalid span: span start after end: "
            "SourceSpan(start_line=4, start_col=11, end_line=3, end_col=11)",
            "line 5",
        )
        self._raises(
            MINI_XML.replace(
                'line="1" col="11" endLine="1" endCol="11"',
                'line="2" col="9" endLine="2" endCol="5"',
            ),
            "invalid span: span start after end: "
            "SourceSpan(start_line=2, start_col=9, end_line=2, end_col=5)",
        )

    def test_text_inside_node_element(self):
        doc = MINI_XML.replace(
            '<node kind="FUNCTION_DECL">', '<node kind="FUNCTION_DECL">stray'
        )
        self._raises(doc, "unexpected text content")

    def test_token_with_child_elements(self):
        doc = MINI_XML.replace(
            ">P</token>", '><node kind="BRANCH"/></token>'
        )
        self._raises(doc, "must not contain elements")
        doc = MINI_XML.replace(
            ">P</token>",
            '><token type="identifier" line="1" col="12" endLine="1" endCol="12">y'
            "</token>P</token>",
        )
        self._raises(doc, "<token> must not contain elements", "line 5")

    def test_empty_token_lexeme(self):
        doc = MINI_XML.replace(">PROCEDURE</token>", "></token>")
        self._raises(doc, "empty <token> lexeme")

    def test_unknown_element(self):
        doc = MINI_XML.replace(
            '<token type="identifier" line="1" col="11" endLine="1" endCol="11">P</token>',
            "<widget/>",
        )
        self._raises(doc, "unknown element <widget>")

    def test_missing_header_attributes(self):
        self._raises(MINI_XML.replace(' language="modula2"', ""), "language")

    def test_total_lines_must_be_positive(self):
        self._raises(MINI_XML.replace('totalLines="1"', 'totalLines="0"'), ">= 1")

    def test_root_element_must_be_ecst(self):
        doc = MINI_XML.replace("<ecst", "<tree").replace("</ecst>", "</tree>")
        self._raises(doc, "expected root element <ecst>")

    def test_exactly_one_top_level_node(self):
        doc = MINI_XML.replace(
            "</ecst>", '  <node kind="COMPILATION_UNIT"/>\n</ecst>'
        )
        self._raises(doc, "exactly one")

    def test_not_well_formed(self):
        doc = '<ecst source="x" language="y" totalLines="1">'
        self._raises(doc, "not well-formed")
        with pytest.raises(TreeXmlError) as as_str:
            parse_tree_xml(doc)
        with pytest.raises(TreeXmlError) as as_bytes:
            parse_tree_xml(doc.encode())
        assert str(as_bytes.value) == str(as_str.value)

    def test_empty_input(self):
        with pytest.raises(TreeXmlError):
            parse_tree_xml("")

    def test_lone_surrogate_in_a_str(self):
        # A str with a lone surrogate has no UTF-8 form for expat to read.
        self._raises(
            MINI_XML.replace(">P<", ">\ud800<"),
            "not well-formed XML",
            "'\\ud800'",
            "surrogates not allowed",
        )

    def test_invariant_violation_is_wrapped(self):
        # BRANCH_STATEMENT holding a non-BRANCH universal child
        doc = (
            '<ecst source="x" language="modula2" totalLines="1">\n'
            '  <node kind="COMPILATION_UNIT">\n'
            '    <node kind="BRANCH_STATEMENT">\n'
            '      <node kind="LOOP_STATEMENT">\n'
            '        <token type="keyword" line="1" col="1" endLine="1" endCol="5">WHILE</token>\n'
            "      </node>\n"
            "    </node>\n"
            "  </node>\n"
            "</ecst>\n"
        )
        self._raises(doc, "violates tree invariants")


class TestErrorOrder:
    """Of several schema violations, the first element in document order
    is reported, even when its own check can only run at its end tag."""

    def test_token_reported_before_its_child(self):
        doc = MINI_XML.replace(">P</token>", "><widget/>P</token>")
        with pytest.raises(TreeXmlError, match="must not contain elements"):
            parse_tree_xml(doc)

    def test_node_text_reported_before_a_later_child(self):
        doc = MINI_XML.replace('type="identifier"', 'type="wibble"').replace(
            "    </node>\n  </node>", "    stray</node>\n  </node>"
        )
        with pytest.raises(TreeXmlError, match="unexpected text content.*line 3"):
            parse_tree_xml(doc)

    def test_not_well_formed_wins(self):
        doc = MINI_XML.replace('kind="FUNCTION_DECL"', 'kind="WIDGET"') + "<x>"
        with pytest.raises(TreeXmlError, match="not well-formed"):
            parse_tree_xml(doc)


class TestTokenOrder:
    PROCEDURE = (
        '<token type="keyword" line="1" col="1" endLine="1" endCol="9">PROCEDURE</token>'
    )
    P = '<token type="identifier" line="1" col="11" endLine="1" endCol="11">P</token>'

    def test_swapped_tokens_rejected(self):
        doc = (
            MINI_XML.replace(self.PROCEDURE, "@")
            .replace(self.P, self.PROCEDURE)
            .replace("@", self.P)
        )
        with pytest.raises(TreeXmlError, match="violates tree invariants"):
            parse_tree_xml(doc)

    def test_overlapping_spans_rejected(self):
        doc = MINI_XML.replace(
            'col="11" endLine="1" endCol="11"', 'col="9" endLine="1" endCol="9"'
        )
        with pytest.raises(TreeXmlError, match="does not start after"):
            parse_tree_xml(doc)

    def test_broken_order_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = MINI_XML.replace(
            'col="11" endLine="1" endCol="11"', 'col="5" endLine="1" endCol="5"'
        )
        (tmp_path / "bad.ecst.xml").write_text(doc, encoding="utf-8")
        assert main(["measure", "bad.ecst.xml"]) == 5
        assert "does not start after the previous token ends" in capsys.readouterr().err


def _deep_document(depth: int) -> str:
    """A unit holding depth nested loops, one WHILE per line."""
    parts = [
        f'<ecst source="deep.mod" language="modula2" totalLines="{depth + 1}">',
        '<node kind="COMPILATION_UNIT"><node kind="FUNCTION_DECL">',
        '<token type="identifier" line="1" col="1" endLine="1" endCol="1">F</token>',
    ]
    for line in range(2, depth + 2):
        parts.append(
            '<node kind="LOOP_STATEMENT"><token type="keyword"'
            f' line="{line}" col="1" endLine="{line}" endCol="5">WHILE</token>'
        )
    parts.append("</node>" * (depth + 2) + "</ecst>\n")
    return "\n".join(parts)


class TestDeepDocument:
    def test_reload_and_measure_without_recursion(self):
        tree = parse_tree_xml(_deep_document(1200))
        unit = measure_tree(tree).elements[0]
        assert (unit.name, unit.cc, unit.loc) == ("F", 1201, 1201)

    def test_cli_measures_deep_document(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.ecst.xml").write_text(_deep_document(1200), encoding="utf-8")
        assert main(["measure", "deep.ecst.xml"]) == 0
        metrics = (tmp_path / "deep.metrics.xml").read_text(encoding="utf-8")
        assert '<element name="F" annotation="FUNCTION_DECL" cc="1201"' in metrics

    def test_rewrite_without_recursion(self):
        s = serialize_tree(parse_tree_xml(_deep_document(1200)))
        assert serialize_tree(parse_tree_xml(s)) == s

    def test_compare_without_recursion(self):
        doc = _deep_document(1200)
        first, second = parse_tree_xml(doc), parse_tree_xml(doc)
        assert same_tree(first, second)
        assert first != second  # identity: == does not walk the children
        last = ">WHILE</token>\n</node>"
        changed = parse_tree_xml(doc.replace(last, last.replace("WHILE", "LOOP")))
        assert not same_tree(first, changed)


def _outcome(read, doc):
    """The rewritten tree, or the TreeXmlError message."""
    try:
        return serialize_tree(read(doc))
    except TreeXmlError as e:
        return f"error: {e}"


class TestReaderParity:
    """The reader against the one in oracles.py that checks every element
    in full: same tree or same message, for str and bytes alike."""

    def test_mutated_documents(self, corpus):
        bases = [MINI_XML, *(serialize_tree(tree) for _, tree in corpus.values())]
        rng = random.Random(20261018)
        accepted = 0
        for _ in range(1000):
            doc = generators.mutate_tree_document(rng.choice(bases), rng)
            for data in (doc, doc.encode()):
                expected = _outcome(reference_parse_tree_xml, data)
                assert _outcome(parse_tree_xml, data) == expected, doc
            accepted += not expected.startswith("error: ")
        # Both kinds of outcome occur.
        assert 50 < accepted < 500

    def test_valid_documents_never_word_a_failure(self, corpus, monkeypatch):
        def fail(el):
            raise AssertionError(f"<{el.tag}> at line {el.line} left the guard")

        documents = [serialize_tree(tree) for _, tree in corpus.values()]
        for language in ("modula2", "javaoo"):
            for seed in range(40):
                source = generators.generate(language, seed).source
                documents.append(serialize_tree(parse_source(source, language)))
        monkeypatch.setattr(xmlio, "_build_node", fail)
        for doc in documents:
            parse_tree_xml(doc)


class TestLoadTreeFile:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "mini.ecst.xml"
        path.write_text(MINI_XML, encoding="utf-8")
        assert same_tree(load_tree_file(path), _mini_tree())

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(SourceIoError):
            load_tree_file(tmp_path / "absent.ecst.xml")


class TestSerializeMetrics:
    def test_frozen_sample(self):
        report = MetricsReport(
            source_path="Mini.mod",
            language_id="modula2",
            elements=[
                ElementMetrics(
                    name="P",
                    annotation="FUNCTION_DECL",
                    cc=1,
                    loc=1,
                    sloc=1,
                    cloc=0,
                    start_line=1,
                    end_line=1,
                ),
            ],
            totals=LocBundle(loc=1, sloc=1, cloc=0),
        )
        assert serialize_metrics(report) == (
            '<metrics source="Mini.mod" language="modula2">\n'
            '  <element name="P" annotation="FUNCTION_DECL" cc="1" loc="1"'
            ' sloc="1" cloc="0" startLine="1" endLine="1"/>\n'
            '  <totals loc="1" sloc="1" cloc="0"/>\n'
            "</metrics>\n"
        )

    def test_name_attribute_is_quoted(self):
        report = MetricsReport(
            source_path="a&b.mod",
            language_id="modula2",
            elements=[],
            totals=LocBundle(loc=1, sloc=0, cloc=0),
        )
        doc = serialize_metrics(report)
        assert 'source="a&amp;b.mod"' in doc
