"""eCST XML serialization, parsing, and schema diagnostics."""

from __future__ import annotations

import gc
import io
import random
import re
import tracemalloc
import time
from xml.sax import saxutils

import pytest
from hypothesis import given
from hypothesis import strategies as st

import generators
from ecstmetrics import parse_source, xmlio
from ecstmetrics.cli import main
from ecstmetrics.errors import SourceIoError, TreeXmlError
from ecstmetrics.frontends import _NOT_XML_CHAR
from ecstmetrics.metrics import ElementMetrics, LocBundle, MetricsReport, measure_tree
from ecstmetrics.tree import TOKEN_TYPES, EcstTree, UniversalKind
from ecstmetrics.xmlio import (
    escape,
    load_tree_file,
    parse_tree_xml,
    quoteattr,
    serialize_metrics,
    serialize_tree,
)
from oracles import (
    Leaf,
    Nested,
    reference_parse_tree_xml,
    reference_serialize_tree,
    same_tree,
    tree_of,
)

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


def _mini_tree(*more: Leaf) -> EcstTree:
    """The tree of MINI_XML, with more tokens after P if given."""
    unit = Nested(
        UniversalKind.FUNCTION_DECL,
        [
            Leaf("PROCEDURE", "keyword", 1, 1, 1, 9),
            Leaf("P", "identifier", 1, 11, 1, 11),
            *more,
        ],
    )
    return tree_of(Nested(UniversalKind.COMPILATION_UNIT, [unit]), "Mini.mod")


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
        tree = _mini_tree(Leaf("a<b&c", "operator", 1, 13, 1, 17))
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

    def test_reloaded_token_types_are_the_vocabulary_strings(self, corpus):
        for _, tree in corpus.values():
            doc = serialize_tree(tree)
            for data in (doc, doc.encode(), io.BytesIO(doc.encode())):
                for node in parse_tree_xml(data).events:
                    if type(node) is tuple:
                        assert any(node[1] is t for t in TOKEN_TYPES)

    def test_reloaded_tokens_share_line_ints(self):
        # int() builds a new object for each value above 256; the scanner
        # shares one per source line, and so does the reader.
        source = generators.generate("modula2", 5, n_units=20).source
        assert source.count("\n") > 256
        tree = parse_source(source, "modula2")

        def line_objects(t) -> int:
            tokens = [n for n in t.events if type(n) is tuple]
            return len({id(n[2]) for n in tokens})

        reloaded = parse_tree_xml(serialize_tree(tree))
        assert line_objects(reloaded) <= line_objects(tree)

    def test_escaped_lexemes_survive(self):
        tree = _mini_tree(Leaf('"x<&>"', "literal", 1, 13, 1, 18))
        again = parse_tree_xml(serialize_tree(tree))
        assert again.events[-3][0] == '"x<&>"'

    def test_multiline_span_with_smaller_end_col(self):
        doc = MINI_XML.replace(
            'col="11" endLine="1" endCol="11"', 'col="11" endLine="2" endCol="2"'
        ).replace('totalLines="1"', 'totalLines="2"')
        tree = parse_tree_xml(doc)
        assert tree.events[3][2:] == (1, 11, 2, 2)
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
        token = parse_tree_xml(doc).events[3]
        assert token[0] == "\u00e9"
        token = parse_tree_xml(doc.encode("latin-1")).events[3]
        assert token[0] == "\u00e9"


def _built(events) -> EcstTree:
    """The tree xmlio._tree builds from one reader's header and events."""
    return xmlio._tree(next(events), events)


class TestSpanType:
    """A token keeps its position as the last four items of its plain
    tuple, all ints, in every tree, whichever builds it; a universal
    event is its kind, with no position."""

    @staticmethod
    def _spans(tree: EcstTree) -> list:
        spans = []
        for node in tree.events:
            if node is None:
                continue
            if type(node) is not tuple:
                assert type(node) is UniversalKind
                continue
            span = node[2:]
            assert all(type(value) is int for value in span)
            # No span tuple is kept: a token refers to no tuple.
            assert not any(type(r) is tuple for r in gc.get_referents(node))
            spans.append(span)
        return spans

    def test_parsed_and_both_readers_trees_agree(self, corpus):
        trees = [tree for _, tree in corpus.values()]
        for language in ("modula2", "javaoo"):
            for seed in range(20):
                source = generators.generate(language, seed).source
                trees.append(parse_source(source, language, source_path=f"g{seed}"))
        for tree in trees:
            doc = serialize_tree(tree)
            parsed = self._spans(tree)
            assert self._spans(_built(xmlio._line_events((doc,)))) == parsed
            assert self._spans(_built(xmlio._expat_events(doc))) == parsed


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

    @pytest.mark.parametrize("raw", ["\uff11", "\u0663", "1_0", "+5", " 5", "5 ", "-3", ""])
    def test_integer_attributes_are_ascii_digits(self, raw):
        # int() alone takes all but the last two of these.
        for name, value in (("line", 1), ("col", 1), ("endLine", 1), ("endCol", 9)):
            self._raises(
                MINI_XML.replace(f' {name}="{value}"', f' {name}="{raw}"', 1),
                f"attribute {name!r} is not an integer: {raw!r} (element <token>, line 4)",
            )
        self._raises(
            MINI_XML.replace('totalLines="1"', f'totalLines="{raw}"'),
            f"attribute 'totalLines' is not an integer: {raw!r} (element <ecst>, line 1)",
        )

    def test_full_width_digit_exits_5(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = MINI_XML.replace('line="1" col="1"', 'line="\uff11" col="1"')
        (tmp_path / "wide.ecst.xml").write_text(doc, encoding="utf-8")
        assert main(["measure", "wide.ecst.xml"]) == 5
        assert capsys.readouterr().err == (
            "wide.ecst.xml: error: attribute 'line' is not an integer: '\uff11'"
            " (element <token>, line 4)\n"
        )
        assert not (tmp_path / "wide.metrics.xml").exists()

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
        # A lone surrogate has no UTF-8 form: expat reads its three bytes
        # as a token that is not well-formed, where it stands.
        self._raises(
            MINI_XML.replace(">P<", ">\ud800<"),
            "not well-formed XML: not well-formed (invalid token): line 5, column 73",
        )

    def test_lone_surrogate_reads_as_its_bytes(self):
        for doc in (
            MINI_XML.replace(">P<", ">\ud800<"),
            MINI_XML.replace('source="Mini.mod"', 'source="\udfff.mod"'),
            MINI_XML.replace("FUNCTION_DECL", "WIDGET").replace(">P<", ">\ud800<"),
        ):
            data = doc.encode("utf-8", "surrogatepass")
            assert _outcome(parse_tree_xml, doc) == _outcome(parse_tree_xml, data)
            assert _outcome(parse_tree_xml, doc).startswith("error: ")

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
    """Of several faults of well-formedness or of an element, the first
    in reading order is reported: each rule at the first tag that shows
    its fault, a token's fields at its end tag."""

    def test_token_reported_before_its_child(self):
        # The child's start tag shows the token's fault first.
        doc = MINI_XML.replace(">P</token>", "><widget/>P</token>")
        with pytest.raises(TreeXmlError, match="must not contain elements.*line 5"):
            parse_tree_xml(doc)

    def test_token_fields_reported_before_node_text_after_them(self):
        # The wibble token ends on line 5; the stray text after it shows
        # only at the </node> of line 6.
        doc = MINI_XML.replace('type="identifier"', 'type="wibble"').replace(
            "    </node>\n  </node>", "    stray</node>\n  </node>"
        )
        with pytest.raises(TreeXmlError, match="unknown token type 'wibble'.*line 5"):
            parse_tree_xml(doc)

    def test_element_fault_before_a_later_well_formedness_fault(self):
        doc = MINI_XML.replace('kind="FUNCTION_DECL"', 'kind="WIDGET"') + "<x>"
        with pytest.raises(TreeXmlError, match="unknown universal kind 'WIDGET'.*line 3"):
            parse_tree_xml(doc)

    def test_element_fault_before_a_later_lone_surrogate(self):
        doc = MINI_XML.replace('kind="FUNCTION_DECL"', 'kind="WIDGET"')
        doc = doc.replace(">P<", ">\ud800<")
        with pytest.raises(TreeXmlError, match="unknown universal kind 'WIDGET'.*line 3"):
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
        assert first == second  # tokens compare by value
        last = ">WHILE</token>\n</node>"
        changed = parse_tree_xml(doc.replace(last, last.replace("WHILE", "LOOP")))
        assert not same_tree(first, changed)


def _decline(pieces, share=False):
    """A line reader that declines every document."""
    raise ValueError("declined")


def _outcome(read, doc):
    """The rewritten tree, or the TreeXmlError message."""
    try:
        return serialize_tree(read(doc))
    except TreeXmlError as e:
        return f"error: {e}"


class TestSharedLabels:
    """Every tree holds one str per distinct lexeme: two tokens with
    equal labels hold the same str object, in the parsed tree (comments
    aside, which keep their own) and in the tree reloaded by either
    reader."""

    @staticmethod
    def _check(tree, comments=True):
        first: dict[str, str] = {}
        for node in tree.events:
            if type(node) is tuple and (comments or node[1] != "comment"):
                label = node[0]
                assert first.setdefault(label, label) is label, label

    @pytest.fixture
    def trees(self, corpus) -> list[EcstTree]:
        trees = [tree for _, tree in corpus.values()]
        for language in ("modula2", "javaoo"):
            for seed in range(4):
                source = generators.generate(language, seed, n_units=8).source
                trees.append(parse_source(source, language))
        return trees

    def test_parsed_trees(self, trees):
        for tree in trees:
            self._check(tree, comments=False)

    def test_trees_reloaded_by_the_line_reader(self, trees, expat_calls):
        for tree in trees:
            self._check(parse_tree_xml(serialize_tree(tree)))
        assert not expat_calls

    def test_trees_reloaded_by_expat(self, trees, monkeypatch):
        for tree in trees:
            doc = '<?xml version="1.0"?>\n' + serialize_tree(tree)
            self._check(parse_tree_xml(doc))
            self._check(parse_tree_xml(io.BytesIO(doc.encode())))
        monkeypatch.setattr(xmlio, "_line_events", _decline)
        for tree in trees:
            self._check(parse_tree_xml(serialize_tree(tree)))


class TestReaderParity:
    """The reader against the one in oracles.py that checks every element
    in full: same tree or same message, for str, bytes and a binary file
    alike."""

    def test_mutated_documents(self, corpus, monkeypatch):
        bases = [MINI_XML, *(serialize_tree(tree) for _, tree in corpus.values())]
        rng = random.Random(20261018)
        accepted = 0
        for _ in range(1000):
            doc = generators.mutate_tree_document(rng.choice(bases), rng)
            for data in (doc, doc.encode()):
                expected = _outcome(reference_parse_tree_xml, data)
                assert _outcome(parse_tree_xml, data) == expected, doc
                # Expat alone, which parse_tree_xml spares a document in
                # the writer's form.
                with monkeypatch.context() as patch:
                    patch.setattr(xmlio, "_line_events", _decline)
                    assert _outcome(parse_tree_xml, data) == expected, doc
            # A binary file, which expat reads in pieces, reads alike.
            assert _outcome(parse_tree_xml, io.BytesIO(doc.encode())) == expected, doc
            accepted += not expected.startswith("error: ")
        # Both kinds of outcome occur.
        assert 50 < accepted < 500


# Source paths whose header value quoteattr escapes or quotes otherwise:
# parse_source's default, markup, quotes, and whitespace that expat
# would normalise unless written as a reference.
ESCAPED_PATHS = ["<string>", "r&d.mod", 'a"b.mod', 'it\'s "x".mod', "a\tb", "a\nb", "a\rb"]


@pytest.fixture(scope="module")
def writer_documents(corpus) -> list[str]:
    """The fixtures and generator seeds 0-199 in both languages, as
    serialize_tree writes them, each named as a source file; then seeds
    0-6 of Modula-2 named by ESCAPED_PATHS."""
    documents = [serialize_tree(tree) for _, tree in corpus.values()]
    for language, ext in (("modula2", ".mod"), ("javaoo", ".java")):
        for seed in range(200):
            source = generators.generate(language, seed).source
            tree = parse_source(source, language, source_path=f"g{seed}{ext}")
            documents.append(serialize_tree(tree))
    for seed, path in enumerate(ESCAPED_PATHS):
        source = generators.generate("modula2", seed).source
        documents.append(serialize_tree(parse_source(source, "modula2", source_path=path)))
    return documents


def _as_inputs(doc: str) -> list:
    """doc as a str, as bytes and as a binary file."""
    return [doc, doc.encode(), io.BytesIO(doc.encode())]


@pytest.fixture
def expat_calls(monkeypatch) -> list:
    """Counts the expat parsers made while a test runs."""
    calls = []
    real = xmlio.expat.ParserCreate

    def create(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(xmlio.expat, "ParserCreate", create)
    return calls


class _Unseekable(io.RawIOBase):
    """A binary stream that cannot seek, such as a pipe."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


class TestLineReader:
    """parse_tree_xml reads serialize_tree's own form one line at a time
    and hands every other document to expat from its start: the writer's
    documents never reach expat, and the others give the tree or the
    message of the reader in oracles.py."""

    # Header values in the other quotes, or with a reference, as
    # quoteattr writes some values; the line reader reads them too.
    HEADER_FORMS = {
        "single-quoted header": lambda doc: doc.replace(
            'source="Markup.java"', "source='Markup.java'"
        ),
        "header holding &amp;": lambda doc: doc.replace(
            'source="Markup.java"', 'source="a&amp;b.java"'
        ),
    }

    def test_writer_documents_never_reach_expat(self, writer_documents, monkeypatch):
        def fail(*args):
            raise AssertionError("a document the writer wrote reached expat")

        monkeypatch.setattr(xmlio.expat, "ParserCreate", fail)
        for doc in writer_documents:
            for data in _as_inputs(doc):
                assert serialize_tree(parse_tree_xml(data)) == doc

    @pytest.mark.parametrize("form", sorted(HEADER_FORMS))
    def test_header_forms_never_reach_expat(self, markup_document, expat_calls, form):
        doc = self.HEADER_FORMS[form](markup_document)
        assert doc != markup_document
        expected = _outcome(reference_parse_tree_xml, doc)
        assert not expected.startswith("error: ")
        expat_calls.clear()
        for data in _as_inputs(doc):
            assert _outcome(parse_tree_xml, data) == expected
        assert expat_calls == []

    def test_expat_reader_agrees_on_writer_documents(self, writer_documents):
        # The fallback reads the writer's documents to the same trees.
        for doc in writer_documents[::10]:
            assert serialize_tree(_built(xmlio._expat_events(doc))) == doc

    def test_tokens_share_line_ints(self, monkeypatch):
        # Each reader shares the previous token's line int, so each
        # source line has one int object: the line reader, with expat
        # kept out, and expat, with the line reader declining.
        source = generators.generate("modula2", 5, n_units=20).source
        tree = parse_source(source, "modula2", source_path="g.mod")
        doc = serialize_tree(tree)
        for module, name, value in (
            (xmlio.expat, "ParserCreate", None),
            (xmlio, "_line_events", _decline),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, value)
                for data in _as_inputs(doc):
                    reloaded = parse_tree_xml(data)
                    tokens = [n for n in reloaded.events if type(n) is tuple]
                    lines = {n[2] for n in tokens}
                    starts = {id(n[2]) for n in tokens}
                    assert max(lines) > 256 and len(starts) == len(lines), name

    # Valid documents that serialize_tree would not write.
    OTHER_FORMS = {
        "reordered attributes": lambda doc: re.sub(
            r'line="(\d+)" col="(\d+)"', r'col="\2" line="\1"', doc, count=1
        ),
        "character reference": lambda doc: doc.replace("&lt;", "&#60;", 1),
        "XML declaration": lambda doc: '<?xml version="1.0" encoding="UTF-8"?>\n' + doc,
        "byte order mark": lambda doc: "\ufeff" + doc,
        "comment after </ecst>": lambda doc: doc + "<!-- done -->\n",
        "no final line break": lambda doc: doc[:-1],
    }

    @pytest.fixture(scope="class")
    def markup_document(self):
        tree = parse_source(MARKUP_SOURCES["javaoo"], "javaoo", source_path="Markup.java")
        return serialize_tree(tree)

    @pytest.mark.parametrize("form", sorted(OTHER_FORMS))
    def test_other_valid_forms_reach_expat(self, markup_document, expat_calls, form):
        doc = self.OTHER_FORMS[form](markup_document)
        assert doc != markup_document
        expected = _outcome(reference_parse_tree_xml, doc)
        assert not expected.startswith("error: ")
        expat_calls.clear()
        for data in _as_inputs(doc):
            assert _outcome(parse_tree_xml, data) == expected
        assert len(expat_calls) == 3

    # The writer's documents with other blank text between elements,
    # which neither reader keeps.
    BLANK_FORMS = {
        "re-indented": lambda doc: doc.replace("\n  ", "\n   "),
        "not indented": lambda doc: re.sub("\n +", "\n", doc),
    }

    @pytest.mark.parametrize("form", sorted(BLANK_FORMS))
    def test_indentation_is_not_read(self, markup_document, expat_calls, form):
        doc = self.BLANK_FORMS[form](markup_document)
        assert doc != markup_document
        expected = _outcome(reference_parse_tree_xml, doc)
        assert not expected.startswith("error: ")
        expat_calls.clear()
        for data in _as_inputs(doc):
            assert _outcome(parse_tree_xml, data) == expected
        assert expat_calls == []

    # Documents in the writer's form whose tree breaks an invariant.
    INVARIANT_FAULTS = {
        "two swapped tokens": lambda doc: re.sub(
            "(  +<token.*\n)(  +<token.*\n)", r"\2\1", doc
        ),
        "last token after totalLines": lambda doc: doc.replace(
            'line="1" col="11" endLine="1"', 'line="2" col="11" endLine="2"'
        ),
        "CONDITION outside any BRANCH or LOOP_STATEMENT": lambda doc: doc.replace(
            "FUNCTION_DECL", "CONDITION"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(INVARIANT_FAULTS))
    def test_invariant_faults_never_reach_expat(self, expat_calls, fault):
        doc = self.INVARIANT_FAULTS[fault](MINI_XML)
        assert doc != MINI_XML
        expected = _outcome(reference_parse_tree_xml, doc)
        assert expected.startswith("error: document violates tree invariants: ")
        expat_calls.clear()
        for data in _as_inputs(doc):
            assert _outcome(parse_tree_xml, data) == expected
        assert expat_calls == []

    # Lexemes the line reader must not take as they stand: expat reads
    # them otherwise, or rejects them.
    TRAPS = {
        "carriage return": "a\rb",
        "greater-than sign": "a>b",
        "end of a CDATA section": "a]]>b",
        "control character": "a\x01b",
        "lone surrogate": "a\ud800b",
        "non-character": "a\ufffeb",
    }

    @pytest.mark.parametrize("trap", sorted(TRAPS))
    def test_lexeme_traps_reach_expat(self, expat_calls, trap):
        doc = MINI_XML.replace(">P<", f">{self.TRAPS[trap]}<")
        expected = _outcome(reference_parse_tree_xml, doc)
        expat_calls.clear()
        assert _outcome(parse_tree_xml, doc) == expected
        assert len(expat_calls) == 1

    def test_failed_tree_is_freed_before_expat_starts(self, monkeypatch):
        # The line reader reads every token before it declines the last
        # line, so all of them are built.  Bytes still allocated when
        # expat starts, against those of the whole tree: CPython keeps up
        # to 2,000 freed tuples of one size for reuse, which tracemalloc
        # still counts, so the tree has ten times as many tokens.
        source = generators.generate("modula2", 3, n_units=60).source
        doc = serialize_tree(parse_source(source, "modula2", source_path="g.mod"))
        assert doc.count("<token ") > 20_000
        doc = doc.replace("</ecst>\n", "</ecst >\n")  # valid, but not the writer's
        alive = []
        real = xmlio.expat.ParserCreate

        def create(*args):
            alive.append(tracemalloc.get_traced_memory()[0])
            return real(*args)

        monkeypatch.setattr(xmlio.expat, "ParserCreate", create)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = parse_tree_xml(doc)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert serialize_tree(tree) == doc.replace("</ecst >", "</ecst>")
        assert len(alive) == 1 and alive[0] - before < size / 5


class TestReadPieces:
    """A binary file is read in pieces of _READ_BYTES, each cut after the
    last ">" and line break read: the end of an element, in the writer's
    form.  A piece the line reader cannot read to its end goes to expat."""

    # A block comment over several lines, and lexemes of multi-byte
    # UTF-8 characters.
    SOURCE = (
        "MODULE M;\n(* \u00e9t\u00e9\n   \u20ac & < >\n\U0001d11e *)\n"
        "PROCEDURE P;\nBEGIN\n  s := '\u00e9\u20ac\U0001d11e';\nEND P;\nEND M.\n"
    )

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 64])
    def test_lexemes_across_a_cut(self, monkeypatch, size):
        doc = serialize_tree(parse_source(self.SOURCE, "modula2", source_path="M.mod"))
        assert "\n   \u20ac &amp; &lt; &gt;\n" in doc

        def fail(*args):
            raise AssertionError("the document reached expat")

        monkeypatch.setattr(xmlio, "_READ_BYTES", size)
        monkeypatch.setattr(xmlio.expat, "ParserCreate", fail)
        assert serialize_tree(parse_tree_xml(io.BytesIO(doc.encode()))) == doc

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 64])
    def test_cut_inside_a_token(self, monkeypatch, size):
        # A lexeme that starts with a line break puts ">\n" inside its
        # <token>, so a piece may end there.
        unit = Nested(
            UniversalKind.FUNCTION_DECL,
            [
                Leaf("PROCEDURE", "keyword", 1, 1, 1, 9),
                Leaf("\nP", "identifier", 1, 10, 2, 1),
            ],
        )
        root = Nested(UniversalKind.COMPILATION_UNIT, [unit])
        doc = serialize_tree(tree_of(root, "Mini.mod", "modula2", 2))
        assert 'endCol="1">\nP</token>' in doc
        monkeypatch.setattr(xmlio, "_READ_BYTES", size)
        assert serialize_tree(parse_tree_xml(io.BytesIO(doc.encode()))) == doc

    @pytest.mark.parametrize("size", [1, 7, 64])
    @pytest.mark.parametrize(
        "last", ["</ecst>\n<x/>\n", "</ecsx>\n", "</ecst>\n\n", "</ecst>", "</ecst>\n\x00"]
    )
    def test_fallback_on_the_last_line(self, monkeypatch, expat_calls, size, last):
        doc = MINI_XML.replace("</ecst>\n", last)
        expected = _outcome(reference_parse_tree_xml, doc.encode())
        expat_calls.clear()
        monkeypatch.setattr(xmlio, "_READ_BYTES", size)
        assert _outcome(parse_tree_xml, io.BytesIO(doc.encode())) == expected
        assert len(expat_calls) == 1

    def test_file_read_from_its_position(self):
        data = io.BytesIO(b"junk" + MINI_XML.encode())
        data.seek(4)
        assert serialize_tree(parse_tree_xml(data)) == MINI_XML
        bad = MINI_XML.replace("</ecst>", "</ecsx>").encode()
        data = io.BytesIO(b"junk" + bad)
        data.seek(4)
        assert _outcome(parse_tree_xml, data) == _outcome(reference_parse_tree_xml, bad)

    @pytest.mark.parametrize(
        "doc", [MINI_XML, MINI_XML.replace("</ecst>", "</ecsx>"), MINI_XML + "<!-- -->"]
    )
    def test_unseekable_stream_goes_to_expat(self, expat_calls, doc):
        stream = io.BufferedReader(_Unseekable(doc.encode()))
        assert not stream.seekable()
        expected = _outcome(reference_parse_tree_xml, doc.encode())
        expat_calls.clear()
        assert _outcome(parse_tree_xml, stream) == expected
        assert len(expat_calls) == 1


def _expat_alone(data) -> None:
    """Every event of data from the expat source."""
    for _ in xmlio._expat_events(data):
        pass


def _best_of_3(read, data) -> float:
    """The shortest of three timed reads of data."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        read(data)
        best = min(best, time.perf_counter() - started)
    return best


class TestLinearCost:
    """The line reader costs time linear in the document, however long
    one element or one stretch without a cut: it stays within a small
    factor of expat alone on the same bytes."""

    def _check(self, data: bytes):
        expected = _outcome(reference_parse_tree_xml, data)
        assert not expected.startswith("error: ")
        assert _outcome(parse_tree_xml, data) == expected
        assert _best_of_3(parse_tree_xml, data) <= 4 * _best_of_3(_expat_alone, data)

    def test_one_long_comment(self):
        body = "".join(f"   line {n} of one comment\n" for n in range(20000))
        source = f"MODULE M;\n(*\n{body}*)\nEND M.\n"
        doc = serialize_tree(parse_source(source, "modula2", source_path="M.mod"))
        assert doc.count("\n") > 20000
        self._check(doc.encode())

    def test_one_line_document(self, monkeypatch):
        source = generators.generate("javaoo", 1, n_units=17).source
        doc = serialize_tree(parse_source(source, "javaoo", source_path="g.java"))
        data = re.sub(r">\n *<", "><", doc).encode()
        assert len(data) > 750_000 and data.count(b"\n") == 1
        monkeypatch.setattr(xmlio, "_READ_BYTES", 16)
        self._check(data)


class _Pieces(io.StringIO):
    """A text file that keeps each piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


class TestStreamedWriter:
    """serialize_tree into a text file writes exactly the document it
    returns without one, in pieces of at least _PIECE_LINES lines that
    each end after a </node> line."""

    @staticmethod
    def _pieces(tree) -> list[str]:
        out = _Pieces()
        assert serialize_tree(tree, out) is None
        assert out.getvalue() == serialize_tree(tree)
        for piece in out.pieces[:-1]:
            assert piece.endswith("</node>\n")
            assert piece.count("\n") >= xmlio._PIECE_LINES
        return out.pieces

    def test_fixtures(self, corpus):
        for _, tree in corpus.values():
            self._pieces(tree)

    @pytest.mark.parametrize("language", ["modula2", "javaoo"])
    def test_generated_programs(self, language):
        for seed in range(200):
            self._pieces(parse_source(generators.generate(language, seed).source, language))

    def test_long_document_goes_out_in_pieces(self):
        source = generators.generate("javaoo", 3, n_units=30).source
        assert len(self._pieces(parse_source(source, "javaoo"))) > 10


# Lexemes holding the characters XML text may need escaped: "&", "<" and
# ">" in operators, strings and comments, and quotes, which text content
# leaves as they are.
MARKUP_SOURCES = {
    "javaoo": """class Markup {
    void m(int a, int b) {
        if (a && b <= 3 || a >= b) { s = "a<b&c>"; } // x < y
        t = "q\\"d's"; /* a & b > c */
        while (a < b && b > 0) { a = a + 1; }
    }
}
""",
    "modula2": """MODULE Markup;
PROCEDURE P(a, b: INTEGER);
BEGIN
    IF (a <> b) & (a < b) THEN s := "x'y" END; (* a<b *)
    t := 'q"d'; (* a & b > c *)
    WHILE (a >= b) OR (a <= 0) DO a := a - 1 END
END P;
END Markup.
""",
}


class TestWriterParity:
    """The writer against the one in oracles.py that escapes every lexeme:
    the same bytes for every tree."""

    def test_fixtures(self, corpus):
        for _, tree in corpus.values():
            assert serialize_tree(tree) == reference_serialize_tree(tree)

    @pytest.mark.parametrize("language", ("modula2", "javaoo"))
    def test_generated_programs(self, language):
        for seed in range(200):
            tree = parse_source(generators.generate(language, seed).source, language)
            assert serialize_tree(tree) == reference_serialize_tree(tree), seed

    @pytest.mark.parametrize("language", sorted(MARKUP_SOURCES))
    def test_markup_lexemes(self, language):
        tree = parse_source(MARKUP_SOURCES[language], language, source_path="a&<b>'\".x")
        doc = serialize_tree(tree)
        assert doc == reference_serialize_tree(tree)
        assert "&amp;" in doc and "&lt;" in doc and "&gt;" in doc
        assert same_tree(parse_tree_xml(doc), tree)

    def test_escaped_lexemes(self):
        lexemes = ["&&", "<=", ">=", '"a<b&c>"', "// x < y", "<>", "&", "(* a<b *)", "'\"'"]
        tree = _mini_tree(*(
            Leaf(lexeme, "literal", line, 1, line, len(lexeme))
            for line, lexeme in enumerate(lexemes, start=2)
        ))
        assert serialize_tree(tree) == reference_serialize_tree(tree)


    @given(
        st.text(
            st.sampled_from("\"'&<>\t\n\r ")
            | st.characters(min_codepoint=ord("a"), max_codepoint=ord("z"))
            | st.characters(min_codepoint=ord("A"), max_codepoint=ord("Z"))
            | st.characters(min_codepoint=0x80)
        )
    )
    def test_escape_and_quoteattr_match_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)
        assert quoteattr(text) == saxutils.quoteattr(text)

    def test_file_name_with_quotes_ampersand_and_tab(self):
        name = "a\"b'c&d\te.java"
        tree = parse_source(MARKUP_SOURCES["javaoo"], "javaoo", source_path=name)
        doc = serialize_tree(tree)
        assert doc == reference_serialize_tree(tree)
        assert doc.startswith(f"<ecst source={saxutils.quoteattr(name)} ")
        again = parse_tree_xml(doc)
        assert same_tree(again, tree)
        metrics = serialize_metrics(measure_tree(again))
        assert metrics.startswith(
            f"<metrics source={saxutils.quoteattr(name)}"
            f" language={saxutils.quoteattr('javaoo')}>\n"
        )
        for row in measure_tree(again).elements:
            assert (
                f"  <element name={saxutils.quoteattr(row.name)}"
                f" annotation={saxutils.quoteattr(row.annotation)} "
            ) in metrics


class TestXmlChars:
    def test_not_xml_char_matches_the_negated_char_production(self):
        # XML 1.0's Char production, negated: the set the explicit class
        # in frontends must match on every code point.
        negated = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        every = "".join(map(chr, range(0x110000)))
        found = [m.start() for m in _NOT_XML_CHAR.finditer(every)]
        assert found == [m.start() for m in negated.finditer(every)]
        assert len(found) == 9 + 2 + 18 + 2048 + 2


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

    @pytest.mark.parametrize("rows", [0, 1, xmlio._PIECE_LINES, 3 * xmlio._PIECE_LINES])
    def test_streamed_report_is_the_returned_document(self, rows):
        row = ElementMetrics("P<1>", "FUNCTION_DECL", 2, 3, 2, 1, 4, 6)
        report = MetricsReport("a&b.mod", "modula2", [row] * rows, LocBundle(9, 7, 2))
        out = _Pieces()
        assert serialize_metrics(report, out) is None
        assert out.getvalue() == serialize_metrics(report)
        # A report longer than one piece goes out in more than one write.
        assert (len(out.pieces) > 1) == (rows >= xmlio._PIECE_LINES)

    def test_name_attribute_is_quoted(self):
        report = MetricsReport(
            source_path="a&b.mod",
            language_id="modula2",
            elements=[],
            totals=LocBundle(loc=1, sloc=0, cloc=0),
        )
        doc = serialize_metrics(report)
        assert 'source="a&amp;b.mod"' in doc
