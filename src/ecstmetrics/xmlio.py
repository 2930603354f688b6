"""XML interchange: eCST documents and metrics reports.

Serialization is hand-rolled so output is byte-deterministic: fixed
attribute order, two-space indentation, no XML declaration, trailing
newline.  Parsing uses expat and reports schema violations with the
offending element and line.
"""

from __future__ import annotations

from typing import NamedTuple
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from .errors import MalformedTreeError, SourceIoError, TreeXmlError
from .tree import (
    TOKEN_TYPES,
    EcstNode,
    EcstTree,
    SourceSpan,
    UniversalKind,
    validate_tree,
    walk,
)

# -- serialization ---------------------------------------------------------


def serialize_tree(tree: EcstTree) -> str:
    """Render a tree as a deterministic eCST XML document, in one pass
    without recursion.  Token types and node kinds are bare words from
    closed vocabularies, so they are written without escaping."""
    out = [
        f"<ecst source={quoteattr(tree.source_path)}"
        f" language={quoteattr(tree.language_id)}"
        f' totalLines="{tree.total_lines}">\n'
    ]
    depth = 0  # open <node> elements, each one level of indent
    for node, _, hi in walk(tree.root):
        if node.kind is None:
            span = node.span
            out.append(
                f"{'  ' * (depth + 1)}<token type=\"{node.token_type}\""
                f' line="{span.start_line}" col="{span.start_col}"'
                f' endLine="{span.end_line}" endCol="{span.end_col}"'
                f">{escape(node.label)}</token>\n"
            )
        elif hi is None:
            depth += 1
            out.append(f"{'  ' * depth}<node kind=\"{node.kind.value}\">\n")
        else:
            out.append(f"{'  ' * depth}</node>\n")
            depth -= 1
    out.append("</ecst>\n")
    return "".join(out)


def serialize_metrics(report) -> str:
    """Render a metrics report as a deterministic XML document."""
    out = [
        f"<metrics source={quoteattr(report.source_path)}"
        f" language={quoteattr(report.language_id)}>\n"
    ]
    for row in report.elements:
        out.append(
            f"  <element name={quoteattr(row.name)}"
            f" annotation={quoteattr(row.annotation)}"
            f' cc="{row.cc}" loc="{row.loc}" sloc="{row.sloc}" cloc="{row.cloc}"'
            f' startLine="{row.start_line}" endLine="{row.end_line}"/>\n'
        )
    totals = report.totals
    out.append(
        f'  <totals loc="{totals.loc}" sloc="{totals.sloc}" cloc="{totals.cloc}"/>\n'
    )
    out.append("</metrics>\n")
    return "".join(out)


# -- parsing ---------------------------------------------------------------

_KINDS = {kind.value: kind for kind in UniversalKind}


class _Open(NamedTuple):
    """An element whose end tag has not been read yet, other than a
    <token> with no child element."""

    tag: str
    attrs: dict
    line: int
    order: int  # position in document order
    children: list  # built child nodes; None for one that failed its checks
    text: list  # the non-blank character data chunks


def _fail(el: _Open, message: str):
    raise TreeXmlError(f"{message} (element <{el.tag}>, line {el.line})")


def _int_attr(el: _Open, name: str) -> int:
    """A positive integer attribute: a line, a column or totalLines."""
    raw = el.attrs.get(name)
    if raw is None:
        _fail(el, f"missing attribute {name!r}")
    try:
        value = int(raw)
    except ValueError:
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    if value < 1:
        _fail(el, f"attribute {name!r} must be >= 1, got {value}")
    return value


def _build_node(el: _Open) -> EcstNode:
    """The node for an element below <ecst>, its children already built.

    Checks every rule about the element's own fields, in the order that
    decides which message a failing element gets; validate_tree checks
    the rules that span elements.  parse_tree_xml builds a valid element
    itself and calls this only for one that fails its guard.
    """
    text = "".join(el.text)
    if el.tag == "node":
        kind_raw = el.attrs.get("kind")
        if kind_raw is None:
            _fail(el, "missing attribute 'kind'")
        if kind_raw not in _KINDS:
            _fail(el, f"unknown universal kind {kind_raw!r}")
        if text.strip():
            _fail(el, "unexpected text content in <node>")
        return EcstNode.universal(_KINDS[kind_raw], el.children)
    if el.tag == "token":
        token_type = el.attrs.get("type")
        if token_type is None:
            _fail(el, "missing attribute 'type'")
        if token_type not in TOKEN_TYPES:
            _fail(el, f"unknown token type {token_type!r}")
        if el.children:
            _fail(el, "<token> must not contain elements")
        if not text:
            _fail(el, "empty <token> lexeme")
        span = SourceSpan(
            _int_attr(el, "line"),
            _int_attr(el, "col"),
            _int_attr(el, "endLine"),
            _int_attr(el, "endCol"),
        )
        if span[:2] > span[2:]:
            _fail(el, f"invalid span: span start after end: {span}")
        return EcstNode.concrete(text, token_type, span)
    _fail(el, f"unknown element <{el.tag}>")


def parse_tree_xml(data: bytes | str) -> EcstTree:
    """Parse an eCST XML document back into a tree.

    Nodes are built straight from the parser's events, without recursion.
    An open <token> with no child element lives in the handlers' locals,
    not in a record, and each element that passes one guard at its end
    tag is built in place; one that fails it goes to _build_node, which
    words the failure.
    Raises TreeXmlError on any well-formedness or schema violation; of
    several schema violations, the one of the <ecst> element comes first,
    then the first failing element in document order.
    """
    parser = expat.ParserCreate()
    parser.buffer_text = True
    stack: list[_Open] = []  # open elements; the <ecst> element stays
    top: list[_Open] = []  # records directly inside <ecst>
    failures: list = []  # (order, error) per failing element
    token = None  # attributes of the open <token> with no child element
    token_line = token_order = 0
    lexeme = ""
    new_tuple = tuple.__new__  # a SourceSpan without its Python-level __new__

    def start(tag, attrs):
        nonlocal token, token_line, token_order, lexeme
        if token is not None:  # an element inside a <token>
            stack.append(_Open("token", token, token_line, token_order, [], []))
            token = None
        if tag == "token" and stack:  # not the root element
            token = attrs
            token_line = parser.CurrentLineNumber
            token_order = parser.CurrentByteIndex
            lexeme = ""
        else:
            line = parser.CurrentLineNumber
            stack.append(_Open(tag, attrs, line, parser.CurrentByteIndex, [], []))

    def chars(text):
        nonlocal lexeme
        if token is not None:
            lexeme += text
        elif not text.isspace():
            # A <node> rejects only non-blank text, and a <token> record
            # (the root, or one holding an element) fails before its lexeme.
            stack[-1].text.append(text)

    def end(tag):
        nonlocal token
        if token is not None:
            attrs = token
            token = None
            try:
                line = int(attrs["line"])
                col = int(attrs["col"])
                end_line = int(attrs["endLine"])
                end_col = int(attrs["endCol"])
            except (KeyError, ValueError):
                line = 0
            token_type = attrs.get("type")
            if (
                token_type in TOKEN_TYPES
                and lexeme
                and 0 < line <= end_line
                and col > 0
                and end_col > 0
                and (line < end_line or col <= end_col)
            ):
                stack[-1].children.append(
                    EcstNode(
                        lexeme,
                        None,
                        token_type,
                        new_tuple(SourceSpan, (line, col, end_line, end_col)),
                    )
                )
                return
            el = _Open("token", attrs, token_line, token_order, [], [lexeme])
        else:
            if len(stack) == 1:
                return
            el = stack.pop()
            if len(stack) == 1:
                top.append(el)
            if el.tag == "node" and not el.text:
                kind = _KINDS.get(el.attrs.get("kind"))
                if kind is not None:
                    # _value_ is kind.value without the enum property's call
                    stack[-1].children.append(
                        EcstNode(kind._value_, kind, None, None, el.children)
                    )
                    return
        try:
            node = _build_node(el)
        except TreeXmlError as e:
            node = None
            failures.append((el.order, e))
        stack[-1].children.append(node)

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        parser.Parse(data, True)
    except (expat.ExpatError, UnicodeEncodeError) as e:
        # pyexpat encodes a str as UTF-8, which a lone surrogate fails.
        raise TreeXmlError(f"not well-formed XML: {e}") from e
    root_el = stack[0]
    if root_el.tag != "ecst":
        _fail(root_el, "expected root element <ecst>")
    source = root_el.attrs.get("source")
    language = root_el.attrs.get("language")
    if source is None or language is None:
        _fail(root_el, "<ecst> requires source and language attributes")
    total_lines = _int_attr(root_el, "totalLines")
    if len(root_el.children) != 1:
        _fail(root_el, "<ecst> must contain exactly one <node>")
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    root_node = root_el.children[0]
    if root_node.kind is not UniversalKind.COMPILATION_UNIT:
        # With no record, the one element inside <ecst> is the only <token>.
        el = top[0] if top else _Open("token", {}, token_line, token_order, [], [])
        _fail(el, "top-level <node> must be COMPILATION_UNIT")
    tree = EcstTree(root_node, source, language, total_lines)
    try:
        validate_tree(tree)
    except MalformedTreeError as e:
        raise TreeXmlError(f"document violates tree invariants: {e}") from e
    return tree


def load_tree_file(path) -> EcstTree:
    """Read and parse an eCST XML file."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
    return parse_tree_xml(data)
