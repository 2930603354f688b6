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

_KIND_VALUES = {kind.value for kind in UniversalKind}


# -- serialization ---------------------------------------------------------


def serialize_tree(tree: EcstTree) -> str:
    """Render a tree as a deterministic eCST XML document, in one pass
    without recursion."""
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
                f"{'  ' * (depth + 1)}<token type={quoteattr(node.token_type)}"
                f' line="{span.start_line}" col="{span.start_col}"'
                f' endLine="{span.end_line}" endCol="{span.end_col}"'
                f">{escape(node.label)}</token>\n"
            )
        elif hi is None:
            depth += 1
            out.append(f"{'  ' * depth}<node kind={quoteattr(node.kind.value)}>\n")
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


class _Open(NamedTuple):
    """An element whose end tag has not been read yet."""

    tag: str
    attrs: dict
    line: int
    order: int  # position in document order
    children: list  # built child nodes; None for one that failed its checks
    text: list


def _fail(el: _Open, message: str):
    raise TreeXmlError(f"{message} (element <{el.tag}>, line {el.line})")


def _int_attr(el: _Open, name: str, minimum: int = 1) -> int:
    raw = el.attrs.get(name)
    if raw is None:
        _fail(el, f"missing attribute {name!r}")
    try:
        value = int(raw)
    except ValueError:
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    if value < minimum:
        _fail(el, f"attribute {name!r} must be >= {minimum}, got {value}")
    return value


def _build_node(el: _Open) -> EcstNode:
    """The node for an element below <ecst>, its children already built."""
    text = "".join(el.text)
    if el.tag == "node":
        kind_raw = el.attrs.get("kind")
        if kind_raw is None:
            _fail(el, "missing attribute 'kind'")
        if kind_raw not in _KIND_VALUES:
            _fail(el, f"unknown universal kind {kind_raw!r}")
        if text.strip():
            _fail(el, "unexpected text content in <node>")
        return EcstNode.universal(UniversalKind(kind_raw), el.children)
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
        try:
            span = SourceSpan(
                _int_attr(el, "line"),
                _int_attr(el, "col"),
                _int_attr(el, "endLine"),
                _int_attr(el, "endCol"),
            )
        except ValueError as e:
            _fail(el, f"invalid span: {e}")
        return EcstNode.concrete(text, token_type, span)
    _fail(el, f"unknown element <{el.tag}>")


def parse_tree_xml(data: bytes | str) -> EcstTree:
    """Parse an eCST XML document back into a tree.

    Nodes are built straight from the parser's events, without recursion.
    Raises TreeXmlError on any well-formedness or schema violation; of
    several schema violations, the one of the <ecst> element comes first,
    then the first failing element in document order.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    parser = expat.ParserCreate()
    parser.buffer_text = True
    stack: list[_Open] = []  # open elements; the <ecst> element stays
    top: list[_Open] = []  # elements directly inside <ecst>
    failures: list = []  # (order, error) per failing element

    def start(tag, attrs):
        line = parser.CurrentLineNumber
        stack.append(_Open(tag, attrs, line, parser.CurrentByteIndex, [], []))

    def chars(text):
        stack[-1].text.append(text)

    def end(tag):
        if len(stack) == 1:
            return
        el = stack.pop()
        if len(stack) == 1:
            top.append(el)
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
    except expat.ExpatError as e:
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
        _fail(top[0], "top-level <node> must be COMPILATION_UNIT")
    tree = EcstTree(root_node, source, language, total_lines)
    try:
        validate_tree(tree)
    except MalformedTreeError as e:
        raise TreeXmlError(f"document violates tree invariants: {e}") from e
    return tree


def load_tree_file(path) -> EcstTree:
    """Read and parse an eCST XML file."""
    try:
        data = open(path, "rb").read()
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
    return parse_tree_xml(data)
