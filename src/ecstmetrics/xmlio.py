"""XML interchange: eCST documents and metrics reports.

Serialization is hand-rolled so output is byte-deterministic: fixed
attribute order, two-space indentation, no XML declaration, trailing
newline.  Parsing reads that form back one regular-expression match
per element line, in pieces that each end at an element's end; every
other document, valid or not, goes to expat, which alone reports
well-formedness and element violations, with the offending element and
line.  Either reader's tree is then validated in one place.  The line
reader yields tree.walk()'s events, which measure folds with no tree.
"""

from __future__ import annotations

import io
import re
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO
from xml.parsers import expat

from .errors import MalformedTreeError, SourceIoError, TreeXmlError
from .frontends import _NOT_XML_CHAR
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


def escape(text: str) -> str:
    """text with "&", "<" and ">" written as entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """text as a quoted attribute value, written as xml.sax.saxutils
    writes it: escaped, with tab, newline and carriage return as
    character references, in double quotes; in single quotes if it holds
    a double quote and no single one; with &quot; if it holds both."""
    text = (
        escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    )
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


# Lines a streamed tree document holds before it writes them out as one
# piece.  A larger piece saves few write calls but keeps more memory
# alive beside the tree, which stays whole while it is written.
_PIECE_LINES = 256


def serialize_tree(tree: EcstTree, out: TextIO | None = None) -> str | None:
    """Render a tree as a deterministic eCST XML document, in one pass
    without recursion.  Token types and node kinds are bare words from
    closed vocabularies, so they are written without escaping; a lexeme
    is escaped only when it holds "&", "<" or ">".

    Without out, return the document.  With a text file out, write it
    there in pieces of at least _PIECE_LINES lines, each cut after a
    </node> line, and return None: no whole document or list of its
    lines is ever held.
    """
    lines = [
        f"<ecst source={quoteattr(tree.source_path)}"
        f" language={quoteattr(tree.language_id)}"
        f' totalLines="{tree.total_lines}">\n'
    ]
    indents = ["", "  "]  # indents[d]: d levels, built once per depth
    depth = 0  # open <node> elements, each one level of indent
    for node in walk(tree.root):
        if node is None:
            lines.append(f"{indents[depth]}</node>\n")
            depth -= 1
            if out is not None and len(lines) >= _PIECE_LINES:
                out.write("".join(lines))
                lines.clear()
        elif node.kind is None:
            label = node.label
            if "&" in label or "<" in label or ">" in label:
                label = escape(label)
            lines.append(
                f'{indents[depth + 1]}<token type="{node.token_type}"'
                f' line="{node.start_line}" col="{node.start_col}"'
                f' endLine="{node.end_line}" endCol="{node.end_col}">{label}</token>\n'
            )
        else:
            depth += 1
            if depth + 1 == len(indents):
                indents.append(indents[-1] + "  ")
            lines.append(f'{indents[depth]}<node kind="{node.kind.value}">\n')
    lines.append("</ecst>\n")
    if out is None:
        return "".join(lines)
    out.write("".join(lines))
    return None


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
# Each kind's one childless node, which the line reader yields for every
# <node> of that kind.
_NODES = {kind.value: EcstNode(kind._value_, kind) for kind in UniversalKind}
# Each token type to the one string of its spelling that every reloaded
# token shares; each reader gets a new string per attribute value.
_TYPES = {token_type: token_type for token_type in TOKEN_TYPES}
# The one form of an integer attribute: ASCII digits.  A line, a column
# and totalLines must also be at least 1.
_INT = "[0-9]+"


class _Open(NamedTuple):
    """An element whose end tag has not been read yet."""

    tag: str
    attrs: dict
    line: int
    order: int  # position in document order
    children: list  # built child nodes; None for one that failed its checks
    text: list  # the character data chunks


def _fail(el: _Open, message: str):
    raise TreeXmlError(f"{message} (element <{el.tag}>, line {el.line})")


def _int_attr(el: _Open, name: str, ints: dict) -> int:
    """A positive integer attribute: a line, a column or totalLines.

    ints maps each value text already read in the document to its int,
    which every later equal value shares; int() would build a new one
    above 256.
    """
    raw = el.attrs.get(name)
    if raw is None:
        _fail(el, f"missing attribute {name!r}")
    value = ints.get(raw)
    if value is not None:
        return value
    # ASCII digits only, as _INT says: int() alone also takes "+5", " 5",
    # "1_0" and the digits of other scripts.
    if re.fullmatch(_INT, raw) is None:
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    try:
        value = int(raw)
    except ValueError:  # more digits than int() converts
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    if value < 1:
        _fail(el, f"attribute {name!r} must be >= 1, got {value}")
    ints[raw] = value
    return value


def _build_node(el: _Open, ints: dict) -> EcstNode:
    """The node for an element below <ecst>, its children already built.

    Checks the rules about the element's own fields in the order that
    decides which message a failing element gets; validate_tree checks
    the rules that span elements.
    """
    if el.tag == "node":
        kind_raw = el.attrs.get("kind")
        if kind_raw is None:
            _fail(el, "missing attribute 'kind'")
        kind = _KINDS.get(kind_raw)
        if kind is None:
            _fail(el, f"unknown universal kind {kind_raw!r}")
        if "".join(el.text).strip():
            _fail(el, "unexpected text content in <node>")
        # _value_ is kind.value without the enum property's call
        return EcstNode(kind._value_, kind, children=el.children)
    if el.tag == "token":
        type_raw = el.attrs.get("type")
        if type_raw is None:
            _fail(el, "missing attribute 'type'")
        token_type = _TYPES.get(type_raw)
        if token_type is None:
            _fail(el, f"unknown token type {type_raw!r}")
        if el.children:
            _fail(el, "<token> must not contain elements")
        lexeme = "".join(el.text)
        if not lexeme:
            _fail(el, "empty <token> lexeme")
        line = _int_attr(el, "line", ints)
        col = _int_attr(el, "col", ints)
        end_line = _int_attr(el, "endLine", ints)
        end_col = _int_attr(el, "endCol", ints)
        if line > end_line or line == end_line and col > end_col:
            span = SourceSpan(line, col, end_line, end_col)
            _fail(el, f"invalid span: span start after end: {span}")
        return EcstNode(lexeme, None, token_type, line, col, end_line, end_col)
    _fail(el, f"unknown element <{el.tag}>")


# -- the line reader: serialize_tree's own form ---------------------------

# Characters that the writer never leaves bare in text: markup, a
# carriage return, which expat reads as a line break, and any character
# outside XML 1.0's Char production, which expat rejects.
_NOT_XML = _NOT_XML_CHAR.pattern[1:-1]
_PLAIN = f"[^<&>\r{_NOT_XML}]*"
# A non-empty lexeme, its line breaks kept, "&", "<" and ">" as entities.
_LEXEME = f"(?!<)({_PLAIN}(?:&(?:amp|lt|gt);{_PLAIN})*)"
# A header value that expat reads as it stands: no quote, markup or
# whitespace that it would normalise.
_VALUE = f'"([^"<&\t\n\r{_NOT_XML}]*)"'
_HEADER = re.compile(
    f'<ecst source={_VALUE} language={_VALUE} totalLines="({_INT})">\n'
)
_TOKEN_START = (
    f'<token type="([a-z]+)" line="({_INT})" col="({_INT})"'
    f' endLine="({_INT})" endCol="({_INT})">'
)
# One element line: a token, a start tag or an end tag, after any run of
# spaces.  The spaces are blank text between elements, which neither
# reader keeps.
_LINE = re.compile(
    f' *(?:{_TOKEN_START}{_LEXEME}</token>|<node kind="([A-Z_]+)">|</node>)\n'
)

# Bytes the line reader asks a binary file for at a time: small beside
# any tree, and large enough that the costs of each piece do not show.
_READ_BYTES = 1 << 14


def _pieces(file: BinaryIO) -> Iterator[str]:
    """A binary file's text in pieces, each cut after the last ">\n"
    read so far; UnicodeDecodeError on text that is not UTF-8.  In
    serialize_tree's form that pair only ends an element, as text and
    header values hold ">" only as "&gt;": no element runs across a cut.
    """
    parts: list[bytes] = []  # what was read since the last cut
    while chunk := file.read(_READ_BYTES):
        cut = chunk.rfind(b">\n") + 2
        if cut > 1:
            parts.append(chunk[:cut])
            yield b"".join(parts).decode()
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
    if tail := b"".join(parts):
        yield tail.decode()


def _line_events(pieces: Iterable[str]) -> Iterator:
    """The header of a document in serialize_tree's form, then its
    events in walk()'s shape, read with one match of _LINE per element.

    The form: the header line, one element per line after any run of
    spaces, one COMPILATION_UNIT <node> holding all others, and
    "</ecst>\n" at the end; each token passes the rules of _build_node.
    Yields the header's (source, language, totalLines), then a shared
    childless node per <node> kind, one token node whose fields, its
    four position slots among them, each token overwrites, and None per
    </node>.  Raises ValueError at the first line or piece outside the
    form or UTF-8.
    """
    token = EcstNode("")
    head = None
    rest = ""  # what the last piece left unread
    depth = 0  # open <node> elements
    rooted = False  # the COMPILATION_UNIT <node> has started
    # The last token's line text and its int, which the next token on
    # that line shares; int() would build a new one above 256.
    line_text = ""
    line_int = 0
    for text in pieces:
        if rest:
            raise ValueError("a piece not read to its end")
        pos = 0
        if head is None:
            head = _HEADER.match(text)
            if head is None:
                raise ValueError("no header")
            source, language, total_lines = head.groups()
            total_lines = int(total_lines)
            if total_lines < 1:
                raise ValueError("no lines")
            yield source, language, total_lines
            pos = head.end()
        m = None
        for m in iter(_LINE.scanner(text, pos).match, None):
            (token_type, raw_line, raw_col, raw_end, raw_end_col, lexeme,
             kind) = m.groups()
            if token_type is not None:
                if raw_line != line_text:
                    line_int = int(raw_line)
                    line_text = raw_line
                line = line_int
                col = int(raw_col)
                end_line = line if raw_end == raw_line else int(raw_end)
                end_col = int(raw_end_col)
                token_type = _TYPES.get(token_type)
                if not depth or token_type is None or not (
                    0 < line <= end_line
                    and col > 0
                    and end_col > 0
                    and (line < end_line or col <= end_col)
                ):
                    raise ValueError("a token outside the form")
                if "&" in lexeme:
                    lexeme = (
                        lexeme.replace("&lt;", "<")
                        .replace("&gt;", ">")
                        .replace("&amp;", "&")
                    )
                token.label = lexeme
                token.token_type = token_type
                token.start_line = line
                token.start_col = col
                token.end_line = end_line
                token.end_col = end_col
                yield token
            elif kind is not None:
                node = _NODES.get(kind)
                if node is None or not depth and (
                    rooted or node.kind is not UniversalKind.COMPILATION_UNIT
                ):
                    raise ValueError("a <node> outside the form")
                rooted = True
                depth += 1
                yield node
            elif depth:
                depth -= 1
                yield None
            else:
                raise ValueError("an unmatched </node>")
        if m is not None:
            pos = m.end()
        rest = text[pos:]
    if not rooted or depth or rest != "</ecst>\n":
        raise ValueError("an unfinished document")


def _read_lines(pieces: Iterable[str]) -> EcstTree | None:
    """The tree of a document in serialize_tree's form, built from
    _line_events; None for any other document.  The tree is not
    validated here; _validated does that."""
    events = _line_events(pieces)
    top: list[EcstNode] = []  # the COMPILATION_UNIT node, once read
    children = top  # the open <node>'s children
    append = top.append
    parents: list[list] = []  # the children list each open <node> is in
    try:
        head = next(events)
        for node in events:
            if node is None:
                children = parents.pop()
                append = children.append
            elif node.kind is None:
                append(EcstNode(node.label, None, node.token_type, node.start_line,
                                node.start_col, node.end_line, node.end_col))
            else:
                node = EcstNode(node.label, node.kind, children=[])
                append(node)
                parents.append(children)
                children = node.children
                append = children.append
    except ValueError:  # a document not in the form, or not UTF-8
        return None
    return EcstTree(top[0], *head)


# -- parse_tree_xml: the line reader, else expat ---------------------------


def parse_tree_xml(data: bytes | str | BinaryIO) -> EcstTree:
    """Parse an eCST XML document back into a tree.

    data is the document as bytes or str, or a binary file, which is
    read in pieces, so the whole document is never held at once.

    A document in the form serialize_tree writes is read by _read_lines,
    one regular-expression match per element.  Any other document, and
    a non-seekable file, is read by expat from its start: a valid one
    gives the same tree, and expat's reader alone words the other faults.
    Either reader's tree goes through _validated, so its faults are
    worded once.  Raises TreeXmlError on any well-formedness or schema
    violation.
    """
    if not hasattr(data, "read"):
        pieces = (data,) if isinstance(data, str) else _pieces(io.BytesIO(data))
        tree = _read_lines(pieces)
    elif data.seekable():
        start = data.tell()
        tree = _read_lines(_pieces(data))
        if tree is None:
            data.seek(start)
    else:
        tree = None
    if tree is None:
        tree = _parse_expat(data)
    return _validated(tree)


def _validated(tree: EcstTree) -> EcstTree:
    """tree, once validate_tree passes it; else TreeXmlError wording its
    first invariant fault."""
    try:
        validate_tree(tree)
    except MalformedTreeError as e:
        raise TreeXmlError(f"document violates tree invariants: {e}") from e
    return tree


def _parse_expat(data: bytes | str | BinaryIO) -> EcstTree:
    """parse_tree_xml through expat, for any document.

    Nodes are built straight from the parser's events, without recursion:
    each element is one _Open record from its start tag, and at its end
    tag _build_node checks it and builds its node.  The tree is not
    validated here; _validated does that.
    Raises TreeXmlError on any well-formedness or element violation; of
    several element violations, the one of the <ecst> element comes
    first, then the first failing element in document order.
    """
    parser = expat.ParserCreate()
    parser.buffer_text = True
    stack: list[_Open] = []  # open elements; the <ecst> element stays
    top: list[_Open] = []  # records directly inside <ecst>
    failures: list = []  # (order, message) per failing element
    ints: dict = {}  # integer attribute text -> its shared int

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
            node = _build_node(el, ints)
        except TreeXmlError as e:
            # The message, not the error: its traceback holds this frame,
            # whose cells hold failures, and that cycle would keep the
            # whole tree alive until the cyclic garbage collector runs.
            failures.append((el.order, e.args[0]))
            node = None
        stack[-1].children.append(node)

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        if hasattr(data, "read"):
            parser.ParseFile(data)
        else:
            parser.Parse(data, True)
    except (expat.ExpatError, UnicodeEncodeError) as e:
        # pyexpat encodes a str as UTF-8, which a lone surrogate fails.
        raise TreeXmlError(f"not well-formed XML: {e}") from e
    finally:
        # The handlers' closures hold the parser; dropping them breaks
        # that cycle, so reference counting frees the parser and stack.
        parser.StartElementHandler = None
        parser.CharacterDataHandler = None
        parser.EndElementHandler = None
    root_el = stack[0]
    if root_el.tag != "ecst":
        _fail(root_el, "expected root element <ecst>")
    source = root_el.attrs.get("source")
    language = root_el.attrs.get("language")
    if source is None or language is None:
        _fail(root_el, "<ecst> requires source and language attributes")
    total_lines = _int_attr(root_el, "totalLines", ints)
    if len(root_el.children) != 1:
        _fail(root_el, "<ecst> must contain exactly one <node>")
    if failures:
        # Byte indices are unique, so min orders by document position.
        raise TreeXmlError(min(failures)[1])
    root_node = root_el.children[0]
    if root_node.kind is not UniversalKind.COMPILATION_UNIT:
        _fail(top[0], "top-level <node> must be COMPILATION_UNIT")
    return EcstTree(root_node, source, language, total_lines)


def load_tree_file(path) -> EcstTree:
    """Parse an eCST XML file, streaming it through parse_tree_xml."""
    try:
        with open(path, "rb") as f:
            return parse_tree_xml(f)
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
