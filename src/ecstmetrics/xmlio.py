"""XML interchange: eCST documents and metrics reports.

Serialization is hand-rolled so output is byte-deterministic: fixed
attribute order, two-space indentation, no XML declaration, trailing
newline.  Parsing reads a document as a tree's events from one of two
sources: the line reader reads that form in pieces that each end at an
element's end, with one regular-expression findall per piece;
expat reads every other document, valid or not, and alone words faults
of well-formedness and of an element, with the element and its line.
One function chooses the source and ranks the faults for both
parse_tree_xml, which builds a tree from the events in one place, and
measure, which folds them with no tree.
"""

from __future__ import annotations

import io
import re
from typing import BinaryIO, Iterable, Iterator, TextIO
from xml.parsers import expat

from .errors import MalformedTreeError, SourceIoError, TreeXmlError
from .frontends import _NOT_XML_CHAR
from .tree import SPELLING, TOKEN_TYPES, UNIT, EcstTree, SourceSpan, validate_tree

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
    spelling = SPELLING
    indents = ["", "  "]  # indents[d]: d levels, built once per depth
    depth = 0  # open <node> elements, each one level of indent
    for node in tree.events:
        if type(node) is tuple:
            label, token_type, line, col, end_line, end_col = node
            if "&" in label or "<" in label or ">" in label:
                label = escape(label)
            lines.append(
                f'{indents[depth + 1]}<token type="{token_type}"'
                f' line="{line}" col="{col}"'
                f' endLine="{end_line}" endCol="{end_col}">{label}</token>\n'
            )
        elif node is None:
            lines.append(f"{indents[depth]}</node>\n")
            depth -= 1
            if out is not None and len(lines) >= _PIECE_LINES:
                out.write("".join(lines))
                lines.clear()
        else:
            depth += 1
            if depth + 1 == len(indents):
                indents.append(indents[-1] + "  ")
            lines.append(f'{indents[depth]}<node kind="{spelling[node]}">\n')
    lines.append("</ecst>\n")
    if out is None:
        return "".join(lines)
    out.write("".join(lines))
    return None


def serialize_metrics(report, out: TextIO | None = None) -> str | None:
    """Render a metrics report as a deterministic XML document.

    Without out, return the document.  With a text file out, write it
    there in pieces of _PIECE_LINES lines and return None, as
    serialize_tree does.  Each distinct name and annotation is quoted
    once.
    """
    lines = [
        f"<metrics source={quoteattr(report.source_path)}"
        f" language={quoteattr(report.language_id)}>\n"
    ]
    quoted = {}  # each name and annotation written so far -> its quoteattr
    for name, annotation, cc, loc, sloc, cloc, start_line, end_line in report.elements:
        if (quoted_name := quoted.get(name)) is None:
            quoted_name = quoted[name] = quoteattr(name)
        if (quoted_annotation := quoted.get(annotation)) is None:
            quoted_annotation = quoted[annotation] = quoteattr(annotation)
        lines.append(
            f"  <element name={quoted_name} annotation={quoted_annotation}"
            f' cc="{cc}" loc="{loc}" sloc="{sloc}" cloc="{cloc}"'
            f' startLine="{start_line}" endLine="{end_line}"/>\n'
        )
        if out is not None and len(lines) == _PIECE_LINES:
            out.write("".join(lines))
            lines.clear()
    totals = report.totals
    lines.append(
        f'  <totals loc="{totals.loc}" sloc="{totals.sloc}" cloc="{totals.cloc}"/>\n'
    )
    lines.append("</metrics>\n")
    if out is None:
        return "".join(lines)
    out.write("".join(lines))
    return None


# -- parsing ---------------------------------------------------------------

# Each token type to the one string of its spelling that every reloaded
# token shares; each reader gets a new string per attribute value.
_TYPES = {token_type: token_type for token_type in TOKEN_TYPES}
# Each universal kind's spelling to the kind.
_KINDS = {spelling: kind for kind, spelling in SPELLING.items()}
# Each reference that escape and quoteattr write, and its character.
_REFS = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&#9;": "\t", "&#10;": "\n", "&#13;": "\r",
}
_REF = re.compile("|".join(_REFS))


def _unescape(text: str) -> str:
    """text with each reference of _REFS replaced by its character."""
    return _REF.sub(lambda ref: _REFS[ref[0]], text)


# -- the line reader: serialize_tree's own form ---------------------------

# Characters that the writer never leaves bare in text: markup, a
# carriage return, which expat reads as a line break, and any character
# outside XML 1.0's Char production, which expat rejects.
_NOT_XML = _NOT_XML_CHAR.pattern[1:-1]
_PLAIN = f"[^<&>\r{_NOT_XML}]*"
# A non-empty lexeme, its line breaks kept, "&", "<" and ">" as entities.
_LEXEME = f"(?!<)({_PLAIN}(?:&(?:amp|lt|gt);{_PLAIN})*)"
# A header value as quoteattr writes it, quotes included: no markup, and
# whitespace that expat would normalise only as a reference.
_VALUE = "|".join(
    f"{quote}(?:[^{quote}<&>\t\n\r{_NOT_XML}]|{'|'.join(_REFS)})*{quote}"
    for quote in "\"'"
)
# totalLines, a line or a column: ASCII digits of an integer of at least
# 1, with no leading zero, so two equal positions have equal text.
_POSITION = "[1-9][0-9]*"
_HEADER = re.compile(
    f'<ecst source=({_VALUE}) language=({_VALUE}) totalLines="({_POSITION})">\n'
)
# What findall reads of a piece, one tuple per match: an element line,
# after any run of spaces, a token, a start tag or an end tag; else the
# rest of the piece, in the last group alone.  The spaces are blank text
# between elements, which neither reader keeps.  Some alternative
# matches at any place, so the matches cover the whole piece, and the
# rest is "</ecst>\n" only at the document's end.
_LINES = re.compile(
    f' *(?:<token type="([a-z]+)" line="({_POSITION})" col="({_POSITION})"'
    f' endLine="({_POSITION})" endCol="({_POSITION})">{_LEXEME}</token>'
    f'|<node kind="([A-Z_]+)">|</node>)\n|([\\s\\S]+)'
)
# The int of each column or end column up to 256, saving an int() call.
_COLUMNS = {str(col): col for col in range(1, 257)}

# Bytes each reader asks a binary file for at a time, and characters the
# line reader takes of a str: small beside any tree, and large enough
# that the costs of each piece do not show.
_READ_BYTES = 1 << 14


def _pieces(data: str | BinaryIO) -> Iterator[str]:
    """The text of a str or of a binary file in pieces of about
    _READ_BYTES, each cut after the last ">\n" read so far, whether its
    two characters came in one read or in two; raises
    UnicodeDecodeError on a file's text that is not UTF-8.  In
    serialize_tree's form that pair only ends an element, as text and
    header values hold ">" only as "&gt;": no element runs across a cut.
    """
    if isinstance(data, str):
        chunks = (data[at : at + _READ_BYTES] for at in range(0, len(data), _READ_BYTES))
        mark, join = ">\n", "".join
    else:
        chunks = iter(lambda: data.read(_READ_BYTES), b"")
        mark, join = b">\n", lambda parts: b"".join(parts).decode()
    gt, newline = mark[:1], mark[1:]
    parts: list = []  # what was read since the last cut
    for chunk in chunks:
        cut = chunk.rfind(mark) + 2  # 1 if chunk holds no ">\n"
        # A cut at 1 ends a pair whose ">" ended the previous read.
        if cut > 1 or chunk[:1] == newline and parts and parts[-1][-1:] == gt:
            parts.append(chunk[:cut])
            yield join(parts)
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
    if tail := join(parts):
        yield tail


def _line_events(pieces: Iterable[str], share: bool = False) -> Iterator:
    """The header of a document in serialize_tree's form, then its
    events in a tree's shape, read with one findall of _LINES per piece.

    The form: the header line, one element per line after any run of
    spaces, one COMPILATION_UNIT <node> holding all others, and
    "</ecst>\n" at the end; each token passes the rules of
    _expat_events, its positions written with no leading zero.  Yields
    the header's (source, language, totalLines), then the kind per
    <node>, each token's tuple and None per </node>.  With share, tokens
    of one lexeme share its first str, as the scanner's tokens do.
    Raises ValueError at the first line or piece outside the form or
    UTF-8.
    """
    labels = {} if share else None  # each lexeme read so far -> its first str
    columns = _COLUMNS
    head = None
    ended = False  # "</ecst>\n" has ended a piece
    depth = 0  # open <node> elements
    rooted = False  # the COMPILATION_UNIT <node> has started
    # The last token's line text and its int, which the next token on
    # that line shares; int() would build a new one above 256.
    line_text = ""
    line_int = 0
    for text in pieces:
        if ended:
            raise ValueError("a piece after </ecst>")
        pos = 0
        if head is None:
            head = _HEADER.match(text)
            if head is None:
                raise ValueError("no header")
            source, language, total_lines = head.groups()
            yield _unescape(source[1:-1]), _unescape(language[1:-1]), int(total_lines)
            pos = head.end()
        for (token_type, raw_line, raw_col, raw_end, raw_end_col, lexeme, kind,
             rest) in _LINES.findall(text, pos):
            if token_type:
                if raw_line != line_text:
                    line_int = int(raw_line)
                    line_text = raw_line
                line = line_int
                col = columns.get(raw_col) or int(raw_col)
                end_col = columns.get(raw_end_col) or int(raw_end_col)
                if raw_end == raw_line:
                    end_line = line
                    ordered = col <= end_col
                else:
                    end_line = int(raw_end)
                    ordered = end_line > line
                token_type = _TYPES.get(token_type)
                if not depth or token_type is None or not ordered:
                    raise ValueError("a token outside the form")
                if "&" in lexeme:
                    # _LEXEME admits only these three references; "&amp;"
                    # goes last, so the text "&amp;lt;" reads as "&lt;".
                    lexeme = lexeme.replace("&lt;", "<").replace("&gt;", ">")
                    lexeme = lexeme.replace("&amp;", "&")
                if labels is not None:
                    lexeme = labels.setdefault(lexeme, lexeme)
                yield lexeme, token_type, line, col, end_line, end_col
            elif kind:
                kind = _KINDS.get(kind)
                if kind is None or not depth and (rooted or kind is not UNIT):
                    raise ValueError("a <node> outside the form")
                rooted = True
                depth += 1
                yield kind
            elif rest:
                if rest != "</ecst>\n" or depth or not rooted:
                    raise ValueError("a line outside the form")
                ended = True
            elif depth:
                depth -= 1
                yield None
            else:
                raise ValueError("an unmatched </node>")
    if not ended:
        raise ValueError("an unfinished document")


# -- the expat reader: every other document -------------------------------


def _fail(el: tuple, message: str):
    """TreeXmlError for el, an element's (tag, attributes, line)."""
    raise TreeXmlError(f"{message} (element <{el[0]}>, line {el[2]})")


def _int_attr(el: tuple, name: str) -> int:
    """A positive integer attribute: a line, a column or totalLines."""
    raw = el[1].get(name)
    if raw is None:
        _fail(el, f"missing attribute {name!r}")
    # ASCII digits only: int() alone also takes "+5", " 5", "1_0" and the
    # digits of other scripts.
    if not (raw.isascii() and raw.isdigit()):
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    try:
        value = int(raw)
    except ValueError:  # more digits than int() converts
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    if value < 1:
        _fail(el, f"attribute {name!r} must be >= 1, got {value}")
    return value


def _expat_events(data: bytes | str | BinaryIO, share: bool = False) -> Iterator:
    """The events of any document in _line_events' shape, read by expat
    in pieces of _READ_BYTES: the header's (source, language,
    totalLines), the kind per <node>, each token's tuple and None per
    </node>, tokens of one lexeme sharing one str with share.  A str is
    read as its characters, whatever encoding its declaration names.

    Each element rule is checked at the first handler that can see it:
    the root's fields and a <node>'s kind and place at its start tag, a
    <token>'s fields at its end tag, and text in a <node> at the next
    tag, as expat hands buffered text over at the end of a piece but
    not before a fault.  Raises TreeXmlError at the first fault of
    well-formedness or of an element, in reading order.
    """
    parser = expat.ParserCreate("utf-8" if isinstance(data, str) else None)
    parser.buffer_text = True
    events: list = []  # what the piece being read produced
    labels = {} if share else None  # each lexeme read so far -> its first str
    opened: list[tuple] = []  # (tag, attributes, line) per open element
    text: list[str] = []  # the open <token>'s character data
    # The last token's line text and its int, which the next token on
    # that line shares; int() would build a new one above 256.  No
    # attribute value equals the 0 before the first token.
    line_text = line_int = 0
    stray = None  # the open <node>, once it holds text that is not blank
    rooted = False  # the top-level <node> has started

    def start(tag, attrs):
        nonlocal rooted
        el = (tag, attrs, parser.CurrentLineNumber)
        if stray:
            _fail(stray, "unexpected text content in <node>")
        if not opened:
            if tag != "ecst":
                _fail(el, "expected root element <ecst>")
            head = attrs.get("source"), attrs.get("language")
            if None in head:
                _fail(el, "<ecst> requires source and language attributes")
            events.append((*head, _int_attr(el, "totalLines")))
        elif opened[-1][0] == "token":
            _fail(opened[-1], "<token> must not contain elements")
        elif len(opened) == 1 and (rooted or tag != "node"):
            _fail(opened[0], "<ecst> must contain exactly one <node>")
        elif tag == "node":
            kind = attrs.get("kind")
            if kind is None:
                _fail(el, "missing attribute 'kind'")
            node = _KINDS.get(kind)
            if node is None:
                _fail(el, f"unknown universal kind {kind!r}")
            if len(opened) == 1:
                if node is not UNIT:
                    _fail(el, "top-level <node> must be COMPILATION_UNIT")
                rooted = True
            events.append(node)
        elif tag != "token":
            _fail(el, f"unknown element <{tag}>")
        opened.append(el)

    def chars(data):
        nonlocal stray
        el = opened[-1]
        if el[0] == "token":
            text.append(data)
        elif el[0] == "node" and data.strip():
            stray = el

    def end(tag):
        nonlocal line_text, line_int
        if stray:
            _fail(stray, "unexpected text content in <node>")
        el = opened.pop()
        if tag == "node":
            events.append(None)
        elif tag == "token":
            attrs = el[1]
            type_raw = attrs.get("type")
            if type_raw is None:
                _fail(el, "missing attribute 'type'")
            token_type = _TYPES.get(type_raw)
            if token_type is None:
                _fail(el, f"unknown token type {type_raw!r}")
            lexeme = "".join(text)
            text.clear()
            if not lexeme:
                _fail(el, "empty <token> lexeme")
            if attrs.get("line") != line_text:
                line_int = _int_attr(el, "line")
                line_text = attrs["line"]
            line = line_int
            col = _int_attr(el, "col")
            if attrs.get("endLine") == line_text:
                end_line = line
            else:
                end_line = _int_attr(el, "endLine")
            end_col = _int_attr(el, "endCol")
            if line > end_line or line == end_line and col > end_col:
                span = SourceSpan(line, col, end_line, end_col)
                _fail(el, f"invalid span: span start after end: {span}")
            if labels is not None:
                lexeme = labels.setdefault(lexeme, lexeme)
            events.append((lexeme, token_type, line, col, end_line, end_col))
        elif not rooted:
            _fail(el, "<ecst> must contain exactly one <node>")

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        if isinstance(data, str):
            # A lone surrogate keeps its place, for expat to reject there.
            data = data.encode("utf-8", "surrogatepass")
        if not hasattr(data, "read"):
            data = io.BytesIO(data)
        while piece := data.read(_READ_BYTES):
            parser.Parse(piece, False)
            yield from events
            events.clear()
        parser.Parse(b"", True)
        yield from events
    except expat.ExpatError as e:
        raise TreeXmlError(f"not well-formed XML: {e}") from e
    finally:
        # The handlers' closures hold the parser; dropping them breaks
        # that cycle, so reference counting frees the parser.
        parser.StartElementHandler = None
        parser.CharacterDataHandler = None
        parser.EndElementHandler = None


# -- parse_tree_xml: one builder over the source _read chooses ------------


def _tree(head: tuple, events: Iterable) -> EcstTree:
    """The tree of a header's (source, language, totalLines) and the
    events of either reader after it, kept as the reader gives them,
    once validate_tree passes it."""
    tree = EcstTree(list(events), *head)
    validate_tree(tree)
    return tree


def _read(data: bytes | str | BinaryIO, consume, share: bool = False):
    """consume(head, events) over the document data, bytes, a str or a
    binary file read from its position: the header and events of the
    line reader, or of expat from the start once the line reader
    declines the document.  A binary file that cannot seek, such as a
    pipe, goes to expat at once.  share goes to the reader: a caller
    that keeps the tokens shares one str per lexeme.

    The first fault of well-formedness or of an element, in reading
    order, is raised as TreeXmlError.  An invariant fault, which consume
    raises as MalformedTreeError, is raised only once the rest of the
    events are read, so any fault of an element outranks it.
    """
    if isinstance(data, str):
        pieces = _pieces(data)
    elif not hasattr(data, "read"):
        pieces = _pieces(io.BytesIO(data))
    elif data.seekable():
        start = data.tell()
        pieces = _pieces(data)
    else:
        return _consumed(_expat_events(data, share), consume)
    try:
        return _consumed(_line_events(pieces, share), consume)
    except ValueError:  # not in the writer's form, or not UTF-8
        pass
    # Expat starts once the except block has freed what the line reader built.
    if hasattr(data, "read"):
        data.seek(start)
    return _consumed(_expat_events(data, share), consume)


def _consumed(events: Iterator, consume):
    """consume(head, events) for one reader's header and events, by the
    fault rule of _read."""
    head = next(events)
    try:
        return consume(head, events)
    except MalformedTreeError as e:
        for _ in events:  # a later fault of an element, or a decline, wins
            pass
        raise TreeXmlError(f"document violates tree invariants: {e}") from e


def parse_tree_xml(data: bytes | str | BinaryIO) -> EcstTree:
    """Parse an eCST XML document back into a validated tree.

    data is the document as bytes or str, or a binary file, which is
    read in pieces, so the whole document is never held at once.  The
    tree is built by _tree from the events _read chooses, tokens of one
    lexeme sharing one str; raises TreeXmlError on any fault, as _read
    ranks them.
    """
    return _read(data, _tree, True)


def load_tree_file(path) -> EcstTree:
    """Parse an eCST XML file, streaming it through parse_tree_xml."""
    try:
        with open(path, "rb") as f:
            return parse_tree_xml(f)
    except OSError as e:
        raise SourceIoError(f"cannot read {path}: {e.strerror or e}") from e
