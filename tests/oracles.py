"""Independent oracles for the test suite.

The line oracles deliberately avoid the package's scanner and tree
machinery: they walk the raw text with a small state machine so metric
values can be checked against a second, unrelated implementation.
comment_lines_inside applies the one rule for an element's comment
lines to their comments: those inside the element's subtree_span.

reference_lex is the character-loop scanner and classifier the package
used before its single-pass regex scanner; the lexer must agree with it
token for token and on every LexError.

A tree is one flat list of events: a UniversalKind at each universal
node's entry, each token as the plain tuple (label, token_type,
start_line, start_col, end_line, end_col), and None at each exit.  The
oracles read a test-only nested view of it instead (Nested, built by
nested and flattened back by events_of), in which each universal node
has its list of children and each token is a Leaf, a named view of the
token's six fields that compares equal to the tree's tuple.

reference_parse_source, reference_measure_tree and subtree_span keep the
subtree re-walking implementations the package used before its single
ordered pass over the events: comment placement by per-node token
ranges, metrics read off each measured node's own subtree, and a node's
span as the least and greatest position among its tokens.  Every oracle
here walks the nested view with this module's own preorder or its own
stack; nodes_of finds the universal nodes of one kind with it.  Two
rules differ from those earlier bodies on purpose, to match the current
definitions: a unit is named from its direct children, and a logical
operator counts once however many CONDITION nodes enclose it.

reference_parse_tree_xml reads a whole document in one call of expat
into a record per element, with its own check of every rule about an
element, each in the handler of the first event that shows its fault,
builds the nested view from those records, and then validates the tree
of its events.  The reader, which reads a document in pieces and builds
it from events, must give its tree or its TreeXmlError message on every
document.

reference_serialize_tree is the tree writer the package used before it
escaped only the lexemes that hold markup characters: every lexeme
escaped, each indent built per line, here with its own explicit stack
over the nested view.  The writer must give the same bytes for every
tree.

same_tree compares two trees' headers and events, each event by its
type and its value.
"""

from __future__ import annotations

import functools
from typing import NamedTuple
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from ecstmetrics.errors import (
    LexError,
    MalformedTreeError,
    TreeXmlError,
    UnsupportedLanguageError,
)
from ecstmetrics.frontends import FRONTENDS, count_physical_lines, lex
from ecstmetrics.metrics import (
    LOGICAL_OPERATORS,
    MEASURED_KINDS,
    ElementMetrics,
    LocBundle,
    MetricsReport,
)
from ecstmetrics.tree import (
    TOKEN_TYPES,
    EcstTree,
    SourceSpan,
    UniversalKind,
    validate_tree,
)


def line_count(text: str) -> int:
    """Lines end at "\\n" only, after "\\r\\n" and "\\r" become "\\n"."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return max(1, len(lines))


def classify_lines(text: str, language_id: str):
    """Return (code_lines, comment_lines, comments): two sets of 1-based
    line numbers and each comment's (line, col) start and end positions,
    1-based and inclusive, in source order.

    A line is a code line when it holds any non-whitespace character
    outside comments, and a comment line when a comment covers it,
    including blank interior lines of a block comment.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if language_id == "modula2":
        block_open, block_close = "(*", "*)"
        line_comment = None
        nested = True
        escapes = False
    elif language_id == "javaoo":
        block_open, block_close = "/*", "*/"
        line_comment = "//"
        nested = False
        escapes = True
    else:
        raise ValueError(f"no oracle for language {language_id!r}")

    code: set[int] = set()
    comment: set[int] = set()
    comments: list[tuple[tuple[int, int], tuple[int, int]]] = []
    line = 1
    line_start = 0  # offset of the current line's first character
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t":
            i += 1
            continue
        start = (line, i - line_start + 1)
        if line_comment is not None and text.startswith(line_comment, i):
            comment.add(line)
            while i < n and text[i] != "\n":
                i += 1
            comments.append((start, (line, i - line_start)))
            continue
        if text.startswith(block_open, i):
            depth = 1
            comment.add(line)
            i += len(block_open)
            while i < n and depth:
                comment.add(line)
                if text[i] == "\n":
                    line += 1
                    i += 1
                    line_start = i
                    continue
                if nested and text.startswith(block_open, i):
                    depth += 1
                    i += len(block_open)
                    continue
                if text.startswith(block_close, i):
                    depth -= 1
                    i += len(block_close)
                    continue
                i += 1
            comments.append((start, (line, i - line_start)))
            continue
        if c in "'\"":
            code.add(line)
            quote = c
            i += 1
            while i < n and text[i] not in (quote, "\n"):
                i += 2 if escapes and text[i] == "\\" else 1
            if i < n and text[i] == quote:
                i += 1
            continue
        code.add(line)
        i += 1
    return code, comment, comments


WORD = 0
NUMBER = 1
STRING = 2
SYMBOL = 3
COMMENT = 4


def _lex_error(message, line, col):
    return LexError(message, span=SourceSpan(line, col, line, col))


def reference_scan(
    text,
    line_comment,
    block_open,
    block_close,
    nested_blocks,
    two_char_ops,
    single_chars,
    string_escapes,
):
    """Tokenize text into raw (code, start, end, line, col, end_line,
    end_col) stretches; start/end are half-open offsets, the rest 1-based
    inclusive positions.  Newlines must already be normalized to "\\n"."""
    out = []
    i = 0
    n = len(text)
    line = 1
    col = 1
    lc_len = len(line_comment)
    bo_len = len(block_open)
    bc_len = len(block_close)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c == " " or c == "\t" or c == "\r":
            i += 1
            col += 1
            continue
        if lc_len and c == line_comment[0] and text.startswith(line_comment, i):
            j = i + lc_len
            while j < n and text[j] != "\n":
                j += 1
            out.append((COMMENT, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if bo_len and c == block_open[0] and text.startswith(block_open, i):
            start_line = line
            start_col = col
            depth = 1
            j = i + bo_len
            cur_line = line
            cur_col = col + bo_len
            closed = False
            while j < n:
                if text.startswith(block_close, j):
                    depth -= 1
                    j += bc_len
                    cur_col += bc_len
                    if depth == 0:
                        closed = True
                        break
                elif nested_blocks and text.startswith(block_open, j):
                    depth += 1
                    j += bo_len
                    cur_col += bo_len
                elif text[j] == "\n":
                    j += 1
                    cur_line += 1
                    cur_col = 1
                else:
                    j += 1
                    cur_col += 1
            if not closed:
                raise _lex_error("unterminated block comment", start_line, start_col)
            out.append((COMMENT, i, j, start_line, start_col, cur_line, cur_col - 1))
            i = j
            line = cur_line
            col = cur_col
            continue
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_":
            j = i + 1
            while j < n:
                c2 = text[j]
                if (
                    ("a" <= c2 <= "z")
                    or ("A" <= c2 <= "Z")
                    or ("0" <= c2 <= "9")
                    or c2 == "_"
                ):
                    j += 1
                else:
                    break
            out.append((WORD, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":
            j = i + 1
            while j < n and "0" <= text[j] <= "9":
                j += 1
            # decimal point only when a digit follows; keeps ".." a symbol
            if j + 1 < n and text[j] == "." and "0" <= text[j + 1] <= "9":
                j += 2
                while j < n and "0" <= text[j] <= "9":
                    j += 1
            out.append((NUMBER, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if c == '"' or c == "'":
            j = i + 1
            closed = False
            while j < n:
                c2 = text[j]
                if c2 == c:
                    j += 1
                    closed = True
                    break
                if c2 == "\n":
                    break
                if string_escapes and c2 == "\\" and j + 1 < n and text[j + 1] != "\n":
                    j += 2
                    continue
                j += 1
            if not closed:
                raise _lex_error("unterminated string literal", line, col)
            out.append((STRING, i, j, line, col, line, col + (j - i) - 1))
            col += j - i
            i = j
            continue
        if i + 1 < n and text[i : i + 2] in two_char_ops:
            out.append((SYMBOL, i, i + 2, line, col, line, col + 1))
            col += 2
            i += 2
            continue
        if c in single_chars:
            out.append((SYMBOL, i, i + 1, line, col, line, col))
            col += 1
            i += 1
            continue
        raise _lex_error(f"unrecognized character {c!r}", line, col)
    return out


def reference_lex(source, language_id):
    """Tokenize and classify source text the way the lexer must."""
    frontend = FRONTENDS.get(language_id)
    if frontend is None:
        raise UnsupportedLanguageError(f"no frontend for language {language_id!r}")
    spec = frontend.SPEC
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    raw = reference_scan(
        text,
        spec.line_comment,
        spec.block_open,
        spec.block_close,
        spec.nested_blocks,
        spec.two_char_ops,
        spec.single_chars,
        spec.string_escapes,
    )
    tokens = []
    for code, start, end, line, col, end_line, end_col in raw:
        lexeme = text[start:end]
        if code == WORD:
            if lexeme in spec.keywords:
                token_type = "keyword"
            elif lexeme in spec.operator_words:
                token_type = "operator"
            elif lexeme in spec.literal_words:
                token_type = "literal"
            else:
                token_type = "identifier"
        elif code == NUMBER or code == STRING:
            token_type = "literal"
        elif code == SYMBOL:
            token_type = "punctuation" if lexeme in spec.punctuation else "operator"
        else:
            token_type = "comment"
        tokens.append((lexeme, token_type, line, col, end_line, end_col))
    return tokens


# -- comment attachment ----------------------------------------------------


def reference_attach_comments(parser):
    """Insert the parser's comments into the nested view of its pristine
    events by token ranges, and give the parser that view's events.

    Each comment sits between real tokens p-1 and p; it becomes a child
    of the deepest node whose token range covers both neighbours.
    """
    if not parser.comments:
        return
    root = nested(parser.events)
    # Each Leaf of the view, by identity, to the index of its token: the
    # pristine events hold the real tokens once each, in order.
    leaves = [id(n) for n in preorder(root) if n.kind is None]
    assert len(leaves) == len(parser.toks)
    token_index = {leaf: i for i, leaf in enumerate(leaves)}
    ranges = {}

    def compute(node):
        cached = ranges.get(id(node))
        if cached is not None:
            return cached
        if node.kind is None:
            rng = (token_index[id(node)],) * 2
        else:
            child_ranges = [compute(c) for c in node.children]
            rng = (
                min(r[0] for r in child_ranges),
                max(r[1] for r in child_ranges),
            )
        ranges[id(node)] = rng
        return rng

    compute(root)
    n = len(parser.toks)
    placements = []
    for pos, comment_node in parser.comments:
        target = root
        if 0 < pos < n:
            while True:
                for child in target.children:
                    lo, hi = ranges[id(child)]
                    if lo <= pos - 1 and hi >= pos:
                        target = child
                        break
                else:
                    break
        index = len(target.children)
        for k, child in enumerate(target.children):
            if ranges[id(child)][0] >= pos:
                index = k
                break
        placements.append((target, index, Leaf(*comment_node)))

    by_parent = {}
    parents = {}
    for parent, index, node in placements:
        by_parent.setdefault(id(parent), []).append((index, node))
        parents[id(parent)] = parent
    for key, items in by_parent.items():
        parent = parents[key]
        offset = 0
        for index, node in sorted(items, key=lambda item: item[0]):
            parent.children.insert(index + offset, node)
            offset += 1
    parser.events[:] = events_of(root)


def reference_parse_source(source, language_id, source_path="<string>"):
    """parse_source with comments placed by reference_attach_comments."""
    parser = FRONTENDS[language_id](lex(source, language_id), language_id, source_path)
    parser._attach_comments = functools.partial(reference_attach_comments, parser)
    return parser.build_tree(count_physical_lines(source))


# -- metrics ---------------------------------------------------------------


def subtree_span(node):
    """Minimal span covering every concrete node in the subtree, found
    by comparing all of their positions.

    For a concrete node this is its own span.  A universal node with no
    concrete descendants has no position and is malformed by definition.
    """
    first = None
    last = None
    for n in preorder(node):
        if n.kind is not None:
            continue
        start_line, start_col, end_line, end_col = n.span
        if first is None or (start_line, start_col) < first:
            first = (start_line, start_col)
        if last is None or (end_line, end_col) > last:
            last = (end_line, end_col)
    if first is None:
        raise MalformedTreeError(
            f"universal node {node.label!r} has no concrete descendants"
        )
    return SourceSpan(*first, *last)


def comment_lines_inside(comments, node) -> int:
    """An element's CLOC by the subtree rule: the lines covered by the
    comments (classify_lines' positions) that start inside the node's
    subtree_span.  A comment outside the node on its first or last line
    is not counted."""
    span = subtree_span(node)
    lines = set()
    for start, end in comments:
        if span[:2] <= start <= span[2:]:
            lines.update(range(start[0], end[0] + 1))
    return len(lines)


def _is_decision_point(node):
    if node.kind is UniversalKind.LOOP_STATEMENT:
        return True
    if node.kind is UniversalKind.BRANCH:
        return any(child.kind is UniversalKind.CONDITION for child in node.children)
    return False


def _conditional_operators(root):
    """ids of the logical operator tokens that have a CONDITION ancestor."""
    found = set()
    for n in preorder(root):
        if n.kind is UniversalKind.CONDITION:
            for d in preorder(n):
                if d.token_type == "operator" and d.label in LOGICAL_OPERATORS:
                    found.add(id(d))
    return found


def _loc_bundle(node):
    span = subtree_span(node)
    code_lines = set()
    comment_lines = set()
    for n in preorder(node):
        if n.kind is not None:
            continue
        target = comment_lines if n.token_type == "comment" else code_lines
        start_line, _, end_line, _ = n.span
        target.update(range(start_line, end_line + 1))
    return LocBundle(
        loc=span.end_line - span.start_line + 1,
        sloc=len(code_lines),
        cloc=len(comment_lines),
    )


def _element_name(node):
    if node.kind is UniversalKind.FUNCTION_DECL:
        previous = None
        for child in node.children:
            if child.token_type == "punctuation" and child.label in ("(", ":", ";"):
                break
            if child.token_type == "identifier":
                previous = child
        if previous is not None:
            return previous.label
        for n in preorder(node):
            if n.token_type == "identifier":
                return n.label
        return "<anonymous>"
    if node.kind is UniversalKind.BRANCH_STATEMENT:
        return "BRANCHING"
    keywords = [
        child.label for child in node.children if child.token_type == "keyword"
    ]
    if node.kind is UniversalKind.LOOP_STATEMENT:
        head = keywords[0].upper() if keywords else "LOOP"
        return "DO-WHILE" if head == "DO" else head
    if not keywords:
        return "BRANCH"
    head = keywords[0].upper()
    if head == "ELSE" and len(keywords) > 1 and keywords[1].upper() == "IF":
        return "ELSIF"
    return head


def reference_measure_tree(tree):
    """measure_tree's reports, plain and extended, re-walking each
    measured node's subtree; returned as {extended: report}."""
    root = nested(tree)
    operators = _conditional_operators(root)
    rows = {False: [], True: []}
    for node in preorder(root):
        if node.kind in MEASURED_KINDS:
            bundle = _loc_bundle(node)
            span = subtree_span(node)
            name = _element_name(node)
            cc = 1 if node.kind is UniversalKind.FUNCTION_DECL else 0
            logical = 0
            for n in preorder(node):
                cc += _is_decision_point(n)
                logical += id(n) in operators
            for extended, extra in ((False, 0), (True, logical)):
                rows[extended].append(
                    ElementMetrics(
                        name=name,
                        annotation=node.kind.value,
                        cc=cc + extra,
                        loc=bundle.loc,
                        sloc=bundle.sloc,
                        cloc=bundle.cloc,
                        start_line=span.start_line,
                        end_line=span.end_line,
                    )
                )
    whole = _loc_bundle(root)
    totals = LocBundle(loc=tree.total_lines, sloc=whole.sloc, cloc=whole.cloc)
    return {
        extended: MetricsReport(
            source_path=tree.source_path,
            language_id=tree.language_id,
            elements=elements,
            totals=totals,
        )
        for extended, elements in rows.items()
    }


# -- trees -----------------------------------------------------------------


class Leaf(NamedTuple):
    """A token of the nested view: the six fields of the tree's tuple,
    named.  It answers the fields of a Nested too, as kind None."""

    label: str
    token_type: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    kind = None

    @property
    def span(self) -> tuple[int, int, int, int]:
        return self[2:]


class Nested:
    """A universal node of the nested view of a tree's events: its kind
    and its children, universal nodes of this view and Leafs.  It answers
    the fields of a Leaf too, its label the kind's spelling."""

    __slots__ = ("kind", "children")
    token_type = None
    span = None

    def __init__(self, kind: UniversalKind, children: list | None = None):
        self.kind = kind
        self.children = [] if children is None else children

    @property
    def label(self) -> str:
        return self.kind.value


def nested(tree_or_events) -> Nested:
    """The nested view of a tree's events, or of a list in their shape,
    built without recursion."""
    events = getattr(tree_or_events, "events", tree_or_events)
    opened: list[Nested] = []  # the view of each open universal node
    root = None
    for node in events:
        if node is None:
            root = opened.pop()
        elif isinstance(node, UniversalKind):
            view = Nested(node)
            if opened:
                opened[-1].children.append(view)
            opened.append(view)
        else:
            opened[-1].children.append(Leaf(*node))
    return root


def events_of(root: Nested) -> list:
    """The events of a nested view, each token as a plain tuple, built
    without recursion."""
    events = [root.kind]
    stack = [iter(root.children)]  # per open node, its children not yet read
    while stack:
        for node in stack[-1]:
            if node.kind is None:
                events.append(tuple(node))
            else:
                events.append(node.kind)
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
            events.append(None)
    return events


def tree_of(root: Nested, source_path="t", language_id="modula2", total_lines=1) -> EcstTree:
    """The tree whose nested view is root."""
    return EcstTree(events_of(root), source_path, language_id, total_lines)


def preorder(tree_or_node):
    """Every node of a tree's nested view or of a subtree of one, parent
    before children."""
    if isinstance(tree_or_node, EcstTree):
        tree_or_node = nested(tree_or_node)
    stack = [tree_or_node]
    while stack:
        node = stack.pop()
        yield node
        if node.kind is not None:
            stack.extend(reversed(node.children))


def nodes_of(tree_or_node, kind):
    """The universal nodes of one kind, in preorder."""
    return [n for n in preorder(tree_or_node) if n.kind is kind]


def same_tree(a: EcstTree, b: EcstTree) -> bool:
    """Equal headers, and equal events, each of the same type and value."""
    if (a.source_path, a.language_id, a.total_lines) != (
        b.source_path,
        b.language_id,
        b.total_lines,
    ):
        return False
    return len(a.events) == len(b.events) and all(
        type(x) is type(y) and x == y for x, y in zip(a.events, b.events)
    )


# -- tree XML reader -------------------------------------------------------

_KIND_VALUES = {kind.value for kind in UniversalKind}


class _Open(NamedTuple):
    """An element whose end tag has not been read yet."""

    tag: str
    attrs: dict
    line: int
    children: list  # built child nodes
    text: list  # the character data chunks not yet checked or used


def _fail(el: _Open, message: str):
    raise TreeXmlError(f"{message} (element <{el.tag}>, line {el.line})")


def _int_attr(el: _Open, name: str) -> int:
    """A positive integer attribute: a line, a column or totalLines."""
    raw = el.attrs.get(name)
    if raw is None:
        _fail(el, f"missing attribute {name!r}")
    # ASCII digits only: int() alone also takes "+5", " 5", "1_0" and
    # the digits of other scripts.
    if not (raw.isascii() and raw.isdigit()):
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    try:
        value = int(raw)
    except ValueError:  # more digits than int() converts
        _fail(el, f"attribute {name!r} is not an integer: {raw!r}")
    if value < 1:
        _fail(el, f"attribute {name!r} must be >= 1, got {value}")
    return value


def _check_start(el: _Open, parent: _Open | None) -> None:
    """The rules an element's start tag shows: the root's fields, its
    place, and a <node>'s kind."""
    if parent is None:
        if el.tag != "ecst":
            _fail(el, "expected root element <ecst>")
        if el.attrs.get("source") is None or el.attrs.get("language") is None:
            _fail(el, "<ecst> requires source and language attributes")
        _int_attr(el, "totalLines")
        return
    if parent.tag == "token":
        _fail(parent, "<token> must not contain elements")
    if parent.tag == "ecst" and (parent.children or el.tag != "node"):
        _fail(parent, "<ecst> must contain exactly one <node>")
    if el.tag == "node":
        kind_raw = el.attrs.get("kind")
        if kind_raw is None:
            _fail(el, "missing attribute 'kind'")
        if kind_raw not in _KIND_VALUES:
            _fail(el, f"unknown universal kind {kind_raw!r}")
        if parent.tag == "ecst" and kind_raw != "COMPILATION_UNIT":
            _fail(el, "top-level <node> must be COMPILATION_UNIT")
    elif el.tag != "token":
        _fail(el, f"unknown element <{el.tag}>")


def _build_node(el: _Open) -> Leaf | Nested:
    """The node for an element below <ecst> at its end tag, in the
    nested view, its children already built, once the rules about a
    token's fields hold."""
    if el.tag == "node":
        return Nested(UniversalKind(el.attrs["kind"]), el.children)
    text = "".join(el.text)
    token_type = el.attrs.get("type")
    if token_type is None:
        _fail(el, "missing attribute 'type'")
    if token_type not in TOKEN_TYPES:
        _fail(el, f"unknown token type {token_type!r}")
    if not text:
        _fail(el, "empty <token> lexeme")
    span = (
        _int_attr(el, "line"),
        _int_attr(el, "col"),
        _int_attr(el, "endLine"),
        _int_attr(el, "endCol"),
    )
    if span[:2] > span[2:]:
        _fail(el, f"invalid span: span start after end: {SourceSpan(*span)}")
    return Leaf(text, token_type, *span)


def reference_parse_tree_xml(data: bytes | str) -> EcstTree:
    """Parse an eCST XML document back into a tree, the whole document
    in one call of expat.

    Nodes are built straight from the parser's events, without recursion.
    Each element rule is checked in the handler of the first event that
    shows its fault, and the first fault ends the parse: the root's
    fields, an element's place and a <node>'s kind at its start tag, a
    <token>'s fields at its end tag, and text in a <node> at the next
    start or end tag.  Raises TreeXmlError on the first fault of
    well-formedness or of an element, in document order; then on the
    first fault of validate_tree.
    """
    if isinstance(data, str):
        # Read as its characters, a lone surrogate kept in its place.
        parser = expat.ParserCreate("utf-8")
        data = data.encode("utf-8", "surrogatepass")
    else:
        parser = expat.ParserCreate()
    parser.buffer_text = True
    stack: list[_Open] = []  # open elements; the <ecst> element stays

    def check_text():
        # Blank text between a <node>'s children is dropped once checked.
        if stack and stack[-1].tag == "node":
            if "".join(stack[-1].text).strip():
                _fail(stack[-1], "unexpected text content in <node>")
            stack[-1].text.clear()

    def start(tag, attrs):
        check_text()
        el = _Open(tag, attrs, parser.CurrentLineNumber, [], [])
        _check_start(el, stack[-1] if stack else None)
        stack.append(el)

    def chars(text):
        stack[-1].text.append(text)

    def end(tag):
        check_text()
        if len(stack) == 1:
            if not stack[0].children:
                _fail(stack[0], "<ecst> must contain exactly one <node>")
            return
        el = stack.pop()
        stack[-1].children.append(_build_node(el))

    parser.StartElementHandler = start
    parser.CharacterDataHandler = chars
    parser.EndElementHandler = end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as e:
        raise TreeXmlError(f"not well-formed XML: {e}") from e
    root_el = stack[0]
    tree = EcstTree(
        events_of(root_el.children[0]),
        root_el.attrs["source"],
        root_el.attrs["language"],
        int(root_el.attrs["totalLines"]),
    )
    try:
        validate_tree(tree)
    except MalformedTreeError as e:
        raise TreeXmlError(f"document violates tree invariants: {e}") from e
    return tree


# -- tree XML writer -------------------------------------------------------


def reference_serialize_tree(tree: EcstTree) -> str:
    """Render a tree as a deterministic eCST XML document, in one pass
    without recursion.  Token types and node kinds are bare words from
    closed vocabularies, so they are written without escaping."""
    out = [
        f"<ecst source={quoteattr(tree.source_path)}"
        f" language={quoteattr(tree.language_id)}"
        f' totalLines="{tree.total_lines}">\n'
    ]
    # Per open <node> element, its children not yet written.
    stack = [iter([nested(tree)])]
    while stack:
        depth = len(stack) - 1  # open <node> elements, each one level of indent
        for node in stack[-1]:
            if node.kind is None:
                _, _, line, col, end_line, end_col = node
                out.append(
                    f"{'  ' * (depth + 1)}<token type=\"{node.token_type}\""
                    f' line="{line}" col="{col}"'
                    f' endLine="{end_line}" endCol="{end_col}"'
                    f">{escape(node.label)}</token>\n"
                )
            else:
                out.append(f"{'  ' * (depth + 1)}<node kind=\"{node.kind.value}\">\n")
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
            if stack:
                out.append(f"{'  ' * depth}</node>\n")
    out.append("</ecst>\n")
    return "".join(out)
