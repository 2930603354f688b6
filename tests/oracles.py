"""Independent oracles for the test suite.

The line oracles deliberately avoid the package's scanner and tree
machinery: they walk the raw text with a small state machine so metric
values can be checked against a second, unrelated implementation.

reference_lex is the character-loop scanner and classifier the package
used before its single-pass regex scanner; the lexer must agree with it
token for token and on every LexError.

reference_parse_source, reference_measure_tree and subtree_span keep the
subtree re-walking implementations the package used before its single
ordered pass (tree.walk): comment placement by per-node token ranges,
metrics read off each measured node's own subtree, and a node's span as
the least and greatest position among its tokens.  Two rules differ
from those earlier bodies on purpose, to match the current definitions:
a unit is named from its direct children, and a logical operator counts
once however many CONDITION nodes enclose it.

reference_parse_tree_xml is the XML reader the package used before its
reader built valid elements in the handlers themselves: a record per
element and every check run on every element.  The reader must give
its tree or its TreeXmlError message on every document.

same_tree compares two trees field by field without recursion;
EcstNode itself compares by identity.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple
from xml.parsers import expat

from ecstmetrics.errors import (
    LexError,
    MalformedTreeError,
    TreeXmlError,
    UnsupportedLanguageError,
)
from ecstmetrics.frontends import FRONTENDS
from ecstmetrics.lexer import LEXER_SPECS, count_physical_lines, lex
from ecstmetrics.metrics import (
    LOGICAL_OPERATORS,
    MEASURED_KINDS,
    ElementMetrics,
    LocBundle,
    MetricsReport,
)
from ecstmetrics.tree import (
    TOKEN_TYPES,
    EcstNode,
    EcstTree,
    SourceSpan,
    UniversalKind,
    preorder,
    validate_tree,
    walk,
)


def line_count(text: str) -> int:
    """Lines end at "\\n" only, after "\\r\\n" and "\\r" become "\\n"."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return max(1, len(lines))


def classify_lines(text: str, language_id: str):
    """Return (code_lines, comment_lines) as sets of 1-based numbers.

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
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t":
            i += 1
            continue
        if line_comment is not None and text.startswith(line_comment, i):
            comment.add(line)
            while i < n and text[i] != "\n":
                i += 1
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
    return code, comment


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
    spec = LEXER_SPECS.get(language_id)
    if spec is None:
        raise UnsupportedLanguageError(f"no lexer for language {language_id!r}")
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
        tokens.append(
            EcstNode.concrete(lexeme, token_type, SourceSpan(line, col, end_line, end_col))
        )
    return tokens


# -- comment attachment ----------------------------------------------------


def reference_attach_comments(parser, root):
    """Insert the parser's comments into its pristine tree by token ranges.

    Each comment sits between real tokens p-1 and p; it becomes a child
    of the deepest node whose token range covers both neighbours.
    """
    if not parser.comments:
        return
    # A concrete node is the token itself, so it shares the token's
    # SourceSpan object.
    token_index = {id(tok.span): i for i, tok in enumerate(parser.toks)}
    ranges = {}

    def compute(node):
        cached = ranges.get(id(node))
        if cached is not None:
            return cached
        if not node.is_universal:
            rng = (token_index[id(node.span)],) * 2
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
        placements.append((target, index, comment_node))

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
        if n.span is None:
            continue
        if first is None or (n.span.start_line, n.span.start_col) < (
            first.start_line,
            first.start_col,
        ):
            first = n.span
        if last is None or (n.span.end_line, n.span.end_col) > (
            last.end_line,
            last.end_col,
        ):
            last = n.span
    if first is None:
        raise MalformedTreeError(
            f"universal node {node.label!r} has no concrete descendants"
        )
    return SourceSpan(first.start_line, first.start_col, last.end_line, last.end_col)


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
        if n.span is None:
            continue
        target = comment_lines if n.token_type == "comment" else code_lines
        target.update(range(n.span.start_line, n.span.end_line + 1))
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
    operators = _conditional_operators(tree.root)
    rows = {False: [], True: []}
    for node in preorder(tree.root):
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
    whole = _loc_bundle(tree.root)
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


def same_tree(a: EcstTree, b: EcstTree) -> bool:
    """Equal headers, and equal nodes (label, kind, token type, span) at
    equal places in the entry/exit order of tree.walk."""
    if (a.source_path, a.language_id, a.total_lines) != (
        b.source_path,
        b.language_id,
        b.total_lines,
    ):
        return False
    for step_a, step_b in itertools.zip_longest(walk(a.root), walk(b.root)):
        if step_a is None or step_b is None:
            return False
        (node_a, lo_a, hi_a), (node_b, lo_b, hi_b) = step_a, step_b
        if (lo_a, hi_a) != (lo_b, hi_b) or fields(node_a) != fields(node_b):
            return False
    return True


def fields(node: EcstNode) -> tuple:
    """What a node holds apart from its children."""
    return node.label, node.kind, node.token_type, node.span


# -- tree XML reader -------------------------------------------------------

_KIND_VALUES = {kind.value for kind in UniversalKind}


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

    Checks every rule about the element's own fields; validate_tree
    checks the rules that span elements.
    """
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


def reference_parse_tree_xml(data: bytes | str) -> EcstTree:
    """Parse an eCST XML document back into a tree.

    Nodes are built straight from the parser's events, without recursion.
    Raises TreeXmlError on any well-formedness or schema violation; of
    several schema violations, the one of the <ecst> element comes first,
    then the first failing element in document order.
    """
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
        _fail(top[0], "top-level <node> must be COMPILATION_UNIT")
    tree = EcstTree(root_node, source, language, total_lines)
    try:
        validate_tree(tree)
    except MalformedTreeError as e:
        raise TreeXmlError(f"document violates tree invariants: {e}") from e
    return tree
