"""Enriched concrete syntax tree: node types, the event list, validation.

A tree mixes two node flavours: concrete nodes, one per source token,
and universal nodes, imaginary markers labelling the constructs that
metric algorithms key on (functions, loops, branches, conditions).
Universal nodes carry no source position of their own; their span is
always derived from their concrete descendants.  A tree holds no nested
lists: it is its flat list of events in preorder, which every pass reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .errors import MalformedTreeError


class UniversalKind(str, Enum):
    """Closed vocabulary of universal marker nodes.

    The spellings are canonical and appear verbatim in XML output.
    Frontends may not invent new kinds.
    """

    COMPILATION_UNIT = "COMPILATION_UNIT"
    FUNCTION_DECL = "FUNCTION_DECL"
    LOOP_STATEMENT = "LOOP_STATEMENT"
    BRANCH_STATEMENT = "BRANCH_STATEMENT"
    BRANCH = "BRANCH"
    CONDITION = "CONDITION"


#: Token categories a concrete node may carry.
TOKEN_TYPES = frozenset(
    {"keyword", "identifier", "literal", "operator", "punctuation", "comment"}
)


class SourceSpan(NamedTuple):
    """1-based inclusive line/column range in the physical source text.

    The span of every LexError and ParseError.  A token keeps the same
    four fields as int slots of its own EcstNode.  Not checked here: the
    scanner builds valid positions and the XML readers check the ones
    they read.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int


@dataclass(slots=True, eq=False)
class EcstNode:
    """One tree node: a concrete token or a universal marker.

    label holds the source lexeme for concrete nodes and the canonical
    kind spelling for universal nodes.  The scanner makes the concrete
    nodes and the parser places each of them once in the tree; each
    universal kind has its one node, in UNIVERSAL.  A token's position
    is four int slots, 1-based and inclusive, named as SourceSpan names
    them; a universal node has none.  Nodes compare by identity.
    """

    label: str
    kind: UniversalKind | None = None
    token_type: str | None = None
    start_line: int | None = None
    start_col: int | None = None
    end_line: int | None = None
    end_col: int | None = None

    @property
    def span(self) -> tuple[int, int, int, int] | None:
        """(start_line, start_col, end_line, end_col), built on each read;
        None for a universal node."""
        if self.start_line is None:
            return None
        return self.start_line, self.start_col, self.end_line, self.end_col


#: Each kind's one node, which every tree holds at each entry of that
#: kind.  A kind is a str, so its spelling finds its node too.
UNIVERSAL = {kind: EcstNode(kind.value, kind) for kind in UniversalKind}


@dataclass
class EcstTree:
    """A whole-file tree as one flat list of events in preorder: a
    universal node at its entry, each token, and None at the exit of the
    universal node entered last.  The first event is the
    COMPILATION_UNIT node and its None is the last."""

    events: list[EcstNode | None]
    source_path: str
    language_id: str
    total_lines: int


def validate_tree(tree: EcstTree) -> None:
    """Check the structural invariants; raise MalformedTreeError on breach.

    Covers what no single element shows: tokens in strictly increasing
    source order (each starts after the previous one ends), universal
    nodes having concrete descendants, BRANCH_STATEMENT's universal
    children all being BRANCH, CONDITION placement, every FUNCTION_DECL
    containing an identifier token, and the last token ending on or
    before line total_lines.  The fields of each node, the root kind and
    the shape of the events are the builder's to get right: the scanner
    builds each token with the EcstNode constructor, the parsers put
    UNIVERSAL's nodes and their Nones into the events, and both XML
    readers yield only checked elements in the events' shape.
    """
    for _ in _checked(tree.events, tree.total_lines):
        pass


def _checked(events: Iterable, total_lines: int) -> Iterator[EcstNode | None]:
    """events, of a tree's shape, each passed on once validate_tree's
    rules hold up to it; MalformedTreeError at the first breach.  A
    BRANCH_STATEMENT's universal children are checked at each child's
    entry; a token is read only while current.
    """
    guarded = False  # inside a BRANCH or LOOP_STATEMENT
    tokens = identifiers = 0  # tokens and identifier tokens so far
    # Per open universal node: the node, guarded, tokens and identifiers
    # at its entry.
    entries: list[tuple[EcstNode, bool, int, int]] = []
    end_line = end_col = 0  # where the previous token ends
    for node in events:
        if node is None:
            opened, guarded, tokens_in, named_in = entries.pop()
            if tokens == tokens_in:
                raise MalformedTreeError(
                    f"universal node {opened.label!r} has no concrete descendants"
                )
            if opened.kind is UniversalKind.FUNCTION_DECL and identifiers == named_in:
                raise MalformedTreeError("FUNCTION_DECL without an identifier token")
        elif node.kind is None:
            start_line = node.start_line
            start_col = node.start_col
            if start_line <= end_line and (start_line < end_line or start_col <= end_col):
                raise MalformedTreeError(
                    f"token {node.label!r} at {start_line}:{start_col} "
                    "does not start after the previous token ends"
                )
            end_line = node.end_line
            end_col = node.end_col
            tokens += 1
            if node.token_type == "identifier":
                identifiers += 1
        else:
            kind = node.kind
            if kind is not UniversalKind.BRANCH and entries:
                if entries[-1][0].kind is UniversalKind.BRANCH_STATEMENT:
                    raise MalformedTreeError(
                        f"BRANCH_STATEMENT has a universal child of kind {kind.value}"
                    )
            if kind is UniversalKind.CONDITION and not guarded:
                raise MalformedTreeError(
                    "CONDITION node outside any BRANCH or LOOP_STATEMENT"
                )
            entries.append((node, guarded, tokens, identifiers))
            guarded |= kind in (UniversalKind.BRANCH, UniversalKind.LOOP_STATEMENT)
        yield node
    if end_line > total_lines:
        raise MalformedTreeError(
            f"last token ends on line {end_line}, "
            f"after the last line {total_lines}"
        )
