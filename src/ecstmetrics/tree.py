"""Enriched concrete syntax tree: node types and traversal helpers.

A tree mixes two node flavours: concrete nodes, one per source token,
and universal nodes, imaginary markers labelling the constructs that
metric algorithms key on (functions, loops, branches, conditions).
Universal nodes carry no source position of their own; their span is
always derived from their concrete descendants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

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

    Not checked here: the scanner builds valid spans and the XML reader
    checks the ones it reads.
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
    nodes and the parser places each of them once in the tree.  A token
    is a leaf: its children are the shared empty tuple.  Nodes compare by
    identity; comparing their fields would recurse through the children.
    """

    label: str
    kind: UniversalKind | None = None
    token_type: str | None = None
    span: SourceSpan | None = None
    children: list["EcstNode"] | tuple = ()

    @property
    def is_universal(self) -> bool:
        return self.kind is not None

    @classmethod
    def universal(cls, kind: UniversalKind, children: list["EcstNode"]) -> "EcstNode":
        return cls(label=kind.value, kind=kind, children=children)

    @classmethod
    def concrete(cls, lexeme: str, token_type: str, span: SourceSpan) -> "EcstNode":
        return cls(label=lexeme, token_type=token_type, span=span)


@dataclass
class EcstTree:
    """A whole-file tree rooted at a COMPILATION_UNIT node."""

    root: EcstNode
    source_path: str
    language_id: str
    total_lines: int


def preorder(tree_or_node: EcstTree | EcstNode) -> Iterator[EcstNode]:
    """Depth-first, left-to-right traversal; parent before children."""
    node = tree_or_node.root if isinstance(tree_or_node, EcstTree) else tree_or_node
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children))


def walk(root: EcstNode) -> Iterator[tuple[EcstNode, int, int | None]]:
    """Preorder pass with exit markers below a universal root, iterative.

    Tokens are numbered 0, 1, 2, ... in preorder.  A universal node is
    reported on entry as (node, lo, None) and on exit as (node, lo, hi),
    where [lo, hi) numbers its subtree's tokens: in a valid tree, its
    whole extent.  A token is reported once, as (node, i, i + 1).
    """
    yield root, 0, None
    count = 0
    stack = [(root, 0, iter(root.children))]
    while stack:
        node, lo, children = stack[-1]
        for child in children:
            if child.kind is None:
                yield child, count, count + 1
                count += 1
            else:
                yield child, count, None
                stack.append((child, count, iter(child.children)))
                break
        else:
            stack.pop()
            yield node, lo, count


def find_nodes(tree_or_node: EcstTree | EcstNode, kind: UniversalKind) -> list[EcstNode]:
    """All universal nodes of the given kind, in preorder."""
    return [n for n in preorder(tree_or_node) if n.kind is kind]


def validate_tree(tree: EcstTree) -> None:
    """Check the structural invariants; raise MalformedTreeError on breach.

    Covers what no single element shows: tokens in strictly increasing
    source order (each starts after the previous one ends), universal
    nodes having concrete descendants, BRANCH_STATEMENT's universal
    children all being BRANCH, CONDITION placement, and every
    FUNCTION_DECL containing an identifier token.  The fields of each
    node, the root kind and total_lines are the builder's to get right:
    the frontends build nodes through EcstNode.universal/concrete, and
    the XML reader checks every element it reads.
    """
    guarded = False  # inside a BRANCH or LOOP_STATEMENT
    identifiers = 0  # identifier tokens so far
    entries: list[tuple[bool, int]] = []  # both, at each open node's entry
    previous_end = (0, 0)
    for node, lo, hi in walk(tree.root):
        kind = node.kind
        if hi is not None and kind is not None:
            guarded, before = entries.pop()
            if hi == lo:
                raise MalformedTreeError(
                    f"universal node {node.label!r} has no concrete descendants"
                )
            if kind is UniversalKind.FUNCTION_DECL and identifiers == before:
                raise MalformedTreeError("FUNCTION_DECL without an identifier token")
            continue
        if kind is not None:
            if kind is UniversalKind.CONDITION and not guarded:
                raise MalformedTreeError(
                    "CONDITION node outside any BRANCH or LOOP_STATEMENT"
                )
            if kind is UniversalKind.BRANCH_STATEMENT:
                for child in node.children:
                    if child.is_universal and child.kind is not UniversalKind.BRANCH:
                        raise MalformedTreeError(
                            "BRANCH_STATEMENT has a universal child "
                            f"of kind {child.kind.value}"
                        )
            entries.append((guarded, identifiers))
            guarded |= kind in (UniversalKind.BRANCH, UniversalKind.LOOP_STATEMENT)
            continue
        span = node.span
        if (span.start_line, span.start_col) <= previous_end:
            raise MalformedTreeError(
                f"token {node.label!r} at {span.start_line}:{span.start_col} "
                "does not start after the previous token ends"
            )
        previous_end = (span.end_line, span.end_col)
        identifiers += node.token_type == "identifier"
