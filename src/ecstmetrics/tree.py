"""Enriched concrete syntax tree: node types, the event list, validation.

A tree mixes two node flavours: concrete nodes, one per source token,
and universal nodes, imaginary markers labelling the constructs that
metric algorithms key on (functions, loops, branches, conditions).
A token is a plain tuple; a universal node is its UniversalKind member
and carries no source position of its own: its span is always derived
from its concrete descendants.  A tree holds no nested lists: it is its
flat list of events in preorder, which every pass reads.
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


# Each kind under a module name, which a per-event loop reads as a
# global: on Python 3.11 a read through the class, such as
# UniversalKind.BRANCH, takes EnumType's __getattr__ (about 110 ns
# against 8 ns), and each kind.value a Python-level property (about
# 220 ns).
UNIT = UniversalKind.COMPILATION_UNIT
FUNCTION = UniversalKind.FUNCTION_DECL
LOOP = UniversalKind.LOOP_STATEMENT
BRANCHING = UniversalKind.BRANCH_STATEMENT
BRANCH = UniversalKind.BRANCH
CONDITION = UniversalKind.CONDITION
#: Each kind's spelling, as the XML and every message write it.
SPELLING = {kind: kind.value for kind in UniversalKind}

#: Token categories a concrete node may carry.
TOKEN_TYPES = frozenset(
    {"keyword", "identifier", "literal", "operator", "punctuation", "comment"}
)


class SourceSpan(NamedTuple):
    """1-based inclusive line/column range in the physical source text.

    The span of every LexError and ParseError.  A token keeps the same
    four fields as the last four items of its tuple.  Not checked here:
    the scanner builds valid positions and the XML readers check the
    ones they read.
    """

    start_line: int
    start_col: int
    end_line: int
    end_col: int


#: A concrete node: (label, token_type, start_line, start_col, end_line,
#: end_col), a plain tuple built once where the token is first known, by
#: the scanner or an XML reader.  label is the source lexeme; the
#: position is 1-based and inclusive, in the fields SourceSpan names.
#: Tokens compare by value; the parsers and comment attachment tell one
#: place in the events from another by identity.
Token = tuple[str, str, int, int, int, int]


@dataclass
class EcstTree:
    """A whole-file tree as one flat list of events in preorder: a
    UniversalKind member at its node's entry, each token as a Token
    tuple, and None at the exit of the universal node entered last.  The
    first event is COMPILATION_UNIT and its None is the last."""

    events: list[Token | UniversalKind | None]
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
    before line total_lines.  The fields of each token, the root kind
    and the shape of the events are the builder's to get right: the
    scanner builds each token's tuple, the parsers put the kinds and
    their Nones into the events, and both XML readers yield only checked
    elements in the events' shape.
    """
    for _ in _checked(tree.events, tree.total_lines):
        pass


def _checked(events: Iterable, total_lines: int) -> Iterator[Token | UniversalKind | None]:
    """events, of a tree's shape, each passed on once validate_tree's
    rules hold up to it; MalformedTreeError at the first breach.  A
    BRANCH_STATEMENT's universal children are checked at each child's
    entry.
    """
    guarded = False  # inside a BRANCH or LOOP_STATEMENT
    tokens = identifiers = 0  # tokens and identifier tokens so far
    # Per open universal node: its kind, guarded, tokens and identifiers
    # at its entry.
    entries: list[tuple[UniversalKind, bool, int, int]] = []
    end_line = end_col = 0  # where the previous token ends
    for node in events:
        if type(node) is tuple:
            label, token_type, start_line, start_col, last_line, last_col = node
            if start_line <= end_line and (start_line < end_line or start_col <= end_col):
                raise MalformedTreeError(
                    f"token {label!r} at {start_line}:{start_col} "
                    "does not start after the previous token ends"
                )
            end_line = last_line
            end_col = last_col
            tokens += 1
            if token_type == "identifier":
                identifiers += 1
        elif node is None:
            opened, guarded, tokens_in, named_in = entries.pop()
            if tokens == tokens_in:
                raise MalformedTreeError(
                    f"universal node {SPELLING[opened]!r} has no concrete descendants"
                )
            if opened is FUNCTION and identifiers == named_in:
                raise MalformedTreeError("FUNCTION_DECL without an identifier token")
        else:
            if node is not BRANCH and entries:
                if entries[-1][0] is BRANCHING:
                    raise MalformedTreeError(
                        f"BRANCH_STATEMENT has a universal child of kind {SPELLING[node]}"
                    )
            if node is CONDITION and not guarded:
                raise MalformedTreeError(
                    "CONDITION node outside any BRANCH or LOOP_STATEMENT"
                )
            entries.append((node, guarded, tokens, identifiers))
            guarded |= node is BRANCH or node is LOOP
        yield node
    if end_line > total_lines:
        raise MalformedTreeError(
            f"last token ends on line {end_line}, "
            f"after the last line {total_lines}"
        )
