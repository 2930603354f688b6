"""Cyclomatic complexity and the LOC family over eCSTs.

Everything here keys on universal node kinds and token types only;
no language-specific lexeme ever influences a metric value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedTreeError
from .tree import EcstNode, EcstTree, UniversalKind, walk

MEASURED_KINDS = (
    UniversalKind.FUNCTION_DECL,
    UniversalKind.LOOP_STATEMENT,
    UniversalKind.BRANCH_STATEMENT,
    UniversalKind.BRANCH,
)

# Binary logical operators recognized by the extended-CC mode.
LOGICAL_OPERATORS = frozenset({"AND", "OR", "&", "&&", "||"})


@dataclass(frozen=True)
class LocBundle:
    loc: int
    sloc: int
    cloc: int


@dataclass(frozen=True)
class ElementMetrics:
    name: str
    annotation: str
    cc: int
    loc: int
    sloc: int
    cloc: int
    start_line: int
    end_line: int


@dataclass
class MetricsReport:
    source_path: str
    language_id: str
    elements: list[ElementMetrics]
    totals: LocBundle


def _name(node: EcstNode, first_identifier: list[EcstNode]) -> str:
    """Report name of a measured element.

    A unit is named by the last identifier among its direct children
    before its first "(", ":" or ";" punctuation child, else by the first
    identifier in its subtree (first_identifier, empty when it has none),
    else "<anonymous>".  Loops are named by their keyword (DO-WHILE for
    do-while), branch chains BRANCHING and branches IF/ELSIF/ELSE.
    """
    if node.kind is UniversalKind.FUNCTION_DECL:
        previous = first_identifier
        for child in node.children:
            if child.token_type == "punctuation" and child.label in ("(", ":", ";"):
                break
            if child.token_type == "identifier":
                previous = [child]
        return previous[0].label if previous else "<anonymous>"
    if node.kind is UniversalKind.BRANCH_STATEMENT:
        return "BRANCHING"
    keywords = [
        child.label for child in node.children if child.token_type == "keyword"
    ]
    if node.kind is UniversalKind.LOOP_STATEMENT:
        head = keywords[0].upper() if keywords else "LOOP"
        return "DO-WHILE" if head == "DO" else head
    # BRANCH: an else-if pair reads as ELSIF
    if not keywords:
        return "BRANCH"
    head = keywords[0].upper()
    if head == "ELSE" and len(keywords) > 1 and keywords[1].upper() == "IF":
        return "ELSIF"
    return head


def _fold(root: EcstNode, extended: bool) -> list[ElementMetrics]:
    """The whole-file row of a tree's root, then the row of every
    measured node below it, in preorder.

    One walk() over a valid tree, whose tokens are in source order: each
    value is a running count noted at a node's entry and read again at
    its exit, and its lines run from its first token's start line to the
    last line counted at its exit.  cc counts the loops and the branches
    with a CONDITION, plus a unit's base complexity of 1.
    """
    rows: list = []
    identifiers: list[EcstNode] = []
    sloc = sloc_last = cloc = cloc_last = 0  # distinct lines so far, the last one
    sloc_starts, cloc_starts = [], []  # first line of each token so far
    decisions = 0  # decision points entered so far
    operators = 0  # logical operators so far that have a CONDITION ancestor
    conditions = 0  # open CONDITION nodes
    # Per open universal node: the node, and for a reported one its row
    # and the counts at its entry (None for any other).
    marks: list[tuple] = []
    for node in walk(root):
        if node is None:
            node, mark = marks.pop()
            kind = node.kind
            conditions -= kind is UniversalKind.CONDITION
            if mark is None:
                continue
            (row, decisions_in, operators_in, named,
             sloc_in, sloc_last_in, sloc_n, cloc_in, cloc_last_in, cloc_n) = mark
            first_code = sloc_starts[sloc_n : sloc_n + 1]
            first_comment = cloc_starts[cloc_n : cloc_n + 1]
            if not (first_code or first_comment):
                raise MalformedTreeError(
                    f"universal node {node.label!r} has no concrete descendants"
                )
            cc = decisions - decisions_in + (kind is UniversalKind.FUNCTION_DECL)
            if extended:
                cc += operators - operators_in
            start_line = min(first_code + first_comment)
            end_line = max(sloc_last, cloc_last)
            # A node's first token may start on the line last counted before it.
            rows[row] = ElementMetrics(
                name=_name(node, identifiers[named : named + 1]),
                annotation=kind.value,
                cc=cc,
                loc=end_line - start_line + 1,
                sloc=sloc - sloc_in + (first_code == [sloc_last_in]),
                cloc=cloc - cloc_in + (first_comment == [cloc_last_in]),
                start_line=start_line,
                end_line=end_line,
            )
        elif node.kind is None:
            line, _, end, _ = node.span
            token_type = node.token_type
            # A token may start on the line the previous one ended on.
            if token_type == "comment":
                cloc += end - (cloc_last if cloc_last >= line else line - 1)
                cloc_last = end
                cloc_starts.append(line)
                continue
            sloc += end - (sloc_last if sloc_last >= line else line - 1)
            sloc_last = end
            sloc_starts.append(line)
            if token_type == "identifier":
                identifiers.append(node)
            elif conditions and token_type == "operator":
                operators += node.label in LOGICAL_OPERATORS
        else:
            kind = node.kind
            if node is root or kind in MEASURED_KINDS:
                marks.append((node, (len(rows), decisions, operators, len(identifiers),
                                     sloc, sloc_last, len(sloc_starts),
                                     cloc, cloc_last, len(cloc_starts))))
                rows.append(None)
            else:
                marks.append((node, None))
            conditions += kind is UniversalKind.CONDITION
            decisions += kind is UniversalKind.LOOP_STATEMENT or (
                kind is UniversalKind.BRANCH
                and any(c.kind is UniversalKind.CONDITION for c in node.children)
            )
    return rows


def measure_tree(tree: EcstTree, extended: bool = False) -> MetricsReport:
    """Per-element metrics in preorder plus file-level totals."""
    whole, *rows = _fold(tree.root, extended)
    return MetricsReport(
        source_path=tree.source_path,
        language_id=tree.language_id,
        elements=rows,
        totals=LocBundle(loc=tree.total_lines, sloc=whole.sloc, cloc=whole.cloc),
    )


def render_table(report: MetricsReport) -> str:
    """Human-readable table mirroring the report rows."""
    headers = ("ELEMENT", "ANNOTATION", "CC", "LOC", "SLOC", "CLOC", "LINES")
    rows = [
        (
            row.name,
            row.annotation,
            str(row.cc),
            str(row.loc),
            str(row.sloc),
            str(row.cloc),
            f"{row.start_line}-{row.end_line}",
        )
        for row in report.elements
    ]
    totals = report.totals
    rows.append(
        ("<file>", "-", "-", str(totals.loc), str(totals.sloc), str(totals.cloc), "-")
    )
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"
