"""Shared recursive-descent machinery for the language frontends.

Parsers operate on the comment-free token stream; comments are woven
back into the finished tree by position so that constructs keep the
spans their own tokens define.
"""

from __future__ import annotations

from ..errors import ParseError
from ..tree import EcstNode, EcstTree, SourceSpan

#: Deepest nesting a source may have.  Each method or procedure and each
#: statement opens one level, so a loop or branch counts once with its
#: braces and a bare block counts once.  The parsers recurse once per
#: level; the limit keeps them well inside Python's recursion limit.
MAX_NESTING = 200


class BaseParser:
    """Cursor over the real (non-comment) tokens plus tree assembly.

    The tokens are the scanner's concrete nodes; each one consumed goes
    into the tree as it is.
    """

    def __init__(self, tokens: list[EcstNode], language_id: str, source_path: str):
        self.language_id = language_id
        self.source_path = source_path
        self.toks: list[EcstNode] = []
        # (number of real tokens preceding the comment, comment node)
        self.comments: list[tuple[int, EcstNode]] = []
        for tok in tokens:
            if tok.token_type == "comment":
                self.comments.append((len(self.toks), tok))
            else:
                self.toks.append(tok)
        self.i = 0
        self.depth = 0  # nesting levels open at the cursor

    # -- cursor primitives -------------------------------------------------

    def _peek(self, offset: int = 0) -> EcstNode | None:
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def _at(self, *lexemes: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.label in lexemes

    def _at_type(self, token_type: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.token_type == token_type

    def _advance(self) -> EcstNode:
        """Consume the current token and return it."""
        tok = self._peek()
        if tok is None:
            self._error("unexpected end of input")
        self.i += 1
        return tok

    def _expect(self, lexeme: str) -> EcstNode:
        tok = self._peek()
        if tok is None or tok.label != lexeme:
            found = "end of input" if tok is None else repr(tok.label)
            self._error(f"expected {lexeme!r}, found {found}")
        return self._advance()

    def _expect_type(self, token_type: str) -> EcstNode:
        tok = self._peek()
        if tok is None or tok.token_type != token_type:
            found = "end of input" if tok is None else repr(tok.label)
            self._error(f"expected {token_type}, found {found}")
        return self._advance()

    def _enter_level(self) -> None:
        """Open one nesting level at the current token; see MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self._error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def _leave_level(self) -> None:
        self.depth -= 1

    def _error(self, message: str):
        tok = self._peek()
        if tok is None and self.toks:
            tok = self.toks[-1]
        span = tok.span if tok is not None else SourceSpan(1, 1, 1, 1)
        raise ParseError(f"{message}", span=span)

    # -- tree assembly -----------------------------------------------------

    def parse_compilation_unit(self) -> EcstNode:  # pragma: no cover - abstract
        raise NotImplementedError

    def build_tree(self, total_lines: int) -> EcstTree:
        root = self.parse_compilation_unit()
        if self.i < len(self.toks):
            self._error("trailing input after compilation unit")
        self._attach_comments(root)
        return EcstTree(
            root=root,
            source_path=self.source_path,
            language_id=self.language_id,
            total_lines=total_lines,
        )

    def _attach_comments(self, root: EcstNode) -> None:
        """Insert comment nodes at their source positions.

        Each comment sits between real tokens p-1 and p.  It becomes a
        child of the deepest node covering both, just before the child
        holding token p, so a trailing comment never widens the span of
        the construct it follows.  One preorder walk merges the comments
        in: that node is the one the walk next steps down from after
        token p-1.  Comments outside all tokens go to the root.
        """
        comments = self.comments
        c = 0
        seen = 0  # real tokens walked so far
        stack = [[root, 0]]  # open nodes with the index of their next child
        while stack:
            node, k = frame = stack[-1]
            if k == len(node.children):
                stack.pop()
                continue
            while c < len(comments) and comments[c][0] == seen:
                node.children.insert(k, comments[c][1])
                k += 1
                c += 1
            frame[1] = k + 1
            if node.children[k].is_universal:
                stack.append([node.children[k], 0])
            else:
                seen += 1
        root.children.extend(comment for _, comment in comments[c:])

    # -- shared construct helpers ------------------------------------------

    _OPENERS = ("(", "[", "{")
    _CLOSERS = (")", "]", "}")

    def _flat_until(self, stops) -> list[EcstNode]:
        """Consume tokens up to a bracket-level-zero stop lexeme.

        Also stops before an unmatched closing bracket so enclosing
        groups stay balanced.  The stop token itself is not consumed.
        """
        nodes: list[EcstNode] = []
        depth = 0
        while True:
            tok = self._peek()
            if tok is None:
                return nodes
            if depth == 0 and tok.label in stops:
                return nodes
            if tok.label in self._OPENERS:
                depth += 1
            elif tok.label in self._CLOSERS:
                if depth == 0:
                    return nodes
                depth -= 1
            nodes.append(self._advance())

    def _balanced_group(self) -> list[EcstNode]:
        """Consume a bracketed group through its matching closer."""
        tok = self._peek()
        if tok is None or tok.label not in self._OPENERS:
            self._error("expected a bracketed group")
        nodes = [self._advance()]
        nodes.extend(self._flat_until(()))
        if self._peek() is None:
            self._error("unbalanced brackets")
        nodes.append(self._advance())
        return nodes
