"""Shared recursive-descent machinery for the language frontends.

Parsers operate on the comment-free token stream; comments are woven
back into the finished tree by position so that constructs keep the
spans their own tokens define.
"""

from __future__ import annotations

from ..errors import ParseError
from ..tree import EcstNode, EcstTree, SourceSpan, walk

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
        toks: list[EcstNode] = []
        # (number of real tokens preceding the comment, comment node)
        comments: list[tuple[int, EcstNode]] = []
        for tok in tokens:
            if tok.token_type == "comment":
                comments.append((len(toks), tok))
            else:
                toks.append(tok)
        self.toks = toks
        self.comments = comments
        self.i = 0
        self.depth = 0  # nesting levels open at the cursor
        # The labels _flat_until looks at: brackets, construct keywords
        # and the statement separator.
        self._marked = frozenset("()[]{};") | self._CONSTRUCTS

    # -- cursor primitives -------------------------------------------------
    # Each reads self.toks at self.i itself: no helper call per token.

    def _peek(self, offset: int = 0) -> EcstNode | None:
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def _at(self, *lexemes: str) -> bool:
        i = self.i
        return i < len(self.toks) and self.toks[i].label in lexemes

    def _at_type(self, token_type: str) -> bool:
        i = self.i
        return i < len(self.toks) and self.toks[i].token_type == token_type

    def _advance(self) -> EcstNode:
        """Consume the current token and return it."""
        i = self.i
        if i < len(self.toks):
            self.i = i + 1
            return self.toks[i]
        self._error("unexpected end of input")

    def _expect(self, lexeme: str) -> EcstNode:
        i = self.i
        if i < len(self.toks) and self.toks[i].label == lexeme:
            self.i = i + 1
            return self.toks[i]
        tok = self._peek()
        found = "end of input" if tok is None else repr(tok.label)
        self._error(f"expected {lexeme!r}, found {found}")

    def _expect_type(self, token_type: str) -> EcstNode:
        i = self.i
        if i < len(self.toks) and self.toks[i].token_type == token_type:
            self.i = i + 1
            return self.toks[i]
        tok = self._peek()
        found = "end of input" if tok is None else repr(tok.label)
        self._error(f"expected {token_type}, found {found}")

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
        if tok is None:
            raise ParseError(message, span=SourceSpan(1, 1, 1, 1))
        span = SourceSpan(tok.start_line, tok.start_col, tok.end_line, tok.end_col)
        raise ParseError(message, span=span)

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
        the construct it follows.  In walk()'s events: the comment goes
        into the innermost open node, just before the first non-None
        event after token p-1; the Nones in between close every node
        that ends with p-1.  One pass over walk() builds each universal
        node a new children list by appends and gives it the list at the
        node's None; comments after the last token go to the root.
        """
        if not self.comments:
            return
        pending = iter(self.comments)
        due, comment = next(pending)  # real tokens before it, the comment
        seen = 0  # real tokens walked so far
        events = walk(root)
        next(events)  # the root
        opened, out = root, []  # the innermost open node and its new list
        append = out.append
        # (node, new list) per open node around the innermost; the root's
        # None pops the root back, so the trailing comments go to it.
        stack = [(root, out)]
        for node in events:
            if node is None:
                opened.children = out
                opened, out = stack.pop()
                append = out.append
                continue
            while seen == due:
                append(comment)
                due, comment = next(pending, (-1, None))
            append(node)
            if node.kind is None:
                seen += 1
            else:
                stack.append((opened, out))
                opened, out = node, []
                append = out.append
        while seen == due:  # after the last token, into the root
            append(comment)
            due, comment = next(pending, (-1, None))

    # -- shared construct helpers ------------------------------------------

    _CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
    #: Keywords that open a construct with universal nodes; each parser
    #: sets its own.  One inside a flat run would hide the construct.
    _CONSTRUCTS: frozenset = frozenset()

    def _opens_construct(self, j: int) -> bool:  # pragma: no cover - abstract
        """Whether the _CONSTRUCTS keyword at toks[j] opens a construct."""
        raise NotImplementedError

    def _flat_until(self, stops) -> list[EcstNode]:
        """Consume tokens up to a bracket-level-zero stop lexeme.

        A closing bracket must match the innermost opening one consumed
        here; one with none open stops the loop, so enclosing groups stay
        balanced.  The stop token itself is not consumed.  A keyword
        that opens a construct is a syntax error at any bracket level:
        taken flat, its loops and branches would not count.  So is a ";"
        inside an open "{": there the braces hold statements, as in the
        body of an anonymous class or a lambda, whose methods would get
        no row.  An array initializer holds none.
        """
        toks, closer_of, marked = self.toks, self._CLOSER_OF, self._marked
        start = j = self.i
        closers: list[str] = []  # the closer each open bracket needs
        while j < len(toks):
            label = toks[j].label
            if not closers and label in stops:
                break
            if label in marked:  # one set test per plain token
                if label in closer_of:
                    closers.append(closer_of[label])
                elif label in self._CONSTRUCTS:
                    if self._opens_construct(j):
                        self.i = j
                        self._error(f"{label!r} inside a flat statement")
                elif label == ";":
                    if "}" in closers:
                        self.i = j
                        self._error("';' inside a flat statement")
                elif not closers:  # a closer with no opener here
                    break
                elif label != closers[-1]:
                    self.i = j
                    self._error(f"expected {closers[-1]!r}, found {label!r}")
                else:
                    closers.pop()
            j += 1
        self.i = j
        return toks[start:j]

    def _balanced_group(self) -> list[EcstNode]:
        """Consume a bracketed group through the closer of its opener."""
        tok = self._peek()
        if tok is None or tok.label not in self._CLOSER_OF:
            self._error("expected a bracketed group")
        closer = self._CLOSER_OF[tok.label]
        nodes = [self._advance()]
        nodes.extend(self._flat_until(()))
        if self._peek() is None:
            self._error("unbalanced brackets")
        nodes.append(self._expect(closer))
        return nodes
