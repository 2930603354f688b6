"""Shared recursive-descent machinery for the language frontends.

Parsers operate on the comment-free token stream and append the tree's
events as they go: a universal node at each construct's entry, each
token, and None at its exit.  Comments are merged into the finished
events by position so that constructs keep the spans their own tokens
define.
"""

from __future__ import annotations

from ..errors import ParseError
from ..tree import (
    BRANCH,
    BRANCHING,
    CONDITION,
    FUNCTION,
    LOOP,
    UNIT,
    EcstTree,
    SourceSpan,
    Token,
    UniversalKind,
)

#: Deepest nesting a source may have.  Each method or procedure and each
#: statement opens one level, so a loop or branch counts once with its
#: braces and a bare block counts once.  At the limit the parsers stay
#: inside Python's default recursion limit of 1,000 frames: a Java loop
#: or branch level takes four frames (about 810 in all), a Modula-2
#: statement level three (about 610) and a nested procedure two (about
#: 410).  No rule may add a frame per level.
MAX_NESTING = 200


class BaseParser:
    """Cursor over the real (non-comment) tokens plus tree assembly.

    The tokens are the scanner's tuples; each one consumed is appended
    to the events as it is, and _put appends any other event.
    """

    def __init__(self, tokens: list[Token], language_id: str, source_path: str):
        self.language_id = language_id
        self.source_path = source_path
        toks: list[Token] = []
        # (number of real tokens preceding the comment, comment token)
        comments: list[tuple[int, Token]] = []
        for tok in tokens:
            if tok[1] == "comment":
                comments.append((len(toks), tok))
            else:
                toks.append(tok)
        self.toks = toks
        self.comments = comments
        self.events: list[Token | UniversalKind | None] = []
        self._put = self.events.append
        self.i = 0
        self.depth = 0  # nesting levels open at the cursor
        # The labels _flat_until looks at: brackets, construct keywords
        # and the statement separator.
        self._marked = frozenset("()[]{};") | self._CONSTRUCTS

    # -- cursor primitives -------------------------------------------------
    # Each reads self.toks at self.i itself: no helper call per token.
    # Those that consume append what they consume to the events.  A
    # token's label is tok[0] and its type tok[1].

    def _peek(self) -> Token | None:
        i = self.i
        return self.toks[i] if i < len(self.toks) else None

    def _at(self, *lexemes: str) -> bool:
        i = self.i
        return i < len(self.toks) and self.toks[i][0] in lexemes

    def _at_type(self, token_type: str) -> bool:
        i = self.i
        return i < len(self.toks) and self.toks[i][1] == token_type

    def _advance(self) -> None:
        i = self.i
        if i == len(self.toks):
            self._error("unexpected end of input")
        self.i = i + 1
        self._put(self.toks[i])

    def _expect(self, lexeme: str) -> None:
        i = self.i
        if i == len(self.toks) or self.toks[i][0] != lexeme:
            tok = self._peek()
            found = "end of input" if tok is None else repr(tok[0])
            self._error(f"expected {lexeme!r}, found {found}")
        self.i = i + 1
        self._put(self.toks[i])

    def _expect_type(self, token_type: str) -> None:
        i = self.i
        if i == len(self.toks) or self.toks[i][1] != token_type:
            tok = self._peek()
            found = "end of input" if tok is None else repr(tok[0])
            self._error(f"expected {token_type}, found {found}")
        self.i = i + 1
        self._put(self.toks[i])

    def _enter_level(self) -> None:
        """Open one nesting level at the current token; see MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self._error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1

    def _error(self, message: str):
        tok = self._peek()
        if tok is None and self.toks:
            tok = self.toks[-1]
        if tok is None:
            raise ParseError(message, span=SourceSpan(1, 1, 1, 1))
        raise ParseError(message, span=SourceSpan(*tok[2:]))

    # -- tree assembly -----------------------------------------------------

    def parse_compilation_unit(self) -> None:  # pragma: no cover - abstract
        """Append the root's events between its node and its None."""
        raise NotImplementedError

    def build_tree(self, total_lines: int) -> EcstTree:
        self._put(UNIT)
        self.parse_compilation_unit()
        if self.i < len(self.toks):
            self._error("trailing input after compilation unit")
        self._put(None)
        self._attach_comments()
        return EcstTree(self.events, self.source_path, self.language_id, total_lines)

    def _attach_comments(self) -> None:
        """Merge the comments into the events at their source positions.

        Each comment sits between real tokens p-1 and p.  It goes into
        the innermost node open after token p-1 and the Nones that
        follow it, just before the first event after those: a trailing
        comment never widens the span of the construct it follows.
        Comments after the last token go last into the root.  The merge
        is in place and from the back: the events grow by one slot per
        comment, and each run of events between two places moves once.
        """
        comments = self.comments
        if not comments:
            return
        events, toks = self.events, self.toks
        hi = len(events) - 1  # the events before hi are yet to move
        events += comments  # the new slots, each overwritten below
        events[-1] = None  # the root's, the first to move
        shift = len(comments)  # slots each event before hi moves by
        tokens = len(toks)  # real tokens before hi
        for p, comment in reversed(comments):
            lo = hi
            if tokens > p:  # back to token p
                token = toks[p]
                lo -= 1
                while events[lo] is not token:
                    lo -= 1
                tokens = p
            # and back over the nodes entered just before it, not the root
            while lo > 1 and (node := events[lo - 1]) is not None and type(node) is not tuple:
                lo -= 1
            events[lo + shift : hi + shift] = events[lo:hi]
            shift -= 1
            events[lo + shift] = comment
            hi = lo

    # -- statements --------------------------------------------------------

    #: How a language maps a statement to its universal kind, set by each
    #: parser: the lexeme a statement opens with -> (the kind of node
    #: around it, or None for none, the rule that reads it from that
    #: lexeme on).  Any other statement is the parser's _flat_statement.
    _STATEMENTS: dict = {}

    def _statement(self) -> None:
        """One statement, which opens one nesting level.

        The rule is called from here: a level costs no frame beyond the
        rule's own (see MAX_NESTING).
        """
        self._enter_level()
        tok = self._peek()
        kind, rule = self._STATEMENTS.get(tok and tok[0], (None, None))
        if rule is None:
            self._flat_statement()
        elif kind is None:
            rule(self)
        else:
            self._put(kind)
            rule(self)
            self._put(None)
        self.depth -= 1

    def _flat_statement(self) -> None:  # pragma: no cover - abstract
        """A statement with no universal node, from its first token."""
        raise NotImplementedError

    # -- shared construct helpers ------------------------------------------

    _CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
    #: Keywords that open a construct with universal nodes: each parser's
    #: _STATEMENTS keys that carry a kind, and the keywords of its other
    #: constructs.  One inside a flat run would hide the construct.
    _CONSTRUCTS: frozenset = frozenset()

    def _opens_construct(self, j: int) -> bool:  # pragma: no cover - abstract
        """Whether the _CONSTRUCTS keyword at toks[j] opens a construct."""
        raise NotImplementedError

    def _flat_until(self, stops) -> list[Token]:
        """Consume tokens up to a bracket-level-zero stop lexeme and
        return them.

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
            label = toks[j][0]
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
        run = toks[start:j]
        self.events += run
        return run

    def _balanced_group(self) -> None:
        """Consume a bracketed group through the closer of its opener."""
        tok = self._peek()
        if tok is None or tok[0] not in self._CLOSER_OF:
            self._error("expected a bracketed group")
        self._advance()
        self._flat_until(())
        if self._peek() is None:
            self._error("unbalanced brackets")
        self._expect(self._CLOSER_OF[tok[0]])
