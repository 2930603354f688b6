"""Modula-2 frontend: lexical rules (Modula2Parser.SPEC) and parser.

Supported subset: MODULE header with imports, CONST/TYPE/VAR sections,
nested PROCEDURE declarations, assignment and call statements, RETURN,
IF/ELSIF/ELSE, WHILE, REPEAT/UNTIL, and FOR.  Expressions stay flat:
only construct markers become universal nodes, every other token is a
direct concrete child of the nearest enclosing construct.
"""

from __future__ import annotations

from ..scan import LexerSpec
from .base import BRANCH, BRANCHING, CONDITION, FUNCTION, LOOP, BaseParser

# Keywords that terminate a flat expression scan at bracket level zero.
COND_STOPS = frozenset(
    {";", "THEN", "DO", "OF", "END", "ELSIF", "ELSE", "UNTIL", "BEGIN", "TO", "BY"}
)

SECTION_KEYWORDS = ("VAR", "CONST", "TYPE")


class Modula2Parser(BaseParser):
    SPEC = LexerSpec(
        keywords=frozenset(
            """MODULE BEGIN END PROCEDURE VAR CONST TYPE IF THEN ELSIF ELSE
               WHILE DO REPEAT UNTIL FOR TO BY OF ARRAY RETURN IMPORT FROM
               EXPORT""".split()
        ),
        operator_words=frozenset({"AND", "OR", "NOT", "DIV", "MOD"}),
        literal_words=frozenset(),
        two_char_ops=frozenset({":=", "<=", ">=", "<>", ".."}),
        single_chars="+-*/=#<>&()[],;:.",
        punctuation=frozenset({"(", ")", "[", "]", ",", ";", ":", "."}),
        line_comment="",
        block_open="(*",
        block_close="*)",
        nested_blocks=True,
        string_escapes=False,
    )

    def _opens_construct(self, j: int) -> bool:
        # PROCEDURE with no name after it is a procedure type, such as
        # PROCEDURE (INTEGER): BOOLEAN in a declaration.
        toks = self.toks
        return toks[j][0] != "PROCEDURE" or (
            j + 1 < len(toks) and toks[j + 1][1] == "identifier"
        )

    def parse_compilation_unit(self) -> None:
        if self._at("MODULE"):
            self._advance()
            self._expect_type("identifier")
            self._expect(";")
            while self._at("FROM", "IMPORT"):
                self._advance()
                self._flat_until({";"})
                self._expect(";")
            self._declarations()
            self._body(".")
        else:
            self._declarations()
            if len(self.events) == 1:  # the root's node alone
                self._error("empty compilation unit")

    # -- declarations ------------------------------------------------------

    def _declarations(self) -> None:
        while True:
            if self._at(*SECTION_KEYWORDS):
                self._advance()
                while self._at_type("identifier"):
                    self._flat_until({";"})
                    self._expect(";")
            elif self._at("PROCEDURE"):
                self._procedure()
            else:
                return

    def _procedure(self) -> None:
        self._enter_level()
        self._put(FUNCTION)
        self._expect("PROCEDURE")
        self._expect_type("identifier")
        if self._at("("):
            self._balanced_group()
        if self._at(":"):
            self._advance()
            self._expect_type("identifier")
        self._expect(";")
        self._declarations()
        self._body(";")
        self._put(None)
        self.depth -= 1

    def _body(self, closer: str) -> None:
        """A module's or procedure's statements, END, name and closer.

        Its caller reads the declarations before them, so that a nested
        procedure costs two frames: _declarations and _procedure.
        """
        if self._at("BEGIN"):
            self._advance()
            self._statement_sequence({"END"})
        self._expect("END")
        self._expect_type("identifier")
        self._expect(closer)

    # -- statements --------------------------------------------------------

    def _statement_sequence(self, terminators: set) -> None:
        while True:
            tok = self._peek()
            if tok is None or (tok[1] == "keyword" and tok[0] in terminators):
                return
            self._statement()
            # Separator semicolons stay siblings of the construct nodes.
            if self._at(";"):
                self._advance()

    def _flat_statement(self) -> None:
        if not (self._at_type("identifier") or self._at("RETURN")):
            self._error("expected statement")
        self._flat_until(COND_STOPS)

    def _condition(self) -> None:
        self._put(CONDITION)
        if not self._flat_until(COND_STOPS):
            self._error("empty condition")
        self._put(None)

    def _if_statement(self) -> None:
        # IF opens the first branch and ELSIF each later one, which ends
        # at the next ELSIF, an ELSE or END.
        while self._at("IF", "ELSIF"):
            self._put(BRANCH)
            self._advance()
            self._condition()
            self._expect("THEN")
            self._statement_sequence({"ELSIF", "ELSE", "END"})
            self._put(None)
        if self._at("ELSE"):
            self._put(BRANCH)
            self._advance()
            self._statement_sequence({"END"})
            self._put(None)
        self._expect("END")

    def _while_loop(self) -> None:
        self._expect("WHILE")
        self._condition()
        self._expect("DO")
        self._statement_sequence({"END"})
        self._expect("END")

    def _repeat_loop(self) -> None:
        self._expect("REPEAT")
        self._statement_sequence({"UNTIL"})
        self._expect("UNTIL")
        self._condition()

    def _for_loop(self) -> None:
        self._expect("FOR")
        self._expect_type("identifier")
        self._expect(":=")
        self._flat_until(COND_STOPS)
        self._expect("TO")
        # The bound expression acts as the loop guard.
        self._condition()
        if self._at("BY"):
            self._advance()
            self._flat_until(COND_STOPS)
        self._expect("DO")
        self._statement_sequence({"END"})
        self._expect("END")

    def _loop(self) -> None:
        # Outside the subset; read flat, its END would close the
        # enclosing construct and the error would land far from it.
        self._error("LOOP statements are not supported")

    _STATEMENTS = {
        "IF": (BRANCHING, _if_statement),
        "WHILE": (LOOP, _while_loop),
        "REPEAT": (LOOP, _repeat_loop),
        "FOR": (LOOP, _for_loop),
        "LOOP": (None, _loop),
    }
    _CONSTRUCTS = frozenset({"PROCEDURE", "MODULE"}).union(
        lexeme for lexeme, (kind, _) in _STATEMENTS.items() if kind is not None
    )
