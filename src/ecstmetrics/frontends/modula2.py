"""Modula-2 frontend.

Supported subset: MODULE header with imports, CONST/TYPE/VAR sections,
nested PROCEDURE declarations, assignment and call statements, RETURN,
IF/ELSIF/ELSE, WHILE, REPEAT/UNTIL, and FOR.  Expressions stay flat:
only construct markers become universal nodes, every other token is a
direct concrete child of the nearest enclosing construct.
"""

from __future__ import annotations

from ..tree import EcstNode, UniversalKind
from .base import BaseParser

# Keywords that terminate a flat expression scan at bracket level zero.
COND_STOPS = frozenset(
    {";", "THEN", "DO", "OF", "END", "ELSIF", "ELSE", "UNTIL", "BEGIN", "TO", "BY"}
)

SECTION_KEYWORDS = ("VAR", "CONST", "TYPE")


class Modula2Parser(BaseParser):
    def parse_compilation_unit(self) -> EcstNode:
        kids: list[EcstNode] = []
        if self._at("MODULE"):
            kids.append(self._advance())
            kids.append(self._expect_type("identifier"))
            kids.append(self._expect(";"))
            while self._at("FROM", "IMPORT"):
                kids.append(self._advance())
                kids.extend(self._flat_until({";"}))
                kids.append(self._expect(";"))
            self._declarations(kids)
            if self._at("BEGIN"):
                kids.append(self._advance())
                self._statement_sequence(kids, {"END"})
            kids.append(self._expect("END"))
            kids.append(self._expect_type("identifier"))
            kids.append(self._expect("."))
        else:
            self._declarations(kids)
            if not kids:
                self._error("empty compilation unit")
        return self._universal(UniversalKind.COMPILATION_UNIT, kids)

    # -- declarations ------------------------------------------------------

    def _declarations(self, kids: list[EcstNode]) -> None:
        while True:
            if self._at(*SECTION_KEYWORDS):
                kids.append(self._advance())
                while self._at_type("identifier"):
                    kids.extend(self._flat_until({";"}))
                    kids.append(self._expect(";"))
            elif self._at("PROCEDURE"):
                kids.append(self._procedure())
            else:
                return

    def _procedure(self) -> EcstNode:
        k = [self._expect("PROCEDURE"), self._expect_type("identifier")]
        if self._at("("):
            k.extend(self._balanced_group())
        if self._at(":"):
            k.append(self._advance())
            k.append(self._expect_type("identifier"))
        k.append(self._expect(";"))
        self._declarations(k)
        if self._at("BEGIN"):
            k.append(self._advance())
            self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        k.append(self._expect_type("identifier"))
        k.append(self._expect(";"))
        return self._universal(UniversalKind.FUNCTION_DECL, k)

    # -- statements --------------------------------------------------------

    def _statement_sequence(self, kids: list[EcstNode], terminators: set) -> None:
        while True:
            tok = self._peek()
            if tok is None or (tok.token_type == "keyword" and tok.label in terminators):
                return
            self._statement(kids)
            # Separator semicolons stay siblings of the construct nodes.
            if self._at(";"):
                kids.append(self._advance())

    def _statement(self, kids: list[EcstNode]) -> None:
        if self._at("IF"):
            kids.append(self._if_statement())
        elif self._at("WHILE"):
            kids.append(self._while_loop())
        elif self._at("REPEAT"):
            kids.append(self._repeat_loop())
        elif self._at("FOR"):
            kids.append(self._for_loop())
        elif self._at("RETURN"):
            kids.append(self._advance())
            kids.extend(self._flat_until(COND_STOPS))
        elif self._at_type("identifier"):
            kids.extend(self._flat_until(COND_STOPS))
        else:
            self._error("expected statement")

    def _condition(self, stops: frozenset) -> EcstNode:
        nodes = self._flat_until(stops)
        if not nodes:
            self._error("empty condition")
        return self._universal(UniversalKind.CONDITION, nodes)

    def _if_statement(self) -> EcstNode:
        b = [self._expect("IF"), self._condition(COND_STOPS), self._expect("THEN")]
        self._statement_sequence(b, {"ELSIF", "ELSE", "END"})
        branches = [self._universal(UniversalKind.BRANCH, b)]
        while self._at("ELSIF"):
            b = [self._advance(), self._condition(COND_STOPS), self._expect("THEN")]
            self._statement_sequence(b, {"ELSIF", "ELSE", "END"})
            branches.append(self._universal(UniversalKind.BRANCH, b))
        if self._at("ELSE"):
            b = [self._advance()]
            self._statement_sequence(b, {"END"})
            branches.append(self._universal(UniversalKind.BRANCH, b))
        branches.append(self._expect("END"))
        return self._universal(UniversalKind.BRANCH_STATEMENT, branches)

    def _while_loop(self) -> EcstNode:
        k = [self._expect("WHILE"), self._condition(COND_STOPS), self._expect("DO")]
        self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        return self._universal(UniversalKind.LOOP_STATEMENT, k)

    def _repeat_loop(self) -> EcstNode:
        k = [self._expect("REPEAT")]
        self._statement_sequence(k, {"UNTIL"})
        k.append(self._expect("UNTIL"))
        k.append(self._condition(COND_STOPS))
        return self._universal(UniversalKind.LOOP_STATEMENT, k)

    def _for_loop(self) -> EcstNode:
        k = [self._expect("FOR"), self._expect_type("identifier"), self._expect(":=")]
        k.extend(self._flat_until(COND_STOPS))
        k.append(self._expect("TO"))
        # The bound expression acts as the loop guard.
        k.append(self._condition(COND_STOPS))
        if self._at("BY"):
            k.append(self._advance())
            k.extend(self._flat_until(COND_STOPS))
        k.append(self._expect("DO"))
        self._statement_sequence(k, {"END"})
        k.append(self._expect("END"))
        return self._universal(UniversalKind.LOOP_STATEMENT, k)
